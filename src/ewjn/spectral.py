"""Spectral densities of the fluctuating fields above the half-space.

chi_xx and chi_zz are the symmetrized noise spectral densities of the
electric field in (V/m)^2 s and of the magnetic field in T^2 s, at
height z above the surface and angular frequency omega, one-sided in
frequency. Models:

  local-quasistatic     closed forms in the Drude permittivity
  nonlocal-quasistatic  quasistatic integrals over the nonlocal
                        reflection coefficients
  local-retarded        full retarded integrals over the classical
                        Fresnel coefficients

regime_select picks a model from the physical scales: nonlocal effects
matter within tens of Fermi wavelengths of the surface, retardation
within a fraction of the skin depth of the far field.

Every model is one batch function of an array of (z, omega) points, and
evaluate_batch, the one evaluation path, groups the points by model and
makes one call per model; evaluate is a batch of one. A batch gives
each point the bits and the error that the point gets alone. Both
integral models are trapezoid sums on a log lattice that all the points
of one omega share, whose step halves by quadrature.lattice_sums's rule.
A nonlocal point is a sum in ln p of its r_p channel and, for B, one in
ln k of its r_s channel, on a lattice anchored at 2 k_F whose I_p
windows end at a fixed k_c, above which 1/eps_l - 1 is its series in
1/k and its part of I_p a sum in closed form (_nonlocal_quasistatic);
a local-retarded point
is one integral over a log-mapped axis, the vacuum normal wavevector q
near the surface and the line q = omega/c + i t far from it, whose sums
near the surface are series in z on moments of the lattice that all
heights share (_local_retarded).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError, require_positive_finite
from .fresnel import M, lattice_reflection, local_reflection_q, surface_response
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, epsilon_t, skin_depth
from .quadrature import (_NODES, _WEIGHTS_K, EPS, H0, MAX_HALVINGS, ROUNDING, QuadratureConfig,
                         lattice_sums, not_converged)


class Model(str, enum.Enum):
    LOCAL_QUASISTATIC = "local-quasistatic"
    NONLOCAL_QUASISTATIC = "nonlocal-quasistatic"
    LOCAL_RETARDED = "local-retarded"
    AUTO = "auto"

    def __str__(self) -> str:  # keep CLI output free of enum repr noise
        return self.value


# z below this many Fermi wavelengths: the local model badly understates
# electric noise and the nonlocal integrals are mandatory
_NONLOCAL_Z_LIMIT = 30.0
# z above this fraction of the skin depth: quasistatic forms drift at
# the percent level and the retarded integrals take over
_RETARDED_Z_FRACTION = 0.1


@dataclass(frozen=True)
class SpectralDensityTensor:
    """Diagonal noise tensor at one (z, omega) point.

    field_kind is "E" or "B"; chi_yy equals chi_xx by in-plane symmetry.
    decomposition carries signed partial integrals when a component is
    assembled from distinct polarization channels (magnetic xx only).
    """

    field_kind: str
    chi_xx: float
    chi_zz: float
    z: float
    omega: float
    model: Model
    error_estimate: float
    decomposition: dict = field(default_factory=dict)


def _drude_scales_error(material, omega, integral):
    """The DomainError of an omega at which the Drude permittivity's
    omega (omega + i nu) underflows to 0, or, for the integral models
    (integral), their omega^2 is not finite or their Drude permittivity
    or grazing wavevector (omega/c)/sqrt|eps| is not a finite, nonzero
    float, else None."""
    if integral and not math.isfinite(omega * omega):
        return DomainError(f"omega = {omega:.6g} rad/s is too large for {material.name}: "
                           f"omega^2 leaves the float range")
    if omega * complex(omega, material.collision_rate) == 0:
        return DomainError(f"omega = {omega:.6g} rad/s is too small for {material.name}: "
                           f"omega (omega + i nu) underflows to 0")
    if not integral:
        return None
    eps = drude_epsilon(material, omega)
    if cmath.isfinite(eps) and omega / C_LIGHT / math.sqrt(abs(eps)) != 0:
        return None
    return DomainError(f"omega = {omega:.6g} rad/s is too small for {material.name}: its Drude "
                       f"permittivity or (omega/c)/sqrt|eps| leaves the float range")


def regime_select(material: Material, z: float, omega: float) -> Model:
    """Pick the cheapest model that is honest at (z, omega).

    Inside 30 Fermi wavelengths the nonlocal quasistatic model is
    required. Between that and a tenth of the skin depth the local
    model is formally adequate for magnetic noise but still understates
    electric noise, so the nonlocal model is kept. Beyond a tenth of the
    skin depth retardation matters and the local retarded model takes
    over.
    """
    require_positive_finite("z", z)
    require_positive_finite("omega", omega)
    if z < _nonlocal_below(material, omega):
        return Model.NONLOCAL_QUASISTATIC
    return Model.LOCAL_RETARDED


def _nonlocal_below(material: Material, omega: float) -> float:
    """z below which the nonlocal model is kept at omega, from which the
    retarded one takes over."""
    return max(_NONLOCAL_Z_LIMIT * material.fermi_wavelength,
               _RETARDED_Z_FRACTION * skin_depth(material, omega))


# A model's batch function maps (material, field_kind, zs, omegas, cfg),
# one omega per z, to one outcome per point: a QuadratureError or
# DomainError, or the values (chi_xx, chi_zz, error_estimate,
# decomposition) of the tensor.

def _local_quasistatic(material, field_kind, zs, omegas, cfg) -> list:
    """The closed forms at every point.

      E: chi_xx = hbar/(8 eps0 z^3) Im[(eps-1)/(eps+1)], chi_zz = 2 chi_xx
      B: chi_zz = hbar omega^2/(8 eps0 c^4 z) Im eps, chi_xx = chi_zz/2

    The magnetic form holds well below the skin depth; its 1/z growth
    saturates near delta in the retarded treatment. Each point runs on
    Python floats, since numpy's power rounds differently from **. An
    electric point whose z^3 overflows or whose 8 eps0 z^3 underflows to
    0, and a magnetic point whose omega^2 overflows, gets a DomainError.
    """
    eps_of = {w: drude_epsilon(material, w) for w in set(omegas)}
    out = []
    for z, omega in zip(zs, omegas):
        eps = eps_of[omega]
        try:
            power = z**3 if field_kind == "E" else omega**2
        except OverflowError:
            out.append(DomainError(f"z = {z:.6g} m is too large: z^3 overflows"
                                   if field_kind == "E" else
                                   f"omega = {omega:.6g} rad/s is too large: omega^2 overflows"))
            continue
        if field_kind == "E":
            cube = 8.0 * EPS0 * power
            if cube == 0:
                out.append(DomainError(f"z = {z:.6g} m is too small: 8 eps0 z^3 underflows to 0"))
                continue
            chi_xx = HBAR / cube * ((eps - 1.0) / (eps + 1.0)).imag
            out.append((chi_xx, 2.0 * chi_xx, 0.0, {}))
        else:
            chi_zz = HBAR * power / (8.0 * EPS0 * C_LIGHT**4 * z) * eps.imag
            out.append((0.5 * chi_zz, chi_zz, 0.0, {}))
    return out


def _tail_cut(share: float) -> tuple:
    """(x, ratio) of the cut of an integrand bounded by u^3 exp(-2 u z):
    beyond U = x/(2z) it leaves exp(-x) (1 + x + x^2/2 + x^3/6) = share
    of its integral, and |f(U)| ratio/(2z) bounds that tail."""
    x = -math.log(share)
    for _ in range(4):
        x = -math.log(share) + math.log1p(x + x * x / 2.0 + x**3 / 6.0)
    return x, 1 + 3 / x + 6 / x**2 + 6 / x**3


# the nonlocal lattice's r_p sums are cut where they leave 1e-16
_LATTICE_CUT = _tail_cut(1e-16)


_SQRT_MAX, _SQRT_TINY = math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.min)


def _nonlocal_range(material, omega) -> tuple:
    """(lo, hi, edge) of the nonlocal points at omega: a point runs if
    0.1/z and 0.1 k_nu are >= lo and its cut p_U <= hi. Its lattice runs
    from k = lo/1e3, where k^2 must be normal and k^2 v_F^2, x^2 = ((omega
    + i nu)/(k v_F))^2 and (k_star/k)^2 |omega + i nu| finite (epsilon_l,
    epsilon_t and their Lindhard series form them), to at most 1e3 hi.
    eps_l's structure lies below edge = max(k_star, |omega + i nu|/v_F)."""
    vf, wn = material.fermi_velocity, abs(complex(omega, material.collision_rate))
    k_lo = max(_SQRT_TINY, max(wn / vf, material.k_star * math.sqrt(max(1.0, wn))) / _SQRT_MAX)
    return 1e3 * k_lo, _SQRT_MAX / max(1.0, vf) / 1e3, max(material.k_star, wn / vf)


# G's rule: sin u and w sin^3 u at the Kronrod 15-point nodes u of 8
# panels cut at (pi/2) 0.6^j, graded toward u = 0 where e^{-a sin u} turns
_G_EDGES = np.array([0.0] + [0.5 * math.pi * 0.6**j for j in range(7, -1, -1)])
_G_HALF = 0.5 * np.diff(_G_EDGES)[:, None]
_G_SIN = np.sin((0.5 * (_G_EDGES[:-1] + _G_EDGES[1:])[:, None] + _G_HALF * _NODES).ravel())
_G_WEIGHT = (_G_HALF * _WEIGHTS_K).ravel() * _G_SIN**3
# From this a on, G is its asymptotic series, whose neglected e^{-a} part
# is 1e-20 of G; below it the rule is good to a few ulps.
_G_SWITCH = 60.0
# the series' coefficients C(2n, n)/4^n (2n + 3)! of a^-(2n + 4), n = 19..0
_G_SERIES = [math.comb(2 * n, n) / 4**n * math.factorial(2 * n + 3) for n in range(19, -1, -1)]
# Below _G_TAYLOR, G is its Taylor series Sum_n (-a)^n I_{n+3}/n!, I_m =
# Integral_0^{pi/2} cos^m = I_{m-2} (m - 1)/m, whose terms fall from the
# first and stop at 1e-19 of G by n = 20; the coefficients, highest first.
_G_TAYLOR, _G_TAYLOR_COEFFS = 1.0, [2.0 / 3.0, -3.0 * math.pi / 16.0]
for _n in range(2, 20):
    _G_TAYLOR_COEFFS.append(_G_TAYLOR_COEFFS[-2] * (_n + 2) / ((_n + 3) * _n * (_n - 1)))
_G_TAYLOR_COEFFS.reverse()


def _polar_g(a):
    """G(a) = Integral_0^{pi/2} cos^3 theta e^{-a cos theta} dtheta at
    every a >= 0 of an array: G(0) = 2/3 and Integral_0^inf G da = pi/4.
    The Taylor series below _G_TAYLOR, the rule in u = pi/2 - theta below
    _G_SWITCH, the asymptotic series from it, which underflows quietly
    to 0 for a huge a."""
    g = np.empty(a.shape)
    small, far = a < _G_TAYLOR, a >= _G_SWITCH
    near = ~(small | far)
    g[small] = np.polyval(_G_TAYLOR_COEFFS, a[small])
    g[near] = (_G_WEIGHT * np.exp(-a[near][:, None] * _G_SIN)).sum(axis=1)
    b2 = (1.0 / a[far]) ** 2
    g[far] = np.polyval(_G_SERIES, b2) * b2 * b2
    return g


# The nonlocal lattice: k_n = 2 k_F e^{nh}, t = ln(k/(2 k_F)) = nh, from h =
# H0 on (quadrature.lattice_sums), so 2 k_F is a node at every h. A point's
# ranges are whole steps of H0: its r_p sum runs from p = _P_LOW min(1/z,
# edge) (_nonlocal_range), below which its summand falls like p^3 (E) or p
# (B), to the cut of _LATTICE_CUT; B's k-sum over a = 2kz from _A_LOW 2z
# min(k_nu, 1/(2z)) to _A_HIGH, beyond which it falls like a^-3. Every I_p
# window of an omega ends M nodes above n_c, the first grid point at or
# above k_c = _WINDOW_END edge, where |x| <= 1e-4 and phi is its series
# (_phi_series); the window's terms beyond its top, up to _SPAN in u, and
# I_p above n_c are sums of that series (_beyond_window) over the powers
# _POWERS: a constant, k^-2 .. k^-5, and k^-6 for the bound on the rest.
_P_LOW, _A_LOW, _A_HIGH = {"E": 1e-6, "B": 1e-16}, 1e-16, 1e6
_WINDOW_END, _SPAN = 1e4, 40.0
_POWERS = np.array([0, 2, 3, 4, 5, 6])
# (2/pi) Integral_0^{pi/2} sin^m for each of _POWERS (Wallis)
_WALLIS = np.array([math.gamma(k / 2.0 + 0.5) / math.gamma(k / 2.0 + 1.0) / math.sqrt(math.pi)
                    for k in _POWERS.tolist()])[:, None]


def _steps(material, k):
    """t = ln(k/(2 k_F)) of wavevector k in steps of H0."""
    return (math.log(k) - math.log(2.0 * material.fermi_wavevector)) / H0


def _nonlocal_cuts(material, field_kind, z, limits):
    """(i_lo, i_hi, j_lo, j_hi) of a nonlocal point: its r_p sum runs over
    p = 2 k_F e^{i H0} from the last grid point at or below _P_LOW min(1/z,
    edge) to the first at or above the cut x/(2z), its k-sum over k = 2 k_F
    e^{j H0}, both from lo/1e3 up. Its DomainError if 0.1/z or 0.1 k_nu
    lies below lo or the cut exceeds hi, (lo, hi, edge) = limits
    (_nonlocal_range)."""
    (lo, hi, edge), k_nu = limits, material.k_nu
    if not (0.1 / z >= lo):
        return DomainError(f"z = {z:.6g} m is too large for the nonlocal model: 0.1/z lies "
                           f"below {lo:.3g} 1/m, where the kernel leaves the float range")
    if not (0.1 * k_nu >= lo):
        return DomainError(f"nu/v_F = {k_nu:.3g} 1/m is too small for the nonlocal model: "
                           f"0.1 nu/v_F lies below {lo:.3g} 1/m, where the kernel leaves the "
                           f"float range")
    try:
        i_hi = math.ceil(_steps(material, _LATTICE_CUT[0] / 2.0 / z))
        p_cut = 2.0 * material.fermi_wavevector * math.exp(i_hi * H0)
    except OverflowError:  # ceil(inf), or e^t beyond the float range
        p_cut = math.inf
    if p_cut > hi:
        return DomainError(f"z = {z:.6g} m is too small for the nonlocal model: its cut "
                           f"wavevector, rounded up to the grid of t, exceeds {hi:.3g} 1/m, "
                           f"where the kernel leaves the float range")
    floor = math.ceil(_steps(material, lo / 1e3))
    return (max(math.floor(_steps(material, _P_LOW[field_kind] * min(1.0 / z, edge))),
                floor + M), i_hi,
            max(math.floor(_steps(material, _A_LOW * min(k_nu, 0.5 / z))), floor),
            min(math.ceil(_steps(material, _A_HIGH / 2.0 / z)),
                math.floor(_steps(material, 1e3 * hi))))


def _phi_series(material, omega, k):
    """a_m k^-m, m = 2 .. 5, of phi = 1/eps_l - 1 = Sum_m a_m k^-m at large
    k, and bounds on the real and imaginary parts of the rest, as two
    lists. f_l = 1 + i pi x/2 - x artanh x as x -> 0 (Im x > 0) makes
    eps_l - 1 = eta Q, eta = (k_star/k)^2, Q = 1 + (omega/w) delta/(1 + g
    delta), delta = f_l - 1, w = omega + i nu, g = i nu/w, and phi = -eta Q
    + eta^2 Q^2 - ...: a_2 = -k_star^2, a_3 = -i (pi/2) k_star^2 omega/v_F.
    The rest lies under twice the moduli of the k^-6 terms, its imaginary
    part under twice those that carry x and the k^-7 term's, 3 eta^3
    |q_1|; both are inf where eta exceeds 1e-4 or |x| 1e-2 (an n_c held
    below k_c by the float range)."""
    w, s = complex(omega, material.collision_rate), material.k_star / k
    eta, x = s * s, w / material.fermi_velocity / k
    r, g, a = omega / w, 1j * material.collision_rate / w, 0.5j * math.pi
    q1, q2 = r * a * x, -r * (1.0 + g * a * a) * x * x
    q3 = r * g * a * (2.0 + g * a * a) * x * x * x
    q4 = -r * (1.0 / 3.0 + g + 3.0 * g * g * a * a + g * g * g * a**4) * (x * x) * (x * x)
    rest = [math.inf, math.inf]
    if eta <= 1e-4 and max(abs(x.real), abs(x.imag)) <= 1e-2:
        m4, m6 = eta * abs(q4), eta * eta * abs(2.0 * q2 + q1 * q1)
        rest = [2.0 * (m4 + m6 + eta**3), 2.0 * (m4 + m6 + 3.0 * eta**3 * abs(q1))]
    return [-eta, -eta * q1, eta * (eta - q2), eta * (2.0 * eta * q1 - q3)], rest


@functools.lru_cache(maxsize=MAX_HALVINGS + 1)
def _beyond_table(h):
    """(2/pi) B_m(e) of _beyond_window at e = 0 .. _SPAN/h, 0 at the last, and
    e^{-mMh}, m = _POWERS: one table per step h of the lattice. Beyond the
    table's last term, where 1/sqrt(e^{2u} - 1) is e^{-u} to 1e-34, the
    terms are one geometric sum."""
    span, m = math.ceil(_SPAN / h), _POWERS[:, None]
    decay, j = np.exp(-m * np.arange(span + M + 1) * h), np.arange(span + M, M, -1)
    far = np.add.accumulate(decay[:, :M:-1] * (h / np.sqrt(np.expm1(2.0 * j * h))), axis=1)
    tail = [h * math.exp(-(k + 1) * (span + M + 1) * h) / -math.expm1(-(k + 1) * h)
            for k in _POWERS.tolist()]
    table = np.zeros((m.size, span + 1))
    table[:, :span] = 2.0 / math.pi * (far[:, ::-1] + np.array(tail)[:, None]) / decay[:, :span]
    return table, decay[:, M:M + 1]


def _beyond_window(coef, e, h):
    """(d, b) at nodes e steps below their window end k_e = k at n_c: d,
    the I_p - 1 a node gains from phi's series beyond its window's top,
    n_c + M, Sum_m a_m k_e^-m (2/pi) B_m(e) over the series' constant and
    k^-2 .. k^-5 (coef, one row per lattice row), and b = (2/pi) B_6(e).
    For e >= 0, B_m is the window's trapezoid terms beyond its top, Sum_{j
    > e + M} e^{m(e - j)h} h/sqrt(e^{2jh} - 1), summed from the far end,
    and 0 from e = _SPAN/h on; for e < 0, a node with no window, e^{meh}
    Integral_0^{pi/2} sin^m (Wallis)."""
    table = _beyond_table(h)[0]
    per_row = sum(coef[:, m, None] * table[m] for m in range(5))
    rows, at = np.arange(e.shape[0])[:, None], np.minimum(np.maximum(e, 0), table.shape[1] - 1)
    d, b, above = per_row[rows, at], table[5][at], np.nonzero(e < 0)
    if above[0].size:
        terms = np.exp(_POWERS[:, None] * e[above] * h) * _WALLIS
        d[above], b[above] = (coef[above[0]] * terms[:5].T).sum(axis=1), terms[5]
    return d, b


def _refine(old, old_lo, at, lo, hi, h, kernel):
    """(values, first) of kernel(k, rows) at k = e^{nh} in each row r from
    the least lo[i] to the greatest hi[i] with at[i] = r, 0 elsewhere,
    columns from n = first = min(lo): even n from old, the lattice at 2h
    from column old_lo, odd n (all n if old is None) from kernel, whose
    values may carry trailing axes."""
    row_lo, row_hi = np.full(at.max() + 1, hi.max()), np.full(at.max() + 1, lo.min() - 1)
    np.minimum.at(row_lo, at, lo)
    np.maximum.at(row_hi, at, hi)
    n = np.arange(lo.min(), hi.max() + 1)
    valid = (n >= row_lo[:, None]) & (n <= row_hi[:, None])
    fresh = valid if old is None else valid & (n % 2 == 1)
    rows, cols = np.nonzero(fresh)
    values = np.asarray(kernel(np.exp(n[cols] * h), rows))
    values = np.broadcast_to(values, rows.shape + values.shape[1:])
    new = np.zeros(valid.shape + values.shape[1:], dtype=values.dtype)
    new[fresh] = values
    if old is not None:
        rows, cols = np.nonzero(valid & ~fresh)
        new[rows, cols] = old[rows, n[cols] // 2 - old_lo]
    return new, int(n[0])


def _nonlocal_quasistatic(material, field_kind, zs, omegas, cfg) -> list:
    """The nonlocal quasistatic integrals at every point, as one batch.

    E: chi_zz = (hbar/eps0) Integral_0^inf dp p^2 e^{-2pz} Im r_p(p),
       chi_xx = chi_zz/2.
    B: chi_zz = (hbar/(eps0 c^2)) Integral dp p^2 e^{-2pz} Im r_s(p) and
       chi_xx = rs_part + rp_part, rs_part = chi_zz/2, rp_part = (hbar
       omega^2/(2 eps0 c^4)) Integral dp e^{-2pz} Im r_p(p), both kept
       in decomposition. Im r_s is linear in eps_t, so p = k cos theta,
       kappa = k sin theta swap its p- and kappa-integrals: chi^B_zz =
       hbar omega^2/(2 pi eps0 c^4 z) Integral_0^inf da Im eps_t(a/(2z),
       omega) G(a), and a constant eps_t gives the local closed form.

    Each integral is a trapezoid sum in ln p (ln k) on the lattice of its
    omega, shared by all its points: h Sum p^3 e^{-2pz} Im r_p (E; p for
    B's rp_part) with r_p from one correlation of phi = 1/eps_l - 1
    (fresnel.lattice_reflection) up to n_c plus the window's terms beyond
    its top on phi's series, r_p above n_c from the series alone, and h
    Sum a Im eps_t(k) G(a), a = 2kz. The summands are analytic in a strip
    and decay at both ends, so the sums converge geometrically in 1/h, on
    the lattice rule of quadrature.lattice_sums; a sum's error adds to its
    h/2h difference bounds on its tails beyond its ends, on its summands'
    rounding and, for r_p, on the series' first neglected term. A point
    that misses rel_tol gets a QuadratureError. The lattice at h/2 asks
    the kernels for its odd nodes only. A node's values depend on
    (material, omega, h, n) alone and each sum adds an array of its own
    summands, so a point gets the bits and the outcome it gets alone. A
    point outside _nonlocal_range gets a DomainError and does not run.
    """
    cfg = cfg or QuadratureConfig()
    ranges = {w: _nonlocal_range(material, w) for w in set(omegas)}
    out = [_nonlocal_cuts(material, field_kind, z, ranges[w]) for z, w in zip(zs, omegas)]
    running = [k for k, cuts in enumerate(out) if not isinstance(cuts, DomainError)]
    # one lattice per omega of the running points; its window end n_c in steps
    # of H0, held M steps below the lattice's top, 1e3 hi, and phi's series there
    distinct, row = np.unique([omegas[k] for k in running], return_inverse=True)
    two_kf, ends = 2.0 * material.fermi_wavevector, []
    for _, hi, edge in (ranges[w] for w in distinct.tolist()):
        top = math.floor(_steps(material, 1e3 * hi)) - M
        ends.append(math.ceil(min(_steps(material, _WINDOW_END * edge), top)))
    series = [_phi_series(material, w, two_kf * math.exp(n * H0))
              for w, n in zip(distinct.tolist(), ends)]
    coef = np.array([c for c, _ in series], dtype=complex).reshape(-1, 4)
    rests = np.array([b for _, b in series]).reshape(-1, 2)
    im_local = [((e - 1.0) / (e + 1.0)).imag
                for e in (drude_epsilon(material, w) for w in distinct.tolist())]
    cuts, power = np.array([out[k] for k in running]), 3 if field_kind == "E" else 1
    phi, phi_lo, im_t, t_lo = None, None, None, None

    def sums(level, h, live):
        nonlocal phi, phi_lo, im_t, t_lo
        first, at = cuts[live] * 2**level, row[live]
        end = np.array(ends[:at.max() + 1]) * 2**level
        phi, phi_lo = _refine(phi, phi_lo, at, np.minimum(first[:, 0], end[at]) - M,
                              end[at] + M, h,
                              lambda k, r: surface_response(material, two_kf * k, distinct[r]))
        last = int(first[:, 1].max())
        n = np.arange(phi_lo + M, last + 1)
        p, e = two_kf * np.exp(n * h), end[:, None] - n
        # I_p - 1 up to n_c from the window and the series beyond its top, d =
        # that tail, r_p = r - (1 + r)^2 d/(2 + (1 + r) d) of the window's r;
        # above n_c from the series alone, with r = 0. The series' constant
        # a_0 = phi(inf) is what the kernel keeps at the top beyond its
        # rounding, 8 eps: 0 for a Lindhard eps_l, all of phi for a
        # k-independent one. dr_p = -s2 dI_p/2, s2 = (1 + r_p)^2, so the rest
        # moves Im r_p by at most (|Im s2| |its Re| + |Re s2| |its Im|)/2.
        r_p = np.zeros(e.shape, dtype=complex)
        count = min(last, int(end.max())) - phi_lo - M + 1
        r_p[:, :count] = lattice_reflection(phi, h, count)
        r_p[e < 0] = 0.0
        series, bound = coef[:end.size], rests[:end.size]
        a_0 = phi[np.arange(end.size), end + M - phi_lo] - (
            series * _beyond_table(h)[1][1:5, 0]).sum(axis=1)
        a_0[np.abs(a_0) <= 8.0 * EPS] = 0.0
        d, b_6 = _beyond_window(np.concatenate([a_0[:, None], series], axis=1), e, h)
        one = 1.0 + r_p
        r_p -= one * one * d / (2.0 + one * d)
        s2 = (1.0 + r_p)**2
        rest = (np.abs(s2.imag) * bound[:, :1] + np.abs(s2.real) * bound[:, 1:]) * (0.5 * b_6)
        points = [running[i] for i in live.tolist()]
        if field_kind == "B":
            im_t, t_lo = _refine(im_t, t_lo, at, first[:, 2], first[:, 3], h,
                                 lambda k, r: epsilon_t(material, two_kf * k, distinct[r]).imag)
            # every k-sum's terms, with one _polar_g call for all of them
            nodes = [np.arange(j_lo, j_hi + 1) for j_lo, j_hi in first[:, 2:].tolist()]
            a = [2.0 * two_kf * np.exp(j * h) * zs[k] for j, k in zip(nodes, points)]
            g = np.split(_polar_g(np.concatenate(a)), np.cumsum([x.size for x in a])[:-1])
            zz_terms = [a_k * im_t[r, j - t_lo] * g_k for r, j, a_k, g_k in zip(at, nodes, a, g)]
        values, errs = [], []
        for i, (k, r, (i_lo, i_hi, j_lo, _)) in enumerate(zip(points, at, first)):
            z, run = zs[k], slice(i_lo - phi_lo - M, i_hi - phi_lo - M + 1)
            weight = p[run] ** power * np.exp(-2.0 * p[run] * z)
            terms = weight * r_p[r, run].imag
            # below p[0] Im r_p stays under the larger of its value there and
            # its local limit; above p[-1] it grows at most like p
            lo_power, x = float(p[run][0] ** power), 2.0 * float(p[run][-1]) * z
            tails = [lo_power / power * max(float(r_p[r, run][0].imag), im_local[r])
                     + float(terms[-1]) * sum(math.perm(power, n) / x**n
                                              for n in range(power + 1)) / x
                     + h * float((weight * rest[r, run]).sum())]
            parts = [terms]
            if field_kind == "B":
                # below a_lo Im eps_t is flat at its value there and G <= 2/3;
                # above the last node Im eps_t does not grow and G ~ a^-4
                parts.append(zz_terms[i])
                tails.append(float(a[i][0] * im_t[r, j_lo - t_lo]) * 2.0 / 3.0
                             + float(zz_terms[i][-1]) / 3.0)
            values.append([h * float(t.sum()) for t in parts])
            errs.append([tail + ROUNDING * h * float(np.abs(t).sum())
                         for t, tail in zip(parts, tails)])
        return np.array(values), np.array(errs)

    # a point's non-finite sums, kernel values included, become a DomainError
    # of evaluate_batch, without warnings
    with np.errstate(all="ignore"):
        values, errs, missed = lattice_sums(len(running), sums, cfg)
    for k, v, e, miss in zip(running, values.tolist(), errs.tolist(), missed.tolist()):
        out[k] = _nonlocal_outcome(field_kind, omegas[k], zs[k], v, e, miss, cfg)
    return out


def _nonlocal_outcome(field_kind, omega, z, values, errs, missed, cfg):
    """A point's outcome from its sums (E: r_p; B: r_p, k-sum) and errors."""
    if field_kind == "E":
        chi_zz, err = HBAR / EPS0 * values[0], HBAR / EPS0 * errs[0]
        outcome = (0.5 * chi_zz, chi_zz, err, {})
    else:
        scale_zz = HBAR * omega**2 / (2.0 * math.pi * EPS0 * C_LIGHT**4 * z)
        rp_scale = 0.5 * HBAR / (EPS0 * C_LIGHT**2) * (omega / C_LIGHT) ** 2
        chi_zz, rp_part = scale_zz * values[1], rp_scale * values[0]
        err = scale_zz * errs[1] + rp_scale * errs[0]
        outcome = (0.5 * chi_zz + rp_part, chi_zz, err,
                   {"rs_part": 0.5 * chi_zz, "rp_part": rp_part})
    return not_converged("nonlocal", cfg, chi_zz, err) if missed else outcome


# The local-retarded lattice: s_n = nh, x_n = (omega/c) e^{s_n}. A sum starts
# e^-_LOW_SPAN below its scale, omega/c (1/(2z) on the line), leaving e^-44 of
# (omega/c)^3 or of the value (e^-60 on the evanescent sector, whose summand
# falls like u^2). The evanescent sum and the line end at the last node with
# 2 x z <= _DECAY_CUT, the propagating one, on q = (omega/c)/(1 + e^-s), at
# s = _PROP_TOP, e^-40 short of q = omega/c. _ORDER cuts _moment_sum's series.
_CONTOUR_FROM, _DECAY_CUT, _ORDER, _PROP_TOP = 1.0, 700.0, 20, 40
_LOW_SPAN = {"prop": 44, "ev": 30, "line": 44}


def _moment_sum(moments, moduli, count, c, reach):
    """(Sum_m c^m/m! moments[m], its error), (points, columns), by Horner's rule on
    moments[m] = Sum_n y_n^m F_n (columns, points or 1) over count nodes, |c| y_n <= reach:
    each and 4 _ORDER steps round by eps of e^reach moduli (Sum |F_n|), the cut by reach^21/21!."""
    acc, steps = moments[-1] * np.ones_like(c), c / np.arange(1, _ORDER + 1)[:, None]
    for m in range(_ORDER, 0, -1):
        acc *= steps[m - 1]
        acc += moments[m - 1]
    bound = (np.exp(reach) * (count + 4 * _ORDER) * EPS
             + reach ** (_ORDER + 1) / math.factorial(_ORDER + 1))
    return acc.T, (moduli * bound).T


def _propagating(block, n, h, a, moments):
    """(value, error, moments) per point of h Re Sum_n e^{i a y_n} block_n, y_n =
    1/(1 + e^{-nh}), a = 2 z omega/c < 1: _moment_sum in i a on moments all points
    share, at h/2 those at h plus the odd nodes'; each tail under twice its end term."""
    y, new = 1.0 / (1.0 + np.exp(-n * h)), (n % 2 == 1) | (moments is None)
    part = np.concatenate([(y[new] ** np.arange(_ORDER + 1)[:, None] @ block[new].view(float))
                           .view(complex), np.abs(block[new]).sum(0, keepdims=True)])
    moments = part if moments is None else moments + part
    value, bound = _moment_sum(moments[:-1, :, None], moments[-1].real[:, None], y.size, 1j * a,
                               a * y[-1])
    return h * value.real, h * bound + 2.0 * (np.abs(block[0]) + np.abs(block[-1])), moments


def _decayed(x, block, two_z, lo, hi):
    """(sums, sums of moduli), (points, columns), of each point's terms e^{-2 z x_n}
    block_n at nodes lo..hi of a row, two_z = 2z, in order by reduceat: its bits alone."""
    counts = hi - lo + 1
    starts = np.cumsum(counts) - counts
    nodes = np.repeat(lo - starts, counts) + np.arange(counts.sum())
    terms = np.exp(-np.repeat(two_z, counts) * x[nodes]) * np.take(block.T, nodes, axis=1)
    return [np.add.reduceat(t, starts, axis=1).T for t in (terms, np.abs(terms))]


def _phase(z, omega):
    """e^{2 i z omega/c} from its phase as a double q plus the exact rest,
    good to a few ulps however many turns 2 z omega/c makes."""
    from fractions import Fraction  # only far points pay for the import

    phase = Fraction(2.0 * z) * Fraction(omega) / Fraction(C_LIGHT)
    return cmath.exp(1j * (q := float(phase))) * cmath.exp(1j * float(phase - Fraction(q)))


def _local_retarded(material, field_kind, zs, omegas, cfg) -> list:
    """The local retarded integrals at every point, as one batch.

    chi = scale * (I_xx, I_zz), scale = hbar/eps0 (E) or hbar/(eps0 c^2) (B),
      I_xx = Re Integral dp (p/q) e^{2 i q z} (omega^2/c^2 r_a - q^2 r_b)/2
      I_zz = Re Integral dp (p^3/q) e^{2 i q z} r_b
    with (r_a, r_b) = (r_s, r_p) for E and swapped for B, from the vacuum
    normal wavevector q (local_reflection_q). As (p/q) dp = -dq, that is
    Re Integral dq e^{2iqz} X(q) along q = i u, u from infinity to 0, then
    q from 0 to omega/c: near the surface a trapezoid sum in ln u of
    e^{-2uz} Im X(iu), whose terms cannot cancel, plus one in s, q =
    (omega/c)/(1 + e^-s), which sends q = omega/c to s = infinity; from
    _CONTOUR_FROM on, where that one cancels, one in ln t on q = omega/c +
    i t (the swept quadrant holds neither r_p's pole nor q_m's branch
    point; K. A. Michalski and J. R. Mosig, IEEE TAP 45, 508 (1997)). The
    points of one omega share its lattice, halved by lattice_sums, and
    moments: the propagating sum is a series in 2 i z omega/c
    (_propagating), and every evanescent sum starts at one node, so up to
    its switch node, the last with 2 z x <= 1 whose prefix moments Sum
    e^{mnh} F_n (one cumsum per omega and h) are finite, it is a series in
    -2 z omega/c on them; its other terms and the line's are summed one by
    one (_decayed). A point gets its bits and outcome alone, and a
    DomainError if its integrand would leave the float range or its eps
    rounds to 1.
    """
    cfg, out = cfg or QuadratureConfig(), [None] * len(zs)
    distinct, row = np.unique(omegas, return_inverse=True)
    eps_r = np.array([drude_epsilon(material, w) for w in distinct.tolist()])
    w_c_of, z_of = distinct / C_LIGHT, np.asarray(zs, dtype=float)
    w_c, w, size = w_c_of.tolist(), w_c_of[row], np.abs(eps_r)[row]
    with np.errstate(all="ignore"):
        # from e^-44 min(omega/c, 1/(2z)) to M = max(_DECAY_CUT/(2z), omega/c): the first node
        # and g = (omega/c)/sqrt|eps| normal, M/g, |eps| M, M^3 and the phase 2 z omega/c finite
        m, g = np.maximum(_DECAY_CUT / (2.0 * z_of), w), w / np.sqrt(size)
        fits = ((np.minimum(g, np.minimum(w, 0.5 / z_of) * math.exp(-44)) >= sys.float_info.min)
                & np.isfinite([m / g, size * m, m * m * m, 2.0 * z_of * w]).all(axis=0))
        # ln(1/(2 z omega/c)) in steps of H0; per sector (points, first, last)
        scale_n = np.where(fits, np.log(0.5 / (z_of * w)) / H0, 0.0)
        far = 2.0 * z_of * w >= _CONTOUR_FROM
    for i in np.flatnonzero(~fits | (eps_r.real == 1.0)[row]).tolist():
        if not fits[i]:
            out[i] = DomainError(f"z = {zs[i]:.6g} m, omega = {omegas[i]:.6g} rad/s: the "
                                 f"local-retarded integrand leaves the float range")
        elif material.plasma_frequency**2 != 0:
            # eps - 1 has lost its real part, and r_s, r_p = (a - b)/(a + b) all digits
            out[i] = DomainError(f"omega = {omegas[i]:.6g} rad/s is too large for "
                                 f"{material.name}: its Drude permittivity rounds to 1 and "
                                 f"the Fresnel coefficients keep no digit")
    ok = np.flatnonzero([o is None for o in out])
    low = {k: -round(v / H0) for k, v in _LOW_SPAN.items()}
    last = np.floor(scale_n + math.log(_DECAY_CUT) / H0).astype(int)
    zero = np.zeros_like(last)
    spans = {"ev": (~far, zero + low["ev"], last),
             "prop": (~far, zero + low["prop"], zero + round(_PROP_TOP / H0)),
             "line": (far, np.floor(scale_n).astype(int) + low["line"], last)}

    def kernel(sector):  # dq/ds X(q) at the sector's nodes k = e^s: columns xx, zz
        def run(k, rows):
            # gap = omega/c - q, exact, so that p^2 = gap (omega/c + q) keeps its digits
            w, x_n = w_c_of[rows], w_c_of[rows] * k
            gap = {"ev": w - 1j * x_n, "prop": w / (1.0 + k) + 0j, "line": -1j * x_n}[sector]
            q = x_n / (1.0 + k) + 0j if sector == "prop" else w - gap
            jac = q.real * gap.real / w if sector == "prop" else x_n
            pair = local_reflection_q(q, (eps_r[rows] - 1.0) * w * w, eps_r[rows])
            r_a, r_b = (pair.r_p, pair.r_s) if field_kind == "B" else (pair.r_s, pair.r_p)
            if sector == "ev":
                # Re(-i X) = Im X from Im r alone: q^2 = -u^2 and p^2 are real
                return np.stack([0.5 * x_n * (w * w * r_a.imag + x_n * x_n * r_b.imag),
                                 x_n * (w * w + x_n * x_n) * r_b.imag], axis=-1)
            return np.stack([0.5 * jac * (w * w * r_a - q * q * r_b),
                             jac * gap * (w + q) * r_b], axis=-1)
        return run

    lattices, shared = {}, {}

    def sums(level, h, live):
        step, live = 2**level, ok[live]
        values, errs = np.zeros((len(zs), 2)), np.zeros((len(zs), 2))
        for sector, (member, lo, hi) in spans.items():
            points = live[member[live]]
            if not points.size:
                continue
            lo, hi = lo[points] * step, hi[points] * step
            table, start = lattices[sector] = _refine(*lattices.get(sector, (None, None)),
                                                      row[points], lo, hi, h, kernel(sector))
            for r in sorted(set(row[points].tolist())):
                idx, a, b = (v[row[points] == r] for v in (points, lo, hi))
                n = np.arange(a.min(), b.max() + 1)
                block, two_z = table[r, n[0] - start:n[-1] - start + 1], 2.0 * z_of[idx]
                if sector == "prop":
                    value, err, shared[r] = _propagating(block, n, h, two_z * w_c[r], shared.get(r))
                    values[idx] += value
                    errs[idx] += err
                    continue
                e_n, a, b, head, err = np.exp(n * h), a - n[0], b - n[0], 0.0, 0.0
                x = w_c[r] * e_n
                # the tail below the first node stays under twice its term, the
                # one beyond the last, where X grows at most like x^3, under |X|
                # e^{-2xz}/(2z) (1 + 3/y + 6/y^2 + 6/y^3), y = 2xz
                first, end = (np.abs(block[k] * np.exp(-two_z * x[k])[:, None]) for k in (a, b))
                if sector == "ev":
                    # up to each switch node s from the prefix moments, while finite
                    s = np.floor(scale_n[idx] * step).astype(int) - n[0]
                    y, f = e_n[:s.max() + 1], np.ascontiguousarray(block[:s.max() + 1].T)
                    with np.errstate(over="ignore", invalid="ignore"):
                        powers = y ** np.arange(_ORDER + 1)[:, None, None]
                        moments = np.cumsum(np.concatenate([powers * f, np.abs(f)[None]]), 2)
                    s = np.minimum(s, np.isfinite(moments).all((0, 1)).sum() - 1)
                    moments = np.take(moments, s, axis=2)
                    head, err = _moment_sum(moments[:-1], moments[-1], s + 1, -two_z * w_c[r],
                                            two_z * x[s])
                    a = s + 1
                direct, moduli = _decayed(x, block, two_z, a, b)
                value, y = h * (head + direct), two_z * x[b]
                if sector == "line":
                    value = (np.array([_phase(zs[i], omegas[i]) for i in idx.tolist()])[:, None]
                             * value).imag
                # the terms summed one by one round by count eps of their moduli
                values[idx] += value
                errs[idx] += (h * moduli * ((b - a + 1) * EPS)[:, None] + 2.0 * first
                              + end * ((1 + 3 / y + 6 / y**2 + 6 / y**3) / y)[:, None] + h * err)
        return values[live], errs[live]

    # a point's non-finite sums become a DomainError of evaluate_batch
    scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
    values, errs, missed = lattice_sums(ok.size, sums, cfg)
    chi, errs = (scale * values).tolist(), (scale * errs.max(axis=1, initial=0.0)).tolist()
    for i, (xx, zz), err, miss in zip(ok.tolist(), chi, errs, missed.tolist()):
        out[i] = not_converged("local-retarded", cfg, zz, err) if miss else (xx, zz, err, {})
    return out


_BATCH = {
    Model.LOCAL_QUASISTATIC: _local_quasistatic,
    Model.NONLOCAL_QUASISTATIC: _nonlocal_quasistatic,
    Model.LOCAL_RETARDED: _local_retarded,
}


def evaluate_batch(
    material: Material,
    field_kind: str,
    zs,
    omega,
    model: Model | str = Model.AUTO,
    cfg: QuadratureConfig | None = None,
) -> list:
    """evaluate at every (z, omega) point, as outcomes.

    omega is one frequency for every z of zs, or one per z; any other
    length raises DomainError. Outcome i is the tensor at point i, or
    the DomainError or QuadratureError that evaluate would raise there.
    model="auto" resolves per point; the points of each model then run
    as one batch, with the outcomes a point-by-point run would give. A
    point whose chi_xx, chi_zz or error_estimate is not finite (its
    inputs leave the float range) gets a DomainError, and so does a
    point whose omega fails _drude_scales_error and a point of the
    integral models whose |chi_xx| or |chi_zz| underflows below the
    smallest normal float (a subnormal keeps a few bits, or none) where
    the metal responds (its omega_p^2 is not 0).
    """
    if field_kind not in ("E", "B"):
        raise DomainError("field_kind must be 'E' or 'B'")
    model = Model(model)
    omegas = np.ravel(np.asarray(omega, dtype=float)).tolist()
    if len(omegas) == 1:
        omegas *= len(zs)
    if len(omegas) != len(zs):
        raise DomainError("omega must be one value or one per z")
    out = [None] * len(zs)
    z_of, w_of = np.asarray(zs, dtype=float), np.asarray(omegas)
    run = (z_of > 0) & (z_of < math.inf) & (w_of > 0) & (w_of < math.inf)
    for i in np.flatnonzero(~run).tolist():
        try:
            require_positive_finite("z", zs[i])
            require_positive_finite("omega", omegas[i])
        except DomainError as exc:
            out[i] = exc
    run = np.flatnonzero(run)
    # per distinct omega: its DomainError, or None
    distinct, at = np.unique(w_of[run], return_inverse=True)
    distinct = distinct.tolist()
    errors = [_drude_scales_error(material, w, model is not Model.LOCAL_QUASISTATIC)
              for w in distinct]
    failed = np.array([e is not None for e in errors], dtype=bool)[at]
    for i, k in zip(run[failed].tolist(), at[failed].tolist()):
        out[i] = errors[k]
    run, at = run[~failed], at[~failed]
    by_model = {model: run}
    if model is Model.AUTO:
        below = np.array([math.nan if e else _nonlocal_below(material, w)
                          for w, e in zip(distinct, errors)])
        near = z_of[run] < below[at]
        by_model = {Model.NONLOCAL_QUASISTATIC: run[near], Model.LOCAL_RETARDED: run[~near]}
    for m, idx in by_model.items():
        idx, closed_form = idx.tolist(), m is Model.LOCAL_QUASISTATIC
        if not idx:
            continue
        outcomes = _BATCH[m](material, field_kind, [zs[i] for i in idx],
                             [omegas[i] for i in idx], cfg)
        for i, outcome in zip(idx, outcomes):
            if isinstance(outcome, Exception):
                out[i] = outcome
            elif not all(map(math.isfinite, outcome[:3])):
                out[i] = DomainError(f"chi is not finite at z = {zs[i]:.6g} m, omega = "
                                     f"{omegas[i]:.6g} rad/s; the inputs leave the float range")
            elif (not closed_form and min(map(abs, outcome[:2])) < sys.float_info.min
                  and material.plasma_frequency**2 != 0):
                out[i] = DomainError(f"chi underflows at z = {zs[i]:.6g} m, omega = "
                                     f"{omegas[i]:.6g} rad/s; the inputs leave the float range")
            else:
                chi_xx, chi_zz, err, parts = outcome
                out[i] = SpectralDensityTensor(field_kind, chi_xx, chi_zz, zs[i], omegas[i], m,
                                               err, parts)
    return out


def evaluate(
    material: Material,
    field_kind: str,
    z: float,
    omega: float,
    model: Model | str = Model.AUTO,
    cfg: QuadratureConfig | None = None,
) -> SpectralDensityTensor:
    """Evaluate one noise tensor, resolving model="auto" by regime."""
    [outcome] = evaluate_batch(material, field_kind, [z], omega, model, cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
