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

Every model is one batch function of (z, omega) points that returns
columns, and evaluate_columns, the one evaluation path, groups the
points by model, makes one call per model and checks the columns by
masks; evaluate_batch adds tensors, and evaluate is a batch of one. A
batch gives each point the bits and the error it gets alone. Both
integral models are trapezoid sums on a log lattice that all the points
of one omega share, whose step halves by quadrature.lattice_sums's rule:
each lattice's kernel runs once for h = H0 and H0/2, on the nodes at
H0/2 (quadrature._refine), and the lattice at H0 is their even nodes.
A nonlocal point is a sum in ln p of its r_p channel and, for B, one in
ln k of its r_s channel, on a lattice anchored at 2 k_F whose I_p
windows end at a fixed k_c, above which 1/eps_l - 1 is its series in 1/k
and its part of I_p a sum in closed form (_nonlocal_quasistatic); a
local-retarded point is one integral over a log-mapped axis, the vacuum
normal wavevector q near the surface and the line q = omega/c + i t far
from it, whose sums near the surface are series in z on moments of the
lattice that all heights share (_local_retarded).
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
from .quadrature import (EPS, H0, MAX_HALVINGS, ROUNDING, QuadratureConfig, _polar_g, _refine,
                         _runs, _within, lattice_sums, not_converged)


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


def _distinct(values):
    """np.unique(values, return_inverse=True) of a float array, a NaN
    mapped to the first NaN, at a fifth of its first call's cost."""
    distinct = np.array(list(set(values.tolist())))
    distinct.sort()
    return distinct, distinct.searchsorted(values)


def _nonlocal_below(material: Material, omega: float) -> float:
    """z below which the nonlocal model is kept at omega, from which the
    retarded one takes over."""
    return max(_NONLOCAL_Z_LIMIT * material.fermi_wavelength,
               _RETARDED_Z_FRACTION * skin_depth(material, omega))


def _pow(x, n):
    """x**n on Python floats (numpy's power rounds otherwise), inf on overflow."""
    try:
        return x**n
    except OverflowError:
        return math.inf


# A model's batch function maps (material, field_kind, zs, omegas, cfg),
# lists of Python floats with one omega per z, to (columns, failed): the
# (n, 5) chi_xx, chi_zz, error_estimate, rs_part and rp_part (NaN where the
# model has no decomposition; any values at a failed point) and {index:
# QuadratureError or DomainError} of the failed points.

def _local_quasistatic(material, field_kind, zs, omegas, cfg) -> tuple:
    """The closed forms at every point, as array products and quotients.

      E: chi_xx = hbar/(8 eps0 z^3) Im[(eps-1)/(eps+1)], chi_zz = 2 chi_xx
      B: chi_zz = hbar omega^2/(8 eps0 c^4 z) Im eps, chi_xx = chi_zz/2

    The magnetic form holds well below the skin depth; its 1/z growth
    saturates near delta in the retarded treatment. An electric point
    whose z^3 (_pow) overflows or whose 8 eps0 z^3 underflows to 0, and a
    magnetic point whose omega^2 overflows, gets a DomainError.
    """
    electric, (distinct, at) = field_kind == "E", _distinct(np.array(omegas))
    im = np.array([((e - 1.0) / (e + 1.0) if electric else e).imag
                   for e in (drude_epsilon(material, w) for w in distinct.tolist())])[at]
    power = np.array([_pow(x, 3 if electric else 2) for x in (zs if electric else omegas)])
    cols = np.full((len(zs), 5), math.nan)
    with np.errstate(all="ignore"):
        if electric:
            cube = 8.0 * EPS0 * power
            cols[:, 0] = HBAR / cube * im
            cols[:, 1] = 2.0 * cols[:, 0]
        else:
            cols[:, 1] = HBAR * power / (8.0 * EPS0 * C_LIGHT**4 * np.array(zs)) * im
            cols[:, 0] = 0.5 * cols[:, 1]
    cols[:, 2] = 0.0
    failed = {i: DomainError(f"z = {zs[i]:.6g} m is too large: z^3 overflows" if electric else
                             f"omega = {omegas[i]:.6g} rad/s is too large: omega^2 overflows")
              for i in np.flatnonzero(power == math.inf).tolist()}
    if electric:
        failed.update((i, DomainError(f"z = {zs[i]:.6g} m is too small: 8 eps0 z^3 underflows "
                                      f"to 0")) for i in np.flatnonzero(cube == 0).tolist())
    return cols, failed


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


def _nonlocal_quasistatic(material, field_kind, zs, omegas, cfg) -> tuple:
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
    that misses rel_tol gets a QuadratureError. The kernels run once for
    h = 1/4 and 1/8, on the lattice at 1/8, and at each further halving
    for the odd nodes only; the work after them carries the steps of one
    call side by side, with one correlation per step. A node's values
    depend on (material, omega, h, n) alone and each sum adds an array of
    its own summands, so a point gets the bits and the outcome it gets
    alone. A point outside _nonlocal_range gets a DomainError and does
    not run.
    """
    cfg = cfg or QuadratureConfig()
    ranges = {w: _nonlocal_range(material, w) for w in set(omegas)}
    out = [_nonlocal_cuts(material, field_kind, z, ranges[w]) for z, w in zip(zs, omegas)]
    failed = {k: cuts for k, cuts in enumerate(out) if isinstance(cuts, DomainError)}
    running = [k for k in range(len(zs)) if k not in failed]
    # one lattice per omega of the running points; its window end n_c in steps
    # of H0, held M steps below the lattice's top, 1e3 hi, and phi's series there
    distinct, row = _distinct(np.array([omegas[k] for k in running]))
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
    cuts, power = np.array([out[k] for k in running]).reshape(-1, 4), 3 if field_kind == "E" else 1
    z_of = np.array([zs[k] for k in running])
    phi, phi_lo, im_t, t_lo = None, None, None, None

    def sums(levels, live):
        nonlocal phi, phi_lo, im_t, t_lo
        top, at, size, first_call = levels[-1], row[live], live.size, levels[0] == 0
        z, end, cut, h = z_of[live], np.array(ends[:at.max() + 1]), cuts[live], H0 / 2**top
        # each point's I_p window, less M nodes at either end: from the lower of
        # its r_p sum's start and n_c up to n_c, in steps of h
        low, high = np.minimum(cut[:, 0], end[at]) * 2**top, end[at] * 2**top
        # the lattices at h = H0/2^top: on the first call every node from the
        # kernel over level 0's windows, whose M nodes at 2h beyond either end
        # are 2M at h, with the lattice at 2h its even nodes; the lattice at h
        # ends at each I_p window's own top, zero above it (lattice_reflection)
        reach = M * len(levels)
        phi, phi_lo = _refine(None if first_call else phi, phi_lo, at, low - reach, high + reach,
                              h, lambda k, r: surface_response(material, two_kf * k, distinct[r]))
        lattices = [(phi[:, ::2], phi_lo // 2)] * first_call
        if first_call:
            phi, phi_lo = _within(phi, phi_lo, at, low - M, high + M)
        lattices.append((phi, phi_lo))
        # r_p at the nodes of each level, side by side: I_p - 1 up to
        # n_c from the window and the series beyond its top, d = that tail, r_p
        # = r - (1 + r)^2 d/(2 + (1 + r) d) of the window's r; above n_c from
        # the series alone, with r = 0. The series' constant a_0 = phi(inf) is
        # what the kernel keeps at the top beyond its rounding, 8 eps: 0 for a
        # Lindhard eps_l, all of phi for a k-independent one. dr_p = -s2
        # dI_p/2, s2 = (1 + r_p)^2, so the rest moves Im r_p by at most (|Im
        # s2| |its Re| + |Re s2| |its Im|)/2.
        series, bound = coef[:end.size], rests[:end.size]
        blocks, offsets, width = [], [], 0
        for level, (lattice, lo) in zip(levels, lattices):
            step, last = H0 / 2**level, int(cut[:, 1].max()) * 2**level
            n = np.arange(lo + M, last + 1)
            e, r_p = end[:, None] * 2**level - n, np.zeros((end.size, n.size), dtype=complex)
            count = min(last, int(end.max()) * 2**level) - lo - M + 1
            r_p[:, :count] = lattice_reflection(lattice, step, count)
            r_p[e < 0] = 0.0
            a_0 = lattice[np.arange(end.size), end * 2**level + M - lo] - (
                series * _beyond_table(step)[1][1:5, 0]).sum(axis=1)
            a_0[np.abs(a_0) <= 8.0 * EPS] = 0.0
            blocks.append((n * step, r_p, *_beyond_window(
                np.concatenate([a_0[:, None], series], axis=1), e, step)))
            offsets.append(width - lo - M)
            width += n.size
        exponent, r_p, d, b_6 = (np.concatenate(part, axis=-1) for part in zip(*blocks))
        p = two_kf * np.exp(exponent)
        one = 1.0 + r_p
        r_p -= one * one * d / (2.0 + one * d)
        s2 = (1.0 + r_p)**2
        rest = (np.abs(s2.imag) * bound[:, :1] + np.abs(s2.real) * bound[:, 1:]) * (0.5 * b_6)
        # every point's sums at each level in turn, their terms end to end: h
        # p^power e^{-2pz} Im r_p over its p, and for B h a Im eps_t(k) G(a)
        # over its k, a = 2kz
        by_level = np.concatenate([cut * 2**level + [[offset, offset, 0, 0]]
                                   for level, offset in zip(levels, offsets)])
        at_run, z_runs = np.concatenate([at] * len(levels)), np.concatenate([z] * len(levels))
        cols, starts, counts = _runs(by_level[:, 0], by_level[:, 1])
        p_run, row_run = p[cols], at_run.repeat(counts)
        weight = p_run ** power * np.exp(-2.0 * p_run * z_runs.repeat(counts))
        im_run = r_p[row_run, cols].imag
        terms, rested = [weight * im_run], weight * rest[row_run, cols]
        if field_kind == "B":
            # one kernel call for the lattice of Im eps_t and one _polar_g call
            # for every term
            im_t, t_lo = _refine(None if first_call else im_t, t_lo, at, cut[:, 2] * 2**top,
                                 cut[:, 3] * 2**top, h,
                                 lambda k, r: epsilon_t(material, two_kf * k, distinct[r]).imag)
            j, j_starts, j_counts = _runs(by_level[:, 2], by_level[:, 3])
            h_j, scale = (np.array(v).repeat(size).repeat(j_counts) for v in (
                [H0 / 2**level for level in levels], [2**(top - level) for level in levels]))
            a = 2.0 * two_kf * np.exp(j * h_j) * z_runs.repeat(j_counts)
            im_a = im_t[at_run.repeat(j_counts), j * scale - t_lo]
            terms.append(a * im_a * _polar_g(a))
        moduli = [np.abs(t) for t in terms]
        values, errs = np.zeros((2, len(levels) * size, len(terms)))
        for k, (r, z_k, lo, count) in enumerate(zip(at_run.tolist(), z_runs.tolist(),
                                                   starts.tolist(), counts.tolist())):
            step, hi = H0 / 2**levels[k // size], lo + count
            # below p[0] Im r_p stays under the larger of its value there and its
            # local limit; above p[-1] it grows at most like p
            lo_power, x = float(p_run[lo] ** power), 2.0 * float(p_run[hi - 1]) * z_k
            tails = [lo_power / power * max(float(im_run[lo]), im_local[r])
                     + float(terms[0][hi - 1]) * sum(math.perm(power, n) / x**n
                                                     for n in range(power + 1)) / x
                     + step * float(rested[lo:hi].sum())]
            runs = [(lo, hi)]
            if field_kind == "B":
                # below a_lo Im eps_t is flat at its value there and G <= 2/3;
                # above the last node Im eps_t does not grow and G ~ a^-4
                lo, hi = int(j_starts[k]), int(j_starts[k] + j_counts[k])
                tails.append(float(a[lo] * im_a[lo]) * 2.0 / 3.0 + float(terms[1][hi - 1]) / 3.0)
                runs.append((lo, hi))
            for c, (t, t_abs, (lo, hi), tail) in enumerate(zip(terms, moduli, runs, tails)):
                values[k, c] = step * float(t[lo:hi].sum())
                errs[k, c] = tail + ROUNDING * step * float(t_abs[lo:hi].sum())
        return values.reshape(len(levels), size, -1), errs.reshape(len(levels), size, -1)

    # a point's non-finite sums, kernel values included, become a DomainError
    # of evaluate_columns, without warnings
    with np.errstate(all="ignore"):
        values, errs, missed = lattice_sums(len(running), sums, cfg)
    cols = np.full((len(zs), 5), math.nan)
    for k, v, e, miss in zip(running, values.tolist(), errs.tolist(), missed.tolist()):
        cols[k], failed[k] = _nonlocal_outcome(field_kind, omegas[k], zs[k], v, e, miss, cfg)
    return cols, {k: exc for k, exc in failed.items() if exc}


def _nonlocal_outcome(field_kind, omega, z, values, errs, missed, cfg):
    """A point's columns from its sums (E: r_p; B: r_p, k-sum) and errors,
    and its QuadratureError if it missed rel_tol, else None."""
    if field_kind == "E":
        chi_zz, err = HBAR / EPS0 * values[0], HBAR / EPS0 * errs[0]
        outcome = (0.5 * chi_zz, chi_zz, err, math.nan, math.nan)
    else:
        scale_zz = HBAR * omega**2 / (2.0 * math.pi * EPS0 * C_LIGHT**4 * z)
        rp_scale = 0.5 * HBAR / (EPS0 * C_LIGHT**2) * (omega / C_LIGHT) ** 2
        chi_zz, rp_part = scale_zz * values[1], rp_scale * values[0]
        err = scale_zz * errs[1] + rp_scale * errs[0]
        outcome = (0.5 * chi_zz + rp_part, chi_zz, err, 0.5 * chi_zz, rp_part)
    return outcome, not_converged("nonlocal", cfg, chi_zz, err) if missed else None


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
    nodes, starts, counts = _runs(lo, hi)
    terms = np.exp(-np.repeat(two_z, counts) * x[nodes]) * np.take(block.T, nodes, axis=1)
    return [np.add.reduceat(t, starts, axis=1).T for t in (terms, np.abs(terms))]


def _phase(z, omega):
    """e^{2 i z omega/c} from its phase as a double q plus the exact rest,
    good to a few ulps however many turns 2 z omega/c makes."""
    from fractions import Fraction  # only far points pay for the import

    phase = Fraction(2.0 * z) * Fraction(omega) / Fraction(C_LIGHT)
    return cmath.exp(1j * (q := float(phase))) * cmath.exp(1j * float(phase - Fraction(q)))


def _local_retarded(material, field_kind, zs, omegas, cfg) -> tuple:
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
    cfg, failed = cfg or QuadratureConfig(), {}
    distinct, row = _distinct(np.array(omegas))
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
    # eps - 1 that lost its real part (omega_p^2 != 0) leaves r_s, r_p no digit
    lost = ~fits | ((eps_r.real == 1.0)[row] & (material.plasma_frequency**2 != 0))
    for i in np.flatnonzero(lost).tolist():
        failed[i] = DomainError(
            f"z = {zs[i]:.6g} m, omega = {omegas[i]:.6g} rad/s: the local-retarded integrand "
            f"leaves the float range" if not fits[i] else f"omega = {omegas[i]:.6g} rad/s is "
            f"too large for {material.name}: its Drude permittivity rounds to 1 and the "
            f"Fresnel coefficients keep no digit")
    ok = np.flatnonzero(~lost)
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
            if sector == "prop":
                gap, q = w / (1.0 + k) + 0j, x_n / (1.0 + k) + 0j
                jac = q.real * gap.real / w
            else:
                gap = w - 1j * x_n if sector == "ev" else -1j * x_n
                q, jac = w - gap, x_n
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

    def sector_sums(sector, table, start, points, level, values, errs):
        """Add each point's sums of one sector at h = H0/2^level, from the
        sector's lattice at that h (table, columns from n = start), to its
        rows of values and errs."""
        step, h, (_, lo, hi) = 2**level, H0 / 2**level, spans[sector]
        lo, hi = lo[points] * step, hi[points] * step
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

    def sums(levels, live):
        top, asked = levels[-1], ok[live]
        values, errs = np.zeros((2, len(levels), len(zs), 2))
        for sector, (member, lo, hi) in spans.items():
            points = asked[member[asked]]
            if points.size:
                # the lattice at h = H0/2^top: on the first call every node from
                # the kernel, the lattice at 2h its even nodes
                lattices[sector] = _refine(
                    *(lattices[sector] if levels[0] else (None, None)), row[points],
                    lo[points] * 2**top, hi[points] * 2**top, H0 / 2**top, kernel(sector))
        live = asked
        for m, level in enumerate(levels):
            if m:  # as in lattice_sums, a point with a sum at 2h not finite is lost
                live = live[np.isfinite(values[m - 1, live]).all(1)
                            & np.isfinite(errs[m - 1, live]).all(1)]
            for sector, (member, _, _) in spans.items():
                points = live[member[live]]
                if points.size:
                    fine, first = lattices[sector]
                    sector_sums(sector, fine[:, ::2**(top - level)], first // 2**(top - level),
                                points, level, values[m], errs[m])
        return values[:, asked], errs[:, asked]

    # a point's non-finite sums become a DomainError of evaluate_columns
    scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
    values, errs, missed = lattice_sums(ok.size, sums, cfg)
    cols = np.full((len(zs), 5), math.nan)
    cols[ok, :2], cols[ok, 2] = scale * values.reshape(-1, 2), scale * errs.max(axis=1, initial=0.0)
    missed = ok[missed]
    for i, zz, err in zip(missed.tolist(), cols[missed, 1].tolist(), cols[missed, 2].tolist()):
        failed[i] = not_converged("local-retarded", cfg, zz, err)
    return cols, failed


_BATCH = {
    Model.LOCAL_QUASISTATIC: _local_quasistatic,
    Model.NONLOCAL_QUASISTATIC: _nonlocal_quasistatic,
    Model.LOCAL_RETARDED: _local_retarded,
}


def evaluate_columns(material: Material, field_kind: str, zs, omega,
                     model: Model | str = Model.AUTO, cfg: QuadratureConfig | None = None) -> tuple:
    """evaluate_batch's points as (columns, used, failed): the models'
    (n, 5) columns, {model: indices of its points} and {index: DomainError
    or QuadratureError} of the failed points, whose rows are NaN. omega is
    one frequency for every z of zs, or one per z; any other length raises
    DomainError. model="auto" resolves per point; the points of each model
    then run as one batch, with the outcomes a point-by-point run would
    give. A point whose chi_xx, chi_zz or error_estimate is not finite
    (its inputs leave the float range) gets a DomainError, and so does a
    point whose omega fails _drude_scales_error and a point of the
    integral models whose |chi_xx| or |chi_zz| underflows below the
    smallest normal float (a subnormal keeps a few bits, or none) where
    the metal responds (omega_p^2 != 0)."""
    if field_kind not in ("E", "B"):
        raise DomainError("field_kind must be 'E' or 'B'")
    model = Model(model)
    z_of, w_of = np.asarray(zs, dtype=float), np.ravel(np.asarray(omega, dtype=float))
    if w_of.size not in (1, z_of.size):
        raise DomainError("omega must be one value or one per z")
    w_of = w_of.repeat(z_of.size if w_of.size == 1 else 1)
    cols, failed = np.full((z_of.size, 5), math.nan), {}
    run = (z_of > 0) & (z_of < math.inf) & (w_of > 0) & (w_of < math.inf)
    for i in np.flatnonzero(~run).tolist():
        try:
            require_positive_finite("z", z_of[i].item())
            require_positive_finite("omega", w_of[i].item())
        except DomainError as exc:
            failed[i] = exc
    run = np.flatnonzero(run)
    # per distinct omega: its DomainError, or None
    distinct, at = _distinct(w_of[run])
    errors = [_drude_scales_error(material, w, model is not Model.LOCAL_QUASISTATIC)
              for w in distinct.tolist()]
    bad = np.array([e is not None for e in errors], dtype=bool)[at]
    failed.update(zip(run[bad].tolist(), [errors[k] for k in at[bad].tolist()]))
    run, at = run[~bad], at[~bad]
    used = {model: run}
    if model is Model.AUTO:
        below = np.array([math.nan if e else _nonlocal_below(material, w)
                          for w, e in zip(distinct.tolist(), errors)])
        near = z_of[run] < below[at]
        used = {Model.NONLOCAL_QUASISTATIC: run[near], Model.LOCAL_RETARDED: run[~near]}
    for m, idx in used.items():
        if not idx.size:
            continue
        cols[idx], lost = _BATCH[m](material, field_kind, z_of[idx].tolist(),
                                    w_of[idx].tolist(), cfg)
        chi = cols[idx, :3]
        infinite = ~np.isfinite(chi).all(axis=1)
        tiny = (~infinite & (np.minimum(abs(chi[:, 0]), abs(chi[:, 1])) < sys.float_info.min)
                & (m is not Model.LOCAL_QUASISTATIC) & (material.plasma_frequency**2 != 0))
        failed.update(zip(idx[list(lost)].tolist(), lost.values()))
        for i, kind in zip(idx[infinite | tiny].tolist(), tiny[infinite | tiny].tolist()):
            failed.setdefault(i, DomainError(
                f"chi {'underflows' if kind else 'is not finite'} at z = {z_of[i]:.6g} m, "
                f"omega = {w_of[i]:.6g} rad/s; the inputs leave the float range"))
    cols[list(failed)] = math.nan
    return cols, used, failed


def evaluate_batch(material: Material, field_kind: str, zs, omega,
                   model: Model | str = Model.AUTO, cfg: QuadratureConfig | None = None) -> list:
    """evaluate at every (z, omega) point, as outcomes: outcome i is the
    tensor at point i, or the DomainError or QuadratureError that
    evaluate would raise there (evaluate_columns, whose columns the
    tensors carry)."""
    cols, used, failed = evaluate_columns(material, field_kind, zs, omega, model, cfg)
    omegas = np.broadcast_to(np.ravel(np.asarray(omega, dtype=float)), len(cols)).tolist()
    out = [failed.get(i) for i in range(len(cols))]
    for m, idx in used.items():
        for i, (chi_xx, chi_zz, err, rs_part, rp_part) in zip(idx.tolist(), cols[idx].tolist()):
            if out[i] is None:
                parts = {} if math.isnan(rs_part) else {"rs_part": rs_part, "rp_part": rp_part}
                out[i] = SpectralDensityTensor(field_kind, chi_xx, chi_zz, zs[i], omegas[i], m,
                                               err, parts)
    return out


def evaluate(material: Material, field_kind: str, z: float, omega: float,
             model: Model | str = Model.AUTO,
             cfg: QuadratureConfig | None = None) -> SpectralDensityTensor:
    """Evaluate one noise tensor, resolving model="auto" by regime."""
    [outcome] = evaluate_batch(material, field_kind, [z], omega, model, cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
