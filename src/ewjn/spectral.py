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
each point the bits and the error that the point gets alone: the Drude
constants of each distinct omega are computed once, on Python scalars,
and indexed per point. A local-retarded point is one integral over a
log-mapped axis that joins the propagating and evanescent parts, with
the Fresnel coefficients taken from the vacuum normal wavevector q; a
nonlocal point is a trapezoid sum in ln p of its r_p channel and, for
B, one in ln k of its r_s channel, on a log lattice in k that all the
points of one omega share (_nonlocal_quasistatic).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError, require_positive_finite
from .fresnel import M, lattice_reflection, local_reflection_q, surface_response
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, epsilon_t, skin_depth
from .quadrature import _NODES, _WEIGHTS_K, QuadratureConfig, integrate_lockstep


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


def _check_z_omega(z, omega):
    require_positive_finite("z", z)
    require_positive_finite("omega", omega)


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
    _check_z_omega(z, omega)
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


# the cut of every integral model leaves 1e-12 of the integral beyond it
_TAIL_CUT = _tail_cut(1e-12)
# the nonlocal lattice's r_p sums are cut where they leave 1e-16
_LATTICE_CUT = _tail_cut(1e-16)


_SQRT_MAX, _SQRT_TINY = math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.min)


def _nonlocal_range(material, omega) -> tuple:
    """(lo, hi, top) of a nonlocal point at omega: it runs if 0.1/z and
    0.1 k_nu are >= lo and its cut p_U <= hi and <= top. Its lattice
    runs from k = lo/1e3, where k^2 must be normal and k^2 v_F^2, x^2 =
    ((omega + i nu)/(k v_F))^2 and (k_star/k)^2 |omega + i nu| finite
    (epsilon_l, epsilon_t and their Lindhard series form them), to at
    most 1e3 hi. Above top = 1e11 |omega + i nu|/v_F the adaptive kernel
    the lattice replaced lost Im r_p to rounding."""
    vf, wn = material.fermi_velocity, abs(complex(omega, material.collision_rate))
    k_lo = max(_SQRT_TINY, max(wn / vf, material.k_star * math.sqrt(max(1.0, wn))) / _SQRT_MAX)
    return 1e3 * k_lo, _SQRT_MAX / max(1.0, vf) / 1e3, 1e11 * wn / vf


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


# The nonlocal lattice: k_n = e^{nh} 1/m, t = ln(k 1 m) = nh, from h =
# _H0 to _H0/2^_MAX_HALVINGS. A point's ranges are whole steps of _H0:
# its r_p sum runs from p = _P_LOW/z, below which its summand falls like
# p^3 (E) or p (B), to the cut of _LATTICE_CUT; B's k-sum over a = 2kz
# from _A_LOW 2z min(k_nu, 1/(2z)) to _A_HIGH, beyond which it falls like
# a^-3. Every I_p window ends at k_top, the last grid point at or below
# _TOP_FACTOR max(k_star, top) and 1e3 hi (_nonlocal_range).
_H0, _MAX_HALVINGS, _TOP_FACTOR = 0.25, 4, 1e6
_P_LOW, _A_LOW, _A_HIGH = {"E": 1e-6, "B": 1e-16}, 1e-16, 1e6
# the rounding of a sum's summands, relative to the sum of their moduli
_ROUNDING = 50.0 * sys.float_info.epsilon


def _nonlocal_cuts(material, field_kind, z, limits):
    """(i_lo, i_hi, j_lo, j_hi) of a nonlocal point: its r_p sum runs over
    p = e^{i H0} from the last grid point at or below _P_LOW/z to the
    first at or above the cut x/(2z), its k-sum over k = e^{j H0}, both
    from lo/1e3 up. Its DomainError if 0.1/z or 0.1 k_nu lies below lo or
    the cut exceeds hi or top, (lo, hi, top) = limits (_nonlocal_range)."""
    (lo, hi, top), k_nu = limits, material.k_nu
    if not (0.1 / z >= lo):
        return DomainError(f"z = {z:.6g} m is too large for the nonlocal model: 0.1/z lies "
                           f"below {lo:.3g} 1/m, where the kernel leaves the float range")
    if not (0.1 * k_nu >= lo):
        return DomainError(f"nu/v_F = {k_nu:.3g} 1/m is too small for the nonlocal model: "
                           f"0.1 nu/v_F lies below {lo:.3g} 1/m, where the kernel leaves the "
                           f"float range")
    try:
        i_hi = math.ceil(math.log(_LATTICE_CUT[0] / 2.0 / z) / _H0)
        p_cut = math.exp(i_hi * _H0)
    except OverflowError:  # ceil(inf), or e^t beyond the float range
        p_cut = math.inf
    if p_cut > hi:
        return DomainError(f"z = {z:.6g} m is too small for the nonlocal model: its cut "
                           f"wavevector, rounded up to the grid of t, exceeds {hi:.3g} 1/m, "
                           f"where the kernel leaves the float range")
    if p_cut > top:
        return DomainError(f"z = {z:.6g} m is below the nonlocal kernel's resolution: its cut "
                           f"wavevector, rounded up to the grid of t, exceeds {top:.3g} 1/m, "
                           f"where the kernel no longer resolves Im r_p")
    floor = math.ceil(math.log(lo / 1e3) / _H0)
    return (max(math.floor(math.log(_P_LOW[field_kind] / z) / _H0), floor + M), i_hi,
            max(math.floor(math.log(_A_LOW * min(k_nu, 0.5 / z)) / _H0), floor),
            min(math.ceil(math.log(_A_HIGH / 2.0 / z) / _H0), math.floor(math.log(1e3 * hi) / _H0)))


def _refine(old, old_lo, lo, top, h, kernel):
    """(values, first) of kernel(k, rows) at k = e^{nh}, n = lo[r] ..
    top[r] in row r, 0 elsewhere, columns from n = first = min(lo): even
    n from old, the lattice at 2h from column old_lo, odd n (all n if old
    is None) from kernel."""
    n = np.arange(lo.min(), top.max() + 1)
    valid = (n >= lo[:, None]) & (n <= top[:, None])
    fresh = valid if old is None else valid & (n % 2 == 1)
    rows, cols = np.nonzero(fresh)
    values = np.broadcast_to(kernel(np.exp(n[cols] * h), rows), rows.shape)
    new = np.zeros(valid.shape, dtype=values.dtype)
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
    (fresnel.lattice_reflection), and h Sum a Im eps_t(k) G(a), a = 2kz.
    The summands are analytic in a strip and decay at both ends, so the
    sums converge geometrically in 1/h. A point runs at h = _H0 and _H0/2,
    then halves h until each sum S meets max(rel_tol |S|, abs_tol) with
    its error: the difference from the sum at 2h plus bounds on its tails
    beyond its ends, on its summands' rounding and, for r_p, on each
    window above k_top. After min(_MAX_HALVINGS, max_subdivisions)
    halvings it gets a QuadratureError. The lattice at h/2 asks the
    kernels for its odd nodes only. A node's values depend on (material,
    omega, h, n) alone and each sum adds an array of its own summands, so
    a point gets the bits and the outcome it gets alone. A point outside
    _nonlocal_range gets a DomainError and does not run.
    """
    cfg = cfg or QuadratureConfig()
    ranges = {w: _nonlocal_range(material, w) for w in set(omegas)}
    out = [_nonlocal_cuts(material, field_kind, z, ranges[w]) for z, w in zip(zs, omegas)]
    running = [k for k, cuts in enumerate(out) if not isinstance(cuts, DomainError)]
    # one lattice per omega: a row of the arrays below while any of its points runs
    distinct, row = np.unique(omegas, return_inverse=True)
    n_top = np.array([math.floor(min(math.log(_TOP_FACTOR * max(material.k_star, ranges[w][2])),
                                     math.log(1e3 * ranges[w][1])) / _H0)
                      for w in distinct.tolist()])
    im_local = [((e - 1.0) / (e + 1.0)).imag
                for e in (drude_epsilon(material, w) for w in distinct.tolist())]
    cuts = np.array([(0,) * 4 if isinstance(c, DomainError) else c for c in out])
    power, halvings = 3 if field_kind == "E" else 1, min(_MAX_HALVINGS, cfg.max_subdivisions)
    previous, rows, phi, phi_lo, im_t, t_lo = [None] * len(zs), None, None, None, None, None
    for level in range(halvings + 1):
        if not running:
            break
        scale, h = 2**level, _H0 / 2**level
        live = np.flatnonzero(np.bincount(row[running]))
        if rows is not None and live.size < rows.size:
            keep = np.searchsorted(rows, live)
            phi, im_t = phi[keep], im_t if im_t is None else im_t[keep]
        rows, at, top = live, np.searchsorted(live, row), n_top[live] * scale
        w_rows, first = distinct[rows], cuts[running] * scale

        def edge(column, reduce, start):
            """reduce of a column of the running points' cuts, per row."""
            ends = np.full(rows.size, start)
            reduce.at(ends, at[running], first[:, column])
            return ends

        phi, phi_lo = _refine(phi, phi_lo, edge(0, np.minimum, top.max()) - M, top, h,
                              lambda k, r: surface_response(material, k, w_rows[r]))
        last = int(first[:, 1].max())
        r_p = lattice_reflection(phi, h, last - phi_lo - M + 1)
        p = np.exp(np.arange(phi_lo + M, last + 1) * h)
        # The window above k_top, where Re phi and Im phi fall as k^-2 or
        # faster, moves each part of I_p by at most (2/pi) |its phi(k_top)|
        # asin(p/k_top), and so Im r_p, r_p = -d/s, d = I_p - 1, s = 2 + d,
        # by 2 |Im(delta d conj(s^2))|/|s|^4 to first order.
        at_top = phi[np.arange(rows.size), top - phi_lo][:, None]
        reach = 2.0 / math.pi * np.arcsin(p * np.exp(-n_top[rows] * _H0)[:, None])
        s2 = (2.0 / (1.0 + r_p)) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            d_r = 2.0 * reach * (np.abs(s2.real) * np.abs(at_top.imag)
                                 + np.abs(s2.imag) * np.abs(at_top.real)) / np.abs(s2)**2
        if field_kind == "B":
            im_t, t_lo = _refine(im_t, t_lo, edge(2, np.minimum, top.max()),
                                 edge(3, np.maximum, -1), h,
                                 lambda k, r: epsilon_t(material, k, w_rows[r]).imag)
            # every k-sum's terms, with one _polar_g call for all of them
            nodes = [np.arange(j_lo, j_hi + 1) for j_lo, j_hi in first[:, 2:].tolist()]
            a = [2.0 * np.exp(j * h) * zs[k] for j, k in zip(nodes, running)]
            g = np.split(_polar_g(np.concatenate(a)), np.cumsum([x.size for x in a])[:-1])
            zz_terms = {k: a_k * im_t[at[k], j - t_lo] * g_k
                        for k, j, a_k, g_k in zip(running, nodes, a, g)}
        for k in list(running):
            r, z = at[k], zs[k]
            run = slice(*(c * scale - phi_lo - M + end for c, end in zip(cuts[k][:2], (0, 1))))
            with np.errstate(over="ignore", invalid="ignore"):
                weight = p[run] ** power * np.exp(-2.0 * p[run] * z)
                terms = weight * r_p[r, run].imag
            # below p[0] Im r_p stays under the larger of its value there and
            # its local limit; above p[-1] it grows at most like p
            p_lo, x = float(p[run][0]), 2.0 * float(p[run][-1]) * z
            tails = [p_lo**power / power * max(float(r_p[r, run][0].imag), im_local[row[k]])
                     + float(terms[-1]) * sum(math.perm(power, n) / x**n
                                              for n in range(power + 1)) / x
                     + h * float((weight * d_r[r, run]).sum())]
            sums = [terms]
            if field_kind == "B":
                # below a_lo Im eps_t is flat at its value there and G <= 2/3;
                # above the last node Im eps_t does not grow and G ~ a^-4
                sums.append(zz_terms[k])
                tails.append(2.0 * z * math.exp(cuts[k][2] * _H0)
                             * im_t[r, cuts[k][2] * scale - t_lo] * 2.0 / 3.0
                             + float(zz_terms[k][-1]) / 3.0)
            with np.errstate(over="ignore", invalid="ignore"):
                values = [h * float(t.sum()) for t in sums]
                errs = [tail + _ROUNDING * h * float(np.abs(t).sum())
                        for t, tail in zip(sums, tails)]
            if not all(map(math.isfinite, values)):
                # the summands leave the float range: a DomainError of evaluate_batch
                out[k] = (math.inf, math.inf, math.inf, {})
                running.remove(k)
            elif level:
                errs = [e + abs(v - v_prev) for e, v, v_prev in zip(errs, values, previous[k])]
                done = all(e <= max(cfg.rel_tol * abs(v), cfg.abs_tol)
                           for e, v in zip(errs, values))
                if done or level == halvings:
                    out[k] = _nonlocal_outcome(field_kind, omegas[k], z, values, errs, done,
                                               halvings)
                    running.remove(k)
            previous[k] = values
    return out


def _nonlocal_outcome(field_kind, omega, z, values, errs, done, halvings):
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
    return outcome if done else QuadratureError(
        f"nonlocal lattice sums not converged after {halvings} halvings of h (estimate "
        f"{chi_zz!r}, error bound {err:.3e})", best_estimate=chi_zz, error_bound=err)


def _local_retarded(material, field_kind, zs, omegas, cfg) -> list:
    """The local retarded integrals at every point, as one batch.

    chi = scale * (I_xx, I_zz), scale = hbar/eps0 (E) or hbar/(eps0 c^2) (B),
      I_xx = Re Integral dp (p/q) e^{2 i q z} (omega^2/c^2 r_a - q^2 r_b)/2
      I_zz = Re Integral dp (p^3/q) e^{2 i q z} r_b
    with (r_a, r_b) = (r_s, r_p) for the electric field and swapped for
    the magnetic one. One real axis s carries both parts: s = -q < 0 is
    propagating (q real, (p/q) dp = ds) and s = u >= 0 evanescent
    (q = i u, (p/q) dp = -i du), with p^2 = omega^2/c^2 - q^2 and the
    Fresnel coefficients taken from q (local_reflection_q).

    The axis is mapped by s = sign(t) g (e^|t| - 1), g = (omega/c)/sqrt|eps|,
    the grazing-incidence turn of r_p, so every decade of |s| from g up
    to the skin-depth knee u ~ sqrt|eps| omega/c costs about one unit of
    t; t = 0 (the light line, where the integrand jumps) and the knee
    are seeded. The zz integrand grows like u^2 in the quasistatic range
    and like u^3 below the knee for B, where Im r_s ~ u, so the
    evanescent part is cut at U = x/(2z) (_tail_cut). Each point is one
    integral over [t(-omega/c), t(U)], all points in one lockstep run,
    and its error_estimate adds the bound on the discarded tail. A point
    whose integrand would leave the float range gets a DomainError and
    does not run.
    """
    cfg = cfg or QuadratureConfig()

    def constants(omega):
        eps = drude_epsilon(material, omega)
        w_c = omega / C_LIGHT
        g = w_c / math.sqrt(abs(eps))
        return (eps, (eps - 1.0) * w_c**2, w_c**2, g, -math.log1p(w_c / g),
                math.log1p(abs(eps)), abs(eps), w_c)

    distinct, at = np.unique(omegas, return_inverse=True)
    table = np.array([constants(w) for w in distinct.tolist()])[at].T
    eps, k2_metal = table[:2]
    w_c2, g, lo, knee, eps_abs, w_c = table[2:].real
    x, ratio = _TAIL_CUT
    z_rows = np.asarray(zs, dtype=float)
    # the axis runs from omega/c to the cut U in steps of the grazing
    # scale g, where the integrand grows like |eps| M and like M^3 for
    # M = max(U, omega/c) and carries the phase 2 q z, q <= omega/c: g
    # must be a normal float and U/g, |eps| M, M^3 and 2 z omega/c finite
    with np.errstate(all="ignore"):
        cuts = x / (2.0 * z_rows)
        m = np.maximum(cuts, w_c)
        bounds = np.array([cuts / g, eps_abs * m, m * m * m, 2.0 * z_rows * w_c])
    fits = (g >= sys.float_info.min) & np.isfinite(bounds).all(axis=0)
    out = [None] * len(zs)
    for i in np.flatnonzero(~fits).tolist():
        out[i] = DomainError(f"z = {zs[i]:.6g} m, omega = {omegas[i]:.6g} rad/s: the "
                             f"local-retarded integrand leaves the float range")
    run = np.flatnonzero(fits).tolist()
    if not run:
        return out
    # one row per point that runs
    eps, k2_metal, w_c2, g, z_rows, cuts = (c[run][:, None] for c in (eps, k2_metal, w_c2, g,
                                                                      z_rows, cuts))

    def integrand(s, z, eps, k2_metal, w_c2):
        evanescent = s >= 0.0
        q = np.where(evanescent, 1j * s, -s)
        pair = local_reflection_q(q, k2_metal, eps)
        r_a, r_b = (pair.r_p, pair.r_s) if field_kind == "B" else (pair.r_s, pair.r_p)
        w = np.where(evanescent, -1j, 1.0) * np.exp(2j * q * z)
        q2 = q * q
        return (0.5 * np.real(w * (w_c2 * r_a - q2 * r_b))
                + 1j * np.real(w * (w_c2 - q2) * r_b))

    def mapped(t, owner):
        g_rows = g[owner]
        s = np.sign(t) * g_rows * np.expm1(np.abs(t))
        return (integrand(s, z_rows[owner], eps[owner], k2_metal[owner], w_c2[owner])
                * (np.abs(s) + g_rows))

    results = integrate_lockstep(mapped, lo[run], np.log1p(cuts[:, 0] / g[:, 0]), cfg,
                                 np.stack([np.zeros(len(run)), knee[run]], axis=1))
    tails = np.abs(integrand(cuts, z_rows, eps, k2_metal, w_c2)) * ratio / (2 * z_rows)
    scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
    for i, res, tail in zip(run, results, tails[:, 0].tolist()):
        out[i] = res if isinstance(res, QuadratureError) else \
            (scale * res.value.real, scale * res.value.imag, scale * (res.error + tail), {})
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
    integral models whose chi_xx or chi_zz underflows to 0 where the
    metal responds (its omega_p^2 is not 0).
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
            _check_z_omega(zs[i], omegas[i])
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
            elif (not closed_form and 0.0 in outcome[:2]
                  and material.plasma_frequency**2 != 0):
                out[i] = DomainError(f"chi underflows to 0 at z = {zs[i]:.6g} m, omega = "
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
