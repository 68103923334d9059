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
nonlocal point is one log-mapped integral over p of its r_p channel
and, for B, one k-integral of its r_s channel (_swapped_zz).
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, QuadratureError, require_positive_finite
from .fresnel import local_reflection_q, nonlocal_reflection_quasistatic
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, epsilon_t, skin_depth
from .quadrature import (_NODES, _WEIGHTS_K, QuadratureConfig, integrate_lockstep,
                         integrate_power_tails)


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


def _drude_scales_error(material, omega):
    """The DomainError of an omega at which the integral models' omega^2
    is not finite, or their Drude permittivity or grazing wavevector
    (omega/c)/sqrt|eps| is not a finite, nonzero float, else None."""
    if not math.isfinite(omega * omega):
        return DomainError(f"omega = {omega:.6g} rad/s is too large for {material.name}: "
                           f"omega^2 leaves the float range")
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
    return _regime(z, _regime_limits(material, omega))


def _regime_limits(material: Material, omega: float) -> tuple:
    """z below which the nonlocal model is required, and z from which
    the retarded one takes over, at one omega."""
    return (_NONLOCAL_Z_LIMIT * material.fermi_wavelength,
            _RETARDED_Z_FRACTION * skin_depth(material, omega))


def _regime(z: float, limits: tuple) -> Model:
    nonlocal_below, retarded_from = limits
    if z < nonlocal_below or z < retarded_from:
        return Model.NONLOCAL_QUASISTATIC
    return Model.LOCAL_RETARDED


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


# The nonlocal kernel gets at most this many p per call: a call's arrays
# grow with its p, and a batch of many points would otherwise hand it
# every new node of a refinement round at once.
_KERNEL_BLOCK = 128
_SQRT_MAX, _SQRT_TINY = math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.min)


def _nonlocal_range(material, omega) -> tuple:
    """(lo, hi, top) of a nonlocal point at omega: it runs if 0.1/z >= lo
    and its cut p_U <= hi and <= top. Its integrals reach k from about
    1e-3 of 0.1/z to 1e3 p_U, and there k^2 must be normal and k^2 v_F^2,
    x^2 = ((omega + i nu)/(k v_F))^2 and (k_star/k)^2 |omega + i nu|
    finite (epsilon_l, epsilon_t and their Lindhard series form them).
    Above top = 1e11 |omega + i nu|/v_F, 1/|x| = 1e11 at kappa = 0, the
    kernel loses Im r_p to rounding in its Lindhard closed form: in six
    metals (nu from 1e11 to 1.2e14 rad/s) at 1e7..1e15 rad/s its bound on
    Im r_p is at most 6e-5 of Im r_p up to 1/|x| = 1e11, 3e-3 at 1e12 and
    6e-2 at 1e13."""
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


def _polar_g(a):
    """G(a) = Integral_0^{pi/2} cos^3 theta e^{-a cos theta} dtheta at
    every a >= 0 of an array: G(0) = 2/3 and Integral_0^inf G da = pi/4.
    The rule in u = pi/2 - theta below _G_SWITCH, the series from it,
    which underflows quietly to 0 for a huge a."""
    g = np.empty(a.shape)
    near = a < _G_SWITCH
    g[near] = (_G_WEIGHT * np.exp(-a[near][:, None] * _G_SIN)).sum(axis=1)
    b2 = (1.0 / a[~near]) ** 2
    g[~near] = np.polyval(_G_SERIES, b2) * b2 * b2
    return g


def _swapped_zz(material, zs, omegas, cfg) -> list:
    """K = Integral_0^inf da Im eps_t(a/(2z), omega) G(a) at every point,
    as the outcomes of one integrate_power_tails batch in a = 2kz with
    scale 2, seeded at 2z k_nu, 2z k_star and a = 0.1, 0.3, 1, ..., 100, 1000;
    in a the integrand is at most about |eps(omega)|, whatever z. Im r_s =
    (omega^2/(4 p^2 c^2)) (4 p^3/pi) Integral dkappa Im eps_t(k)/k^4 is
    linear in eps_t, so p = k cos theta, kappa = k sin theta swap the p-
    and kappa-integrals of chi^B_zz: chi^B_zz = hbar omega^2/(2 pi eps0
    c^4 z) K, and a constant eps_t gives the local closed form.
    """
    z2_rows = 2.0 * np.asarray(zs, dtype=float)[:, None]
    w_rows = np.asarray(omegas, dtype=float)[:, None]

    def integrand(a, owner):
        return (epsilon_t(material, a / z2_rows[owner], w_rows[owner]).imag
                * _polar_g(a.ravel()).reshape(a.shape))

    k_nu, k_star = material.k_nu, material.k_star
    seeds = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0]
    return integrate_power_tails(integrand, [2.0] * len(zs),
                                 [[2.0 * z * k_nu, 2.0 * z * k_star, *seeds] for z in zs], cfg)


def _nonlocal_quasistatic(material, field_kind, zs, omegas, cfg) -> list:
    """The nonlocal quasistatic integrals at every point, as one batch.

    E: chi_zz = (hbar/eps0) Integral_0^inf dp p^2 e^{-2pz} Im r_p(p),
       chi_xx = chi_zz/2.
    B: chi_zz = (hbar/(eps0 c^2)) Integral dp p^2 e^{-2pz} Im r_s(p), one
       k-integral per point (_swapped_zz); chi_xx = rs_part + rp_part,
       rs_part = chi_zz/2, rp_part = (hbar omega^2/(2 eps0 c^4))
       Integral dp e^{-2pz} Im r_p(p), both kept in decomposition.

    The r_p channel of every point (E: weight p^2; B: weight 1) is one
    integral of one lockstep run over t = log1p(p/k_nu), about one unit
    of t per decade of p above k_nu. Its integrand grows no faster than
    p^3 e^{-2pz}, so it is cut at x/(2z) (_tail_cut), rounded up to T on
    the z-independent grid of _nonlocal_grid, which also seeds it: the
    points of one omega bisect the same panels and ask for the same p.
    Its error adds the bound on the tail beyond p_U = k_nu expm1(T),
    |f(p_U)| times the tail ratio at x, and the inner integrals': Im r_p
    >= 0 by passivity, so max(err Im r_p/Im r_p) over the nodes times the
    channel bounds Integral w err Im r_p.

    The integrand serves each round from one dict from (p, omega) to the
    kernel's outcome, which keeps the omegas of two or more points, and
    passes the kernel the new pairs in blocks of at most _KERNEL_BLOCK p;
    the integrand at the cuts is one such round before the first. A p
    gets the same outcome in any batch, so a point gets the bits and the
    failure it gets alone. A point's inner error is the first failing p
    among its rows, after which it integrates zeros. A point gets its
    k-integral's QuadratureError, else its inner one, else its outer one;
    a point outside _nonlocal_range gets a DomainError and does not run.
    """
    cfg = cfg or QuadratureConfig()
    cfg_inner = cfg.inner()
    k_nu = material.k_nu
    x, ratio = _TAIL_CUT
    ranges = {w: _nonlocal_range(material, w) for w in set(omegas)}
    grids = [_nonlocal_grid(z, k_nu, x, ranges[w]) for z, w in zip(zs, omegas)]
    out = [g if isinstance(g, DomainError) else None for g in grids]
    run = [k for k, o in enumerate(out) if o is None]
    zs, omegas, grids = ([v[k] for k in run] for v in (zs, omegas, grids))
    z_of, w_of = np.asarray(zs, dtype=float), np.asarray(omegas, dtype=float)
    inner_error = [None] * len(zs)
    failed = np.zeros(len(zs), dtype=bool)
    # max over the nodes of err(Im r_p)/Im r_p, per point
    worst = np.zeros(len(zs))
    memo = {}
    shared = {w for w, count in Counter(omegas).items() if count > 1}

    def reflection(nodes, w):
        """The kernel's outcome at every (p, omega) of nodes and w."""
        pairs = list(zip(nodes, w))
        new = {pair: None for pair in pairs if pair not in memo}
        keys = list(new)
        for i in range(0, len(keys), _KERNEL_BLOCK):
            block = keys[i:i + _KERNEL_BLOCK]
            p, w_block = zip(*block)
            new.update(zip(block, nonlocal_reflection_quasistatic(material, p, w_block,
                                                                  cfg_inner)))
        memo.update((pair, o) for pair, o in new.items() if pair[1] in shared)
        return [new[pair] if pair in new else memo[pair] for pair in pairs]

    def integrand(p, owner):
        out = np.zeros(p.shape, dtype=complex)
        rows = np.flatnonzero(~failed[owner])
        if not rows.size:
            return out
        nodes, at = p[rows], owner[rows]
        r = reflection(nodes.ravel().tolist(), np.repeat(w_of[at], nodes.shape[1]).tolist())
        im = np.zeros((2, len(r)))
        for i, o in enumerate(r):
            if isinstance(o, QuadratureError):
                k = at[i // nodes.shape[1]]
                if not failed[k]:
                    failed[k], inner_error[k] = True, o
            else:
                im[:, i] = o.value.imag, o.part_errors[1]
        keep = ~failed[at]
        rows, nodes, at = rows[keep], nodes[keep], at[keep]
        im, im_err = im.reshape(2, keep.size, -1)[:, keep]
        decay = np.exp(-2.0 * nodes * z_of[at][:, None])
        out.real[rows] = (nodes * nodes * decay if field_kind == "E" else decay) * im
        ratio_p = np.divide(im_err, im, out=np.where(im_err > 0, np.inf, 0.0), where=im > 0)
        np.maximum.at(worst, at, ratio_p.max(axis=1))
        return out

    ends, seeds = zip(*grids) if grids else ((), ())
    t_end = np.asarray(ends, dtype=float)
    tails = (np.abs(integrand(k_nu * np.expm1(t_end)[:, None],
                              np.arange(t_end.size))[:, 0].real)
             * ratio / (2.0 * z_of)).tolist()
    results = integrate_lockstep(
        lambda t, owner: integrand(k_nu * np.expm1(t), owner) * (k_nu * np.exp(t)),
        [0.0] * t_end.size, t_end, cfg, [list(grid) for grid in seeds])
    swapped = _swapped_zz(material, zs, omegas, cfg) if field_kind == "B" else [None] * len(zs)
    # Python floats: inf * 0 in err is a NaN and a DomainError, not a warning
    worst = worst.tolist()
    for k, (omega, res, zz) in enumerate(zip(omegas, results, swapped)):
        failure = next((e for e in (zz, inner_error[k], res) if isinstance(e, QuadratureError)),
                       None)
        if failure:
            out[run[k]] = failure
            continue
        # the r_p channel's error: outer rule, cut tail and inner integrals
        value = res.value.real
        err = res.part_errors[0] + tails[k] + worst[k] * abs(value)
        if field_kind == "E":
            chi_zz = HBAR / EPS0 * value
            out[run[k]] = (0.5 * chi_zz, chi_zz, HBAR / EPS0 * err, {})
        else:
            scale_zz = HBAR * omega**2 / (2.0 * math.pi * EPS0 * C_LIGHT**4 * zs[k])
            rp_scale = 0.5 * HBAR / (EPS0 * C_LIGHT**2) * (omega / C_LIGHT) ** 2
            chi_zz, rp_part = scale_zz * zz.value.real, rp_scale * value
            out[run[k]] = (0.5 * chi_zz + rp_part, chi_zz, scale_zz * zz.error + rp_scale * err,
                           {"rs_part": 0.5 * chi_zz, "rp_part": rp_part})
    return out


def _nonlocal_grid(z, k_nu, x, limits):
    """(T, seeds) of a nonlocal point on the grid ..., 1/4, 1/2, 1, 2,
    3, ... of t = log1p(p/k_nu): T is the first grid point at or above
    the cut x/(2z), and seeds are the grid points below T, down to the
    last one at or below t(1/z) but at least down to 1. Its DomainError
    if 0.1/z lies below lo or p_U = k_nu expm1(T) exceeds hi or top,
    where (lo, hi, top) = limits is its omega's _nonlocal_range."""
    lo, hi, top = limits
    t_cut = math.log1p(x / 2.0 / z / k_nu)
    if not (t_cut > 0 and 0.1 / z >= lo):
        return DomainError(f"z = {z:.6g} m is too large for the nonlocal model: 0.1/z lies "
                           f"below {lo:.3g} 1/m, where the kernel leaves the float range")
    try:
        if t_cut > 1.0:
            end = float(math.ceil(t_cut))
        else:
            # t = m 2^e with m in [0.5, 1): 2^e, or t itself if m = 0.5
            mantissa, exponent = math.frexp(t_cut)
            end = math.ldexp(1.0, exponent - (mantissa == 0.5))
        p_cut = k_nu * math.expm1(end)
    except OverflowError:  # ceil(inf), or e^T beyond the float range
        p_cut = math.inf
    if p_cut > hi:
        return DomainError(f"z = {z:.6g} m is too small for the nonlocal model: its cut "
                           f"wavevector, rounded up to the grid of t, exceeds {hi:.3g} 1/m, "
                           f"where the kernel leaves the float range")
    if p_cut > top:
        return DomainError(f"z = {z:.6g} m is below the nonlocal kernel's resolution: its cut "
                           f"wavevector, rounded up to the grid of t, exceeds {top:.3g} 1/m, "
                           f"where the kernel no longer resolves Im r_p")
    # far out the integrand peaks near p = 1/z, deep below t = 1
    seed = min(1.0, math.ldexp(1.0, math.frexp(math.log1p(1.0 / z / k_nu))[1] - 1))
    seeds = []
    while seed < min(end, 1.0):
        seeds.append(seed)
        seed *= 2.0
    return end, seeds + [float(t) for t in range(1, math.ceil(end))]


def _retarded_range_error(z, omega, eps, g, cut):
    """The DomainError of a local-retarded point whose integrand leaves
    the float range, else None. Its axis runs from omega/c to the cut U
    in steps of the grazing scale g, where the integrand grows like
    |eps| M and like M^3 for M = max(U, omega/c) and carries the phase
    2 q z, q <= omega/c: g must be a normal float and U/g, |eps| M, M^3
    and 2 z omega/c finite."""
    m = max(cut, omega / C_LIGHT)
    bounds = (cut / g, abs(eps) * m, m * m * m, 2.0 * z * (omega / C_LIGHT))
    if g >= sys.float_info.min and all(map(math.isfinite, bounds)):
        return None
    return DomainError(f"z = {z:.6g} m, omega = {omega:.6g} rad/s: the local-retarded "
                       f"integrand leaves the float range")


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
    whose integrand would leave the float range gets a DomainError
    (_retarded_range_error) and does not run.
    """
    cfg = cfg or QuadratureConfig()

    def constants(omega):
        eps = drude_epsilon(material, omega)
        w_c = omega / C_LIGHT
        g = w_c / math.sqrt(abs(eps))
        return (eps, (eps - 1.0) * w_c**2, w_c**2, g, -math.log1p(w_c / g),
                math.log1p(abs(eps)))

    per_omega = {w: constants(w) for w in set(omegas)}
    x, ratio = _TAIL_CUT
    out = [_retarded_range_error(z, w, per_omega[w][0], per_omega[w][3], x / (2.0 * z))
           for z, w in zip(zs, omegas)]
    run = [i for i, o in enumerate(out) if o is None]
    if not run:
        return out
    eps, k2_metal, w_c2, g, lo, knee = zip(*(per_omega[omegas[i]] for i in run))
    # one row per point that runs
    eps, k2_metal, w_c2, g = (np.array(c)[:, None] for c in (eps, k2_metal, w_c2, g))
    z_rows = np.array([zs[i] for i in run], dtype=float)[:, None]

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

    cuts = x / (2.0 * z_rows)
    results = integrate_lockstep(mapped, list(lo), np.log1p(cuts[:, 0] / g[:, 0]), cfg,
                                 [[0.0, k] for k in knee])
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
    point of the integral models whose omega fails _drude_scales_error
    or whose chi_xx or chi_zz underflows to 0 where the metal responds
    (its omega_p^2 is not 0).
    """
    if field_kind not in ("E", "B"):
        raise DomainError("field_kind must be 'E' or 'B'")
    model = Model(model)
    omegas = np.ravel(np.asarray(omega, dtype=float)).tolist()
    if len(omegas) == 1:
        omegas *= len(zs)
    if len(omegas) != len(zs):
        raise DomainError("omega must be one value or one per z")
    limits, unrepresentable = {}, {}
    out = [None] * len(zs)
    by_model = {}
    for i, (z, w) in enumerate(zip(zs, omegas)):
        try:
            _check_z_omega(z, w)
        except DomainError as exc:
            out[i] = exc
            continue
        if model is not Model.LOCAL_QUASISTATIC:
            if w not in unrepresentable:
                unrepresentable[w] = _drude_scales_error(material, w)
            if unrepresentable[w]:
                out[i] = unrepresentable[w]
                continue
        m = model
        if m is Model.AUTO:
            if w not in limits:
                limits[w] = _regime_limits(material, w)
            m = _regime(z, limits[w])
        by_model.setdefault(m, []).append(i)
    for m, idx in by_model.items():
        outcomes = _BATCH[m](material, field_kind, [zs[i] for i in idx],
                             [omegas[i] for i in idx], cfg)
        for i, outcome in zip(idx, outcomes):
            if isinstance(outcome, Exception):
                out[i] = outcome
            elif not all(map(math.isfinite, outcome[:3])):
                out[i] = DomainError(f"chi is not finite at z = {zs[i]:.6g} m, omega = "
                                     f"{omegas[i]:.6g} rad/s; the inputs leave the float range")
            elif (m is not Model.LOCAL_QUASISTATIC and 0.0 in outcome[:2]
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
