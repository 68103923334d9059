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
nonlocal point is one log-mapped integral too, whose real and imaginary
parts carry its two channels (E: r_p alone; B: r_s and r_p). Both are
cut where tail_cut of the integral is left, and add a bound on the cut
tail to error_estimate. The nonlocal integrals are seeded on one grid of
t = log1p(p/k_nu), the unit grid above 1 and the powers of 1/2 below,
that does not depend on z, and their cut is rounded up to that grid, so
the points of one omega bisect the same panels and need the same p; a
batch runs each (p, omega) kappa-integral of the kernel once, in blocks
of at most _KERNEL_BLOCK p.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError
from .fresnel import local_reflection_q, nonlocal_reflection_quasistatic
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, skin_depth
from .quadrature import QuadratureConfig, integrate_lockstep


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


class RegimeChoice(NamedTuple):
    model: Model
    enhancement: bool


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
    if not (z > 0):
        raise DomainError("z must be > 0")
    if z == math.inf:
        # the integrals' decay scale 1/z would vanish for the whole batch
        raise DomainError("z must be finite")
    if not (omega > 0):
        raise DomainError("omega must be > 0")
    if omega == math.inf:
        raise DomainError("omega must be finite")


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


def regime_select(material: Material, z: float, omega: float) -> RegimeChoice:
    """Pick the cheapest model that is honest at (z, omega).

    Inside 30 Fermi wavelengths the nonlocal quasistatic model is
    required. Between that and a tenth of the skin depth the local
    model is formally adequate for magnetic noise but still understates
    electric noise, so the nonlocal model is kept and flagged. Beyond a
    tenth of the skin depth retardation matters and the local retarded
    model takes over.
    """
    _check_z_omega(z, omega)
    return _regime(z, _regime_limits(material, omega))


def _regime_limits(material: Material, omega: float) -> tuple:
    """z below which the nonlocal model is required, and z from which
    the retarded one takes over, at one omega."""
    return (_NONLOCAL_Z_LIMIT * material.fermi_wavelength,
            _RETARDED_Z_FRACTION * skin_depth(material, omega))


def _regime(z: float, limits: tuple) -> RegimeChoice:
    nonlocal_below, retarded_from = limits
    if z < nonlocal_below:
        return RegimeChoice(Model.NONLOCAL_QUASISTATIC, False)
    if z < retarded_from:
        return RegimeChoice(Model.NONLOCAL_QUASISTATIC, True)
    return RegimeChoice(Model.LOCAL_RETARDED, False)


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


def _tail_cut(cfg: QuadratureConfig) -> tuple:
    """(x, ratio) of the cut of an integrand bounded by u^3 exp(-2 u z):
    beyond U = x/(2z) it leaves exp(-x) (1 + x + x^2/2 + x^3/6) =
    tail_cut of its integral, and |f(U)| ratio/(2z) bounds that tail."""
    x = -math.log(cfg.tail_cut)
    for _ in range(4):
        x = -math.log(cfg.tail_cut) + math.log1p(x + x * x / 2.0 + x**3 / 6.0)
    return x, 1 + 3 / x + 6 / x**2 + 6 / x**3


# The nonlocal kernel gets at most this many p per call: a call's arrays
# grow with its p, and a batch of many points would otherwise hand it
# every new node of a refinement round at once.
_KERNEL_BLOCK = 128
# The kappa-integrals of the kernel reach kappa ~ 1e3 p and form k^4, so
# the nonlocal model takes p up to this
_NONLOCAL_P_MAX = np.finfo(float).max ** 0.25 / 1e3
# and they form k^4 >= p^4 at outer nodes that reach 1e-3 of a point's
# lowest grid point, whose p must be at least this
_NONLOCAL_P_MIN = np.finfo(float).tiny ** 0.25 * 1e3


def _nonlocal_quasistatic(material, field_kind, zs, omegas, cfg) -> list:
    """The nonlocal quasistatic integrals at every point, as one batch.

    E: chi_zz = (hbar/eps0) Integral_0^inf dp p^2 e^{-2 p z} Im r_p(p),
       chi_xx = chi_zz / 2.
    B: chi_zz = (hbar/(eps0 c^2)) Integral dp p^2 e^{-2 p z} Im r_s(p)
       chi_xx = (hbar/(2 eps0 c^2)) Integral dp e^{-2 p z}
                Im[(omega^2/c^2) r_p(p) + p^2 r_s(p)]
    The two magnetic xx channels are kept separately in
    decomposition["rp_part"] and decomposition["rs_part"] (signed,
    T^2 s); the r_s channel equals chi_zz/2 term by term.

    Every point is one outer integral of one lockstep run over
    t = log1p(p/k_nu), where each decade of p above the collision
    wavevector k_nu costs about one unit of t. Its real part is the p^2
    channel (E: r_p; B: r_s) and, for B, its imaginary part the r_p
    channel with weight 1: the engine's per-part test resolves each
    channel to rel_tol of itself, and max_subdivisions bounds the point.
    The integrand grows no faster than p^3 e^{-2pz}, so it may be cut
    at x/(2z) (_tail_cut). That cut is rounded up to T on the grid
    ..., 1/4, 1/2, 1, 2, 3, ... of t, and the integral runs over [0, T]
    seeded at the grid points below T, down to the last one at or below
    t(1/z), near which the integrand peaks, but at least down to 1
    (_nonlocal_grid); a point whose grid leaves the p the kernel takes
    gets a DomainError and does not run. Seeds and cuts lie on one grid
    whatever z, so the points of one omega bisect the same panels and
    ask for the same p, to the bit. Each channel's error adds the bound
    on the tail beyond p_U = k_nu expm1(T), |f_c(p_U)| times the tail
    ratio at x, which holds at p_U >= x/(2z) too, and the inner
    integrals' error: Im r >= 0 by passivity and the weights are >= 0,
    so max(err Im r / Im r) over the nodes times the channel bounds
    Integral w err Im r.

    The batched integrand serves each refinement round and polarization
    (r_s first) from one dict per polarization from (p, omega) to the
    kernel's outcome, and passes the kernel only the pairs the batch has
    not seen, in blocks of at most _KERNEL_BLOCK p; the integrand at the
    cuts is one such round before the first. Only the omegas of two or
    more points are kept in the dicts. A p gets the same outcome in any
    batch, so a point gets the bits and the failure it gets alone. A
    point's inner error is the first failing p among its own rows: its
    rows are zero in that round, it is left out of that round's r_p
    lookup, and it integrates zeros from then on. A point gets its
    inner QuadratureError, else its outer one.
    """
    cfg = cfg or QuadratureConfig()
    cfg_inner = cfg.inner()
    k_nu = material.k_nu
    x, ratio = _tail_cut(cfg)
    grids = [_nonlocal_grid(z, k_nu, x) for z in zs]
    out = [g if isinstance(g, DomainError) else None for g in grids]
    run = [k for k, o in enumerate(out) if o is None]
    zs, omegas, grids = ([v[k] for k in run] for v in (zs, omegas, grids))
    # polarization c fills part c of every point; part 0 carries p^2
    polarizations = ("p",) if field_kind == "E" else ("s", "p")
    z_of, w_of = np.asarray(zs, dtype=float), np.asarray(omegas, dtype=float)
    inner_error = [None] * len(zs)
    failed = np.zeros(len(zs), dtype=bool)
    # max over the nodes of err(Im r)/Im r, per point and part
    worst = np.zeros((len(zs), 2))
    seen = [{} for _ in polarizations]
    shared = {w for w, count in Counter(omegas).items() if count > 1}

    def reflection(c, nodes, w):
        """The kernel's outcome at every (p, omega) of nodes and w."""
        memo = seen[c]
        pairs = list(zip(nodes, w))
        new = {pair: None for pair in pairs if pair not in memo}
        keys = list(new)
        for i in range(0, len(keys), _KERNEL_BLOCK):
            block = keys[i:i + _KERNEL_BLOCK]
            p, w_block = zip(*block)
            new.update(zip(block, nonlocal_reflection_quasistatic(
                material, p, w_block, polarizations[c], cfg_inner)))
        memo.update((pair, o) for pair, o in new.items() if pair[1] in shared)
        return [new[pair] if pair in new else memo[pair] for pair in pairs]

    def integrand(p, owner):
        out = np.zeros(p.shape, dtype=complex)
        for c, part in enumerate((out.real, out.imag)[:len(polarizations)]):
            rows = np.flatnonzero(~failed[owner])
            if not rows.size:
                break
            nodes, at = p[rows], owner[rows]
            r = reflection(c, nodes.ravel().tolist(),
                           np.repeat(w_of[at], nodes.shape[1]).tolist())
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
            z = z_of[at][:, None]
            part[rows] = (nodes * nodes if c == 0 else 1.0) * np.exp(-2.0 * nodes * z) * im
            ratio_c = np.divide(im_err, im, out=np.where(im_err > 0, np.inf, 0.0), where=im > 0)
            np.maximum.at(worst[:, c], at, ratio_c.max(axis=1))
        return out

    ends, seeds = zip(*grids) if grids else ((), ())
    t_end = np.asarray(ends, dtype=float)
    at_cut = integrand(k_nu * np.expm1(t_end)[:, None], np.arange(t_end.size))[:, 0]
    tails = (np.stack([np.abs(at_cut.real), np.abs(at_cut.imag)], axis=1) * ratio
             / (2.0 * z_of)[:, None]).tolist()
    results = integrate_lockstep(
        lambda t, owner: integrand(k_nu * np.expm1(t), owner) * (k_nu * np.exp(t)),
        [0.0] * t_end.size, t_end, cfg, [list(grid) for grid in seeds])
    for k, (omega, res) in enumerate(zip(omegas, results)):
        if inner_error[k] or isinstance(res, QuadratureError):
            out[run[k]] = inner_error[k] or res
            continue
        # a channel's error: outer rule, cut tail and inner integrals
        value = (res.value.real, res.value.imag)
        err = [res.part_errors[c] + tails[k][c] + worst[k, c] * abs(value[c]) for c in (0, 1)]
        if field_kind == "E":
            chi_zz = HBAR / EPS0 * value[0]
            out[run[k]] = (0.5 * chi_zz, chi_zz, HBAR / EPS0 * err[0], {})
        else:
            scale = HBAR / (EPS0 * C_LIGHT**2)
            chi_zz = scale * value[0]
            rs_part = 0.5 * chi_zz
            rp_part = 0.5 * scale * (omega / C_LIGHT) ** 2 * value[1]
            out[run[k]] = (rs_part + rp_part, chi_zz,
                           scale * (err[0] + 0.5 * (omega / C_LIGHT) ** 2 * err[1]),
                           {"rs_part": rs_part, "rp_part": rp_part})
    return out


def _nonlocal_grid(z, k_nu, x):
    """(T, seeds) of a nonlocal point on the grid ..., 1/4, 1/2, 1, 2,
    3, ... of t = log1p(p/k_nu): T is the first grid point at or above
    the cut x/(2z), and seeds are the grid points below T, down to the
    last one at or below t(1/z) but at least down to 1. Its DomainError
    if p_U = k_nu expm1(T) exceeds what the kernel takes, _NONLOCAL_P_MAX,
    or the p of its lowest grid point lies below _NONLOCAL_P_MIN."""
    try:
        t_cut = math.log1p(x / 2.0 / z / k_nu)
        if t_cut > 1.0:
            end = float(math.ceil(t_cut))
        else:
            # t = m 2^e with m in [0.5, 1): 2^e, or t itself if m = 0.5
            mantissa, exponent = math.frexp(t_cut)
            end = math.ldexp(1.0, exponent - (mantissa == 0.5))
        if k_nu * math.expm1(end) <= _NONLOCAL_P_MAX:
            # far out the integrand peaks near p = 1/z, deep below t = 1
            seed = min(1.0, math.ldexp(1.0, math.frexp(math.log1p(1.0 / z / k_nu))[1] - 1))
            seeds = []
            while seed < min(end, 1.0):
                seeds.append(seed)
                seed *= 2.0
            seeds += [float(t) for t in range(1, math.ceil(end))]
            if t_cut > 0 and k_nu * math.expm1((seeds or [end])[0]) >= _NONLOCAL_P_MIN:
                return end, seeds
            return DomainError(f"z = {z:.6g} m is too large for the nonlocal model: the "
                               f"wavevector of its lowest grid point of t lies below "
                               f"{_NONLOCAL_P_MIN:.3g} 1/m, where the kappa-integrals' "
                               f"k^4 underflows")
    except OverflowError:  # ceil(inf), or e^T beyond the float range
        pass
    return DomainError(f"z = {z:.6g} m is too small for the nonlocal model: its cut "
                       f"wavevector, rounded up to the grid of t, exceeds "
                       f"{_NONLOCAL_P_MAX:.3g} 1/m, where the kappa-integrals leave "
                       f"the float range")


def _retarded_range_error(z, omega, eps, g, cut):
    """The DomainError of a local-retarded point whose integrand leaves
    the float range, else None. Its axis runs from omega/c to the cut U
    in steps of the grazing scale g, where the integrand grows like
    |eps| M and like M^3 for M = max(U, omega/c): g must be a normal
    float and U/g, |eps| M and M^3 finite."""
    m = max(cut, omega / C_LIGHT)
    if g >= np.finfo(float).tiny and all(map(math.isfinite, (cut / g, abs(eps) * m, m * m * m))):
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
    x, ratio = _tail_cut(cfg)
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
    (its Drude permittivity is not 1).
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
            m = _regime(z, limits[w]).model
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
                  and drude_epsilon(material, omegas[i]) != 1.0):
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
