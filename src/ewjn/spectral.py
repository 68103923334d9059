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
nonlocal point is one log-mapped integral per channel. Both are cut
where tail_cut of the integral is left, and add a bound on the cut tail
to error_estimate.
"""

from __future__ import annotations

import cmath
import enum
import math
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
    """The DomainError of an omega at which the integral models' Drude
    permittivity or grazing wavevector (omega/c)/sqrt|eps| is not a
    finite, nonzero float, else None."""
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
    electric point whose 8 eps0 z^3 underflows to 0 gets a DomainError.
    """
    eps_of = {w: drude_epsilon(material, w) for w in set(omegas)}
    out = []
    for z, omega in zip(zs, omegas):
        eps = eps_of[omega]
        if field_kind == "E":
            cube = 8.0 * EPS0 * z**3
            if cube == 0:
                out.append(DomainError(f"z = {z:.6g} m is too small: 8 eps0 z^3 underflows to 0"))
                continue
            chi_xx = HBAR / cube * ((eps - 1.0) / (eps + 1.0)).imag
            out.append((chi_xx, 2.0 * chi_xx, 0.0, {}))
        else:
            chi_zz = HBAR * omega**2 / (8.0 * EPS0 * C_LIGHT**4 * z) * eps.imag
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

    Every (z, channel) pair is one outer integral of one lockstep run
    (E: r_p; B: r_s, then r_p) over p = k_nu expm1(t), where each decade
    of p above the collision wavevector k_nu costs about one unit of t,
    seeded at k_nu, k_star, 0.25/z and 1/z, where Im r has structure.
    The integrand grows no faster than p^3 e^{-2pz}, so it is cut at
    x/(2z) (_tail_cut), and error_estimate adds the bound on the tail.

    The batched integrand calls the kernel once per refinement round and
    polarization (r_s first), with the nodes and the omega of every
    point not yet failed; the integrand at the cuts is one such call
    before the first round. A point's inner error is the first failing p
    among its own rows: its rows are zero in that round, it is left out
    of that round's r_p call, and its channels integrate zeros from then
    on. A point gets its inner QuadratureError, else its r_s outer
    error, else its r_p one, as a point-by-point run raises them.
    """
    cfg = cfg or QuadratureConfig()
    cfg_inner = cfg.inner()
    # integral n k + c is channel c of point k; channel 0 carries p^2
    channels = ("p",) if field_kind == "E" else ("s", "p")
    n = len(channels)
    z_of, w_of = np.asarray(zs, dtype=float), np.asarray(omegas, dtype=float)
    k_nu = material.k_nu
    inner_error = [None] * len(zs)
    failed = np.zeros(len(zs), dtype=bool)

    def integrand(p, owner):
        out = np.zeros(p.shape)
        point, channel = np.divmod(owner, n)
        for c, polarization in enumerate(channels):
            rows = np.flatnonzero((channel == c) & ~failed[point])
            if not rows.size:
                continue
            nodes, at = p[rows], point[rows]
            r = nonlocal_reflection_quasistatic(material, nodes.ravel(),
                                                np.repeat(w_of[at], nodes.shape[1]),
                                                polarization, cfg_inner)
            for i, o in enumerate(r):
                if isinstance(o, QuadratureError):
                    k = at[i // nodes.shape[1]]
                    if not failed[k]:
                        failed[k], inner_error[k] = True, o
                    r[i] = 0.0
            keep = ~failed[at]
            rows, nodes = rows[keep], nodes[keep]
            im = np.imag(np.array(r, dtype=complex).reshape(keep.size, -1)[keep])
            z = z_of[at[keep]][:, None]
            out[rows] = (nodes * nodes if c == 0 else 1.0) * np.exp(-2.0 * nodes * z) * im
        return out

    x, ratio = _tail_cut(cfg)
    cuts = np.repeat(x / (2.0 * z_of), n)
    tails = (np.abs(integrand(cuts[:, None], np.arange(cuts.size))[:, 0])
             * ratio / np.repeat(2.0 * z_of, n)).tolist()
    results = integrate_lockstep(
        lambda t, owner: integrand(k_nu * np.expm1(t), owner) * (k_nu * np.exp(t)),
        [0.0] * cuts.size, np.log1p(cuts / k_nu), cfg,
        [[math.log1p(p / k_nu) for p in (k_nu, material.k_star, 0.25 / z, 1.0 / z)]
         for z in zs for _ in channels])
    out = []
    for k, omega in enumerate(omegas):
        outcomes = results[k * n:(k + 1) * n]
        errors = [o for o in (inner_error[k], *outcomes) if isinstance(o, QuadratureError)]
        if errors:
            out.append(errors[0])
        elif field_kind == "E":
            [(value, err)] = outcomes
            chi_zz = HBAR / EPS0 * value.real
            out.append((0.5 * chi_zz, chi_zz, HBAR / EPS0 * (err + tails[k]), {}))
        else:
            (val_s, err_s), (val_p, err_p) = outcomes
            tail_s, tail_p = tails[2 * k:2 * k + 2]
            scale = HBAR / (EPS0 * C_LIGHT**2)
            chi_zz = scale * val_s.real
            rs_part = 0.5 * chi_zz
            rp_part = 0.5 * scale * (omega / C_LIGHT) ** 2 * val_p.real
            out.append((rs_part + rp_part, chi_zz,
                        scale * (err_s + tail_s + 0.5 * (omega / C_LIGHT) ** 2 * (err_p + tail_p)),
                        {"rs_part": rs_part, "rp_part": rp_part}))
    return out


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
    and its error_estimate adds the bound on the discarded tail.
    """
    cfg = cfg or QuadratureConfig()

    def constants(omega):
        eps = drude_epsilon(material, omega)
        w_c = omega / C_LIGHT
        g = w_c / math.sqrt(abs(eps))
        return (eps, (eps - 1.0) * w_c**2, w_c**2, g, -math.log1p(w_c / g),
                math.log1p(abs(eps)))

    per_omega = {w: constants(w) for w in set(omegas)}
    eps, k2_metal, w_c2, g, lo, knee = zip(*(per_omega[w] for w in omegas))
    # one row per point
    eps, k2_metal, w_c2, g = (np.array(c)[:, None] for c in (eps, k2_metal, w_c2, g))
    z_rows = np.asarray(zs, dtype=float)[:, None]
    x, ratio = _tail_cut(cfg)

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
    return [res if isinstance(res, QuadratureError) else
            (scale * res.value.real, scale * res.value.imag, scale * (res.error + tail), {})
            for res, tail in zip(results, tails[:, 0].tolist())]


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
    point of the integral models whose omega fails _drude_scales_error.
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
