"""Photon Green's function inside the uniform metal at coincident points.

Only the imaginary part is computed: the real part carries the
divergent free-space self-field and nothing downstream consumes it.
Sign convention: with the one-sided (omega > 0) spectra used
throughout, the physical dissipation enters through -Im of the printed
tensor, so the radial integrand below returns that non-negative
quantity and Im D is reported positive.

The radial integral inherits the slow longitudinal falloff of the
screened response (the integrand decays like 1/k between the collision
and screening wavevectors), so it is evaluated on an explicit cutoff
ladder k_max in {3, 10, 30, 100} k_F and reported together with the
ladder; failure to settle to 1% between rungs is an explicit error
carrying the full series rather than a silently truncated number. Each
rung is one real integral of the zz reduction, a trapezoid sum in ln k
with Gregory's end corrections held to rel_tol by the lattice rule of
quadrature.lattice_sums (_rungs); the isotropic medium makes the xx
reduction the same integrand, so one running total is reported as both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError, require_positive_finite
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, epsilon_l, epsilon_t
from .quadrature import GREGORY, H0, QuadratureConfig, _runs, _summed, lattice_sums, not_converged
from .spectral import Model, _drude_scales_error, evaluate

_LADDER = (3.0, 10.0, 30.0, 100.0)
_LADDER_REL = 0.01
# z/lambda_F used for the z -> 0 surface evaluation
_SURFACE_Z_FRACTION = 1e-3


@dataclass(frozen=True)
class BulkGreenResult:
    im_D_xx: float
    im_D_zz: float
    omega: float
    k_max_used: float
    convergence_series: list


class SurfaceLimit(NamedTuple):
    im_D_xx: float
    im_D_zz: float


def _radial_integrand(material, k, omega):
    """The angle-averaged radial integrand of the zz reduction, via the
    transverse/longitudinal split, as a real array."""
    eps_l = epsilon_l(material, k, omega)
    eps_t = epsilon_t(material, k, omega)
    parts = ((2.0 / 3.0) / (omega**2 * eps_t / C_LIGHT**2 - k * k)
             + C_LIGHT**2 / (3.0 * omega**2 * eps_l))
    return -(k * k) * np.imag(4.0 * math.pi * HBAR * parts) / (2.0 * math.pi**2)


# rung 1 starts e^-_FIRST_SPAN below 3 k_F or the skin wavevector (omega/c)
# sqrt|eps|, if lower, where the summand, ~k^3, is e^-36 of its value there;
# every rung holds _MIN_STEPS steps, so Gregory's corrections do not meet
_FIRST_SPAN, _MIN_STEPS = 12.0, 16


def _rungs(material, omega, edges, cfg) -> list:
    """The radial integral over each rung [edges[i], edges[i + 1]], as its
    value or its QuadratureError: a trapezoid sum in ln k on N + 1 nodes
    from one end to the other with Gregory's corrections at both, N =
    max(ceil(ln(k_hi/k_lo)/H0), _MIN_STEPS) doubling at each halving of
    quadrature.lattice_sums. The rungs refine together: one integrand call
    for every node at H0/2, whose even nodes are the lattice at H0, then
    one per halving for the odd nodes of the live ones, and their sums at
    every asked level in one np.add.reduceat (quadrature._summed). A
    rung's error is its difference from the sum at 2h, its rounding floor
    and, for the first, twice its first term, a bound on the part below
    edges[0]."""
    spans = np.log(edges[1:] / edges[:-1])
    # a span beyond the float range (only ever rung 1's) gets one node and h = inf
    steps = np.where(np.isfinite(spans), np.maximum(np.ceil(spans / H0), _MIN_STEPS), 0).astype(int)
    samples = 0.0

    def sums(levels, live):
        nonlocal samples
        top, last = levels[-1], steps * 2**levels[-1]
        # the live rungs' nodes at h = H0/2^top end to end, their samples in
        # one row per rung: every node on the first call, whose even nodes are
        # the lattice at H0, then the odd ones beside those at 2h
        n, _, counts = _runs(0, last[live])
        rung, fresh = live.repeat(counts), (n % 2 == 1) | (levels[0] == 0)
        n, rung = n[fresh], rung[fresh]
        k = np.where(n == last[rung], edges[rung + 1],
                     edges[rung] * np.exp(n * (spans / steps / 2**top)[rung]))
        samples, old = np.zeros((spans.size, last.max() + 1)), samples
        samples[:, ::2], samples[rung, n] = old, _radial_integrand(material, k, omega) * k
        # every asked level's samples of every live rung end to end, each with
        # the trapezoid weights and Gregory's corrections at both of its ends
        level, rung = np.repeat(np.array(levels), live.size), np.tile(live, len(levels))
        n, starts, counts = _runs(0, steps[rung] * 2**level)
        part = samples[rung.repeat(counts), n * 2**(top - level).repeat(counts)]
        ends = starts + counts
        weights = np.ones(ends[-1])
        weights[np.concatenate([starts, ends - 1])] = 0.5
        weights[starts[:, None] + np.arange(8)] += GREGORY
        weights[ends[:, None] - np.arange(8, 0, -1)] += GREGORY[::-1]
        values, floor = _summed(weights * part, starts, spans[rung] / steps[rung] / 2.0**level)
        errs = floor + 2.0 * (rung == 0) * np.abs(part[starts])
        return values.reshape(len(levels), -1, 1), errs.reshape(len(levels), -1, 1)

    values, errs, missed = lattice_sums(spans.size, sums, cfg)
    missed |= ~(np.isfinite(values) & np.isfinite(errs))[:, 0]  # leaving the float range misses
    return [not_converged(f"bulk radial rung [{edges[i]:.4e}, {edges[i + 1]:.4e}] 1/m", cfg,
                          values[i, 0], errs[i, 0].item()) if missed[i] else values[i, 0]
            for i in range(spans.size)]


def bulk_imD_coincident(
    material: Material, omega: float, cfg: QuadratureConfig | None = None
) -> BulkGreenResult:
    """Im D_xx = Im D_zz at coincident points, via the radial integral.

    The angular average is analytic (<k_i k_j> = delta_ij k^2/3); the radial
    integral runs over the cutoff ladder until two successive rungs agree to
    1%. A ladder that never settles raises QuadratureError with the
    convergence_series attached; an omega whose omega^2 overflows or whose
    omega (omega + i nu) underflows, and an Im D below the smallest normal
    float where omega_p^2 != 0, raise DomainError.
    """
    require_positive_finite("omega", omega)
    if error := _drude_scales_error(material, omega, squared=True, grazing=False):
        raise error
    cfg = cfg or QuadratureConfig()
    k_f, wp = material.fermi_wavevector, material.plasma_frequency
    k_skin = omega / C_LIGHT * math.sqrt(abs(drude_epsilon(material, omega)))
    # the ladder leaves the float range without warnings: a rung that does misses
    with np.errstate(all="ignore"):
        edges = np.array([min(k_skin / k_f, _LADDER[0]) * math.exp(-_FIRST_SPAN), *_LADDER]) * k_f
        series, total = [], 0.0
        for k_hi, rung in zip(edges[1:].tolist(), _rungs(material, omega, edges, cfg)):
            if isinstance(rung, QuadratureError):
                raise rung
            total += rung
            series.append((k_hi, total))
            if len(series) >= 2 and abs(total - series[-2][1]) <= _LADDER_REL * abs(total):
                if abs(total) < sys.float_info.min and wp * wp != 0:
                    raise DomainError(f"Im D underflows at omega = {omega:.6g} rad/s; the "
                                      f"inputs leave the float range")
                return BulkGreenResult(im_D_xx=total, im_D_zz=total, omega=omega,
                                       k_max_used=k_hi, convergence_series=series)

        exc = QuadratureError(
            "bulk radial integral not settled to 1% across the cutoff ladder "
            + ", ".join(f"(k_max={k:.4e}, value={v:.6e})" for k, v in series),
            best_estimate=total,
            error_bound=abs(total - series[-2][1]),
        )
    exc.convergence_series = series
    raise exc


def surface_limit_imD(
    material: Material, omega: float, cfg: QuadratureConfig | None = None
) -> SurfaceLimit:
    """Im D just outside the surface, from the z -> 0 electric noise.

    Evaluates the nonlocal quasistatic chi^E at z = 1e-3 lambda_F and
    converts with Im D_ij = (eps0 c^2/omega^2) chi^E_ij.
    """
    z = _SURFACE_Z_FRACTION * material.fermi_wavelength
    tensor = evaluate(material, "E", z, omega, Model.NONLOCAL_QUASISTATIC, cfg)
    conv = EPS0 * C_LIGHT**2 / omega**2
    return SurfaceLimit(im_D_xx=conv * tensor.chi_xx, im_D_zz=conv * tensor.chi_zz)
