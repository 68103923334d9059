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
with Gregory's end corrections held to rel_tol on the spectral module's
schedule of halvings (_rung); the isotropic medium makes the xx
reduction the same integrand, so one running total is reported as both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, require_positive_finite
from .materials import C_LIGHT, EPS0, HBAR, Material, epsilon_l, epsilon_t
from .quadrature import GREGORY, QuadratureConfig
from .spectral import _H0, _MAX_HALVINGS, _ROUNDING, Model, _halved, _not_converged, evaluate

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


# rung 1 starts _FIRST_SPAN below 3 k_F; every rung's lattice holds at
# least _MIN_STEPS steps, so Gregory's corrections at its ends do not meet
_FIRST_SPAN, _MIN_STEPS = 60.0, 16


def _rungs(material, omega, edges, cfg) -> list:
    """The radial integral over each rung [edges[i], edges[i + 1]], as its
    value or its QuadratureError: a trapezoid sum in ln k on N + 1 nodes
    from one end to the other with Gregory's corrections at both, N =
    max(ceil(ln(k_hi/k_lo)/_H0), _MIN_STEPS) doubling on the spectral
    module's schedule (_halved). The rungs refine together, one integrand
    call per halving for the odd nodes of the open ones. A rung's error
    is its difference from the sum at 2h, the rounding floor and, for the
    first, twice its first term, a bound on the part below edges[0]."""
    spans, halvings = np.log(edges[1:] / edges[:-1]), min(_MAX_HALVINGS, cfg.max_subdivisions)
    steps = np.maximum(np.ceil(spans / _H0), _MIN_STEPS).astype(int)
    out, values, previous = [None] * spans.size, [None] * spans.size, [None] * spans.size
    for level in range(halvings + 1):
        nodes, h = {}, spans / steps / 2**level
        for i in (i for i, o in enumerate(out) if o is None):
            k = edges[i] * np.exp(np.arange(steps[i] * 2**level + 1) * h[i])
            k[-1] = edges[i + 1]
            nodes[i] = k if level == 0 else k[1::2]
        if not nodes:
            break
        k = np.concatenate(list(nodes.values()))
        fresh = np.split(_radial_integrand(material, k, omega) * k,
                         np.cumsum([x.size for x in nodes.values()])[:-1])
        for i, new in zip(nodes, fresh):
            if level:
                values[i] = np.insert(new, np.arange(new.size + 1), values[i])
            else:
                values[i] = new
            weights = np.ones(values[i].size)
            weights[[0, -1]] = 0.5
            weights[:8] += GREGORY
            weights[-8:] += GREGORY[::-1]
            terms = weights * values[i]
            value = h[i] * float(terms.sum())
            err = float(_ROUNDING * h[i] * np.abs(terms).sum() + 2.0 * (i == 0) * abs(values[i][0]))
            if level:
                [err], done, final = _halved(level, halvings, [value], [err], [previous[i]], cfg)
                if final:
                    out[i] = value if done else _not_converged(
                        f"bulk radial rung [{edges[i]:.4e}, {edges[i + 1]:.4e}] 1/m", halvings,
                        value, err)
            previous[i] = value
    return out


def bulk_imD_coincident(
    material: Material, omega: float, cfg: QuadratureConfig | None = None
) -> BulkGreenResult:
    """Im D_xx = Im D_zz at coincident points, via the radial integral.

    The angular average is analytic (<k_i k_j> = delta_ij k^2/3); the
    radial integral runs over the cutoff ladder until two successive
    rungs agree to 1%. A ladder that never settles raises
    QuadratureError with the convergence_series attached.
    """
    require_positive_finite("omega", omega)
    cfg = cfg or QuadratureConfig()
    k_f = material.fermi_wavevector
    edges = np.array([_LADDER[0] * math.exp(-_FIRST_SPAN), *_LADDER]) * k_f
    series, total = [], 0.0
    for k_hi, rung in zip(edges[1:].tolist(), _rungs(material, omega, edges, cfg)):
        if isinstance(rung, QuadratureError):
            raise rung
        total += rung
        series.append((k_hi, total))
        if len(series) >= 2 and abs(total - series[-2][1]) <= _LADDER_REL * abs(total):
            return BulkGreenResult(im_D_xx=total, im_D_zz=total, omega=omega, k_max_used=k_hi,
                                   convergence_series=series)

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
