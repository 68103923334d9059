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
rung is one real integral of the zz reduction, held to rel_tol; the
isotropic medium makes the xx reduction the same integrand, so one
running total is reported as both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, require_positive_finite
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, epsilon_l, epsilon_t
from .quadrature import QuadratureConfig, integrate_lockstep
from .spectral import Model, evaluate

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


def _radial_breakpoints(material, omega):
    """The seeds of every rung: 0.3, 1 and 3 times the skin wavevector,
    k_nu and k_star; the engine keeps those inside the rung."""
    eps = drude_epsilon(material, omega)
    k_delta = abs(math.sqrt(abs(eps)) * omega / C_LIGHT)
    return [0.3 * k_delta, k_delta, 3.0 * k_delta, material.k_nu, material.k_star]


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
    breaks = _radial_breakpoints(material, omega)

    series, total, k_lo = [], 0.0, 0.0
    for mult in _LADDER:
        k_hi = mult * k_f
        [res] = integrate_lockstep(lambda k, owner: _radial_integrand(material, k, omega),
                                   [k_lo], [k_hi], cfg, [breaks])
        if isinstance(res, QuadratureError):
            raise res
        total += res.value.real
        series.append((k_hi, total))
        if len(series) >= 2 and abs(total - series[-2][1]) <= _LADDER_REL * abs(total):
            return BulkGreenResult(im_D_xx=total, im_D_zz=total, omega=omega, k_max_used=k_hi,
                                   convergence_series=series)
        k_lo = k_hi

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
