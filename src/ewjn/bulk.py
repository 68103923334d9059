"""Photon Green's function inside the uniform metal at coincident points.

Only the imaginary part is computed: the real part carries the
divergent free-space self-field and nothing downstream consumes it.
Sign convention: with the one-sided (omega > 0) spectra used
throughout, the physical dissipation enters through -Im of the printed
tensor, so the radial integrands below return that non-negative
quantity and Im D is reported positive.

The radial integral inherits the slow longitudinal falloff of the
screened response (the integrand decays like 1/k between the collision
and screening wavevectors), so it is evaluated on an explicit cutoff
ladder k_max in {3, 10, 30, 100} k_F and reported together with the
ladder; failure to settle to 1% between rungs is an explicit error
carrying the full series rather than a silently truncated number. Each
rung is one integral: its real part is the zz reduction and its
imaginary part the xx one, each held to rel_tol of itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError
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


def bulk_green_k(material: Material, k, omega: float):
    """Green's tensor D_ij(k, omega) of the uniform metal, J s m^3.

    k may be a scalar magnitude (taken along z) or a 3-vector. The
    tensor is assembled exactly as
      4 pi hbar/(omega^2 eps_t/c^2 - k^2)
        (delta_ij - c^2 k_i k_j/(omega^2 eps_l)
         + k_i k_j (eps_t - eps_l)/(k^2 eps_l))
    whose k_i k_j structure leaves axis-aligned k with a diagonal
    tensor, and whose last term vanishes when eps_l = eps_t.
    """
    kvec = np.asarray(k, dtype=float)
    if kvec.ndim == 0:
        kvec = np.array([0.0, 0.0, float(k)])
    if kvec.shape != (3,):
        raise DomainError("k must be a scalar or a 3-vector")
    k_mag = float(np.linalg.norm(kvec))
    if not (k_mag > 0):
        raise DomainError("k must be nonzero")
    if not (omega > 0):
        raise DomainError("omega must be > 0")
    eps_l = epsilon_l(material, k_mag, omega)
    eps_t = epsilon_t(material, k_mag, omega)
    denom = omega**2 * eps_t / C_LIGHT**2 - k_mag**2
    outer = np.outer(kvec, kvec)
    bracket = (
        np.eye(3)
        - C_LIGHT**2 * outer / (omega**2 * eps_l)
        + outer * (eps_t - eps_l) / (k_mag**2 * eps_l)
    )
    return 4.0 * math.pi * HBAR / denom * bracket


def _radial_integrand(material, k, omega):
    """The zz reduction (real part), via the transverse/longitudinal
    split, and the xx one (imaginary part), via the printed combined
    bracket, of the angle-averaged radial integrand."""
    eps_l = epsilon_l(material, k, omega)
    eps_t = epsilon_t(material, k, omega)
    denom = omega**2 * eps_t / C_LIGHT**2 - k * k
    parts = (2.0 / 3.0) / denom + C_LIGHT**2 / (3.0 * omega**2 * eps_l)
    zz = -(k * k) * np.imag(4.0 * math.pi * HBAR * parts) / (2.0 * math.pi**2)
    bracket = (
        1.0
        - C_LIGHT**2 * k * k / (3.0 * omega**2 * eps_l)
        + (eps_t - eps_l) / (3.0 * eps_l)
    )
    xx = -(k * k) * np.imag(4.0 * math.pi * HBAR / denom * bracket) / (2.0 * math.pi**2)
    return zz + 1j * xx


def _radial_breakpoints(material, omega, k_lo, k_hi):
    eps = drude_epsilon(material, omega)
    k_delta = abs(math.sqrt(abs(eps)) * omega / C_LIGHT)
    return [x for x in (0.3 * k_delta, k_delta, 3.0 * k_delta,
                        material.k_nu, material.k_star)
            if k_lo < x < k_hi]


def bulk_imD_coincident(
    material: Material, omega: float, cfg: QuadratureConfig | None = None
) -> BulkGreenResult:
    """Im D_xx = Im D_zz at coincident points, via the radial integral.

    The angular average is analytic (<k_i k_j> = delta_ij k^2/3); the
    radial integral runs over the cutoff ladder until two successive
    rungs agree to 1%. A ladder that never settles raises
    QuadratureError with the convergence_series attached.
    """
    if not (omega > 0):
        raise DomainError("omega must be > 0")
    if omega == math.inf:
        raise DomainError("omega must be finite")
    cfg = cfg or QuadratureConfig()
    k_f = material.fermi_wavevector

    series, total_zz, total_xx, k_lo, converged_at = [], 0.0, 0.0, 0.0, None
    for mult in _LADDER:
        k_hi = mult * k_f
        breaks = _radial_breakpoints(material, omega, k_lo, k_hi)
        [res] = integrate_lockstep(lambda k, owner: _radial_integrand(material, k, omega),
                                   [k_lo], [k_hi], cfg, [breaks])
        if isinstance(res, QuadratureError):
            raise res
        total_zz += res.value.real
        total_xx += res.value.imag
        series.append((k_hi, total_zz))
        if len(series) >= 2 and abs(total_zz - series[-2][1]) <= _LADDER_REL * abs(total_zz):
            converged_at = k_hi
            break
        k_lo = k_hi

    if converged_at is None:
        exc = QuadratureError(
            "bulk radial integral not settled to 1% across the cutoff ladder "
            + ", ".join(f"(k_max={k:.4e}, value={v:.6e})" for k, v in series),
            best_estimate=total_zz,
            error_bound=abs(total_zz - series[-2][1]),
        )
        exc.convergence_series = series
        raise exc

    return BulkGreenResult(
        im_D_xx=total_xx,
        im_D_zz=total_zz,
        omega=omega,
        k_max_used=converged_at,
        convergence_series=series,
    )


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
