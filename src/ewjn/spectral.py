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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .fresnel import local_reflection, nonlocal_reflection_quasistatic
from .materials import C_LIGHT, EPS0, HBAR, Material, drude_epsilon, skin_depth
from .quadrature import (
    QuadratureConfig,
    integrate_finite,
    integrate_semi_infinite_decaying,
)


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
    if not (omega > 0):
        raise DomainError("omega must be > 0")


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
    lam_f = material.fermi_wavelength
    delta = skin_depth(material, omega)
    if z < _NONLOCAL_Z_LIMIT * lam_f:
        return RegimeChoice(Model.NONLOCAL_QUASISTATIC, False)
    if z < _RETARDED_Z_FRACTION * delta:
        return RegimeChoice(Model.NONLOCAL_QUASISTATIC, True)
    return RegimeChoice(Model.LOCAL_RETARDED, False)


def chi_E_quasistatic_local(material: Material, z: float, omega: float) -> SpectralDensityTensor:
    """Closed-form electric noise of the local half-space.

    chi_xx = hbar/(8 eps0 z^3) Im[(eps-1)/(eps+1)], chi_zz = 2 chi_xx.
    """
    _check_z_omega(z, omega)
    eps = drude_epsilon(material, omega)
    image = (eps - 1.0) / (eps + 1.0)
    chi_xx = HBAR / (8.0 * EPS0 * z**3) * image.imag
    return SpectralDensityTensor(
        field_kind="E",
        chi_xx=chi_xx,
        chi_zz=2.0 * chi_xx,
        z=z,
        omega=omega,
        model=Model.LOCAL_QUASISTATIC,
        error_estimate=0.0,
    )


def chi_B_quasistatic_local(material: Material, z: float, omega: float) -> SpectralDensityTensor:
    """Closed-form magnetic noise of the local half-space.

    chi_zz = hbar omega^2/(8 eps0 c^4 z) Im eps, chi_xx = chi_zz/2.
    Valid for z well below the skin depth; the 1/z growth saturates
    near delta in the retarded treatment.
    """
    _check_z_omega(z, omega)
    eps = drude_epsilon(material, omega)
    chi_zz = HBAR * omega**2 / (8.0 * EPS0 * C_LIGHT**4 * z) * eps.imag
    return SpectralDensityTensor(
        field_kind="B",
        chi_xx=0.5 * chi_zz,
        chi_zz=chi_zz,
        z=z,
        omega=omega,
        model=Model.LOCAL_QUASISTATIC,
        error_estimate=0.0,
    )


def _outer_breakpoints(material: Material, z: float) -> list:
    # structure of Im r sits at the collision and screening wavevectors;
    # seed them when they fall inside the exponential window
    return [material.k_nu, material.k_star, 0.25 / z, 1.0 / z]


def chi_E_quasistatic_nonlocal(
    material: Material, z: float, omega: float, cfg: QuadratureConfig | None = None
) -> SpectralDensityTensor:
    """Electric noise from the nonlocal quasistatic reflection.

    chi_zz = (hbar/eps0) Integral_0^inf dp p^2 e^{-2 p z} Im r_p(p),
    chi_xx = chi_zz / 2.
    """
    _check_z_omega(z, omega)
    cfg = cfg or QuadratureConfig()
    cfg_inner = cfg.inner()

    def integrand(p):
        r_p = nonlocal_reflection_quasistatic(material, p, omega, "p", cfg_inner)
        return p * p * np.exp(-2.0 * p * z) * np.imag(r_p)

    value, err = integrate_semi_infinite_decaying(
        integrand, 0.0, 0.5 / z, cfg, tail="exp",
        breakpoints=_outer_breakpoints(material, z),
    )
    chi_zz = HBAR / EPS0 * value.real
    return SpectralDensityTensor(
        field_kind="E",
        chi_xx=0.5 * chi_zz,
        chi_zz=chi_zz,
        z=z,
        omega=omega,
        model=Model.NONLOCAL_QUASISTATIC,
        error_estimate=HBAR / EPS0 * err,
    )


def chi_B_quasistatic_nonlocal(
    material: Material, z: float, omega: float, cfg: QuadratureConfig | None = None
) -> SpectralDensityTensor:
    """Magnetic noise from the nonlocal quasistatic reflections.

    chi_zz = (hbar/(eps0 c^2)) Integral dp p^2 e^{-2 p z} Im r_s(p)
    chi_xx = (hbar/(2 eps0 c^2)) Integral dp e^{-2 p z}
             Im[(omega^2/c^2) r_p(p) + p^2 r_s(p)]

    The two xx channels are kept separately in decomposition["rp_part"]
    and decomposition["rs_part"] (signed, T^2 s); the r_s channel equals
    chi_zz/2 term by term.
    """
    _check_z_omega(z, omega)
    cfg = cfg or QuadratureConfig()
    cfg_inner = cfg.inner()

    def integrand_s(p):
        r_s = nonlocal_reflection_quasistatic(material, p, omega, "s", cfg_inner)
        return p * p * np.exp(-2.0 * p * z) * np.imag(r_s)

    def integrand_p(p):
        r_p = nonlocal_reflection_quasistatic(material, p, omega, "p", cfg_inner)
        return np.exp(-2.0 * p * z) * np.imag(r_p)

    breaks = _outer_breakpoints(material, z)
    val_s, err_s = integrate_semi_infinite_decaying(
        integrand_s, 0.0, 0.5 / z, cfg, tail="exp", breakpoints=breaks
    )
    val_p, err_p = integrate_semi_infinite_decaying(
        integrand_p, 0.0, 0.5 / z, cfg, tail="exp", breakpoints=breaks
    )
    scale = HBAR / (EPS0 * C_LIGHT**2)
    chi_zz = scale * val_s.real
    rs_part = 0.5 * chi_zz
    rp_part = 0.5 * scale * (omega / C_LIGHT) ** 2 * val_p.real
    err = scale * (err_s + 0.5 * (omega / C_LIGHT) ** 2 * err_p)
    return SpectralDensityTensor(
        field_kind="B",
        chi_xx=rs_part + rp_part,
        chi_zz=chi_zz,
        z=z,
        omega=omega,
        model=Model.NONLOCAL_QUASISTATIC,
        error_estimate=err,
        decomposition={"rs_part": rs_part, "rp_part": rp_part},
    )


def _retarded_integrals(material, z, omega, cfg, swap: bool):
    """Shared machinery of the retarded chi integrals.

    Returns (I_xx, I_zz, err) where
      I_xx = Re Integral dp (p/q) e^{2 i q z} (omega^2/c^2 r_a - q^2 r_b)/2
      I_zz = Re Integral dp (p^3/q) e^{2 i q z} r_b
    with (r_a, r_b) = (r_s, r_p) for the electric field and swapped for
    the magnetic one. The propagating part uses p = (omega/c) sin(theta);
    the evanescent part uses u = |q| as the variable, so its weight is
    exp(-2 u z) and the xx integrand becomes Im[omega^2/c^2 r_a + u^2 r_b].
    """
    eps = drude_epsilon(material, omega)
    w_c = omega / C_LIGHT

    def pick(pair):
        return (pair.r_p, pair.r_s) if swap else (pair.r_s, pair.r_p)

    def prop(theta):
        p = w_c * np.sin(theta)
        q = w_c * np.cos(theta)
        r_a, r_b = pick(local_reflection(p, omega, eps))
        phase = np.exp(2.0j * q * z)
        f_xx = 0.5 * w_c * np.sin(theta) * phase * (w_c**2 * r_a - q * q * r_b)
        f_zz = w_c**3 * np.sin(theta) ** 3 * phase * r_b
        return np.real(f_xx) + 1.0j * np.real(f_zz)

    def evan(u):
        p = np.sqrt(u * u + w_c * w_c)
        r_a, r_b = pick(local_reflection(p, omega, eps))
        damp = np.exp(-2.0 * u * z)
        f_xx = 0.5 * damp * np.imag(w_c**2 * r_a + u * u * r_b)
        f_zz = damp * p * p * np.imag(r_b)
        return f_xx + 1.0j * f_zz

    res_prop = integrate_finite(prop, 0.0, 0.5 * math.pi, cfg)
    # Im r knees sit at u ~ sqrt(|eps|) omega/c (skin depth scale)
    knee = math.sqrt(abs(eps)) * w_c
    res_evan = integrate_semi_infinite_decaying(
        evan, 0.0, 0.5 / z, cfg, tail="exp",
        breakpoints=[0.5 * knee, knee, 2.0 * knee],
    )
    i_xx = res_prop.value.real + res_evan.value.real
    i_zz = res_prop.value.imag + res_evan.value.imag
    err = res_prop.error + res_evan.error
    return i_xx, i_zz, err


def chi_E_local_retarded(
    material: Material, z: float, omega: float, cfg: QuadratureConfig | None = None
) -> SpectralDensityTensor:
    """Retarded electric noise over the local Fresnel coefficients."""
    _check_z_omega(z, omega)
    cfg = cfg or QuadratureConfig()
    i_xx, i_zz, err = _retarded_integrals(material, z, omega, cfg, swap=False)
    scale = HBAR / EPS0
    return SpectralDensityTensor(
        field_kind="E",
        chi_xx=scale * i_xx,
        chi_zz=scale * i_zz,
        z=z,
        omega=omega,
        model=Model.LOCAL_RETARDED,
        error_estimate=scale * err,
    )


def chi_B_local_retarded(
    material: Material, z: float, omega: float, cfg: QuadratureConfig | None = None
) -> SpectralDensityTensor:
    """Retarded magnetic noise over the local Fresnel coefficients."""
    _check_z_omega(z, omega)
    cfg = cfg or QuadratureConfig()
    i_xx, i_zz, err = _retarded_integrals(material, z, omega, cfg, swap=True)
    scale = HBAR / (EPS0 * C_LIGHT**2)
    return SpectralDensityTensor(
        field_kind="B",
        chi_xx=scale * i_xx,
        chi_zz=scale * i_zz,
        z=z,
        omega=omega,
        model=Model.LOCAL_RETARDED,
        error_estimate=scale * err,
    )


_DISPATCH = {
    ("E", Model.LOCAL_QUASISTATIC): lambda mat, z, w, cfg: chi_E_quasistatic_local(mat, z, w),
    ("B", Model.LOCAL_QUASISTATIC): lambda mat, z, w, cfg: chi_B_quasistatic_local(mat, z, w),
    ("E", Model.NONLOCAL_QUASISTATIC): chi_E_quasistatic_nonlocal,
    ("B", Model.NONLOCAL_QUASISTATIC): chi_B_quasistatic_nonlocal,
    ("E", Model.LOCAL_RETARDED): chi_E_local_retarded,
    ("B", Model.LOCAL_RETARDED): chi_B_local_retarded,
}


def evaluate(
    material: Material,
    field_kind: str,
    z: float,
    omega: float,
    model: Model | str = Model.AUTO,
    cfg: QuadratureConfig | None = None,
) -> SpectralDensityTensor:
    """Evaluate one noise tensor, resolving model="auto" by regime."""
    if field_kind not in ("E", "B"):
        raise DomainError("field_kind must be 'E' or 'B'")
    model = Model(model)
    if model is Model.AUTO:
        model = regime_select(material, z, omega).model
    return _DISPATCH[(field_kind, model)](material, z, omega, cfg)
