"""Qubit relaxation rates from the field spectral densities.

rate = (moment^2/hbar^2) chi_ii(z, omega_Z) coth(hbar omega_Z/(2 k_B T))

with chi^E for an electric dipole (moment in C m) and chi^B for a
magnetic one (moment in J/T). The qubit is a point dipole; only the
component along its orientation contributes, and the in-plane symmetry
of the half-space makes x and y identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .materials import HBAR, K_BOLTZMANN, Material
from .quadrature import QuadratureConfig
from .spectral import Model, SpectralDensityTensor, evaluate

_KINDS = ("electric-dipole", "magnetic-dipole")
_ORIENTATIONS = ("x", "y", "z")

_CHI_UNITS = {"E": "(V/m)^2 s", "B": "T^2 s"}


@dataclass(frozen=True)
class QubitSpec:
    """Point dipole: kind, moment (C m electric, J/T magnetic), axis."""

    kind: str
    moment: float
    orientation: str
    level_splitting: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}")
        if self.orientation not in _ORIENTATIONS:
            raise DomainError(f"orientation must be one of {_ORIENTATIONS}")
        for name in ("moment", "level_splitting"):
            value = getattr(self, name)
            if not (value > 0):
                raise DomainError(f"{name} must be > 0")
            if value == math.inf:
                raise DomainError(f"{name} must be finite")

    @property
    def field_kind(self) -> str:
        return "E" if self.kind == "electric-dipole" else "B"


@dataclass(frozen=True)
class RelaxationResult:
    rate: float
    t1: float
    chi_component: str
    chi_value: float
    chi_units: str
    thermal_factor: float
    model: Model
    error_estimate: float


def thermal_factor(omega: float, temperature: float) -> float:
    """coth(hbar omega/(2 k_B T)); exactly 1 at T = 0.

    1/tanh is stable at both ends: tanh saturates to 1 for large
    arguments instead of overflowing, and the small-argument growth
    2 k_B T/(hbar omega) comes out of the division untouched.
    """
    if not (omega > 0):
        raise DomainError("omega must be > 0")
    if not (temperature >= 0):
        raise DomainError("temperature must be >= 0")
    if math.inf in (omega, temperature):
        raise DomainError("omega and temperature must be finite")
    if temperature == 0:
        return 1.0
    return 1.0 / math.tanh(HBAR * omega / (2.0 * K_BOLTZMANN * temperature))


def relaxation_rate(moment: float, chi: float, factor: float = 1.0) -> float:
    """(moment/hbar)^2 chi factor, 1/s; factor is the thermal coth."""
    return (moment / HBAR) ** 2 * chi * factor


def relaxation_time(rate: float, component: str) -> float:
    """t1 = 1/rate, and inf at rate 0, where the medium does not relax.

    chi, and so the rate, holds the field reflected by the medium alone:
    the free-space term is not included, and the reflected chi can be
    negative in the far field. A negative rate raises DomainError, which
    names the chi component ("xx" or "zz") the rate came from.
    """
    if rate < 0:
        raise DomainError(f"reflected chi_{component} is negative (rate {rate:.3e} 1/s); "
                          "the free-space term is not included, so no T1 follows")
    return 1.0 / rate if rate > 0 else math.inf


def t1(
    material: Material,
    qubit: QubitSpec,
    z: float,
    temperature: float = 0.0,
    model: Model | str = Model.AUTO,
    cfg: QuadratureConfig | None = None,
) -> RelaxationResult:
    """Relaxation time of the qubit at height z above the half-space.

    Raises DomainError where the reflected chi along the qubit axis is
    negative (see relaxation_time).
    """
    omega = qubit.level_splitting
    tensor: SpectralDensityTensor = evaluate(
        material, qubit.field_kind, z, omega, model, cfg
    )
    component = "zz" if qubit.orientation == "z" else "xx"
    chi = tensor.chi_zz if component == "zz" else tensor.chi_xx
    factor = thermal_factor(omega, temperature)
    rate = relaxation_rate(qubit.moment, chi, factor)
    return RelaxationResult(
        rate=rate,
        t1=relaxation_time(rate, component),
        chi_component=component,
        chi_value=chi,
        chi_units=_CHI_UNITS[tensor.field_kind],
        thermal_factor=factor,
        model=tensor.model,
        error_estimate=relaxation_rate(qubit.moment, tensor.error_estimate, factor),
    )
