"""Qubit relaxation rates from the field spectral densities.

rate = (moment^2/hbar^2) chi_ii(z, omega_Z) coth(hbar omega_Z/(2 k_B T))

with chi^E for an electric dipole (moment in C m) and chi^B for a
magnetic one (moment in J/T). The qubit is a point dipole; only the
component along its orientation contributes, and the in-plane symmetry
of the half-space makes x and y identical.

relax is the one place that turns chi and error columns, a moment, an
orientation and a temperature into rates and T1s, a batch of points at
a time; t1 is a batch of one, and each CLI sweep relaxes a model's
columns at a temperature in one call. A negative or non-finite rate is
a DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive_finite
from .materials import HBAR, K_BOLTZMANN, Material
from .quadrature import QuadratureConfig, _distinct
from .spectral import Model, evaluate

_KINDS = ("electric-dipole", "magnetic-dipole")
_ORIENTATIONS = ("x", "y", "z")

# the units of chi by field, as every output prints them
_CHI_UNITS = {"E": "(V/m)^2*s", "B": "T^2*s"}
# the chi component that relaxes a dipole, by its orientation
_COMPONENT = {"x": "xx", "y": "xx", "z": "zz"}


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
            require_positive_finite(name, getattr(self, name))

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
    2 k_B T/(hbar omega) comes out of the division untouched. An
    argument that underflows to 0 is a DomainError.
    """
    if not (omega > 0):
        raise DomainError("omega must be > 0")
    if not (temperature >= 0):
        raise DomainError("temperature must be >= 0")
    if math.inf in (omega, temperature):
        raise DomainError("omega and temperature must be finite")
    if temperature == 0:
        return 1.0
    x = HBAR * omega / (2.0 * K_BOLTZMANN * temperature)
    if x == 0:
        raise DomainError("hbar omega/(2 k_B T) underflows to 0")
    return 1.0 / math.tanh(x)


def relaxation_rate(moment: float, chi, factor=1.0):
    """(moment/hbar)^2 chi factor, 1/s, at scalars or arrays; factor is
    the thermal coth."""
    try:
        return (moment / HBAR) ** 2 * chi * factor
    except OverflowError:
        raise DomainError("(moment/hbar)^2 overflows") from None


def relax(columns, omegas, moment: float, orientation: str, temperature: float) -> tuple:
    """Rates, T1s, rate errors and thermal factors (arrays), and {index:
    DomainError} of the failed cells, of a dipole along orientation (as
    QubitSpec checks them) at temperature, from columns chi_xx, chi_zz and
    error of chi (spectral.evaluate_columns's first three) at omegas; the
    factor is computed once per distinct omega. A cell gets its omega's
    thermal_factor error, else that of a (moment/hbar)^2 that overflows,
    else one naming the chi component of a rate that is not finite or
    negative: chi holds the field reflected by the medium alone, without
    the free-space term, and can be negative in the far field. t1 =
    1/rate, and inf at rate 0, where the medium does not relax."""
    component = _COMPONENT[orientation]
    distinct, at = _distinct(omegas)
    factors, lost = np.empty(distinct.size), {}
    for k, w in enumerate(distinct.tolist()):
        try:
            factors[k] = thermal_factor(w, temperature)
        except DomainError as exc:
            factors[k], lost[k] = math.nan, exc
    factor = factors[at]
    failed = {i: lost[k] for i, k in enumerate(at.tolist()) if k in lost} if lost else {}
    with np.errstate(all="ignore"):
        try:
            rate, error = [relaxation_rate(moment, columns[:, c], factor)
                           for c in (0 if component == "xx" else 1, 2)]
        except DomainError as exc:
            rate = error = np.full(len(factor), math.nan)
            failed = {i: failed.get(i, exc) for i in range(len(factor))}
        t1s = np.divide(1.0, rate, out=np.full(rate.shape, math.inf), where=rate > 0)
    for i in np.flatnonzero(~(rate >= 0) | (rate == math.inf)).tolist():
        r = rate[i].item()
        failed.setdefault(i, DomainError(
            f"rate from chi_{component} is not finite ({r} 1/s); the inputs leave the float "
            "range" if not math.isfinite(r) else f"reflected chi_{component} is negative (rate "
            f"{r:.3e} 1/s); the free-space term is not included, so no T1 follows"))
    return rate, t1s, error, factor, failed


def t1(material: Material, qubit: QubitSpec, z: float, temperature: float = 0.0,
       model: Model | str = Model.AUTO, cfg: QuadratureConfig | None = None) -> RelaxationResult:
    """Relaxation time of the qubit at height z above the half-space:
    evaluate, then relax as a batch of one; its DomainError raises."""
    tensor = evaluate(material, qubit.field_kind, z, qubit.level_splitting, model, cfg)
    rate, t1s, error, factor, failed = relax(
        np.array([[tensor.chi_xx, tensor.chi_zz, tensor.error_estimate]]),
        np.array([tensor.omega]), qubit.moment, qubit.orientation, temperature)
    if failed:
        raise failed[0]
    component = _COMPONENT[qubit.orientation]
    return RelaxationResult(rate.item(), t1s.item(), component,
                            getattr(tensor, "chi_" + component), _CHI_UNITS[tensor.field_kind],
                            factor.item(), tensor.model, error.item())
