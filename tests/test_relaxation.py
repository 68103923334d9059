"""Qubit relaxation times from the field spectral densities."""

import math

import pytest

from ewjn import DomainError, Material, Model, QubitSpec, t1
from ewjn.materials import BOHR_MAGNETON, BOHR_RADIUS, E_CHARGE, HBAR, K_BOLTZMANN, skin_depth
from ewjn.relaxation import thermal_factor


def rel(a, b):
    return abs(a - b) / abs(b)


def charge_qubit(omega, orientation="x"):
    return QubitSpec(kind="electric-dipole", moment=E_CHARGE * BOHR_RADIUS,
                     orientation=orientation, level_splitting=omega)


def spin_qubit(omega, orientation="z"):
    return QubitSpec(kind="magnetic-dipole", moment=BOHR_MAGNETON,
                     orientation=orientation, level_splitting=omega)


# ------------------------------------------------------------ thermal factor

def test_thermal_factor_zero_temperature(omega0):
    assert thermal_factor(omega0, 0.0) == 1.0


def test_thermal_factor_is_coth(omega0):
    x = HBAR * omega0 / (2.0 * K_BOLTZMANN * 2.0)
    assert thermal_factor(omega0, 2.0) == 1.0 / math.tanh(x)
    # spontaneous-plus-stimulated weight for copper's reference point
    assert 250.0 < thermal_factor(omega0, 2.0) < 300.0


def test_thermal_factor_unit_argument():
    omega = 1e12
    temp = HBAR * omega / (2.0 * K_BOLTZMANN)
    expected = (math.e**2 + 1.0) / (math.e**2 - 1.0)
    assert rel(thermal_factor(omega, temp), expected) < 1e-12


def test_thermal_factor_extremes():
    # deep quantum limit saturates at 1 without overflowing
    assert thermal_factor(1e10, 1e-8) == 1.0
    # classical limit approaches 2 k_B T/(hbar omega)
    omega, temp = 1e3, 300.0
    assert rel(thermal_factor(omega, temp),
               2.0 * K_BOLTZMANN * temp / (HBAR * omega)) < 1e-6


def test_thermal_factor_domain():
    with pytest.raises(DomainError):
        thermal_factor(0.0, 1.0)
    with pytest.raises(DomainError):
        thermal_factor(1e9, -0.1)
    for omega, temp in ((math.inf, 1.0), (1e9, math.inf), (1e9, math.nan)):
        with pytest.raises(DomainError):
            thermal_factor(omega, temp)


# -------------------------------------------------------------- qubit spec

def test_qubit_spec_validation(omega0):
    with pytest.raises(DomainError):
        QubitSpec(kind="quadrupole", moment=1e-30, orientation="x",
                  level_splitting=omega0)
    with pytest.raises(DomainError):
        QubitSpec(kind="electric-dipole", moment=0.0, orientation="x",
                  level_splitting=omega0)
    with pytest.raises(DomainError):
        QubitSpec(kind="electric-dipole", moment=1e-30, orientation="q",
                  level_splitting=omega0)
    with pytest.raises(DomainError):
        QubitSpec(kind="electric-dipole", moment=1e-30, orientation="x",
                  level_splitting=0.0)
    with pytest.raises(DomainError):
        QubitSpec(kind="electric-dipole", moment=math.inf, orientation="x",
                  level_splitting=omega0)
    with pytest.raises(DomainError):
        QubitSpec(kind="electric-dipole", moment=1e-30, orientation="x",
                  level_splitting=math.inf)


def test_qubit_field_kind(omega0):
    assert charge_qubit(omega0).field_kind == "E"
    assert spin_qubit(omega0).field_kind == "B"


# ------------------------------------------------------------------ t1 core

def test_t1_charge_local_reference(copper, omega0, lam_f):
    res = t1(copper, charge_qubit(omega0), 30.0 * lam_f, 0.0,
             "local-quasistatic")
    # 40-digit evaluation of the closed-form chain
    assert rel(res.t1, 1.00679317529128) < 1e-9
    assert 0.1 < res.t1 < 10.0
    assert res.t1 == 1.0 / res.rate
    assert res.chi_component == "xx"
    assert res.chi_units == "(V/m)^2 s"
    assert res.thermal_factor == 1.0
    assert res.model is Model.LOCAL_QUASISTATIC
    assert res.error_estimate == 0.0


def test_t1_charge_nonlocal_reference(copper, omega0, lam_f):
    res = t1(copper, charge_qubit(omega0), 30.0 * lam_f, 0.0,
             "nonlocal-quasistatic")
    # trapezoid-grid reference
    assert rel(res.t1, 0.0643940645893008) < 1e-5
    assert res.error_estimate > 0.0
    assert res.model is Model.NONLOCAL_QUASISTATIC


def test_t1_spin_local_reference(copper, omega0, lam_f):
    res = t1(copper, spin_qubit(omega0, "z"), 10.0 * lam_f, 0.0,
             "local-quasistatic")
    assert rel(res.t1, 0.12703252183843433) < 1e-6
    assert 0.1 < res.t1 < 0.3
    assert res.chi_component == "zz"
    assert res.chi_units == "T^2 s"


def test_t1_moment_squared(copper, omega0, lam_f):
    base = t1(copper, charge_qubit(omega0), 30.0 * lam_f, 0.0,
              "local-quasistatic")
    doubled = QubitSpec(kind="electric-dipole",
                        moment=2.0 * E_CHARGE * BOHR_RADIUS,
                        orientation="x", level_splitting=omega0)
    res = t1(copper, doubled, 30.0 * lam_f, 0.0, "local-quasistatic")
    assert rel(res.rate / base.rate, 4.0) < 1e-12


def test_t1_z_cubed_scaling(copper, omega0, lam_f):
    near = t1(copper, charge_qubit(omega0), 30.0 * lam_f, 0.0,
              "local-quasistatic")
    far = t1(copper, charge_qubit(omega0), 60.0 * lam_f, 0.0,
             "local-quasistatic")
    assert rel(far.t1 / near.t1, 8.0) < 1e-9


def test_t1_orientation(copper, omega0, lam_f):
    x = t1(copper, charge_qubit(omega0, "x"), 30.0 * lam_f, 0.0,
           "local-quasistatic")
    y = t1(copper, charge_qubit(omega0, "y"), 30.0 * lam_f, 0.0,
           "local-quasistatic")
    z = t1(copper, charge_qubit(omega0, "z"), 30.0 * lam_f, 0.0,
           "local-quasistatic")
    assert y.rate == x.rate
    assert rel(z.rate / x.rate, 2.0) < 1e-12
    assert z.chi_component == "zz"


def test_t1_thermal_ratio_exact(copper, omega0, lam_f):
    # chi is temperature independent, so the ratio must reproduce the
    # tanh factor to rounding for any model
    for model in ("local-quasistatic", "local-retarded"):
        cold = t1(copper, charge_qubit(omega0), 30.0 * lam_f, 0.0, model)
        warm = t1(copper, charge_qubit(omega0), 30.0 * lam_f, 2.0, model)
        expected = math.tanh(HBAR * omega0 / (2.0 * K_BOLTZMANN * 2.0))
        assert rel(warm.t1 / cold.t1, expected) < 1e-12


def test_t1_magnetic_rate_flattens_at_low_omega(copper, lam_f):
    # chi_B ~ omega (omega^2 prefactor times 1/omega dissipation) while
    # the classical thermal factor goes as 1/omega: the rate plateaus
    lo = t1(copper, spin_qubit(1e7), 10.0 * lam_f, 2.0, "local-quasistatic")
    hi = t1(copper, spin_qubit(1e8), 10.0 * lam_f, 2.0, "local-quasistatic")
    assert rel(lo.rate / hi.rate, 1.0) < 1e-6


def test_t1_infinite_for_transparent_medium(vacuumish, omega0, lam_f):
    res = t1(vacuumish, charge_qubit(omega0), 30.0 * lam_f, 0.0,
             "local-quasistatic")
    assert res.rate == 0.0
    assert math.isinf(res.t1)


def test_t1_negative_reflected_chi_is_domain_error():
    # far field of a dilute metal, where the reflected chi_xx alone is
    # negative (about -3.7e-14 (V/m)^2 s); without the free-space term
    # no rate follows, and t1 = inf would pass for a transparent medium
    metal = Material(name="farfield", plasma_frequency=4.628e15, collision_rate=8.427e13,
                     fermi_energy=3.44 * E_CHARGE)
    omega = 6.232e11
    z = 18.7 * skin_depth(metal, omega)
    with pytest.raises(DomainError, match="chi_xx.*free-space term is not included"):
        t1(metal, charge_qubit(omega), z)
    # chi_zz is positive there and gives a finite T1
    assert 0.0 < t1(metal, charge_qubit(omega, "z"), z).t1 < math.inf


def test_t1_domain(copper, omega0, lam_f):
    with pytest.raises(DomainError):
        t1(copper, charge_qubit(omega0), 0.0, 0.0, "local-quasistatic")
    with pytest.raises(DomainError):
        t1(copper, charge_qubit(omega0), 30.0 * lam_f, -1.0,
           "local-quasistatic")
