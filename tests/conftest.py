"""Shared fixtures. Copper at omega = 6*pi*1e8 rad/s is the reference
operating point used throughout."""

import math

import pytest

from ewjn import COPPER, Material, QuadratureConfig
from ewjn.materials import skin_depth

OMEGA0 = 6e8 * math.pi


@pytest.fixture(scope="session")
def copper():
    return COPPER


@pytest.fixture(scope="session")
def omega0():
    return OMEGA0


@pytest.fixture(scope="session")
def lam_f():
    return COPPER.fermi_wavelength


@pytest.fixture(scope="session")
def delta():
    return skin_depth(COPPER, OMEGA0)


@pytest.fixture(scope="session")
def cfg():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def cfg_fast():
    # loose tolerance for tests that only need a few percent
    return QuadratureConfig(rel_tol=1e-6)


@pytest.fixture(scope="session")
def vacuumish():
    # plasma frequency driven to zero: the metal response vanishes and
    # every reflection and noise quantity should collapse to vacuum.
    # 1e-320 makes omega_p^2 (and the screening wavevector) underflow to
    # exactly zero, so the response term is identically 0.0; the
    # collision rate is negligible but kept moderate so the collision
    # wavevector stays representable and no integration cell samples
    # arguments whose squares overflow.
    return Material(
        name="vacuumish",
        plasma_frequency=1e-320,
        collision_rate=1e-100,
        fermi_energy=COPPER.fermi_energy,
    )
