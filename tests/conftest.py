"""Shared fixtures. Copper at omega = 6*pi*1e8 rad/s is the reference
operating point used throughout. nested_r_s is the nested r_s path that
the package replaced by one k-integral per point, kept as an oracle."""

import math

import numpy as np
import pytest

from ewjn import COPPER, Material, QuadratureConfig, QuadratureError
from ewjn.fresnel import _kappa_seeds
from ewjn.materials import C_LIGHT, epsilon_t, skin_depth
from ewjn.quadrature import QuadResult, integrate_power_tails

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


def _nested_r_s(material, p, omega, cfg=None):
    """The nested r_s path, kept as the second integration order of
    chi^B_zz: at every p of an array, as outcomes,
      r_s = (omega^2/(4 p^2 c^2)) (J_p - 1),
      J_p = (4 p^3/pi) Integral_0^inf dkappa eps_t(k, omega)/k^4,
    k^2 = p^2 + kappa^2, to leading order in omega^2/(p c)^2. The
    kappa-integrals are one power-tail batch seeded as the r_p kernel's,
    and Re J_p rides as Re - Im, so the per-part test resolves Im J_p to
    rel_tol of itself; each error is carried over from its integral's."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    p2_rows = (p * p)[:, None]

    def integrand(kappa, owner):
        k2 = p2_rows[owner] + kappa * kappa
        f = epsilon_t(material, np.sqrt(k2), omega) / (k2 * k2)
        return f - f.imag

    p_list = p.tolist()
    outcomes = integrate_power_tails(integrand, np.maximum(p, material.k_star),
                                     _kappa_seeds(material, p), cfg or QuadratureConfig())
    r = []
    for q, res in zip(p_list, outcomes):
        if isinstance(res, QuadratureError):
            r.append(res)
            continue
        e_re, e_im = res.part_errors
        value = complex(res.value.real + res.value.imag, res.value.imag)
        a = 4.0 * q**3 / math.pi
        prefactor = omega**2 / (4.0 * q**2 * C_LIGHT**2)
        parts = (prefactor * a * (e_re + e_im), prefactor * a * e_im)
        r.append(QuadResult(prefactor * (a * value - 1.0), math.hypot(*parts), parts))
    return r


@pytest.fixture(scope="session")
def nested_r_s():
    return _nested_r_s
