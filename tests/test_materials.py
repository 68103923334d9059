"""Dielectric response: Drude and wavevector-resolved forms.

Reference values marked "independent evaluation" were computed with a
40-digit multiprecision reimplementation of the same formulas and are
quoted to full double precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ewjn import COPPER, DomainError, Material, load_material, parse_material_config
from ewjn.materials import (
    C_LIGHT,
    E_CHARGE,
    HBAR,
    drude_epsilon,
    epsilon_l,
    epsilon_t,
    lindhard_f_l,
    lindhard_f_t,
    skin_depth,
)
from ewjn.materials import M_ELECTRON


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- material

def test_copper_fermi_scales(copper):
    assert copper.fermi_velocity == pytest.approx(
        math.sqrt(2.0 * copper.fermi_energy / M_ELECTRON), rel=1e-15)
    assert copper.fermi_wavevector == pytest.approx(
        M_ELECTRON * copper.fermi_velocity / HBAR, rel=1e-15)
    assert copper.fermi_wavelength == pytest.approx(
        2.0 * math.pi / copper.fermi_wavevector, rel=1e-15)
    # 7 eV Fermi sea: lambda_F just under half a nanometer
    assert 0.4e-9 < copper.fermi_wavelength < 0.5e-9


def test_material_validation():
    with pytest.raises(DomainError):
        Material("m", plasma_frequency=0.0, collision_rate=1.0, fermi_energy=1e-19)
    with pytest.raises(DomainError):
        Material("m", plasma_frequency=1e16, collision_rate=-1.0, fermi_energy=1e-19)
    with pytest.raises(DomainError):
        Material("m", plasma_frequency=1e16, collision_rate=1.0, fermi_energy=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            Material("m", plasma_frequency=bad, collision_rate=1.0, fermi_energy=1e-19)
        with pytest.raises(DomainError):
            Material("m", plasma_frequency=1e16, collision_rate=bad, fermi_energy=1e-19)
        with pytest.raises(DomainError):
            Material("m", plasma_frequency=1e16, collision_rate=1.0, fermi_energy=bad)


@pytest.mark.parametrize("bad,message", [
    (0.0, "{} must be > 0"), (-1.0, "{} must be > 0"), (math.nan, "{} must be > 0"),
    (math.inf, "{} must be finite"),
], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("name", ["plasma_frequency", "collision_rate", "fermi_energy"])
def test_material_validation_text(name, bad, message):
    fields = dict(plasma_frequency=1e16, collision_rate=1.0, fermi_energy=1e-19)
    fields[name] = bad
    with pytest.raises(DomainError) as excinfo:
        Material("m", **fields)
    assert str(excinfo.value) == message.format(name)


# ------------------------------------------------------------------- drude

def test_drude_copper_reference(copper, omega0):
    val = drude_epsilon(copper, omega0)
    # independent evaluation
    assert rel(val, -720505.1875848956 + 7205061875.848956j) < 1e-12
    # collision-dominated regime: Im/Re = -nu/omega = -1e4
    assert val.real == pytest.approx(-7.2e5, rel=0.01)
    assert val.imag == pytest.approx(7.2e9, rel=0.01)


def test_drude_imag_identity(copper):
    omega = 1e9
    nu = copper.collision_rate
    wp = copper.plasma_frequency
    val = drude_epsilon(copper, omega)
    assert val.imag == pytest.approx(
        wp**2 * nu / (omega * (omega**2 + nu**2)), rel=1e-12)


def test_drude_vacuum_limit(vacuumish, omega0):
    assert drude_epsilon(vacuumish, omega0) == 1.0 + 0.0j


def test_drude_domain(copper):
    with pytest.raises(DomainError):
        drude_epsilon(copper, 0.0)
    with pytest.raises(DomainError):
        drude_epsilon(copper, -1e9)


# ----------------------------------------------------------------- lindhard

def test_lindhard_anchor_values():
    assert rel(lindhard_f_l(2.0), 1.0 - math.log(3.0)) < 1e-13
    assert rel(lindhard_f_t(2.0), 6.0 - 4.5 * math.log(3.0)) < 1e-13


def test_lindhard_series_matches_asymptote():
    # the direct form loses ~10 digits to cancellation out here; the
    # series branch must hold the two-term asymptote to 1e-8
    for x in (1e3, 1e3 * (0.6 + 0.8j)):
        target = -1.0 / (3.0 * x**2) - 1.0 / (5.0 * x**4)
        assert rel(lindhard_f_l(x), target) < 1e-8


@pytest.mark.parametrize("modulus", [0.5, 2.0, 7.99, 8.01, 50.0, 1e4])
def test_lindhard_matches_mpmath_on_both_sides_of_the_switch(modulus):
    # 50-digit oracle of the log form on a half circle in the upper half
    # plane; the log branch (|x| < 8) loses up to ~2e-13 to cancellation
    # just below the switch, the series branch stays at rounding level
    mp = pytest.importorskip("mpmath")
    angles = [1e-3, 0.2, 0.8, 0.5 * math.pi, 2.2, math.pi - 1e-3]
    xs = modulus * np.exp(1j * np.array(angles))
    tol = 1e-14 if modulus >= 8.0 else 1e-12
    with mp.workdps(50):
        for x, f_l, f_t in zip(xs, lindhard_f_l(xs), lindhard_f_t(xs)):
            X = mp.mpc(complex(x))
            dlog = mp.log(X + 1) - mp.log(X - 1)
            ref_l = complex(1 - X / 2 * dlog)
            ref_t = complex(mp.mpf(3) / 2 * X**2 - mp.mpf(3) / 4 * X * (X**2 - 1) * dlog)
            assert abs(f_l - ref_l) <= tol * abs(ref_l)
            assert abs(f_t - ref_t) <= tol * abs(ref_t)


def test_lindhard_log_form_holds_below_the_real_axis_and_left_of_the_cut():
    # the kernel evaluates ln((x+1)/(x-1)) as 2 artanh(1/x); the two are
    # one analytic function off [-1, 1], so the log form's values must
    # come back for Im x < 0 and for real x < -1 as well
    mp = pytest.importorskip("mpmath")
    below = [m * np.exp(-1j * a) for m in (0.5, 2.0, 7.99, 50.0)
             for a in (1e-3, 0.8, 0.5 * math.pi, 2.2, math.pi - 1e-3)]
    left = [-1.5, -2.0, -7.99, -8.01, -50.0]
    xs = np.array(below + left, dtype=complex)
    with mp.workdps(40):
        for x, f_l, f_t in zip(xs, lindhard_f_l(xs), lindhard_f_t(xs)):
            X = mp.mpc(complex(x))
            dlog = mp.log(X + 1) - mp.log(X - 1)
            ref_l = complex(1 - X / 2 * dlog)
            ref_t = complex(mp.mpf(3) / 2 * X**2 - mp.mpf(3) / 4 * X * (X**2 - 1) * dlog)
            assert abs(f_l - ref_l) <= 1e-12 * abs(ref_l), x
            assert abs(f_t - ref_t) <= 1e-12 * abs(ref_t), x


def test_lindhard_bits_do_not_depend_on_the_batch(copper, omega0):
    # a node's f_l, f_t are the same in a block of 20,000 (where numpy
    # may reuse temporaries) as in a row of 15 or alone
    k = np.geomspace(1e5, 1e12, 20_010).reshape(-1, 15)
    x = (omega0 + 1j * copper.collision_rate) / (k * copper.fermi_velocity)
    for fn in (lindhard_f_l, lindhard_f_t):
        block = fn(x)
        for r in range(0, x.shape[0], 97):
            assert np.array_equal(fn(x[r]), block[r])
            assert fn(complex(x[r, 7])) == block[r, 7]


def test_lindhard_far_asymptote():
    x = 1e6 * (1.0 + 1.0j)
    assert rel(lindhard_f_l(x), -1.0 / (3.0 * x**2)) < 1e-6


def test_lindhard_transverse_limit():
    assert abs(lindhard_f_t(1e4) - 1.0) < 1e-6
    assert abs(lindhard_f_t(1e6j) - 1.0) < 1e-10


def test_lindhard_branch_cut_rejected():
    # the real segment |x| <= 1 sits on the logarithm's branch cut
    for bad in (0.5, -1.0, 1.0, 0.0):
        with pytest.raises(DomainError):
            lindhard_f_l(bad)
        with pytest.raises(DomainError):
            lindhard_f_t(bad)
    assert np.isfinite(lindhard_f_l(2.0).real)


def test_lindhard_vectorized_matches_scalar():
    # spans both the direct and the series branch in one array
    xs = np.array([2.0 + 0.0j, 1e3 + 0.0j, 1e6 * (0.6 + 0.8j)])
    for fn in (lindhard_f_l, lindhard_f_t):
        batch = fn(xs)
        for got, x in zip(batch, xs):
            assert got == fn(complex(x))


# ------------------------------------------------------------------ epsilon

def test_epsilon_reference_values_at_kF(copper, omega0):
    k_f = copper.fermi_wavevector
    # independent evaluation
    assert rel(epsilon_l(copper, k_f, omega0),
               2.6976051471927067 + 2.3651297434862826e-07j) < 1e-12
    assert rel(epsilon_t(copper, k_f, omega0),
               -0.6952433080001168 + 15027880.49025245j) < 1e-12


def test_epsilon_imaginary_parts_match_mpmath(copper):
    # 40-digit oracle of the defining formulas on the float inputs the
    # kernel sees: Im eps_l and Im eps_t, each to a bound relative to
    # itself, from k = 1e5 (series branch) to 1e12 1/m (|x| ~ 1e-5)
    mp = pytest.importorskip("mpmath")
    ks = np.geomspace(1e5, 1e12, 60)
    with mp.workdps(40):
        wp, nu, vf = (mp.mpf(v) for v in (copper.plasma_frequency, copper.collision_rate,
                                           copper.fermi_velocity))
        for omega in (1e7, 1.9e9, 1e11, 1e13, 1e14):
            w = mp.mpf(omega)
            wn = mp.mpc(w, nu)
            got_l, got_t = epsilon_l(copper, ks, omega), epsilon_t(copper, ks, omega)
            for k, e_l, e_t in zip(ks.tolist(), got_l, got_t):
                K = mp.mpf(k)
                X = wn / (K * vf)
                dlog = mp.log(X + 1) - mp.log(X - 1)
                f_l = 1 - X / 2 * dlog
                f_t = mp.mpf(3) / 2 * X**2 - mp.mpf(3) / 4 * X * (X**2 - 1) * dlog
                ref_l = float(mp.im(1 + 3 * wp**2 / (K * vf) ** 2 * wn * f_l
                                    / (w + 1j * nu * f_l)))
                ref_t = float(mp.im(1 - wp**2 * f_t / (w * wn)))
                assert abs(e_l.imag - ref_l) <= 3e-11 * abs(ref_l), (omega, k)
                assert abs(e_t.imag - ref_t) <= 1e-13 * abs(ref_t), (omega, k)


def test_epsilon_drude_collapse_small_k(copper):
    # The wavevector correction to epsilon_l carries a nu/omega
    # prefactor, so at GHz frequencies (nu/omega ~ 1e4) even
    # k = 1e-6 k_F leaves a ~4e-3 residue. The 1e-6 collapse happens
    # once omega is comparable to nu; checked at 1e14 rad/s.
    omega = 1e14
    k = 1e-6 * copper.fermi_wavevector
    ref = drude_epsilon(copper, omega)
    assert abs(epsilon_l(copper, k, omega) - ref) / abs(ref) < 1e-6
    assert abs(epsilon_t(copper, k, omega) - ref) / abs(ref) < 1e-6


@settings(max_examples=60, deadline=None)
@given(wexp=st.floats(11.3, 15.0), sexp=st.floats(-6.0, -3.0))
def test_epsilon_drude_collapse_property(wexp, sexp):
    # k v_F small against |omega + i nu| forces both responses onto the
    # local Drude curve. Domain kept at nu <= 100 omega and well below
    # the plasma edge, where |eps| itself passes near zero and a
    # relative comparison stops meaning anything.
    omega = 10.0**wexp
    wn = complex(omega, COPPER.collision_rate)
    k = 10.0**sexp * abs(wn) / COPPER.fermi_velocity
    ref = drude_epsilon(COPPER, omega)
    assert abs(epsilon_l(COPPER, k, omega) - ref) / abs(ref) < 1e-4
    assert abs(epsilon_t(COPPER, k, omega) - ref) / abs(ref) < 1e-4


def test_epsilon_vacuum_limit(vacuumish, omega0):
    k = 1e9
    assert epsilon_l(vacuumish, k, omega0) == 1.0 + 0.0j
    assert epsilon_t(vacuumish, k, omega0) == 1.0 + 0.0j


def test_epsilon_passive_on_grid(copper):
    # dissipation never changes sign anywhere we integrate
    ks = np.geomspace(1e-4, 1e2, 13) * copper.fermi_wavevector
    for omega in np.geomspace(1e6, 1e12, 13):
        assert np.all(np.imag(epsilon_l(copper, ks, omega)) > 0)
        assert np.all(np.imag(epsilon_t(copper, ks, omega)) > 0)
        assert drude_epsilon(copper, omega).imag > 0


def test_epsilon_vectorized_over_k(copper, omega0):
    ks = np.array([1e-6, 1.0, 1e2]) * copper.fermi_wavevector
    batch_l = epsilon_l(copper, ks, omega0)
    batch_t = epsilon_t(copper, ks, omega0)
    for i, k in enumerate(ks):
        assert batch_l[i] == pytest.approx(epsilon_l(copper, float(k), omega0), rel=1e-14)
        assert batch_t[i] == pytest.approx(epsilon_t(copper, float(k), omega0), rel=1e-14)


def test_epsilon_domain(copper, omega0):
    with pytest.raises(DomainError):
        epsilon_l(copper, 0.0, omega0)
    with pytest.raises(DomainError):
        epsilon_l(copper, 1e9, 0.0)
    with pytest.raises(DomainError):
        epsilon_t(copper, -1e9, omega0)


# --------------------------------------------------------------- skin depth

def test_skin_depth_copper(copper, omega0):
    d = skin_depth(copper, omega0)
    # independent evaluation
    assert rel(d, 2.6496835259495198e-06) < 1e-9
    assert abs(d / 3e-6 - 1.0) < 0.15


def test_skin_depth_collisionless_plasma():
    m = Material("cold-plasma", plasma_frequency=1.6e16, collision_rate=1.0,
                 fermi_energy=COPPER.fermi_energy)
    omega = 1e15
    expected = C_LIGHT / math.sqrt(1.6e16**2 - omega**2)
    assert rel(skin_depth(m, omega), expected) < 1e-6


def test_skin_depth_transparent(vacuumish, omega0):
    assert skin_depth(vacuumish, omega0) == math.inf


# ------------------------------------------------------------------ loading

def test_parse_material_config():
    text = """
    # metal preset
    name = "mylal"
    omega_p_rad_s = 1.6e16
    nu_rad_s = 1.885e13   # trailing comment
    fermi_energy_ev = 7.0
    """
    m = parse_material_config(text)
    assert m.name == "mylal"
    assert m.plasma_frequency == 1.6e16
    assert m.collision_rate == 1.885e13
    assert m.fermi_energy == 7.0 * E_CHARGE


def test_parse_material_config_errors():
    with pytest.raises(ValueError, match="fermi_energy_ev"):
        parse_material_config("name=x\nomega_p_rad_s=1e16\nnu_rad_s=1e13\n")
    with pytest.raises(ValueError):
        parse_material_config("name=x\nthis line has no equals sign either way")


def test_load_material(tmp_path):
    assert load_material("copper") is COPPER
    path = tmp_path / "metal.cfg"
    path.write_text(
        "name = slab\nomega_p_rad_s = 1e16\nnu_rad_s = 1e13\nfermi_energy_ev = 5\n")
    m = load_material(str(path))
    assert m.name == "slab"
    assert m.fermi_energy == 5.0 * E_CHARGE
    with pytest.raises(ValueError):
        load_material("unobtainium")
