"""Field spectral densities above the half-space.

Golden numbers were frozen from independent evaluations: closed forms
in 40-digit arithmetic, the nonlocal integrals on fixed trapezoid grids
plus one adaptive cross-check with a different integrator. Comments on
individual tolerances say which reference is in play. The nonlocal
model runs on a log lattice in k per omega; the adaptive kappa path it
replaced is its oracle here (kappa_chi, kappa_r_p in conftest).
"""

import cmath
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ewjn import (
    COPPER,
    DomainError,
    Material,
    Model,
    QuadratureConfig,
    QuadratureError,
    evaluate,
    evaluate_batch,
    regime_select,
)
from ewjn.materials import C_LIGHT, E_CHARGE, EPS0, HBAR, drude_epsilon, skin_depth
from ewjn.spectral import _local_quasistatic, evaluate_columns
from adaptive import integrate_lockstep

from conftest import inner, integrate_power_tails, kappa_chi, kappa_r_p, t_grid


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.fixture(scope="module")
def e_nl_10(copper, omega0, lam_f):
    return evaluate(copper, "E", 10.0 * lam_f, omega0, "nonlocal-quasistatic")


@pytest.fixture(scope="module")
def b_nl_10(copper, omega0, lam_f):
    return evaluate(copper, "B", 10.0 * lam_f, omega0, "nonlocal-quasistatic")


# ----------------------------------------------------------- regime choice

def test_regime_select_windows(copper, omega0, lam_f, delta):
    assert regime_select(copper, 10.0 * lam_f, omega0) is Model.NONLOCAL_QUASISTATIC
    assert regime_select(copper, 30.0 * lam_f, omega0) is Model.NONLOCAL_QUASISTATIC
    assert regime_select(copper, delta, omega0) is Model.LOCAL_RETARDED

    with pytest.raises(DomainError):
        regime_select(copper, 0.0, omega0)


def test_model_enum_round_trip():
    assert str(Model.LOCAL_QUASISTATIC) == "local-quasistatic"
    assert Model("nonlocal-quasistatic") is Model.NONLOCAL_QUASISTATIC
    assert len(list(Model)) == 4


# ------------------------------------------------------------ local closed

def test_chi_E_local_reference(copper, omega0, lam_f):
    t = evaluate(copper, "E", 10.0 * lam_f, omega0, "local-quasistatic")
    # 40-digit evaluation of the closed form
    assert rel(t.chi_xx, 4.149089189120954e-09) < 1e-6
    assert rel(t.chi_zz, 8.298178378241907e-09) < 1e-6
    assert t.chi_zz == 2.0 * t.chi_xx
    assert t.field_kind == "E"
    assert t.model is Model.LOCAL_QUASISTATIC
    assert t.error_estimate == 0.0
    # the dissipative image factor for copper at this frequency
    eps = drude_epsilon(copper, omega0)
    assert ((eps - 1.0) / (eps + 1.0)).imag == pytest.approx(2.78e-10, rel=0.01)


def test_chi_E_local_scaling(copper, omega0, lam_f):
    a = evaluate(copper, "E", 10.0 * lam_f, omega0, "local-quasistatic")
    b = evaluate(copper, "E", 20.0 * lam_f, omega0, "local-quasistatic")
    assert rel(a.chi_xx / b.chi_xx, 8.0) < 1e-12


def test_chi_E_local_lossless_metal(omega0, lam_f):
    # dissipation switched off: no noise (up to denormal dust)
    quiet = Material("quiet", plasma_frequency=COPPER.plasma_frequency,
                     collision_rate=1e-300, fermi_energy=COPPER.fermi_energy)
    t = evaluate(quiet, "E", 10.0 * lam_f, omega0, "local-quasistatic")
    assert 0.0 <= t.chi_xx < 1e-300


def test_chi_B_local_reference(copper, omega0, lam_f):
    t = evaluate(copper, "B", 10.0 * lam_f, omega0, "local-quasistatic")
    # 40-digit evaluation of the closed form
    assert rel(t.chi_zz, 1.0178933487271821e-21) < 1e-9
    assert t.chi_xx == 0.5 * t.chi_zz
    assert t.field_kind == "B"

    half = evaluate(copper, "B", 5.0 * lam_f, omega0, "local-quasistatic")
    assert rel(half.chi_zz / t.chi_zz, 2.0) < 1e-12

    # omega^2 prefactor times Im eps ~ 1/omega: linear growth while
    # omega stays far below the collision rate
    t2 = evaluate(copper, "B", 10.0 * lam_f, 2.0 * omega0, "local-quasistatic")
    assert rel(t2.chi_zz / t.chi_zz, 2.0) < 1e-6


# -------------------------------------------------------- nonlocal integral

def test_chi_E_nonlocal_reference(e_nl_10):
    # trapezoid-grid reference, itself good to ~2e-7 here
    assert rel(e_nl_10.chi_zz, 2.911823834379639e-07) < 1e-5
    assert e_nl_10.chi_xx == 0.5 * e_nl_10.chi_zz
    assert e_nl_10.model is Model.NONLOCAL_QUASISTATIC
    assert 0.0 < e_nl_10.error_estimate < 1e-5 * e_nl_10.chi_zz
    assert not e_nl_10.decomposition


def test_chi_B_nonlocal_reference(b_nl_10):
    # adaptive cross-check with an independent integrator; the
    # trapezoid grid is only good to ~3e-4 for the r_s channel
    assert rel(b_nl_10.chi_zz, 3.669115248982545e-22) < 1e-6
    assert b_nl_10.field_kind == "B"
    parts = b_nl_10.decomposition
    assert set(parts) == {"rs_part", "rp_part"}
    assert parts["rs_part"] == 0.5 * b_nl_10.chi_zz
    assert b_nl_10.chi_xx == parts["rs_part"] + parts["rp_part"]
    assert parts["rp_part"] > 0.0
    # trapezoid reference for the tiny r_p channel
    assert rel(parts["rp_part"], 1.160240532637131e-39) < 1e-4


def _one_pass_lattices(monkeypatch):
    """Let every lattice of the nonlocal model be computed in one pass over
    all its nodes, not from the nodes at 2h plus a second pass over the
    odd ones; returns the list of the calls that did, so a test can check
    that the patch took effect."""
    import ewjn.nonlocal_model as nonlocal_model

    refine, calls = nonlocal_model._refine, []

    def one_pass(old, old_lo, at, lo, hi, h, kernel):
        calls.append(h)
        return refine(None, None, at, lo, hi, h, kernel)

    monkeypatch.setattr(nonlocal_model, "_refine", one_pass)
    return calls


@pytest.mark.parametrize("z_over_lam_f", [1.0, 30.0, 3000.0])
def test_chi_B_nonlocal_one_pass_equals_two(copper, omega0, lam_f, z_over_lam_f, monkeypatch):
    # k_n = e^{nh} at n = 2m on the lattice at h/2 is e^{mh} bit for bit,
    # so a lattice built from the one at 2h gives both channels' bits; at
    # rel_tol 1e-11 every point reaches h = 1/16, refined from the first
    # pass's lattice at 1/8
    cfg = QuadratureConfig(rel_tol=1e-11)
    z = z_over_lam_f * lam_f
    two = evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
    calls = _one_pass_lattices(monkeypatch)
    one = evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
    assert len(calls) > 0
    assert (one.chi_xx, one.chi_zz, one.error_estimate, one.decomposition) \
        == (two.chi_xx, two.chi_zz, two.error_estimate, two.decomposition)


@pytest.mark.parametrize("z_over_lam_f,rel_tol,max_subdivisions", [
    (1.0, 1e-10, 1),    # the r_p sum misses rel_tol after one halving of h
    (1.0, 1e-14, 2),    # and after two, the second refined from the first pass
], ids=["1e-10-1", "1e-14-2"])
def test_chi_B_nonlocal_failures_equal_two_passes(copper, omega0, lam_f, z_over_lam_f, rel_tol,
                                                  max_subdivisions, monkeypatch):
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    z = z_over_lam_f * lam_f
    with pytest.raises(QuadratureError) as two_passes:
        evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
    calls = _one_pass_lattices(monkeypatch)
    with pytest.raises(QuadratureError) as one_pass:
        evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
    assert len(calls) > 0
    assert str(one_pass.value) == str(two_passes.value)
    assert one_pass.value.best_estimate == two_passes.value.best_estimate
    assert one_pass.value.error_bound == two_passes.value.error_bound


def test_chi_B_nonlocal_outer_failure_equals_its_run_alone(copper, omega0, lam_f, monkeypatch):
    # after one halving of h the r_p sum, the outer integral over p, of
    # the point at lambda_F misses rel_tol while its r_s k-sum meets it
    # and its neighbours converge
    import ewjn.nonlocal_model as nonlocal_model

    sums = {}
    outcome = nonlocal_model._nonlocal_outcome

    def recorded(field_kind, omega, z, values, errs, done, halvings):
        sums[z] = (values, errs)
        return outcome(field_kind, omega, z, values, errs, done, halvings)

    monkeypatch.setattr(nonlocal_model, "_nonlocal_outcome", recorded)
    cfg = QuadratureConfig(rel_tol=1e-10, max_subdivisions=1)
    zs = [10.0 * lam_f, lam_f, 1000.0 * lam_f]
    batch = evaluate_batch(copper, "B", zs, omega0, "nonlocal-quasistatic", cfg)
    failure = batch[1]
    assert isinstance(failure, QuadratureError)
    (rp_sum, zz_sum), (rp_err, zz_err) = sums[lam_f]
    assert rp_err > cfg.rel_tol * abs(rp_sum) and zz_err <= cfg.rel_tol * abs(zz_sum)
    # its best estimate is chi_zz, the r_s channel
    assert failure.best_estimate > 0.0
    assert not any(isinstance(o, QuadratureError) for o in batch[::2])
    for z, o in zip(zs, batch):
        _assert_same_outcome(o, copper, "B", z, omega0, "nonlocal-quasistatic", cfg)


def test_nonlocal_B_point_is_one_outer_integral(copper, omega0, lam_f, monkeypatch):
    # at each step h the r_p channel, the outer integral over p, is one
    # correlation for all points of the batch, and each call of the lattice
    # rule, the first for h = 1/4 and 1/8, one _polar_g call
    import ewjn.nonlocal_model as nonlocal_model

    rows, a_sizes = [], []
    reflection, polar_g = nonlocal_model.lattice_reflection, nonlocal_model._polar_g

    def counted(phi, h, count):
        rows.append(phi.shape[0])
        return reflection(phi, h, count)

    def g_counted(a):
        a_sizes.append(a.size)
        return polar_g(a)

    monkeypatch.setattr(nonlocal_model, "lattice_reflection", counted)
    monkeypatch.setattr(nonlocal_model, "_polar_g", g_counted)
    cfg = QuadratureConfig(rel_tol=1e-6)
    zs = np.geomspace(lam_f, 3000.0 * lam_f, 7).tolist()
    first_alone = []
    for z in zs:
        a_sizes.clear()
        evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
        first_alone.append(a_sizes[0])
    rows.clear()
    a_sizes.clear()
    batch = evaluate_batch(copper, "B", zs, omega0, "nonlocal-quasistatic", cfg)
    assert not any(isinstance(o, Exception) for o in batch)
    assert len(rows) == len(a_sizes) + 1 >= 2
    assert rows == [1] * len(rows)
    # the first call holds the k-sums of all seven points at both steps
    assert a_sizes[0] == sum(first_alone)


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_batch_asks_each_kernel_once_for_h_one_quarter_and_one_eighth(
        copper, omega0, lam_f, field_kind, monkeypatch):
    # a batch that stops at h = 1/8 evaluates eps_l on its r_p lattice and,
    # for B, eps_t on its k lattice in one kernel call each: the lattice at
    # h = 1/4 is the even nodes of the one at 1/8
    import ewjn.fresnel as fresnel
    import ewjn.nonlocal_model as nonlocal_model

    calls, levels = {"epsilon_l": 0, "epsilon_t": 0}, []
    lattice_sums = nonlocal_model.lattice_sums

    def counted(name, kernel):
        def run(material, k, omega):
            calls[name] += 1
            return kernel(material, k, omega)
        return run

    def rule(count, sums, cfg):
        return lattice_sums(count, lambda asked, live: levels.append(list(asked))
                            or sums(asked, live), cfg)

    monkeypatch.setattr(fresnel, "epsilon_l", counted("epsilon_l", fresnel.epsilon_l))
    monkeypatch.setattr(nonlocal_model, "epsilon_t", counted("epsilon_t",
                                                             nonlocal_model.epsilon_t))
    monkeypatch.setattr(nonlocal_model, "lattice_sums", rule)
    zs = np.geomspace(lam_f, 3000.0 * lam_f, 7).tolist()
    batch = evaluate_batch(copper, field_kind, zs, omega0, "nonlocal-quasistatic",
                           QuadratureConfig())
    assert not any(isinstance(o, Exception) for o in batch)
    assert levels == [[0, 1]]
    assert calls == {"epsilon_l": 1, "epsilon_t": int(field_kind == "B")}

@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_first_pass_sums_at_one_eighth_are_those_of_its_own_lattice(
        copper, lam_f, field_kind, monkeypatch):
    # the first pass evaluates the kernel on one lattice at h = 1/8 that also
    # holds the lattice at 1/4; its sums at 1/8 are bit for bit those of the
    # lattice at 1/8 built alone, which ends at its own window tops
    import ewjn.nonlocal_model as nonlocal_model

    seen, lattice_sums = [], nonlocal_model.lattice_sums

    def rule(count, sums, cfg):
        seen.extend([sums(range(1, 2), np.arange(count)), sums(range(2), np.arange(count))])
        return lattice_sums(count, sums, cfg)

    monkeypatch.setattr(nonlocal_model, "lattice_sums", rule)
    zs = np.geomspace(1e-3 * lam_f, 3000.0 * lam_f, 9).tolist()
    evaluate_batch(copper, field_kind, zs, np.geomspace(1e7, 1e11, 9).tolist(),
                   "nonlocal-quasistatic", QuadratureConfig())
    (alone, alone_err), (both, both_err) = seen
    assert alone.shape == (1, len(zs), 1 + (field_kind == "B"))
    assert alone[0].tolist() == both[1].tolist() and alone_err[0].tolist() == both_err[1].tolist()

def _chi_zz_nested(material, z, omega, cfg, nested_r_s):
    """chi^B_zz in the other integration order: (hbar/(eps0 c^2)) times
    the integral of p^2 e^{-2pz} Im r_s over p = k_nu expm1(t), on the
    seeds and cut of t_grid, with r_s from the nested kappa-integrals of
    nested_r_s."""
    k_nu = material.k_nu
    end, seeds = t_grid(z, k_nu)

    def f(t, owner):
        p = k_nu * np.expm1(t)
        r = nested_r_s(material, p.ravel(), omega, inner(cfg))
        im = np.reshape([outcome.value.imag for outcome in r], p.shape)
        return p * p * np.exp(-2.0 * p * z) * im * (k_nu * np.exp(t))

    [res] = integrate_lockstep(f, [0.0], [end], cfg, [seeds])
    return HBAR / (EPS0 * C_LIGHT**2) * res.value.real


# the fifteen (z, omega) points from lambda_F to 3000 lambda_F and 1e7 to
# 1e11 rad/s, and the heights of test_nonlocal_meets_local_far_from_the_surface
_ORDER_POINTS = ([(f * COPPER.fermi_wavelength, w) for f in (1.0, 10.0, 30.0, 300.0, 3000.0)
                  for w in (1e7, 6e8 * math.pi, 1e11)]
                 + [(z, 6e8 * math.pi) for z in (1e-4, 1e-3, 1e-2)])


def test_chi_B_zz_two_integration_orders_agree(copper, nested_r_s):
    # chi^B_zz as one k-sum per point against the p-integral of the
    # nested r_s (p outer, kappa inner), both at rel_tol 1e-12; and the
    # run at the default rel_tol lies within its error_estimate of it
    tight = QuadratureConfig(rel_tol=1e-12)
    zs, omegas = (list(v) for v in zip(*_ORDER_POINTS))
    swapped, default = (evaluate_batch(copper, "B", zs, omegas, "nonlocal-quasistatic", cfg)
                        for cfg in (tight, None))
    for z, omega, a, b in zip(zs, omegas, swapped, default):
        nested = _chi_zz_nested(copper, z, omega, tight, nested_r_s)
        assert rel(a.chi_zz, nested) <= 1e-12
        assert abs(b.chi_zz - nested) <= b.error_estimate


def test_swapped_zz_of_a_constant_eps_t_is_the_local_form(copper, omega0, lam_f, cfg,
                                                        monkeypatch):
    # J_p = eps for a constant eps_t, and so the swapped k-sum gives
    # hbar omega^2 Im eps/(8 eps0 c^4 z) (the r_s half of criterion 08)
    eps = drude_epsilon(copper, omega0)
    monkeypatch.setattr("ewjn.nonlocal_model.epsilon_t", lambda material, k, w: eps)
    for z in (lam_f, 10.0 * lam_f, 1e-4):
        nonlocal_ = evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
        local = evaluate(copper, "B", z, omega0, "local-quasistatic")
        assert rel(nonlocal_.chi_zz, local.chi_zz) < 10.0 * cfg.rel_tol


def _mp_polar_g(mp, a):
    """G(a) = Integral_0^{pi/2} sin^3 u e^{-a sin u} du at the working
    precision, cut where e^{-a sin u} turns."""
    a = mp.mpf(a)
    cuts = [c / (a + 1) for c in (1, 10, 100) if c / (a + 1) < mp.pi / 2]
    return mp.quad(lambda u: mp.sin(u) ** 3 * mp.exp(-a * mp.sin(u)), [0] + cuts + [mp.pi / 2])


def test_polar_weight_matches_mpmath_across_the_switch():
    mp = pytest.importorskip("mpmath")
    from ewjn.nonlocal_model import _G_SWITCH, _polar_g

    a = np.array([0.0, 1e-3, 0.3, 1.0, 4.0, 17.0, 35.0, math.nextafter(_G_SWITCH, 0.0),
                  _G_SWITCH, 75.0, 200.0, 1e3, 1e5])
    with mp.workdps(30):
        for x, got in zip(a.tolist(), _polar_g(a).tolist()):
            assert abs(got / _mp_polar_g(mp, x) - 1) <= 1e-15
    # G(0) = Integral sin^3 = 2/3, and Integral_0^inf G da = Integral cos^2 = pi/4
    assert abs(_polar_g(np.zeros(1))[0] - 2.0 / 3.0) <= 2.0**-53
    [total] = integrate_power_tails(lambda x, owner: _polar_g(x.ravel()).reshape(x.shape),
                                    [2.0], [[0.2, 2.0, 20.0, _G_SWITCH]],
                                    QuadratureConfig(rel_tol=1e-13))
    assert rel(total.value, math.pi / 4.0) <= 1e-13


def test_nonlocal_to_local_ratios(copper, omega0, lam_f, e_nl_10, b_nl_10):
    e_loc = evaluate(copper, "E", 10.0 * lam_f, omega0, "local-quasistatic")
    b_loc = evaluate(copper, "B", 10.0 * lam_f, omega0, "local-quasistatic")
    e_ratio = e_nl_10.chi_zz / e_loc.chi_zz
    b_ratio = b_nl_10.chi_zz / b_loc.chi_zz
    assert rel(e_ratio, 35.08991614369891) < 1e-5
    # reference ratio carries the trapezoid bias of its numerator
    assert rel(b_ratio, 0.36036223801362355) < 2e-3
    assert e_ratio > 1.0
    assert b_ratio < 1.0


def test_magnetic_nonlocal_never_exceeds_local(copper, omega0, lam_f, cfg_fast):
    for zf in (1.0, 1000.0):
        z = zf * lam_f
        nl = evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg_fast)
        loc = evaluate(copper, "B", z, omega0, "local-quasistatic")
        assert nl.chi_zz < loc.chi_zz
        assert nl.chi_xx < loc.chi_xx


def test_electric_nonlocal_exceeds_local_at_30lamF(copper, omega0, lam_f, cfg_fast):
    z = 30.0 * lam_f
    en = evaluate(copper, "E", z, omega0, "nonlocal-quasistatic", cfg_fast)
    el = evaluate(copper, "E", z, omega0, "local-quasistatic")
    assert en.chi_zz > el.chi_zz


@pytest.mark.xfail(strict=True, reason=(
    "the screened surface response adds a longitudinal damping channel "
    "that multiplies the electric noise ~16x at 30 Fermi wavelengths; "
    "the expected mild few-tens-of-percent enhancement window is not "
    "where this implementation puts it"))
def test_electric_nonlocal_within_50pct_at_30lamF(copper, omega0, lam_f, cfg_fast):
    z = 30.0 * lam_f
    en = evaluate(copper, "E", z, omega0, "nonlocal-quasistatic", cfg_fast)
    el = evaluate(copper, "E", z, omega0, "local-quasistatic")
    assert en.chi_zz > el.chi_zz
    assert abs(en.chi_zz / el.chi_zz - 1.0) < 0.5


def test_nonlocal_finite_at_extreme_proximity(copper, omega0, lam_f):
    # the local form blows up as z^-3; the screened one stays finite
    # and, by lambda_F/1000, already sits below it
    z = 1e-3 * lam_f
    nl = evaluate(copper, "E", z, omega0, "nonlocal-quasistatic")
    loc = evaluate(copper, "E", z, omega0, "local-quasistatic")
    assert math.isfinite(nl.chi_zz)
    assert 0.0 < nl.chi_zz < loc.chi_zz


# ---------------------------------------------------------------- retarded

def test_retarded_reference_10lamF(copper, omega0, lam_f):
    e = evaluate(copper, "E", 10.0 * lam_f, omega0, "local-retarded")
    b = evaluate(copper, "B", 10.0 * lam_f, omega0, "local-retarded")
    # adaptive reference run of the same split integrals
    assert rel(e.chi_xx, 4.149089305593538e-09) < 1e-6
    assert rel(e.chi_zz, 8.298178494656287e-09) < 1e-6
    assert rel(b.chi_xx, 5.070519151169103e-22) < 1e-6
    assert rel(b.chi_zz, 1.0141038302351175e-21) < 1e-6
    assert e.model is Model.LOCAL_RETARDED
    assert b.field_kind == "B"


def test_retarded_reference_inside_skin_depth(copper, omega0, delta):
    z = delta / 20.0
    e = evaluate(copper, "E", z, omega0, "local-retarded")
    b = evaluate(copper, "B", z, omega0, "local-retarded")
    assert rel(e.chi_xx, 1.7781348867372387e-13) < 1e-6
    assert rel(e.chi_zz, 3.5553405983302195e-13) < 1e-6
    assert rel(b.chi_xx, 1.603811570019369e-23) < 1e-6
    assert rel(b.chi_zz, 3.207623140142123e-23) < 1e-6


def test_retarded_vacuum_is_silent(vacuumish, omega0):
    e = evaluate(vacuumish, "E", 1e-6, omega0, "local-retarded")
    b = evaluate(vacuumish, "B", 1e-6, omega0, "local-retarded")
    assert e.chi_xx == 0.0 and e.chi_zz == 0.0
    assert b.chi_xx == 0.0 and b.chi_zz == 0.0


def test_retarded_anisotropy_deep_in_near_field(copper, omega0, lam_f):
    # at 10 lambda_F the evanescent sector dominates and the closed-form
    # anisotropies reappear: zz = 2 xx for E, and for B as well since
    # the r_p channel is negligible at this frequency
    e = evaluate(copper, "E", 10.0 * lam_f, omega0, "local-retarded")
    b = evaluate(copper, "B", 10.0 * lam_f, omega0, "local-retarded")
    assert abs(e.chi_zz / (2.0 * e.chi_xx) - 1.0) < 1e-4
    assert abs(b.chi_zz / (2.0 * b.chi_xx) - 1.0) < 1e-2


def test_retarded_electric_agrees_with_quasistatic_inside_skin_depth(
        copper, omega0, delta):
    devs = []
    for z in (delta / 20.0, delta / 2.0, 2.0 * delta):
        ret = evaluate(copper, "E", z, omega0, "local-retarded")
        qs = evaluate(copper, "E", z, omega0, "local-quasistatic")
        devs.append(abs(ret.chi_xx / qs.chi_xx - 1.0))
    assert devs[0] < 0.01
    # retardation grows with z once the skin depth is approached
    assert devs[0] < devs[1] < devs[2]


def test_retarded_magnetic_deviation_grows_with_z(copper, omega0, delta):
    devs = []
    for z in (delta / 20.0, delta / 2.0, 2.0 * delta):
        ret = evaluate(copper, "B", z, omega0, "local-retarded")
        qs = evaluate(copper, "B", z, omega0, "local-quasistatic")
        devs.append(abs(ret.chi_xx / qs.chi_xx - 1.0))
    assert devs[0] < devs[1] < devs[2]


@pytest.mark.xfail(strict=True, reason=(
    "the magnetic quasistatic closed form keeps only the leading "
    "evanescent term, whose first correction is linear in z/delta; at "
    "z = delta/20 the retarded result still differs by ~10% where the "
    "electric pair already agrees to 0.05%"))
def test_retarded_magnetic_agrees_with_quasistatic_inside_skin_depth(
        copper, omega0, delta):
    z = delta / 20.0
    ret = evaluate(copper, "B", z, omega0, "local-retarded")
    qs = evaluate(copper, "B", z, omega0, "local-quasistatic")
    assert abs(ret.chi_xx / qs.chi_xx - 1.0) < 0.01
    assert abs(ret.chi_zz / qs.chi_zz - 1.0) < 0.01


# one metal of each end of the far-field benchmark's Latin hypercube
# (omega_p 1e15-2e16 rad/s, nu 3e12-1e14 rad/s, omega 1e8-1e10 rad/s)
_FARFIELD = [
    (COPPER, 6e8 * math.pi),
    (Material(name="dilute", plasma_frequency=3e15, collision_rate=1e13,
              fermi_energy=5.0 * 1.602176634e-19), 3e8),
    (Material(name="dense", plasma_frequency=1.5e16, collision_rate=8e13,
              fermi_energy=10.0 * 1.602176634e-19), 5e9),
]


def _farfield_grid(material, omega):
    delta = skin_depth(material, omega)
    return [float(z) for z in np.geomspace(delta / 10.0, 30.0 * delta, 20)]


@pytest.mark.parametrize("material,omega", _FARFIELD, ids=lambda v: getattr(v, "name", ""))
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_batch_matches_scalar_bitwise(material, omega, field_kind):
    zs = _farfield_grid(material, omega)
    batch = evaluate_batch(material, field_kind, zs, omega, "local-retarded")
    for z, tensor in zip(zs, batch):
        single = evaluate(material, field_kind, z, omega, "local-retarded")
        assert tensor.chi_xx == single.chi_xx
        assert tensor.chi_zz == single.chi_zz
        assert tensor.error_estimate == single.error_estimate
        assert (tensor.z, tensor.model) == (z, Model.LOCAL_RETARDED)


def _assert_same_outcome(outcome, material, field_kind, z, omega, model, cfg):
    """outcome is, bit for bit, what evaluate gives or raises at z alone."""
    try:
        single = evaluate(material, field_kind, z, omega, model, cfg)
    except QuadratureError as exc:
        assert isinstance(outcome, QuadratureError)
        assert str(outcome) == str(exc)
        assert outcome.best_estimate == exc.best_estimate
        assert outcome.error_bound == exc.error_bound
        return
    assert (outcome.chi_xx, outcome.chi_zz, outcome.error_estimate, outcome.decomposition) \
        == (single.chi_xx, single.chi_zz, single.error_estimate, single.decomposition)
    assert (outcome.z, outcome.omega, outcome.model) == (z, omega, single.model)


# max_subdivisions caps the halvings of h at min(4, max_subdivisions); near
# 2e-13 the rounding bounds of the middle points' sums at h = 1/64, most of
# them on the moments of their evanescent prefix, keep those points from
# rel_tol (each point's error stays 9% or more off its tolerance at every
# halving, so the patterns are not decided by the last bits)
@pytest.mark.parametrize("max_subdivisions,rel_tol,pattern", [
    (12, 1.95e-13, ".......xxxxxxx......"),
    (16, 2e-13, ".......xxxxxxx......"),
], ids=["12", "16"])
def test_retarded_batch_failures_match_scalar(copper, omega0, max_subdivisions, rel_tol,
                                              pattern, monkeypatch):
    import ewjn.spectral as spectral

    calls = []
    reflection = spectral.local_reflection_q
    monkeypatch.setattr(spectral, "local_reflection_q",
                        lambda q, *args: calls.append(np.size(q)) or reflection(q, *args))
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    zs = _farfield_grid(copper, omega0)
    batch = evaluate_batch(copper, "E", zs, omega0, "local-retarded", cfg)
    # the grid is one lattice: h = 1/8, whose even nodes are the lattice at
    # 1/4, and each further halving ask the Fresnel kernel once for the
    # evanescent and once for the propagating nodes of all points
    assert len(calls) == 2 * min(4, max_subdivisions)
    assert "".join("x" if isinstance(o, QuadratureError) else "." for o in batch) == pattern
    for z, outcome in zip(zs, batch):
        _assert_same_outcome(outcome, copper, "E", z, omega0, "local-retarded", cfg)


def _record_evanescent_sums(monkeypatch):
    """Record, per evanescent row of _local_retarded, the moment sums of its
    points' prefixes with their bounds and the direct sums beyond them:
    (x, block, two_z, hi, head, bound, count, reach, sums, moduli, lo)."""
    import ewjn.spectral as spectral

    rows, moment_sum, decayed = [], spectral._moment_sum, spectral._decayed

    def moments_seen(moments, moduli, count, c, reach):
        head, bound = moment_sum(moments, moduli, count, c, reach)
        if not np.iscomplexobj(c):  # the propagating sector's c is i a
            rows.append([head, bound, np.asarray(count), np.asarray(reach)])
        return head, bound

    def decayed_seen(x, block, two_z, lo, hi):
        sums, moduli = decayed(x, block, two_z, lo, hi)
        if rows and len(rows[-1]) == 4:
            rows[-1] = (x, block, two_z, hi, *rows[-1], sums, moduli, lo)
        return sums, moduli

    monkeypatch.setattr(spectral, "_moment_sum", moments_seen)
    monkeypatch.setattr(spectral, "_decayed", decayed_seen)
    return rows


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z,omega,capped", [
    (0.1 * skin_depth(COPPER, 6e8 * math.pi), 6e8 * math.pi, False),
    (1e-6, 6e8 * math.pi, False), (1e-5, 6e8 * math.pi, False),
    (1e-15, 1e7, True), (1e-9, 1e3, False), (1e-13, 1e5, True),
], ids=["copper-near", "copper-1um", "copper-10um", "1e-15m-1e7", "1e-9m-1e3", "1e-13m-1e5"])
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_evanescent_moment_sums_match_an_fsum_oracle(z, omega, capped, field_kind, monkeypatch):
    # each evanescent sum, its prefix from the moments and the rest term by
    # term, within its rounding floor of the exact sum of its terms e^{-2zx}F;
    # at a capped point the prefix stops where its moments stop being finite,
    # short of the last node with 2zx <= 1, and runs with no warning
    rows = _record_evanescent_sums(monkeypatch)
    evaluate(COPPER, field_kind, z, omega, "local-retarded")
    assert len(rows) == 2  # h = 1/4 and 1/8
    for h, (x, block, two_z, hi, head, bound, count, reach, sums, moduli, lo) in zip(
            (0.25, 0.125), rows):
        terms = np.exp(-two_z[0] * x[:hi[0] + 1])[:, None] * block[:hi[0] + 1]
        oracle = [math.fsum(column) for column in terms.T]
        floor = bound[0] + moduli[0] * (hi[0] - lo[0] + 1) * sys.float_info.epsilon
        assert count[0] == lo[0] and (np.abs(head[0] + sums[0] - oracle) <= floor).all()
        # the switch node is the last with 2 z x <= 1 unless the cap holds it lower
        assert (reach[0] < math.exp(-h)) == capped


def test_retarded_batch_matches_scalar_bitwise_across_the_moment_cap(copper, monkeypatch):
    # at 1e7 rad/s the moments of the heights below about 3e-13 m stop being
    # finite before their switch nodes; a batch on both sides of that gives
    # every point the bits it gets alone
    zs, omega = np.geomspace(1e-16, 1e-12, 12).tolist(), 1e7
    with monkeypatch.context() as patch:
        rows = _record_evanescent_sums(patch)
        batch = evaluate_batch(copper, "E", zs, omega, "local-retarded")
    reach, h = rows[0][7], 0.25  # every height at h = 1/4
    assert (reach < math.exp(-h)).any() and (reach >= math.exp(-h)).any()
    for z, tensor in zip(zs, batch):
        single = evaluate(copper, "E", z, omega, "local-retarded")
        assert (tensor.chi_xx, tensor.chi_zz, tensor.error_estimate) \
            == (single.chi_xx, single.chi_zz, single.error_estimate)


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_converges_at_tight_tolerance(copper, omega0, lam_f, delta, field_kind):
    zs = [float(z) for z in np.geomspace(1e-3 * lam_f, 3.0 * delta, 12)]
    cfg = QuadratureConfig(rel_tol=1e-11)
    for outcome in evaluate_batch(copper, field_kind, zs, omega0, "local-retarded", cfg):
        assert not isinstance(outcome, QuadratureError), outcome
        # every sum met rel_tol with its error, the bounds on its cut tails included
        assert outcome.error_estimate <= cfg.rel_tol * math.hypot(outcome.chi_xx,
                                                                  outcome.chi_zz)


@pytest.mark.parametrize("rel_tol,low_span", [
    (1e-8, None),
    # every sum starts e^13 closer to its scale: the shift from what it drops
    # below its first node, up to 1e-5 of (omega/c)^3 on the evanescent sector,
    # is one of the tails its error bounds
    (1e-10, {"prop": 31, "ev": 17, "line": 31}),
], ids=["rel_tol", "tail_cut"])
@pytest.mark.parametrize("material,omega", _FARFIELD, ids=lambda v: getattr(v, "name", ""))
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_error_estimate_covers_the_shift_to_a_tight_run(material, omega, field_kind,
                                                                 rel_tol, low_span,
                                                                 monkeypatch):
    import ewjn.spectral as spectral

    zs = _farfield_grid(material, omega)
    with monkeypatch.context() as patch:
        if low_span:
            patch.setattr(spectral, "_LOW_SPAN", low_span)
        loose = evaluate_batch(material, field_kind, zs, omega, "local-retarded",
                               QuadratureConfig(rel_tol=rel_tol))
    tight = evaluate_batch(material, field_kind, zs, omega, "local-retarded",
                           QuadratureConfig(rel_tol=1e-10))
    for a, b in zip(loose, tight):
        assert abs(a.chi_xx - b.chi_xx) <= a.error_estimate
        assert abs(a.chi_zz - b.chi_zz) <= a.error_estimate


def _retarded_p_space_oracle(material, field_kind, z, omega):
    """chi from the p-space integrals at 30 digits, with q exact on each
    side of the light line and mpmath's tanh-sinh rule."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        eps, k, z = mp.mpc(drude_epsilon(material, omega)), mp.mpf(omega) / C_LIGHT, mp.mpf(z)

        def f(p, q):
            if q == 0:  # a node rounded onto the light line
                return mp.mpc(0)
            qm = mp.sqrt(eps * k**2 - p**2)
            qm = -qm if mp.im(qm) < 0 else qm
            r_s, r_p = (q - qm) / (q + qm), (eps * q - qm) / (eps * q + qm)
            r_a, r_b = (r_p, r_s) if field_kind == "B" else (r_s, r_p)
            w = p / q * mp.exp(2j * q * z)
            return mp.re(w * (k**2 * r_a - q**2 * r_b) / 2) + 1j * mp.re(w * p**2 * r_b)

        # cut at every decade of |q| from a tenth of the grazing turn on
        g = k / mp.sqrt(abs(eps))
        qs = [g * mp.mpf(10) ** j for j in range(-1, 40) if g * mp.mpf(10) ** j < 40 / z]
        prop = mp.quad(lambda p: f(p, mp.sqrt((k - p) * (k + p))),
                       [0] + sorted(mp.sqrt(k**2 - q**2) for q in qs if q < k) + [k])
        evan = mp.quad(lambda p: f(p, 1j * mp.sqrt((p - k) * (p + k))),
                       [k] + [mp.sqrt(k**2 + q**2) for q in qs + [40 / z]] + [mp.inf])
        total = prop + evan
    scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
    return scale * float(mp.re(total)), scale * float(mp.im(total))


@pytest.mark.parametrize("material,omega,field_kind,z_over_delta", [
    (COPPER, 6e8 * math.pi, "E", 1.0),
    (COPPER, 6e8 * math.pi, "B", 10.0),
    (_FARFIELD[2][0], _FARFIELD[2][1], "E", 10.0),
    (_FARFIELD[2][0], _FARFIELD[2][1], "B", 1.0),
], ids=["copper-E-delta", "copper-B-10delta", "dense-E-10delta", "dense-B-delta"])
def test_retarded_matches_p_space_oracle(material, omega, field_kind, z_over_delta):
    z = z_over_delta * skin_depth(material, omega)
    chi_xx, chi_zz = _retarded_p_space_oracle(material, field_kind, z, omega)
    t = evaluate(material, field_kind, z, omega, "local-retarded",
                 QuadratureConfig(rel_tol=1e-10))
    assert rel(t.chi_xx, chi_xx) < 1e-8
    assert rel(t.chi_zz, chi_zz) < 1e-8


def _quad_vec(f, cuts):
    """scipy's adaptive GK21 of the real vector f over [cuts[0],
    cuts[-1]], cut at the rest: (value, bound on each component)."""
    integrate = pytest.importorskip("scipy.integrate")
    return integrate.quad_vec(f, cuts[0], cuts[-1], epsabs=0.0, epsrel=1e-11, norm="max",
                              points=cuts[1:-1], limit=2000)


def _retarded_quad_vec_oracle(material, field_kind, z, omega):
    """(chi_xx, chi_zz, bound) of the local-retarded model from scipy's
    quad_vec in q on the propagating part ((p/q) dp = -dq, q from k to 0)
    and in u = |q| on the evanescent one ((p/q) dp = -i du), cut at
    u = 40/z, with Fresnel coefficients written out here."""
    eps, k = drude_epsilon(material, omega), omega / C_LIGHT

    def quotient(a, b):
        # (a - b)/(a + b) with Im 2 Im(a conj b)/|a + b|^2: the plain quotient
        # leaves the evanescent Im r_p of a good conductor, 1e-8 of |r_p|,
        # only the rounding of its real part (1e-10 of itself, against mpmath)
        return complex(((a - b) / (a + b)).real, 2.0 * (a * b.conjugate()).imag / abs(a + b)**2)

    def channels(q, p2, weight):
        qm = cmath.sqrt((eps - 1.0) * k * k + q * q)
        qm = -qm if qm.imag < 0 else qm
        r_s, r_p = quotient(q, qm), quotient(eps * q, qm)
        r_a, r_b = (r_p, r_s) if field_kind == "B" else (r_s, r_p)
        w = weight * cmath.exp(2j * q * z)
        return np.array([(0.5 * w * (k * k * r_a - q * q * r_b)).real, (w * p2 * r_b).real])

    top = 40.0 / z
    g = k / math.sqrt(abs(eps))
    decades = [g * 10.0**j for j in range(-1, 40) if g * 10.0**j < top]
    prop = _quad_vec(lambda q: channels(q, (k - q) * (k + q), 1.0),
                     [0.0] + [q for q in decades if q < k] + [k])
    evan = _quad_vec(lambda u: channels(1j * u, k * k + u * u, -1j), [0.0] + decades + [top])
    scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
    (xx, zz), bound = prop[0] + evan[0], prop[1] + evan[1]
    return scale * xx, scale * zz, scale * bound


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_matches_quad_vec_near_the_skin_depth(copper, omega0, delta, field_kind):
    chi_xx, chi_zz, bound = _retarded_quad_vec_oracle(copper, field_kind, delta, omega0)
    t = evaluate(copper, field_kind, delta, omega0, "local-retarded")
    assert abs(t.chi_xx - chi_xx) <= t.error_estimate + bound
    assert abs(t.chi_zz - chi_zz) <= t.error_estimate + bound


# copper far out, 2 z omega/c from 67 to 6.7e5, where the phase e^{2iqz}
# turns ten to 1e5 times across the propagating sector
_FAR_POINTS = [(1e10, 1.0), (1e10, 100.0), (1e10, 1e4), (1e8, 100.0)]


@pytest.mark.parametrize("omega,z", _FAR_POINTS, ids=["1e10-1m", "1e10-100m", "1e10-1e4m",
                                                      "1e8-100m"])
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_far_field_converges_in_milliseconds(copper, omega, z, field_kind):
    evaluate(copper, field_kind, z / 10.0, omega, "local-retarded")
    start = time.perf_counter()
    tensor = evaluate(copper, field_kind, z, omega, "local-retarded")
    assert time.perf_counter() - start < 0.05
    assert tensor.error_estimate <= 1e-8 * math.hypot(tensor.chi_xx, tensor.chi_zz)


@pytest.mark.parametrize("omega,z", [(1e10, 1.0), (1e8, 100.0)], ids=["1e10-1m", "1e8-100m"])
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_far_field_matches_p_space_oracle(copper, omega, z, field_kind):
    # 2 z omega/c = 67: ten turns of the phase on the propagating sector
    chi_xx, chi_zz = _retarded_p_space_oracle(copper, field_kind, z, omega)
    t = evaluate(copper, field_kind, z, omega, "local-retarded")
    assert abs(t.chi_xx - chi_xx) <= t.error_estimate
    assert abs(t.chi_zz - chi_zz) <= t.error_estimate


def _watson(material, field_kind, z, omega):
    """The first two terms of Watson's lemma for chi = scale Re(-i e^{2 i z
    omega/c} Integral_0^inf dt e^{-2tz} X(omega/c + i t)) per component,
    and twice the third, |X''| scale/(2z)^3, which bounds the rest at
    large z omega/c; X and its derivatives at q = omega/c from 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        eps, k, z = mp.mpc(drude_epsilon(material, omega)), mp.mpf(omega) / C_LIGHT, mp.mpf(z)

        def x_of(q, zz):
            qm = mp.sqrt((eps - 1) * k**2 + q * q)
            qm = -qm if mp.im(qm) < 0 else qm
            r_s, r_p = (q - qm) / (q + qm), (eps * q - qm) / (eps * q + qm)
            r_a, r_b = (r_p, r_s) if field_kind == "B" else (r_s, r_p)
            return (k - q) * (k + q) * r_b if zz else (k**2 * r_a - q**2 * r_b) / 2

        scale = HBAR / EPS0 if field_kind == "E" else HBAR / (EPS0 * C_LIGHT**2)
        out = []
        for zz in (False, True):
            x0, x1, x2 = (mp.diff(lambda q: x_of(q, zz), k, n) for n in (0, 1, 2))
            two = -1j * mp.expj(2 * k * z) * (x0 / (2 * z) + 1j * x1 / (2 * z)**2)
            out.append((scale * float(mp.re(two)), 2.0 * scale * float(abs(x2) / (2 * z)**3)))
    return out


@pytest.mark.parametrize("omega,z", [(1e10, 100.0), (1e10, 1e4)], ids=["6.7e3", "6.7e5"])
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_far_field_matches_watsons_lemma(copper, omega, z, field_kind):
    # at 2 z omega/c >= 1e3 the line integral is its expansion at t = 0;
    # chi_zz starts at the second term, since X_zz(omega/c) = 0
    t = evaluate(copper, field_kind, z, omega, "local-retarded")
    (xx, xx_rest), (zz, zz_rest) = _watson(copper, field_kind, z, omega)
    assert abs(t.chi_xx - xx) <= xx_rest + t.error_estimate
    assert abs(t.chi_zz - zz) <= zz_rest + t.error_estimate


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_permittivity_rounded_to_one_is_a_domain_error(field_kind):
    # at 1e34 rad/s omega_p^2/omega^2 = 2e-37 is lost against 1 in eps, and
    # the Fresnel quotients (a - b)/(a + b) keep no digit
    metal = Material("farfield", 4.628e15, 8.427e13, 3.44 * E_CHARGE)
    [outcome] = evaluate_batch(metal, field_kind, [1.985e-5], 1e34, "local-retarded")
    assert isinstance(outcome, DomainError)
    assert str(outcome) == ("omega = 1e+34 rad/s is too large for farfield: its Drude "
                            "permittivity rounds to 1 and the Fresnel coefficients keep no digit")


@pytest.mark.parametrize("omega", [1e112, 1e114])
def test_subnormal_chi_is_a_domain_error(omega):
    # the electric chi of this metal 1 m out falls to 1.5e-317 (1e112 rad/s)
    # and 1.5e-323 (1e114): a subnormal keeps a few bits, so zz = 2 xx fails
    metal = Material("m", 1e15, 1e13, 10.0 * E_CHARGE)
    [outcome] = evaluate_batch(metal, "E", [1.0], omega, "nonlocal-quasistatic")
    assert isinstance(outcome, DomainError)
    assert str(outcome) == (f"chi underflows at z = 1 m, omega = {omega:.6g} rad/s; the inputs "
                            f"leave the float range")


def test_nonlocal_matches_quad_vec_at_ten_fermi_wavelengths(copper, omega0, lam_f, e_nl_10):
    # scipy's quad_vec runs the outer p-integral on the p axis itself,
    # cut at 40/z; r_p comes from the kappa-integral oracle at rel_tol
    # 1e-12, which test_fresnel holds to QUADPACK
    z, tight = 10.0 * lam_f, QuadratureConfig(rel_tol=1e-12)

    def f(p):
        [r] = kappa_r_p(copper, [p], omega0, tight)
        return np.array([p * p * math.exp(-2.0 * p * z) * r.value.imag])

    cuts = [0.0, copper.k_nu, 0.1 / z, 0.3 / z, 1.0 / z, 3.0 / z, 10.0 / z, 40.0 / z]
    (value,), bound = _quad_vec(f, sorted(cuts))
    chi_zz, bound = HBAR / EPS0 * value, HBAR / EPS0 * bound
    assert abs(e_nl_10.chi_zz - chi_zz) <= e_nl_10.error_estimate + bound
    assert abs(e_nl_10.chi_xx - 0.5 * chi_zz) <= e_nl_10.error_estimate + 0.5 * bound


# the grid of the lattice's oracle checks: heights from the contact
# limit to 3000 lambda_F at three decades of omega, for copper and the
# two far-field metals of _FARFIELD
_ORACLE_GRID = [(material, omega) for material in (COPPER, _FARFIELD[1][0], _FARFIELD[2][0])
                for omega in (1e7, 6e8 * math.pi, 1e11)]
_ORACLE_HEIGHTS = (1e-3, 1.0, 10.0, 30.0, 3000.0)


@pytest.fixture(scope="module")
def kappa_oracle():
    """(material, field_kind, omega) -> kappa_chi at rel_tol 1e-12 at the
    _ORACLE_HEIGHTS, in Fermi wavelengths of the material."""
    tight = QuadratureConfig(rel_tol=1e-12)
    return {(m.name, fk, w): kappa_chi(m, fk, [f * m.fermi_wavelength for f in _ORACLE_HEIGHTS],
                                       w, tight)
            for m, w in _ORACLE_GRID for fk in ("E", "B")}


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.parametrize("material,omega", _ORACLE_GRID,
                         ids=[f"{m.name}-{w:.3g}" for m, w in _ORACLE_GRID])
def test_lattice_matches_the_kappa_oracle(material, omega, field_kind, kappa_oracle):
    # at rel_tol 1e-12 chi_zz, and for B rp_part, within 1e-11 of the
    # adaptive kappa path; at the default rel_tol the error_estimate
    # covers the distance to it
    zs = [f * material.fermi_wavelength for f in _ORACLE_HEIGHTS]
    oracle = kappa_oracle[material.name, field_kind, omega]
    tight, default = (evaluate_batch(material, field_kind, zs, omega, "nonlocal-quasistatic", cfg)
                      for cfg in (QuadratureConfig(rel_tol=1e-12), None))
    for a, b, (chi_zz, rp_part, _) in zip(tight, default, oracle):
        got = [(a.chi_zz, chi_zz), (b.chi_zz, chi_zz)]
        if field_kind == "B":
            assert rel(a.decomposition["rp_part"], rp_part) <= 1e-11
            got.append((b.decomposition["rp_part"], rp_part))
        assert rel(a.chi_zz, chi_zz) <= 1e-11
        for value, want in got[1:]:
            assert abs(value - want) <= b.error_estimate


@pytest.mark.parametrize("material,omega", _ORACLE_GRID,
                         ids=[f"{m.name}-{w:.3g}" for m, w in _ORACLE_GRID])
def test_phi_series_matches_mpmath_and_the_kernel_above_k_c(material, omega):
    # phi = 1/eps_l - 1 of the defining formula at 50 digits, at k_c, 10 k_c
    # and 100 k_c: the series through k^-5 meets it, part by part, within
    # its bounds on the rest and 1e-14 of its own rounding; the kernel's Im phi
    # meets the series to 1e-12 of it, its Re phi to its rounding
    import ewjn.nonlocal_model as nonlocal_model
    from ewjn.fresnel import surface_response

    mp = pytest.importorskip("mpmath")
    k_c = nonlocal_model._WINDOW_END * nonlocal_model._nonlocal_range(material, omega)[2]
    coef, rest = nonlocal_model._phi_series(material, omega, k_c)
    with mp.workdps(50):
        wp, nu, vf = (mp.mpf(v) for v in (material.plasma_frequency, material.collision_rate,
                                           material.fermi_velocity))
        w = mp.mpf(omega)
        for ratio in (1.0, 10.0, 100.0):
            K = mp.mpf(k_c * ratio)
            X = mp.mpc(w, nu) / (K * vf)
            f_l = 1 - X / 2 * (mp.log(X + 1) - mp.log(X - 1))
            ref = complex(1 / (1 + 3 * wp**2 / (K * vf) ** 2 * mp.mpc(w, nu) * f_l
                               / (w + 1j * nu * f_l)) - 1)
            series = sum(c * ratio ** -(m + 2) for m, c in enumerate(coef))
            assert abs((ref - series).real) <= rest[0] * ratio**-6 + 1e-14 * abs(series.real)
            assert abs((ref - series).imag) <= rest[1] * ratio**-6 + 1e-14 * abs(series.imag)
            kernel = complex(surface_response(material, np.array([k_c * ratio]), omega)[0])
            assert abs(kernel.imag - series.imag) <= 1e-12 * abs(series.imag)
            assert abs(kernel.real - series.real) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("h", [0.25, 0.0625])
def test_beyond_window_sums_the_trapezoid_terms_past_the_top(h):
    # B_m(e) per unit a_m k_e^-m, one m per lattice row: for e >= 0 the
    # window's terms past its top, n_c + M, summed one by one, and 0 from
    # e = 40/h, where they fall below e^-40; for e < 0, e^{meh} times the
    # Wallis integral of sin^m; b is B_6 in every row
    import ewjn.nonlocal_model as nonlocal_model
    from ewjn.nonlocal_model import M

    span = math.ceil(nonlocal_model._SPAN / h)
    e = np.tile([-7, -1, 0, 3, 17, span - 1, span, span + 9], (5, 1))
    d, b = nonlocal_model._beyond_window(np.eye(5, dtype=complex), e, h)
    for row, m in enumerate((0, 2, 3, 4, 5, 6)):
        wallis = math.pi / 2.0 if m % 2 == 0 else 1.0
        for k in range(m % 2 + 2, m + 1, 2):
            wallis *= (k - 1) / k
        for col, steps in enumerate(e[0].tolist()):
            j = np.arange(steps + M + 1, steps + M + 1 + int(80.0 / h))
            want = 2.0 / math.pi * (math.exp(m * steps * h) * wallis if steps < 0 else math.fsum(
                (np.exp(m * (steps - j) * h) * h / np.sqrt(np.expm1(2.0 * j * h))).tolist()))
            got = (d[row, col] if row < 5 else b[0, col]).real
            if steps < span:
                assert abs(got - want) <= 1e-14 * want, (m, steps)
            else:
                assert got == 0.0 and want < math.exp(-nonlocal_model._SPAN)


# one omega per z, from 1e7 to 1e11 rad/s: auto then resolves to the
# nonlocal model at the six lowest points and to the retarded one above
_OMEGA_PER_Z = np.geomspace(1e7, 1e11, 9).tolist()
# On the lattice a nonlocal point fails when its sums miss rel_tol after
# max_subdivisions halvings of h: at rel_tol 1e-10 one halving, h from
# 1/4 to 1/8, falls short at the lowest heights.
_Z_BATCH_CASES = [
    ("local-quasistatic", "E", 1e-8, 2000, ".........", None),
    ("local-quasistatic", "B", 1e-8, 2000, ".........", None),
    ("nonlocal-quasistatic", "E", 1e-8, 2000, ".........", None),
    ("nonlocal-quasistatic", "B", 1e-8, 2000, ".........", None),
    ("nonlocal-quasistatic", "E", 1e-10, 1, "ll.......", None),
    ("nonlocal-quasistatic", "B", 1e-10, 1, "l........", None),
    ("local-quasistatic", "B", 1e-8, 2000, ".........", _OMEGA_PER_Z),
    ("local-retarded", "E", 1e-8, 2000, ".........", _OMEGA_PER_Z),
    ("auto", "B", 1e-8, 2000, ".........", _OMEGA_PER_Z),
    ("nonlocal-quasistatic", "E", 1e-10, 1, "ll.......", _OMEGA_PER_Z),
    # failures at nonlocal points (0-5) and at local-retarded ones (6-8)
    ("auto", "E", 1e-13, 1, "llllllooo", _OMEGA_PER_Z),
]


@pytest.mark.parametrize("model,field_kind,rel_tol,max_subdivisions,pattern,omegas",
                         _Z_BATCH_CASES,
                         ids=["-".join(map(str, case[:5])) + ("-omega-per-z" if case[5] else "")
                              for case in _Z_BATCH_CASES])
def test_z_batch_matches_scalar_bitwise(copper, omega0, lam_f, model, field_kind, rel_tol,
                                        max_subdivisions, pattern, omegas):
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    zs = [float(z) for z in np.geomspace(lam_f, 3000.0 * lam_f, 9)]
    batch = evaluate_batch(copper, field_kind, zs, omegas or omega0, model, cfg)
    # "." a tensor, "l" a nonlocal point's error, "o" a local-retarded one's
    assert "".join("." if not isinstance(o, QuadratureError) else
                   "o" if "local-retarded" in str(o) else "l" for o in batch) == pattern
    for z, omega, outcome in zip(zs, omegas or [omega0] * len(zs), batch):
        _assert_same_outcome(outcome, copper, field_kind, z, omega, model, cfg)


def _kernel_requests(monkeypatch):
    """Each call of the nonlocal kernels epsilon_l (from fresnel) and
    epsilon_t (from nonlocal_model), as its list of (k, omega)."""
    import ewjn.fresnel as fresnel
    import ewjn.nonlocal_model as nonlocal_model

    calls = []

    def logged(kernel):
        def run(material, k, omega):
            calls.append(list(zip(np.ravel(k).tolist(),
                                  np.broadcast_to(omega, np.shape(k)).ravel().tolist(),
                                  [kernel.__name__] * np.size(k))))
            return kernel(material, k, omega)
        return run

    monkeypatch.setattr(fresnel, "epsilon_l", logged(fresnel.epsilon_l))
    monkeypatch.setattr(nonlocal_model, "epsilon_t", logged(nonlocal_model.epsilon_t))
    return calls


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_batch_asks_the_kernel_for_each_p_once(copper, omega0, lam_f, field_kind,
                                                      monkeypatch):
    # the fig1/fig3 heights at each of two frequencies, and an omega
    # sweep: every lattice node of an omega, from every halving of h,
    # asks epsilon_l (and epsilon_t) once
    calls = _kernel_requests(monkeypatch)
    heights = np.geomspace(lam_f, 3000.0 * lam_f, 15).tolist() * 2
    for zs, omegas in ((heights, [omega0] * 15 + [1e9] * 15),
                       ([10.0 * lam_f] * 9, np.geomspace(1e7, 1e11, 9))):
        for cfg in (None, QuadratureConfig(rel_tol=1e-12)):
            calls.clear()
            evaluate_batch(copper, field_kind, zs, omegas, "nonlocal-quasistatic", cfg)
            asked = [node for call in calls for node in call]
            assert len(set(asked)) == len(asked)


def test_z_batch_asks_the_kernel_for_fewer_p_than_its_points_alone(copper, omega0, lam_f,
                                                                   monkeypatch):
    calls = _kernel_requests(monkeypatch)
    zs = np.geomspace(lam_f, 3000.0 * lam_f, 5).tolist()
    evaluate_batch(copper, "E", zs, omega0, "nonlocal-quasistatic")
    batch = [node for call in calls for node in call]
    alone = []
    for z in zs:
        calls.clear()
        evaluate(copper, "E", z, omega0, "nonlocal-quasistatic")
        alone.append({node for call in calls for node in call})
    # the batch asks for exactly the nodes its points ask for alone, once each
    assert set(batch) == set().union(*alone)
    assert len(batch) < sum(map(len, alone))


def test_omega_batch_asks_epsilon_l_for_few_nodes(copper, lam_f, monkeypatch):
    # the fig2/fig4 omega sweep, 17 frequencies at 10 lambda_F: each
    # omega's lattice holds a few hundred nodes, where the kappa-integrals
    # of the adaptive path asked for 268,005
    calls = _kernel_requests(monkeypatch)
    evaluate_batch(copper, "E", [10.0 * lam_f] * 17, np.geomspace(1e7, 1e11, 17),
                   "nonlocal-quasistatic")
    assert sum(map(len, calls)) <= 26_800


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_a_point_alone_equals_it_in_a_z_batch_and_an_omega_batch(copper, omega0, lam_f,
                                                                 field_kind):
    zs = np.geomspace(1e-3 * lam_f, 3000.0 * lam_f, 11).tolist()
    omegas = np.geomspace(1e7, 1e11, 7).tolist()
    for cfg in (None, QuadratureConfig(rel_tol=1e-12)):
        in_z = evaluate_batch(copper, field_kind, zs, omega0, "nonlocal-quasistatic", cfg)
        in_omega = evaluate_batch(copper, field_kind, [zs[5]] * 7, omegas,
                                  "nonlocal-quasistatic", cfg)
        for z, outcome in zip(zs, in_z):
            _assert_same_outcome(outcome, copper, field_kind, z, omega0, "nonlocal-quasistatic",
                                 cfg)
        for omega, outcome in zip(omegas, in_omega):
            _assert_same_outcome(outcome, copper, field_kind, zs[5], omega,
                                 "nonlocal-quasistatic", cfg)


# three decades of z and of omega, from the collision-limited low
# frequencies where Im I_p is 1e-9 of |I_p| up to 1e11 rad/s, and the
# fig1/fig3 heights at omega = 6 pi 1e8 rad/s, where the inner
# integrals' error is most of the nonlocal B error
_TIGHT_POINTS = ([(z, omega) for z in (1e-9, 1e-8, 1e-7) for omega in (1e7, 1.9e9, 1e11)]
                 + [(z, 6e8 * math.pi) for z in
                    np.geomspace(1.0, 3000.0, 5) * COPPER.fermi_wavelength])


@pytest.mark.parametrize("model", ["nonlocal-quasistatic", "local-retarded"])
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_error_estimate_covers_the_shift_to_rel_tol_over_1000(copper, model, field_kind):
    zs, omegas = zip(*_TIGHT_POINTS)
    loose, tight = (evaluate_batch(copper, field_kind, list(zs), list(omegas), model,
                                   QuadratureConfig(rel_tol=rel_tol))
                    for rel_tol in (1e-8, 1e-11))
    for a, b in zip(loose, tight):
        # rel_tol 1e-11 converges, and the 1e-8 run's error_estimate
        # bounds its distance to it
        assert not isinstance(b, QuadratureError), b
        assert abs(a.chi_xx - b.chi_xx) <= a.error_estimate
        assert abs(a.chi_zz - b.chi_zz) <= a.error_estimate
        assert a.decomposition.keys() == b.decomposition.keys()
        for part, value in a.decomposition.items():
            assert abs(value - b.decomposition[part]) <= a.error_estimate


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_omega_too_small_is_a_domain_error_of_its_point(copper, omega0, field_kind):
    # the Drude permittivity overflows at 1e-300 rad/s and its grazing
    # wavevector (omega/c)/sqrt|eps| underflows at 1e-250 rad/s
    cfg = QuadratureConfig(rel_tol=1e-6)
    for model in ("nonlocal-quasistatic", "local-retarded", "auto"):
        tensor, *tiny = evaluate_batch(copper, field_kind, [1e-7] * 3,
                                       [omega0, 1e-250, 1e-300], model, cfg)
        assert tensor == evaluate(copper, field_kind, 1e-7, omega0, model, cfg)
        for outcome, omega in zip(tiny, ("1e-250", "1e-300")):
            assert isinstance(outcome, DomainError)
            assert f"omega = {omega} rad/s is too small" in str(outcome)


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_omega_too_large_is_a_domain_error_of_its_point(copper, omega0, field_kind):
    # omega^2 overflows from about 1.3e154 rad/s
    cfg = QuadratureConfig(rel_tol=1e-6)
    for model in ("nonlocal-quasistatic", "local-retarded", "auto"):
        tensor, *huge = evaluate_batch(copper, field_kind, [1e-7] * 3,
                                       [omega0, 1e200, 1e300], model, cfg)
        assert tensor == evaluate(copper, field_kind, 1e-7, omega0, model, cfg)
        for outcome, omega in zip(huge, ("1e+200", "1e+300")):
            assert isinstance(outcome, DomainError)
            assert f"omega = {omega} rad/s is too large for copper: omega^2 leaves" \
                in str(outcome)


def _nonlocal_cut_bound(material, omega):
    """(z, top, p_max): the smallest z whose cut, rounded up to the grid of
    t = ln(k/(2 k_F)) in steps of H0, is top, the last grid point below the
    bound p_max; it passes the float-range check."""
    import ewjn.nonlocal_model as nonlocal_model

    x = nonlocal_model._LATTICE_CUT
    p_max, h0 = nonlocal_model._nonlocal_range(material, omega)[1], nonlocal_model.H0
    two_kf = 2.0 * material.fermi_wavevector
    top = two_kf * math.exp(math.floor(math.log(p_max / two_kf) / h0) * h0)
    return x / (2.0 * top) * (1.0 + 1e-12), top, p_max


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_z_below_the_cut_bound_is_a_domain_error(copper, omega0, field_kind):
    z_min, top, p_max = _nonlocal_cut_bound(copper, omega0)
    cfg = QuadratureConfig(rel_tol=1e-6, max_subdivisions=50)
    edge, below, tiny = evaluate_batch(copper, field_kind, [z_min, z_min / 3.0, 1e-300],
                                       omega0, "nonlocal-quasistatic", cfg)
    # there, some 1e139 above k_star, every p takes I_p from the series of
    # 1/eps_l - 1: the B point runs, with the chi it gets alone; the E
    # point's p^3 leaves the float range from 5.6e102 1/m, and its cut says so
    if field_kind == "B":
        assert 0.0 < edge.chi_xx < math.inf and 0.0 < edge.chi_zz < math.inf
        assert edge == evaluate(copper, field_kind, z_min, omega0, "nonlocal-quasistatic", cfg)
    else:
        assert isinstance(edge, DomainError)
        assert str(edge) == (f"z = {z_min:.6g} m is too small for the nonlocal model: p^3 of "
                             f"its summand leaves the float range at its cut wavevector, "
                             f"{top:.3g} 1/m")
    for outcome in (below, tiny):
        assert isinstance(outcome, DomainError)
        assert "too small for the nonlocal model" in str(outcome)
        assert f"exceeds {p_max:.3g} 1/m" in str(outcome)


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_points_between_the_cut_bound_and_1e_100_m_run_or_name_the_cause(
        copper, omega0, field_kind):
    # every B point runs; an E point runs, or is refused because its cut's
    # p^3 leaves the float range, never as a chi that is not finite
    z_min, _, _ = _nonlocal_cut_bound(copper, omega0)
    zs = np.geomspace(z_min, 1e-100, 100).tolist()
    outcomes = evaluate_batch(copper, field_kind, zs, omega0, "nonlocal-quasistatic")
    refused = [z for z, outcome in zip(zs, outcomes) if isinstance(outcome, Exception)]
    for z, outcome in zip(zs, outcomes):
        if z in refused:
            assert str(outcome).startswith(f"z = {z:.6g} m is too small for the nonlocal "
                                           f"model: p^3 of its summand leaves the float range")
        else:
            assert 0.0 < outcome.chi_xx < math.inf and 0.0 < outcome.chi_zz < math.inf
    # the refused heights are the E points below 4.44e-102 m, whose cut lies
    # at or above 6.7e102 1/m
    assert refused == ([z for z in zs if z < 4.44e-102] if field_kind == "E" else [])


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.filterwarnings("error")
def test_nonlocal_cut_beyond_the_float_range_is_a_domain_error(copper, omega0, field_kind):
    # x/(2z) overflows, so the cut's grid index would be ceil(inf): the
    # OverflowError becomes the point's DomainError of the float range
    [outcome] = evaluate_batch(copper, field_kind, [1e-310], omega0, "nonlocal-quasistatic")
    assert isinstance(outcome, DomainError)
    assert str(outcome) == ("z = 1e-310 m is too small for the nonlocal model: its cut "
                            "wavevector, rounded up to the grid of t, exceeds 8.54e+144 1/m, "
                            "where the kernel leaves the float range")


@pytest.mark.parametrize("field_kind,zs", [("E", [1e-20, 1e-60]), ("B", [1e-30, 1e-60])],
                         ids=["E", "B"])
def test_nonlocal_z_below_the_kernel_resolution_is_a_domain_error(copper, omega0, field_kind,
                                                                  zs):
    # the cut wavevector lies above 1e11 |omega + i nu|/v_F, which once
    # bounded the top of the lattice's I_p windows; they now end at a fixed
    # k_c and the rest is the series of 1/eps_l - 1, so these heights run
    # with a finite positive chi, the one each gets alone, as do the surface
    # limit, 1e-3 lambda_F, and 1e-14 m
    zs = [*zs, 1e-3 * copper.fermi_wavelength, 1e-14]
    batch = evaluate_batch(copper, field_kind, zs, omega0, "nonlocal-quasistatic")
    for z, tensor in zip(zs, batch):
        assert 0.0 < tensor.chi_xx < math.inf and 0.0 < tensor.chi_zz < math.inf
        assert tensor == evaluate(copper, field_kind, z, omega0, "nonlocal-quasistatic")


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonlocal_z_above_the_low_p_bound_is_a_domain_error(copper, field_kind):
    import ewjn.nonlocal_model as nonlocal_model

    # at 1e300 m the lattice's lowest k^2 would underflow to 0
    near, far = evaluate_batch(copper, field_kind, [1e-8, 1e300], 1e9, "nonlocal-quasistatic")
    assert near == evaluate(copper, field_kind, 1e-8, 1e9, "nonlocal-quasistatic")
    assert isinstance(far, DomainError)
    assert "too large for the nonlocal model" in str(far)
    assert f"below {nonlocal_model._nonlocal_range(copper, 1e9)[0]:.3g} 1/m" in str(far)


@pytest.mark.parametrize("field_kind,power", [("E", 1), ("B", 2)])
def test_nonlocal_meets_local_far_from_the_surface(copper, omega0, field_kind, power):
    # the nonlocal correction falls off as 1/(z k_nu) for E and as its
    # square for B; at these heights the integrand peaks near p = 1/z,
    # far below k_nu
    zs = [1e-4, 1e-3, 1e-2, 3e4, 1e5, 1e8]
    nonlocal_, local = (evaluate_batch(copper, field_kind, zs, omega0, model)
                        for model in ("nonlocal-quasistatic", "local-quasistatic"))
    for z, a, b in zip(zs, nonlocal_, local):
        assert not isinstance(a, Exception), a
        assert abs(a.chi_zz - b.chi_zz) \
            <= 10.0 * b.chi_zz / (z * copper.k_nu) ** power + a.error_estimate


@pytest.mark.parametrize("field_kind,power", [("E", 1), ("B", 2)])
def test_auto_runs_the_nonlocal_model_at_a_millimetre_at_low_omega(copper, field_kind, power):
    # a tenth of the skin depth is about 1.2 mm at 100 rad/s
    z, omega = 1e-3, 100.0
    tensor = evaluate(copper, field_kind, z, omega, "auto")
    local = evaluate(copper, field_kind, z, omega, "local-quasistatic")
    assert tensor.model is Model.NONLOCAL_QUASISTATIC
    assert abs(tensor.chi_zz - local.chi_zz) \
        <= 10.0 * local.chi_zz / (z * copper.k_nu) ** power + tensor.error_estimate


def test_evaluate_batch_resolves_auto_per_point(copper, omega0, lam_f):
    zs = [-1e-9, 10.0 * lam_f, 1e-6, 3e-6]
    batch = evaluate_batch(copper, "E", zs, omega0, "auto", QuadratureConfig(rel_tol=1e-6))
    assert isinstance(batch[0], DomainError)
    assert [t.model for t in batch[1:]] == [
        Model.NONLOCAL_QUASISTATIC, Model.LOCAL_RETARDED, Model.LOCAL_RETARDED]
    for z, tensor in zip(zs[1:], batch[1:]):
        assert tensor == evaluate(copper, "E", z, omega0, "auto", QuadratureConfig(rel_tol=1e-6))


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_phase_beyond_the_float_range_is_a_domain_error(copper, field_kind):
    # auto runs the local-retarded model here, and 2 z omega/c overflows
    [outcome] = evaluate_batch(copper, field_kind, [1e300], 1e17, "auto")
    assert isinstance(outcome, DomainError)
    assert str(outcome) == ("z = 1e+300 m, omega = 1e+17 rad/s: the local-retarded "
                            "integrand leaves the float range")


@pytest.mark.parametrize("model", ["auto", "local-quasistatic", "nonlocal-quasistatic",
                                   "local-retarded"])
@pytest.mark.filterwarnings("error")
def test_drude_denominator_underflow_is_a_domain_error_of_its_point(model):
    # omega (omega + i nu) underflows to 0, so the Drude permittivity would
    # divide by zero; the point gets a DomainError that names the bound
    material = Material("m", 8.394974948008668e132, 1.808559337741882e-163,
                        1.4535076851165435e267)
    [outcome] = evaluate_batch(material, "E", [7.185790757925412e240], 2.25938280964016e-282,
                               model)
    assert isinstance(outcome, DomainError)
    assert str(outcome) == ("omega = 2.25938e-282 rad/s is too small for m: "
                            "omega (omega + i nu) underflows to 0")


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.filterwarnings("error")
def test_nonlocal_collision_wavevector_below_the_float_range_is_a_domain_error(
        copper, omega0, lam_f, field_kind):
    # nu/v_F = 5.6e-215 1/m: near p = 0 the outer integral asks for p^2,
    # and so k^2 of the kappa-integrand, below the float range
    material = Material("m", 1.8618528317108813e-47, 2.657495543604398e-283,
                        1.0351416037462507e-167)
    outcomes = evaluate_batch(material, field_kind, [5.402020032243722e-38, 10.0 * lam_f],
                              [0.0030714597545080714, omega0], "nonlocal-quasistatic")
    for outcome in outcomes:
        assert isinstance(outcome, DomainError)
        assert str(outcome).startswith("nu/v_F = 5.57e-215 1/m is too small for the nonlocal "
                                       "model: 0.1 nu/v_F lies below ")
    # k_nu is the material's: beside a failing copper point, a copper
    # point keeps its bits
    cfg = QuadratureConfig(rel_tol=1e-6)
    alone = evaluate(copper, field_kind, 10.0 * lam_f, omega0, "nonlocal-quasistatic", cfg)
    beside, failed = evaluate_batch(copper, field_kind, [10.0 * lam_f, 1e-300], omega0,
                                    "nonlocal-quasistatic", cfg)
    assert beside == alone and isinstance(failed, DomainError)


@pytest.mark.parametrize("material,field_kind,z,omega", [
    # the Lindhard kernel's screening 3 omega_p^2/(k v_F)^2 is 0/0 on the way
    # (epsilon_l), without warnings
    (Material("m", 8.865015396169701e-208, 4.793062772099495e-207, 2.582134491828852e-276), "E",
     6.4194437384450115e-12, 1.1614031077687773e-160),
    # the Lindhard kernel overflows on the way (epsilon_l, epsilon_t), without warnings
    (Material("m", 8.010602322526034e-228, 2.938159366307543e-147, 1.315635575301041e-42), "B",
     9.327376393218925e+138, 6.462524590324989e-175),
], ids=["E", "B"])
def test_nonlocal_sums_beyond_the_float_range_are_a_domain_error(material, field_kind, z, omega):
    import ewjn.nonlocal_model as nonlocal_model

    # the point's lattice sums are not finite: it stops at once and its chi
    # is not finite either
    [outcome] = evaluate_batch(material, field_kind, [z], omega, "nonlocal-quasistatic")
    assert isinstance(outcome, DomainError)
    assert str(outcome) == (f"chi is not finite at z = {z:.6g} m, omega = {omega:.6g} rad/s; "
                            f"the inputs leave the float range")
    cols, _ = nonlocal_model._nonlocal_quasistatic(material, field_kind, [z], [omega],
                                                   QuadratureConfig())
    assert np.isnan(cols[0, :2]).all()


def test_nonlocal_point_with_an_unbounded_series_rest_is_not_refused_for_its_chi():
    # n_c is held below k_c by the float range, so the bound on phi's series
    # rest is inf (_phi_series); a node with no window terms beyond its top
    # has no rest, so the point is not refused as "chi is not finite"
    import ewjn.nonlocal_model as nonlocal_model

    material = Material("m", 1.1083977243894909e+58, 8.282345583678176e+236,
                        7.724188079638204e+97)
    z, omega = 1.1556941400320611e-35, 9.797324707870857e-222
    cols, _ = nonlocal_model._nonlocal_quasistatic(material, "E", [z], [omega],
                                                   QuadratureConfig())
    assert np.isfinite(cols[0, :2]).all()
    [outcome] = evaluate_batch(material, "E", [z], omega, "nonlocal-quasistatic")
    assert not str(outcome).startswith("chi is not finite")


@pytest.mark.xfail(strict=True, reason=(
    "a local-retarded point at the edge of the float range returns chi_xx = "
    "-1.5e100 and chi_zz = -9.9e33 with error_estimate 2.0e88: a negative noise "
    "density far outside its error"))
def test_local_retarded_chi_is_not_negative_beyond_its_error():
    material = Material("m", 2.2790341271558577e82, 4.806925235365373e-162,
                        6.677705424777772e275)
    [point] = evaluate_batch(material, "B", [0.005275485772244716], 1.2458728129232939e78,
                             "local-retarded")
    assert point.chi_xx >= -point.error_estimate
    assert point.chi_zz >= -point.error_estimate


@pytest.mark.filterwarnings("error")
def test_auto_keeps_the_nonlocal_model_where_the_skin_depth_underflows():
    # omega Im sqrt(eps) underflows to 0: the skin depth is inf, as for a
    # transparent medium, and auto gets the nonlocal model's outcome
    material = Material("m", 4.239595127321693e-143, 8.399790211303438e+122,
                        4.1889096082190928e-165)
    z, omega = 3.9279509868819485e-108, 2.0049460104798446e-180
    assert skin_depth(material, omega) == math.inf
    auto, nonlocal_ = (evaluate_batch(material, "E", [z], omega, model)[0]
                       for model in ("auto", "nonlocal-quasistatic"))
    assert isinstance(auto, DomainError) and str(auto) == str(nonlocal_)


@pytest.mark.parametrize("material,model,zs,omegas,message", [
    # v_F overflows, so k_star = 0 and every nonlocal point fails its cuts
    (Material("m", 1.5620234032609075e+72, 4814091898142.631, 5.49553733017377e+296),
     "nonlocal-quasistatic", [2.89479306873844e-50, 2.89479306873844e-47],
     [5.3072700389582395e-126, 5.3072700389582395e-116], "nu/v_F = 0 1/m is too small for the "
     "nonlocal model: 0.1 nu/v_F lies below 1.49e-151 1/m, where the kernel leaves the float range"),
    # p^3 overflows at the cut, and at the first node of the r_p sum
    (Material("m", 4.556570087557962e-269, 2.699340708664515e+109, 4.5899067256479864e-94),
     "nonlocal-quasistatic", [1.2472437089834538e-118, 1.2472437089834538e-88],
     [3.3693703290966856e-41] * 2, "z = 1.24724e-118 m is too small for the nonlocal model: "
     "p^3 of its summand leaves the float range at its cut wavevector, 2.06e+119 1/m"),
    # z omega/c is finite but the phase 2 z omega/c is not
    (Material("m", 7.011051616299605e-253, 3.702119496426947e+89, 2.431282688750113e-298),
     "local-retarded", [2.2582169308306845e+256, 2.2582169308306845e+253],
     [1.5212173002175398e+60] * 2, "z = 2.25822e+256 m, omega = 1.52122e+60 rad/s: the "
     "local-retarded integrand leaves the float range"),
], ids=["k-star-zero", "tail-bound-overflow", "phase-overflow"])
@pytest.mark.filterwarnings("error")
def test_an_overflow_in_a_lattice_model_is_a_domain_error_of_its_point(material, model, zs,
                                                                       omegas, message):
    failed, other = evaluate_batch(material, "E", zs, omegas, model)
    assert isinstance(failed, DomainError) and str(failed) == message
    # the batch's other point keeps the outcome it gets alone
    [alone] = evaluate_batch(material, "E", zs[1:], omegas[1:], model)
    assert type(other) is type(alone) and str(other) == str(alone)
    if not isinstance(alone, Exception):
        assert other == alone


# ---------------------------------------------------------------- dispatch

def test_evaluate_dispatch(copper, omega0, lam_f, e_nl_10):
    far = evaluate(copper, "E", 1e-6, omega0, Model.AUTO)
    direct = evaluate(copper, "E", 1e-6, omega0, "local-retarded")
    assert far.model is Model.LOCAL_RETARDED
    assert far.chi_xx == direct.chi_xx

    near = evaluate(copper, "E", 10.0 * lam_f, omega0, "auto")
    assert near.model is Model.NONLOCAL_QUASISTATIC
    assert near.chi_zz == e_nl_10.chi_zz

    named = evaluate(copper, "B", 10.0 * lam_f, omega0, "local-quasistatic")
    assert named.chi_zz == evaluate(copper, "B", 10.0 * lam_f, omega0, "local-quasistatic").chi_zz


def test_evaluate_validation(copper, omega0):
    with pytest.raises(DomainError):
        evaluate(copper, "D", 1e-8, omega0)
    with pytest.raises(ValueError):
        evaluate(copper, "E", 1e-8, omega0, "semilocal")
    with pytest.raises(DomainError):
        evaluate(copper, "E", 0.0, omega0)
    with pytest.raises(DomainError):
        evaluate(copper, "E", 1e-8, -omega0)
    with pytest.raises(DomainError):
        evaluate(copper, "E", 1e-8, math.inf)
    # omega is one value or one per z
    with pytest.raises(DomainError):
        evaluate_batch(copper, "E", [1e-8, 2e-8, 3e-8], [omega0, omega0])
    # z^3 underflowing to 0 and a NaN chi are DomainErrors of their own points
    underflow, tensor, nan = evaluate_batch(copper, "E", [1e-300, 1e-8, 1e-8],
                                            [omega0, omega0, 1e-310], "local-quasistatic")
    assert isinstance(underflow, DomainError) and isinstance(nan, DomainError)
    assert tensor == evaluate(copper, "E", 1e-8, omega0, "local-quasistatic")


@pytest.mark.parametrize("bad,message", [
    (0.0, "{} must be > 0"), (-1.0, "{} must be > 0"), (math.nan, "{} must be > 0"),
    (math.inf, "{} must be finite"),
], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("name", ["z", "omega"])
def test_z_and_omega_validation_text(copper, omega0, name, bad, message):
    z, omega = (bad, omega0) if name == "z" else (1e-8, bad)
    checks = (lambda: evaluate(copper, "E", z, omega), lambda: regime_select(copper, z, omega))
    for check in checks:
        with pytest.raises(DomainError) as excinfo:
            check()
        assert str(excinfo.value) == message.format(name)


@pytest.mark.parametrize("model", ["local-quasistatic", "nonlocal-quasistatic",
                                   "local-retarded"])
def test_evaluate_batch_domain_error_stays_at_its_point(copper, omega0, lam_f, model):
    tensor, infinite = evaluate_batch(copper, "B", [10.0 * lam_f, math.inf], omega0, model,
                                      QuadratureConfig(rel_tol=1e-6))
    assert tensor.model is Model(model)
    assert isinstance(infinite, DomainError)


# (z, omega) points beside good ones at 1e-8 and 1e-6 m: every failure path
# of the batch functions and of evaluate_columns's own checks
_MIXED = [(1e-8, 6e8 * math.pi), (1e120, 6e8 * math.pi), (1e-300, 6e8 * math.pi),
          (1e-8, 1e200), (1e-110, 6e8 * math.pi), (1e-8, 1e-200), (1e-6, 6e8 * math.pi),
          (0.0, 6e8 * math.pi), (1e-8, -1.0), (math.inf, 6e8 * math.pi),
          (math.nan, 6e8 * math.pi)]
# the text of the failure at each of those points, by (model, field, rel_tol)
_MIXED_FAILURES = {
    ("local-quasistatic", "E", 1e-8): {1: "z^3 overflows", 2: "8 eps0 z^3 underflows to 0"},
    ("local-quasistatic", "B", 1e-8): {3: "omega^2 overflows"},
    ("nonlocal-quasistatic", "E", 1e-8): {2: "its cut wavevector", 4: "p^3 of its summand"},
    ("nonlocal-quasistatic", "B", 1e-8): {5: "chi underflows"},
    ("local-retarded", "E", 1e-8): {2: "integrand leaves the float range"},
    ("local-retarded", "E", 1e-16): {0: "local-retarded lattice sums not converged"},
}


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-16])
@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.parametrize("model", ["local-quasistatic", "nonlocal-quasistatic",
                                   "local-retarded", "auto"])
def test_columns_carry_every_outcome_at_its_index(copper, model, field_kind, rel_tol):
    # evaluate_batch's tensors carry evaluate_columns's rows bit for bit, a
    # failed point keeps its exception, type and text, at its index with a
    # NaN row, and every point is what evaluate gives or raises alone
    cfg = QuadratureConfig(rel_tol=rel_tol)
    zs, omegas = (list(v) for v in zip(*_MIXED))
    cols, used, failed = evaluate_columns(copper, field_kind, zs, omegas, model, cfg)
    batch = evaluate_batch(copper, field_kind, zs, omegas, model, cfg)
    assert cols.shape == (len(zs), 5)
    for i, text in _MIXED_FAILURES.get((model, field_kind, rel_tol), {}).items():
        assert text in str(failed[i])
    # at the default rel_tol the points at 1e-8 and 1e-6 m are good
    assert rel_tol < 1e-8 or not isinstance(batch[0], Exception)
    for i, (z, omega, outcome) in enumerate(zip(zs, omegas, batch)):
        try:
            alone = evaluate(copper, field_kind, z, omega, model, cfg)
        except (DomainError, QuadratureError) as exc:
            alone = exc
        if isinstance(outcome, Exception):
            assert type(outcome) is type(failed[i]) is type(alone)
            assert str(outcome) == str(failed[i]) == str(alone)
            assert _hex(cols[i]) == ["nan"] * 5
            if isinstance(alone, QuadratureError):
                assert (outcome.best_estimate, outcome.error_bound) \
                    == (alone.best_estimate, alone.error_bound)
            continue
        assert i not in failed and i in used[outcome.model].tolist()
        parts = outcome.decomposition
        row = [outcome.chi_xx, outcome.chi_zz, outcome.error_estimate,
               parts.get("rs_part", math.nan), parts.get("rp_part", math.nan)]
        assert _hex(row) == _hex(cols[i])
        assert _hex(row[:3]) == _hex([alone.chi_xx, alone.chi_zz, alone.error_estimate])
        assert (parts, outcome.model, outcome.z, outcome.omega) \
            == (alone.decomposition, alone.model, z, omega)


def test_local_quasistatic_rounds_as_python_float_powers(copper):
    # the vectorised closed forms equal, bit for bit, the forms on Python
    # floats: numpy's power rounds about 5% of z^3 and 0.1% of omega^2
    # otherwise, which 10,000 log-uniform draws catch
    rng = np.random.default_rng(27)
    zs = (10.0 ** rng.uniform(-12.0, 2.0, 10_000)).tolist()
    omegas = (10.0 ** rng.uniform(6.0, 14.0, 10_000)).tolist()
    for field_kind in ("E", "B"):
        cols, failed = _local_quasistatic(copper, field_kind, zs, omegas, None)
        assert not failed
        reference = []
        for z, omega in zip(zs, omegas):
            eps = drude_epsilon(copper, omega)
            if field_kind == "E":
                chi_xx = HBAR / (8.0 * EPS0 * z**3) * ((eps - 1.0) / (eps + 1.0)).imag
                reference.append([chi_xx, 2.0 * chi_xx, 0.0])
            else:
                chi_zz = HBAR * omega**2 / (8.0 * EPS0 * C_LIGHT**4 * z) * eps.imag
                reference.append([0.5 * chi_zz, chi_zz, 0.0])
        assert cols[:, :3].tolist() == reference


def test_domain_checks_everywhere(copper, omega0):
    for model in ("local-quasistatic", "nonlocal-quasistatic", "local-retarded"):
        for field_kind in ("E", "B"):
            with pytest.raises(DomainError):
                evaluate(copper, field_kind, -1e-9, omega0, model)
            with pytest.raises(DomainError):
                evaluate(copper, field_kind, 1e-8, 0.0, model)


# omega_p = 1e200: omega_p^2 overflows. The closed forms meet it as a chi that
# is not finite, the integral models as a Drude permittivity out of the
# float range; neither may raise the OverflowError of omega_p**2
_HOT = Material("hot", 1e200, 1e13, 7.0 * E_CHARGE)


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.parametrize("model", ["local-quasistatic", "nonlocal-quasistatic",
                                   "local-retarded", "auto"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_plasma_frequency_whose_square_overflows_is_a_domain_error(omega0, model,
                                                                     field_kind):
    [outcome] = evaluate_batch(_HOT, field_kind, [1e-8], omega0, model)
    assert isinstance(outcome, DomainError)
    assert str(outcome).startswith("chi is not finite" if model == "local-quasistatic" else
                                   "omega = 1.88496e+09 rad/s is too small for hot")


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_the_retarded_batch_of_a_plasma_frequency_whose_square_overflows_fails_each_point(
        omega0, field_kind):
    # evaluate_columns refuses such a metal before the retarded batch runs;
    # called directly, the batch fails each point on its own
    from ewjn.spectral import _BATCH

    with np.errstate(all="ignore"):
        cols, failed = _BATCH[Model.LOCAL_RETARDED](_HOT, field_kind, [1e-8, 1e-6],
                                                    [omega0] * 2, QuadratureConfig())
    assert sorted(failed) == [0, 1]
    assert all(isinstance(exc, DomainError) for exc in failed.values())


# -------------------------------------------------- float-range property

def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


# the metals of the retarded-farfield benchmark workload: omega_p, nu and E_F
_METALS = st.builds(lambda omega_p, nu, fermi_ev: Material("m", omega_p, nu, fermi_ev * E_CHARGE),
                    _log_uniform(1e15, 2e16), _log_uniform(3e12, 1e14), _log_uniform(2.0, 12.0))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(material=_METALS, z=_log_uniform(1e-300, 1e300), omega=_log_uniform(1e-300, 1e300),
       model=st.sampled_from(["auto", "local-quasistatic", "nonlocal-quasistatic",
                              "local-retarded"]),
       field_kind=st.sampled_from(["E", "B"]))
@example(material=COPPER, z=3e4, omega=6e8 * math.pi, model="nonlocal-quasistatic",
         field_kind="B")
@example(material=COPPER, z=1e300, omega=1e17, model="auto", field_kind="E")
@example(material=COPPER, z=1e300, omega=1e17, model="local-retarded", field_kind="B")
def test_a_realistic_metal_gives_a_signed_finite_tensor_or_a_typed_error(material, z, omega,
                                                                       model, field_kind):
    cfg = QuadratureConfig(rel_tol=1e-6, max_subdivisions=50)
    [outcome] = evaluate_batch(material, field_kind, [z], omega, model, cfg)
    if isinstance(outcome, (DomainError, QuadratureError)):
        return
    chi = (outcome.chi_xx, outcome.chi_zz)
    assert all(map(math.isfinite, (*chi, outcome.error_estimate))), outcome
    if outcome.model is Model.NONLOCAL_QUASISTATIC:
        assert min(chi) > 0.0, outcome
    elif outcome.model is Model.LOCAL_QUASISTATIC:
        # the closed form is exactly 0 where Im eps rounds to 0
        assert min(chi) >= 0.0, outcome
    else:
        # the reflected far-field chi may be negative
        assert 0.0 not in chi, outcome
