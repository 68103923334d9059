"""Field spectral densities above the half-space.

Golden numbers were frozen from independent evaluations: closed forms
in 40-digit arithmetic, the nonlocal integrals on fixed trapezoid grids
plus one adaptive cross-check with a different integrator. Comments on
individual tolerances say which reference is in play.
"""

import dataclasses
import math

import numpy as np
import pytest

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
from ewjn.fresnel import nonlocal_reflection_quasistatic
from ewjn.materials import C_LIGHT, EPS0, HBAR, drude_epsilon, skin_depth
from ewjn.quadrature import integrate_lockstep
from ewjn.spectral import _tail_cut


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
    near = regime_select(copper, 10.0 * lam_f, omega0)
    assert near.model is Model.NONLOCAL_QUASISTATIC
    assert near.enhancement is False

    mid = regime_select(copper, 30.0 * lam_f, omega0)
    assert mid.model is Model.NONLOCAL_QUASISTATIC
    assert mid.enhancement is True

    far = regime_select(copper, delta, omega0)
    assert far.model is Model.LOCAL_RETARDED
    assert far.enhancement is False

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


def _give_inner_integrals_a_budget(monkeypatch, budget):
    """Let QuadratureConfig.inner() set max_subdivisions to budget, if any."""
    if budget:
        inner = QuadratureConfig.inner
        monkeypatch.setattr(QuadratureConfig, "inner", lambda self: dataclasses.replace(
            inner(self), max_subdivisions=budget))


def _chi_B_two_passes(material, z, omega, cfg):
    """Nonlocal chi^B with the r_s and r_p channels in separate passes
    over p = k_nu expm1(t), each on the seeds and rounded cut of
    _nonlocal_grid, with the tail bound at the cut and its inner
    integrals' error bound."""
    import ewjn.spectral as spectral

    inner, k_nu = cfg.inner(), material.k_nu
    x, ratio = _tail_cut(cfg)
    end, seeds = spectral._nonlocal_grid(z, k_nu, x)
    cut = k_nu * np.expm1(end)

    def channel(polarization, weight):
        # the largest err(Im r)/Im r of the channel's nodes, cut included
        worst = [0.0]

        def f(p):
            r = nonlocal_reflection_quasistatic(material, p.ravel(), omega, polarization,
                                                inner)
            # the first failing p raises, as in a pass of this channel alone
            for outcome in r:
                if isinstance(outcome, QuadratureError):
                    raise outcome
                im, err = outcome.value.imag, outcome.part_errors[1]
                worst[0] = max(worst[0], err / im if im > 0 else math.inf if err > 0 else 0.0)
            im = np.reshape([outcome.value.imag for outcome in r], p.shape)
            return weight(p) * np.exp(-2.0 * p * z) * im

        tail = abs(f(np.array([[cut]]))[0, 0]) * ratio / (2.0 * z)
        [res] = integrate_lockstep(
            lambda t, owner: f(k_nu * np.expm1(t)) * (k_nu * np.exp(t)),
            [0.0], [end], cfg, [seeds])
        if isinstance(res, QuadratureError):
            raise res
        return res.value, res.error + tail + worst[0] * abs(res.value.real)

    val_s, err_s = channel("s", lambda p: p * p)
    val_p, err_p = channel("p", lambda p: 1.0)
    scale = HBAR / (EPS0 * C_LIGHT**2)
    rs_part = 0.5 * (scale * val_s.real)
    rp_part = 0.5 * scale * (omega / C_LIGHT) ** 2 * val_p.real
    return (rs_part + rp_part, scale * val_s.real,
            scale * (err_s + 0.5 * (omega / C_LIGHT) ** 2 * err_p),
            {"rs_part": rs_part, "rp_part": rp_part})


@pytest.mark.parametrize("z_over_lam_f", [1.0, 30.0, 3000.0])
def test_chi_B_nonlocal_one_pass_equals_two(copper, omega0, lam_f, cfg_fast, z_over_lam_f):
    z = z_over_lam_f * lam_f
    tensor = evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg_fast)
    assert (tensor.chi_xx, tensor.chi_zz, tensor.error_estimate, tensor.decomposition) \
        == _chi_B_two_passes(copper, z, omega0, cfg_fast)


@pytest.mark.parametrize("z_over_lam_f,rel_tol,max_subdivisions", [
    (30.0, 1e-10, 1),    # an inner r_s integral runs out of budget first
], ids=["1e-10-1"])
def test_chi_B_nonlocal_failures_equal_two_passes(copper, omega0, lam_f, z_over_lam_f, rel_tol,
                                                  max_subdivisions):
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    z = z_over_lam_f * lam_f
    with pytest.raises(QuadratureError) as one_pass:
        evaluate(copper, "B", z, omega0, "nonlocal-quasistatic", cfg)
    with pytest.raises(QuadratureError) as two_passes:
        _chi_B_two_passes(copper, z, omega0, cfg)
    assert str(one_pass.value) == str(two_passes.value)
    assert one_pass.value.best_estimate == two_passes.value.best_estimate
    assert one_pass.value.error_bound == two_passes.value.error_bound


def test_chi_B_nonlocal_outer_failure_equals_its_run_alone(copper, omega0, lam_f, monkeypatch):
    # with inner integrals on a budget of their own, the one outer
    # integral of the point at 300 lambda_F runs out, its two channels
    # together, while its neighbours converge
    import ewjn.spectral as spectral

    parts = {}
    monkeypatch.setattr(spectral, "integrate_lockstep",
                        _recording(parts, "outer", spectral.integrate_lockstep))
    _give_inner_integrals_a_budget(monkeypatch, 2000)
    cfg = QuadratureConfig(rel_tol=1e-11, max_subdivisions=1)
    zs = [10.0 * lam_f, 300.0 * lam_f, 1000.0 * lam_f]
    batch = evaluate_batch(copper, "B", zs, omega0, "nonlocal-quasistatic", cfg)
    failure = batch[1]
    assert any(failure is r for r in parts["outer"])
    # the r_s channel in the real part, the r_p channel in the imaginary
    assert failure.best_estimate.real > 0.0 and failure.best_estimate.imag > 0.0
    assert not any(isinstance(o, QuadratureError) for o in batch[::2])
    for z, outcome in zip(zs, batch):
        _assert_same_outcome(outcome, copper, "B", z, omega0, "nonlocal-quasistatic", cfg)


def test_nonlocal_B_point_is_one_outer_integral(copper, omega0, lam_f, monkeypatch):
    # its r_s and r_p channels are the two parts of one integral
    import ewjn.spectral as spectral

    sizes = []
    lockstep = spectral.integrate_lockstep

    def counted(f, a, b, cfg, breakpoints):
        sizes.append(len(a))
        return lockstep(f, a, b, cfg, breakpoints)

    monkeypatch.setattr(spectral, "integrate_lockstep", counted)
    zs = np.geomspace(lam_f, 3000.0 * lam_f, 7).tolist()
    batch = evaluate_batch(copper, "B", zs, omega0, "nonlocal-quasistatic",
                           QuadratureConfig(rel_tol=1e-6))
    assert not any(isinstance(o, Exception) for o in batch)
    assert sizes == [len(zs)]


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


def _recording(parts, name, fn):
    """fn, collecting the outcomes of all its calls in parts[name]."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        parts.setdefault(name, []).extend(result)
        return result
    return wrapper


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


@pytest.mark.parametrize("max_subdivisions,rel_tol,pattern", [
    (12, 1e-9, ".............xxxxxxx"),
    (16, 1e-12, "xxxxxx.xxxxxxx.xxxxx"),
], ids=["12", "16"])
def test_retarded_batch_failures_match_scalar(copper, omega0, max_subdivisions, rel_tol,
                                              pattern, monkeypatch):
    import ewjn.spectral as spectral

    runs = []
    lockstep = spectral.integrate_lockstep
    monkeypatch.setattr(spectral, "integrate_lockstep",
                        lambda *args: runs.append(args) or lockstep(*args))
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    zs = _farfield_grid(copper, omega0)
    batch = evaluate_batch(copper, "E", zs, omega0, "local-retarded", cfg)
    # every z is one integral, and the grid is one lockstep run
    assert len(runs) == 1 and len(runs[0][1]) == len(zs)
    assert "".join("x" if isinstance(o, QuadratureError) else "." for o in batch) == pattern
    for z, outcome in zip(zs, batch):
        _assert_same_outcome(outcome, copper, "E", z, omega0, "local-retarded", cfg)


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_converges_at_tight_tolerance(copper, omega0, lam_f, delta, field_kind):
    zs = [float(z) for z in np.geomspace(1e-3 * lam_f, 3.0 * delta, 12)]
    cfg = QuadratureConfig(rel_tol=1e-11)
    for outcome in evaluate_batch(copper, field_kind, zs, omega0, "local-retarded", cfg):
        assert not isinstance(outcome, QuadratureError), outcome
        # the converged integral's error plus the bound on the cut tail
        assert outcome.error_estimate <= (cfg.rel_tol + cfg.tail_cut) * math.hypot(
            outcome.chi_xx, outcome.chi_zz)


@pytest.mark.parametrize("loose", [
    QuadratureConfig(rel_tol=1e-8),
    # the cut tail then dominates the error
    QuadratureConfig(rel_tol=1e-10, tail_cut=1e-4),
], ids=["rel_tol", "tail_cut"])
@pytest.mark.parametrize("material,omega", _FARFIELD, ids=lambda v: getattr(v, "name", ""))
@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_retarded_error_estimate_covers_the_shift_to_a_tight_run(material, omega, field_kind,
                                                                 loose):
    zs = _farfield_grid(material, omega)
    runs = (evaluate_batch(material, field_kind, zs, omega, "local-retarded", cfg)
            for cfg in (loose, QuadratureConfig(rel_tol=1e-10)))
    for a, b in zip(*runs):
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


# one omega per z, from 1e7 to 1e11 rad/s: auto then resolves to the
# nonlocal model at the six lowest points and to the retarded one above
_OMEGA_PER_Z = np.geomspace(1e7, 1e11, 9).tolist()
# The inner kappa-integrals converge on their seed panels at the default
# rel_tol, so inner failures need rel_tol near 1e-12 and a small budget;
# the cases with outer failures give the inner integrals a budget of
# their own (the last entry).
_Z_BATCH_CASES = [
    ("local-quasistatic", "E", 1e-8, 2000, ".........", None, None),
    ("local-quasistatic", "B", 1e-8, 2000, ".........", None, None),
    ("nonlocal-quasistatic", "E", 1e-8, 2000, ".........", None, None),
    ("nonlocal-quasistatic", "B", 1e-8, 2000, ".........", None, None),
    # budgets tight enough that outer and inner integrals run out
    ("nonlocal-quasistatic", "E", 1e-12, 2, ".ooooiiii", None, 6),
    ("nonlocal-quasistatic", "B", 3e-12, 1, ".o.oo.iis", None, 5),
    # on a large outer budget, inner r_p integrals fail at two points
    # and an inner r_s one at the last
    ("nonlocal-quasistatic", "B", 3e-12, 2000, "......iis", None, 5),
    ("local-quasistatic", "B", 1e-8, 2000, ".........", _OMEGA_PER_Z, None),
    ("local-retarded", "E", 1e-8, 2000, ".........", _OMEGA_PER_Z, None),
    ("auto", "B", 1e-8, 2000, ".........", _OMEGA_PER_Z, None),
    # outer failures at nonlocal points (0-5) and at retarded ones (6-8)
    ("auto", "E", 1e-11, 2, "...oo.ooo", _OMEGA_PER_Z, 4),
    ("nonlocal-quasistatic", "E", 1e-12, 3, ".ooooiiii", _OMEGA_PER_Z, 6),
    ("nonlocal-quasistatic", "B", 3e-13, 3, "....o..ii", _OMEGA_PER_Z, 8),
    ("nonlocal-quasistatic", "B", 3e-13, 4, ".......ii", _OMEGA_PER_Z, 8),
]


@pytest.mark.parametrize("model,field_kind,rel_tol,max_subdivisions,pattern,omegas,inner_budget",
                         _Z_BATCH_CASES,
                         ids=["-".join(map(str, case[:5])) + ("-omega-per-z" if case[5] else "")
                              + (f"-inner-{case[6]}" if case[6] else "")
                              for case in _Z_BATCH_CASES])
def test_z_batch_matches_scalar_bitwise(copper, omega0, lam_f, model, field_kind, rel_tol,
                                        max_subdivisions, pattern, omegas, inner_budget,
                                        monkeypatch):
    import ewjn.spectral as spectral

    parts, inner_s = {}, []
    monkeypatch.setattr(spectral, "integrate_lockstep",
                        _recording(parts, "outer", spectral.integrate_lockstep))
    kernel = spectral.nonlocal_reflection_quasistatic

    def recorded_kernel(material, p, omega, polarization, cfg):
        r = kernel(material, p, omega, polarization, cfg)
        if polarization == "s":
            inner_s.extend(o for o in r if isinstance(o, QuadratureError))
        return r

    monkeypatch.setattr(spectral, "nonlocal_reflection_quasistatic", recorded_kernel)
    _give_inner_integrals_a_budget(monkeypatch, inner_budget)
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    zs = [float(z) for z in np.geomspace(lam_f, 3000.0 * lam_f, 9)]
    batch = evaluate_batch(copper, field_kind, zs, omegas or omega0, model, cfg)
    # "." a tensor, "o" an outer integral's error, "i" an inner r_p
    # integral's, "s" an inner r_s integral's
    outer = parts.get("outer", [])
    assert "".join("." if not isinstance(o, QuadratureError) else
                   "o" if any(o is r for r in outer) else
                   "s" if any(o is r for r in inner_s) else "i" for o in batch) == pattern
    for z, omega, outcome in zip(zs, omegas or [omega0] * len(zs), batch):
        _assert_same_outcome(outcome, copper, field_kind, z, omega, model, cfg)


def _kernel_requests(monkeypatch):
    """Each call of the nonlocal kernel from spectral, as its list of (p,
    omega, polarization)."""
    import ewjn.spectral as spectral

    calls = []
    kernel = spectral.nonlocal_reflection_quasistatic

    def logged(material, p, omega, polarization, cfg):
        calls.append([(q, w, polarization) for q, w in
                      zip(np.asarray(p).tolist(), np.broadcast_to(omega, len(p)).tolist())])
        return kernel(material, p, omega, polarization, cfg)

    monkeypatch.setattr(spectral, "nonlocal_reflection_quasistatic", logged)
    return calls


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_batch_asks_the_kernel_for_each_p_once(copper, omega0, lam_f, field_kind,
                                                      monkeypatch):
    # the fig1/fig3 heights at each of two frequencies; at omega0 some E
    # points bisect a panel rounds after others did, and reuse its p
    calls = _kernel_requests(monkeypatch)
    heights = np.geomspace(lam_f, 3000.0 * lam_f, 15).tolist() * 2
    # and an omega sweep, whose points share no omega and are not memoized
    for zs, omegas in ((heights, [omega0] * 15 + [1e9] * 15),
                       ([10.0 * lam_f] * 9, np.geomspace(1e7, 1e11, 9))):
        calls.clear()
        evaluate_batch(copper, field_kind, zs, omegas, "nonlocal-quasistatic")
        asked = [pair for call in calls for pair in call]
        assert len(set(asked)) == len(asked)
        assert max(map(len, calls)) <= 128


def test_z_batch_asks_the_kernel_for_fewer_p_than_its_points_alone(copper, omega0, lam_f,
                                                                   monkeypatch):
    calls = _kernel_requests(monkeypatch)
    zs = np.geomspace(lam_f, 3000.0 * lam_f, 5).tolist()
    evaluate_batch(copper, "E", zs, omega0, "nonlocal-quasistatic")
    batch = [pair for call in calls for pair in call]
    alone = []
    for z in zs:
        calls.clear()
        evaluate(copper, "E", z, omega0, "nonlocal-quasistatic")
        alone.append({pair for call in calls for pair in call})
    # the batch asks for exactly the p its points ask for alone, once each
    assert set(batch) == set().union(*alone)
    assert len(batch) < sum(map(len, alone))


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


@pytest.mark.parametrize("field_kind", ["E", "B"])
def test_nonlocal_z_below_the_cut_bound_is_a_domain_error(copper, omega0, field_kind):
    import ewjn.spectral as spectral

    # the smallest z whose cut, rounded up to the grid of t, is the last
    # grid point below the bound: it runs without leaving the float range
    x, _ = _tail_cut(QuadratureConfig())
    k_nu = copper.k_nu
    top = k_nu * math.expm1(math.floor(math.log1p(spectral._NONLOCAL_P_MAX / k_nu)))
    z_min = x / (2.0 * top)
    cfg = QuadratureConfig(rel_tol=1e-6, max_subdivisions=50)
    edge, below, tiny = evaluate_batch(copper, field_kind, [z_min, z_min / 3.0, 1e-300],
                                       omega0, "nonlocal-quasistatic", cfg)
    assert not isinstance(edge, DomainError)
    for outcome in (below, tiny):
        assert isinstance(outcome, DomainError)
        assert "too small for the nonlocal model" in str(outcome)
        assert f"exceeds {spectral._NONLOCAL_P_MAX:.3g} 1/m" in str(outcome)


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonlocal_z_above_the_low_p_bound_is_a_domain_error(copper, field_kind):
    import ewjn.spectral as spectral

    # at 1e300 m the kernel's k^2 = p^2 + kappa^2 would underflow to 0
    near, far = evaluate_batch(copper, field_kind, [1e-8, 1e300], 1e9, "nonlocal-quasistatic")
    assert near == evaluate(copper, field_kind, 1e-8, 1e9, "nonlocal-quasistatic")
    assert isinstance(far, DomainError)
    assert "too large for the nonlocal model" in str(far)
    assert f"below {spectral._NONLOCAL_P_MIN:.3g} 1/m" in str(far)


@pytest.mark.parametrize("field_kind,power", [("E", 1), ("B", 2)])
def test_nonlocal_meets_local_far_from_the_surface(copper, omega0, field_kind, power):
    # the nonlocal correction falls off as 1/(z k_nu) for E and as its
    # square for B; at these heights the cut lies far below t = 1 and
    # the integrand peaks near t = 1/(z k_nu) ~ 1e-5..1e-3
    zs = [1e-4, 1e-3, 1e-2]
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


@pytest.mark.parametrize("model", ["local-quasistatic", "nonlocal-quasistatic",
                                   "local-retarded"])
def test_evaluate_batch_domain_error_stays_at_its_point(copper, omega0, lam_f, model):
    tensor, infinite = evaluate_batch(copper, "B", [10.0 * lam_f, math.inf], omega0, model,
                                      QuadratureConfig(rel_tol=1e-6))
    assert tensor.model is Model(model)
    assert isinstance(infinite, DomainError)


def test_domain_checks_everywhere(copper, omega0):
    for model in ("local-quasistatic", "nonlocal-quasistatic", "local-retarded"):
        for field_kind in ("E", "B"):
            with pytest.raises(DomainError):
                evaluate(copper, field_kind, -1e-9, omega0, model)
            with pytest.raises(DomainError):
                evaluate(copper, field_kind, 1e-8, 0.0, model)
