"""Coincident-point Green's tensor in the uniform metal and its
surface-limit companion.

Sign convention: the library returns the negated (positive) spectral
weight, so every value here is positive where the raw tensor imaginary
part is negative.
"""

import collections
import math
import random

import numpy as np
import pytest

from ewjn import DomainError, Material, QuadratureError, bulk_imD_coincident, surface_limit_imD
from ewjn import QuadratureConfig
from ewjn.bulk import _radial_integrand
from ewjn.materials import C_LIGHT, E_CHARGE, HBAR, drude_epsilon, epsilon_l, epsilon_t
from adaptive import integrate_lockstep

LADDER_VALUES = [
    (3.0, 1.665716584076565e-13),
    (10.0, 5.180912848138385e-13),
    (30.0, 8.791486521333126e-13),
    (100.0, 1.2796806847089996e-12),
]


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------- radial reduction

def _bracket_integrand(material, k, omega):
    """The xx reduction of the angle-averaged radial integrand, via the
    printed combined bracket: the second coding of the one the package
    integrates (the zz reduction, via the transverse/longitudinal split)."""
    eps_l = epsilon_l(material, k, omega)
    eps_t = epsilon_t(material, k, omega)
    denom = omega**2 * eps_t / C_LIGHT**2 - k * k
    bracket = (
        1.0
        - C_LIGHT**2 * k * k / (3.0 * omega**2 * eps_l)
        + (eps_t - eps_l) / (3.0 * eps_l)
    )
    return -(k * k) * np.imag(4.0 * math.pi * HBAR / denom * bracket) / (2.0 * math.pi**2)


def _radial_breakpoints(material, omega):
    """Seeds of the adaptive oracle on every rung: 0.3, 1 and 3 times the
    skin wavevector, k_nu and k_star."""
    k_delta = abs(math.sqrt(abs(drude_epsilon(material, omega))) * omega / C_LIGHT)
    return [0.3 * k_delta, k_delta, 3.0 * k_delta, material.k_nu, material.k_star]


def test_radial_reductions_agree_and_are_positive(copper, omega0):
    # two independent codings of the angle average; they are the same
    # function on paper and must stay pointwise equal numerically
    ks = np.geomspace(1e-3, 1e2, 40) * copper.fermi_wavevector
    zz = _radial_integrand(copper, ks, omega0)
    xx = _bracket_integrand(copper, ks, omega0)
    assert np.isrealobj(zz)
    assert np.all(xx > 0.0)
    assert np.all(zz > 0.0)
    assert np.all(np.abs(xx / zz - 1.0) < 1e-9)


# ------------------------------------------------------------ cutoff ladder

# the Lindhard kernel overflows at this metal's scales, and warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ladder_rung_beyond_the_float_range_misses_rel_tol():
    # the first rung's sums are NaN: it stops at its first level and gets the
    # QuadratureError of a rung that misses rel_tol, with the NaN as estimate
    from ewjn import Material

    material = Material("m", 1.0953639976560267e+173, 9.850413307543647e+154,
                        1.2235399094281575e-183)
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(material, 8.390971102363463e+143)
    assert str(excinfo.value).startswith("bulk radial rung [8.2524e-78, 1.3431e-72] 1/m lattice "
                                         "sums not converged after 4 halvings of h")
    assert math.isnan(excinfo.value.best_estimate)


def test_ladder_does_not_converge_and_reports_series(copper, omega0, cfg):
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(copper, omega0, cfg)
    exc = excinfo.value
    assert "not settled to 1% across the cutoff ladder" in str(exc)
    series = exc.convergence_series
    assert len(series) == len(LADDER_VALUES)
    k_f = copper.fermi_wavevector
    for (k_hi, total), (mult, ref) in zip(series, LADDER_VALUES):
        assert rel(k_hi, mult * k_f) < 1e-12
        assert rel(total, ref) < 1e-6
    assert exc.best_estimate == series[-1][1]
    assert exc.error_bound == abs(series[-1][1] - series[-2][1])


def test_ladder_growth_is_logarithmic(copper, omega0, cfg):
    # roughly equal increments per equal log-interval of k_max is the
    # signature of a 1/k integrand between the collision and screening
    # wavevectors
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(copper, omega0, cfg)
    totals = [v for _, v in excinfo.value.convergence_series]
    steps = [b - a for a, b in zip(totals, totals[1:])]
    assert all(s > 0 for s in steps)
    for a, b in zip(steps, steps[1:]):
        assert 0.7 < b / a < 1.4


@pytest.mark.xfail(strict=True, reason=(
    "between the collision wavevector nu/v_F and the screening "
    "wavevector the angle-averaged spectral weight falls off only as "
    "1/k, so the radial integral grows with every rung of the cutoff "
    "ladder instead of settling to 1%"))
def test_ladder_final_rungs_within_one_percent(copper, omega0, cfg):
    try:
        res = bulk_imD_coincident(copper, omega0, cfg)
        series = res.convergence_series
    except QuadratureError as exc:
        series = exc.convergence_series
    assert abs(series[-1][1] / series[-2][1] - 1.0) < 0.01


def test_ladder_vacuum_converges_to_silence(vacuumish, omega0):
    res = bulk_imD_coincident(vacuumish, omega0)
    assert res.im_D_xx == 0.0
    assert res.im_D_zz == 0.0
    assert res.k_max_used == pytest.approx(10.0 * vacuumish.fermi_wavevector,
                                           rel=1e-12)


def test_ladder_rungs_match_the_bracket_integrals(copper, omega0, cfg, monkeypatch):
    # every rung of the zz ladder against the bracket integrated over it
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(copper, omega0, cfg)
    series = excinfo.value.convergence_series
    k_lo, below = 0.0, 0.0
    for k_hi, total in series:
        [res] = integrate_lockstep(lambda k, owner: _bracket_integrand(copper, k, omega0),
                                   [k_lo], [k_hi], cfg, [_radial_breakpoints(copper, omega0)])
        assert abs((total - below) - res.value.real) <= cfg.rel_tol * res.value.real
        k_lo, below = k_hi, total
    # a loose settling rule stops at the second rung and reports it as xx and zz
    monkeypatch.setattr("ewjn.bulk._LADDER_REL", 1.0)
    res = bulk_imD_coincident(copper, omega0, cfg)
    assert (res.k_max_used, res.im_D_zz, res.im_D_xx) == (series[1][0], series[1][1],
                                                           series[1][1])


def _ladder_calls(material, omega, cfg, monkeypatch):
    """(sizes, levels) of one ladder: the node count of each _radial_integrand
    call and the levels of h each call of the lattice rule asks for."""
    import ewjn.bulk as bulk

    sizes, levels, integrand, lattice_sums = [], [], bulk._radial_integrand, bulk.lattice_sums

    def rule(count, sums, cfg):
        return lattice_sums(count, lambda asked, live: levels.append(list(asked))
                            or sums(asked, live), cfg)

    monkeypatch.setattr(bulk, "_radial_integrand",
                        lambda m, k, w: sizes.append(k.size) or integrand(m, k, w))
    monkeypatch.setattr(bulk, "lattice_sums", rule)
    with pytest.raises(QuadratureError):  # the ladder does not settle at omega0
        bulk_imD_coincident(material, omega, cfg)
    return sizes, levels


def test_ladder_asks_the_integrand_once_for_h_one_quarter_and_one_eighth(copper, omega0,
                                                                         monkeypatch):
    # the first call of the lattice rule takes every node of every rung at
    # h = 1/8 from one integrand call and the lattice at 1/4 from its even
    # nodes; each further halving asks once for the odd nodes of the live rungs
    sizes, levels = _ladder_calls(copper, omega0, QuadratureConfig(rel_tol=1e-4), monkeypatch)
    assert levels == [[0, 1]] and len(sizes) == 1
    deeper, levels = _ladder_calls(copper, omega0, QuadratureConfig(), monkeypatch)
    assert levels[0] == [0, 1] and len(deeper) == len(levels) > 1 and deeper[0] == sizes[0]


@pytest.mark.parametrize("omega", [1e7, 6e8 * math.pi, 1e11])
def test_ladder_rungs_match_the_adaptive_engine_at_1e_12(copper, omega):
    # each rung's log-lattice sum against the adaptive engine of tests/adaptive.py
    # at rel_tol 1e-12 over the same rung, the first from k = 0
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(copper, omega)
    tight = QuadratureConfig(rel_tol=1e-12)
    k_lo, below = 0.0, 0.0
    for k_hi, total in excinfo.value.convergence_series:
        [res] = integrate_lockstep(lambda k, owner: _radial_integrand(copper, k, omega),
                                   [k_lo], [k_hi], tight, [_radial_breakpoints(copper, omega)])
        assert abs((total - below) / res.value.real - 1.0) < 1e-8
        k_lo, below = k_hi, total


def test_ladder_domain(copper):
    with pytest.raises(DomainError):
        bulk_imD_coincident(copper, 0.0)
    with pytest.raises(DomainError):
        bulk_imD_coincident(copper, math.inf)


@pytest.mark.parametrize("omega,message", [
    (0.0, "omega must be > 0"), (-1.0, "omega must be > 0"), (math.nan, "omega must be > 0"),
    (math.inf, "omega must be finite"),
], ids=["0", "-1", "nan", "inf"])
def test_ladder_validation_text(copper, omega, message):
    with pytest.raises(DomainError) as excinfo:
        bulk_imD_coincident(copper, omega)
    assert str(excinfo.value) == message


# ------------------------------------------------------------- surface limit

def test_surface_limit_reference(copper, omega0, cfg):
    surf = surface_limit_imD(copper, omega0, cfg)
    # adaptive reference of the same construction
    assert rel(surf.im_D_zz, 1.1409759941962372e-12) < 5e-5
    assert rel(surf.im_D_zz / surf.im_D_xx, 2.0) < 1e-12
    # sits below the last bulk rung
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(copper, omega0, cfg)
    bulk_best = excinfo.value.best_estimate
    assert surf.im_D_zz < bulk_best
    assert surf.im_D_xx < bulk_best


@pytest.mark.xfail(strict=True, reason=(
    "the screened electric noise keeps growing logarithmically toward "
    "contact, so the z = 1e-3 lambda_F evaluation point shifts by ~20% "
    "when z is halved; it is a stand-in at a fixed height, not a "
    "converged z -> 0 limit"))
def test_surface_limit_is_z_stable(copper, omega0, lam_f, cfg):
    from ewjn import evaluate

    # conversion factor cancels in the ratio, so compare chi directly
    at = evaluate(copper, "E", 1e-3 * lam_f, omega0, "nonlocal-quasistatic", cfg)
    halved = evaluate(copper, "E", 5e-4 * lam_f, omega0, "nonlocal-quasistatic", cfg)
    assert abs(halved.chi_zz / at.chi_zz - 1.0) < 0.02


def test_bulk_over_the_full_float_box_gives_a_result_or_a_typed_error():
    # 200 seeded draws of omega_p, nu, E_F (J) and omega, each log-uniform
    # from 1e-300 to 1e300: every ladder returns a finite, non-negative Im D
    # or raises DomainError or QuadratureError, never the OverflowError of
    # omega**2 or the ZeroDivisionError of an omega (omega + i nu) that
    # underflows, and without RuntimeWarnings. An Im D that underflows is a
    # DomainError; it is exactly 0 only where omega_p^2 does, and the metal
    # does not respond.
    rng, seen = random.Random(3), collections.Counter()
    for _ in range(200):
        omega_p, nu, fermi, omega = (10.0 ** rng.uniform(-300, 300) for _ in range(4))
        try:
            res = bulk_imD_coincident(Material("m", omega_p, nu, fermi), omega)
        except (DomainError, QuadratureError) as exc:
            seen[type(exc).__name__] += 1
            continue
        assert math.isfinite(res.im_D_xx) and res.im_D_xx >= 0.0 and res.im_D_zz == res.im_D_xx
        assert res.im_D_xx > 0.0 or omega_p * omega_p == 0.0
        seen["ok"] += 1
    assert min(seen["ok"], seen["DomainError"], seen["QuadratureError"]) > 0, seen


@pytest.mark.parametrize("nu,omega,message", [
    (6e12 * math.pi, 1e200, "omega = 1e+200 rad/s is too large for m: omega^2 leaves the float "
                            "range"),
    (1e-200, 1e-200, "omega = 1e-200 rad/s is too small for m: omega (omega + i nu) "
                     "underflows to 0"),
    # every rung's Im D underflows to 0, and the ladder settles on it
    (6e12 * math.pi, 1e100, "Im D underflows at omega = 1e+100 rad/s; the inputs leave the "
                            "float range"),
])
def test_bulk_omega_out_of_the_drude_scales_is_a_domain_error(nu, omega, message):
    with pytest.raises(DomainError) as exc:
        bulk_imD_coincident(Material("m", 1.6e16, nu, 7.0 * E_CHARGE), omega)
    assert str(exc.value) == message
