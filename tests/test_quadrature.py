"""Adaptive Gauss-Kronrod integration on finite and half-line domains."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ewjn import (
    DomainError,
    QuadratureConfig,
    QuadratureError,
    QuadResult,
    integrate_finite,
    integrate_semi_infinite_decaying,
)
from ewjn.quadrature import integrate_batch


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=-1e-30)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)
    with pytest.raises(DomainError):
        QuadratureConfig(tail_cut=1.0)


def test_config_inner_scaling():
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-20)
    inner = cfg.inner()
    assert inner.rel_tol == 1e-7
    assert inner.abs_tol == 1e-21
    assert inner.max_subdivisions == cfg.max_subdivisions


# ------------------------------------------------------- error bound suite

FINITE_CASES = [
    (lambda x: x**3, 0.0, 1.0, 0.25),
    (np.sin, 0.0, math.pi, 2.0),
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: np.exp(-x * x), 0.0, 3.0, math.sqrt(math.pi) / 2 * math.erf(3.0)),
    (lambda x: np.log1p(x), 0.0, 1.0, 2.0 * math.log(2.0) - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sin(10.0 * x), 0.0, 1.0, (1.0 - math.cos(10.0)) / 10.0),
    (lambda x: np.exp(1j * x), 0.0, 1.0, math.sin(1.0) + 1j * (1.0 - math.cos(1.0))),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.4 * math.atan(5.0)),
]


@pytest.mark.parametrize("f,a,b,exact", FINITE_CASES)
def test_finite_error_bounds_true_error(f, a, b, exact):
    res = integrate_finite(f, a, b, QuadratureConfig())
    assert isinstance(res, QuadResult)
    # the estimate must bound the actual miss (tiny rounding floor aside)
    assert abs(res.value - exact) <= res.error + 1e-15 * (1.0 + abs(exact))
    assert abs(res.value - exact) <= 1e-8 * abs(exact)
    assert res.error >= 0.0


def test_semi_infinite_error_bounds():
    cases = [
        ("exp", lambda t: np.exp(-3.0 * t) * np.cos(t), 1.0 / 3.0, 0.3),
        ("power", lambda t: 1.0 / (1.0 + t * t), 1.0, math.pi / 2.0),
    ]
    for tail, f, scale, exact in cases:
        res = integrate_semi_infinite_decaying(f, 0.0, scale, QuadratureConfig(),
                                               tail=tail)
        assert abs(res.value - exact) <= res.error + 1e-15
        assert abs(res.value - exact) <= 1e-8 * abs(exact)


def test_halving_rel_tol_stays_within_reported_error():
    f = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    for tol in (1e-4, 1e-6, 1e-8):
        first = integrate_finite(f, 0.0, 2.0, QuadratureConfig(rel_tol=tol))
        second = integrate_finite(f, 0.0, 2.0, QuadratureConfig(rel_tol=tol / 2))
        assert abs(second.value - first.value) <= first.error + 1e-16


def test_linearity():
    rng = np.random.default_rng(2024)
    alpha = complex(rng.normal(), rng.normal())
    beta = complex(rng.normal(), rng.normal())
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    g = lambda x: 1.0 / (1.0 + x * x)
    cfg = QuadratureConfig()
    combo = integrate_finite(lambda x: alpha * f(x) + beta * g(x), 0.0, 3.0, cfg)
    f_res = integrate_finite(f, 0.0, 3.0, cfg)
    g_res = integrate_finite(g, 0.0, 3.0, cfg)
    budget = combo.error + abs(alpha) * f_res.error + abs(beta) * g_res.error
    assert abs(combo.value - (alpha * f_res.value + beta * g_res.value)) \
        <= budget + 1e-14


def test_determinism_bitwise():
    f = lambda x: np.sin(7.0 * x) / (1.0 + x)
    a = integrate_finite(f, 0.0, 5.0, QuadratureConfig())
    b = integrate_finite(f, 0.0, 5.0, QuadratureConfig())
    assert a.value == b.value
    assert a.error == b.error


# -------------------------------------------------------------- subdivision

def test_budget_exhaustion_raises_with_best_estimate():
    # integrable singularity inside the panel: 8 bisections cannot reach
    # 1e-8, so the budget trips and the partial answer rides along
    f = lambda x: np.abs(x - 0.3) ** -0.5
    cfg = QuadratureConfig(max_subdivisions=8)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_finite(f, 0.0, 1.0, cfg)
    err = excinfo.value
    assert np.isfinite(err.best_estimate.real)
    assert 0.0 < err.best_estimate.real < 10.0
    assert err.error_bound > 0.0


def test_breakpoints_are_only_an_accelerator():
    # kink at 1/3; exact integral of |x - 1/3| over [0, 1] is 5/18
    f = lambda x: np.abs(x - 1.0 / 3.0)
    cfg = QuadratureConfig()
    plain = integrate_finite(f, 0.0, 1.0, cfg)
    seeded = integrate_finite(f, 0.0, 1.0, cfg, breakpoints=[1.0 / 3.0])
    exact = 5.0 / 18.0
    assert abs(plain.value - exact) <= 1e-10 * exact
    assert abs(seeded.value - exact) <= 1e-12 * exact
    assert abs(plain.value - seeded.value) <= plain.error + seeded.error


def test_power_tail_breakpoints_mapped():
    # far-out lorentzian bump; its center must survive the u-substitution
    f = lambda t: 1.0 / (1.0 + (t - 5.0) ** 2)
    exact = math.pi / 2.0 + math.atan(5.0)
    res = integrate_semi_infinite_decaying(f, 0.0, 1.0, QuadratureConfig(),
                                           tail="power", breakpoints=[5.0])
    assert abs(res.value - exact) <= 1e-8 * exact


def test_exp_tail_window_scaling():
    cfg = QuadratureConfig()
    # decay scale guessed far too small: more windows, same answer
    small = integrate_semi_infinite_decaying(lambda t: np.exp(-t), 0.0, 0.1, cfg)
    assert abs(small.value - 1.0) <= 1e-10
    # guessed far too large: one giant window still integrates cleanly
    big = integrate_semi_infinite_decaying(lambda t: np.exp(-t), 0.0, 100.0, cfg)
    assert abs(big.value - 1.0) <= 1e-8


def test_domain_validation():
    cfg = QuadratureConfig()
    with pytest.raises(DomainError):
        integrate_finite(np.sin, 1.0, 1.0, cfg)
    with pytest.raises(DomainError):
        integrate_finite(np.sin, 2.0, 1.0, cfg)
    with pytest.raises(DomainError):
        integrate_semi_infinite_decaying(np.exp, 0.0, -1.0, cfg)
    with pytest.raises(DomainError):
        integrate_semi_infinite_decaying(np.exp, 0.0, 1.0, cfg, tail="spline")


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.1, 50.0), n=st.integers(0, 6))
def test_monomials_exact(b, n):
    res = integrate_finite(lambda x: x**n, 0.0, b, QuadratureConfig())
    exact = b ** (n + 1) / (n + 1)
    assert abs(res.value - exact) <= max(1e-12 * exact, res.error)


# ------------------------------------------------------------ batched engine

BATCH_CASES = [
    # polynomial: converges on its seed panel
    (lambda x: x**3 - x, 0.0, 2.0, ()),
    # kink seeded by a breakpoint
    (lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, (1.0 / 3.0,)),
    (lambda x: 1.0 / (1e-8 + (x - 0.3) ** 2), 0.0, 1.0, ()),
    # ~480 periods: hundreds of subdivisions
    (lambda x: 2.0 + np.cos(300.0 * x), 0.0, 10.0, ()),
    (lambda x: np.exp(1j * 40.0 * x) / (1.0 + x), 0.0, 5.0, (1.0, 2.0)),
    (lambda x: np.sqrt(np.abs(x - 0.5)), -1.0, 1.0, ()),
    (np.cos, -3.0, 7.0, (0.0, 5.0, 100.0)),
]


def _batched(fs, calls):
    def f(x, owner):
        calls.append(x.shape)
        assert x.ndim == 2 and x.shape[1] == 15 and owner.shape == x.shape[:1]
        out = np.empty(x.shape, dtype=complex)
        for i, fi in enumerate(fs):
            rows = owner == i
            out[rows] = fi(x[rows])
        return out

    return f


def _counted(f, calls):
    def g(x):
        calls.append(x.shape)
        return f(x)

    return g


def _serial_reference(f, a, b, cfg, breakpoints=()):
    """The one-integral adaptive loop with one GK15 call per panel."""
    from ewjn.quadrature import _NODES, _WEIGHTS_G, _WEIGHTS_K

    def gk15(lo, hi):
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv = np.asarray(f(center + half * _NODES), dtype=complex)
        resk = np.sum(_WEIGHTS_K * fv)
        resg = np.sum(_WEIGHTS_G * fv)
        resabs = float(np.sum(_WEIGHTS_K * np.abs(fv))) * half
        resasc = float(np.sum(_WEIGHTS_K * np.abs(fv - 0.5 * resk))) * half
        err = abs(resk - resg) * half
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        if resabs > 0.0:
            err = max(err, 50.0 * np.finfo(float).eps * resabs)
        return resk * half, err

    edges = [a] + sorted({float(x) for x in breakpoints if a < x < b}) + [b]
    heap, total, total_err = [], 0.0 + 0.0j, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = gk15(lo, hi)
        heapq.heappush(heap, (-err, len(heap), lo, hi, val, err))
        total += val
        total_err += err
    counter = len(heap)
    while total_err > max(cfg.rel_tol * abs(total), cfg.abs_tol):
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (0.0, counter, lo, hi, val, err))
            counter += 1
            continue
        (v1, e1), (v2, e2) = gk15(lo, mid), gk15(mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
    return complex(total), float(total_err)


def test_batch_matches_separate_integrals_bitwise():
    cfg = QuadratureConfig(rel_tol=1e-10)
    fs, a, b, breaks = zip(*BATCH_CASES)
    batch_calls = []
    results = integrate_batch(_batched(fs, batch_calls), a, b, cfg, breaks)
    single_calls = []
    for (f, lo, hi, bp), res in zip(BATCH_CASES, results):
        calls = []
        single = integrate_finite(_counted(f, calls), lo, hi, cfg, breakpoints=bp)
        single_calls.append(len(calls))
        assert res.value == single.value
        assert res.error == single.error
        assert (single.value, single.error) == _serial_reference(f, lo, hi, cfg, bp)
    assert single_calls[0] == 1
    assert max(single_calls) >= 100
    # lockstep: one call per round, as many rounds as the slowest member
    assert len(batch_calls) == max(single_calls)


def test_batch_raises_error_of_lowest_failing_integral():
    cfg = QuadratureConfig(max_subdivisions=8)
    fs = [
        lambda x: x * x,
        lambda x: np.abs(x - 0.3) ** -0.5,
        lambda x: 1.0 / (1e-8 + (x - 0.7) ** 2),
    ]
    with pytest.raises(QuadratureError) as single:
        integrate_finite(fs[1], 0.0, 1.0, cfg)
    with pytest.raises(QuadratureError) as batch:
        integrate_batch(_batched(fs, []), [0.0] * 3, [1.0] * 3, cfg)
    assert str(batch.value) == str(single.value)
    assert batch.value.best_estimate == single.value.best_estimate
    assert batch.value.error_bound == single.value.error_bound
    # a failing member behind converging ones raises its own error
    ok = [fs[0], fs[0], fs[2]]
    with pytest.raises(QuadratureError) as last:
        integrate_batch(_batched(ok, []), [0.0] * 3, [1.0] * 3, cfg)
    with pytest.raises(QuadratureError) as alone:
        integrate_finite(fs[2], 0.0, 1.0, cfg)
    assert last.value.best_estimate == alone.value.best_estimate


def test_batch_domain_validation():
    with pytest.raises(DomainError):
        integrate_batch(_batched([np.sin, np.sin], []), [0.0, 1.0], [1.0, 1.0])
    assert integrate_batch(_batched([], []), [], []) == []
