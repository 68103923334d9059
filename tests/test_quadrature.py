"""Adaptive Gauss-Kronrod integration on finite and half-line domains."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ewjn import DomainError, QuadratureConfig, QuadratureError
from adaptive import QuadResult, integrate_lockstep

from conftest import inner, integrate_power_tails


def _one(f):
    """The batched integrand of a batch of one with scalar integrand f."""
    return lambda x, owner: f(x)


def _padded(rows):
    """Breakpoint rows as the engine takes them: one inf-padded 2-D array."""
    out = np.full((len(rows), max(map(len, rows), default=0)), np.inf)
    for row, cuts in zip(out, rows):
        row[:len(cuts)] = cuts
    return out


def _finite(f, a, b, cfg=None, breakpoints=()):
    """The outcome of one integral of f over [a, b], a lockstep batch of one."""
    return integrate_lockstep(_one(f), [a], [b], cfg, [breakpoints])[0]


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=-1e-30)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)


def test_config_inner_scaling():
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-20)
    # the nested budget of the kappa-integral oracle (conftest)
    inner_cfg = inner(cfg)
    assert inner_cfg.rel_tol == 1e-7
    assert inner_cfg.abs_tol == 1e-21
    assert inner_cfg.max_subdivisions == cfg.max_subdivisions
    # an inner tolerance stops at 100 ulps, which double precision holds
    assert inner(QuadratureConfig(rel_tol=1e-13)).rel_tol == 100.0 * np.finfo(float).eps


def test_gregory_weights_are_the_exact_end_correction():
    # Euler-Maclaurin: the trapezoid sum over j = 0, 1, ... misses
    # Sum_k B_2k/(2k)! f^(2k-1)(0) at its end, so the correction c_j of
    # the first 8 nodes solves Sum_j c_j j^m = B_(m+1)/(m+1) for odd m < 8
    # and 0 for even m, exactly, with B_n Bernoulli's numbers
    from fractions import Fraction

    from ewjn.quadrature import GREGORY

    bernoulli = [Fraction(1)]
    for n in range(1, 9):
        bernoulli.append(-sum(math.comb(n + 1, k) * bernoulli[k] for k in range(n)) / (n + 1))
    rows = [[Fraction(j) ** m for j in range(8)] + [bernoulli[m + 1] / (m + 1) if m % 2 else 0]
            for m in range(8)]
    for i in range(8):
        pivot = next(r for r in range(i, 8) if rows[r][i])
        rows[i], rows[pivot] = rows[pivot], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(8):
            if r != i:
                rows[r] = [a - rows[r][i] * b for a, b in zip(rows[r], rows[i])]
    assert GREGORY.tolist() == [float(r[8]) for r in rows]


# -------------------------------------------------------------- lattice rule

def _level_sums(table):
    """A sums callback that returns table(level, point) -> (values, errors)
    per live point and records each level's live points."""
    seen = []

    def sums(level, h, live):
        assert h == 0.25 / 2**level
        seen.append((level, live.tolist()))
        rows = [table(level, p) for p in live.tolist()]
        return (np.array([v for v, _ in rows], dtype=float),
                np.array([e for _, e in rows], dtype=float))
    return sums, seen


def test_lattice_sums_stop_at_the_first_level_where_every_sum_meets_rel_tol():
    from ewjn.quadrature import lattice_sums

    # S_L = 1 + c 4^-L, so |S_L - S_2h| = 3 c 4^-L; point 0 already meets
    # rel_tol at level 0, point 1 from level 1, point 2's second sum from
    # level 3 while its first meets it from level 1
    c = [(0.0, 0.0), (1e-3, 0.0), (1e-3, 3e-2)]
    sums, seen = _level_sums(lambda level, p: ([1 + c[p][0] / 4**level, 2 + c[p][1] / 4**level],
                                               [1e-6, 2e-6]))
    values, errors, missed = lattice_sums(3, sums, QuadratureConfig(rel_tol=1e-3))
    assert seen == [(0, [0, 1, 2]), (1, [0, 1, 2]), (2, [2]), (3, [2])]
    assert not missed.any()
    assert values.tolist() == [[1.0, 2.0], [1 + 1e-3 / 4, 2.0], [1 + 1e-3 / 64, 2 + 3e-2 / 64]]
    # each error is the callback's plus the difference from the sums at 2h
    assert errors.tolist() == [
        [1e-6, 2e-6],
        [1e-6 + abs(1 + 1e-3 / 4 - (1 + 1e-3)), 2e-6],
        [1e-6 + abs(1 + 1e-3 / 64 - (1 + 1e-3 / 16)), 2e-6 + abs(2 + 3e-2 / 64 - (2 + 3e-2 / 16))]]


@pytest.mark.parametrize("abs_tol,stops_at", [(1e-30, 1), (0.0, None)])
def test_lattice_sums_abs_tol_floor(abs_tol, stops_at):
    from ewjn.quadrature import lattice_sums

    # a sum that is 0 at every h and whose error is 1e-31: only the abs_tol
    # floor lets it meet its tolerance
    sums, seen = _level_sums(lambda level, p: ([0.0], [1e-31]))
    values, errors, missed = lattice_sums(1, sums, QuadratureConfig(abs_tol=abs_tol))
    assert [level for level, _ in seen][-1] == (stops_at or 4)
    assert missed.tolist() == [stops_at is None]
    assert (values.tolist(), errors.tolist()) == ([[0.0]], [[1e-31]])


@pytest.mark.parametrize("max_subdivisions,halvings", [(1, 1), (2000, 4)])
def test_lattice_sums_miss_after_at_most_four_halvings(max_subdivisions, halvings):
    from ewjn.quadrature import lattice_sums

    # point 1 never settles; point 0 settles from level 1
    sums, seen = _level_sums(lambda level, p: ([float(level * p)], [0.0]))
    cfg = QuadratureConfig(max_subdivisions=max_subdivisions)
    values, errors, missed = lattice_sums(2, sums, cfg)
    assert seen == [(0, [0, 1]), (1, [0, 1])] + [(level, [1]) for level in range(2, halvings + 1)]
    assert missed.tolist() == [False, True]
    assert values[1, 0] == halvings and errors[1, 0] == 1.0


def test_lattice_sums_stop_a_point_at_once_when_a_value_or_error_is_not_finite():
    from ewjn.quadrature import lattice_sums

    # point 0's value is nan at level 0, point 1's error inf at level 2 and
    # point 2 never settles: the first two stop where they turn, not as missed
    def table(level, p):
        if (p, level) == (0, 0):
            return [math.nan], [0.0]
        if (p, level) == (1, 2):
            return [float(level)], [math.inf]
        return [float(level)], [0.0]

    sums, seen = _level_sums(table)
    with np.errstate(all="raise"):
        values, errors, missed = lattice_sums(3, sums, QuadratureConfig())
    assert seen == [(0, [0, 1, 2]), (1, [1, 2]), (2, [1, 2]), (3, [2]), (4, [2])]
    assert missed.tolist() == [False, False, True]
    assert math.isnan(values[0, 0]) and errors[1, 0] == math.inf
    assert values[2, 0] == 4.0


def test_lattice_sums_of_no_points_ask_for_none():
    from ewjn.quadrature import lattice_sums

    sums, seen = _level_sums(lambda level, p: ([0.0], [0.0]))
    values, errors, missed = lattice_sums(0, sums, QuadratureConfig())
    assert not seen and values.size == errors.size == missed.size == 0


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
    res = _finite(f, a, b, QuadratureConfig())
    assert isinstance(res, QuadResult)
    # the estimate must bound the actual miss (tiny rounding floor aside)
    assert abs(res.value - exact) <= res.error + 1e-15 * (1.0 + abs(exact))
    assert abs(res.value - exact) <= 1e-8 * abs(exact)
    assert res.error >= 0.0


def test_semi_infinite_error_bounds():
    f, exact = lambda t: 1.0 / (1.0 + t * t), math.pi / 2.0
    [res] = integrate_power_tails(_one(f), [1.0], [()], QuadratureConfig())
    assert abs(res.value - exact) <= res.error + 1e-15
    assert abs(res.value - exact) <= 1e-8 * abs(exact)


def test_each_part_meets_rel_tol_of_itself():
    # the imaginary part sits 1e-10 below the real one and has structure
    # of its own; a test on |I| would stop long before it is resolved
    f = lambda x: 1.0 / (1.0 + x * x) + 1e-10j * np.cos(30.0 * x)
    res = _finite(f, 0.0, 1.0, QuadratureConfig(rel_tol=1e-8))
    exact_im = 1e-10 * math.sin(30.0) / 30.0
    assert abs(res.value.real - math.pi / 4.0) <= 1e-8 * math.pi / 4.0
    assert abs(res.value.imag - exact_im) <= 1e-8 * abs(exact_im)


def test_halving_rel_tol_stays_within_reported_error():
    f = lambda x: 1.0 / (1.0 + 25.0 * x * x)
    for tol in (1e-4, 1e-6, 1e-8):
        first = _finite(f, 0.0, 2.0, QuadratureConfig(rel_tol=tol))
        second = _finite(f, 0.0, 2.0, QuadratureConfig(rel_tol=tol / 2))
        assert abs(second.value - first.value) <= first.error + 1e-16


def test_linearity():
    rng = np.random.default_rng(2024)
    alpha = complex(rng.normal(), rng.normal())
    beta = complex(rng.normal(), rng.normal())
    f = lambda x: np.exp(-x) * np.sin(3.0 * x)
    g = lambda x: 1.0 / (1.0 + x * x)
    cfg = QuadratureConfig()
    combo = _finite(lambda x: alpha * f(x) + beta * g(x), 0.0, 3.0, cfg)
    f_res = _finite(f, 0.0, 3.0, cfg)
    g_res = _finite(g, 0.0, 3.0, cfg)
    budget = combo.error + abs(alpha) * f_res.error + abs(beta) * g_res.error
    assert abs(combo.value - (alpha * f_res.value + beta * g_res.value)) \
        <= budget + 1e-14


def test_determinism_bitwise():
    f = lambda x: np.sin(7.0 * x) / (1.0 + x)
    a = _finite(f, 0.0, 5.0, QuadratureConfig())
    b = _finite(f, 0.0, 5.0, QuadratureConfig())
    assert a.value == b.value
    assert a.error == b.error


# -------------------------------------------------------------- subdivision

def test_budget_exhaustion_returns_error_with_best_estimate():
    # integrable singularity inside the panel: 8 bisections cannot reach
    # 1e-8, so the budget trips and the partial answer rides along
    f = lambda x: np.abs(x - 0.3) ** -0.5
    cfg = QuadratureConfig(max_subdivisions=8)
    err = _finite(f, 0.0, 1.0, cfg)
    assert isinstance(err, QuadratureError)
    assert np.isfinite(err.best_estimate.real)
    assert 0.0 < err.best_estimate.real < 10.0
    assert err.error_bound > 0.0


def test_breakpoints_are_only_an_accelerator():
    # kink at 1/3; exact integral of |x - 1/3| over [0, 1] is 5/18
    f = lambda x: np.abs(x - 1.0 / 3.0)
    cfg = QuadratureConfig()
    plain = _finite(f, 0.0, 1.0, cfg)
    seeded = _finite(f, 0.0, 1.0, cfg, breakpoints=[1.0 / 3.0])
    exact = 5.0 / 18.0
    assert abs(plain.value - exact) <= 1e-10 * exact
    assert abs(seeded.value - exact) <= 1e-12 * exact
    assert abs(plain.value - seeded.value) <= plain.error + seeded.error


def test_power_tail_breakpoints_mapped():
    # far-out lorentzian bump; its center must survive the u-substitution
    f = lambda t: 1.0 / (1.0 + (t - 5.0) ** 2)
    exact = math.pi / 2.0 + math.atan(5.0)
    [res] = integrate_power_tails(_one(f), [1.0], [[5.0]], QuadratureConfig())
    assert abs(res.value - exact) <= 1e-8 * exact


def test_power_tail_seed_at_the_pole_of_the_map_is_dropped():
    # t = 1e15 maps within 1e-15 of u = 1, where the nodes of [u, 1] round
    # onto the pole of the map
    f = lambda t, owner: 1.0 / (1.0 + t) ** 2
    assert integrate_power_tails(f, [1.0], [[1e15]]) == integrate_power_tails(f, [1.0], [[]])


def test_domain_validation():
    cfg = QuadratureConfig()
    with pytest.raises(DomainError):
        _finite(np.sin, 1.0, 1.0, cfg)
    with pytest.raises(DomainError):
        _finite(np.sin, 2.0, 1.0, cfg)
    with pytest.raises(DomainError):
        integrate_power_tails(_one(np.exp), [-1.0], [()], cfg)


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.1, 50.0), n=st.integers(0, 6))
def test_monomials_exact(b, n):
    res = _finite(lambda x: x**n, 0.0, b, QuadratureConfig())
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


def _pick_key(errs, tols):
    """max_j err_j / tol_j: a part with error 0 adds 0, NaN wins."""
    ratios = [math.nan if math.isnan(e) else 0.0 if e == 0.0 else math.inf if t == 0.0
              else e / t for e, t in zip(errs, tols)]
    return math.nan if any(map(math.isnan, ratios)) else max(ratios)


def _heap_entry(key, counter, panel):
    """Heap order of the engine's argmax: NaN keys first, then larger
    keys, ties by insertion counter."""
    return (0, 0.0, counter, panel) if math.isnan(key) else (1, -key, counter, panel)


def _serial_reference(f, a, b, cfg, breakpoints=(), splits=None):
    """The one-integral adaptive loop with one GK15 call per panel.

    The real and the imaginary part keep their own sums and errors, and
    the loop runs while some part's error exceeds max(rel_tol |I_j|,
    abs_tol); a panel's heap key is max_j err_j / tol_j against the
    tolerances of the round it is made in. Returns (value, error), the
    error the hypot of the parts', or the QuadratureError of a spent
    budget; splits, if given, collects the (lo, hi) of every panel popped.
    """
    from adaptive import _NODES, _WEIGHTS_G, _WEIGHTS_K

    def gk15(lo, hi):
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv = np.asarray(f(center + half * _NODES), dtype=complex)
        vals, errs = [], []
        for part in (np.ascontiguousarray(fv.real), np.ascontiguousarray(fv.imag)):
            resk = np.sum(_WEIGHTS_K * part)
            resg = np.sum(_WEIGHTS_G * part)
            resabs = float(np.sum(_WEIGHTS_K * np.abs(part))) * half
            resasc = float(np.sum(_WEIGHTS_K * np.abs(part - 0.5 * resk))) * half
            err = float(abs(resk - resg)) * half
            if resasc != 0.0 and err != 0.0:
                err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
            if resabs > 0.0:
                err = max(err, 50.0 * np.finfo(float).eps * resabs)
            vals.append(float(resk) * half)
            errs.append(err)
        return vals, errs

    def tolerances(total):
        return [max(cfg.rel_tol * abs(t), cfg.abs_tol) for t in total]

    edges = [a] + sorted({float(x) for x in breakpoints if a < x < b}) + [b]
    seeds = [(lo, hi, *gk15(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    total, total_err = [0.0, 0.0], [0.0, 0.0]
    for _, _, val, err in seeds:
        for j in range(2):
            total[j] += val[j]
            total_err[j] += err[j]
    tol = tolerances(total)
    heap = [_heap_entry(_pick_key(err, tol), i, (lo, hi, val, err))
            for i, (lo, hi, val, err) in enumerate(seeds)]
    heapq.heapify(heap)
    counter, subdivisions = len(heap), 0
    while any(e > t for e, t in zip(total_err, tol)):
        if subdivisions >= cfg.max_subdivisions:
            value = np.complex128(complex(*total))
            bound = np.float64(abs(complex(*total_err)))
            return QuadratureError(
                f"integral not converged after {subdivisions} subdivisions "
                f"(estimate {value!r}, error bound {bound:.3e})",
                best_estimate=value, error_bound=bound)
        lo, hi, val, err = heapq.heappop(heap)[3]
        subdivisions += 1
        if splits is not None:
            splits.append((lo, hi))
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, _heap_entry(0.0, counter, (lo, hi, val, err)))
            counter += 1
            continue
        (v1, e1), (v2, e2) = gk15(lo, mid), gk15(mid, hi)
        for j in range(2):
            total[j] += v1[j] + v2[j] - val[j]
            total_err[j] += e1[j] + e2[j] - err[j]
        heapq.heappush(heap, _heap_entry(_pick_key(e1, tol), counter, (lo, mid, v1, e1)))
        heapq.heappush(heap, _heap_entry(_pick_key(e2, tol), counter + 1, (mid, hi, v2, e2)))
        counter += 2
        tol = tolerances(total)
    return complex(*total), abs(complex(*total_err))


def test_batch_matches_separate_integrals_bitwise():
    cfg = QuadratureConfig(rel_tol=1e-10)
    fs, a, b, breaks = zip(*BATCH_CASES)
    batch_calls = []
    results = integrate_lockstep(_batched(fs, batch_calls), a, b, cfg, _padded(breaks))
    single_calls = []
    for (f, lo, hi, bp), res in zip(BATCH_CASES, results):
        calls = []
        single = _finite(_counted(f, calls), lo, hi, cfg, breakpoints=bp)
        single_calls.append(len(calls))
        assert res.value == single.value
        assert res.error == single.error
        assert (single.value, single.error) == _serial_reference(f, lo, hi, cfg, bp)
    assert single_calls[0] == 1
    assert max(single_calls) >= 100
    # lockstep: one call per round, as many rounds as the slowest member
    assert len(batch_calls) == max(single_calls)


def _first_error(outcomes):
    """The error a caller raising the first failure of a batch raises."""
    return next(o for o in outcomes if isinstance(o, QuadratureError))


def test_first_error_of_a_batch_is_the_lowest_failing_integrals_own():
    cfg = QuadratureConfig(max_subdivisions=8)
    fs = [
        lambda x: x * x,
        lambda x: np.abs(x - 0.3) ** -0.5,
        lambda x: 1.0 / (1e-8 + (x - 0.7) ** 2),
    ]
    single = _finite(fs[1], 0.0, 1.0, cfg)
    assert isinstance(single, QuadratureError)
    batch = _first_error(integrate_lockstep(_batched(fs, []), [0.0] * 3, [1.0] * 3, cfg))
    assert str(batch) == str(single)
    assert batch.best_estimate == single.best_estimate
    assert batch.error_bound == single.error_bound
    # a failing member behind converging ones gives its own error
    ok = [fs[0], fs[0], fs[2]]
    last = _first_error(integrate_lockstep(_batched(ok, []), [0.0] * 3, [1.0] * 3, cfg))
    alone = _finite(fs[2], 0.0, 1.0, cfg)
    assert isinstance(alone, QuadratureError)
    assert last.best_estimate == alone.best_estimate


def test_batch_domain_validation():
    with pytest.raises(DomainError):
        integrate_lockstep(_batched([np.sin, np.sin], []), [0.0, 1.0], [1.0, 1.0])
    assert integrate_lockstep(_batched([], []), [], []) == []


def _same_outcome(got, want):
    if isinstance(want, QuadratureError):
        assert isinstance(got, QuadratureError)
        assert str(got) == str(want)
        assert got.best_estimate == want.best_estimate
        assert got.error_bound == want.error_bound
    else:
        assert (got.value, got.error) == (want.value, want.error)


def test_lockstep_outcomes_match_separate_runs_past_failures():
    cfg = QuadratureConfig(max_subdivisions=8)
    fs = [
        lambda x: x * x,
        lambda x: np.abs(x - 0.3) ** -0.5,
        np.sin,
        lambda x: 1.0 / (1e-8 + (x - 0.7) ** 2),
        lambda x: np.exp(1j * 3.0 * x),
    ]
    outcomes = integrate_lockstep(_batched(fs, []), [0.0] * 5, [1.0] * 5, cfg)
    singles = [_finite(f, 0.0, 1.0, cfg) for f in fs]
    assert [isinstance(s, QuadratureError) for s in singles] == [
        False, True, False, True, False]
    for got, want in zip(outcomes, singles):
        _same_outcome(got, want)


def _same_as_reference(got, want):
    """Outcome got equals the serial reference's, bit for bit (NaN too)."""
    if isinstance(want, QuadratureError):
        _same_outcome(got, want)
        return
    assert isinstance(got, QuadResult)
    assert repr((got.value, got.error)) == repr(want)


def _recorded(f, log):
    def g(x):
        log.append(np.array(x))
        return f(x)

    return g


def test_error_finish_ufuncs_give_python_bits():
    # the engine's error estimate relies on these ufuncs running the
    # same libm hypot and pow as Python's complex abs and float **
    rng = np.random.default_rng(11)
    z = rng.standard_normal(20000) * 10.0 ** rng.uniform(-300, 300, 20000)
    w = rng.standard_normal(20000) * 10.0 ** rng.uniform(-300, 300, 20000)
    x = rng.uniform(0.0, 1.0, 20000) * 10.0 ** rng.uniform(-40, 3, 20000)
    edge = [0.0, 5e-324, 1e-310, 1.0, np.inf, np.nan]
    z, w, x = np.r_[z, edge, edge], np.r_[w, edge, edge[::-1]], np.r_[x, edge]
    assert repr(np.hypot(z, w).tolist()) == repr([abs(complex(p, q)) for p, q in zip(z, w)])
    assert repr(np.float_power(x, 1.5).tolist()) == repr([v ** 1.5 for v in x.tolist()])


def test_equal_error_children_split_in_insertion_order():
    # a constant's children always tie on error (the 50 eps floor), so
    # only the insertion counter orders the splits; rel_tol sits below
    # that floor and the budget decides the end
    cfg = QuadratureConfig(rel_tol=1e-15, max_subdivisions=40)
    f = lambda x: np.full(x.shape, 1.0 + 1.0j)
    ref_nodes, nodes, splits = [], [], []
    want = _serial_reference(_recorded(f, ref_nodes), 0.0, 3.0, cfg, (1.0,), splits)
    got = integrate_lockstep(_batched([_recorded(f, nodes)], []), [0.0], [3.0], cfg, [(1.0,)])[0]
    _same_as_reference(got, want)
    # the three unit panels tie; (0, 1), seeded first, goes first
    assert splits[:4] == [(1.0, 3.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    # the engine halves the same panels in the same order
    assert np.array_equal(np.concatenate([x.ravel() for x in nodes]),
                          np.concatenate([x.ravel() for x in ref_nodes]))


@pytest.mark.parametrize("max_subdivisions", [3, 30, 300])
def test_panel_at_resolution_limit(max_subdivisions):
    eps = np.finfo(float).eps
    cases = [
        # a double pole at 1: halving runs out of floats next to it
        (lambda x: 1.0 / ((x - 1.0) ** 2 + 1e-300), 1.0, 1.0 + 4 * eps, ()),
        # a one-ulp seed panel, the worst, cannot be halved; it goes back
        # with error 0 and the wide panel refines in its place
        (lambda x: np.where(x == 1.0, 1e20, np.sin(40.0 * x)), 1.0, 2.0, (1.0 + eps,)),
    ]
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=max_subdivisions)
    fs, a, b, breaks = zip(*cases)
    outcomes = integrate_lockstep(_batched(fs, []), a, b, cfg, _padded(breaks))
    for (f, lo, hi, bp), got in zip(cases, outcomes):
        splits = []
        want = _serial_reference(f, lo, hi, cfg, bp, splits)
        assert any(0.5 * (p + q) in (p, q) for p, q in splits)
        assert isinstance(want, QuadratureError)
        _same_as_reference(got, want)
    # the wide panel of the last case was split after all
    assert (1.0 + eps, 2.0) in splits


def test_mixed_batch_matches_serial_reference():
    eps = np.finfo(float).eps
    cases = [
        # converges on its seed panels
        (lambda x: x**3 - x, 0.0, 2.0, (1.0,)),
        # out of budget
        (lambda x: (np.abs(x - 0.3) + 1e-15) ** -0.9, 0.0, 1.0, ()),
        # reaches floating-point resolution, then the budget
        (lambda x: 1.0 / ((x - 1.0) ** 2 + 1e-300), 1.0, 1.0 + 4 * eps, ()),
        # a repeated and an outside breakpoint
        (lambda x: np.exp(1j * 4.0 * x) / (1.0 + x), 0.0, 5.0, (1.0, 2.0, 2.0, 9.0)),
        # NaN from the first round on: stops at once, as alone
        (lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0, ()),
        # NaN only inside a sliver that a later round reaches
        (lambda x: np.where(np.abs(x - 0.6) < 1e-4, np.nan, 1.0 / (1e-4 + (x - 0.6) ** 2)),
         0.0, 1.0, ()),
    ]
    cfg = QuadratureConfig(rel_tol=1e-12, max_subdivisions=60)
    fs, a, b, breaks = zip(*cases)
    outcomes = integrate_lockstep(_batched(fs, []), a, b, cfg, _padded(breaks))
    wants = [_serial_reference(f, lo, hi, cfg, bp) for f, lo, hi, bp in cases]
    kinds = [type(w).__name__ for w in wants]
    assert kinds == ["tuple", "QuadratureError", "QuadratureError", "tuple", "tuple", "tuple"]
    assert np.isnan(wants[4][0]) and np.isnan(wants[5][0])
    for got, want in zip(outcomes, wants):
        _same_as_reference(got, want)


_FAMILIES = [
    lambda x, p: np.sin(p[0] * x) / (1.0 + p[1] * x * x),
    lambda x, p: (np.abs(x - p[2]) + 1e-9) ** -0.4,
    lambda x, p: 1.0 / (p[3] + (x - p[2]) ** 2),
    lambda x, p: np.exp(1j * p[0] * x) * np.sqrt(np.abs(x - p[2])),
    lambda x, p: np.where(x < p[2], 1.0, 2.0 + 0.5j),
]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), max_subdivisions=st.sampled_from([2, 15, 2000]),
       rel_tol=st.sampled_from([1e-5, 1e-9, 1e-13]))
def test_lockstep_equals_serial_reference_property(data, n, max_subdivisions, rel_tol):
    unit = st.floats(0.0, 1.0)
    fams = data.draw(st.lists(st.integers(0, len(_FAMILIES) - 1), min_size=n, max_size=n))
    pars = [(1.0 + 60.0 * data.draw(unit), 0.1 + 50.0 * data.draw(unit),
             0.05 + 0.9 * data.draw(unit), 10.0 ** (-8.0 + 6.0 * data.draw(unit)))
            for _ in range(n)]
    a = [-1.0 + data.draw(unit) for _ in range(n)]
    b = [lo + 0.1 + 2.0 * data.draw(unit) for lo in a]
    breaks = [data.draw(st.lists(st.floats(-1.0, 3.0), max_size=4)) for _ in range(n)]
    fs = [lambda x, k=k, p=p: _FAMILIES[k](x, p) for k, p in zip(fams, pars)]
    cfg = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=max_subdivisions)
    outcomes = integrate_lockstep(_batched(fs, []), a, b, cfg, _padded(breaks))
    for f, lo, hi, bp, got in zip(fs, a, b, breaks, outcomes):
        _same_as_reference(got, _serial_reference(f, lo, hi, cfg, bp))
