"""Adaptive one-dimensional quadrature for complex integrands.

One engine serves every integral in the package: a globally adaptive
Gauss-Kronrod 15(7) rule with deterministic panel subdivision
(worst-panel-first, ties broken by insertion order), so repeated runs
produce bit-identical results. integrate_lockstep refines N integrals in
lockstep, one integrand call per round, and returns one outcome per
integral: a QuadResult or that integral's own QuadratureError.
integrate_batch raises the lowest-index error instead, and the scalar
entry points are batches of one. A scalar integrand f(x) gets a 1-D node
array of any length; a batched one, f(x, owner), gets an (m, 15) block
of nodes plus the (m,) indices of the integrals owning its rows. Both
return values shaped like x, and a node's value may not depend on the
others.

Semi-infinite integrals come in two contractual flavors: exponentially
decaying tails are accumulated window by window, window n of every open
integral in one batch (integrate_exp_tails), and power-law tails are
mapped onto [0, 1) via t = a + s u/(1 - u) (integrate_power_tails).

Endpoint algebraic singularities are never handled here; callers remove
them by substitution first (see the spectral module), which is what
makes a fixed interior rule adequate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
# Standard published abscissae/weights (even nodes are the Gauss points).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

# full node vector, ascending: [-x0 ... -x6, 0, x6 ... x0]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Gauss weights live on nodes 1, 3, 5, ... (odd indices of the 15-vector)
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets shared by every integral."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000
    tail_cut: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise DomainError("rel_tol must be > 0")
        if not (self.abs_tol >= 0):
            raise DomainError("abs_tol must be >= 0")
        if not (self.max_subdivisions >= 1):
            raise DomainError("max_subdivisions must be >= 1")
        if not (0 < self.tail_cut < 1):
            raise DomainError("tail_cut must be in (0, 1)")

    def inner(self) -> "QuadratureConfig":
        """Budget for an integral nested inside another one.

        Inner integrals run a factor 10 tighter so the outer rule's
        error model stays valid.
        """
        return QuadratureConfig(
            rel_tol=self.rel_tol / 10.0,
            abs_tol=self.abs_tol / 10.0,
            max_subdivisions=self.max_subdivisions,
            tail_cut=self.tail_cut,
        )


class QuadResult(NamedTuple):
    value: complex
    error: float


def _gk15(f: Callable, panels: list):
    """Gauss-Kronrod 15(7) on panels (owner, lo, hi) in one call of f.

    Returns (values, errors) as lists of Python scalars. Sums run along
    the 15-node axis, so no panel's result depends on the rest.
    """
    owner, lo, hi = (np.asarray(col) for col in zip(*panels))
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fv = np.ascontiguousarray(f(nodes, owner), dtype=complex)
    resk = np.sum(_WEIGHTS_K * fv, axis=1)
    resg = np.sum(_WEIGHTS_G * fv, axis=1)
    resabs = np.sum(_WEIGHTS_K * np.abs(fv), axis=1) * half
    # variation measure, sharpened error estimate as in classic QUADPACK
    resasc = np.sum(_WEIGHTS_K * np.abs(fv - (0.5 * resk)[:, None]), axis=1) * half
    errors = []
    for diff, h, asc, absval in zip((resk - resg).tolist(), half.tolist(),
                                    resasc.tolist(), resabs.tolist()):
        err = abs(diff) * h
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        if absval > 0.0:
            err = max(err, 50.0 * _EPS * absval)
        errors.append(err)
    return (resk * half).tolist(), errors


def integrate_lockstep(
    f: Callable,
    a: Sequence[float],
    b: Sequence[float],
    cfg: QuadratureConfig | None = None,
    breakpoints: Sequence[Sequence[float]] | None = None,
) -> list:
    """Outcomes of a batched f over [a[i], b[i]], refined in lockstep.

    Integral i, seeded at breakpoints[i], keeps its own panel heap,
    tolerance test and budget, taking exactly the steps it would take
    alone; each round evaluates the children of all unconverged ones in
    one call. Outcome i is a QuadResult, or the QuadratureError of
    integral i if its budget ran out.
    """
    cfg = cfg or QuadratureConfig()
    n = len(a)
    if n == 0:
        return []
    panels = []
    for i in range(n):
        if not (a[i] < b[i]):
            raise DomainError("integration requires a < b")
        cuts = breakpoints[i] if breakpoints is not None else ()
        edges = [a[i]] + sorted({float(x) for x in cuts if a[i] < x < b[i]}) + [b[i]]
        panels += [(i, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    heaps = [[] for _ in range(n)]
    counters = [0] * n
    totals = [0.0 + 0.0j] * n
    errors = [0.0] * n
    subdivisions = [0] * n
    for (i, lo, hi), val, err in zip(panels, *_gk15(f, panels)):
        heapq.heappush(heaps[i], (-err, counters[i], lo, hi, val, err))
        counters[i] += 1
        totals[i] += val
        errors[i] += err

    active = range(n)
    failed = set()
    while True:
        panels, parents = [], []
        for i in active:
            while errors[i] > max(cfg.rel_tol * abs(totals[i]), cfg.abs_tol):
                if subdivisions[i] >= cfg.max_subdivisions:
                    failed.add(i)
                    break
                parent = heapq.heappop(heaps[i])
                lo, hi = parent[2], parent[3]
                mid = 0.5 * (lo + hi)
                subdivisions[i] += 1
                if mid <= lo or mid >= hi:
                    # panel at floating-point resolution; accept its estimate
                    heapq.heappush(heaps[i], (0.0, counters[i]) + parent[2:])
                    counters[i] += 1
                    continue
                panels += [(i, lo, mid), (i, mid, hi)]
                parents.append(parent)
                break
        if not parents:
            break
        values, errs = _gk15(f, panels)
        for j, parent in enumerate(parents):
            (i, lo, mid), (_, _, hi) = panels[2 * j:2 * j + 2]
            (v1, v2), (e1, e2) = values[2 * j:2 * j + 2], errs[2 * j:2 * j + 2]
            totals[i] += v1 + v2 - parent[4]
            errors[i] += e1 + e2 - parent[5]
            heapq.heappush(heaps[i], (-e1, counters[i], lo, mid, v1, e1))
            heapq.heappush(heaps[i], (-e2, counters[i] + 1, mid, hi, v2, e2))
            counters[i] += 2
        active = [i for i, _, _ in panels[::2]]

    outcomes = []
    for i in range(n):
        if i not in failed:
            outcomes.append(QuadResult(complex(totals[i]), float(errors[i])))
            continue
        total, total_err = np.complex128(totals[i]), np.float64(errors[i])
        outcomes.append(QuadratureError(
            f"integral not converged after {subdivisions[i]} subdivisions "
            f"(estimate {total!r}, error bound {total_err:.3e})",
            best_estimate=total,
            error_bound=total_err,
        ))
    return outcomes


def _raise_first(outcomes: list) -> list:
    """The outcomes, all QuadResults, or raise the first QuadratureError."""
    for outcome in outcomes:
        if isinstance(outcome, QuadratureError):
            raise outcome
    return outcomes


def integrate_batch(
    f: Callable,
    a: Sequence[float],
    b: Sequence[float],
    cfg: QuadratureConfig | None = None,
    breakpoints: Sequence[Sequence[float]] | None = None,
) -> list:
    """QuadResults of integrate_lockstep, or raise the QuadratureError
    of the lowest-index integral out of budget."""
    return _raise_first(integrate_lockstep(f, a, b, cfg, breakpoints))


def _batch_of_one(f: Callable) -> Callable:
    return lambda x, owner: np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)


def integrate_finite(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Adaptive integral of a complex-valued scalar integrand f over [a, b].

    breakpoints seed the initial panel layout at known interior structure
    (kept out of the contract tolerance logic; purely a convergence aid).

    Raises QuadratureError with the best estimate attached if the
    subdivision budget runs out before the tolerance is met.
    """
    return integrate_batch(_batch_of_one(f), [a], [b], cfg, [breakpoints])[0]


def integrate_power_tails(
    f: Callable,
    a: float,
    scales: Sequence[float],
    breakpoints: Sequence[Sequence[float]],
    cfg: QuadratureConfig | None = None,
) -> list:
    """QuadResults of a batched f over [a, infinity) for |f| = O(t^-2).

    Integral i maps t = a + s u/(1 - u), s = scales[i], onto u in [0, 1),
    its seed breakpoints[i] (values of t) with it.
    """
    s_rows = np.asarray(scales, dtype=float)[:, None]

    def mapped(u, owner):
        one_minus = 1.0 - u
        s = s_rows[owner]
        return f(a + s * u / one_minus, owner) * (s / (one_minus * one_minus))

    n = len(scales)
    u_breaks = [[(t - a) / (t - a + s) for t in cuts if t > a]
                for s, cuts in zip(scales, breakpoints)]
    return integrate_batch(mapped, [0.0] * n, [1.0] * n, cfg, u_breaks)


def integrate_exp_tails(
    f: Callable,
    a: float,
    scales: Sequence[float],
    breakpoints: Sequence[Sequence[float]],
    cfg: QuadratureConfig | None = None,
) -> list:
    """Outcomes of a batched f over [a, infinity), |f| = O(exp(-t/s)).

    Integral i, s = scales[i], runs windows of width 10 s from a, its
    seed breakpoints[i] in the first, until window n >= 1 adds at most
    max(tail_cut |total|, abs_tol); the geometric continuation then
    bounds the discarded tail well below tail_cut * |result|. Window n
    of every open integral is one integrate_lockstep batch. Outcome i is
    a QuadResult, or the QuadratureError of a window out of budget or of
    a tail still open after 100 windows.
    """
    cfg = cfg or QuadratureConfig()
    if not all(s > 0 for s in scales):
        raise DomainError("decay_scale must be > 0")
    max_windows = 100
    n = len(scales)
    los, totals, errors = [float(a)] * n, [0.0 + 0.0j] * n, [0.0] * n
    outcomes = [None] * n
    active = list(range(n))
    for w in range(max_windows):
        rows = np.array(active)
        his = [los[i] + 10.0 * float(scales[i]) for i in active]
        results = integrate_lockstep(lambda x, owner: f(x, rows[owner]),
                                     [los[i] for i in active], his, cfg,
                                     [breakpoints[i] if w == 0 else () for i in active])
        for i, hi, res in zip(active, his, results):
            if isinstance(res, QuadResult):
                totals[i] += res.value
                errors[i] += res.error
                if not (w >= 1 and abs(res.value) <= max(cfg.tail_cut * abs(totals[i]),
                                                         cfg.abs_tol)):
                    los[i] = hi
                    continue
                res = QuadResult(complex(totals[i]), float(errors[i]))
            outcomes[i] = res
        active = [i for i in active if outcomes[i] is None]
        if not active:
            return outcomes
    for i in active:
        outcomes[i] = QuadratureError(f"exponential tail not closed after {max_windows} windows",
                                      best_estimate=totals[i], error_bound=errors[i])
    return outcomes


def integrate_semi_infinite_decaying(
    f: Callable,
    a: float,
    decay_scale: float,
    cfg: QuadratureConfig | None = None,
    tail: str = "exp",
    breakpoints: Sequence[float] = (),
) -> QuadResult:
    """Integral of f over [a, infinity) for decaying integrands.

    tail="exp": |f| is eventually dominated by exp(-t/decay_scale);
    integrate_exp_tails with s = decay_scale.

    tail="power": |f| decays at least like t^(-2); integrate_power_tails
    with s = decay_scale.
    """
    if not (decay_scale > 0):
        raise DomainError("decay_scale must be > 0")
    if tail not in ("exp", "power"):
        raise DomainError("tail must be 'exp' or 'power'")
    tails = integrate_power_tails if tail == "power" else integrate_exp_tails
    outcomes = tails(_batch_of_one(f), a, [float(decay_scale)], [breakpoints], cfg)
    return _raise_first(outcomes)[0]
