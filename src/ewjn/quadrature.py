"""Adaptive one-dimensional quadrature for complex integrands.

Three integrators serve every integral in the package, and all three
share one contract: they take a batch of N integrals and return one
outcome per integral, a QuadResult or that integral's own
QuadratureError, with the bits the integral gets when run alone.
Callers decide what a failure means; no integrator raises one.

  integrate_lockstep     N finite intervals [a[i], b[i]]
  integrate_power_tails  [a, infinity), |f| = O(t^-2), mapped onto
                         [0, 1) by t = a + s u/(1 - u)
  integrate_exp_tails    [a, infinity), |f| = O(exp(-t/s)), window by
                         window, window n of every open integral in one
                         lockstep run

The rule is a globally adaptive Gauss-Kronrod 15(7) with deterministic
panel subdivision (worst-panel-first, ties broken by insertion order),
so repeated runs produce bit-identical results. The N integrals refine
in lockstep, one integrand call per round: the integrand f(x, owner)
gets an (m, 15) block of nodes plus the (m,) indices of the integrals
owning its rows, and returns values shaped like x; a node's value may
not depend on the others.

The engine's state lives in arrays, so a round costs a fixed number of
numpy calls however many integrals are open: a row of panels (lo, hi,
value, error, in the order made) per unconverged integral, and totals,
errors and subdivision counts per integral. The argmax of a row, the
earliest of equal errors, is the worst-first, insertion-order pick, and
the error estimate uses np.hypot and np.float_power, which give the bits
of Python's abs and **: each integral gets its one-integral result, bit
for bit.

Endpoint algebraic singularities are never handled here; callers remove
them by substitution first (see the spectral module), which is what
makes a fixed interior rule adequate.
"""

from __future__ import annotations

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
# complex copies: the products fv * w then skip a cast, with the same bits
_WEIGHTS_K_C = _WEIGHTS_K.astype(complex)
_WEIGHTS_G_C = _WEIGHTS_G.astype(complex)

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


def _gk15(f: Callable, owner, lo, hi):
    """Gauss-Kronrod 15(7) on panels [lo, hi] in one call of f.

    Returns (values, errors) as arrays. Sums run along the 15-node axis,
    so no panel's result depends on the rest. The error finish is the
    scalar rule's to the bit: np.hypot and np.float_power run the libm
    hypot and pow behind Python's complex abs and float ** (np.abs and
    np.power take vector paths whose bits differ).
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fv = np.ascontiguousarray(f(nodes, owner), dtype=complex)
    resk = (_WEIGHTS_K_C * fv).sum(axis=1)
    resg = (_WEIGHTS_G_C * fv).sum(axis=1)
    resabs = (_WEIGHTS_K * np.abs(fv)).sum(axis=1) * half
    # variation measure, sharpened error estimate as in classic QUADPACK
    resasc = (_WEIGHTS_K * np.abs(fv - (0.5 * resk)[:, None])).sum(axis=1) * half
    diff = resk - resg
    err = np.hypot(diff.real, diff.imag) * half
    sharpen = (resasc != 0.0) & (err != 0.0)
    ratio = np.float_power(np.divide(200.0 * err, resasc, out=np.ones(len(err)),
                                     where=sharpen), 1.5)
    # fmin(ratio, 1) is min(1.0, ratio), NaN included
    err = np.where(sharpen, resasc * np.fmin(ratio, 1.0), err)
    # err >= 0, so the floor only lifts panels with resabs > 0
    floor = 50.0 * _EPS * resabs
    return resk * half, np.where(floor > err, floor, err)


class _PanelRows:
    """The panels of the integrals still refining, one row per integral.

    Row r holds lo, hi, value and error of every panel its integral has
    made, in the order they were made, in the first `used` columns (a
    row may skip a column, whose error stays -inf). A panel that was
    split has error -inf and one at floating-point resolution error 0,
    so the argmax of a row is its worst panel, ties going to the
    earliest, which is the heap order of the serial rule.
    """

    _COLUMNS = ("lo", "hi", "val", "err")

    def __init__(self, lo, hi, val, err):
        self.lo, self.hi, self.val, self.err = lo, hi, val, err
        self.used = lo.shape[1]
        self._widen(self.used + 8)

    def reserve(self, extra: int):
        """Room for extra more columns."""
        if self.used + extra > self.lo.shape[1]:
            self._widen(max(2 * self.lo.shape[1], self.used + extra))

    def _widen(self, cap: int):
        for name in self._COLUMNS:
            old = getattr(self, name)
            grown = np.full((old.shape[0], cap), -np.inf if name == "err" else 0.0,
                            dtype=old.dtype)
            grown[:, :old.shape[1]] = old
            setattr(self, name, grown)

    def keep(self, rows):
        for name in self._COLUMNS:
            setattr(self, name, getattr(self, name)[rows])

    def worst(self):
        """Column and flat index of the worst panel of every row."""
        pos = self.err[:, :self.used].argmax(axis=1)
        cap = self.lo.shape[1]
        return pos, np.arange(0, len(pos) * cap, cap) + pos


def _seed_panels(a, b, breakpoints):
    """(lo, hi) of [a[i], b[i]] cut at the distinct breakpoints[i]
    strictly inside, one row per integral, padded with empty panels."""
    width = max(map(len, breakpoints), default=0) if breakpoints is not None else 0
    if not width:
        return a[:, None], b[:, None]
    cuts = np.full((len(a), width), np.inf)
    for i, row in enumerate(breakpoints):
        cuts[i, :len(row)] = row
    cuts[~((cuts > a[:, None]) & (cuts < b[:, None]))] = np.inf
    cuts.sort(axis=1)
    cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.inf
    cuts.sort(axis=1)
    edges = np.concatenate([a[:, None], np.where(cuts < np.inf, cuts, b[:, None]),
                            b[:, None]], axis=1)
    return edges[:, :-1], edges[:, 1:]


def integrate_lockstep(
    f: Callable,
    a: Sequence[float],
    b: Sequence[float],
    cfg: QuadratureConfig | None = None,
    breakpoints: Sequence[Sequence[float]] | None = None,
) -> list:
    """Outcomes of a batched f over [a[i], b[i]], refined in lockstep.

    Integral i, seeded at breakpoints[i], keeps its own panels,
    tolerance test and budget, taking exactly the steps it would take
    alone; each round evaluates the children of all unconverged ones in
    one call. Outcome i is a QuadResult, or the QuadratureError of
    integral i if its budget ran out.
    """
    cfg = cfg or QuadratureConfig()
    if len(a) == 0:
        return []
    columns = (col.tolist() for col in _lockstep(f, a, b, cfg, breakpoints))
    return [_budget_error(total, error, subs) if out else QuadResult(total, error)
            for total, error, subs, out in zip(*columns)]


def _budget_error(total, error, subdivisions) -> QuadratureError:
    total, error = np.complex128(total), np.float64(error)
    return QuadratureError(
        f"integral not converged after {subdivisions} subdivisions "
        f"(estimate {total!r}, error bound {error:.3e})",
        best_estimate=total,
        error_bound=error,
    )


def _lockstep(f: Callable, a, b, cfg: QuadratureConfig, breakpoints) -> tuple:
    """integrate_lockstep as arrays: the totals, errors, subdivisions and
    out-of-budget flags of the integrals."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(a < b):
        raise DomainError("integration requires a < b")
    n = len(a)
    lo, hi = _seed_panels(a, b, breakpoints)
    seed = lo < hi
    owner = np.nonzero(seed)[0]
    val, err = _gk15(f, owner, lo[seed], hi[seed])
    seed_val, seed_err = np.zeros(lo.shape, dtype=complex), np.full(lo.shape, -np.inf)
    seed_val[seed], seed_err[seed] = val, err
    panels = _PanelRows(lo, hi, seed_val, seed_err)
    # totals and errors add up panel by panel, as in the scalar rule
    totals, errors = np.zeros(n, dtype=complex), np.zeros(n)
    np.add.at(totals, owner, val)
    np.add.at(errors, owner, err)
    subdivisions = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)

    # per-row state of the integrals still refining
    live, tot, tot_err, subs = np.arange(n), totals.copy(), errors.copy(), subdivisions.copy()

    def retire(done, out_of_budget):
        nonlocal live, tot, tot_err, subs
        ids, keep = live[done], ~done
        totals[ids], errors[ids], subdivisions[ids] = tot[done], tot_err[done], subs[done]
        failed[ids] = out_of_budget
        live, tot, tot_err, subs = live[keep], tot[keep], tot_err[keep], subs[keep]
        panels.keep(keep)

    while True:
        need = tot_err > np.maximum(cfg.rel_tol * np.hypot(tot.real, tot.imag), cfg.abs_tol)
        go = need & (subs < cfg.max_subdivisions)
        if np.count_nonzero(go) < go.size:
            retire(~go, need[~go])
            if not live.size:
                break
        pos, at = panels.worst()
        subs += 1
        p_lo, p_hi = panels.lo.take(at), panels.hi.take(at)
        mid = 0.5 * (p_lo + p_hi)
        stuck = (mid <= p_lo) | (mid >= p_hi)
        if np.count_nonzero(stuck):
            spent = np.zeros(live.size, dtype=bool)
            for r in np.flatnonzero(stuck).tolist():
                subs[r], spent[r] = _resolve_stuck(panels, r, int(pos[r]), int(subs[r]),
                                                   cfg.max_subdivisions)
            if spent.any():
                retire(spent, True)
                if not live.size:
                    break
            pos, at = panels.worst()
            p_lo, p_hi = panels.lo.take(at), panels.hi.take(at)
            mid = 0.5 * (p_lo + p_hi)
        m = live.size
        c_lo, c_hi = np.empty((m, 2)), np.empty((m, 2))
        c_lo[:, 0], c_lo[:, 1], c_hi[:, 0], c_hi[:, 1] = p_lo, mid, mid, p_hi
        val, err = _gk15(f, live.repeat(2), c_lo.ravel(), c_hi.ravel())
        val, err = val.reshape(m, 2), err.reshape(m, 2)
        tot += val[:, 0] + val[:, 1] - panels.val.take(at)
        tot_err += err[:, 0] + err[:, 1] - panels.err.take(at)
        # the parent leaves; its children take the next two columns
        panels.err.put(at, -np.inf)
        panels.reserve(2)
        new = slice(panels.used, panels.used + 2)
        panels.lo[:, new], panels.hi[:, new], panels.val[:, new], panels.err[:, new] = \
            c_lo, c_hi, val, err
        panels.used += 2
    return totals, errors, subdivisions, failed


def _resolve_stuck(panels: _PanelRows, r: int, pos: int, subdivisions: int, budget):
    """The resolution-limit rule for row r, whose picked panel pos cannot
    be halved: the panel goes back with error 0 as the row's newest and
    the row picks again while its budget lasts. Returns the subdivision
    count and whether the budget ran out; if not, the argmax of the row
    is the panel to split.
    """
    while True:
        panels.reserve(1)
        new = panels.used
        panels.used += 1
        for name in ("lo", "hi", "val"):
            column = getattr(panels, name)
            column[r, new] = column[r, pos]
        panels.err[r, pos], panels.err[r, new] = -np.inf, 0.0
        if subdivisions >= budget:
            return subdivisions, True
        pos = int(panels.err[r, :panels.used].argmax())
        subdivisions += 1
        lo, hi = panels.lo[r, pos], panels.hi[r, pos]
        mid = 0.5 * (lo + hi)
        if not (mid <= lo or mid >= hi):
            return subdivisions, False


def integrate_power_tails(
    f: Callable,
    a: float,
    scales: Sequence[float],
    breakpoints: Sequence[Sequence[float]],
    cfg: QuadratureConfig | None = None,
) -> list:
    """Outcomes of a batched f over [a, infinity) for |f| = O(t^-2).

    Integral i maps t = a + s u/(1 - u), s = scales[i], onto u in [0, 1),
    its seed breakpoints[i] (values of t) with it, and runs as integral
    i of one integrate_lockstep batch.
    """
    if not all(s > 0 for s in scales):
        raise DomainError("scales must be > 0")
    s_rows = np.asarray(scales, dtype=float)[:, None]

    def mapped(u, owner):
        one_minus = 1.0 - u
        s = s_rows[owner]
        return f(a + s * u / one_minus, owner) * (s / (one_minus * one_minus))

    n = len(scales)
    u_breaks = [[(t - a) / (t - a + s) for t in cuts if t > a]
                for s, cuts in zip(scales, breakpoints)]
    return integrate_lockstep(mapped, [0.0] * n, [1.0] * n, cfg, u_breaks)


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
        raise DomainError("scales must be > 0")
    max_windows = 100
    n = len(scales)
    widths = 10.0 * np.asarray(scales, dtype=float)
    lo, totals, errors = np.full(n, float(a)), np.zeros(n, dtype=complex), np.zeros(n)
    outcomes = [None] * n
    active = np.arange(n)
    for w in range(max_windows):
        if not active.size:
            return outcomes
        hi = lo[active] + widths[active]
        val, err, subs, failed = _lockstep(
            lambda x, owner: f(x, active[owner]), lo[active], hi, cfg,
            [breakpoints[i] for i in active.tolist()] if w == 0 else None)
        for k in np.flatnonzero(failed).tolist():
            outcomes[active[k]] = _budget_error(val[k], err[k], int(subs[k]))
        ok = ~failed
        ids = active[ok]
        totals[ids] += val[ok]
        errors[ids] += err[ok]
        closed = np.zeros(active.size, dtype=bool)
        if w >= 1:
            thresh = np.maximum(cfg.tail_cut * np.hypot(totals[ids].real, totals[ids].imag),
                                cfg.abs_tol)
            closed[ok] = np.hypot(val[ok].real, val[ok].imag) <= thresh
        for i in active[closed].tolist():
            outcomes[i] = QuadResult(complex(totals[i]), float(errors[i]))
        still_open = ~(closed | failed)
        lo[active[still_open]] = hi[still_open]
        active = active[still_open]
    for i in active.tolist():
        outcomes[i] = QuadratureError(f"exponential tail not closed after {max_windows} windows",
                                      best_estimate=complex(totals[i]),
                                      error_bound=float(errors[i]))
    return outcomes
