"""An adaptive Gauss-Kronrod engine: the tests' second method.

The package sums every integral on a log lattice; the tests check those
sums against this globally adaptive rule, an independent method.
integrate_lockstep takes a batch of N integrals over finite intervals
[a[i], b[i]] and returns one outcome per integral, a QuadResult or that
integral's own QuadratureError, with the bits the integral gets when
run alone. It raises none; callers decide what a failure means.

The rule is a Gauss-Kronrod 15(7) with deterministic panel subdivision
(worst panel first, ties by insertion order). The N integrals refine in
lockstep, one integrand call per round: f(x, owner) gets an (m, 15)
block of nodes plus the (m,) indices of the integrals owning its rows
and returns values shaped like x; a node's value may not depend on the
others. In every round each unconverged integral picks its worst panel
once and spends one subdivision on it (max_subdivisions of its
QuadratureConfig in all); a picked panel at floating-point resolution,
which cannot be halved, goes back unsplit with key 0 as the integral's
newest panel and leaves its sums as they are.

The real and the imaginary part of an integral have their own sums and
error estimates, the vector-integrand test of DCUHRE (Berntsen, Espelid
& Genz, ACM TOMS 17, 437, 1991): an integral has converged when the
error of each part j is at most max(rel_tol |I_j|, abs_tol). A panel's
pick key, max_j err_j / tol_j against its integral's tolerances in the
round it is made, is fixed then, so the worst panel is one argmax.

The state lives in plain arrays, a panel table with a row per
unconverged integral that doubles its columns when full. Row argmaxes
pick as a serial heap does, the 15-node sums run along a last,
contiguous axis and np.float_power gives the bits of Python's **.
Endpoint singularities are never handled here; callers remove them by
substitution first.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from ewjn import QuadratureConfig
from ewjn.errors import DomainError, QuadratureError
from ewjn.quadrature import _NODES, _WEIGHTS_K

# the 7-point Gauss weights, on nodes 1, 3, 5, ... of the 15-vector
_WG = np.array([0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
                0.4179591836734694])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = float(np.finfo(float).eps)


class QuadResult(NamedTuple):
    """An integral's value, a bound on |value - exact| and the bounds
    (re, im) on its real and imaginary parts, whose hypot it is."""

    value: complex
    error: float
    part_errors: tuple


def _gk15(f: Callable, owner, lo, hi):
    """Gauss-Kronrod 15(7) on panels [lo, hi] in one call of f.

    Returns (values, errors), each (2, m): the real and the imaginary
    part of every panel, from sums along the 15-node axis, so no panel's
    result depends on the rest. np.float_power runs the libm pow behind
    Python's float ** (np.power takes a vector path whose bits differ).
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    fv = np.asarray(f(nodes, owner), dtype=complex)
    parts = np.empty((2,) + fv.shape)
    parts[0], parts[1] = fv.real, fv.imag
    resk = (_WEIGHTS_K * parts).sum(axis=2)
    resg = (_WEIGHTS_G * parts).sum(axis=2)
    resabs = (_WEIGHTS_K * np.abs(parts)).sum(axis=2) * half
    # variation measure, sharpened error estimate as in classic QUADPACK
    resasc = (_WEIGHTS_K * np.abs(parts - (0.5 * resk)[:, :, None])).sum(axis=2) * half
    err = np.abs(resk - resg) * half
    sharpen = (resasc != 0.0) & (err != 0.0)
    ratio = np.float_power(np.divide(200.0 * err, resasc, out=np.ones(err.shape),
                                     where=sharpen), 1.5)
    # fmin(ratio, 1) is min(1.0, ratio), NaN included
    err = np.where(sharpen, resasc * np.fmin(ratio, 1.0), err)
    # err >= 0, so the floor only lifts panels with resabs > 0
    floor = 50.0 * _EPS * resabs
    return resk * half, np.where(floor > err, floor, err)


def _keys(err, tol):
    """Pick keys max_j err_j / tol_j of panels with part errors err
    (2, ...) against their integrals' tolerances tol, which broadcast
    against err; a part with error 0 adds 0, a NaN error gives NaN."""
    ratio = np.divide(err, tol, out=np.zeros(err.shape), where=err != 0.0)
    return np.maximum(ratio[0], ratio[1])


def _seed_panels(a, b, breakpoints):
    """(lo, hi) of [a[i], b[i]] cut at the distinct breakpoints[i]
    strictly inside, one row per integral, padded with empty panels;
    breakpoints is an inf-padded (n, width) array, or None."""
    if breakpoints is None or not np.size(breakpoints):
        return a[:, None], b[:, None]
    cuts = np.array(breakpoints, dtype=float)
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
    breakpoints: np.ndarray | None = None,
) -> list:
    """Outcomes of a batched f over [a[i], b[i]], refined in lockstep.

    Integral i, seeded at the finite values of row i of the inf-padded
    (n, width) array breakpoints, keeps its own panels,
    tolerance test and budget, taking exactly the steps it would take
    alone; each round evaluates the children of all unconverged ones in
    one call. Outcome i is a QuadResult, or the QuadratureError of
    integral i if its budget ran out.
    """
    cfg = cfg or QuadratureConfig()
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(a < b):
        raise DomainError("integration requires a < b")
    n = len(a)
    if not n:
        return []
    lo, hi = _seed_panels(a, b, breakpoints)
    seed = lo < hi
    owner = np.nonzero(seed)[0]
    val, err = _gk15(f, owner, lo[seed], hi[seed])
    # totals and errors add up panel by panel, as in the scalar rule
    totals, errors = np.zeros((2, n)), np.zeros((2, n))
    np.add.at(totals, (slice(None), owner), val)
    np.add.at(errors, (slice(None), owner), err)
    # The panel table: row r holds lo, hi, part values and errors (leading
    # axis of vals and errs) and pick keys of the panels of integral live[r]
    # in the order they were made, in its first `used` columns (a seed row
    # may skip one, key -inf). A split panel has key -inf and one at
    # floating-point resolution key 0, so a row's argmax is its worst panel,
    # ties going to the earliest: the pick of the serial heap.
    vals, errs = np.zeros((2,) + lo.shape), np.zeros((2,) + lo.shape)
    vals[:, seed], errs[:, seed] = val, err
    tol = np.maximum(cfg.rel_tol * np.abs(totals), cfg.abs_tol)
    keys = np.where(seed, _keys(errs, tol[:, :, None]), -np.inf)
    used = lo.shape[1]
    subdivisions = np.zeros(n, dtype=np.int64)
    failed = np.zeros(n, dtype=bool)

    # per-row state of the integrals still refining
    live, tot, tot_err, subs = np.arange(n), totals.copy(), errors.copy(), subdivisions.copy()
    while True:
        tol = np.maximum(cfg.rel_tol * np.abs(tot), cfg.abs_tol)
        need = (tot_err[0] > tol[0]) | (tot_err[1] > tol[1])
        go = need & (subs < cfg.max_subdivisions)
        if np.count_nonzero(go) < go.size:
            done = ~go
            ids = live[done]
            totals[:, ids], errors[:, ids] = tot[:, done], tot_err[:, done]
            subdivisions[ids], failed[ids] = subs[done], need[done]
            live, subs, lo, hi, keys = (x[go] for x in (live, subs, lo, hi, keys))
            tot, tot_err, tol, vals, errs = (x[:, go] for x in (tot, tot_err, tol, vals, errs))
            if not live.size:
                break
        at = np.arange(0, keys.size, keys.shape[1]) + keys[:, :used].argmax(axis=1)
        subs += 1
        p_lo, p_hi = lo.take(at), hi.take(at)
        mid = 0.5 * (p_lo + p_hi)
        c_lo, c_hi = np.stack([p_lo, mid], axis=1), np.stack([mid, p_hi], axis=1)
        # a panel at floating-point resolution cannot be halved: both its
        # children are itself, so f sees no node outside the panel
        stuck = (mid <= p_lo) | (mid >= p_hi)
        n_stuck = np.count_nonzero(stuck)
        if n_stuck:
            c_lo[stuck], c_hi[stuck] = p_lo[stuck, None], p_hi[stuck, None]
        val, err = _gk15(f, live.repeat(2), c_lo.ravel(), c_hi.ravel())
        val, err = val.reshape(2, -1, 2), err.reshape(2, -1, 2)
        key = _keys(err, tol[:, :, None])
        if n_stuck:
            # the first goes back with key 0 as its row's newest panel, the
            # second never counts, and the row's totals stay as they are
            key[stuck] = 0.0, -np.inf
            kept = tot[:, stuck], tot_err[:, stuck]
        tot += val[:, :, 0] + val[:, :, 1] - vals.reshape(2, -1)[:, at]
        tot_err += err[:, :, 0] + err[:, :, 1] - errs.reshape(2, -1)[:, at]
        if n_stuck:
            tot[:, stuck], tot_err[:, stuck] = kept
        # the parent leaves; its children take the next two columns
        keys.put(at, -np.inf)
        # the table doubles when full; no column from `used` on is read
        while used + 2 > keys.shape[1]:
            lo, hi, vals, errs, keys = (np.concatenate([x, np.zeros_like(x)], axis=-1)
                                        for x in (lo, hi, vals, errs, keys))
        new = slice(used, used + 2)
        lo[:, new], hi[:, new], keys[:, new] = c_lo, c_hi, key
        vals[:, :, new], errs[:, :, new] = val, err
        used += 2
    values = [complex(re, im) for re, im in zip(*totals.tolist())]
    outcomes = []
    for value, bound, parts, subs, out in zip(values, np.hypot(errors[0], errors[1]).tolist(),
                                              zip(*errors.tolist()), subdivisions.tolist(),
                                              failed.tolist()):
        if out:
            value, bound = np.complex128(value), np.float64(bound)
            outcomes.append(QuadratureError(
                f"integral not converged after {subs} subdivisions "
                f"(estimate {value!r}, error bound {bound:.3e})",
                best_estimate=value, error_bound=bound))
        else:
            outcomes.append(QuadResult(value, bound, parts))
    return outcomes
