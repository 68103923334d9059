"""The package's quadrature settings and the fixed rules its sums use.

Every integral in the package is a trapezoid sum on a log lattice whose
step h halves until the sum meets rel_tol, and that lattice rule lives
here: lattice_sums owns the one loop over the halvings of h, and the
spectral and bulk modules supply each level's sums. Its first call asks
for h = H0 and H0/2 together, so a lattice's kernel runs once for both,
on the nodes at H0/2, whose even ones are the lattice at H0; each later
call asks for one halving, whose new nodes are the odd ones; _refine,
_within and _runs build the lattices and lay runs of their nodes end to
end, and _distinct groups points by omega. Every sum is a run of terms
laid end to end with the others and added by np.add.reduceat (_summed):
its first term plus the pairwise sum of the rest, in blocks of at most
128 terms in 8 running sums, then halves. A term meets at most d = 26 +
log2(n/128) roundings, so a run of n errs by at most d u/(1 - d u) Sum
|t|, u = eps/2 (N. J. Higham, SIAM J. Sci. Comput. 14, 783 (1993)): under
ROUNDING Sum |t| below 2^80 terms, and its bits are its terms' alone.
Two fixed sets ride along: the Gauss-Kronrod 15-point nodes, on which
nonlocal_model builds G's rule, and Gregory's end correction of a
trapezoid sum cut at a point where its summand does not vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]:
# the published abscissae and weights, nodes ascending
_XGK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
                 0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
                 0.2077849550078985, 0.0])
_WGK = np.array([0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
                 0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
                 0.2044329400752989, 0.2094821410847278])
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])

# Gregory's end correction with 8 weights, exact over 10!: the trapezoid sum
# plus h Sum_j GREGORY[j] f_j, j counted from the end, is exact for every
# polynomial of degree 7 (it is -h Sum_k G_(k+1) Delta^k f_0, k < 8, with
# Gregory's coefficients G, x/ln(1 + x) = Sum_n G_n x^n)
GREGORY = np.array([-744383, 1908311, -2696283, 2899075, -2134045, 1012293, -278921,
                    33953]) / 3628800


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of every lattice sum: each meets max(rel_tol |S|,
    abs_tol) with its error, and max_subdivisions caps the halvings of
    its step h (at most 4 are taken)."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise DomainError("rel_tol must be > 0")
        if not (self.abs_tol >= 0):
            raise DomainError("abs_tol must be >= 0")
        if not (self.max_subdivisions >= 1):
            raise DomainError("max_subdivisions must be >= 1")


# Every lattice starts at step H0 and halves it at most MAX_HALVINGS times;
# a sum's summands round by at most ROUNDING times the sum of their moduli
H0, MAX_HALVINGS = 0.25, 4
EPS = float(np.finfo(float).eps)
ROUNDING = 50.0 * EPS


def not_converged(model, cfg, chi_zz, err):
    """The QuadratureError of a point whose sums missed rel_tol."""
    return QuadratureError(
        f"{model} lattice sums not converged after {min(MAX_HALVINGS, cfg.max_subdivisions)} "
        f"halvings of h (estimate {chi_zz!r}, error bound {err:.3e})",
        best_estimate=chi_zz, error_bound=err)


def lattice_sums(count, sums, cfg):
    """(values, errors, missed), (count, sums), (count, sums) and (count,), of
    count points' lattice sums at their last level: sums(levels, live)
    gives (values, errors), (len(levels), live.size, sums), of the live
    points at h = H0/2^level for each level of the range levels. The first
    call asks for levels 0 and 1 together, so each lattice's kernel runs
    once for both steps and the coarse sum reads its nodes from the fine
    one; each later call asks for one level. From level 1 each error adds
    |S_h - S_2h| and a point stops once each of its sums S meets
    max(rel_tol |S|, abs_tol). A point whose value or error is not finite
    stops at once, its level-1 sums in the first call unread; one still
    live after min(MAX_HALVINGS, max_subdivisions) halvings is missed."""
    live, missed = np.arange(count), np.zeros(count, dtype=bool)
    values = errors = np.zeros((count, 0))
    last = min(MAX_HALVINGS, cfg.max_subdivisions)
    for levels in [range(2)] + [range(level, level + 1) for level in range(2, last + 1)]:
        if not live.size:
            break
        # on: which of the asked points are still live at each level of the call
        asked, on = sums(levels, live), np.ones(live.size, dtype=bool)
        for level, value, error in zip(levels, *asked):
            value, error = value[on], error[on]
            with np.errstate(over="ignore", invalid="ignore"):
                if level:
                    error = error + np.abs(value - values[live])
                else:
                    values, errors = np.zeros((2, count, value.shape[1]))
                lost = ~(np.isfinite(value) & np.isfinite(error)).all(axis=1)
                done = (error <= np.maximum(cfg.rel_tol * np.abs(value), cfg.abs_tol)).all(axis=1)
            values[live], errors[live] = value, error
            stop = lost | (done & (level > 0))
            on[on], live = ~stop, live[~stop]
    missed[live] = True
    return values, errors, missed


def _span(at, lo, hi):
    """(n, valid): n from the least lo to the greatest hi, and in each row r
    the n from the least lo[i] to the greatest hi[i] with at[i] = r."""
    row_lo, row_hi = np.full(at.max() + 1, hi.max()), np.full(at.max() + 1, lo.min() - 1)
    np.minimum.at(row_lo, at, lo)
    np.maximum.at(row_hi, at, hi)
    n = np.arange(lo.min(), hi.max() + 1)
    return n, (n >= row_lo[:, None]) & (n <= row_hi[:, None])


def _refine(old, old_lo, at, lo, hi, h, kernel):
    """(values, first) of kernel(k, rows) at k = e^{nh} over _span(at, lo, hi),
    0 elsewhere, columns from n = first = min(lo): even n from old, the
    lattice at 2h from column old_lo, odd n (all n if old is None) from
    kernel, whose values may carry trailing axes or be 0-d. The first call
    of lattice_sums builds its lattice at H0/2 with old None and reads the
    one at H0 from its even nodes; each later call refines the one
    before."""
    n, valid = _span(at, lo, hi)
    fresh = valid if old is None else valid & (n % 2 == 1)
    rows, cols = fresh.nonzero()
    values = np.asarray(kernel(np.exp(n[cols] * h), rows))
    new = np.zeros(valid.shape + values.shape[1:], dtype=values.dtype)
    new[fresh] = values
    if old is not None:
        rows, cols = (valid & ~fresh).nonzero()
        new[rows, cols] = old[rows, n[cols] // 2 - old_lo]
    return new, int(n[0])


def _within(values, first, at, lo, hi):
    """(values, first) of a lattice from column n = first cut to _span(at,
    lo, hi), 0 elsewhere in it."""
    n, valid = _span(at, lo, hi)
    cut = values[:, n[0] - first:n[-1] - first + 1].copy()
    cut[~valid] = 0.0
    return cut, int(n[0])


def _runs(lo, hi):
    """(nodes, starts, counts) of the runs lo[i] .. hi[i] laid end to end:
    every run's nodes in turn, where each run starts among them and its
    length."""
    counts = hi - lo + 1
    starts = counts.cumsum() - counts
    return (lo - starts).repeat(counts) + np.arange(counts.sum()), starts, counts


def _summed(terms, starts, h):
    """(h Sum t, ROUNDING h Sum |t|) of each run of terms, the runs laid end
    to end and starting at starts (_runs), by np.add.reduceat."""
    return h * np.add.reduceat(terms, starts), ROUNDING * h * np.add.reduceat(np.abs(terms), starts)


def _distinct(values):
    """np.unique(values, return_inverse=True) of a float array, a NaN
    mapped to the first NaN, at a fifth of its first call's cost."""
    distinct = np.array(list(set(values.tolist())))
    distinct.sort()
    return distinct, distinct.searchsorted(values)
