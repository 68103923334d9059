"""The package's quadrature settings and the fixed rules its sums use.

Every integral in the package is a trapezoid sum on a log lattice whose
step h halves until the sum meets rel_tol, and that lattice rule lives
here: lattice_sums owns the one loop over the halvings of h, and the
spectral and bulk modules supply each level's sums. Two fixed rules
ride along: the Gauss-Kronrod 15-point nodes and weights of the polar
weight G (spectral._polar_g), and Gregory's end correction of a
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
    count points' lattice sums at their last level: sums(level, h, live)
    gives (values, errors), (live.size, sums), of the live points at h =
    H0/2^level. From level 1 each error adds |S_h - S_2h| and a point stops
    once each of its sums S meets max(rel_tol |S|, abs_tol). A point whose
    value or error is not finite stops at once; one still live after
    min(MAX_HALVINGS, max_subdivisions) halvings is missed."""
    live, missed = np.arange(count), np.zeros(count, dtype=bool)
    values = errors = np.zeros((count, 0))
    for level in range(min(MAX_HALVINGS, cfg.max_subdivisions) + 1):
        if not live.size:
            break
        value, error = sums(level, H0 / 2**level, live)
        with np.errstate(over="ignore", invalid="ignore"):
            if level:
                error = error + np.abs(value - values[live])
            else:
                values, errors = np.zeros((2, count, value.shape[1]))
            lost = ~(np.isfinite(value) & np.isfinite(error)).all(axis=1)
            done = (error <= np.maximum(cfg.rel_tol * np.abs(value), cfg.abs_tol)).all(axis=1)
        values[live], errors[live] = value, error
        live = live[~(lost | (done & (level > 0)))]
    missed[live] = True
    return values, errors, missed
