"""Shared exception types, and the one check of a positive, finite input.

The CLI maps these onto distinct exit codes, so every physics module
raises through this vocabulary rather than bare ValueError/RuntimeError.
"""

import math


class DomainError(ValueError):
    """A physical precondition was violated (z <= 0, omega <= 0, ...)."""


class QuadratureError(RuntimeError):
    """An integral failed to converge.

    Carries the best available estimate and its error bound so callers
    can report partial results instead of losing the computation.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


def require_positive_finite(name: str, value) -> None:
    """DomainError "{name} must be > 0" unless value > 0 (NaN included),
    then "{name} must be finite" if value is +inf."""
    if not (value > 0):
        raise DomainError(f"{name} must be > 0")
    if value == math.inf:
        raise DomainError(f"{name} must be finite")
