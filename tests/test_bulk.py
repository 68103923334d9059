"""Coincident-point Green's tensor in the uniform metal and its
surface-limit companion.

Sign convention: the library returns the negated (positive) spectral
weight, so every value here is positive where the raw tensor imaginary
part is negative.
"""

import math

import numpy as np
import pytest

from ewjn import DomainError, QuadratureError, bulk_imD_coincident, surface_limit_imD
from ewjn.bulk import (
    _radial_breakpoints,
    _radial_integrand,
    bulk_green_k,
)
from ewjn.materials import C_LIGHT, HBAR, epsilon_l, epsilon_t
from ewjn.quadrature import integrate_lockstep

LADDER_VALUES = [
    (3.0, 1.665716584076565e-13),
    (10.0, 5.180912848138385e-13),
    (30.0, 8.791486521333126e-13),
    (100.0, 1.2796806847089996e-12),
]


def rel(a, b):
    return abs(a - b) / abs(b)


# ------------------------------------------------------------ single-k form

def test_bulk_green_scalar_k_reference(copper, omega0):
    d = bulk_green_k(copper, copper.fermi_wavevector, omega0)
    assert d.shape == (3, 3)
    # independent evaluation at k = k_F z_hat
    assert rel(d[0, 0], -7.212916782149408e-54 - 2.332353590061511e-65j) < 1e-6
    assert rel(d[2, 2], 1.242644217406391e-35 - 1.089490358593523e-42j) < 1e-9
    assert d[1, 1] == d[0, 0]
    off = d - np.diag(np.diag(d))
    assert np.all(off == 0.0)


def test_bulk_green_projector_identities(copper, omega0):
    # axis-aligned k splits the tensor exactly into the transverse pole
    # and the longitudinal 1/eps_l piece
    k = copper.fermi_wavevector
    d = bulk_green_k(copper, k, omega0)
    eps_t = epsilon_t(copper, k, omega0)
    eps_l = epsilon_l(copper, k, omega0)
    denom = omega0**2 * eps_t / C_LIGHT**2 - k**2
    assert rel(d[0, 0], 4.0 * math.pi * HBAR / denom) < 1e-14
    assert rel(d[2, 2], 4.0 * math.pi * HBAR * C_LIGHT**2 / (omega0**2 * eps_l)) < 1e-12


def test_bulk_green_axis_equivalence(copper, omega0):
    k = copper.fermi_wavevector
    dz = bulk_green_k(copper, k, omega0)
    dx = bulk_green_k(copper, np.array([k, 0.0, 0.0]), omega0)
    assert dx[0, 0] == dz[2, 2]
    assert dx[1, 1] == dz[0, 0]
    assert dx[2, 2] == dz[1, 1]


def test_bulk_green_validation(copper, omega0):
    with pytest.raises(DomainError):
        bulk_green_k(copper, 0.0, omega0)
    with pytest.raises(DomainError):
        bulk_green_k(copper, np.zeros(3), omega0)
    with pytest.raises(DomainError):
        bulk_green_k(copper, np.array([1.0, 2.0]), omega0)
    with pytest.raises(DomainError):
        bulk_green_k(copper, 1e9, 0.0)


# ---------------------------------------------------------- radial reduction

def test_radial_reductions_agree_and_are_positive(copper, omega0):
    # two independent codings of the angle average; they are the same
    # function on paper and must stay pointwise equal numerically
    ks = np.geomspace(1e-3, 1e2, 40) * copper.fermi_wavevector
    for k in ks:
        both = _radial_integrand(copper, float(k), omega0)
        zz, xx = both.real, both.imag
        assert xx > 0.0
        assert zz > 0.0
        assert abs(xx / zz - 1.0) < 1e-9


# ------------------------------------------------------------ cutoff ladder

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


def _ladder_separate(material, omega, cfg):
    """(k_max, zz total, xx total) per rung, zz and xx integrated apart."""
    series, zz, xx, k_lo = [], 0.0, 0.0, 0.0
    for mult in (3.0, 10.0, 30.0, 100.0):
        k_hi = mult * material.fermi_wavevector
        breaks = _radial_breakpoints(material, omega, k_lo, k_hi)
        zz += integrate_lockstep(lambda k, owner: _radial_integrand(material, k, omega).real,
                                 [k_lo], [k_hi], cfg, [breaks])[0].value.real
        xx += integrate_lockstep(lambda k, owner: _radial_integrand(material, k, omega).imag,
                                 [k_lo], [k_hi], cfg, [breaks])[0].value.real
        series.append((k_hi, zz, xx))
        k_lo = k_hi
    return series


def test_ladder_rungs_equal_separate_integrals(copper, omega0, cfg, monkeypatch):
    # each rung integrates zz and xx as the two parts of one integral
    separate = _ladder_separate(copper, omega0, cfg)
    with pytest.raises(QuadratureError) as excinfo:
        bulk_imD_coincident(copper, omega0, cfg)
    assert excinfo.value.convergence_series == [(k, zz) for k, zz, _ in separate]
    # a loose settling rule stops at the second rung, where xx shows too
    monkeypatch.setattr("ewjn.bulk._LADDER_REL", 1.0)
    res = bulk_imD_coincident(copper, omega0, cfg)
    assert (res.k_max_used, res.im_D_zz, res.im_D_xx) == separate[1]


def test_ladder_domain(copper):
    with pytest.raises(DomainError):
        bulk_imD_coincident(copper, 0.0)
    with pytest.raises(DomainError):
        bulk_imD_coincident(copper, math.inf)


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
