"""Interface reflection coefficients, local and nonlocal.

The golden r_p, r_s values at p = 1/(2 lambda_F) were frozen from runs
at rel_tol 1e-10 cross-checked against a fixed-grid trapezoid
evaluation of the same kappa-integrals; tolerances reflect which of the
two references is being compared against.
"""

import math

import numpy as np
import pytest

from ewjn import COPPER, DomainError, Material, QuadratureConfig, QuadratureError
from ewjn.fresnel import (
    ReflectionPair,
    local_reflection_q,
    nonlocal_reflection_quasistatic,
)
from ewjn.materials import C_LIGHT, M_ELECTRON, drude_epsilon, epsilon_l, epsilon_t
from ewjn.quadrature import integrate_power_tails


def rel(a, b):
    return abs(a - b) / abs(b)


# ------------------------------------------------------------------- local

def _k2_metal(eps, omega):
    return (eps - 1.0) * (omega / C_LIGHT) ** 2


def test_local_reflection_vacuum(omega0):
    # propagating q = omega/(2c): with eps = 1 the metal root is q itself
    pair = local_reflection_q(0.5 * omega0 / C_LIGHT, 0.0, 1.0 + 0.0j)
    assert pair.r_s == 0.0
    assert pair.r_p == 0.0


def test_local_reflection_quasistatic_limits(copper, omega0):
    eps = drude_epsilon(copper, omega0)
    # deep evanescent means |q| ~ p well beyond sqrt|eps| omega/c (the
    # inverse skin depth, ~3.8e5 1/m here), not just beyond omega/c
    u = 1e8
    pair = local_reflection_q(1j * u, _k2_metal(eps, omega0), eps)
    assert rel(pair.r_p, (eps - 1.0) / (eps + 1.0)) < 1e-4
    assert rel(pair.r_s, (eps - 1.0) * omega0**2 / (4.0 * u**2 * C_LIGHT**2)) < 1e-3


def test_local_reflection_propagating_bounded(copper, omega0):
    eps = drude_epsilon(copper, omega0)
    qs = np.linspace(0.01, 1.0, 50) * omega0 / C_LIGHT
    pair = local_reflection_q(qs, _k2_metal(eps, omega0), eps)
    assert np.all(np.abs(pair.r_s) <= 1.0 + 1e-12)
    assert np.all(np.abs(pair.r_p) <= 1.0 + 1e-12)


def test_local_reflection_vectorized(copper, omega0):
    eps = drude_epsilon(copper, omega0)
    qs = 1j * np.array([1e5, 1e7, 1e9])
    pair = local_reflection_q(qs, _k2_metal(eps, omega0), eps)
    for i, q in enumerate(qs):
        single = local_reflection_q(complex(q), _k2_metal(eps, omega0), eps)
        assert pair.r_s[i] == single.r_s
        assert pair.r_p[i] == single.r_p


def test_local_reflection_q_matches_mpmath_near_grazing_turn(copper, omega0):
    # evanescent q = i u around the grazing turn u ~ g of r_p, where
    # rebuilding q from p = sqrt(u^2 + (omega/c)^2) cancels digits
    mp = pytest.importorskip("mpmath")
    eps = drude_epsilon(copper, omega0)
    k0 = omega0 / C_LIGHT
    g = k0 / math.sqrt(abs(eps))
    us = [0.1 * g, g, 10.0 * g]
    pair = local_reflection_q(1j * np.array(us), (eps - 1.0) * k0**2, eps)
    assert ReflectionPair._fields == ("r_s", "r_p")
    with mp.workdps(30):
        e = mp.mpc(eps)
        for u, r_s, r_p in zip(us, pair.r_s, pair.r_p):
            q = mp.mpc(0, u)
            qm = mp.sqrt((e - 1) * mp.mpf(k0) ** 2 + q * q)
            qm = -qm if mp.im(qm) < 0 else qm
            ref_s, ref_p = complex((q - qm) / (q + qm)), complex((e * q - qm) / (e * q + qm))
            assert abs(r_p - ref_p) <= 1e-14 * abs(ref_p)
            assert abs(r_s - ref_s) <= 1e-14 * abs(ref_s)


# ----------------------------------------------------------------- nonlocal

def test_nonlocal_rp_golden(copper, omega0, lam_f):
    p = 1.0 / (2.0 * lam_f)
    [(rp, *_)] = nonlocal_reflection_quasistatic(copper, [p], omega0, "p")
    assert rel(rp, 0.8850806463958903 + 2.2095472224834032e-08j) < 1e-6
    # fixed-grid trapezoid reference truncates the kappa tail at a hard
    # cutoff, which biases it by ~5e-5; agreement is checked at 3e-4
    assert rel(rp, 0.8851256440850838 + 2.2096527094353618e-08j) < 3e-4


def test_nonlocal_rs_golden(copper, omega0, lam_f):
    p = 1.0 / (2.0 * lam_f)
    [(rs, *_)] = nonlocal_reflection_quasistatic(copper, [p], omega0, "s")
    assert rel(rs, -1.6810285479893236e-15 + 1.3462629501361742e-09j) < 1e-6


def test_nonlocal_constant_eps_stubs(copper, omega0, lam_f, cfg, monkeypatch):
    # frozen permittivity turns both kappa-integrals analytic:
    # I_p = 1/eps and J_p = eps
    eps = drude_epsilon(copper, omega0)
    p = 1.0 / (2.0 * lam_f)
    for name in ("epsilon_l", "epsilon_t"):
        monkeypatch.setattr(f"ewjn.fresnel.{name}", lambda material, k, w: eps)
    [(rp, *_)] = nonlocal_reflection_quasistatic(copper, [p], omega0, "p", cfg)
    [(rs, *_)] = nonlocal_reflection_quasistatic(copper, [p], omega0, "s", cfg)
    assert rel(rp, (eps - 1.0) / (eps + 1.0)) < 10.0 * cfg.rel_tol
    assert rel(rs, (eps - 1.0) * omega0**2 / (4.0 * p**2 * C_LIGHT**2)) \
        < 10.0 * cfg.rel_tol


def test_nonlocal_rs_frozen_eps_omega_scaling(copper, omega0, lam_f, cfg, monkeypatch):
    # with eps_t frozen the J_p integral cannot depend on omega, so the
    # only omega left is the explicit prefactor: exactly quadratic
    eps = -5.0 + 3.0j
    p = 1.0 / (2.0 * lam_f)
    monkeypatch.setattr("ewjn.fresnel.epsilon_t", lambda material, k, w: eps)
    [(r1, *_)] = nonlocal_reflection_quasistatic(copper, [p], omega0, "s", cfg)
    [(r2, *_)] = nonlocal_reflection_quasistatic(copper, [p], 2.0 * omega0, "s", cfg)
    assert rel(r2, 4.0 * r1) < 1e-12


def test_nonlocal_vacuum_limit(vacuumish, omega0, lam_f):
    # I_p and J_p both evaluate to 1 up to quadrature noise, so the
    # residual reflection is bounded by the relative tolerance
    p = 1.0 / (2.0 * lam_f)
    assert abs(nonlocal_reflection_quasistatic(vacuumish, [p], omega0, "p")[0].value) < 1e-7
    assert abs(nonlocal_reflection_quasistatic(vacuumish, [p], omega0, "s")[0].value) < 1e-15


def test_nonlocal_recovers_local_for_slow_fermi_sea(copper, omega0):
    # shrink v_F by 1e3: the response at any reachable k is then local
    # and r_p must fall back onto the image-charge form
    slow = Material(name="slow", plasma_frequency=copper.plasma_frequency,
                    collision_rate=copper.collision_rate,
                    fermi_energy=copper.fermi_energy / 1e6)
    eps = drude_epsilon(copper, omega0)
    [(rp, *_)] = nonlocal_reflection_quasistatic(slow, [1e7], omega0, "p")
    assert rel(rp, (eps - 1.0) / (eps + 1.0)) < 1e-4


def test_nonlocal_dissipative_sign(copper, omega0, lam_f, cfg_fast):
    for p in (1e6, 1e8, 1.0 / (2.0 * lam_f)):
        for polarization in ("p", "s"):
            [(r, *_)] = nonlocal_reflection_quasistatic(copper, [p], omega0, polarization,
                                                        cfg_fast)
            assert r.imag > 0.0
    assert nonlocal_reflection_quasistatic(copper, [1e8], 1e10, "p", cfg_fast)[0].value.imag > 0.0


def test_nonlocal_domain(copper, omega0):
    with pytest.raises(DomainError):
        nonlocal_reflection_quasistatic(copper, [0.0], omega0, "p")
    with pytest.raises(DomainError):
        nonlocal_reflection_quasistatic(copper, [-1.0], omega0, "s")
    with pytest.raises(DomainError):
        nonlocal_reflection_quasistatic(copper, [1e8], 0.0, "p")


# ----------------------------------------------------------- batched kernel

def _reference_r(material, p, omega, cfg, transverse):
    """One kappa-integral as a power-tail batch of one, combined on Python
    scalars."""
    eps_fn = epsilon_t if transverse else epsilon_l

    def integrand(kappa, owner):
        k2 = p * p + kappa * kappa
        eps = eps_fn(material, np.sqrt(k2), omega)
        # J_p's real part is carried as Re - Im, I_p's parts as they are
        return eps / (k2 * k2) - (eps / (k2 * k2)).imag if transverse else 1.0 / (k2 * eps)

    k_nu, k_star = material.k_nu, material.k_star
    breaks = [x for x in (0.3 * p, p, 3.0 * p, k_nu, k_star, 3.0 * k_star) if x > 0]
    # the octaves k_star/2, k_star/4, ... above 3p
    octave = 0.5 * k_star
    while octave > 3.0 * p:
        breaks.append(octave)
        octave *= 0.5
    [(value, *_)] = integrate_power_tails(integrand, [max(p, k_star)], [breaks], cfg)
    if transverse:
        value = complex(value.real + value.imag, value.imag)
        j_p = (4.0 * p**3 / math.pi) * value
        return omega**2 / (4.0 * p**2 * C_LIGHT**2) * (j_p - 1.0)
    i_p = (2.0 * p / math.pi) * value
    return (1.0 - i_p) / (1.0 + i_p)


def test_nonlocal_batch_matches_scalar_bitwise(copper, omega0, cfg, monkeypatch):
    ps = np.geomspace(1e5, 1e12, 40)
    eps = drude_epsilon(copper, omega0)
    for frozen in (False, True):
        if frozen:
            for name in ("epsilon_l", "epsilon_t"):
                monkeypatch.setattr(f"ewjn.fresnel.{name}", lambda material, k, w: eps)
        r_p = nonlocal_reflection_quasistatic(copper, ps, omega0, "p", cfg)
        r_s = nonlocal_reflection_quasistatic(copper, ps, omega0, "s", cfg)
        for i, p in enumerate(ps.tolist()):
            assert [r_p[i]] == nonlocal_reflection_quasistatic(copper, [p], omega0, "p", cfg)
            assert [r_s[i]] == nonlocal_reflection_quasistatic(copper, [p], omega0, "s", cfg)
            if not frozen and i % 4 == 0:
                assert r_p[i].value == _reference_r(copper, p, omega0, cfg, False)
                assert r_s[i].value == _reference_r(copper, p, omega0, cfg, True)


@pytest.mark.parametrize("polarization,max_subdivisions,pattern",
                         [("p", 1, "xx......"), ("s", 2, "xxxx....")],
                         ids=["p-xx......", "s-xxxx...."])
def test_nonlocal_batch_failure_stays_in_its_slot(copper, omega0, polarization,
                                                  max_subdivisions, pattern):
    # at rel_tol 1e-12 and these budgets the kappa-integrals of the
    # smallest p run out
    cfg = QuadratureConfig(rel_tol=1e-12, max_subdivisions=max_subdivisions)
    ps = np.geomspace(1e5, 1e12, 8)
    r = nonlocal_reflection_quasistatic(copper, ps, omega0, polarization, cfg)
    assert "".join("x" if isinstance(o, QuadratureError) else "." for o in r) == pattern
    for p, got in zip(ps.tolist(), r):
        [alone] = nonlocal_reflection_quasistatic(copper, [p], omega0, polarization, cfg)
        if isinstance(alone, QuadratureError):
            assert (str(got), got.best_estimate, got.error_bound) \
                == (str(alone), alone.best_estimate, alone.error_bound)
        else:
            assert type(got.value) is complex and got == alone


def test_nonlocal_batch_domain(copper, omega0):
    with pytest.raises(DomainError):
        nonlocal_reflection_quasistatic(copper, [1e8, 0.0], omega0, "p")
    with pytest.raises(DomainError):
        nonlocal_reflection_quasistatic(copper, [1e8], omega0, "x")


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_surface_integrals_match_scipy_quad(copper, omega0, cfg):
    # independent oracle: QUADPACK on the same kappa-integrands. Its
    # half-line rule misjudges these tails, so the range is cut into
    # decades up to K = 1e6 max(p, k_star) and closed analytically with
    # the vacuum response (eps -> 1 there, relative error ~ (k_star/K)^2)
    integrate = pytest.importorskip("scipy.integrate")
    ps = np.array([1e6, 1e7, 1e8, 1e9, 1e10])
    for transverse, eps_fn in ((False, epsilon_l), (True, epsilon_t)):
        r = nonlocal_reflection_quasistatic(copper, ps, omega0, "ps"[transverse], cfg)
        for p, r_p_or_s in zip(ps.tolist(), (o.value for o in r)):
            def f(kappa):
                k2 = p * p + kappa * kappa
                eps = complex(eps_fn(copper, math.sqrt(k2), omega0))
                return eps / (k2 * k2) if transverse else 1.0 / (k2 * eps)

            top = max(p, copper.k_star)
            edges = sorted({0.0, 0.3 * p, p, 3.0 * p, copper.k_nu, copper.k_star,
                            3.0 * copper.k_star} | {top * 10.0**j for j in range(1, 7)})
            total = sum(integrate.quad(f, lo, hi, complex_func=True, epsabs=0.0,
                                       epsrel=1e-10, limit=200)[0]
                        for lo, hi in zip(edges[:-1], edges[1:]))
            big = edges[-1]
            # I_p and J_p recovered from r_p and r_s lose < 1e-11 relative
            if transverse:
                total += 1.0 / (3.0 * big**3)
                j_p = 1.0 + r_p_or_s * 4.0 * p**2 * C_LIGHT**2 / omega0**2
                assert rel(j_p, 4.0 * p**3 / math.pi * total) <= 1e-7
            else:
                total += (0.5 * math.pi - math.atan(big / p)) / p
                i_p = (1.0 - r_p_or_s) / (1.0 + r_p_or_s)
                assert rel(i_p, 2.0 * p / math.pi * total) <= 1e-7


def _mp_imaginary_surface_integrals(mp, material, p, omega):
    """Im I_p and Im J_p at 30 digits: epsilon_l and epsilon_t from their
    defining formulas and mpmath's tanh-sinh rule on each imaginary part,
    cut at p, the screening wavevector and decades beyond."""
    with mp.workdps(30):
        wp, nu = mp.mpf(material.plasma_frequency), mp.mpf(material.collision_rate)
        vf = mp.sqrt(2 * mp.mpf(material.fermi_energy) / mp.mpf(M_ELECTRON))
        w, p = mp.mpf(omega), mp.mpf(p)
        wn = w + 1j * nu

        def k2_eps(kappa):
            k2 = p**2 + kappa**2
            x = wn / (mp.sqrt(k2) * vf)
            dlog = mp.log(x + 1) - mp.log(x - 1)
            f_l = 1 - x / 2 * dlog
            f_t = mp.mpf(3) / 2 * x**2 - mp.mpf(3) / 4 * x * (x**2 - 1) * dlog
            eps_l = 1 + 3 * wp**2 / (k2 * vf**2) * wn * f_l / (w + 1j * nu * f_l)
            return k2, eps_l, 1 - wp**2 * f_t / (w * wn)

        k_star = mp.sqrt(3) * wp / vf
        cuts = sorted({mp.mpf(0), p / 3, p, 3 * p}
                      | {mp.sqrt(k**2 - p**2) for k in (k_star / 3, k_star, 3 * k_star) if k > p}
                      | {max(p, k_star) * 10**j for j in range(1, 4)}) + [mp.inf]

        def im_i(kappa):
            k2, eps_l, _ = k2_eps(kappa)
            return mp.im(1 / (k2 * eps_l))

        def im_j(kappa):
            k2, _, eps_t = k2_eps(kappa)
            return mp.im(eps_t) / k2**2

        return 2 * p / mp.pi * mp.quad(im_i, cuts), 4 * p**3 / mp.pi * mp.quad(im_j, cuts)


@pytest.mark.parametrize("omega", [1e7, 1e9])
def test_imaginary_surface_integrals_match_mpmath(copper, omega):
    # Im I_p is 1e-9..1e-5 of |I_p| here: the kernel must resolve it to
    # its own rel_tol, not to rel_tol of |I_p|
    mp = pytest.importorskip("mpmath")
    ps = [2.0 * copper.k_nu, math.sqrt(copper.k_nu * copper.k_star), 0.5 * copper.k_star]
    cfg = QuadratureConfig(rel_tol=1e-11)
    r_p = nonlocal_reflection_quasistatic(copper, ps, omega, "p", cfg)
    r_s = nonlocal_reflection_quasistatic(copper, ps, omega, "s", cfg)
    for p, rp, rs in zip(ps, r_p, r_s):
        im_i, im_j = _mp_imaginary_surface_integrals(mp, copper, p, omega)
        with mp.workdps(30):
            # I_p and J_p back from r_p and r_s, exactly
            got_i = mp.im((1 - mp.mpc(rp.value)) / (1 + mp.mpc(rp.value)))
            got_j = mp.mpf(rs.value.imag) * 4 * (mp.mpf(p) * C_LIGHT / mp.mpf(omega)) ** 2
            assert abs(got_i / im_i - 1) < 1e-10
            assert abs(got_j / im_j - 1) < 1e-10
