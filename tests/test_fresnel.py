"""Interface reflection coefficients, local and nonlocal.

The golden r_p, r_s values at p = 1/(2 lambda_F) were frozen from runs
of the kappa-integrals at rel_tol 1e-10 cross-checked against a
fixed-grid trapezoid evaluation of the same integrals; tolerances
reflect which of the two references is being compared against. The
package computes r_p on a log lattice in k
(nonlocal_model.lattice_reflection, reached here through lattice_r_p)
and the magnetic r_s channel as one k-sum per point (nonlocal_model);
the kappa-integrals of r_p and r_s live on as the oracles kappa_r_p and
nested_r_s (conftest), whose checks here pin those oracles, and the r_s
checks of the package run at the chi level.
"""

import math

import numpy as np
import pytest

from ewjn import COPPER, DomainError, Material, QuadratureConfig, QuadratureError
from ewjn.fresnel import ReflectionPair, local_reflection_q, surface_response
from ewjn.materials import C_LIGHT, M_ELECTRON, drude_epsilon, epsilon_l, epsilon_t
from ewjn.nonlocal_model import _NAVOT, _ZETA, M, lattice_reflection
from ewjn.spectral import evaluate

from conftest import kappa_r_p, lattice_r_p


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
    rp = lattice_r_p(copper, p, omega0)
    assert rel(rp, 0.8850806463958903 + 2.2095472224834032e-08j) < 1e-6
    # fixed-grid trapezoid reference truncates the kappa tail at a hard
    # cutoff, which biases it by ~5e-5; agreement is checked at 3e-4
    assert rel(rp, 0.8851256440850838 + 2.2096527094353618e-08j) < 3e-4


def test_nonlocal_rs_golden(copper, omega0, lam_f, nested_r_s):
    p = 1.0 / (2.0 * lam_f)
    [(rs, *_)] = nested_r_s(copper, [p], omega0)
    assert rel(rs, -1.6810285479893236e-15 + 1.3462629501361742e-09j) < 1e-6


def test_nonlocal_constant_eps_stubs(copper, omega0, lam_f, cfg, monkeypatch):
    # frozen permittivity turns the kappa-integral analytic: I_p = 1/eps;
    # the r_s half, J_p = eps, is the chi-level check
    # test_swapped_zz_of_a_constant_eps_t_is_the_local_form
    eps = drude_epsilon(copper, omega0)
    p = 1.0 / (2.0 * lam_f)
    monkeypatch.setattr("ewjn.fresnel.epsilon_l", lambda material, k, w: eps)
    rp = lattice_r_p(copper, p, omega0)
    assert rel(rp, (eps - 1.0) / (eps + 1.0)) < 10.0 * cfg.rel_tol


def test_nonlocal_rs_frozen_eps_omega_scaling(copper, omega0, lam_f, cfg, monkeypatch):
    # with eps_t frozen the swapped k-sum of the r_s channel cannot
    # depend on omega, so the only omega left in chi^B_zz is the explicit
    # prefactor: exactly quadratic
    eps = -5.0 + 3.0j
    monkeypatch.setattr("ewjn.nonlocal_model.epsilon_t", lambda material, k, w: eps)
    chi1, chi2 = (evaluate(copper, "B", 10.0 * lam_f, w, "nonlocal-quasistatic", cfg).chi_zz
                  for w in (omega0, 2.0 * omega0))
    assert rel(chi2, 4.0 * chi1) < 1e-12


def test_nonlocal_vacuum_limit(vacuumish, omega0, lam_f, cfg):
    # 1/eps_l - 1 is exactly 0, so is I_p - 1 and with it r_p; eps_t is
    # exactly 1, so the r_s channel's k-sum is exactly 0
    p = 1.0 / (2.0 * lam_f)
    assert lattice_r_p(vacuumish, p, omega0) == 0.0
    tensor = evaluate(vacuumish, "B", 10.0 * lam_f, omega0, "nonlocal-quasistatic", cfg)
    assert tensor.chi_zz == 0.0 and tensor.chi_xx == 0.0


def test_nonlocal_recovers_local_for_slow_fermi_sea(copper, omega0):
    # shrink v_F by 1e3: the response at any reachable k is then local
    # and r_p must fall back onto the image-charge form
    slow = Material(name="slow", plasma_frequency=copper.plasma_frequency,
                    collision_rate=copper.collision_rate,
                    fermi_energy=copper.fermi_energy / 1e6)
    eps = drude_epsilon(copper, omega0)
    rp = lattice_r_p(slow, 1e7, omega0)
    assert rel(rp, (eps - 1.0) / (eps + 1.0)) < 1e-4


def test_nonlocal_dissipative_sign(copper, omega0, lam_f):
    for p in (1e6, 1e8, 1.0 / (2.0 * lam_f)):
        assert lattice_r_p(copper, p, omega0, h=0.25).imag > 0.0
    assert lattice_r_p(copper, 1e8, 1e10, h=0.25).imag > 0.0


def test_nonlocal_domain(copper, omega0):
    with pytest.raises(DomainError):
        surface_response(copper, [0.0], omega0)
    with pytest.raises(DomainError):
        surface_response(copper, [-1.0], omega0)
    with pytest.raises(DomainError):
        surface_response(copper, [1e8], 0.0)


# --------------------------------------------------------- lattice kernel

def test_navot_weights_match_mpmath():
    # the hard-coded zeta(1/2 - k), and nu_j as the weights of the
    # degree-2M interpolant's Taylor coefficients: Sum_j nu_j j^k =
    # -zeta(1/2 - k) for k = 0 .. 2M, solved here at 40 digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for k, z in enumerate(_ZETA):
            assert abs(z / mp.zeta(mp.mpf(1) / 2 - k) - 1) <= 2**-52
        nodes = range(-M, M + 1)
        vandermonde = mp.matrix([[mp.mpf(j) ** k for j in nodes] for k in range(2 * M + 1)])
        nu = mp.lu_solve(vandermonde, mp.matrix([-mp.zeta(mp.mpf(1) / 2 - k)
                                                  for k in range(2 * M + 1)]))
        for got, want in zip(_NAVOT.tolist(), nu):
            assert abs(got - want) <= 1e-15 * abs(want)


# the rule's own error falls geometrically in 1/h: at h = 1/4, the
# coarsest lattice, it is 8e-14 for g = e^{-u} and 2.5e-11 for the
# vacuum integrand psi(u) below (their exact-arithmetic sums)
@pytest.mark.parametrize("h,tol", [(0.25, 1e-12), (0.125, 1e-14), (0.0625, 1e-14)])
def test_lattice_rule_integrates_the_end_singularity(h, tol):
    # Integral_0^inf u^{-1/2} e^{-u} du = sqrt(pi): the trapezoid in u with
    # weight (jh)^{-1/2} and the 2M + 1 end corrections, at g = e^{-u}
    j = np.arange(1, int(60.0 / h))
    trapezoid = math.fsum((h * (j * h) ** -0.5 * np.exp(-j * h)).tolist())
    correction = math.sqrt(h) * math.fsum((_NAVOT * np.exp(-np.arange(-M, M + 1) * h)).tolist())
    assert abs(trapezoid + correction - math.sqrt(math.pi)) <= tol * math.sqrt(math.pi)


@pytest.mark.parametrize("h,tol", [(0.25, 1e-10), (0.125, 1e-14), (0.0625, 1e-14)])
def test_lattice_weights_sum_to_the_vacuum_integral(h, tol):
    # phi = 1 at every node: I_p - 1 = (2/pi) Integral_0^inf du/sqrt(e^{2u} - 1)
    # less the part above the top, (2/pi) asin(e^{-U}), with r_p = -d/(2 + d)
    top = int(40.0 / h)
    r = complex(lattice_reflection(np.ones(M + top + 1, dtype=complex), h, 1)[0])
    d = 1.0 - 2.0 / math.pi * math.asin(math.exp(-top * h))
    assert abs(r - (-d / (2.0 + d))) <= tol


def test_nonlocal_batch_matches_scalar_bitwise(copper, omega0, monkeypatch):
    # a node's r_p reads only the nodes from M below it to the top, so it
    # is the same on a lattice that starts at it as on a longer one
    n = np.arange(-M, 200)
    eps = drude_epsilon(copper, omega0)
    for frozen in (False, True):
        if frozen:
            monkeypatch.setattr("ewjn.fresnel.epsilon_l", lambda material, k, w: eps)
        phi = np.broadcast_to(surface_response(copper, 1e5 * np.exp(n * 0.125), omega0),
                              n.shape)
        r_p = lattice_reflection(phi, 0.125, 150)
        for i in range(0, 150, 7):
            assert lattice_reflection(phi[i:], 0.125, 1)[0] == r_p[i]


# the r_s channel's failures are the chi-level "s" kind of
# test_spectral.py's z-batch cases
@pytest.mark.parametrize("max_subdivisions,pattern", [(1, "xx......")], ids=["p-xx......"])
def test_nonlocal_batch_failure_stays_in_its_slot(copper, omega0, max_subdivisions, pattern):
    # the kappa-integral oracle: at rel_tol 1e-12 and this budget the
    # kappa-integrals of the smallest p run out
    cfg = QuadratureConfig(rel_tol=1e-12, max_subdivisions=max_subdivisions)
    ps = np.geomspace(1e5, 1e12, 8)
    r = kappa_r_p(copper, ps, omega0, cfg)
    assert "".join("x" if isinstance(o, QuadratureError) else "." for o in r) == pattern
    for p, got in zip(ps.tolist(), r):
        [alone] = kappa_r_p(copper, [p], omega0, cfg)
        if isinstance(alone, QuadratureError):
            assert (str(got), got.best_estimate, got.error_bound) \
                == (str(alone), alone.best_estimate, alone.error_bound)
        else:
            assert type(got.value) is complex and got == alone


def test_nonlocal_batch_domain(copper, omega0):
    with pytest.raises(DomainError):
        surface_response(copper, [1e8, 0.0], omega0)
    with pytest.raises(DomainError):
        surface_response(copper, [1e8, 1e9], [omega0, -omega0])


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_surface_integrals_match_scipy_quad(copper, omega0, nested_r_s):
    # independent oracle: QUADPACK on the kappa-integrands. Its half-line
    # rule misjudges these tails, so the range is cut into decades up to
    # K = 1e6 max(p, k_star) and closed analytically with the vacuum
    # response (eps -> 1 there, relative error ~ (k_star/K)^2)
    integrate = pytest.importorskip("scipy.integrate")
    ps = np.array([1e6, 1e7, 1e8, 1e9, 1e10])
    r_s = nested_r_s(copper, ps, omega0, QuadratureConfig())
    for transverse, eps_fn in ((False, epsilon_l), (True, epsilon_t)):
        for p, rs in zip(ps.tolist(), r_s):
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
                j_p = 1.0 + rs.value * 4.0 * p**2 * C_LIGHT**2 / omega0**2
                assert rel(j_p, 4.0 * p**3 / math.pi * total) <= 1e-7
            else:
                total += (0.5 * math.pi - math.atan(big / p)) / p
                r_p = lattice_r_p(copper, p, omega0)
                i_p = (1.0 - r_p) / (1.0 + r_p)
                assert rel(i_p, 2.0 * p / math.pi * total) <= 1e-7


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_lattice_im_i_p_matches_scipy_quad(copper, omega0):
    # Im I_p alone, 1e-10..1e-5 of |I_p|, against QUADPACK on Im of the
    # kappa-integrand in u = ln(k/p), cut at decades of k up to 1e8
    # max(p, k_star) and at k_nu, k_star; beyond, Im(1/eps_l) falls
    # faster than k^-3 and its part is below 1e-20 of Im I_p
    integrate = pytest.importorskip("scipy.integrate")
    for p in (1e5, 1e6, 1e7, 1e8, 1e9):
        def g(u):
            # the integrand times sqrt(u): Im phi psi(u), psi(0) = sqrt(1/2)
            psi = math.sqrt(u / math.expm1(2.0 * u)) if u else math.sqrt(0.5)
            return complex(1.0 / epsilon_l(copper, p * math.exp(u), omega0)).imag * psi

        top = math.log(1e8 * max(p, copper.k_star) / p)
        cuts = sorted({0.0, top} | {math.log(k / p) for k in (copper.k_nu, copper.k_star)
                                    if p < k < p * math.exp(top)}
                      | {float(j) for j in range(1, int(top))})
        # the u^{-1/2} end on [0, cuts[1]] with QUADPACK's algebraic weight
        first = integrate.quad(g, 0.0, cuts[1], weight="alg",
                               wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        rest = sum(integrate.quad(lambda u: g(u) / math.sqrt(u), lo, hi, epsabs=0.0,
                                  epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(cuts[1:-1], cuts[2:]))
        im_i = 2.0 / math.pi * (first + rest)
        r_p = lattice_r_p(copper, p, omega0)
        got = ((1.0 - r_p) / (1.0 + r_p)).imag
        assert abs(got - im_i) <= 1e-12 * abs(im_i), p


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
def test_imaginary_surface_integrals_match_mpmath(copper, omega, nested_r_s):
    # Im I_p is 1e-9..1e-5 of |I_p| here: the kernel must resolve it to
    # its own rel_tol, not to rel_tol of |I_p|
    mp = pytest.importorskip("mpmath")
    ps = [2.0 * copper.k_nu, math.sqrt(copper.k_nu * copper.k_star), 0.5 * copper.k_star]
    cfg = QuadratureConfig(rel_tol=1e-11)
    r_s = nested_r_s(copper, ps, omega, cfg)
    for p, rs in zip(ps, r_s):
        rp = lattice_r_p(copper, p, omega)
        im_i, im_j = _mp_imaginary_surface_integrals(mp, copper, p, omega)
        with mp.workdps(30):
            # I_p and J_p back from r_p and r_s, exactly
            got_i = mp.im((1 - mp.mpc(rp)) / (1 + mp.mpc(rp)))
            got_j = mp.mpf(rs.value.imag) * 4 * (mp.mpf(p) * C_LIGHT / mp.mpf(omega)) ** 2
            assert abs(got_i / im_i - 1) < 1e-10
            assert abs(got_j / im_j - 1) < 1e-10
