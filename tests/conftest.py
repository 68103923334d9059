"""Shared fixtures and the second-method oracles. Copper at omega =
6*pi*1e8 rad/s is the reference operating point used throughout.

The package computes the nonlocal model on one log lattice in k per
omega. The adaptive path it replaced lives on here as the oracle of that
lattice: integrate_power_tails, the kappa-integrals of r_p and of r_s
(kappa_r_p, nested_r_s), the outer p-integrals over t = log1p(p/k_nu)
and the swapped k-integral of chi^B_zz (kappa_chi), all on the package's
adaptive Gauss-Kronrod engine, integrate_lockstep."""

import math

import numpy as np
import pytest

from ewjn import COPPER, DomainError, Material, QuadratureConfig, QuadratureError
from ewjn.fresnel import surface_response
from ewjn.materials import C_LIGHT, EPS0, HBAR, epsilon_l, epsilon_t, skin_depth
from adaptive import QuadResult, integrate_lockstep
from ewjn.nonlocal_model import M, _polar_g, _tail_cut, lattice_reflection

OMEGA0 = 6e8 * math.pi


@pytest.fixture(scope="session")
def copper():
    return COPPER


@pytest.fixture(scope="session")
def omega0():
    return OMEGA0


@pytest.fixture(scope="session")
def lam_f():
    return COPPER.fermi_wavelength


@pytest.fixture(scope="session")
def delta():
    return skin_depth(COPPER, OMEGA0)


@pytest.fixture(scope="session")
def cfg():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def cfg_fast():
    # loose tolerance for tests that only need a few percent
    return QuadratureConfig(rel_tol=1e-6)


@pytest.fixture(scope="session")
def vacuumish():
    # plasma frequency driven to zero: the metal response vanishes and
    # every reflection and noise quantity should collapse to vacuum.
    # 1e-320 makes omega_p^2 (and the screening wavevector) underflow to
    # exactly zero, so the response term is identically 0.0; the
    # collision rate is negligible but kept moderate so the collision
    # wavevector stays representable and no integration cell samples
    # arguments whose squares overflow.
    return Material(
        name="vacuumish",
        plasma_frequency=1e-320,
        collision_rate=1e-100,
        fermi_energy=COPPER.fermi_energy,
    )


# ------------------------------------------------------------- lattice r_p

def lattice_r_p(material, p, omega, h=1.0 / 16.0, k_top=None):
    """The package's lattice r_p at one p: the lattice k_n = p e^{nh},
    n = -M .. its top at k_top (default 1e7 max(p, k_star))."""
    k_top = k_top or 1e7 * max(p, material.k_star)
    n = np.arange(-M, math.ceil(math.log(k_top / p) / h) + 1)
    phi = np.broadcast_to(surface_response(material, p * np.exp(n * h), omega), n.shape)
    return complex(lattice_reflection(phi, h, 1)[0])


# ----------------------------------------------------------- the kappa path

def inner(cfg):
    """Budget for an integral nested inside another one.

    Inner integrals run a factor 10 tighter so the outer rule's error
    model stays valid, but never below 100 ulps, a precision double
    arithmetic still holds.
    """
    return QuadratureConfig(rel_tol=max(cfg.rel_tol / 10.0, 100.0 * np.finfo(float).eps),
                            abs_tol=cfg.abs_tol / 10.0, max_subdivisions=cfg.max_subdivisions)


def integrate_power_tails(f, scales, breakpoints, cfg=None) -> list:
    """Outcomes of a batched f over [0, infinity) for |f| = O(t^-2).

    Integral i maps t = s u/(1 - u), s = scales[i], onto u in [0, 1),
    its seeds, row i of the inf-padded array breakpoints (values of t),
    with it, and runs as integral i of one integrate_lockstep batch. Only
    seeds 0 < t < 1e12 s are kept: a larger t maps within 1e-12 of
    u = 1, where the nodes of the panel [u, 1] would round onto the pole
    of the map.
    """
    s_rows = np.asarray(scales, dtype=float)[:, None]
    if not np.all(s_rows > 0):
        raise DomainError("scales must be > 0")

    def mapped(u, owner):
        one_minus = 1.0 - u
        s = s_rows[owner]
        return f(s * u / one_minus, owner) * (s / (one_minus * one_minus))

    n = len(scales)
    t = np.asarray(breakpoints, dtype=float)
    keep = (t > 0) & (t < 1e12 * s_rows)
    u_breaks = np.divide(t, t + s_rows, out=np.full(keep.shape, np.inf), where=keep)
    return integrate_lockstep(mapped, [0.0] * n, [1.0] * n, cfg, u_breaks)


def _kappa_seeds(material, p) -> np.ndarray:
    """The kappa seeds of every p of an array, as inf-padded rows: 0.3p,
    p, 3p, k_nu, k_star, 3 k_star and the octaves k_star/2, k_star/4, ...
    above 3p, exact halvings of k_star."""
    k_star, floor = material.k_star, 3.0 * p[:, None]
    halvings = np.arange(1, math.frexp(k_star)[1] - math.frexp(floor.min())[1] + 2)
    octaves = np.ldexp(k_star, -halvings)
    octaves = octaves[octaves > floor.min()]
    return np.hstack([0.3 * p[:, None], p[:, None], floor,
                      np.broadcast_to([material.k_nu, k_star, 3.0 * k_star], (p.size, 3)),
                      np.where(octaves > floor, octaves, np.inf)])


def kappa_r_p(material, p, omega, cfg=None) -> list:
    """r_p at every p of an array, as outcomes, from its kappa-integral

      I_p = (2p/pi) Integral_0^inf dkappa / (k^2 eps_l(k, omega)),

    one power-tail batch seeded at _kappa_seeds with tail scale
    max(p, k_star). Outcome i is a QuadResult of r_p with bounds on its
    error and on the errors of its real and imaginary parts, or the
    QuadratureError of its kappa-integral."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    p2_rows = (p * p)[:, None]

    def integrand(kappa, owner):
        k2 = p2_rows[owner] + kappa * kappa
        return 1.0 / (k2 * epsilon_l(material, np.sqrt(k2), omega))

    outcomes = integrate_power_tails(integrand, np.maximum(p, material.k_star),
                                     _kappa_seeds(material, p), cfg or QuadratureConfig())
    r = []
    for q, res in zip(p.tolist(), outcomes):
        if isinstance(res, QuadratureError):
            r.append(res)
            continue
        a = 2.0 * q / math.pi
        i_p, d_i = a * res.value, a * res.error
        # r_p = 2u - 1 with u = 1/(1 + I_p), Im u = -Im I_p |u|^2: for any
        # |delta I_p| <= d_i, du bounds |delta u| and im the change of Im r_p
        one = abs(1.0 + i_p)
        du = d_i / (one * (one - d_i)) if d_i < one else math.inf
        im = 2.0 * (a * res.part_errors[1] * (1.0 / one + du) ** 2
                    + abs(i_p.imag) * (2.0 / one + du) * du)
        parts = (2.0 * du, im)
        r.append(QuadResult((1.0 - i_p) / (1.0 + i_p), math.hypot(*parts), parts))
    return r


def _nested_r_s(material, p, omega, cfg=None):
    """The nested r_s path, the second integration order of chi^B_zz: at
    every p of an array, as outcomes,
      r_s = (omega^2/(4 p^2 c^2)) (J_p - 1),
      J_p = (4 p^3/pi) Integral_0^inf dkappa eps_t(k, omega)/k^4,
    k^2 = p^2 + kappa^2, to leading order in omega^2/(p c)^2. The
    kappa-integrals are one power-tail batch seeded as kappa_r_p's, and
    Re J_p rides as Re - Im, so the per-part test resolves Im J_p to
    rel_tol of itself; each error is carried over from its integral's."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    p2_rows = (p * p)[:, None]

    def integrand(kappa, owner):
        k2 = p2_rows[owner] + kappa * kappa
        f = epsilon_t(material, np.sqrt(k2), omega) / (k2 * k2)
        return f - f.imag

    p_list = p.tolist()
    outcomes = integrate_power_tails(integrand, np.maximum(p, material.k_star),
                                     _kappa_seeds(material, p), cfg or QuadratureConfig())
    r = []
    for q, res in zip(p_list, outcomes):
        if isinstance(res, QuadratureError):
            r.append(res)
            continue
        e_re, e_im = res.part_errors
        value = complex(res.value.real + res.value.imag, res.value.imag)
        a = 4.0 * q**3 / math.pi
        prefactor = omega**2 / (4.0 * q**2 * C_LIGHT**2)
        parts = (prefactor * a * (e_re + e_im), prefactor * a * e_im)
        r.append(QuadResult(prefactor * (a * value - 1.0), math.hypot(*parts), parts))
    return r


@pytest.fixture(scope="session")
def nested_r_s():
    return _nested_r_s


# the oracle's outer integrals are cut at x/(2z), where they leave 1e-16 of
# their integrand, and |f(U)| ratio/(2z) bounds that tail (_tail_cut)
_CUT_X = _tail_cut(1e-16)
_CUT = (_CUT_X, 1 + 3 / _CUT_X + 6 / _CUT_X**2 + 6 / _CUT_X**3)


def t_grid(z, k_nu):
    """(T, seeds) of a point on the grid ..., 1/4, 1/2, 1, 2, 3, ... of
    t = log1p(p/k_nu): T is the first grid point at or above the cut
    x/(2z) of _CUT, and seeds are the grid points below T, down to the
    last one at or below t(1/z) but at least down to 1."""
    t_cut = math.log1p(_CUT[0] / 2.0 / z / k_nu)
    if t_cut > 1.0:
        end = float(math.ceil(t_cut))
    else:
        mantissa, exponent = math.frexp(t_cut)
        end = math.ldexp(1.0, exponent - (mantissa == 0.5))
    # far out the integrand peaks near p = 1/z, deep below t = 1
    seed = min(1.0, math.ldexp(1.0, math.frexp(math.log1p(1.0 / z / k_nu))[1] - 1))
    seeds = []
    while seed < min(end, 1.0):
        seeds.append(seed)
        seed *= 2.0
    return end, seeds + [float(t) for t in range(1, math.ceil(end))]


def kappa_chi(material, field_kind, zs, omega, cfg=None) -> list:
    """(chi_zz, rp_part, error) of the nonlocal model at every z of zs and
    one omega, as the adaptive path computed them: each r_p channel,
    Integral dp w(p) e^{-2pz} Im r_p with w = p^2 (E) or 1 (B), is one
    integral over t = log1p(p/k_nu) to the cut of _CUT, seeded by t_grid,
    with r_p from kappa_r_p at inner(cfg), and B's chi_zz the swapped
    k-integral of Im eps_t G (integrate_power_tails in a = 2kz). rp_part
    is None for E. The error adds the outer rule's, the tail's beyond
    the cut and the inner integrals'. The first QuadratureError raises."""
    cfg = cfg or QuadratureConfig()
    k_nu, (x, ratio) = material.k_nu, _CUT
    z_rows = np.asarray(zs, dtype=float)[:, None]
    worst = np.zeros(len(zs))

    def channel(p, owner):
        r = kappa_r_p(material, p.ravel(), omega, inner(cfg))
        for outcome in r:
            if isinstance(outcome, QuadratureError):
                raise outcome
        im = np.reshape([o.value.imag for o in r], p.shape)
        err = np.reshape([o.part_errors[1] for o in r], p.shape)
        ratio_p = np.divide(err, im, out=np.where(err > 0, np.inf, 0.0), where=im > 0)
        np.maximum.at(worst, owner, ratio_p.max(axis=1))
        return (p * p if field_kind == "E" else 1.0) * np.exp(-2.0 * p * z_rows[owner]) * im

    grids = [t_grid(z, k_nu) for z in zs]
    ends = np.array([end for end, _ in grids])
    width = max(len(seeds) for _, seeds in grids)
    breaks = np.array([seeds + [np.inf] * (width - len(seeds)) for _, seeds in grids])
    tails = np.abs(channel(k_nu * np.expm1(ends)[:, None], np.arange(len(zs)))[:, 0]) \
        * ratio / (2.0 * z_rows[:, 0])
    results = integrate_lockstep(
        lambda t, owner: channel(k_nu * np.expm1(t), owner) * (k_nu * np.exp(t)),
        [0.0] * len(zs), ends, cfg, breaks)
    if field_kind == "B":
        def polar(a, owner):
            return (epsilon_t(material, a / (2.0 * z_rows[owner]), omega).imag
                    * _polar_g(a.ravel()).reshape(a.shape))

        seeds = np.hstack([2.0 * z_rows * [material.k_nu, material.k_star],
                           np.broadcast_to([0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0],
                                           (len(zs), 8))])
        swapped = integrate_power_tails(polar, np.full(len(zs), 2.0), seeds, cfg)
    out = []
    for k, (z, res) in enumerate(zip(zs, results)):
        if isinstance(res, QuadratureError):
            raise res
        err = res.part_errors[0] + tails[k] + worst[k] * abs(res.value.real)
        if field_kind == "E":
            out.append((HBAR / EPS0 * res.value.real, None, HBAR / EPS0 * err))
            continue
        zz = swapped[k]
        if isinstance(zz, QuadratureError):
            raise zz
        scale_zz = HBAR * omega**2 / (2.0 * math.pi * EPS0 * C_LIGHT**4 * z)
        rp_scale = 0.5 * HBAR / (EPS0 * C_LIGHT**2) * (omega / C_LIGHT) ** 2
        out.append((scale_zz * zz.value.real, rp_scale * res.value.real,
                    scale_zz * zz.error + rp_scale * err))
    return out
