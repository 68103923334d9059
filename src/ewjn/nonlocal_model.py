"""The nonlocal quasistatic model (_nonlocal_quasistatic) and the rules
that only it uses, on a log lattice k_n = 2 k_F e^{nh} per omega.

r_p is the quasistatic (1 - I_p)/(1 + I_p) of the surface impedance

  I_p = (2p/pi) Integral_0^inf dkappa / (k^2 eps_l(k, omega))
      = 1 + (2/pi) Integral_0^inf phi(p e^u) du / sqrt(e^{2u} - 1),

k = p e^u, phi = 1/eps_l - 1 (fresnel.surface_response). I_p depends on
p only through k, so I at every node is one correlation of the lattice's
phi with one weight vector (lattice_reflection): the trapezoid rule in u
plus Navot's end correction of the u^{-1/2} singularity at u = 0 (J.
Math. Phys. 40, 271 (1961)), which subtracts Sum_{k<=2M} zeta(1/2 - k)
c_k h^{k+1/2}, c_k the Taylor coefficients at 0 of the degree-2M
interpolant of phi sqrt(u/(e^{2u} - 1)) at the nodes u = -Mh .. Mh. Im
I_p is a sum of Im phi values, so it never cancels against Re I_p. Above
a fixed k_c, phi is its series in 1/k (_phi_series): each lattice row runs
on it past its top (_past_top), so the one correlation sums every term of
a window, and I_p above k_c is a sum in closed form (_beyond_window). The
magnetic r_s channel needs no coefficient: it is one k-sum of Im eps_t(k)
G(2kz) per point, G on a fixed Gauss-Kronrod rule (_polar_g).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError
from .fresnel import surface_response
from .materials import C_LIGHT, EPS0, HBAR, drude_epsilon, epsilon_t
from .quadrature import (EPS, H0, _NODES, _WEIGHTS_K, _distinct, _refine, _runs, _summed,
                         _within, lattice_sums, not_converged)

# the end correction interpolates at u = -M h .. M h
M = 6
# zeta(1/2 - k), k = 0 .. 2M
_ZETA = (-1.4603545088095868, -0.20788622497735457, -0.025485201889833036,
         0.008516928777850331, 0.004441011335479432, -0.0030916692472158338,
         -0.0026714580198992244, 0.0027467679395368687, 0.00326903957260022,
         -0.00441603287300489, -0.006672172296466641, 0.011146122473942813,
         0.02039697871594279)


def _navot_weights() -> np.ndarray:
    """nu_j, j = -M .. M, of the correction h^{1/2} Sum_j nu_j g(jh):
    c_k = Sum_j L_jk g(jh)/h^k, L_jk the x^k coefficient of the Lagrange
    polynomial of node j on the integers -M .. M, exact in integers."""
    nodes, out = range(-M, M + 1), []
    for j in nodes:
        poly, scale = [1], 1
        for i in (i for i in nodes if i != j):
            poly = [low - i * high for high, low in zip(poly + [0], [0] + poly)]
            scale *= j - i
        out.append(-sum(z * c for z, c in zip(_ZETA, poly)) / scale)
    return np.array(out)


_NAVOT = _navot_weights()
# 1/sqrt(e^{2u} - 1) = Sum_n C(2n, n)/4^n e^{-(2n+1)u}: its first two
# terms run as geometric sums over the whole window, the rest, below
# (3/8) e^{-5u}, as a short correlation cut at 1e-17 of them
_GEOMETRIC = ((1.0, 1.0), (3.0, 0.5))
_SHORT = 9.5


def _window_weight(u, h):
    """h/sqrt(e^{2u} - 1), the trapezoid weight of an I_p window at u > 0."""
    return h / np.sqrt(np.expm1(2.0 * u))


def lattice_reflection(phi, h: float, count: int) -> np.ndarray:
    """r_p at the nodes M .. M + count - 1 of a lattice k_n = k_0 e^{nh}
    with phi (surface_response) at every node from n = 0 to its top, the
    last, above which the window is cut; phi may hold one lattice per
    row, each zero above its own top.

    I_p - 1 of a node is its short correlation, the trapezoid weights
    1/sqrt(e^{2jh} - 1) less the geometric terms plus the end correction
    nu_j sqrt(h) sqrt(u/(e^{2u} - 1)), u = jh, summed from j = -M up,
    then the geometric sums, by doubling: after the step at s a node
    holds its next 2s terms. Each term lies between M nodes below the
    node and the top, in a fixed order, so a node gets the same bits on
    any lattice with that top. The weights are real, so the sums run on
    the real and imaginary parts side by side.
    """
    u = np.arange(-M, math.ceil(_SHORT / h) + 1) * h
    w, up, near = np.zeros(u.size), u[M + 1:], u[:2 * M + 1]
    w[M + 1:] = _window_weight(up, h)
    for rate, coef in _GEOMETRIC:
        w[M + 1:] -= h * coef * np.exp(-rate * up)
    w[:2 * M + 1] += math.sqrt(h) * _NAVOT * np.sqrt(np.divide(
        near, np.expm1(2.0 * near), out=np.full(near.size, 0.5), where=near != 0))
    x = np.ascontiguousarray(phi).view(float)
    padded = np.concatenate([x, np.zeros(x.shape[:-1] + (2 * w.size,))], axis=-1)
    i_p = np.zeros(x.shape[:-1] + (2 * count,))
    for j, weight in enumerate((2.0 / math.pi * w).tolist()):
        i_p += weight * padded[..., 2 * j:2 * (j + count)]
    for rate, coef in _GEOMETRIC:
        part, s, q_s = np.zeros_like(x[..., 2 * M:]), 2, math.exp(-rate * h)
        part[..., :-2] = q_s * x[..., 2 * M + 2:]
        while s < part.shape[-1]:
            part[..., :-s] += q_s * part[..., s:]
            s, q_s = 2 * s, q_s * q_s
        i_p += (2.0 / math.pi * h * coef) * part[..., :2 * count]
    i_p = i_p.view(complex)
    # r_p = (1 - I_p)/(1 + I_p) with I_p - 1 as it was summed
    return -i_p / (2.0 + i_p)


# G's rule: sin u and w sin^3 u at the Kronrod 15-point nodes u of 8
# panels cut at (pi/2) 0.6^j, graded toward u = 0 where e^{-a sin u} turns
_G_EDGES = np.array([0.0] + [0.5 * math.pi * 0.6**j for j in range(7, -1, -1)])
_G_HALF = 0.5 * np.diff(_G_EDGES)[:, None]
_G_SIN = np.sin((0.5 * (_G_EDGES[:-1] + _G_EDGES[1:])[:, None] + _G_HALF * _NODES).ravel())
_G_WEIGHT = (_G_HALF * _WEIGHTS_K).ravel() * _G_SIN**3
# From this a on, G is its asymptotic series, whose neglected e^{-a} part
# is 1e-20 of G; below it the rule is good to a few ulps.
_G_SWITCH = 60.0
# the series' coefficients C(2n, n)/4^n (2n + 3)! of a^-(2n + 4), n = 19..0
_G_SERIES = [math.comb(2 * n, n) / 4**n * math.factorial(2 * n + 3) for n in range(19, -1, -1)]
# Below _G_TAYLOR, G is its Taylor series Sum_n (-a)^n I_{n+3}/n!, I_m =
# Integral_0^{pi/2} cos^m = I_{m-2} (m - 1)/m, whose terms fall from the
# first and stop at 1e-19 of G by n = 20; the coefficients, highest first.
_G_TAYLOR, _G_TAYLOR_COEFFS = 1.0, [2.0 / 3.0, -3.0 * math.pi / 16.0]
for _n in range(2, 20):
    _G_TAYLOR_COEFFS.append(_G_TAYLOR_COEFFS[-2] * (_n + 2) / ((_n + 3) * _n * (_n - 1)))
_G_TAYLOR_COEFFS.reverse()


def _polar_g(a):
    """G(a) = Integral_0^{pi/2} cos^3 theta e^{-a cos theta} dtheta at
    every a >= 0 of an array: G(0) = 2/3 and Integral_0^inf G da = pi/4.
    The Taylor series below _G_TAYLOR, the rule in u = pi/2 - theta below
    _G_SWITCH, the asymptotic series from it, which underflows quietly
    to 0 for a huge a."""
    g = np.empty(a.shape)
    small, far = a < _G_TAYLOR, a >= _G_SWITCH
    near = ~(small | far)
    g[small] = np.polyval(_G_TAYLOR_COEFFS, a[small])
    g[near] = (_G_WEIGHT * np.exp(-a[near][:, None] * _G_SIN)).sum(axis=1)
    b2 = (1.0 / a[far]) ** 2
    g[far] = np.polyval(_G_SERIES, b2) * b2 * b2
    return g


def _tail_cut(share: float) -> float:
    """x of the cut of an integrand bounded by u^3 exp(-2 u z): beyond U =
    x/(2z) it leaves exp(-x) (1 + x + x^2/2 + x^3/6) = share of its integral."""
    x = -math.log(share)
    for _ in range(4):
        x = -math.log(share) + math.log1p(x + x * x / 2.0 + x**3 / 6.0)
    return x


# the nonlocal lattice's r_p sums are cut where they leave 1e-16
_LATTICE_CUT = _tail_cut(1e-16)


_SQRT_MAX, _SQRT_TINY = math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.min)


def _nonlocal_range(material, omega) -> tuple:
    """(lo, hi, edge) of the nonlocal points at omega: a point runs if
    0.1/z and 0.1 k_nu are >= lo and its cut p_U <= hi. Its lattice runs
    from k = lo/1e3, where k^2 must be normal and k^2 v_F^2, x^2 = ((omega
    + i nu)/(k v_F))^2 and (k_star/k)^2 |omega + i nu| finite (epsilon_l,
    epsilon_t and their Lindhard series form them), to at most 1e3 hi.
    eps_l's structure lies below edge = max(k_star, |omega + i nu|/v_F)."""
    vf, wn = material.fermi_velocity, abs(complex(omega, material.collision_rate))
    k_lo = max(_SQRT_TINY, max(wn / vf, material.k_star * math.sqrt(max(1.0, wn))) / _SQRT_MAX)
    return 1e3 * k_lo, _SQRT_MAX / max(1.0, vf) / 1e3, max(material.k_star, wn / vf)


# The nonlocal lattice: k_n = 2 k_F e^{nh}, t = ln(k/(2 k_F)) = nh, from h =
# H0 on (quadrature.lattice_sums), so 2 k_F is a node at every h. A point's
# ranges are whole steps of H0: its r_p sum runs from p = _P_LOW min(1/z,
# edge) (_nonlocal_range), below which its summand falls like p^3 (E) or p
# (B), to the cut of _LATTICE_CUT; B's k-sum over a = 2kz from _A_LOW 2z
# min(k_nu, 1/(2z)) to _A_HIGH, beyond which it falls like a^-3. Every I_p
# window of an omega ends M nodes above n_c, the first grid point at or
# above k_c = _WINDOW_END edge, where |x| <= 1e-4 and phi is its series
# (_phi_series) over the powers _POWERS: a constant, k^-2 .. k^-5, and k^-6
# for the bound on the rest. Each lattice row runs on that series past its
# top (_past_top), so the correlation sums a window's terms beyond it, up
# to _SPAN in u; I_p above n_c is the series' sum alone (_beyond_window).
_P_LOW, _A_LOW, _A_HIGH = {"E": 1e-6, "B": 1e-16}, 1e-16, 1e6
_POWER = {"E": 3, "B": 1}  # of p in a point's r_p summand, p^_POWER e^{-2pz} Im r_p
_WINDOW_END, _SPAN = 1e4, 40.0
_POWERS = np.array([0, 2, 3, 4, 5, 6])
# (2/pi) Integral_0^{pi/2} sin^m for each of _POWERS (Wallis)
_WALLIS = np.array([math.gamma(k / 2.0 + 0.5) / math.gamma(k / 2.0 + 1.0) / math.sqrt(math.pi)
                    for k in _POWERS.tolist()])[:, None]


def _steps(material, k):
    """t = ln(k/(2 k_F)) of wavevector k in steps of H0."""
    return (math.log(k) - math.log(2.0 * material.fermi_wavevector)) / H0


def _nonlocal_cuts(material, field_kind, z, limits):
    """(i_lo, i_hi, j_lo, j_hi) of a nonlocal point: its r_p sum runs over
    p = 2 k_F e^{i H0} from the last grid point at or below _P_LOW min(1/z,
    edge) to the first at or above the cut x/(2z), its k-sum over k = 2 k_F
    e^{j H0}, both from lo/1e3 up. Its DomainError if 0.1/z or 0.1 k_nu
    lies below lo, the cut exceeds hi or its p^_POWER overflows, (lo, hi,
    edge) = limits (_nonlocal_range)."""
    (lo, hi, edge), k_nu = limits, material.k_nu
    if not (0.1 / z >= lo):
        return DomainError(f"z = {z:.6g} m is too large for the nonlocal model: 0.1/z lies "
                           f"below {lo:.3g} 1/m, where the kernel leaves the float range")
    if not (0.1 * k_nu >= lo):
        return DomainError(f"nu/v_F = {k_nu:.3g} 1/m is too small for the nonlocal model: "
                           f"0.1 nu/v_F lies below {lo:.3g} 1/m, where the kernel leaves the "
                           f"float range")
    try:
        i_hi = math.ceil(_steps(material, _LATTICE_CUT / 2.0 / z))
        p_cut = 2.0 * material.fermi_wavevector * math.exp(i_hi * H0)
    except OverflowError:  # ceil(inf), or e^t beyond the float range
        p_cut = math.inf
    if p_cut > hi:
        return DomainError(f"z = {z:.6g} m is too small for the nonlocal model: its cut "
                           f"wavevector, rounded up to the grid of t, exceeds {hi:.3g} 1/m, "
                           f"where the kernel leaves the float range")
    try:
        p_cut ** _POWER[field_kind]
    except OverflowError:  # only E's: B's p^1 <= hi is finite
        return DomainError(f"z = {z:.6g} m is too small for the nonlocal model: p^3 of its "
                           f"summand leaves the float range at its cut wavevector, {p_cut:.3g} 1/m")
    floor = math.ceil(_steps(material, lo / 1e3))
    return (max(math.floor(_steps(material, _P_LOW[field_kind] * min(1.0 / z, edge))),
                floor + M), i_hi,
            max(math.floor(_steps(material, _A_LOW * min(k_nu, 0.5 / z))), floor),
            min(math.ceil(_steps(material, _A_HIGH / 2.0 / z)),
                math.floor(_steps(material, 1e3 * hi))))


def _phi_series(material, omega, k):
    """a_m k^-m, m = 2 .. 5, of phi = 1/eps_l - 1 = Sum_m a_m k^-m at large
    k, and bounds on the real and imaginary parts of the rest, as two
    lists. f_l = 1 + i pi x/2 - x artanh x as x -> 0 (Im x > 0) makes
    eps_l - 1 = eta Q, eta = (k_star/k)^2, Q = 1 + (omega/w) delta/(1 + g
    delta), delta = f_l - 1, w = omega + i nu, g = i nu/w, and phi = -eta Q
    + eta^2 Q^2 - ...: a_2 = -k_star^2, a_3 = -i (pi/2) k_star^2 omega/v_F.
    The rest lies under twice the moduli of the k^-6 terms, its imaginary
    part under twice those that carry x and the k^-7 term's, 3 eta^3
    |q_1|; both are inf where eta exceeds 1e-4 or |x| 1e-2 (an n_c held
    below k_c by the float range)."""
    w, s = complex(omega, material.collision_rate), material.k_star / k
    eta, x = s * s, w / material.fermi_velocity / k
    r, g, a = omega / w, 1j * material.collision_rate / w, 0.5j * math.pi
    q1, q2 = r * a * x, -r * (1.0 + g * a * a) * x * x
    q3 = r * g * a * (2.0 + g * a * a) * x * x * x
    q4 = -r * (1.0 / 3.0 + g + 3.0 * g * g * a * a + g * g * g * a**4) * (x * x) * (x * x)
    rest = [math.inf, math.inf]
    if eta <= 1e-4 and max(abs(x.real), abs(x.imag)) <= 1e-2:
        m4, m6 = eta * abs(q4), eta * eta * abs(2.0 * q2 + q1 * q1)
        rest = [2.0 * (m4 + m6 + eta**3), 2.0 * (m4 + m6 + 3.0 * eta**3 * abs(q1))]
    return [-eta, -eta * q1, eta * (eta - q2), eta * (2.0 * eta * q1 - q3)], rest


def _past_top(lattice, top, coef, h):
    """The lattice rows with phi's series Sum_m a_m k^-m (coef, a_m k_e^-m
    over _POWERS[:5] at k_e, M nodes below the top) on the nodes past each
    row's top, column top, in a fixed order of elementwise sums, for _SPAN in
    u where a_0 != 0 and _SPAN/3 where a_0 = 0: the terms left out fall like
    e^{-u} and e^{-3u} of I_p - 1, to e^-40 of it."""
    reach = np.ceil(np.where(coef[:, 0] != 0, _SPAN, _SPAN / 3.0) / h).astype(int)
    j = np.arange(1, reach.max() + 1)
    series = sum(coef[:, m, None] * np.exp(-power * (M + j) * h)
                 for m, power in enumerate(_POWERS[:5].tolist()))
    out = np.zeros((top.size, max(lattice.shape[1], top.max() + j.size + 1)), dtype=complex)
    out[:, :lattice.shape[1]] = lattice
    out[np.arange(top.size)[:, None], top[:, None] + j] = np.where(j <= reach[:, None], series, 0)
    return out


def _beyond_window(coef, e, h):
    """(d, b) at nodes e steps below their window end k_e = k at n_c, coef
    as for _past_top: d, the I_p - 1 from phi's series alone, and b, what
    multiplies the series' rest at k_e. For e < 0, a node with no window,
    d = Sum_m a_m k_e^-m e^{meh} (2/pi) Integral_0^{pi/2} sin^m (Wallis) and
    b its k^-6 term. For e >= 0 the correlation sums the window (_past_top),
    so d = 0, and as d ln w/du <= -1, w(u) = h/sqrt(e^{2u} - 1), b = (2/pi)
    w((e + M + 1)h) e^{-6(M + 1)h}/(1 - e^{-7h}) bounds (2/pi) Sum_{j > e +
    M} e^{6(e - j)h} w(jh); b is 0 from e = _SPAN/h on."""
    d, b, near = np.zeros(e.shape, dtype=complex), np.zeros(e.shape), (e >= 0) & (e * h < _SPAN)
    b[near] = (2.0 / math.pi * math.exp(-6.0 * (M + 1) * h) / -math.expm1(-7.0 * h)
               * _window_weight((e[near] + M + 1) * h, h))
    above = np.nonzero(e < 0)
    if above[0].size:
        terms = np.exp(_POWERS[:, None] * e[above] * h) * _WALLIS
        d[above], b[above] = (coef[above[0]] * terms[:5].T).sum(axis=1), terms[5]
    return d, b


def _nonlocal_quasistatic(material, field_kind, zs, omegas, cfg) -> tuple:
    """The nonlocal quasistatic integrals at every point, as one batch.

    E: chi_zz = (hbar/eps0) Integral_0^inf dp p^2 e^{-2pz} Im r_p(p),
       chi_xx = chi_zz/2.
    B: chi_zz = (hbar/(eps0 c^2)) Integral dp p^2 e^{-2pz} Im r_s(p) and
       chi_xx = rs_part + rp_part, rs_part = chi_zz/2, rp_part = (hbar
       omega^2/(2 eps0 c^4)) Integral dp e^{-2pz} Im r_p(p), both kept
       in decomposition. Im r_s is linear in eps_t, so p = k cos theta,
       kappa = k sin theta swap its p- and kappa-integrals: chi^B_zz =
       hbar omega^2/(2 pi eps0 c^4 z) Integral_0^inf da Im eps_t(a/(2z),
       omega) G(a), and a constant eps_t gives the local closed form.

    Each integral is a trapezoid sum in ln p (ln k) on the lattice of its
    omega, shared by all its points: h Sum p^3 e^{-2pz} Im r_p (E; p for
    B's rp_part) with r_p up to n_c from one correlation of phi = 1/eps_l
    - 1 run on past each window's top on phi's series (lattice_reflection),
    above n_c from the series alone, and h Sum a Im eps_t(k) G(a), a =
    2kz. The summands are analytic in a strip and decay at both ends, so
    the sums converge geometrically in 1/h, on the lattice rule of
    quadrature.lattice_sums; a sum's error adds to its
    h/2h difference bounds on its tails beyond its ends, on its summands'
    rounding and, for r_p, on the series' first neglected term. A point
    that misses rel_tol gets a QuadratureError. The kernels run once for
    h = 1/4 and 1/8, on the lattice at 1/8, and at each further halving
    for the odd nodes only; the work after them carries the steps of one
    call side by side, with one correlation per step, and every sum as
    a run of one np.add.reduceat (quadrature._summed). A node's values
    depend on (material, omega, h, n) alone and a run's sum on its terms
    alone, so a point gets the bits and the outcome it gets alone. A
    point outside _nonlocal_range gets a DomainError and does not run.
    """
    ranges = {w: _nonlocal_range(material, w) for w in set(omegas)}
    out = [_nonlocal_cuts(material, field_kind, z, ranges[w]) for z, w in zip(zs, omegas)]
    failed = {k: cuts for k, cuts in enumerate(out) if isinstance(cuts, DomainError)}
    running = [k for k in range(len(zs)) if k not in failed]
    # one lattice per omega of the running points; its window end n_c in steps
    # of H0, held M steps below the lattice's top, 1e3 hi, and phi's series there
    distinct, row = _distinct(np.array([omegas[k] for k in running]))
    two_kf, ends = 2.0 * material.fermi_wavevector, []
    for _, hi, edge in (ranges[w] for w in distinct.tolist()):
        top = math.floor(_steps(material, 1e3 * hi)) - M
        ends.append(math.ceil(min(_steps(material, _WINDOW_END * edge), top)))
    series = [_phi_series(material, w, two_kf * math.exp(n * H0))
              for w, n in zip(distinct.tolist(), ends)]
    coef = np.array([c for c, _ in series], dtype=complex).reshape(-1, 4)
    rests = np.array([b for _, b in series]).reshape(-1, 2)
    im_local = np.array([((e - 1.0) / (e + 1.0)).imag
                         for e in (drude_epsilon(material, w) for w in distinct.tolist())])
    cuts, power = np.array([out[k] for k in running]).reshape(-1, 4), _POWER[field_kind]
    z_of = np.array([zs[k] for k in running])
    phi = phi_lo = im_t = t_lo = None

    def sums(levels, live):
        nonlocal phi, phi_lo, im_t, t_lo
        top, at, size, first_call = levels[-1], row[live], live.size, levels[0] == 0
        z, end, cut, h = z_of[live], np.array(ends[:at.max() + 1]), cuts[live], H0 / 2**top
        # each point's I_p window, less M nodes at either end: from the lower of
        # its r_p sum's start and n_c up to n_c, in steps of h
        low, high = np.minimum(cut[:, 0], end[at]) * 2**top, end[at] * 2**top
        # the lattices at h = H0/2^top: on the first call every node from the
        # kernel over level 0's windows, whose M nodes at 2h beyond either end
        # are 2M at h, with the lattice at 2h its even nodes; the lattice at h
        # ends at each I_p window's own top, zero above it (lattice_reflection)
        reach = M * len(levels)
        phi, phi_lo = _refine(None if first_call else phi, phi_lo, at, low - reach, high + reach,
                              h, lambda k, r: surface_response(material, two_kf * k, distinct[r]))
        lattices = [(phi[:, ::2], phi_lo // 2)] * first_call
        if first_call:
            phi, phi_lo = _within(phi, phi_lo, at, low - M, high + M)
        lattices.append((phi, phi_lo))
        # r_p at the nodes of each level, side by side: up to n_c from the
        # correlation of each row run on past its top on phi's series
        # (_past_top), above n_c from the series alone, r_p = -d/(2 + d). The
        # series' constant a_0 = phi(inf) is what the kernel keeps at the top
        # beyond its rounding, 8 eps: 0 for a Lindhard eps_l, all of phi for a
        # k-independent one. dr_p = -s2 dI_p/2, s2 = (1 + r_p)^2, so the rest
        # moves Im r_p by at most (|Im s2| |its Re| + |Re s2| |its Im|)/2.
        series, bound = coef[:end.size], rests[:end.size]
        blocks, offsets, width = [], [], 0
        for level, (lattice, lo) in zip(levels, lattices):
            step, last = H0 / 2**level, int(cut[:, 1].max()) * 2**level
            n, row_top = np.arange(lo + M, last + 1), end * 2**level + M - lo
            e, r_p = end[:, None] * 2**level - n, np.zeros((end.size, n.size), dtype=complex)
            count = min(last, int(end.max()) * 2**level) - lo - M + 1
            a_0 = lattice[np.arange(end.size), row_top] - (
                series * np.exp(-np.arange(2, 6) * M * step)).sum(axis=1)
            a_0[np.abs(a_0) <= 8.0 * EPS] = 0.0
            terms = np.concatenate([a_0[:, None], series], axis=1)
            lattice = _past_top(lattice, row_top, terms, step)
            r_p[:, :count] = lattice_reflection(lattice, step, count)
            r_p[e < 0] = 0.0
            blocks.append((n * step, r_p, *_beyond_window(terms, e, step)))
            offsets.append(width - lo - M)
            width += n.size
        exponent, r_p, d, b_6 = (np.concatenate(part, axis=-1) for part in zip(*blocks))
        p = two_kf * np.exp(exponent)
        r_p -= d / (2.0 + d)
        s2 = (1.0 + r_p)**2
        # a node with no window terms beyond its top has no rest, bounded or not
        rest = np.where(b_6 > 0, (np.abs(s2.imag) * bound[:, :1] + np.abs(s2.real) * bound[:, 1:])
                        * (0.5 * b_6), 0.0)
        # every point's sums at each level in turn, their terms end to end: h
        # p^power e^{-2pz} Im r_p over its p, and for B h a Im eps_t(k) G(a)
        # over its k, a = 2kz
        by_level = np.concatenate([cut * 2**level + [[offset, offset, 0, 0]]
                                   for level, offset in zip(levels, offsets)])
        at_run, z_runs = np.concatenate([at] * len(levels)), np.concatenate([z] * len(levels))
        cols, starts, counts = _runs(by_level[:, 0], by_level[:, 1])
        p_run, row_run = p[cols], at_run.repeat(counts)
        level, last = np.repeat(np.array(levels), size), starts + counts - 1
        step, p_power = H0 / 2.0**level, p_run ** power
        weight = p_power * np.exp(-2.0 * p_run * z_runs.repeat(counts))
        im_run = r_p[row_run, cols].imag
        terms, firsts = [weight * im_run], [starts]
        # below p[0] Im r_p stays under the larger of its value there and its
        # local limit; above p[-1] it grows at most like p
        im_lo, im_far, x = im_run[starts], im_local[at_run], 2.0 * p_run[last] * z_runs
        tails = [p_power[starts] / power * np.where(im_far > im_lo, im_far, im_lo)
                 + terms[0][last] * sum(math.perm(power, n) / x**n for n in range(power + 1)) / x
                 + step * np.add.reduceat(weight * rest[row_run, cols], starts)]
        if field_kind == "B":
            # one kernel call for the lattice of Im eps_t and one _polar_g call
            # for every term
            im_t, t_lo = _refine(None if first_call else im_t, t_lo, at, cut[:, 2] * 2**top,
                                 cut[:, 3] * 2**top, h,
                                 lambda k, r: epsilon_t(material, two_kf * k, distinct[r]).imag)
            j, j_starts, j_counts = _runs(by_level[:, 2], by_level[:, 3])
            a = 2.0 * two_kf * np.exp(j * step.repeat(j_counts)) * z_runs.repeat(j_counts)
            im_a = im_t[at_run.repeat(j_counts), j * 2**(top - level).repeat(j_counts) - t_lo]
            terms.append(a * im_a * _polar_g(a))
            firsts.append(j_starts)
            # below a_lo Im eps_t is flat at its value there and G <= 2/3;
            # above the last node Im eps_t does not grow and G ~ a^-4
            tails.append(a[j_starts] * im_a[j_starts] * 2.0 / 3.0
                         + terms[1][j_starts + j_counts - 1] / 3.0)
        summed = np.moveaxis([_summed(t, s, step) for t, s in zip(terms, firsts)], 0, -1)
        summed[1] += np.transpose(tails)
        return summed.reshape(2, len(levels), size, -1)

    # a point's non-finite sums, kernel values included, become a DomainError
    # of evaluate_columns, without warnings
    with np.errstate(all="ignore"):
        values, errs, missed = lattice_sums(len(running), sums, cfg)
    cols = np.full((len(zs), 5), math.nan)
    for k, v, e, miss in zip(running, values.tolist(), errs.tolist(), missed.tolist()):
        cols[k], failed[k] = _nonlocal_outcome(field_kind, omegas[k], zs[k], v, e, miss, cfg)
    return cols, {k: exc for k, exc in failed.items() if exc}


def _nonlocal_outcome(field_kind, omega, z, values, errs, missed, cfg):
    """A point's columns from its sums (E: r_p; B: r_p, k-sum) and errors,
    and its QuadratureError if it missed rel_tol, else None."""
    if field_kind == "E":
        chi_zz, err = HBAR / EPS0 * values[0], HBAR / EPS0 * errs[0]
        outcome = (0.5 * chi_zz, chi_zz, err, math.nan, math.nan)
    else:
        scale_zz = HBAR * omega**2 / (2.0 * math.pi * EPS0 * C_LIGHT**4 * z)
        rp_scale = 0.5 * HBAR / (EPS0 * C_LIGHT**2) * (omega / C_LIGHT) ** 2
        chi_zz, rp_part = scale_zz * values[1], rp_scale * values[0]
        err = scale_zz * errs[1] + rp_scale * errs[0]
        outcome = (0.5 * chi_zz + rp_part, chi_zz, err, 0.5 * chi_zz, rp_part)
    return outcome, not_converged("nonlocal", cfg, chi_zz, err) if missed else None
