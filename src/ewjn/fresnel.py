"""Reflection coefficients of the vacuum-metal interface.

Local coefficients are the classical Fresnel forms with the Drude (or
any supplied) permittivity. The nonlocal coefficient is the quasistatic
r_p = (1 - I_p)/(1 + I_p) of the surface impedance

  I_p = (2p/pi) Integral_0^inf dkappa / (k^2 eps_l(k, omega))
      = 1 + (2/pi) Integral_0^inf phi(p e^u) du / sqrt(e^{2u} - 1),

k = p e^u, phi = 1/eps_l - 1. I_p depends on p only through k, so on a
lattice k_n = k_0 e^{nh} every lattice p reuses the same phi values: I
at every node is one correlation of phi with one weight vector, the
trapezoid rule in u plus Navot's end correction of the u^{-1/2}
singularity at u = 0 (J. Math. Phys. 40, 271 (1961)): it subtracts
Sum_{k<=2M} zeta(1/2 - k) c_k h^{k+1/2}, c_k the Taylor coefficients at
0 of the degree-2M interpolant of phi sqrt(u/(e^{2u} - 1)) at the
nodes u = -Mh .. Mh, which lie on the lattice too. Im I_p is a sum of
Im phi values, so it never cancels against Re I_p. The magnetic r_s
channel needs no coefficient: Im r_s is linear in epsilon_t, and the
spectral module swaps its p- and kappa-integrals into one k-sum.

Branch policy: the vacuum normal wavevector q is real >= 0 for
propagating waves and +i|q| for evanescent ones; the metal-side root
q_m = sqrt((eps - 1) omega^2/c^2 + q^2) is taken with Im >= 0 so fields
decay into the absorbing half-space. The local kernel,
local_reflection_q, takes q itself: rebuilding q = sqrt(omega^2/c^2 -
p^2) from p cancels digits near the light line, where the grazing
structure of r_p sits. It takes k2_metal = (eps - 1) omega^2/c^2 in
place of omega; the retarded model integrates over q and passes it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .materials import epsilon_l


class ReflectionPair(NamedTuple):
    r_s: complex
    r_p: complex


def local_reflection_q(q, k2_metal, eps) -> ReflectionPair:
    """Classical Fresnel r_s, r_p at vacuum normal wavevector q.

    q follows the branch policy (real >= 0 or +i|q|), and the metal root
    q_m = sqrt(k2_metal + q^2), k2_metal = (eps - 1) omega^2/c^2, is
    built from q alone, so a small |q| near the light line keeps its
    relative accuracy. Vectorized over q, with eps and k2_metal scalars
    or arrays that broadcast against it; the pair then carries arrays.
    """
    q = np.asarray(q, dtype=complex)
    qm = np.sqrt(k2_metal + q * q)
    qm = np.where(qm.imag < 0, -qm, qm)
    return ReflectionPair(r_s=_quotient(q, qm), r_p=_quotient(eps * q, qm))


def _quotient(a, b):
    """(a - b)/(a + b), its imaginary part as 2 Im(x conj y), x = a/(a + b),
    y = b/(a + b), which keeps the digits of an Im r many orders below |r|
    (r_p of a good conductor) that the plain quotient rounds away."""
    x, y = a / (a + b), b / (a + b)
    return (x - y).real + 2j * (x.imag * y.real - x.real * y.imag)


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


def surface_response(material, k, omega):
    """phi = 1/epsilon_l - 1 at every k of an array: the integrand of I_p
    less its vacuum part."""
    return 1.0 / epsilon_l(material, k, omega) - 1.0


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
    w[M + 1:] = h / np.sqrt(np.expm1(2.0 * up))
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
