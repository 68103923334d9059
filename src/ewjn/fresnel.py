"""Reflection coefficients of the vacuum-metal interface.

Local coefficients are the classical Fresnel forms with the Drude (or
any supplied) permittivity. The nonlocal coefficient is the quasistatic
r_p, driven by the wavevector-resolved epsilon_l through the surface
impedance integral I_p. The magnetic r_s channel needs no coefficient:
Im r_s is linear in epsilon_t, and the spectral module swaps its p- and
kappa-integrals into one k-integral.

nonlocal_reflection_quasistatic runs the kappa-integrals of an array of
p as one quadrature batch, so epsilon_l sees an (m, 15) array of k per
refinement round. They decay as kappa^-2 and run on the power-law tail
map, seeded at 0.3p, p, 3p, k_nu, k_star, 3 k_star and the octaves
k_star/2, k_star/4, ... above 3p, which the rule would bisect its way
down to one round each, so nearly every one converges in its first
round. Im I_p, which carries the dissipation, sits 1e-10..1e-5 below
|I_p| at low omega; the engine's per-part test resolves it to rel_tol
of itself.

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

from typing import NamedTuple

import math

import numpy as np

from .errors import DomainError, QuadratureError
from .materials import Material, epsilon_l
from .quadrature import QuadratureConfig, QuadResult, integrate_power_tails


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
    eq = eps * q
    return ReflectionPair(r_s=(q - qm) / (q + qm), r_p=(eq - qm) / (eq + qm))


def nonlocal_reflection_quasistatic(
    material: Material,
    p,
    omega,
    cfg: QuadratureConfig | None = None,
) -> list:
    """Nonlocal quasistatic r_p at every p of an array, as outcomes:

      r_p = (1 - I_p)/(1 + I_p),
      I_p = (2p/pi) Integral_0^inf dkappa / (k^2 eps_l(k, omega)),

    k^2 = p^2 + kappa^2; a constant eps_l gives I_p = 1/eps and the local
    image factor (eps - 1)/(eps + 1). omega is one value or one per p.
    Each kappa-integral has its own tail scale max(p, k_star). Outcome i
    is a QuadResult, r_p at p[i] as a Python complex with bounds on its
    error and on the errors of its real and imaginary parts, carried
    over from the kappa-integral's, or the QuadratureError of that
    kappa-integral; a p gets the same outcome in any batch.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all(p > 0):
        raise DomainError("p must be > 0")
    omega = np.broadcast_to(np.asarray(omega, dtype=float), p.shape)
    if not np.all(omega > 0):
        raise DomainError("omega must be > 0")
    p2_rows, w_rows = (p * p)[:, None], omega[:, None]

    def integrand(kappa, owner):
        k2 = p2_rows[owner] + kappa * kappa
        return 1.0 / (k2 * epsilon_l(material, np.sqrt(k2), w_rows[owner]))

    outcomes = integrate_power_tails(integrand, np.maximum(p, material.k_star),
                                     _kappa_seeds(material, p), cfg or QuadratureConfig())
    # combined on Python scalars: numpy complex division rounds differently
    r = []
    for q, res in zip(p.tolist(), outcomes):
        if isinstance(res, QuadratureError):
            r.append(res)
            continue
        a = 2.0 * q / math.pi
        i_p, d_i = a * res.value, a * res.error
        r_value = (1.0 - i_p) / (1.0 + i_p)
        # r_p = 2u - 1 with u = 1/(1 + I_p), Im u = -Im I_p |u|^2: for any
        # |delta I_p| <= d_i, du bounds |delta u| and im the change of Im r_p
        one = abs(1.0 + i_p)
        du = d_i / (one * (one - d_i)) if d_i < one else math.inf
        im = 2.0 * (a * res.part_errors[1] * (1.0 / one + du) ** 2
                    + abs(i_p.imag) * (2.0 / one + du) * du)
        parts = (2.0 * du, im)
        r.append(QuadResult(r_value, math.hypot(*parts), parts))
    return r


def _kappa_seeds(material: Material, p) -> np.ndarray:
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
