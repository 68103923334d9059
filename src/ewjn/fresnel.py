"""Reflection coefficients of the vacuum-metal interface.

Local coefficients are the classical Fresnel forms with the Drude (or
any supplied) permittivity. Nonlocal coefficients are the quasistatic
forms driven by the wavevector-resolved epsilon_l, epsilon_t: r_p
through the surface impedance integral I_p, r_s to leading order in
(omega/c p)^2 through J_p. The kappa-integrals decay as kappa^-2 (r_p)
and kappa^-4 (r_s) and are evaluated with the power-law tail map, never
a hard cutoff. Each is seeded at 0.3p, p, 3p, k_nu, k_star, 3 k_star
and at the octaves k_star/2, k_star/4, ... above 3p: the rule would
bisect its way down to those octave panels anyway, one round per panel,
so seeded there nearly every kappa-integral converges in its first
round. Im I_p and Im J_p, which carry the dissipation, sit
1e-10..1e-5 below |I_p| and |J_p| at low omega; the engine's per-part
test resolves them to rel_tol of themselves.

nonlocal_reflection_quasistatic, the one nonlocal kernel, runs the
kappa-integrals of an array of p as one quadrature batch: its integrand
gets an (m, 15) block of kappa plus the owning p of each row, so
epsilon_l/epsilon_t see an (m, 15) array of k per refinement round. It
returns one outcome per p, r with its error bounds or the
QuadratureError of that p's own kappa-integral, so a caller that
batches the p of many outer integrals (the nonlocal spectral model
passes it the new p of each outer refinement round and polarization)
can tell whose inner integral failed.

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

from typing import Callable, NamedTuple

import math

import numpy as np

from .errors import DomainError, QuadratureError
from .materials import C_LIGHT, Material, epsilon_l, epsilon_t
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
    polarization: str,
    cfg: QuadratureConfig | None = None,
    eps_fn: Callable | None = None,
) -> list:
    """Nonlocal r_p ("p") or r_s ("s") at every p of an array, as outcomes.

    Quasistatic p-polarized reflection:
      r_p = (1 - I_p)/(1 + I_p),
      I_p = (2p/pi) Integral_0^inf dkappa / (k^2 eps_l(k, omega)),
    and s-polarized, to leading order in omega^2/(p c)^2:
      r_s = (omega^2/(4 p^2 c^2)) (J_p - 1),
      J_p = (4 p^3/pi) Integral_0^inf dkappa eps_t(k, omega)/k^4,
    with k^2 = p^2 + kappa^2. With constant eps_t, J_p = eps reproduces
    the local quasistatic expansion (eps - 1) omega^2/(4 p^2 c^2); with
    constant eps_l, I_p = 1/eps.

    omega is one value or one per p. eps_fn(k, omega) overrides
    epsilon_l ("p") or epsilon_t ("s"), as in the constant-epsilon limit
    checks; it must broadcast over arrays k and omega. Each
    kappa-integral has its own tail scale max(p, k_star). Outcome i is a
    QuadResult, r at p[i] as a Python complex with bounds on its error
    and on the errors of its real and imaginary parts, carried over from
    the kappa-integral's, or the QuadratureError of that kappa-integral;
    a p gets the same outcome in any batch.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all(p > 0):
        raise DomainError("p must be > 0")
    omega = np.broadcast_to(np.asarray(omega, dtype=float), p.shape)
    if not np.all(omega > 0):
        raise DomainError("omega must be > 0")
    if polarization not in ("p", "s"):
        raise DomainError("polarization must be 'p' or 's'")
    transverse = polarization == "s"
    if eps_fn is None:
        eps_of = epsilon_t if transverse else epsilon_l
        eps_fn = lambda k, w: eps_of(material, k, w)
    p2_rows, w_rows = (p * p)[:, None], omega[:, None]

    def integrand(kappa, owner):
        k2 = p2_rows[owner] + kappa * kappa
        eps = eps_fn(np.sqrt(k2), w_rows[owner])
        if not transverse:
            return 1.0 / (k2 * eps)
        # Re J_p rides as Re - Im, met to rel_tol of |Im J_p| only: Re eps_t
        # (< 0 < Im eps_t where J_p lives) can sit below Im's resolution
        f = eps / (k2 * k2)
        return f - f.imag

    k_nu, k_star = material.k_nu, material.k_star
    p_list = p.tolist()
    breaks = [[x for x in (0.3 * q, q, 3.0 * q, k_nu, k_star, 3.0 * k_star) if x > 0]
              + _octaves_below(k_star, 3.0 * q) for q in p_list]
    outcomes = integrate_power_tails(integrand, 0.0, [max(q, k_star) for q in p_list],
                                     breaks, cfg or QuadratureConfig())
    # combined on Python scalars: numpy complex division rounds differently
    r = []
    for q, w, res in zip(p_list, omega.tolist(), outcomes):
        if isinstance(res, QuadratureError):
            r.append(res)
            continue
        e_re, e_im = res.part_errors
        if transverse:
            # Re J_p was integrated as Re - Im, so its error adds Im's
            value = complex(res.value.real + res.value.imag, res.value.imag)
            a = 4.0 * q**3 / math.pi
            prefactor = w**2 / (4.0 * q**2 * C_LIGHT**2)
            r_value = prefactor * (a * value - 1.0)
            parts = (prefactor * a * (e_re + e_im), prefactor * a * e_im)
        else:
            a = 2.0 * q / math.pi
            i_p, d_i = a * res.value, a * res.error
            r_value = (1.0 - i_p) / (1.0 + i_p)
            # r_p = 2u - 1 with u = 1/(1 + I_p), Im u = -Im I_p |u|^2: for any
            # |delta I_p| <= d_i, du bounds |delta u| and im the change of Im r_p
            one = abs(1.0 + i_p)
            du = d_i / (one * (one - d_i)) if d_i < one else math.inf
            im = 2.0 * (a * e_im * (1.0 / one + du) ** 2 + abs(i_p.imag) * (2.0 / one + du) * du)
            parts = (2.0 * du, im)
        r.append(QuadResult(r_value, math.hypot(*parts), parts))
    return r


def _octaves_below(top: float, floor: float) -> list:
    """top/2, top/4, ... down to the last one above floor."""
    out, x = [], 0.5 * top
    while x > floor:
        out.append(x)
        x *= 0.5
    return out
