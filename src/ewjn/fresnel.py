"""Reflection coefficients of the vacuum-metal interface.

Local coefficients are the classical Fresnel forms with the Drude (or
any supplied) permittivity. Nonlocal coefficients are the quasistatic
forms driven by the wavevector-resolved epsilon_l, epsilon_t: r_p
through the surface impedance integral I_p, r_s to leading order in
(omega/c p)^2 through J_p. The kappa-integrals decay as kappa^-2 (r_p)
and kappa^-4 (r_s) and are evaluated with the power-law tail map, never
a hard cutoff.

nonlocal_reflection_quasistatic, the one nonlocal kernel, runs the
kappa-integrals of an array of p as one quadrature batch: its integrand
gets an (m, 15) block of kappa plus the owning p of each row, so
epsilon_l/epsilon_t see an (m, 15) array of k per refinement round.

Branch policy: the vacuum normal wavevector q is real >= 0 for
propagating waves and +i|q| for evanescent ones; the metal-side root is
taken with Im >= 0 so fields decay into the absorbing half-space.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import math

import numpy as np

from .errors import DomainError
from .materials import C_LIGHT, Material, epsilon_l, epsilon_t
from .quadrature import QuadratureConfig, integrate_power_tails


class ReflectionPair(NamedTuple):
    r_s: complex
    r_p: complex
    p: float
    omega: float


def vacuum_normal_wavevector(p, omega):
    """q = sqrt(omega^2/c^2 - p^2): real for propagating, +i|q| evanescent."""
    if np.any(np.asarray(p) < 0):
        raise DomainError("p must be >= 0")
    if omega <= 0:
        raise DomainError("omega must be > 0")
    arg = np.asarray((omega / C_LIGHT) ** 2 - np.asarray(p, dtype=float) ** 2)
    q = np.sqrt(arg.astype(complex))
    # principal sqrt of a negative real lands on +i|q| already; this
    # guards the convention against any -0.0j corner
    return np.where(q.imag < 0, -q, q)[()]


def _metal_root(eps, p, omega):
    qm = np.sqrt(eps * (omega / C_LIGHT) ** 2 - np.asarray(p, dtype=float) ** 2)
    return np.where(qm.imag < 0, -qm, qm)


def local_reflection(p, omega, eps) -> ReflectionPair:
    """Classical Fresnel r_s, r_p for a half-space of permittivity eps.

    Vectorized over p; the returned pair then carries arrays.
    """
    q1 = vacuum_normal_wavevector(p, omega)
    qm = _metal_root(eps, p, omega)
    r_s = (q1 - qm) / (q1 + qm)
    r_p = (eps * q1 - qm) / (eps * q1 + qm)
    return ReflectionPair(r_s=r_s, r_p=r_p, p=p, omega=omega)


def nonlocal_reflection_quasistatic(
    material: Material,
    p,
    omega: float,
    polarization: str,
    cfg: QuadratureConfig | None = None,
    eps_fn: Callable | None = None,
) -> np.ndarray:
    """Nonlocal r_p ("p") or r_s ("s") at every p of an array.

    Formulas and the eps_fn override (of epsilon_l or epsilon_t) as in
    nonlocal_rp_quasistatic and nonlocal_rs_quasistatic, their batches
    of one; each kappa-integral has its own tail scale max(p, k_star).
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.all(p > 0):
        raise DomainError("p must be > 0")
    if not (omega > 0):
        raise DomainError("omega must be > 0")
    if polarization not in ("p", "s"):
        raise DomainError("polarization must be 'p' or 's'")
    transverse = polarization == "s"
    if eps_fn is None:
        eps_of = epsilon_t if transverse else epsilon_l
        eps_fn = lambda k, w: eps_of(material, k, w)
    p2_rows = (p * p)[:, None]

    def integrand(kappa, owner):
        k2 = p2_rows[owner] + kappa * kappa
        eps = eps_fn(np.sqrt(k2), omega)
        return eps / (k2 * k2) if transverse else 1.0 / (k2 * eps)

    k_nu, k_star = material.k_nu, material.k_star
    p_list = p.tolist()
    breaks = [[x for x in (0.3 * q, q, 3.0 * q, k_nu, k_star, 3.0 * k_star) if x > 0]
              for q in p_list]
    results = integrate_power_tails(integrand, 0.0, [max(q, k_star) for q in p_list],
                                    breaks, cfg or QuadratureConfig())
    # combined on Python scalars: numpy complex division rounds differently
    r = []
    for q, res in zip(p_list, results):
        if transverse:
            j_p = (4.0 * q**3 / math.pi) * res.value
            r.append(omega**2 / (4.0 * q**2 * C_LIGHT**2) * (j_p - 1.0))
        else:
            i_p = (2.0 * q / math.pi) * res.value
            r.append((1.0 - i_p) / (1.0 + i_p))
    return np.array(r, dtype=complex)


def nonlocal_rp_quasistatic(
    material: Material,
    p: float,
    omega: float,
    cfg: QuadratureConfig | None = None,
    eps_l_fn: Callable | None = None,
) -> complex:
    """Quasistatic p-polarized reflection from the nonlocal half-space.

    r_p = (1 - I_p)/(1 + I_p),
    I_p = (2p/pi) Integral_0^inf dkappa / (k^2 eps_l(k, omega)),
    k^2 = p^2 + kappa^2.

    eps_l_fn(k, omega) overrides the material response (used by the
    constant-epsilon limit checks, where I_p = 1/eps analytically); it
    must broadcast over an array k.
    """
    return complex(nonlocal_reflection_quasistatic(material, [p], omega, "p", cfg,
                                                   eps_l_fn)[0])


def nonlocal_rs_quasistatic(
    material: Material,
    p: float,
    omega: float,
    cfg: QuadratureConfig | None = None,
    eps_t_fn: Callable | None = None,
) -> complex:
    """Quasistatic s-polarized reflection, leading order in omega^2/(p c)^2.

    r_s = (omega^2/(4 p^2 c^2)) (J_p - 1),
    J_p = (4 p^3/pi) Integral_0^inf dkappa eps_t(k, omega)/k^4.

    With constant eps_t the integral gives J_p = eps, reproducing the
    local quasistatic expansion (eps - 1) omega^2/(4 p^2 c^2).
    """
    return complex(nonlocal_reflection_quasistatic(material, [p], omega, "s", cfg,
                                                   eps_t_fn)[0])
