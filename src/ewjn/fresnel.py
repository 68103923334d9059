"""Reflection coefficients of the vacuum-metal interface.

The two node kernels: the classical Fresnel r_s, r_p with the Drude (or
any supplied) permittivity (local_reflection_q), and phi = 1/eps_l - 1
(surface_response), the integrand of the surface impedance I_p of the
nonlocal r_p, whose lattice rule lives in nonlocal_model.

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


def surface_response(material, k, omega):
    """phi = 1/epsilon_l - 1 at every k of an array: the integrand of I_p
    less its vacuum part."""
    return 1.0 / epsilon_l(material, k, omega) - 1.0
