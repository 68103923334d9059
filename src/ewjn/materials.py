"""Metal parameter sets and dielectric functions.

Local response is the Drude permittivity. Nonlocal response is the
semiclassical longitudinal/transverse pair epsilon_l(k, omega) and
epsilon_t(k, omega) built from the Lindhard-type functions f_l, f_t of
the complex argument x = (omega + i nu)/(k v_F), with a relaxation
(Mermin) correction in the longitudinal channel so that the k -> 0 limit
reproduces the Drude form.

All inputs and outputs are SI; material config files quote the Fermi
energy in eV and it is converted on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive_finite

# CODATA 2018 values, SI. h, e, k_B are exact by definition since the
# 2019 redefinition; the rest are the recommended measured values.
H_PLANCK = 6.62607015e-34  # J s
HBAR = H_PLANCK / (2.0 * math.pi)  # 1.0545718176461565e-34 J s
C_LIGHT = 299792458.0  # m/s
E_CHARGE = 1.602176634e-19  # C
EPS0 = 8.8541878128e-12  # F/m
M_ELECTRON = 9.1093837015e-31  # kg
K_BOLTZMANN = 1.380649e-23  # J/K
BOHR_RADIUS = 5.29177210903e-11  # m
BOHR_MAGNETON = 9.2740100783e-24  # J/T

# |x| at and above which f_l, f_t switch to Laurent series. The closed
# forms subtract x artanh(1/x) = 1 + 1/(3x^2) + ... from O(1) terms to
# leave an O(1/x^2) remainder, so they lose about 2 log10|x| digits and
# all significance around |x| ~ 1e8; they also overflow in x^3 long
# before |x| leaves the float range. The series is machine-exact for
# |x| >= 8 with 20 terms.
_SERIES_SWITCH = 8.0
_SERIES_TERMS = 20


@dataclass(frozen=True)
class Material:
    """Drude + Fermi-surface parameters of a metal half-space.

    fermi_energy is stored in joules. Derived Fermi-surface quantities
    follow from it algebraically and are exposed as properties so the
    defining identities hold to round-off by construction.
    """

    name: str
    plasma_frequency: float  # rad/s
    collision_rate: float  # rad/s
    fermi_energy: float  # J

    def __post_init__(self):
        for name in ("plasma_frequency", "collision_rate", "fermi_energy"):
            require_positive_finite(name, getattr(self, name))

    @property
    def fermi_velocity(self) -> float:
        return math.sqrt(2.0 * self.fermi_energy / M_ELECTRON)

    @property
    def fermi_wavevector(self) -> float:
        return M_ELECTRON * self.fermi_velocity / HBAR

    @property
    def fermi_wavelength(self) -> float:
        return 2.0 * math.pi / self.fermi_wavevector

    @property
    def k_nu(self) -> float:
        """Collision wavevector nu / v_F."""
        return self.collision_rate / self.fermi_velocity

    @property
    def k_star(self) -> float:
        """Screening wavevector sqrt(3) omega_p / v_F."""
        return math.sqrt(3.0) * self.plasma_frequency / self.fermi_velocity


COPPER = Material(
    name="copper",
    plasma_frequency=1.6e16,
    collision_rate=6.0 * math.pi * 1e12,
    fermi_energy=7.0 * E_CHARGE,
)


def _check_omega(omega):
    if np.any(np.asarray(omega) <= 0):
        raise DomainError("omega must be > 0")


def drude_epsilon(material: Material, omega) -> complex:
    """Local Drude permittivity 1 - omega_p^2 / (omega (omega + i nu))."""
    _check_omega(omega)
    wp, nu = material.plasma_frequency, material.collision_rate
    return 1.0 - wp * wp / (omega * (omega + 1j * nu))


def _lindhard_series(x, transverse: bool):
    # Laurent series in y = 1/x^2, Horner form, valid for |x| > 1 and
    # machine-converged at the switch radius.
    y = 1.0 / (x * x)
    acc = np.zeros_like(y)
    if transverse:
        # f_t = 1 + 3 sum_{n>=1} y^n / ((2n+1)(2n+3))
        for n in range(_SERIES_TERMS, 0, -1):
            acc = y * (1.0 / ((2 * n + 1) * (2 * n + 3)) + acc)
        return 1.0 + 3.0 * acc, 0.0
    # f_l = -sum_{n>=1} y^n / (2n+1) = y g, returned with g = -inner
    for n in range(_SERIES_TERMS, 1, -1):
        acc = y * (1.0 / (2 * n + 1) + acc)
    inner = 1.0 / 3.0 + acc
    return -(y * inner), -inner


def _lindhard(x, transverse: bool):
    """(f_t or f_l, g) at every x: g = x artanh(1/x) = 1 - f_l where the
    closed forms run, f_l x^2 (0 for f_t) where the series does."""
    x = np.asarray(x, dtype=complex)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    on_cut = (x.imag == 0) & (np.abs(x.real) <= 1.0)
    if np.any(on_cut):
        raise DomainError("x on the branch cut [-1, 1] of the Lindhard logarithm")
    big = np.abs(x) >= _SERIES_SWITCH
    # the closed forms run on the |x| < 8 nodes only (see _SERIES_SWITCH),
    # on x itself, with no mask and scatter, when there are no others
    xs = x[~big] if big.any() else x
    # ln((x+1)/(x-1)) = 2 artanh(1/x): both sides are analytic on
    # C \ [-1, 1] and agree for real x > 1, so they agree wherever
    # the kernel accepts x, Im x < 0 and x < -1 included (Kahan,
    # "Branch cuts for complex elementary functions", 1987). Two logs
    # cost ~4x one artanh here: on the integration nodes x ~ i nu/(k
    # v_F) has a small real part, which puts x - 1 near the unit
    # circle, where numpy's complex log takes its slow exact path.
    # np.multiply, not *: numpy may reuse a large temporary right
    # operand of * and run it as temporary * x, and complex products
    # round differently in the two orders, so a node's bits would
    # depend on the size of its batch.
    xa = np.multiply(xs, np.arctanh(1.0 / xs))
    if transverse:
        x2 = xs * xs
        closed = 1.5 * (x2 - (x2 - 1.0) * xa)
    else:
        closed = 1.0 - xa
    if xs is x:
        out, g = closed, xa
    else:
        out, g = np.empty_like(x), np.empty_like(x)
        out[~big], g[~big] = closed, xa
        out[big], g[big] = _lindhard_series(x[big], transverse)
    return (out[0], g[0]) if scalar else (out, g)


def lindhard_f_l(x):
    """Longitudinal Lindhard function 1 - (x/2) ln((x+1)/(x-1))."""
    return _lindhard(x, transverse=False)[0]


def lindhard_f_t(x):
    """Transverse Lindhard function (3/2)x^2 - (3/4)x(x^2-1) ln((x+1)/(x-1))."""
    return _lindhard(x, transverse=True)[0]


def _check_k_omega(k, omega):
    if np.any(np.asarray(k) <= 0):
        raise DomainError("k must be > 0")
    _check_omega(omega)


def epsilon_l(material: Material, k, omega):
    """Longitudinal nonlocal permittivity with relaxation correction.

    epsilon_l = 1 + (3 omega_p^2 / (k^2 v_F^2)) (omega + i nu) f_l(x)
                    / (omega + i nu f_l(x)),   x = (omega + i nu)/(k v_F)

    The denominator structure keeps the k -> 0 limit equal to the Drude
    form at every omega. Below |x| = 1, where f_l -> 1 and Im of the
    quotient would cancel to rounding, it is 1 - omega g/(omega + i nu
    f_l), g = 1 - f_l; from |x| = 8 the y = 1/x^2 of f_l = y g goes into
    the screening factor, so Im eps_l does not underflow with Im f_l. k
    and omega are scalars or arrays that broadcast together.
    """
    _check_k_omega(k, omega)
    k = np.asarray(k, dtype=float)
    wp, nu, vf = material.plasma_frequency, material.collision_rate, material.fermi_velocity
    wn = omega + 1j * nu
    x = wn / (k * vf)
    fl, g = _lindhard(x, transverse=False)
    den, screening = omega + 1j * nu * fl, 3.0 * wp * wp / (k * k * vf * vf)
    return 1.0 + np.where(np.abs(x) < 1.0, screening * (1.0 - omega * g / den),
                          np.where(np.abs(x) < _SERIES_SWITCH, screening * wn * fl / den,
                                   3.0 * wp * wp * g / (wn * den)))


def epsilon_t(material: Material, k, omega):
    """Transverse nonlocal permittivity 1 - omega_p^2 f_t(x) / (omega (omega + i nu))."""
    _check_k_omega(k, omega)
    k = np.asarray(k, dtype=float)
    wp, nu, vf = material.plasma_frequency, material.collision_rate, material.fermi_velocity
    wn = omega + 1j * nu
    return 1.0 - wp * wp * lindhard_f_t(wn / (k * vf)) / (omega * wn)


def skin_depth(material: Material, omega: float) -> float:
    """Field penetration depth c / (omega Im sqrt(eps_Drude)).

    Returns +inf for a transparent medium (no decaying solution) and where
    omega Im sqrt(eps) underflows to 0.
    """
    _check_omega(omega)
    decay = omega * complex(np.sqrt(drude_epsilon(material, omega))).imag
    return C_LIGHT / decay if decay > 0.0 else math.inf


_REQUIRED_KEYS = ("name", "omega_p_rad_s", "nu_rad_s", "fermi_energy_ev")


def parse_material_config(text: str) -> Material:
    """Parse a flat key=value material preset (TOML-compatible subset)."""
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad material config line: {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip().strip("\"'")
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ValueError(f"material config missing keys: {', '.join(missing)}")
    return Material(
        name=values["name"],
        plasma_frequency=float(values["omega_p_rad_s"]),
        collision_rate=float(values["nu_rad_s"]),
        fermi_energy=float(values["fermi_energy_ev"]) * E_CHARGE,
    )


def load_material(spec: str) -> Material:
    """Resolve a --material argument: builtin preset name or config file path."""
    if spec == "copper":
        return COPPER
    import os

    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_material_config(fh.read())
    raise ValueError(f"unknown material preset and no such file: {spec}")
