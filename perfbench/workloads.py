"""Seeded workload generator for the ewjn CLI benchmark.

A workload is a list of `ewjn` command lines, run one after another in
fresh interpreters (a closed loop with one client). The same
(workload, seed) pair always gives the same argv and the same material
files; the program sees nothing else.

Grids are jittered, not drawn point by point: each sweep keeps its
nominal span (about lambda_F to 3000 lambda_F, 1e7 to 1e11 rad/s, ...)
and the seed moves the endpoints by a fraction of a grid step. The cost
of a nonlocal point varies several-fold with z and omega, so this keeps
the summed cost of a workload close to seed-independent while every
seed still evaluates different inputs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

# CODATA 2018, SI, as used by the package.
HBAR = 6.62607015e-34 / (2.0 * math.pi)
C_LIGHT = 299792458.0
E_CHARGE = 1.602176634e-19
M_ELECTRON = 9.1093837015e-31

COPPER = {"name": "copper", "omega_p_rad_s": 1.6e16,
          "nu_rad_s": 6.0 * math.pi * 1e12, "fermi_energy_ev": 7.0}
OMEGA_0 = 6e8 * math.pi
REL_TOL = 1e-8

WORKLOADS = ("nonlocal-fixed-omega", "nonlocal-omega-sweep", "retarded-farfield")

QS_MODELS = "local-quasistatic,nonlocal-quasistatic"

RETARDED_COMMANDS = 16
RETARDED_POINTS = 100
METAL_RANGES = {"omega_p_rad_s": (1e15, 2e16), "nu_rad_s": (3e12, 1e14),
                "fermi_energy_ev": (2.0, 12.0), "omega": (1e8, 1e10)}


@dataclass
class Command:
    """One CLI invocation.

    flags holds every option passed, as strings, in argv order; the gate
    reads the inputs back from it. material is the parameter dict of the
    metal, and material_file the config text written for it (None for
    the builtin copper preset).
    """

    subcommand: str
    flags: dict
    material: dict
    material_file: str | None = None

    @property
    def argv(self) -> list:
        out = [self.subcommand]
        for key, value in self.flags.items():
            out += [f"--{key}", value]
        return out


@dataclass
class Workload:
    name: str
    seed: int
    commands: list = field(default_factory=list)


def fermi_wavelength(metal: dict) -> float:
    v_f = math.sqrt(2.0 * metal["fermi_energy_ev"] * E_CHARGE / M_ELECTRON)
    return 2.0 * math.pi * HBAR / (M_ELECTRON * v_f)


def skin_depth(metal: dict, omega: float) -> float:
    wp, nu = metal["omega_p_rad_s"], metal["nu_rad_s"]
    eps = 1.0 - wp * wp / (omega * (omega + 1j * nu))
    return C_LIGHT / (omega * cmath.sqrt(eps).imag)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _strata(lo: float, hi: float, n: int) -> list:
    """n equal log-width bands covering [lo, hi]."""
    edges = [lo * (hi / lo) ** (i / n) for i in range(n + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _sweep(axis, lo, hi, count, models, qubit, spacing="log", metal=COPPER,
           conf=None, **fixed) -> Command:
    """`ewjn sweep`; conf is (file name, text) of a material file, or None
    for the copper preset."""
    flags = {"material": conf[0] if conf else "copper", "rel-tol": repr(REL_TOL),
             "axis": axis, "min": repr(lo), "max": repr(hi), "count": str(count),
             "spacing": spacing, "models": models, "qubit": qubit}
    flags.update({k: repr(v) for k, v in fixed.items()})
    return Command("sweep", flags, metal, conf[1] if conf else None)


def _nonlocal_fixed_omega(rng: random.Random) -> list:
    lam = fermi_wavelength(COPPER)
    cmds = []
    for qubit in ("charge", "spin"):
        lo = lam * 10.0 ** rng.uniform(-0.1, 0.1)
        hi = 3000.0 * lam * 10.0 ** rng.uniform(-0.1, 0.0)
        cmds.append(_sweep("z", lo, hi, 5, QS_MODELS, qubit, omega=OMEGA_0))
    # the cost of a point in the 3-25 lambda_F band varies fivefold with
    # z, so the temperature sweeps take one z from each of four strata;
    # the qubit alternates, starting with spin in the lowest
    for n, (lo_z, hi_z) in enumerate(_strata(3.0 * lam, 25.0 * lam, 4)):
        cmds.append(_sweep("temperature", 0.0, rng.uniform(2.0, 6.0), 2,
                           "nonlocal-quasistatic", ("spin", "charge")[n % 2],
                           spacing="linear", z=_log_uniform(rng, lo_z, hi_z),
                           omega=OMEGA_0))
    cmds.append(Command("bulk", {"material": "copper", "rel-tol": repr(REL_TOL),
                                 "omega": repr(OMEGA_0)}, COPPER))
    return cmds


def _nonlocal_omega_sweep(rng: random.Random) -> list:
    lam = fermi_wavelength(COPPER)
    cmds = []
    for qubit in ("charge", "spin"):
        for lo_z, hi_z in _strata(3.0 * lam, 25.0 * lam, 4):
            z = _log_uniform(rng, lo_z, hi_z)
            lo = 1e7 * 10.0 ** rng.uniform(0.0, 0.2)
            hi = 1e11 * 10.0 ** rng.uniform(-0.2, 0.0)
            cmds.append(_sweep("omega", lo, hi, 3, "auto", qubit, z=z))
    return cmds


def _latin_hypercube(rng: random.Random, n: int, ranges: dict) -> list:
    """n log-uniform draws per range, one in each of n equal log bands.

    The bands are paired at random across parameters, so the n metals
    cover every range evenly and their summed cost varies little by seed.
    """
    columns = {}
    for key, (lo, hi) in ranges.items():
        bands = rng.sample(range(n), n)
        columns[key] = [lo * (hi / lo) ** ((b + rng.random()) / n) for b in bands]
    return [{key: col[i] for key, col in columns.items()} for i in range(n)]


def _retarded_farfield(rng: random.Random) -> list:
    cmds = []
    for i, draw in enumerate(_latin_hypercube(rng, RETARDED_COMMANDS, METAL_RANGES)):
        metal = {
            "name": f"metal{i:02d}",
            "omega_p_rad_s": float("%.6e" % draw["omega_p_rad_s"]),
            "nu_rad_s": float("%.6e" % draw["nu_rad_s"]),
            "fermi_energy_ev": float("%.4f" % draw["fermi_energy_ev"]),
        }
        omega = draw["omega"]
        delta = skin_depth(metal, omega)
        lo = delta * rng.uniform(0.105, 0.13)
        hi = delta * rng.uniform(24.0, 30.0)
        # auto must resolve to local-retarded over the whole grid
        if lo <= 30.0 * fermi_wavelength(metal):
            raise AssertionError("grid reaches the nonlocal band")
        conf = (f"{metal['name']}.conf", "".join(f"{k} = {v}\n" for k, v in metal.items()))
        cmds.append(_sweep("z", lo, hi, RETARDED_POINTS, "auto,local-quasistatic",
                           ("charge", "spin")[i % 2], metal=metal, conf=conf,
                           omega=omega))
    return cmds


_GENERATORS = {
    "nonlocal-fixed-omega": _nonlocal_fixed_omega,
    "nonlocal-omega-sweep": _nonlocal_omega_sweep,
    "retarded-farfield": _retarded_farfield,
}


def generate(name: str, seed: int) -> Workload:
    """The command list of workload `name` for `seed`."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, seed, _GENERATORS[name](rng))
