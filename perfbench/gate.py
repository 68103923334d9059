"""Correctness gate and output quality of a benchmark pass.

Every run checks the program's outputs against identities that hold
exactly in the package, to the 9 significant digits the CSV prints:

- electric quasistatic cells (local and nonlocal) have chi_zz = 2 chi_xx;
- local-quasistatic cells equal their closed forms, computed here;
- rate = (moment/hbar)^2 chi coth(hbar omega/2 k_B T) and t1 = 1/rate;
- along a temperature sweep t1(T)/t1(0) = tanh(hbar omega/2 k_B T) to 1e-6;
- the bulk surface limit keeps Im D_zz = 2 Im D_xx and is positive;
- each command's exit code is the one its output documents.

A cell is bad if its status is not ok, a value is NaN, a chi is <= 0 or
t1 is infinite; bad cells are counted (ok_frac), not gate failures. A
good cell of a quadrature model meets its tolerance when chi_xx and
chi_zz are within rel_tol of a reference evaluated through the public
API at rel_tol/100, plus half a unit of the last printed digit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from workloads import C_LIGHT, E_CHARGE, HBAR

EPS0 = 8.8541878128e-12
K_BOLTZMANN = 1.380649e-23
MOMENTS = {"charge": E_CHARGE * 5.29177210903e-11, "spin": 9.2740100783e-24}

PRINT_REL = 2e-8  # two units of the 9th significant digit
TANH_REL = 1e-6
QUADRATURE_MODELS = ("nonlocal-quasistatic", "local-retarded")

_EXIT = {"domain-error": 2, "quadrature-error": 3}


@dataclass
class Cell:
    command: int
    model: str  # resolved model
    field: str
    z: float
    omega: float
    temp: float
    chi_xx: float
    chi_zz: float
    rate: float
    t1: float
    status: str
    text_xx: str
    text_zz: str

    @property
    def good(self) -> bool:
        values = (self.chi_xx, self.chi_zz, self.rate, self.t1)
        return (self.status.startswith("ok") and not any(map(math.isnan, values))
                and self.chi_xx > 0 and self.chi_zz > 0 and math.isfinite(self.t1))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _half_quantum(text: str) -> float:
    """Half a unit of the last digit of a value printed as %.8e."""
    return 0.5e-8 * 10.0 ** int(text.split("e")[1])


def drude(metal: dict, omega: float) -> complex:
    wp, nu = metal["omega_p_rad_s"], metal["nu_rad_s"]
    return 1.0 - wp * wp / (omega * (omega + 1j * nu))


def closed_form(metal: dict, field: str, z: float, omega: float):
    """(chi_xx, chi_zz) of the local quasistatic model."""
    eps = drude(metal, omega)
    if field == "E":
        xx = HBAR / (8.0 * EPS0 * z**3) * ((eps - 1.0) / (eps + 1.0)).imag
        return xx, 2.0 * xx
    zz = HBAR * omega**2 / (8.0 * EPS0 * C_LIGHT**4 * z) * eps.imag
    return 0.5 * zz, zz


def coth_factor(omega: float, temp: float) -> float:
    if temp == 0:
        return 1.0
    return 1.0 / math.tanh(HBAR * omega / (2.0 * K_BOLTZMANN * temp))


def sweep_grid(flags: dict) -> list:
    lo, hi, n = float(flags["min"]), float(flags["max"]), int(flags["count"])
    if flags["spacing"] == "log":
        return [float(v) for v in np.geomspace(lo, hi, n)]
    return [float(v) for v in np.linspace(lo, hi, n)]


class Gate:
    """Checks one pass; collects problems and cells."""

    def __init__(self):
        self.problems = []
        self.cells = []

    def fail(self, index: int, what: str) -> None:
        self.problems.append(f"command {index}: {what}")

    def command(self, index: int, cmd, exit_code: int, stdout: bytes) -> bool:
        """Check one command's output; False if it broke a check."""
        before = len(self.problems)
        try:
            text = stdout.decode()
            if cmd.subcommand == "bulk":
                expected = self._bulk(index, text)
            else:
                expected = self._sweep(index, cmd, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.fail(index, f"unreadable output ({exc!r})")
            expected = None
        if exit_code != expected:
            self.fail(index, f"exit code {exit_code}, output implies {expected}")
        return len(self.problems) == before

    def _bulk(self, index, text) -> int:
        doc = json.loads(text)
        surf = doc["surface"]
        xx, zz = surf["im_D_xx"], surf["im_D_zz"]
        if not (xx > 0 and math.isfinite(zz) and _close(zz, 2.0 * xx, 1e-12)):
            self.fail(index, f"surface limit Im D ({xx}, {zz}) breaks zz = 2 xx > 0")
        status = doc["bulk"]["status"]
        if status not in ("ok", "not-converged"):
            self.fail(index, f"bulk status {status!r}")
        return 0 if status == "ok" else 3

    def _sweep(self, index, cmd, text) -> int:
        flags = cmd.flags
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
        models = flags["models"].split(",")
        grid = sweep_grid(flags)
        if len(rows) != len(grid) or len(header) != 1 + 6 * len(models):
            raise ValueError("sweep shape does not match its flags")
        axis = flags["axis"]
        field = "E" if flags["qubit"] == "charge" else "B"
        moment = MOMENTS[flags["qubit"]]
        statuses = set()
        by_model = {m: [] for m in models}
        fixed = {k: float(flags[k]) if k in flags else math.nan for k in ("z", "omega")}
        fixed["temperature"] = 0.0
        for value, row in zip(grid, rows):
            if row[0] != "%.8e" % value:
                self.fail(index, f"axis value {row[0]} is not the grid point {value!r}")
            point = dict(fixed, **{axis: value})
            for g, requested in enumerate(models):
                f = row[1 + 6 * g: 7 + 6 * g]
                status = f[5]
                statuses.add(status)
                resolved = status[3:] if status.startswith("ok:") else requested
                cell = Cell(index, resolved, field, point["z"], point["omega"],
                            point["temperature"], *(float(v) for v in f[:4]),
                            status, f[0], f[1])
                self.cells.append(cell)
                by_model[requested].append(cell)
                if cell.good:
                    self._cell(index, cell, cmd.material, moment)
        if axis == "temperature":
            for cells in by_model.values():
                self._thermal(index, cells)
        for status, code in _EXIT.items():
            if status in statuses:
                return code
        return 0

    def _cell(self, index, cell: Cell, metal: dict, moment: float) -> None:
        where = f"{cell.model} {cell.field} z={cell.z!r} omega={cell.omega!r}"
        if cell.field == "E" and cell.model != "local-retarded":
            if not _close(cell.chi_zz, 2.0 * cell.chi_xx, PRINT_REL):
                self.fail(index, f"{where}: chi_zz != 2 chi_xx")
        if cell.model == "local-quasistatic":
            xx, zz = closed_form(metal, cell.field, cell.z, cell.omega)
            if not (_close(cell.chi_xx, xx, PRINT_REL) and _close(cell.chi_zz, zz, PRINT_REL)):
                self.fail(index, f"{where}: ({cell.chi_xx}, {cell.chi_zz}) "
                                 f"is not the closed form ({xx}, {zz})")
        rate = (moment / HBAR) ** 2 * cell.chi_xx * coth_factor(cell.omega, cell.temp)
        if not (_close(cell.rate, rate, PRINT_REL) and _close(cell.t1 * cell.rate, 1.0, PRINT_REL)):
            self.fail(index, f"{where} T={cell.temp}: rate {cell.rate} / t1 {cell.t1} "
                             f"inconsistent with chi (rate {rate})")

    def _thermal(self, index, cells) -> None:
        base = cells[0]
        if base.temp != 0.0 or not base.good:
            return
        for cell in cells[1:]:
            if not cell.good:
                continue
            expected = math.tanh(HBAR * cell.omega / (2.0 * K_BOLTZMANN * cell.temp))
            if not _close(cell.t1 / base.t1, expected, TANH_REL):
                self.fail(index, f"t1({cell.temp} K)/t1(0) = {cell.t1 / base.t1!r}, "
                                 f"tanh gives {expected!r}")


def _point(cell: Cell, commands) -> tuple:
    cmd = commands[cell.command]
    return (cmd.material_file or "copper", cell.field, cell.model,
            cell.z, cell.omega, float(cmd.flags["rel-tol"]))


def _quadrature_points(cells, commands):
    """(cell, point) for the first good cell of each distinct quadrature point.

    The cells of a temperature sweep share one chi, so accuracy is
    counted per distinct evaluation, not per cell.
    """
    seen = set()
    for cell in cells:
        if cell.good and cell.model in QUADRATURE_MODELS:
            point = _point(cell, commands)
            if point not in seen:
                seen.add(point)
                yield cell, point


def reference_points(cells, commands) -> list:
    """Distinct (material, field, model, z, omega, rel_tol) of good quadrature cells."""
    return [point for _, point in _quadrature_points(cells, commands)]


def tolerance_met(cells, commands, refs: dict) -> dict:
    """Per command index: [points meeting rel_tol, compared, without
    reference, compared with the rel_tol/10 fallback reference]."""
    tally = {}
    for cell, point in _quadrature_points(cells, commands):
        counts = tally.setdefault(cell.command, [0, 0, 0, 0])
        ref = refs.get(point)
        if ref is None:
            counts[2] += 1
            continue
        counts[3] += ref[2] != 100
        tol = point[-1]
        counts[1] += 1
        counts[0] += all(abs(v - r) <= tol * abs(r) + _half_quantum(text)
                         for v, r, text in ((cell.chi_xx, ref[0], cell.text_xx),
                                            (cell.chi_zz, ref[1], cell.text_zz)))
    return tally
