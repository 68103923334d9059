"""Command-line front end.

Subcommands: spectral, t1, sweep, bulk, figure. Single-point commands
emit JSON; sweeps and figure data emit CSV (or JSON) with units in
every column header and one column group per requested model. Exit
codes: 0 success, 1 validation, 2 physics-domain error, 3 quadrature
non-convergence.

A sweep evaluates chi with one spectral.evaluate_batch call per model
over the (z, omega) points of its grid, on every axis; the spectral
layer groups the points, and rows are assembled in grid order.
Temperature is never a point coordinate: a temperature sweep is one
point with one cell per temperature. The cells of a model at a
temperature are one relaxation.relax call on its points' tensors, and a
figure is such a sweep over one row of a fixed spec table, written by
the same table builder. A result that is not finite is a domain error,
so JSON output never holds NaN or Infinity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bulk import bulk_imD_coincident, surface_limit_imD
from .errors import DomainError, QuadratureError
from .materials import (
    BOHR_MAGNETON,
    BOHR_RADIUS,
    C_LIGHT,
    E_CHARGE,
    EPS0,
    load_material,
)
from .quadrature import QuadratureConfig
from .relaxation import _CHI_UNITS, QubitSpec, relax, relaxation_rate, t1 as compute_t1
from .spectral import Model, evaluate, evaluate_batch, regime_select

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_DOMAIN = 2
_EXIT_QUADRATURE = 3

_OMEGA_DEFAULT = 6e8 * math.pi
# per qubit: dipole kind, field kind, default moment, moment units
_QUBITS = {"charge": ("electric-dipole", "E", E_CHARGE * BOHR_RADIUS, "C*m"),
           "spin": ("magnetic-dipole", "B", BOHR_MAGNETON, "J/T")}
_AXIS_UNITS = {"z": "m", "omega": "rad/s", "temperature": "K"}
_CELL_JSON_KEYS = ("chi_xx", "chi_zz", "rate_per_s", "t1_s", "chi_err")

# per figure: axis, qubit, models, temperatures, bulk-reference comments,
# r_s/r_p columns. A z axis runs from lambda_F to 3000 lambda_F at the
# default omega, an omega axis from 1e7 to 1e11 rad/s at z = 10 lambda_F.
_QUASISTATIC = ("local-quasistatic", "nonlocal-quasistatic")
_FIGURES = {
    "fig1": ("z", "charge", _QUASISTATIC, (0.0,), True, False),
    "fig2": ("omega", "charge", ("auto",), (0.0, 2.0), False, False),
    "fig3": ("z", "spin", _QUASISTATIC, (0.0,), False, False),
    "fig4": ("omega", "spin", ("auto",), (0.0, 2.0), False, True),
}

_FMT = "%.8e"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_VALIDATION)


def _fmt(x) -> str:
    return _FMT % x


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _add_common_flags(sub):
    sub.add_argument("--material", default="copper",
                     help="preset name or key=value preset file")
    sub.add_argument("--rel-tol", type=float, default=1e-8,
                     help="relative quadrature tolerance")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _add_point_flags(sub):
    sub.add_argument("--z", type=float, required=True, help="height above surface, m")
    sub.add_argument("--omega", type=float, default=_OMEGA_DEFAULT,
                     help="angular frequency, rad/s")
    sub.add_argument("--model", default="auto",
                     choices=[m.value for m in Model])


def _add_qubit_flags(sub):
    sub.add_argument("--qubit", default="charge", choices=sorted(_QUBITS))
    sub.add_argument("--moment", type=float, default=None,
                     help="dipole moment; C*m for charge, J/T for spin "
                          "(defaults: |e|a_B and mu_B)")
    sub.add_argument("--orientation", default="x", choices=["x", "y", "z"])
    sub.add_argument("--temp", type=float, default=0.0, help="temperature, K")


def _add_omega_flag(sub):
    sub.add_argument("--omega", type=float, default=_OMEGA_DEFAULT)


def _add_sweep_flags(sub):
    sub.add_argument("--axis", required=True, choices=sorted(_AXIS_UNITS))
    sub.add_argument("--min", type=float, required=True)
    sub.add_argument("--max", type=float, required=True)
    sub.add_argument("--count", type=int, required=True)
    sub.add_argument("--spacing", default="log", choices=["log", "linear"])
    sub.add_argument("--models", default="auto", help="comma-separated model list")
    sub.add_argument("--format", default="csv", choices=["csv", "json"])
    sub.add_argument("--z", type=float, default=None)
    _add_omega_flag(sub)


def _add_figure_flags(sub):
    sub.add_argument("name", choices=sorted(_FIGURES))
    sub.add_argument("--out-dir", default=".")
    sub.add_argument("--material", default="copper")
    sub.add_argument("--rel-tol", type=float, default=1e-8)


# per subcommand: its help line and the functions that add its flags
_COMMANDS = {
    "spectral": ("noise spectral densities at one point", (
        _add_common_flags, _add_point_flags,
        lambda sub: sub.add_argument("--field", default="E", choices=["E", "B"]))),
    "t1": ("qubit relaxation time at one point",
           (_add_common_flags, _add_point_flags, _add_qubit_flags)),
    "sweep": ("sweep one axis, CSV or JSON out",
              (_add_common_flags, _add_sweep_flags, _add_qubit_flags)),
    "bulk": ("bulk and surface-limit Im D", (_add_common_flags, _add_omega_flag)),
    "figure": ("regenerate figure data files", (_add_figure_flags,)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand command alone, or of all of them when
    command is None or names none. Its usage line, which an error of the
    top-level parser prints (an unknown flag after a subcommand), lists
    every subcommand either way."""
    parser = _Parser(prog="ewjn", usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
                     description="Evanescent-wave Johnson noise and qubit T1 "
                                 "above a metallic half-space")
    subs = parser.add_subparsers(dest="command", required=True, prog="ewjn")
    for name, (help_line, adders) in _COMMANDS.items():
        if command not in _COMMANDS or name == command:
            sub = subs.add_parser(name, help=help_line)
            for add_flags in adders:
                add_flags(sub)
    return parser


def _moment(args) -> float:
    return _QUBITS[args.qubit][2] if args.moment is None else args.moment


def _json_number(x):
    """A cell value in JSON: nan (a failed cell) is null, inf (t1 at rate 0) "inf"."""
    return None if math.isnan(x) else "inf" if math.isinf(x) else x


def _cmd_spectral(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    tensor = evaluate(material, args.field, args.z, args.omega, args.model, cfg)
    doc = {
        "inputs": {
            "material": material.name,
            "field": args.field,
            "z_m": args.z,
            "omega_rad_per_s": args.omega,
            "model_requested": args.model,
            "rel_tol": args.rel_tol,
        },
        "model_used": str(tensor.model),
        "chi_xx": tensor.chi_xx,
        "chi_zz": tensor.chi_zz,
        "chi_units": _CHI_UNITS[args.field],
        "error_estimate": tensor.error_estimate,
    }
    if tensor.decomposition:
        doc["chi_xx_decomposition"] = dict(sorted(tensor.decomposition.items()))
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK


def _cmd_t1(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    qubit = QubitSpec(_QUBITS[args.qubit][0], _moment(args), args.orientation, args.omega)
    res = compute_t1(material, qubit, args.z, args.temp, args.model, cfg)
    doc = {
        "inputs": {
            "material": material.name,
            "qubit": args.qubit,
            "moment": qubit.moment,
            "moment_units": _QUBITS[args.qubit][3],
            "orientation": qubit.orientation,
            "z_m": args.z,
            "omega_rad_per_s": args.omega,
            "temperature_K": args.temp,
            "model_requested": args.model,
            "rel_tol": args.rel_tol,
        },
        "model_used": str(res.model),
        "chi": {
            "component": res.chi_component,
            "value": res.chi_value,
            "units": res.chi_units,
        },
        "thermal_factor": res.thermal_factor,
        "rate_per_s": res.rate,
        "t1_s": _json_number(res.t1),
        "error_estimate_per_s": res.error_estimate,
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK


def _sweep_grid(args) -> list:
    """Grid from the sweep flags. Shape problems are validation errors."""
    if args.count < 2:
        raise ValueError("sweep count must be >= 2")
    if not (args.min < args.max):
        raise ValueError("sweep requires min < max")
    if not (math.isfinite(args.min) and math.isfinite(args.max)):
        raise DomainError("sweep bounds must be finite")
    if args.axis in ("z", "omega") and args.min <= 0:
        raise ValueError(f"{args.axis} grid must be positive")
    if args.axis == "temperature" and args.min < 0:
        raise ValueError("temperature grid must be >= 0")
    if args.spacing == "log":
        if args.min <= 0:
            raise ValueError("log spacing requires min > 0")
        return np.geomspace(args.min, args.max, args.count).tolist()
    return np.linspace(args.min, args.max, args.count).tolist()


def _cells(outcomes, model, orientation, moment, temp) -> tuple:
    """The cells of one model at one temperature from chi's outcome at
    each point (a tensor, or the DomainError or QuadratureError): an
    (n, 5) array of chi_xx, chi_zz, rate, t1 and chi_err, and the n
    statuses. A failed outcome, or a DomainError of relax at the cell (a
    negative temperature, a negative or non-finite rate), makes a cell
    of NaNs."""
    values = np.full((len(outcomes), 5), math.nan)
    ok_status = {m: "ok" if model != "auto" else f"ok:{m}" for m in Model}
    statuses = ["quadrature-error" if isinstance(o, QuadratureError) else "domain-error"
                if isinstance(o, Exception) else ok_status[o.model] for o in outcomes]
    ok = [i for i, o in enumerate(outcomes) if not isinstance(o, Exception)]
    tensors = [outcomes[i] for i in ok]
    rate, t1s, _, _, errors = relax(tensors, moment, orientation, temp)
    chi = np.array([(t.chi_xx, t.chi_zz, t.error_estimate) for t in tensors]).reshape(-1, 3)
    values[ok] = np.column_stack([chi[:, :2], rate, t1s, chi[:, 2]])
    for i, exc in zip(ok, errors):
        if exc:
            values[i], statuses[i] = math.nan, "domain-error"
    return values, statuses


def _sweep_cells(material, cfg, zs, omegas, temps, qubit, orientation, moment, models):
    """Evaluate a sweep: the cells (_cells) of each model at each of
    temps, model-major, over the (z, omega) points, which broadcast, and
    the tensor of the last model at each point, or None where it failed.
    chi is one evaluate_batch call per model. A qubit that fails its
    checks makes every cell a domain error."""
    zs, omegas = (a.tolist() for a in np.broadcast_arrays(zs, omegas))
    kind, field_kind = _QUBITS[qubit][:2]
    try:
        QubitSpec(kind, moment, orientation, omegas[0])
        batches = [evaluate_batch(material, field_kind, zs, omegas, model, cfg)
                   for model in models]
    except DomainError as exc:
        batches = [[exc] * len(zs)] * len(models)
    cells = [_cells(outcomes, model, orientation, moment, temp)
             for model, outcomes in zip(models, batches) for temp in temps]
    return cells, [None if isinstance(o, Exception) else o for o in batches[-1]]


# the fields of a cell in a CSV line
_CELL_FMT = f",{_FMT},{_FMT},{_FMT},{_FMT},{_FMT},%s"


def _table(axis, grid, labels, units, cells, extra) -> list:
    """CSV lines of a sweep or figure: the header, then one line per grid
    value. Each label (a model, or a model at a temperature) heads the
    six columns of its cells, (values, statuses) of _cells over the grid;
    extra maps the name of each further chi column to its value per grid
    value."""
    header = [f"{axis}[{_AXIS_UNITS[axis]}]"]
    for label in labels:
        header += [f"{label}:chi_xx[{units}]", f"{label}:chi_zz[{units}]",
                   f"{label}:rate[1/s]", f"{label}:t1[s]", f"{label}:chi_err[{units}]",
                   f"{label}:status"]
    header += [f"{name}[{units}]" for name in extra]
    columns = [(values.tolist(), statuses) for values, statuses in cells]
    lines = [",".join(header)]
    for i, axis_value in enumerate(grid):
        line = _fmt(axis_value) + "".join(_CELL_FMT % (*values[i], statuses[i])
                                          for values, statuses in columns)
        lines.append(",".join([line] + [_fmt(column[i]) for column in extra.values()]))
    return lines


def _worst_exit(cells) -> int:
    statuses = {status for _, column in cells for status in column}
    if "domain-error" in statuses:
        return _EXIT_DOMAIN
    if "quadrature-error" in statuses:
        return _EXIT_QUADRATURE
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models:
        raise ValueError("at least one model is required")
    valid = {m.value for m in Model}
    for model in models:
        if model not in valid:
            raise ValueError(f"unknown model {model!r}")
    axis, grid = args.axis, _sweep_grid(args)
    if axis != "z" and args.z is None:
        raise DomainError("--z is required when it is not the sweep axis")
    cells, _ = _sweep_cells(material, cfg, grid if axis == "z" else [args.z],
                            grid if axis == "omega" else [args.omega],
                            grid if axis == "temperature" else [args.temp],
                            args.qubit, args.orientation, _moment(args), models)
    if axis == "temperature":
        # one point: a model's cells over the temperatures are its column
        cells = [(np.vstack([values for values, _ in cells[i:i + len(grid)]]),
                  [column[0] for _, column in cells[i:i + len(grid)]])
                 for i in range(0, len(cells), len(grid))]
    units = _CHI_UNITS[_QUBITS[args.qubit][1]]

    if args.format == "csv":
        text = "\n".join(_table(axis, grid, models, units, cells, {})) + "\n"
    else:
        columns = [(values.tolist(), statuses) for values, statuses in cells]
        doc = {
            "axis": axis,
            "axis_units": _AXIS_UNITS[axis],
            "chi_units": units,
            "rows": [{"axis_value": axis_value, "model": model,
                      **{k: _json_number(v) for k, v in zip(_CELL_JSON_KEYS, values[i])},
                      "status": statuses[i]}
                     for i, axis_value in enumerate(grid)
                     for model, (values, statuses) in zip(models, columns)],
        }
        text = json.dumps(doc, indent=2) + "\n"

    _write_text(args.out, text)
    return _worst_exit(cells)


def _bulk_ladder(material, omega, cfg):
    """The outcome of bulk_imD_coincident (its result, or the
    QuadratureError of a ladder that did not converge) and its series."""
    try:
        res = bulk_imD_coincident(material, omega, cfg)
        return res, res.convergence_series
    except QuadratureError as exc:
        return exc, getattr(exc, "convergence_series", [])


def _cmd_bulk(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    res, series = _bulk_ladder(material, args.omega, cfg)
    failed = isinstance(res, QuadratureError)
    if failed:
        bulk_doc = {"im_D_xx": None, "im_D_zz": None, "units": "J*s/m",
                    "best_estimate": res.best_estimate}
    else:
        bulk_doc = {"im_D_xx": res.im_D_xx, "im_D_zz": res.im_D_zz, "units": "J*s/m",
                    "k_max_used_per_m": res.k_max_used}
    bulk_doc["convergence_series"] = [[k, v] for k, v in series]
    bulk_doc["status"] = "not-converged" if failed else "ok"
    surf = surface_limit_imD(material, args.omega, cfg)
    doc = {
        "inputs": {
            "material": material.name,
            "omega_rad_per_s": args.omega,
            "rel_tol": args.rel_tol,
        },
        "bulk": bulk_doc,
        "surface": {
            "im_D_xx": surf.im_D_xx,
            "im_D_zz": surf.im_D_zz,
            "units": "J*s/m",
        },
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return _EXIT_QUADRATURE if failed else _EXIT_OK


def _bulk_reference_comments(material, omega, cfg, moment) -> list:
    res, series = _bulk_ladder(material, omega, cfg)
    if isinstance(res, QuadratureError):
        im_d, status = res.best_estimate, "not converged across cutoff ladder; last rung used"
    else:
        im_d, status = res.im_D_xx, f"converged at k_max={res.k_max_used:.4e} 1/m"
    chi_bulk = omega**2 / (EPS0 * C_LIGHT**2) * im_d
    rate = relaxation_rate(moment, chi_bulk)
    return [
        f"bulk_reference_im_D[J*s/m] = {_fmt(im_d)} ({status})",
        "bulk_ladder " + " ".join(f"({k:.3e},{_fmt(v)})" for k, v in series),
        f"bulk_reference_t1[s] = {_fmt(1.0 / rate)}",
    ]


def _cmd_figure(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    axis, qubit, models, temps, bulk_reference, decomposition = _FIGURES[args.name]
    _, field_kind, moment, _ = _QUBITS[qubit]
    orientation, lam_f = "x", material.fermi_wavelength
    if axis == "z":
        grid = np.geomspace(lam_f, 3000 * lam_f, 15).tolist()
        zs, omegas, fixed = grid, [_OMEGA_DEFAULT], f"omega[rad/s] = {_fmt(_OMEGA_DEFAULT)}"
    else:
        grid = np.geomspace(1e7, 1e11, 17).tolist()
        zs, omegas, fixed = [10 * lam_f], grid, f"z[m] = {_fmt(10 * lam_f)}"
    cells, tensors = _sweep_cells(material, cfg, zs, omegas, temps, qubit, orientation, moment,
                                  models)

    comments = [f"{args.name}: {qubit} qubit, orientation {orientation},"
                f" material {material.name}", fixed]
    if bulk_reference:
        comments += _bulk_reference_comments(material, _OMEGA_DEFAULT, cfg, moment)
    if "auto" in models:
        auto = regime_select(material, zs[0], _OMEGA_DEFAULT)
        comments.append(f"model auto resolves to {auto} at the fixed point")
    labels = [model if len(temps) == 1 else f"{model}:T={temp:g}K"
              for model in models for temp in temps]
    parts = [{} if tensor is None else tensor.decomposition for tensor in tensors]
    extra = {f"chi_xx_{k}": [p.get(k, math.nan) for p in parts]
             for k in ("rs_part", "rp_part") if decomposition}
    lines = [f"# {c}" for c in comments] + _table(
        axis, grid, labels, _CHI_UNITS[field_kind], cells, extra)

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{args.name}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(grid)} rows)")
    for c in comments:
        print(f"  {c}")
    return _worst_exit(cells)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    handlers = {
        "spectral": _cmd_spectral,
        "t1": _cmd_t1,
        "sweep": _cmd_sweep,
        "bulk": _cmd_bulk,
        "figure": _cmd_figure,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except QuadratureError as exc:
        print(f"quadrature error: {exc}", file=sys.stderr)
        return _EXIT_QUADRATURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
