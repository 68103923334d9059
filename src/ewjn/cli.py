"""Command-line front end.

Subcommands: spectral, t1, sweep, bulk, figure. Single-point commands
emit JSON; sweeps and figure data emit CSV (or JSON) with units in
every column header and one column group per requested model. Exit
codes: 0 success, 1 validation, 2 physics-domain error, 3 quadrature
non-convergence.

A sweep evaluates chi with one spectral.evaluate_batch call per model
over the (z, omega) points of its grid, on every axis; the spectral
layer groups the points, and rows are assembled in grid order.
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
from .relaxation import (
    QubitSpec,
    relaxation_rate,
    relaxation_time,
    t1 as compute_t1,
    thermal_factor,
)
from .spectral import Model, evaluate, evaluate_batch, regime_select

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_DOMAIN = 2
_EXIT_QUADRATURE = 3

_OMEGA_DEFAULT = 6e8 * math.pi
_QUBIT_KINDS = {"charge": "electric-dipole", "spin": "magnetic-dipole"}
_DEFAULT_MOMENTS = {"charge": E_CHARGE * BOHR_RADIUS, "spin": BOHR_MAGNETON}
_MOMENT_UNITS = {"charge": "C*m", "spin": "J/T"}
_AXIS_UNITS = {"z": "m", "omega": "rad/s", "temperature": "K"}

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
    sub.add_argument("--qubit", default="charge", choices=sorted(_QUBIT_KINDS))
    sub.add_argument("--moment", type=float, default=None,
                     help="dipole moment; C*m for charge, J/T for spin "
                          "(defaults: |e|a_B and mu_B)")
    sub.add_argument("--orientation", default="x", choices=["x", "y", "z"])
    sub.add_argument("--temp", type=float, default=0.0, help="temperature, K")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ewjn",
                     description="Evanescent-wave Johnson noise and qubit T1 "
                                 "above a metallic half-space")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectral", help="noise spectral densities at one point")
    _add_common_flags(sp)
    _add_point_flags(sp)
    sp.add_argument("--field", default="E", choices=["E", "B"])

    tp = subs.add_parser("t1", help="qubit relaxation time at one point")
    _add_common_flags(tp)
    _add_point_flags(tp)
    _add_qubit_flags(tp)

    sw = subs.add_parser("sweep", help="sweep one axis, CSV or JSON out")
    _add_common_flags(sw)
    sw.add_argument("--axis", required=True, choices=sorted(_AXIS_UNITS))
    sw.add_argument("--min", type=float, required=True)
    sw.add_argument("--max", type=float, required=True)
    sw.add_argument("--count", type=int, required=True)
    sw.add_argument("--spacing", default="log", choices=["log", "linear"])
    sw.add_argument("--models", default="auto",
                    help="comma-separated model list")
    sw.add_argument("--format", default="csv", choices=["csv", "json"])
    sw.add_argument("--z", type=float, default=None)
    sw.add_argument("--omega", type=float, default=_OMEGA_DEFAULT)
    _add_qubit_flags(sw)

    bp = subs.add_parser("bulk", help="bulk and surface-limit Im D")
    _add_common_flags(bp)
    bp.add_argument("--omega", type=float, default=_OMEGA_DEFAULT)

    fp = subs.add_parser("figure", help="regenerate figure data files")
    fp.add_argument("name", choices=["fig1", "fig2", "fig3", "fig4"])
    fp.add_argument("--out-dir", default=".")
    fp.add_argument("--material", default="copper")
    fp.add_argument("--rel-tol", type=float, default=1e-8)

    return parser


def _qubit_from_args(args, omega: float) -> QubitSpec:
    moment = args.moment
    if moment is None:
        moment = _DEFAULT_MOMENTS[args.qubit]
    return QubitSpec(
        kind=_QUBIT_KINDS[args.qubit],
        moment=moment,
        orientation=args.orientation,
        level_splitting=omega,
    )


def _cmd_spectral(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    tensor = evaluate(material, args.field, args.z, args.omega, args.model, cfg)
    units = "(V/m)^2*s" if args.field == "E" else "T^2*s"
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
        "chi_units": units,
        "error_estimate": tensor.error_estimate,
    }
    if tensor.decomposition:
        doc["chi_xx_decomposition"] = dict(sorted(tensor.decomposition.items()))
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK


def _cmd_t1(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    qubit = _qubit_from_args(args, args.omega)
    res = compute_t1(material, qubit, args.z, args.temp, args.model, cfg)
    doc = {
        "inputs": {
            "material": material.name,
            "qubit": args.qubit,
            "moment": qubit.moment,
            "moment_units": _MOMENT_UNITS[args.qubit],
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
        "t1_s": res.t1 if math.isfinite(res.t1) else "inf",
        "error_estimate_per_s": res.error_estimate,
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return _EXIT_OK


def _sweep_grid(args) -> np.ndarray:
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
        return np.geomspace(args.min, args.max, args.count)
    return np.linspace(args.min, args.max, args.count)


def _group_cell(outcome, omega, model, orientation, moment, temps):
    """(chi_xx, chi_zz, rate, t1, err, status) per temperature from chi's
    outcome at a point: a tensor, or the DomainError or QuadratureError.
    A negative temperature or reflected chi makes a domain-error cell."""
    if isinstance(outcome, Exception):
        failed = ("quadrature-error" if isinstance(outcome, QuadratureError)
                  else "domain-error")
        return [(math.nan,) * 5 + (failed,) for _ in temps]
    component = "zz" if orientation == "z" else "xx"
    chi = outcome.chi_zz if orientation == "z" else outcome.chi_xx
    cells = []
    for temp in temps:
        try:
            rate = relaxation_rate(moment, chi, thermal_factor(omega, temp))
            t1_value = relaxation_time(rate, component)
        except DomainError:
            cells.append((math.nan,) * 5 + ("domain-error",))
            continue
        status = "ok" if model != Model.AUTO.value else f"ok:{outcome.model}"
        cells.append((float(outcome.chi_xx), float(outcome.chi_zz), float(rate),
                      float(t1_value), float(outcome.error_estimate), status))
    return cells


def _chi_units_for(qubit_name: str) -> str:
    return "(V/m)^2*s" if qubit_name == "charge" else "T^2*s"


def _group_header(label: str, units: str) -> list:
    return [
        f"{label}:chi_xx[{units}]",
        f"{label}:chi_zz[{units}]",
        f"{label}:rate[1/s]",
        f"{label}:t1[s]",
        f"{label}:chi_err[{units}]",
        f"{label}:status",
    ]


def _csv_row(axis_value, cells) -> str:
    fields = [_fmt(axis_value)]
    for cell in cells:
        fields += [_fmt(v) for v in cell[:5]] + [cell[5]]
    return ",".join(fields)


def _sweep_rows(material, cfg, axis, grid, fixed, models, temps=None):
    """Evaluate a sweep: per grid value, (cells, tensor of the last model).

    cells run over models and, per model, over temps (default: the
    point's own temperature); chi is evaluated once per (point, model),
    in one evaluate_batch call per model. A qubit that fails its checks
    makes every cell a domain error. fixed is (z, omega, temperature,
    qubit name, orientation, moment).
    """
    z, omega, temp, qubit_name, orientation, moment = fixed
    if axis != "z" and z is None:
        raise DomainError("--z is required when it is not the sweep axis")
    # z, omega and temperature of each point: the axis merged with the fixed flags
    zs, omegas, point_temps = zip(*[(v if axis == "z" else z, v if axis == "omega" else omega,
                                     v if axis == "temperature" else temp)
                                    for v in map(float, grid)])
    try:
        field_kind = QubitSpec(_QUBIT_KINDS[qubit_name], moment, orientation,
                               omegas[0]).field_kind
        batches = [evaluate_batch(material, field_kind, zs, omegas, model, cfg)
                   for model in models]
    except DomainError as exc:
        batches = [[exc] * len(zs)] * len(models)
    cells = [[] for _ in zs]
    tensors = [None] * len(zs)
    for model, outcomes in zip(models, batches):
        for i, outcome in enumerate(outcomes):
            cells[i] += _group_cell(outcome, omegas[i], model, orientation, moment,
                                    temps or [point_temps[i]])
            tensors[i] = None if isinstance(outcome, Exception) else outcome
    return list(zip(cells, tensors))


def _worst_exit(cells_iter) -> int:
    statuses = {cell[5] for cell in cells_iter}
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
    grid = _sweep_grid(args)
    moment = args.moment if args.moment is not None else _DEFAULT_MOMENTS[args.qubit]
    units = _chi_units_for(args.qubit)

    fixed = (args.z, args.omega, args.temp, args.qubit, args.orientation, moment)
    if args.axis == "temperature":
        # chi does not depend on T: one point, one cell per grid temperature
        [(cells, _)] = _sweep_rows(material, cfg, args.axis, grid[:1], fixed, models,
                                   [float(v) for v in grid])
        rows = [cells[i::len(grid)] for i in range(len(grid))]
    else:
        rows = [cells for cells, _ in
                _sweep_rows(material, cfg, args.axis, grid, fixed, models)]

    header = [f"{args.axis}[{_AXIS_UNITS[args.axis]}]"]
    for model in models:
        header += _group_header(model, units)

    if args.format == "csv":
        lines = [",".join(header)] + [_csv_row(v, row) for v, row in zip(grid, rows)]
        text = "\n".join(lines) + "\n"
    else:
        out_rows = []
        for axis_value, row in zip(grid, rows):
            for model, cell in zip(models, row):
                out_rows.append({
                    "axis_value": float(axis_value),
                    "model": model,
                    "chi_xx": None if math.isnan(cell[0]) else cell[0],
                    "chi_zz": None if math.isnan(cell[1]) else cell[1],
                    "rate_per_s": None if math.isnan(cell[2]) else cell[2],
                    "t1_s": (None if math.isnan(cell[3])
                             else ("inf" if math.isinf(cell[3]) else cell[3])),
                    "chi_err": None if math.isnan(cell[4]) else cell[4],
                    "status": cell[5],
                })
        doc = {
            "axis": args.axis,
            "axis_units": _AXIS_UNITS[args.axis],
            "chi_units": units,
            "rows": out_rows,
        }
        text = json.dumps(doc, indent=2) + "\n"

    _write_text(args.out, text)
    return _worst_exit(cell for row in rows for cell in row)


def _cmd_bulk(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    exit_code = _EXIT_OK
    try:
        res = bulk_imD_coincident(material, args.omega, cfg)
        bulk_doc = {
            "im_D_xx": res.im_D_xx,
            "im_D_zz": res.im_D_zz,
            "units": "J*s/m",
            "k_max_used_per_m": res.k_max_used,
            "convergence_series": [[k, v] for k, v in res.convergence_series],
            "status": "ok",
        }
    except QuadratureError as exc:
        series = getattr(exc, "convergence_series", [])
        bulk_doc = {
            "im_D_xx": None,
            "im_D_zz": None,
            "units": "J*s/m",
            "best_estimate": exc.best_estimate,
            "convergence_series": [[k, v] for k, v in series],
            "status": "not-converged",
        }
        exit_code = _EXIT_QUADRATURE
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
    return exit_code


def _bulk_reference_comments(material, omega, cfg, moment) -> list:
    try:
        res = bulk_imD_coincident(material, omega, cfg)
        im_d = res.im_D_xx
        status = f"converged at k_max={res.k_max_used:.4e} 1/m"
        series = res.convergence_series
    except QuadratureError as exc:
        im_d = exc.best_estimate
        series = getattr(exc, "convergence_series", [])
        status = "not converged across cutoff ladder; last rung used"
    chi_bulk = omega**2 / (EPS0 * C_LIGHT**2) * im_d
    rate = relaxation_rate(moment, chi_bulk)
    return [
        f"bulk_reference_im_D[J*s/m] = {_fmt(im_d)} ({status})",
        "bulk_ladder " + " ".join(f"({k:.3e},{_fmt(v)})" for k, v in series),
        f"bulk_reference_t1[s] = {_fmt(1.0 / rate)}",
    ]


def _figure_spec(name: str, material):
    lam_f = material.fermi_wavelength
    z_grid = np.geomspace(lam_f, 3000 * lam_f, 15)
    omega_grid = np.geomspace(1e7, 1e11, 17)
    if name == "fig1":
        return dict(axis="z", grid=z_grid, qubit="charge",
                    omega=_OMEGA_DEFAULT, temps=[0.0],
                    models=["local-quasistatic", "nonlocal-quasistatic"],
                    bulk_reference=True, decomposition=False)
    if name == "fig2":
        return dict(axis="omega", grid=omega_grid, qubit="charge",
                    z=10 * lam_f, temps=[0.0, 2.0],
                    models=["auto"], bulk_reference=False, decomposition=False)
    if name == "fig3":
        return dict(axis="z", grid=z_grid, qubit="spin",
                    omega=_OMEGA_DEFAULT, temps=[0.0],
                    models=["local-quasistatic", "nonlocal-quasistatic"],
                    bulk_reference=False, decomposition=False)
    return dict(axis="omega", grid=omega_grid, qubit="spin",
                z=10 * lam_f, temps=[0.0, 2.0],
                models=["auto"], bulk_reference=False, decomposition=True)


def _cmd_figure(args) -> int:
    material = load_material(args.material)
    cfg = QuadratureConfig(rel_tol=args.rel_tol)
    spec = _figure_spec(args.name, material)
    axis = spec["axis"]
    grid = [float(v) for v in spec["grid"]]
    units = _chi_units_for(spec["qubit"])
    moment = _DEFAULT_MOMENTS[spec["qubit"]]
    orientation = "x"
    fixed = (spec.get("z"), spec.get("omega", _OMEGA_DEFAULT), 0.0, spec["qubit"],
             orientation, moment)
    rows = _sweep_rows(material, cfg, axis, grid, fixed, spec["models"], spec["temps"])

    comments = [
        f"{args.name}: {spec['qubit']} qubit, orientation {orientation},"
        f" material {material.name}",
    ]
    if axis == "z":
        comments.append(f"omega[rad/s] = {_fmt(spec['omega'])}")
    else:
        comments.append(f"z[m] = {_fmt(spec['z'])}")
    if spec["bulk_reference"]:
        comments += _bulk_reference_comments(material, spec["omega"], cfg, moment)
    if "auto" in spec["models"]:
        choice = regime_select(material, spec.get("z") or grid[0],
                               spec.get("omega", _OMEGA_DEFAULT))
        comments.append(f"model auto resolves to {choice.model} at the fixed point")

    header = [f"{axis}[{_AXIS_UNITS[axis]}]"]
    for model in spec["models"]:
        for temp in spec["temps"]:
            label = model if len(spec["temps"]) == 1 else f"{model}:T={temp:g}K"
            header += _group_header(label, units)
    if spec["decomposition"]:
        header += [f"chi_xx_rs_part[{units}]", f"chi_xx_rp_part[{units}]"]

    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for axis_value, (cells, tensor) in zip(grid, rows):
        line = _csv_row(axis_value, cells)
        if spec["decomposition"]:
            parts = tensor.decomposition if tensor is not None else {}
            line += "".join("," + _fmt(parts.get(k, math.nan))
                            for k in ("rs_part", "rp_part"))
        lines.append(line)
    text = "\n".join(lines) + "\n"

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{args.name}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path} ({len(grid)} rows)")
    for c in comments:
        print(f"  {c}")
    return _worst_exit(cell for cells, _ in rows for cell in cells)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
