"""Command-line front end.

Subcommands: spectral, t1, sweep, bulk, figure. Single-point commands
emit JSON; sweeps and figure data emit CSV (or JSON) with units in
every column header and one column group per requested model. Exit
codes: 0 success, 1 validation, 2 physics-domain error, 3 quadrature
non-convergence.

A sweep evaluates chi with one spectral.evaluate_columns call per model
over the (z, omega) points of its grid, on every axis; the spectral
layer groups the points and returns columns in grid order. Temperature
is never a point coordinate: a temperature sweep is one point with one
cell per temperature. The cells of a model at a temperature are one
relaxation.relax call on its columns, and a figure is such a sweep over
one row of a fixed spec table, written by the same table builder, one %
for all rows. A result that is not finite is a domain error, so JSON
output never holds NaN or Infinity.

The flags of every subcommand are one table (_FLAGS, _COMMANDS). main
parses a well-formed command line from it directly (_parse) and hands
any other one (help, an abbreviation, a repeated flag, a value starting
with -, an error) to the argparse parser that build_parser makes from
the same table, so argparse alone writes help, usage and errors, and a
well-formed command imports neither argparse nor locale.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from .bulk import bulk_imD_coincident, surface_limit_imD
from .errors import DomainError, QuadratureError
from .materials import BOHR_MAGNETON, BOHR_RADIUS, C_LIGHT, E_CHARGE, EPS0, load_material
from .quadrature import QuadratureConfig
from .relaxation import _CHI_UNITS, QubitSpec, relax, relaxation_rate, t1 as compute_t1
from .spectral import Model, evaluate, evaluate_columns, regime_select

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


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


# Every flag once: its type, its default and its choices (None: any
# value), and its help line. "name" is figure's positional.
_FLAGS = {
    "--material": (str, "copper", None, "preset name or key=value preset file"),
    "--rel-tol": (float, 1e-8, None, "relative quadrature tolerance"),
    "--out": (str, None, None, "output path (default stdout)"),
    "--z": (float, None, None, "height above surface, m"),
    "--omega": (float, _OMEGA_DEFAULT, None, "angular frequency, rad/s"),
    "--model": (str, "auto", tuple(m.value for m in Model), None),
    "--field": (str, "E", ("E", "B"), None),
    "--qubit": (str, "charge", tuple(sorted(_QUBITS)), None),
    "--moment": (float, None, None, "dipole moment; C*m for charge, J/T for spin "
                                    "(defaults: |e|a_B and mu_B)"),
    "--orientation": (str, "x", ("x", "y", "z"), None),
    "--temp": (float, 0.0, None, "temperature, K"),
    "--axis": (str, None, tuple(sorted(_AXIS_UNITS)), None),
    "--min": (float, None, None, None),
    "--max": (float, None, None, None),
    "--count": (int, None, None, None),
    "--spacing": (str, "log", ("log", "linear"), None),
    "--models": (str, "auto", None, "comma-separated model list"),
    "--format": (str, "csv", ("csv", "json"), None),
    "--out-dir": (str, ".", None, None),
    "name": (str, None, tuple(sorted(_FIGURES)), None),
}

# per subcommand: its help line and its flags in help order; "!" after a
# flag makes it required there, and "~" drops its help line there
_COMMANDS = {
    "spectral": ("noise spectral densities at one point",
                 "--material --rel-tol --out --z! --omega --model --field"),
    "t1": ("qubit relaxation time at one point",
           "--material --rel-tol --out --z! --omega --model"
           " --qubit --moment --orientation --temp"),
    "sweep": ("sweep one axis, CSV or JSON out",
              "--material --rel-tol --out --axis! --min! --max! --count! --spacing --models"
              " --format --z~ --omega~ --qubit --moment --orientation --temp"),
    "bulk": ("bulk and surface-limit Im D", "--material --rel-tol --out --omega~"),
    "figure": ("regenerate figure data files", "name --out-dir --material~ --rel-tol~"),
}


def _flags(command: str) -> dict:
    """{flag: (type, default, choices, help, required)} of a subcommand,
    in its help order. A positional is required."""
    out = {}
    for entry in _COMMANDS[command][1].split():
        flag = entry.rstrip("!~")
        kind, default, choices, help_line = _FLAGS[flag]
        out[flag] = (kind, default, choices, None if entry.endswith("~") else help_line,
                     entry.endswith("!") or not flag.startswith("-"))
    return out


def build_parser(command: str | None = None):
    """The argparse parser of subcommand command alone, or of all of them
    when command is None or names none. Its usage line, which an error of
    the top-level parser prints (an unknown flag after a subcommand),
    lists every subcommand either way."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with 2 on bad flags; the contract wants 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(_EXIT_VALIDATION)

    parser = _Parser(prog="ewjn", usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
                     description="Evanescent-wave Johnson noise and qubit T1 "
                                 "above a metallic half-space")
    subs = parser.add_subparsers(dest="command", required=True, prog="ewjn")
    for name, (help_line, _) in _COMMANDS.items():
        if command not in _COMMANDS or name == command:
            sub = subs.add_parser(name, help=help_line)
            for flag, (kind, default, choices, flag_help, required) in _flags(name).items():
                optional = {"required": required} if flag.startswith("-") else {}
                sub.add_argument(flag, type=kind, default=default, choices=choices,
                                 help=flag_help, **optional)
    return parser


def _parse(argv) -> SimpleNamespace | None:
    """The arguments of a well-formed argv, as build_parser would parse
    them, or None for any other argv, which build_parser then parses (and
    prints its help, usage or error). Well formed is: the exact name of a
    subcommand, then each of its flags at most once, every required one,
    spelled --flag value (a value not starting with -) or --flag=value,
    with a value of the flag's type and choices, and for figure its one
    positional."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _flags(argv[0])
    positional = next((flag for flag in flags if not flag.startswith("-")), None)
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not token.startswith("-"):
            flag, value = positional, token
        elif not eq:
            value = next(tokens, "-")  # a missing value fails as one starting with -
            if value.startswith("-"):
                return None
        if flag not in flags or flag in given:
            return None
        kind, _, choices, _, _ = flags[flag]
        try:
            given[flag] = kind(value)
        except ValueError:
            return None
        if choices is not None and given[flag] not in choices:
            return None
    if any(required and flag not in given for flag, (*_, required) in flags.items()):
        return None
    values = {flag.lstrip("-").replace("-", "_"): given.get(flag, default)
              for flag, (_, default, *_) in flags.items()}
    return SimpleNamespace(command=argv[0], **values)


def _moment(args) -> float:
    return _QUBITS[args.qubit][2] if args.moment is None else args.moment


def _json_number(x):
    """A cell value in JSON: nan (a failed cell) is null, inf (t1 at rate 0) "inf"."""
    return None if math.isnan(x) else "inf" if math.isinf(x) else x


def _cmd_spectral(args, material, cfg) -> int:
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


def _cmd_t1(args, material, cfg) -> int:
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
        return _log_grid(args.min, args.max, args.count)
    return np.linspace(args.min, args.max, args.count).tolist()


def _log_grid(lo, hi, count) -> list:
    """np.geomspace(lo, hi, count) for 0 < lo < hi and count >= 2, bit for
    bit, without the wrappers that cost its first call a few tenths of a
    ms: count steps of (log10 hi - log10 lo)/(count - 1) from log10 lo, the
    last at log10 hi, as powers of 10, then lo and hi at the ends."""
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    exponents = np.arange(count) * ((log_hi - log_lo) / (count - 1)) + log_lo
    exponents[-1] = log_hi
    grid = np.power(10.0, exponents)
    grid[0], grid[-1] = lo, hi
    return grid.tolist()


def _cells(batch, omegas, model, orientation, moment, temp) -> tuple:
    """The cells of one model at one temperature from its evaluate_columns
    batch at omegas: an (n, 5) array of chi_xx, chi_zz, rate, t1 and
    chi_err, and the n statuses. A failed point, or a DomainError of relax
    (a negative temperature, a negative or non-finite rate), makes a cell
    of NaNs."""
    cols, used, failed = batch
    rate, t1s, _, _, lost = relax(cols, omegas, moment, orientation, temp)
    values = np.array([cols[:, 0], cols[:, 1], rate, t1s, cols[:, 2]]).T
    statuses = np.full(len(cols), "domain-error", dtype=object)
    for m, idx in used.items():
        statuses[idx] = "ok" if model != "auto" else f"ok:{m}"
    bad = list(failed) + list(lost)
    values[bad], statuses[bad] = math.nan, "domain-error"
    statuses[[i for i, e in failed.items() if isinstance(e, QuadratureError)]] = "quadrature-error"
    return values, statuses.tolist()


def _sweep_cells(material, cfg, zs, omegas, temps, qubit, orientation, moment, models):
    """Evaluate a sweep: the cells (_cells) of each model at each of
    temps, model-major, over the (z, omega) points (zs or omegas has
    length 1, and is repeated), and the rs_part and rp_part columns of the
    last model (NaN where it failed or has none), from one
    evaluate_columns call per model. A qubit that fails its checks makes
    every cell a domain error."""
    n = max(len(zs), len(omegas))
    zs, omegas = (np.repeat(np.asarray(side, dtype=float), n // len(side)) for side in (zs, omegas))
    kind, field_kind = _QUBITS[qubit][:2]
    try:
        QubitSpec(kind, moment, orientation, omegas[0].item())
        batches = [evaluate_columns(material, field_kind, zs, omegas, model, cfg)
                   for model in models]
    except DomainError as exc:
        batches = [(np.full((zs.size, 5), math.nan), {}, dict.fromkeys(range(zs.size), exc))]
        batches *= len(models)
    cells = [_cells(batch, omegas, model, orientation, moment, temp)
             for model, batch in zip(models, batches) for temp in temps]
    return cells, batches[-1][0][:, 3:]


# the fields of a cell in a CSV line
_CELL_FMT = f",{_FMT},{_FMT},{_FMT},{_FMT},{_FMT},%s"


def _table(axis, grid, labels, units, cells, extra) -> str:
    """The CSV text of a sweep or figure, with one % for all its rows:
    the header, then one line per grid value. Each label (a model, or a
    model at a temperature) heads the six columns of its cells, (values,
    statuses) of _cells over the grid; extra maps the name of each
    further chi column to its value per grid value."""
    header = [f"{axis}[{_AXIS_UNITS[axis]}]"]
    for label in labels:
        header += [f"{label}:chi_xx[{units}]", f"{label}:chi_zz[{units}]",
                   f"{label}:rate[1/s]", f"{label}:t1[s]", f"{label}:chi_err[{units}]",
                   f"{label}:status"]
    header += [f"{name}[{units}]" for name in extra]
    columns = [grid] + [column for values, statuses in cells
                        for column in (*values.T.tolist(), statuses)] + list(extra.values())
    line = _FMT + _CELL_FMT * len(cells) + f",{_FMT}" * len(extra)
    rows = "\n".join([line] * len(grid)) % tuple(itertools.chain.from_iterable(zip(*columns)))
    return ",".join(header) + "\n" + rows


def _worst_exit(cells) -> int:
    statuses = set().union(*(column for _, column in cells))
    if "domain-error" in statuses:
        return _EXIT_DOMAIN
    if "quadrature-error" in statuses:
        return _EXIT_QUADRATURE
    return _EXIT_OK


def _cmd_sweep(args, material, cfg) -> int:
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
        text = _table(axis, grid, models, units, cells, {}) + "\n"
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


def _cmd_bulk(args, material, cfg) -> int:
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
        "inputs": {"material": material.name, "omega_rad_per_s": args.omega,
                   "rel_tol": args.rel_tol},
        "bulk": bulk_doc,
        "surface": {"im_D_xx": surf.im_D_xx, "im_D_zz": surf.im_D_zz, "units": "J*s/m"},
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
        f"bulk_reference_im_D[J*s/m] = {_FMT % im_d} ({status})",
        "bulk_ladder " + " ".join(f"({k:.3e},{_FMT % v})" for k, v in series),
        f"bulk_reference_t1[s] = {_FMT % (1.0 / rate)}",
    ]


def _cmd_figure(args, material, cfg) -> int:
    axis, qubit, models, temps, bulk_reference, decomposition = _FIGURES[args.name]
    _, field_kind, moment, _ = _QUBITS[qubit]
    orientation, lam_f = "x", material.fermi_wavelength
    if axis == "z":
        grid = _log_grid(lam_f, 3000 * lam_f, 15)
        zs, omegas, fixed = grid, [_OMEGA_DEFAULT], f"omega[rad/s] = {_FMT % _OMEGA_DEFAULT}"
    else:
        grid = _log_grid(1e7, 1e11, 17)
        zs, omegas, fixed = [10 * lam_f], grid, f"z[m] = {_FMT % (10 * lam_f)}"
    cells, parts = _sweep_cells(material, cfg, zs, omegas, temps, qubit, orientation, moment,
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
    names = ("chi_xx_rs_part", "chi_xx_rp_part") if decomposition else ()
    extra = dict(zip(names, parts.T.tolist()))
    text = _table(axis, grid, labels, _CHI_UNITS[field_kind], cells, extra)

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, f"{args.name}.csv")
    _write_text(path, "".join(f"# {c}\n" for c in comments) + text + "\n")
    print(f"wrote {path} ({len(grid)} rows)")
    for c in comments:
        print(f"  {c}")
    return _worst_exit(cells)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    handlers = {"spectral": _cmd_spectral, "t1": _cmd_t1, "sweep": _cmd_sweep, "bulk": _cmd_bulk,
                "figure": _cmd_figure}
    try:
        return handlers[args.command](args, load_material(args.material),
                                      QuadratureConfig(rel_tol=args.rel_tol))
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
