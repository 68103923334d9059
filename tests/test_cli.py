"""Command-line interface: JSON/CSV contracts, exit codes, figures.

Values printed by the CLI carry 9 significant digits, so ratios checked
from parsed output use 1e-7 tolerances; JSON floats round-trip exactly.
"""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ewjn
from ewjn import DomainError, QuadratureConfig, QubitSpec, evaluate, load_material, t1
from ewjn.materials import BOHR_MAGNETON, BOHR_RADIUS, E_CHARGE, HBAR, K_BOLTZMANN
from ewjn.cli import _COMMANDS, _flags, _log_grid, _parse, build_parser, main

LAM_F = 4.635454439837973e-10  # copper Fermi wavelength, m


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def loads(text):
    """Strict JSON: NaN, Infinity and -Infinity raise."""
    return json.loads(text, parse_constant=_reject)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def csv_comments(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


# ------------------------------------------------------------ single points

def test_spectral_json_local(capsys):
    code, out, _ = run_cli([
        "spectral", "--z", str(10 * LAM_F), "--model", "local-quasistatic",
    ], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["inputs"]["material"] == "copper"
    assert doc["inputs"]["model_requested"] == "local-quasistatic"
    assert doc["model_used"] == "local-quasistatic"
    assert doc["chi_units"] == "(V/m)^2*s"
    assert doc["chi_zz"] == 2.0 * doc["chi_xx"]
    assert doc["error_estimate"] == 0.0
    assert "chi_xx_decomposition" not in doc


def test_spectral_json_auto_resolves_far_field(capsys):
    code, out, _ = run_cli(["spectral", "--z", "1e-6"], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["inputs"]["model_requested"] == "auto"
    assert doc["model_used"] == "local-retarded"


def test_spectral_json_magnetic_decomposition(capsys):
    code, out, _ = run_cli([
        "spectral", "--field", "B", "--z", str(10 * LAM_F),
        "--model", "nonlocal-quasistatic", "--rel-tol", "1e-6",
    ], capsys)
    assert code == 0
    doc = loads(out)
    parts = doc["chi_xx_decomposition"]
    assert set(parts) == {"rp_part", "rs_part"}
    assert doc["chi_xx"] == parts["rs_part"] + parts["rp_part"]
    assert doc["chi_units"] == "T^2*s"


def test_t1_json_charge_defaults(capsys):
    code, out, _ = run_cli([
        "t1", "--z", str(10 * LAM_F), "--model", "local-quasistatic",
    ], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["inputs"]["qubit"] == "charge"
    assert doc["inputs"]["moment_units"] == "C*m"
    assert doc["chi"]["component"] == "xx"
    assert doc["thermal_factor"] == 1.0
    assert 0.02 < doc["t1_s"] < 0.08
    assert doc["rate_per_s"] * doc["t1_s"] == pytest.approx(1.0, rel=1e-12)


def test_t1_json_infinite_encoded_as_string(capsys, tmp_path):
    path = tmp_path / "ghost.cfg"
    path.write_text("name = ghost\nomega_p_rad_s = 1e-200\n"
                    "nu_rad_s = 1.885e13\nfermi_energy_ev = 7\n")
    code, out, _ = run_cli([
        "t1", "--material", str(path), "--z", str(10 * LAM_F),
        "--model", "local-quasistatic",
    ], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["rate_per_s"] == 0.0
    assert doc["t1_s"] == "inf"


def test_material_file_and_out_flag(capsys, tmp_path):
    mat = tmp_path / "slab.cfg"
    mat.write_text("name = slab\nomega_p_rad_s = 1e16\nnu_rad_s = 1e13\n"
                   "fermi_energy_ev = 5\n")
    out_path = tmp_path / "point.json"
    code, out, _ = run_cli([
        "spectral", "--material", str(mat), "--z", "1e-8",
        "--model", "local-quasistatic", "--out", str(out_path),
    ], capsys)
    assert code == 0
    assert out == ""
    doc = loads(out_path.read_text())
    assert doc["inputs"]["material"] == "slab"


# ------------------------------------------------------------------- sweeps

def test_sweep_csv_z_axis_local(capsys):
    code, out, _ = run_cli([
        "sweep", "--axis", "z", "--min", str(10 * LAM_F),
        "--max", str(20 * LAM_F), "--count", "2",
        "--models", "local-quasistatic",
    ], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "z[m]"
    assert "local-quasistatic:chi_xx[(V/m)^2*s]" in header
    t1_col = header.index("local-quasistatic:t1[s]")
    status_col = header.index("local-quasistatic:status")
    assert all(row[status_col] == "ok" for row in rows)
    # charge qubit against the z^-3 law
    assert float(rows[1][t1_col]) / float(rows[0][t1_col]) \
        == pytest.approx(8.0, rel=1e-7)


def test_sweep_auto_status_names_resolved_model(capsys):
    code, out, _ = run_cli([
        "sweep", "--axis", "z", "--min", str(10 * LAM_F),
        "--max", str(20 * LAM_F), "--count", "2", "--models", "auto",
        "--rel-tol", "1e-6",
    ], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    status_col = header.index("auto:status")
    assert all(row[status_col] == "ok:nonlocal-quasistatic" for row in rows)


def test_sweep_temperature_axis_thermal_ratio(capsys):
    code, out, _ = run_cli([
        "sweep", "--axis", "temperature", "--min", "0", "--max", "2",
        "--count", "2", "--spacing", "linear", "--z", str(10 * LAM_F),
        "--models", "local-quasistatic",
    ], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    t1_col = header.index("local-quasistatic:t1[s]")
    chi_col = header.index("local-quasistatic:chi_xx[(V/m)^2*s]")
    # same chi in every cell; only the thermal factor moves
    assert rows[0][chi_col] == rows[1][chi_col]
    omega0 = 6e8 * math.pi
    expected = math.tanh(HBAR * omega0 / (2.0 * K_BOLTZMANN * 2.0))
    assert float(rows[1][t1_col]) / float(rows[0][t1_col]) \
        == pytest.approx(expected, rel=1e-7)


def test_sweep_temperature_axis_evaluates_chi_once_per_model(capsys, monkeypatch):
    import ewjn.cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate_columns(*args, **kwargs)

    evaluate_columns = ewjn.cli.evaluate_columns
    monkeypatch.setattr(ewjn.cli, "evaluate_columns", counting)
    # chi at the one point of a temperature sweep, and at every point of
    # an omega sweep: one call per model either way
    for axis, lo, hi, points in (("temperature", "0", "3", 1), ("omega", "1e8", "1e10", 4)):
        calls.clear()
        code, out, _ = run_cli([
            "sweep", "--axis", axis, "--min", lo, "--max", hi,
            "--count", "4", "--spacing", "linear", "--z", str(10 * LAM_F),
            "--models", "local-quasistatic,local-retarded",
        ], capsys)
        assert code == 0
        assert len(parse_csv(out)[1]) == 4
        assert len(calls) == 2
        assert all(len(args[2]) == points for args in calls)


def test_sweep_across_regime_boundary_matches_single_points(capsys):
    # copper's skin depth at the default omega is ~3.8 um, so auto goes
    # from nonlocal-quasistatic to local-retarded at ~0.38 um; at z = 1 um
    # it does so at omega ~ 3e8 rad/s
    sweeps = (("z", ["--min", "1e-7", "--max", "3e-6"], lambda v: ["--z", repr(v)]),
              ("omega", ["--min", "1e7", "--max", "1e12", "--z", "1e-6"],
               lambda v: ["--z", "1e-6", "--omega", repr(v)]))
    for axis, grid, point in sweeps:
        code, out, _ = run_cli([
            "sweep", "--axis", axis, "--count", "5", *grid,
            "--models", "auto,local-retarded", "--rel-tol", "1e-6", "--format", "json",
        ], capsys)
        assert code == 0
        rows = loads(out)["rows"]
        assert len(rows) == 10
        statuses = [row["status"] for row in rows if row["model"] == "auto"]
        assert statuses[0] == "ok:nonlocal-quasistatic"
        assert statuses[-1] == "ok:local-retarded"
        assert set(statuses) == {"ok:nonlocal-quasistatic", "ok:local-retarded"}
        for row in rows:
            code, single, _ = run_cli([
                "spectral", *point(row["axis_value"]), "--model", row["model"],
                "--rel-tol", "1e-6",
            ], capsys)
            assert code == 0
            doc = loads(single)
            assert row["status"] == ("ok:" + doc["model_used"] if row["model"] == "auto"
                                     else "ok")
            assert (row["chi_xx"], row["chi_zz"], row["chi_err"]) \
                == (doc["chi_xx"], doc["chi_zz"], doc["error_estimate"])


def test_sweep_json_format(capsys):
    code, out, _ = run_cli([
        "sweep", "--axis", "z", "--min", "1e-9", "--max", "1e-8",
        "--count", "3", "--models", "local-quasistatic", "--format", "json",
    ], capsys)
    assert code == 0
    doc = loads(out)
    assert doc["axis"] == "z"
    assert doc["axis_units"] == "m"
    assert len(doc["rows"]) == 3
    assert all(row["status"] == "ok" for row in doc["rows"])
    assert doc["rows"][0]["model"] == "local-quasistatic"


def test_sweep_csv_fields_are_the_json_values(capsys):
    # the CSV table is formatted in one %: each field is "%.8e" of the
    # value that the JSON rows hold (null for nan, "inf" for inf), beside
    # the same status, over failed and ok cells of two models
    argv = ["sweep", "--axis", "z", "--min", "1e-300", "--max", "1e-8", "--count", "3",
            "--models", "local-quasistatic,auto"]
    code, out, _ = run_cli(argv, capsys)
    json_code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == json_code == 2
    header, lines = parse_csv(out)
    rows = loads(json_out)["rows"]
    assert len(header) == 13 and len(lines) == 3 and len(rows) == 6
    number = {None: math.nan, "inf": math.inf}
    for k, row in enumerate(rows):
        line, m = lines[k // 2], k % 2
        assert line[0] == "%.8e" % row["axis_value"]
        assert line[1 + 6 * m:7 + 6 * m] == [
            "%.8e" % number.get(row[key], row[key])
            for key in ("chi_xx", "chi_zz", "rate_per_s", "t1_s", "chi_err")] + [row["status"]]
    assert {row["status"] for row in rows} == {"domain-error", "ok", "ok:nonlocal-quasistatic"}


def test_sweep_cells_equal_t1_bitwise(capsys, tmp_path):
    # each cell is relax on its point's tensor, as relaxation.t1 is
    copper, cfg = load_material("copper"), QuadratureConfig(rel_tol=1e-6)
    omega = 6e8 * math.pi
    qubits = {"charge": ("electric-dipole", E_CHARGE * BOHR_RADIUS),
              "spin": ("magnetic-dipole", BOHR_MAGNETON)}
    for qubit, (kind, moment) in qubits.items():
        for orientation in ("x", "z"):
            for temp in (0.0, 2.0):
                code, out, _ = run_cli([
                    "sweep", "--axis", "z", "--min", "1e-7", "--max", "1e-6", "--count", "2",
                    "--models", "local-quasistatic,local-retarded", "--qubit", qubit,
                    "--orientation", orientation, "--temp", repr(temp), "--rel-tol", "1e-6",
                    "--format", "json",
                ], capsys)
                assert code == 0
                spec = QubitSpec(kind, moment, orientation, omega)
                for row in loads(out)["rows"]:
                    res = t1(copper, spec, row["axis_value"], temp, row["model"], cfg)
                    assert (row["rate_per_s"], row["t1_s"]) == (res.rate, res.t1)
    # an omega sweep of a dilute metal 20 um out, along z: the local closed
    # form rounds to 0 at 1e134 rad/s (rate 0, t1 inf), the retarded chi_zz
    # is negative at 1e14 rad/s, and the retarded integrand leaves the
    # float range from 1e114 rad/s on
    mat = tmp_path / "farfield.cfg"
    mat.write_text("name = farfield\nomega_p_rad_s = 4.628e15\nnu_rad_s = 8.427e13\n"
                   "fermi_energy_ev = 3.44\n")
    farfield, z = load_material(str(mat)), 1.985e-5
    for temp in (0.0, 2.0):
        code, out, _ = run_cli([
            "sweep", "--axis", "omega", "--min", "1e14", "--max", "1e134", "--count", "7",
            "--z", repr(z), "--material", str(mat), "--models", "local-quasistatic,local-retarded",
            "--orientation", "z", "--temp", repr(temp), "--rel-tol", "1e-6", "--format", "json",
        ], capsys)
        assert code == 2
        seen = set()
        for row in loads(out)["rows"]:
            spec = QubitSpec("electric-dipole", E_CHARGE * BOHR_RADIUS, "z", row["axis_value"])
            try:
                res = t1(farfield, spec, z, temp, row["model"], cfg)
            except DomainError as exc:
                assert (row["status"], row["rate_per_s"], row["t1_s"]) == \
                    ("domain-error", None, None)
                seen.add("negative" if "is negative" in str(exc) else "domain-error")
                continue
            assert row["status"] == "ok"
            assert (row["rate_per_s"], row["t1_s"]) == \
                (res.rate, "inf" if res.t1 == math.inf else res.t1)
            seen.add("inf" if res.t1 == math.inf else "ok")
        assert seen == {"ok", "inf", "negative", "domain-error"}


def test_sweep_per_point_quadrature_failure_is_cell_status(capsys):
    # a hopeless tolerance trips the subdivision budget inside each
    # cell; the sweep still completes and reports per-cell status
    code, out, _ = run_cli([
        "sweep", "--axis", "z", "--min", "1e-6", "--max", "2e-6",
        "--count", "2", "--models", "local-retarded", "--rel-tol", "1e-16",
    ], capsys)
    assert code == 3
    header, rows = parse_csv(out)
    status_col = header.index("local-retarded:status")
    t1_col = header.index("local-retarded:t1[s]")
    for row in rows:
        assert row[status_col] == "quadrature-error"
        assert row[t1_col] == "nan"


def test_negative_reflected_chi_is_domain_error(capsys, tmp_path):
    # far field of a dilute metal: the reflected chi_xx is negative at
    # 15-18.7 skin depths (1.0614e-6 m), chi_zz positive
    mat = tmp_path / "farfield.cfg"
    mat.write_text("name = farfield\nomega_p_rad_s = 4.628e15\nnu_rad_s = 8.427e13\n"
                   "fermi_energy_ev = 3.44\n")
    flags = ["--material", str(mat), "--omega", "6.232e11"]
    code, out, err = run_cli(["t1", "--z", "1.985e-5"] + flags, capsys)
    assert (code, out) == (2, "")
    assert "chi_xx" in err and "free-space term is not included" in err
    for orientation, status, want in (("x", "domain-error", 2), ("z", "ok", 0)):
        code, out, _ = run_cli([
            "sweep", "--axis", "z", "--min", "1.592e-5", "--max", "1.985e-5", "--count", "2",
            "--models", "local-retarded", "--orientation", orientation] + flags, capsys)
        assert code == want
        header, rows = parse_csv(out)
        for row in rows:
            assert row[header.index("local-retarded:status")] == status
            assert (row[header.index("local-retarded:t1[s]")] == "nan") == (status != "ok")



@settings(max_examples=300, derandomize=True, deadline=None)
@given(lo=st.floats(1e-300, 1e300), ratio=st.floats(1.0, 1e50, exclude_min=True),
       count=st.integers(2, 300))
def test_log_grid_is_geomspace_bit_for_bit(lo, ratio, count):
    # the log grids of sweeps and figures skip np.geomspace's wrappers but
    # keep its every bit, ends included
    hi = lo * ratio
    if not (lo < hi < math.inf):
        return
    assert _log_grid(lo, hi, count) == np.geomspace(lo, hi, count).tolist()

# --------------------------------------------------------------- exit codes

def test_validation_exit_codes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["spectral"])  # missing required --z
    assert excinfo.value.code == 1
    capsys.readouterr()

    with pytest.raises(SystemExit) as excinfo:
        main(["spectral", "--z", "1e-8", "--model", "semilocal"])
    assert excinfo.value.code == 1
    capsys.readouterr()

    base = ["sweep", "--axis", "z", "--models", "local-quasistatic"]
    assert main(base + ["--min", "1e-8", "--max", "1e-7", "--count", "1"]) == 1
    assert main(base + ["--min", "1e-7", "--max", "1e-8", "--count", "2"]) == 1
    assert main(["sweep", "--axis", "z", "--min", "1e-8", "--max", "1e-7",
                 "--count", "2", "--models", "local-quasistatic,warp"]) == 1
    assert main(["spectral", "--z", "1e-8", "--material", "unobtainium"]) == 1
    capsys.readouterr()


def test_domain_exit_codes(capsys):
    # --z=-1e-8 spelling: argparse only recognizes plain decimals as
    # negative numbers, so the separate-token form would be eaten as a flag
    assert main(["spectral", "--z=-1e-8"]) == 2
    # omega sweep with no fixed height to evaluate at
    assert main(["sweep", "--axis", "omega", "--min", "1e8", "--max", "1e9",
                 "--count", "2", "--models", "local-quasistatic"]) == 2
    capsys.readouterr()


_Z_SWEEP = ["sweep", "--axis", "z", "--min", "1e-8", "--max", "1e-7", "--count", "2",
            "--models", "local-quasistatic,auto"]
_LQ = ["--model", "local-quasistatic"]
_FAILED = ["domain-error"] * 4


@pytest.mark.parametrize("argv,cells", [
    (["t1", "--z", "1e-8", *_LQ, "--temp", "nan"], None),
    (["t1", "--z", "1e-8", *_LQ, "--temp", "inf"], None),
    (["t1", "--z", "1e-8", *_LQ, "--moment", "inf"], None),
    (["spectral", "--z", "1e-8", "--omega", "inf", *_LQ], None),
    (["spectral", "--z", "1e-8", "--omega", "inf"], None),
    (["spectral", "--z", "1e-8", *_LQ, "--material", "INF"], None),
    (["bulk", "--omega", "inf"], None),
    (["sweep", "--axis", "temperature", "--min", "0", "--max", "inf", "--count", "2",
      "--spacing", "linear", "--z", "1e-8", "--models", "local-quasistatic"], None),
    (_Z_SWEEP + ["--temp", "nan"], _FAILED),
    (_Z_SWEEP + ["--temp", "inf"], _FAILED),
    (_Z_SWEEP + ["--moment", "inf"], _FAILED),
    (_Z_SWEEP + ["--omega", "inf"], _FAILED),
    # finite inputs whose results leave the float range
    (["t1", "--z", "1e-8", *_LQ, "--moment", "1e300"], None),
    (["t1", "--z", "1e-8", *_LQ, "--moment", "1e160"], None),
    (["t1", "--z", "1e-8", *_LQ, "--omega", "1e-300", "--temp", "1"], None),
    (["spectral", "--z", "1e-8", *_LQ, "--omega", "1e-310"], None),
    (["spectral", "--z", "1e-300", *_LQ], None),
    (_Z_SWEEP + ["--moment", "1e300"], _FAILED),
    (_Z_SWEEP[:-1] + ["local-quasistatic", "--omega", "1e-310"], _FAILED[:2]),
    (["sweep", "--axis", "temperature", "--min", "0", "--max", "1e300", "--count", "2",
      "--spacing", "linear", "--z", "1e-8", "--omega", "1e-13",
      "--models", "nonlocal-quasistatic", "--rel-tol", "1e-6"], ["ok", "domain-error"]),
    (["sweep", "--axis", "z", "--min", "1e-300", "--max", "1e-8", "--count", "3",
      "--models", "local-quasistatic"], ["domain-error", "domain-error", "ok"]),
    # the Drude permittivity overflows: each integral-model point fails alone
    (["spectral", "--z", "1e-8", "--model", "local-retarded", "--omega", "1e-300"], None),
    (["spectral", "--z", "1e-8", "--model", "nonlocal-quasistatic", "--omega", "1e-300"],
     None),
    (["spectral", "--field", "B", "--z", "1e-8", "--model", "nonlocal-quasistatic",
      "--omega", "1e-300"], None),
    (_Z_SWEEP + ["--omega", "1e-300"], _FAILED),
    # chi underflows to 0, or the retarded integrand would overflow
    (["spectral", "--field", "B", "--z", "1e-8", "--model", "nonlocal-quasistatic",
      "--omega", "1e-200"], None),
    (["spectral", "--z", "1e-8", "--model", "local-retarded", "--omega", "1e-200"], None),
    (["spectral", "--z", "1e-300", "--model", "local-retarded"], None),
    # the nonlocal cut wavevector, or omega^2, leaves the float range
    (["spectral", "--z", "1e-300", "--model", "nonlocal-quasistatic"], None),
    (["spectral", "--field", "B", "--z", "1e-300", "--model", "nonlocal-quasistatic"], None),
    (["spectral", "--z", "1e-6", "--omega", "1e200", "--model", "local-retarded"], None),
    (["spectral", "--z", "1e-6", "--omega", "1e300", "--model", "local-retarded"], None),
    # the closed forms' omega^2 or z^3 overflows
    (["spectral", "--field", "B", "--z", "1e-6", "--omega", "1e200", *_LQ], None),
    (["spectral", "--z", "1e120", *_LQ], None),
    # the nonlocal model's lowest grid wavevector underflows
    (["spectral", "--z", "1e300", "--omega", "1e9", "--model", "nonlocal-quasistatic"], None),
    (["spectral", "--field", "B", "--z", "1e300", "--omega", "1e9", "--model",
      "nonlocal-quasistatic"], None),
    # the Drude permittivity rounds to 1, yet the metal responds
    (["spectral", "--z", "1e-8", "--omega", "1e150", "--model", "nonlocal-quasistatic"], None),
], ids=["t1-temp-nan", "t1-temp-inf", "t1-moment-inf", "spectral-omega-inf",
        "spectral-auto-omega-inf", "material-omega-p-inf", "bulk-omega-inf",
        "temperature-sweep-max-inf", "sweep-temp-nan", "sweep-temp-inf", "sweep-moment-inf",
        "sweep-omega-inf", "t1-rate-overflow", "t1-moment-squared-overflow",
        "t1-thermal-underflow", "spectral-chi-nan", "spectral-z-cubed-underflow",
        "sweep-rate-overflow", "sweep-chi-nan", "temperature-sweep-thermal-underflow",
        "sweep-z-cubed-underflow", "spectral-retarded-omega-tiny",
        "spectral-nonlocal-omega-tiny", "spectral-nonlocal-B-omega-tiny",
        "sweep-auto-omega-tiny", "spectral-nonlocal-B-chi-underflow",
        "spectral-retarded-g-subnormal", "spectral-retarded-z-tiny", "spectral-nonlocal-z-tiny",
        "spectral-nonlocal-B-z-tiny", "spectral-retarded-omega-squared-overflow",
        "spectral-retarded-omega-huge", "spectral-local-B-omega-squared-overflow",
        "spectral-local-z-cubed-overflow", "spectral-nonlocal-z-huge",
        "spectral-nonlocal-B-z-huge", "spectral-nonlocal-omega-huge-chi-underflow"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_inputs_are_domain_errors(capsys, tmp_path, argv, cells):
    metal = tmp_path / "inf.cfg"
    metal.write_text("name = inf\nomega_p_rad_s = inf\nnu_rad_s = 1e13\nfermi_energy_ev = 5\n")
    code, out, err = run_cli([str(metal) if a == "INF" else a for a in argv], capsys)
    assert code == 2
    if cells:
        header, rows = parse_csv(out)
        statuses = [row[i] for row in rows for i, h in enumerate(header) if h.endswith(":status")]
        assert statuses == cells
        # a failed cell holds nan, an ok one finite values (t1 may be inf)
        for row in rows:
            for i, h in enumerate(header):
                if h.endswith(":status"):
                    values = [float(v) for v in row[i - 5:i]]
                    assert all(map(math.isnan, values)) == (row[i] == "domain-error")
                    assert all(math.isfinite(v) for v in values[:3] + values[4:]) \
                        == (row[i] == "ok")
    else:
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize("field_kind", ["E", "B"])
@pytest.mark.parametrize("model", ["local-quasistatic", "nonlocal-quasistatic",
                                   "local-retarded", "auto"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_plasma_frequency_whose_square_overflows_exits_2(capsys, tmp_path, model, field_kind):
    # omega_p^2 overflows: a chi that is not finite for the closed forms, a
    # Drude permittivity out of the float range for the integral models
    metal = tmp_path / "hot.cfg"
    metal.write_text("name = hot\nomega_p_rad_s = 1e200\nnu_rad_s = 1e13\nfermi_energy_ev = 7\n")
    code, out, err = run_cli(["spectral", "--z", "1e-8", "--model", model, "--field", field_kind,
                              "--material", str(metal)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: chi is not finite" if model == "local-quasistatic" else
                          "error: omega = 1.88496e+09 rad/s is too small for hot")


def test_bulk_at_an_omega_whose_square_overflows_exits_2(capsys):
    code, out, err = run_cli(["bulk", "--omega", "1e200"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: omega = 1e+200 rad/s is too large for copper: omega^2 leaves the "
                   "float range\n")


@pytest.mark.parametrize("argv", [
    ["--z", "1e-20"], ["--z", "1e-60"], ["--field", "B", "--z", "1e-30"],
    ["--field", "B", "--z", "1e-60"],
], ids=["E-1e-20", "E-1e-60", "B-1e-30", "B-1e-60"])
def test_nonlocal_z_below_the_kernel_resolution_exits_2(capsys, argv):
    # these heights once exceeded a bound on the top of the I_p windows;
    # the windows now end at a fixed k_c and the rest is the series of
    # 1/eps_l - 1, so they run: a finite positive chi, the one the point
    # gets alone through the API
    code, out, err = run_cli(["spectral", *argv, "--model", "nonlocal-quasistatic"], capsys)
    assert (code, err) == (0, "")
    doc = loads(out)
    tensor = evaluate(load_material("copper"), doc["inputs"]["field"], doc["inputs"]["z_m"],
                      doc["inputs"]["omega_rad_per_s"], "nonlocal-quasistatic")
    assert 0.0 < doc["chi_xx"] < math.inf and 0.0 < doc["chi_zz"] < math.inf
    assert (doc["chi_xx"], doc["chi_zz"]) == (tensor.chi_xx, tensor.chi_zz)


@pytest.mark.parametrize("argv", [
    ["--z", "1e72", "--omega", "1e9", "--model", "nonlocal-quasistatic"],
    # auto keeps the nonlocal model up to a tenth of the skin depth, ~7e47 m
    ["--z", "1e44", "--omega", "1e-100"],
    ["--z", "3e4", "--omega", "1.8849555921538758e9", "--model", "nonlocal-quasistatic"],
], ids=["nonlocal-z-1e72", "auto-z-1e44-omega-1e-100", "nonlocal-z-3e4"])
def test_magnetic_nonlocal_far_out_is_finite_with_warnings_as_errors(argv):
    # the r_s channel's k-integral stays in the float range here and meets
    # the local closed form; a fresh interpreter runs with -W error
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ewjn.cli", "spectral",
                           "--field", "B", *argv], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = loads(proc.stdout)
    assert doc["model_used"] == "nonlocal-quasistatic"
    assert all(map(math.isfinite, (doc["chi_xx"], doc["chi_zz"], doc["error_estimate"])))
    local = evaluate(load_material("copper"), "B", float(argv[1]), float(argv[3]),
                     "local-quasistatic")
    assert abs(doc["chi_zz"] / local.chi_zz - 1.0) < 1e-12


def test_nonlocal_spin_sweep_up_to_100_km_is_all_ok(capsys):
    # from about 3 km up the magnetic k-integral drops its seeds that map
    # onto u = 1; no point there aborts the batch of the others
    code, out, _ = run_cli(["sweep", "--axis", "z", "--min", "1e-9", "--max", "1e5", "--count", "8",
                            "--models", "nonlocal-quasistatic", "--qubit", "spin"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    status = header.index("nonlocal-quasistatic:status")
    assert [row[status] for row in rows] == ["ok"] * 8


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    capsys.readouterr()


# the least each subcommand parses
_MINIMAL = {"spectral": ["--z", "1e-8"], "t1": ["--z", "1e-8"], "bulk": [], "figure": ["fig1"],
            "sweep": ["--axis", "z", "--min", "1e-8", "--max", "1e-7", "--count", "2"]}
_PARSER_CASES = [
    ["--help"], *([name, "--help"] for name in _COMMANDS),
    # an unknown flag after a subcommand is the top-level parser's error
    *([name, *_MINIMAL[name], "--bogus"] for name in _COMMANDS),
    ["spectral"], ["sweep", "--axis", "z", "--min", "1e-8", "--max", "1e-7"],
    ["spectral", "--z", "1e-8", "--model", "semilocal"], ["figure", "fig9"],
    ["warp"], [],
]


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_lean_parser_prints_what_the_full_one_prints(capsys, argv):
    # main builds only the invoked subcommand's parser; help, usage and
    # errors must stay byte for byte those of the parser of all five
    printed = []
    for parser in (build_parser(), build_parser(argv[0] if argv else None)):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        printed.append((excinfo.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    assert printed[0][1] or printed[0][2]


def test_full_parser_usage_is_the_one_argparse_writes(capsys):
    parser = build_parser()
    usage = parser.format_usage()
    parser.usage = None
    assert parser.format_usage() == usage
    assert usage == "usage: ewjn [-h] {spectral,t1,sweep,bulk,figure} ...\n"
    # a subcommand's usage names it after the program, and a lean parser
    # knows its own subcommand only
    with pytest.raises(SystemExit):
        build_parser("sweep").parse_args(["sweep", "--help"])
    assert capsys.readouterr().out.startswith("usage: ewjn sweep [-h] ")
    with pytest.raises(SystemExit):
        build_parser("sweep").parse_args(["t1", "--z", "1e-8"])


# valid values by type, for a flag with no choices, and the values that a
# fault puts in (invalid choices, odd floats, negatives, ints)
_GOOD_VALUES = {float: ("1e-8", ".5", "nan", "inf", "3", "1e9"), int: ("2", "3", "40"),
                str: ("copper", "x", "out", "local-quasistatic,auto")}
_ODD_VALUES = ("1e-8", ".5", "nan", "inf", "-1", "-1e-8", "", "x", "warp", "fig9", "2", "7")
# argv pieces that send a command to argparse, or make it fail there
_PERTURBATIONS = (["--rel", "1e-6"], ["-h"], ["--help"], ["--"], ["stray"], ["--out", "-"])


@st.composite
def _argvs(draw):
    """A subcommand, its required flags and some others in random order,
    each --flag value or --flag=value with a valid value, then up to two
    faults: an odd value, a repeated or dropped flag, or a perturbation
    (an abbreviation, a help flag, --, a stray positional, --out -)."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _flags(command)

    def spelled(flag, value):
        if not flag.startswith("-"):
            return [value]
        return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]

    groups = [(flag, spelled(flag, draw(st.sampled_from(choices or _GOOD_VALUES[kind]))))
              for flag in draw(st.permutations(list(flags)))
              for kind, _, choices, _, required in [flags[flag]]
              if required or draw(st.booleans())]
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
        fault = draw(st.sampled_from(("value", "value", "value", "repeat", "drop", "drop",
                                      *_PERTURBATIONS)))
        flagged = [i for i, (flag, _) in enumerate(groups) if flag]
        if isinstance(fault, list):
            groups.insert(draw(st.integers(0, len(groups))), (None, fault))
        elif flagged:
            at = draw(st.sampled_from(flagged))
            if fault == "value":
                flag = groups[at][0]
                groups[at] = (flag, spelled(flag, draw(st.sampled_from(_ODD_VALUES))))
            elif fault == "repeat":
                groups.insert(draw(st.integers(0, len(groups))), groups[at])
            else:
                groups.pop(at)
    return [command, *(token for _, tokens in groups for token in tokens)]


def _outcome(args) -> dict:
    """{dest: repr of its value} of parsed arguments: nan equals nan, and
    3 is not 3.0."""
    return {dest: repr(value) for dest, value in vars(args).items()}


@functools.cache
def _parsers(command) -> tuple:
    """The parser of all subcommands and the lean one of command."""
    return build_parser(), build_parser(command)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_argvs())
# argparse takes -1 for a value and -1e-8 for a flag, so --z -1e-8 exits
@example(["spectral", "--z", "-1", "--model", "local-quasistatic"])
@example(["spectral", "--z", "-1e-8"])
@example(["t1", "--z", "1e-8", "--out", "-"])
@example(["bulk", "--out"])
@example(["spectral", "--z=-1e-8"])
@example(["figure", "fig1", "fig2"])
@example(["sweep", "--axis", "z", "--min", "1e-8", "--max", "1e-7", "--count", "1e-8"])
def test_fast_parse_is_what_argparse_parses(argv):
    # main parses a well-formed argv without argparse; where it does, the
    # parser of all subcommands and the lean one parse it to the same
    # arguments, and where argparse exits the fast path has declined
    fast = _parse(argv)
    for parser in _parsers(argv[0]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = _outcome(parser.parse_args(argv))
            except SystemExit as exc:
                parsed = exc.code
        assert fast is None or _outcome(fast) == parsed, argv


def test_well_formed_commands_import_no_argparse(tmp_path):
    # argparse, and the locale module its gettext imports, cost a fresh
    # interpreter about 4 ms; a well-formed command needs neither
    script = ("import contextlib, io, sys\n"
              "from ewjn.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    try:\n"
              "        main(sys.argv[1:])\n"
              "    except SystemExit:\n"
              "        pass\n"
              "print(*sorted({'argparse', 'locale'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ewjn.__file__)))
    cases = [([name, *_MINIMAL[name]], []) for name in _COMMANDS]
    for argv, imported in cases + [(["sweep", "--help"], ["argparse", "locale"])]:
        proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=600)
        assert (proc.returncode, proc.stdout.split()) == (0, imported), (argv, proc.stderr)


# --------------------------------------------------------------------- bulk

def test_bulk_command_reports_nonconvergence(capsys):
    code, out, _ = run_cli(["bulk"], capsys)
    assert code == 3
    doc = loads(out)
    assert doc["bulk"]["status"] == "not-converged"
    assert doc["bulk"]["im_D_xx"] is None
    assert doc["bulk"]["best_estimate"] == pytest.approx(
        1.2796806847089996e-12, rel=1e-6)
    assert len(doc["bulk"]["convergence_series"]) == 4
    assert doc["surface"]["im_D_zz"] == pytest.approx(
        1.1409759941962372e-12, rel=5e-5)
    assert doc["surface"]["units"] == "J*s/m"


def test_bulk_command_reports_a_settled_ladder(capsys, tmp_path):
    # test_bulk's vacuumish metal: omega_p^2 underflows to 0, the ladder
    # settles at its second rung and the command exits 0 with its k_max
    metal = tmp_path / "vacuumish.cfg"
    metal.write_text("name = vacuumish\nomega_p_rad_s = 1e-320\nnu_rad_s = 1e-100\n"
                     "fermi_energy_ev = 7\n")
    code, out, err = run_cli(["bulk", "--material", str(metal)], capsys)
    assert (code, err) == (0, "")
    doc = loads(out)
    assert doc["bulk"]["status"] == "ok"
    assert len(doc["bulk"]["convergence_series"]) == 2
    assert doc["bulk"]["k_max_used_per_m"] == pytest.approx(
        10.0 * load_material(str(metal)).fermi_wavevector, rel=1e-15)


# ------------------------------------------------------------------ figures

def test_figure_fig1_subprocess(tmp_path):
    # console entry end to end, including the bulk-reference comments
    proc = subprocess.run(
        [sys.executable, "-m", "ewjn.cli", "figure", "fig1",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("wrote ")
    text = (tmp_path / "fig1.csv").read_text()
    comments = csv_comments(text)
    assert any("bulk_reference_t1[s]" in c for c in comments)
    assert any("not converged across cutoff ladder" in c for c in comments)
    header, rows = parse_csv(text)
    assert header[0] == "z[m]"
    assert len(rows) == 15
    zs = [float(r[0]) for r in rows]
    assert zs == sorted(zs)
    assert zs[0] == pytest.approx(LAM_F, rel=1e-7)
    assert zs[-1] == pytest.approx(3000 * LAM_F, rel=1e-7)

    t1_loc = header.index("local-quasistatic:t1[s]")
    t1_nl = header.index("nonlocal-quasistatic:t1[s]")
    # local column follows the closed-form z^3 law
    assert float(rows[5][t1_loc]) / float(rows[0][t1_loc]) \
        == pytest.approx((zs[5] / zs[0]) ** 3, rel=1e-6)
    assert all(float(r[t1_nl]) > 0 for r in rows)
    # grid point nearest 30 lambda_F lands at ~31 lambda_F: seconds-scale
    nearest = min(rows, key=lambda r: abs(float(r[0]) - 30 * LAM_F))
    assert 0.1 < float(nearest[t1_loc]) < 10.0


def test_figure_fig2_thermal_rows(capsys, tmp_path):
    code, out, _ = run_cli(
        ["figure", "fig2", "--out-dir", str(tmp_path), "--rel-tol", "1e-6"],
        capsys)
    assert code == 0
    assert "model auto resolves to nonlocal-quasistatic" in out
    text = (tmp_path / "fig2.csv").read_text()
    header, rows = parse_csv(text)
    assert len(rows) == 17
    cold = header.index("auto:T=0K:t1[s]")
    warm = header.index("auto:T=2K:t1[s]")
    for row in rows:
        omega = float(row[0])
        expected = math.tanh(HBAR * omega / (2.0 * K_BOLTZMANN * 2.0))
        assert float(row[warm]) / float(row[cold]) \
            == pytest.approx(expected, rel=1e-7)


def test_figure_fig4_decomposition_columns(capsys, tmp_path):
    code, out, _ = run_cli(
        ["figure", "fig4", "--out-dir", str(tmp_path), "--rel-tol", "1e-6"],
        capsys)
    assert code == 0
    text = (tmp_path / "fig4.csv").read_text()
    header, rows = parse_csv(text)
    rs_col = header.index("chi_xx_rs_part[T^2*s]")
    rp_col = header.index("chi_xx_rp_part[T^2*s]")
    assert len(rows) == 17
    for row in rows:
        assert math.isfinite(float(row[rs_col]))
        assert math.isfinite(float(row[rp_col]))
    # at the low-frequency end the linear channel dwarfs the cubic one
    assert float(rows[0][rs_col]) / float(rows[0][rp_col]) > 1e3


@pytest.mark.parametrize("name", ["fig2", "fig3"])
def test_figure_equals_sweep_over_its_grid(capsys, tmp_path, name):
    lam_f = load_material("copper").fermi_wavelength
    if name == "fig2":
        sweep = ["--axis", "omega", "--min", "1e7", "--max", "1e11", "--count", "17",
                 "--z", repr(10 * lam_f), "--models", "auto"]
        temps = ["0", "2"]
    else:
        sweep = ["--axis", "z", "--min", repr(lam_f), "--max", repr(3000 * lam_f),
                 "--count", "15", "--qubit", "spin",
                 "--models", "local-quasistatic,nonlocal-quasistatic"]
        temps = ["0"]
    code, _, _ = run_cli(["figure", name, "--out-dir", str(tmp_path), "--rel-tol", "1e-6"],
                         capsys)
    assert code == 0
    header, rows = parse_csv((tmp_path / f"{name}.csv").read_text())
    for temp in temps:
        code, out, _ = run_cli(["sweep", *sweep, "--temp", temp, "--rel-tol", "1e-6"], capsys)
        assert code == 0
        sweep_header, sweep_rows = parse_csv(out)
        # the figure's columns at this temperature, in the sweep's order
        tag = "" if len(temps) == 1 else f"T={temp}K:"
        cols = [header.index(h.replace(":", ":" + tag, 1)) for h in sweep_header]
        assert [[row[c] for c in cols] for row in rows] == sweep_rows
