"""Compare the `ewjn` CLI of this checkout with another checkout's.

    python3 tools/cli_identity.py PARENT_DIR

Run from the repository root. The commands are those of seeds 501, 612
and 777 of every perfbench workload (perfbench/workloads.py) plus the
fixed EDGES and MATERIAL_EDGES lists below. Each command runs in a fresh interpreter, once
with PARENT_DIR/src and once with ./src on PYTHONPATH, each time in a
new empty working directory that holds only the command's material
file. The exit code, stdout, stderr and every file the command leaves
in its working directory are compared. Each command that differs is
printed with its first differing line per stream ("-" the parent's,
"+" this checkout's) and, for a stream or file that is JSON or CSV, the
largest relative shift |new - old|/|old| of each numeric JSON key (list
items pooled under "[]") or CSV column that moved; the exit status is 1
if any command differs, else 0.
"""

import difflib
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

SEEDS = (501, 612, 777)

_Z = ["--z", "4.64e-9"]
_LQ = ["--model", "local-quasistatic"]
_Z_SWEEP = ["sweep", "--axis", "z", "--min", "1e-8", "--max", "1e-7", "--count", "3",
            "--models", "local-quasistatic,auto"]
_LQ_SWEEP = ["sweep", "--axis", "z", "--min", "1e-8", "--max", "1e-7", "--count", "3",
             "--models", "local-quasistatic"]
EDGES = [
    # every command shape: point JSON, sweep axes and formats, cell failures
    ["spectral", *_Z, "--omega", "1.885e9", "--model", "nonlocal-quasistatic"],
    ["spectral", "--field", "B", *_Z, "--model", "nonlocal-quasistatic", "--rel-tol", "1e-6"],
    ["spectral", "--z", "1e-6"],
    ["t1", *_Z, *_LQ],
    ["t1", "--qubit", "spin", "--orientation", "z", *_Z, "--temp", "2", "--rel-tol", "1e-6"],
    ["t1", *_Z, *_LQ, "--moment", "0"],
    ["sweep", "--axis", "z", "--min", "1e-7", "--max", "3e-6", "--count", "5",
     "--models", "auto,local-retarded", "--rel-tol", "1e-6", "--format", "json"],
    ["sweep", "--axis", "omega", "--min", "1e7", "--max", "1e12", "--count", "5", "--z", "1e-6",
     "--models", "auto,local-retarded", "--rel-tol", "1e-6"],
    ["sweep", "--axis", "omega", "--min", "1e7", "--max", "1e12", "--count", "5", "--z", "1e-6",
     "--models", "auto", "--qubit", "spin", "--temp", "2", "--rel-tol", "1e-6", "--format", "json"],
    ["sweep", "--axis", "temperature", "--min", "0", "--max", "4", "--count", "3",
     "--spacing", "linear", *_Z, "--models", "local-quasistatic,nonlocal-quasistatic",
     "--qubit", "spin", "--orientation", "z", "--rel-tol", "1e-6"],
    ["sweep", "--axis", "temperature", "--min", "0", "--max", "4", "--count", "3",
     "--spacing", "linear", *_Z, "--models", "local-quasistatic", "--format", "json"],
    ["sweep", "--axis", "z", "--min", "1e-6", "--max", "2e-6", "--count", "2",
     "--models", "local-retarded", "--rel-tol", "1e-16"],
    ["sweep", "--axis", "omega", "--min", "1e8", "--max", "1e9", "--count", "2",
     "--models", "local-quasistatic"],
    _Z_SWEEP + ["--moment=-1"],
    _Z_SWEEP + ["--omega=-1"],
    _Z_SWEEP + ["--temp", "nan", "--format", "json"],
    ["bulk"],
    ["bulk", "--omega", "1e12", "--rel-tol", "1e-6"],
    *(["figure", name, "--rel-tol", "1e-6", "--out-dir", "out"]
      for name in ("fig1", "fig2", "fig3", "fig4")),
    # finite inputs at the edge of the float range
    ["t1", "--z", "1e-8", *_LQ, "--moment", "1e300"],
    ["t1", "--z", "1e-8", *_LQ, "--moment", "1e160"],
    ["t1", "--z", "1e-8", *_LQ, "--omega", "1e-310"],
    ["t1", "--z", "1e-8", *_LQ, "--omega", "1e-300", "--temp", "1"],
    ["spectral", "--z", "1e-8", *_LQ, "--omega", "1e-310"],
    ["spectral", "--z", "1e-300", *_LQ],
    ["sweep", "--axis", "z", "--min", "1e-300", "--max", "1e-8", "--count", "3",
     "--models", "local-quasistatic"],
    _Z_SWEEP + ["--moment", "1e300"],
    _LQ_SWEEP + ["--omega", "1e-310", "--format", "json"],
    _LQ_SWEEP + ["--omega", "1e-300", "--temp", "1"],
    # omega at which the Drude permittivity overflows
    ["spectral", "--z", "1e-8", "--model", "local-retarded", "--omega", "1e-300"],
    ["spectral", "--field", "B", "--z", "1e-8", "--model", "local-retarded", "--omega", "1e-310"],
    ["spectral", "--z", "1e-8", "--model", "nonlocal-quasistatic", "--omega", "1e-300"],
    ["spectral", "--field", "B", "--z", "1e-8", "--model", "nonlocal-quasistatic",
     "--omega", "1e-300"],
    _Z_SWEEP + ["--omega", "1e-300"],
    # chi underflows to 0, or the retarded integrand would overflow
    ["spectral", "--field", "B", "--z", "1e-8", "--model", "nonlocal-quasistatic",
     "--omega", "1e-200"],
    ["spectral", "--z", "1e-8", "--model", "local-retarded", "--omega", "1e-200"],
    ["spectral", "--z", "1e-300", "--model", "local-retarded"],
    # the nonlocal cut wavevector, or omega^2, leaves the float range
    ["spectral", "--z", "1e-300", "--model", "nonlocal-quasistatic"],
    ["spectral", "--field", "B", "--z", "1e-300", "--model", "nonlocal-quasistatic"],
    ["spectral", "--z", "1e-6", "--omega", "1e200", "--model", "local-retarded"],
    ["spectral", "--z", "1e-6", "--omega", "1e300", "--model", "local-retarded"],
    # the closed forms' omega^2 or z^3 overflows
    ["spectral", "--field", "B", "--z", "1e-6", "--omega", "1e200", *_LQ],
    ["spectral", "--z", "1e120", *_LQ],
    # the nonlocal lattice's lowest wavevector underflows
    ["spectral", "--z", "1e300", "--omega", "1e9", "--model", "nonlocal-quasistatic"],
    ["spectral", "--field", "B", "--z", "1e300", "--omega", "1e9", "--model",
     "nonlocal-quasistatic"],
    # far out, the magnetic k-sum stays in the float range
    ["spectral", "--field", "B", "--z", "1e72", "--omega", "1e9", "--model",
     "nonlocal-quasistatic"],
    ["spectral", "--field", "B", "--z", "1e44", "--omega", "1e-100"],
    # x^2 = ((omega + i nu)/(k v_F))^2 of the Lindhard series would overflow
    ["spectral", "--z", "1e60", "--omega", "1e100", "--model", "nonlocal-quasistatic"],
    # the Drude permittivity rounds to 1, yet chi underflows to 0
    ["spectral", "--z", "1e-8", "--omega", "1e150", "--model", "nonlocal-quasistatic"],
    # the nonlocal cut wavevector lies beyond the kernel's resolution
    ["spectral", "--z", "1e-20", "--model", "nonlocal-quasistatic"],
    ["spectral", "--z", "1e-60", "--model", "nonlocal-quasistatic"],
    ["spectral", "--field", "B", "--z", "1e-30", "--model", "nonlocal-quasistatic"],
    ["spectral", "--field", "B", "--z", "1e-60", "--model", "nonlocal-quasistatic"],
    # magnetic points kilometres to 100 km above the surface
    ["spectral", "--field", "B", "--z", "3e4", "--model", "nonlocal-quasistatic"],
    ["sweep", "--axis", "z", "--min", "1e-9", "--max", "1e5", "--count", "8",
     "--models", "nonlocal-quasistatic", "--qubit", "spin"],
    # the retarded phase 2 z omega/c overflows
    ["spectral", "--z", "1e300", "--omega", "1e17"],
    ["spectral", "--field", "B", "--z", "1e300", "--omega", "1e17"],
    # far-field retarded points, 2 z omega/c = 6.7e3 and 6.7e5
    ["spectral", "--z", "100", "--omega", "1e10", "--model", "local-retarded"],
    ["spectral", "--field", "B", "--z", "1e4", "--omega", "1e10", "--model", "local-retarded"],
]

# edges that need a material file: (argv, (file name, text))
_UNDERFLOW = ("underflow.cfg", "name = underflow\nomega_p_rad_s = 8.394974948008668e132\n"
              "nu_rad_s = 1.808559337741882e-163\nfermi_energy_ev = 9.07e285\n")
_SUBNORMAL = ("subnormal.cfg", "name = subnormal\nomega_p_rad_s = 1e15\nnu_rad_s = 1e13\n"
              "fermi_energy_ev = 10\n")
_SLOW = ("slow.cfg", "name = slow\nomega_p_rad_s = 1.8618528317108813e-47\n"
         "nu_rad_s = 2.657495543604398e-283\nfermi_energy_ev = 6.46e-149\n")
MATERIAL_EDGES = [
    # omega (omega + i nu) of the Drude permittivity underflows to 0
    *((["spectral", "--material", _UNDERFLOW[0], "--z", "7.185790757925412e240",
        "--omega", "2.25938280964016e-282", "--model", model], _UNDERFLOW)
      for model in ("auto", "local-quasistatic", "nonlocal-quasistatic", "local-retarded")),
    # the electric chi falls into the subnormal range
    *((["spectral", "--material", _SUBNORMAL[0], "--z", "1", "--omega", omega,
        "--model", "nonlocal-quasistatic"], _SUBNORMAL) for omega in ("1e112", "1e114")),
    # nu/v_F lies below the nonlocal kernel's float range
    (["spectral", "--material", _SLOW[0], "--z", "5.402020032243722e-38",
      "--omega", "0.0030714597545080714", "--model", "nonlocal-quasistatic"], _SLOW),
]


def run(src, argv, material) -> dict:
    """Exit code, stdout, stderr and the text of each file left by one
    command, by name; material is (file name, text) or None."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as work:
        if material is not None:
            with open(os.path.join(work, material[0]), "w") as fh:
                fh.write(material[1])
        proc = subprocess.run([sys.executable, "-m", "ewjn.cli", *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        out = {"exit": str(proc.returncode), "stdout": proc.stdout, "stderr": proc.stderr}
        for dirpath, _, names in os.walk(work):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    out["file " + os.path.relpath(path, work)] = fh.read()
    return out


def first_difference(a: str, b: str) -> list:
    """The first line that differs on each side, as '-parent' and '+this
    checkout', or None for a side with no such line."""
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(), lineterm="", n=0))[2:]
    return [next((ln for ln in lines if ln.startswith(sign)), None) for sign in "-+"]


def numbers(text: str) -> dict:
    """{JSON key path or CSV column: its numbers} of a command's JSON or
    CSV output ('#' lines skipped), or {} for other text."""
    out = {}
    try:
        doc = json.loads(text)
    except ValueError:
        rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        for row in rows[1:]:
            for name, cell in zip(rows[0], row):
                try:
                    out.setdefault(name, []).append(float(cell))
                except ValueError:
                    pass
        return out

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, path + "[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.setdefault(path, []).append(float(node))
    walk(doc, "")
    return out


def shifts(a: str, b: str) -> dict:
    """{name: largest relative shift} of the numeric keys or columns of two
    outputs that hold as many numbers on both sides and moved."""
    old, new = numbers(a), numbers(b)
    out = {}
    for name in old.keys() & new.keys():
        if len(old[name]) == len(new[name]):
            moved = max((abs(v - u) / abs(u) if u else abs(v) for u, v in zip(old[name], new[name])
                         if math.isfinite(u) and math.isfinite(v) and u != v), default=0.0)
            if moved:
                out[name] = moved
    return out


def main(argv) -> int:
    if len(argv) != 1 or not os.path.isfile(os.path.join(argv[0], "src", "ewjn", "cli.py")):
        print("usage: python3 tools/cli_identity.py PARENT_DIR (a checkout with src/ewjn)",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "ewjn", "cli.py")):
        print("cli_identity: no ./src/ewjn here; run from the repository root", file=sys.stderr)
        return 2
    sources = [os.path.abspath(os.path.join(argv[0], "src")), os.path.join(ROOT, "src")]
    cases = [(c.argv, (c.flags["material"], c.material_file) if c.material_file else None)
             for name in workloads.WORKLOADS for seed in SEEDS
             for c in workloads.generate(name, seed).commands]
    cases += [(edge, None) for edge in EDGES] + MATERIAL_EDGES
    differing = 0
    for command, material in cases:
        parent, change = (run(src, command, material) for src in sources)
        keys = [k for k in dict.fromkeys([*parent, *change]) if parent.get(k) != change.get(k)]
        if keys:
            differing += 1
            print("differs: ewjn " + " ".join(command), flush=True)
            for k in keys:
                for line in first_difference(parent.get(k, ""), change.get(k, "")):
                    if line is not None:
                        print(f"  {k}: {line[:160]}")
                moved = k != "exit" and shifts(parent.get(k, ""), change.get(k, ""))
                if moved:
                    print(f"  {k} max relative shift: "
                          + ", ".join(f"{name} {s:.2e}" for name, s in sorted(moved.items())))
    print(f"{differing} of {len(cases)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
