"""Untimed figure record: sha256 and wall time of `ewjn figure fig1..fig4`.

    python3 perfbench/figures.py           compare with perfbench/figures.json
    python3 perfbench/figures.py --write   rewrite perfbench/figures.json

Run from the repository root. Each figure is generated once, in a fresh
interpreter with EWJN_THREADS unset, into .perfbench_run/figures. The
compare mode exits 1 when a CSV's bytes differ from the record, so a
change that claims identical output can show it; wall times are printed
for reference and never compared.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "figures.json")
FIGURES = ("fig1", "fig2", "fig3", "fig4")


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ewjn", "cli.py")):
        print("figures: no ./src/ewjn here; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_run", "figures")
    os.makedirs(out_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "EWJN_THREADS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    record = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"Python {platform.python_version()}", "figures": {}}
    for name in FIGURES:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "ewjn.cli", "figure", name,
                        "--out-dir", out_dir], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        with open(os.path.join(out_dir, f"{name}.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        record["figures"][name] = {"sha256": digest, "wall_s": round(wall, 2)}
        print(f"{name} sha256 {digest} wall {wall:.2f} s", flush=True)
    if "--write" in sys.argv[1:]:
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        return 0
    with open(RECORD) as fh:
        expected = json.load(fh)["figures"]
    changed = [n for n in FIGURES if expected[n]["sha256"] != record["figures"][n]["sha256"]]
    for name in changed:
        print(f"{name}: output differs from the record")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
