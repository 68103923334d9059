"""Seeded end-to-end benchmark of the ewjn command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The
workload (see workloads.py and BENCHMARK.json) is a list of `ewjn`
commands generated from the seed. Each command runs in its own fresh
interpreter with EWJN_THREADS unset, one after another. A pass runs the
whole list; passes repeat while the next one is expected to end within
S seconds, and at least one runs.

--trace 0 prints the end-to-end metrics:
  wall_s       summed command time of a pass, without interpreter start
               and import (median over passes)
  setup_s      fresh-interpreter import of ewjn.cli (median over five
               import-only probes and every command)
  peak_rss_mb  largest peak RSS of any command process
  ok_frac      good cells / cells; a cell is bad if its status is not
               ok, a value is NaN, a chi <= 0 or t1 is infinite
  tol_met_frac share of the distinct points of the quadrature models
               (nonlocal-quasistatic, local-retarded) among good cells
               whose chi is within the requested rel_tol of a reference
               evaluated at rel_tol/100 (reference.py)
--trace 1 runs one untraced and one traced pass and prints the
per-layer metrics of the traced one (spans.py).

Every run checks the outputs (gate.py) and that each command's output
bytes are identical across passes and across earlier runs with the same
inputs on the same source tree (kept in ./.perfbench_run). The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics". A failed check exits 1
after printing it; no ./src/ewjn exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import gate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
STATE = ".perfbench_run"
PROBES = 5
REFERENCE_PROCS = 2
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction", "tol_met_frac": "fraction"}


class Abort(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def source_key(src: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Runner:
    """Starts children in fresh interpreters inside the checkout."""

    def __init__(self, root: str, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "EWJN_THREADS"}
        self.env["PYTHONPATH"] = self.src
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.spawned = 0

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise Abort(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        return left

    def child(self, argv, trace: bool = False, probe: bool = False):
        """(report, stdout, exit code) of one command in a fresh interpreter."""
        self.spawned += 1
        report_path = os.path.join(self.work, f"report-{self.spawned}.json")
        tail = ["--probe"] if probe else ["--", *argv]
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, report_path, "1" if trace else "0", *tail],
                cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise Abort(f"time limit of {TIME_LIMIT_S:.0f} s reached") from None
        try:
            with open(report_path) as fh:
                report = json.load(fh)
            os.remove(report_path)
        except (OSError, ValueError):
            report = None
        if report is not None and not report["ewjn_file"].startswith(self.src + os.sep):
            raise Abort(f"ewjn imported from {report['ewjn_file']}, not from {self.src}")
        if report is None:
            err = proc.stderr.decode(errors="replace").strip()[-300:]
            if probe:
                raise Abort(f"cannot import ewjn from ./src: {err}")
            print(f"perfbench: ewjn {' '.join(argv)} exited {proc.returncode}: {err}",
                  file=sys.stderr)
        return report, proc.stdout, proc.returncode

    def references(self, points):
        """Reference chi for each point, in REFERENCE_PROCS processes."""
        chunks = [points[i::REFERENCE_PROCS] for i in range(REFERENCE_PROCS)]
        procs = []
        try:
            for i, chunk in enumerate(chunks):
                inp = os.path.join(self.work, f"ref-in-{i}.json")
                with open(inp, "w") as fh:
                    json.dump([list(p) for p in chunk], fh)
                out = os.path.join(self.work, f"ref-out-{i}.json")
                procs.append((subprocess.Popen([sys.executable, REFERENCE, inp, out],
                                               cwd=self.work, env=self.env), chunk, out))
            refs = {}
            for proc, chunk, out in procs:
                try:
                    code = proc.wait(timeout=self._timeout())
                except subprocess.TimeoutExpired:
                    raise Abort(f"time limit of {TIME_LIMIT_S:.0f} s reached") from None
                if code != 0:
                    raise Abort("reference evaluation failed")
                with open(out) as fh:
                    refs.update(zip(chunk, json.load(fh)))
            return refs
        finally:
            for proc, _, _ in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


def run_pass(runner, commands, trace=False):
    return [runner.child(cmd.argv, trace=trace) for cmd in commands]


def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.decode().strip() or "unknown"


def check_hashes(path, passes, problems):
    """Output bytes identical across passes and across earlier runs with
    the same inputs on the same source tree."""
    hashes = [hashlib.sha256(out).hexdigest() for _, out, _ in passes[0]]
    for n, other in enumerate(passes[1:], start=2):
        for i, (_, out, _) in enumerate(other):
            if hashlib.sha256(out).hexdigest() != hashes[i]:
                problems.append(f"command {i}: output of pass {n} differs from pass 1")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        for i, (old, new) in enumerate(zip(earlier, hashes)):
            if old != new:
                problems.append(f"command {i}: output differs from an earlier run "
                                f"of this seed ({old[:12]} vs {new[:12]})")
    else:
        with open(path, "w") as fh:
            json.dump(hashes, fh)
    return hashes


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ewjn", "cli.py")):
        print("perfbench: no ./src/ewjn here; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, STATE, "work")
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.join(root, STATE, "hashes"), exist_ok=True)
    wl = workloads.generate(args.workload, args.seed)
    for cmd in wl.commands:
        if cmd.material_file is not None:
            with open(os.path.join(work, cmd.flags["material"]), "w") as fh:
                fh.write(cmd.material_file)
    runner = Runner(root, work)
    try:
        return measure(args, root, wl, runner)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def measure(args, root, wl, runner) -> int:
    probes = [runner.child(None, probe=True)[0] for _ in range(PROBES)]
    env = {k: probes[0][k] for k in ("python", "numpy", "nproc", "workers")}
    env.update(git=git_sha(root), source=source_key(os.path.join(root, "src", "ewjn")),
               workload=wl.name, seed=wl.seed, commands=len(wl.commands))
    print("env " + json.dumps(env))

    passes = []
    if args.trace:
        passes.append(run_pass(runner, wl.commands))
        passes.append(run_pass(runner, wl.commands, trace=True))
    else:
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(runner, wl.commands))
            now = time.monotonic()
            if now - start + (now - t0) > args.seconds:
                break

    checker = gate.Gate()
    broken = set()
    for i, (cmd, (report, out, code)) in enumerate(zip(wl.commands, passes[0])):
        if not checker.command(i, cmd, code, out):
            broken.add((1, i))
    for n, p in enumerate(passes, start=1):
        for i, (report, out, code) in enumerate(p):
            if report is None:
                checker.fail(i, f"pass {n}: no report (exit {code})")
                broken.add((n, i))
            if code != passes[0][i][2]:
                checker.fail(i, f"pass {n}: exit code {code}, {passes[0][i][2]} in pass 1")
                broken.add((n, i))
    inputs = json.dumps([env["source"]] + [(c.argv, c.material_file) for c in wl.commands])
    hash_file = os.path.join(root, STATE, "hashes",
                             hashlib.sha256(inputs.encode()).hexdigest()[:24] + ".json")
    hashes = check_hashes(hash_file, passes, checker.problems)

    walls = [sum(r["cmd_s"] for r, _, _ in p if r) for p in passes]
    cells = checker.cells
    good = sum(c.good for c in cells)
    tally = {}
    if not args.trace:
        refs = runner.references(gate.reference_points(cells, wl.commands))
        tally = gate.tolerance_met(cells, wl.commands, refs)
    for i, (cmd, (report, out, code)) in enumerate(zip(wl.commands, passes[0])):
        cost = f"cmd_s={report['cmd_s']:.3f}" if report else "no report"
        tol = " tol_met={}/{}".format(*tally[i][:2]) if i in tally else ""
        print(f"cmd {i} exit={code} {cost}{tol} sha256={hashes[i][:16]} "
              f"ewjn {' '.join(cmd.argv)}")
    print(f"cells {len(cells)} good {good} bad {len(cells) - good}")

    if args.trace:
        metrics = spans.summarize([r for r, _, _ in passes[1] if r], len(cells), walls[0])
        units = {name: spans.unit_of(name) for name in metrics}
        shares = {k: round(metrics[f"{k}.self_s"] / metrics["trace.wall_s"], 4)
                  for k in spans.LAYERS if f"{k}.self_s" in metrics}
        print("layer self-time shares " + json.dumps(shares))
        unpatched = sorted({n for r, _, _ in passes[1] if r for n in r["unpatched"]})
        if unpatched:
            print("not traced (no such function): " + ", ".join(unpatched))
    else:
        imports = [p["import_s"] for p in probes]
        imports += [r["import_s"] for p in passes for r, _, _ in p if r]
        rss = max((r["maxrss_mb"] for p in passes for r, _, _ in p if r), default=0.0)
        met, compared, missing, fallback = (sum(t[k] for t in tally.values())
                                            for k in range(4))
        print(f"tolerance met at {met} of {compared} distinct points ({fallback} "
              f"against a rel_tol/10 reference, {missing} without reference)")
        for name, values in (("wall_s", walls), ("setup_s", imports)):
            q1, med, q3 = quartiles(values)
            print(f"{name} median {med:.6f} q1 {q1:.6f} q3 {q3:.6f} n {len(values)}")
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(imports),
            "peak_rss_mb": rss,
            "ok_frac": good / len(cells) if cells else 0.0,
            "tol_met_frac": met / compared if compared else 0.0,
        }
        units = END_TO_END_UNITS
    for problem in checker.problems:
        print(f"GATE FAILED {problem}")
    result = {
        "correct": not checker.problems,
        "attempted": sum(len(p) for p in passes),
        "failed": len(broken),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
