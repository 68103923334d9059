"""Micro-benchmark of the spectral layers, the bulk ladder and the kernel.

    python3 tools/layer_bench.py [--out FILE] [--repeat N]

Run from the repository root; the package is imported from ./src.

The kernel row (L0) times epsilon_l and epsilon_t of copper on a fixed
(200, 15) block of k, geometric from 1e6 to 1e11 1/m, at omega = 6 pi
1e8 rad/s and at 1e11 rad/s: ns per node, best of N runs of 20 calls.

Three nonlocal-quasistatic batches of copper at the default rel_tol,
each for the electric and the magnetic field:

  point        one point at 10 lambda_F and omega = 6 pi 1e8 rad/s (what
               spectral, t1 and a temperature sweep run)
  z-batch      15 heights from lambda_F to 3000 lambda_F at
               omega = 6 pi 1e8 rad/s (the fig1/fig3 grid)
  omega-batch  17 frequencies from 1e7 to 1e11 rad/s at 10 lambda_F
               (the fig2/fig4 grid)

Each batch is one evaluate_batch call, timed best of N (default 3), with
the counts of one run: the epsilon_l and epsilon_t calls and nodes (one
call per lattice for h = 1/4 and 1/8 together, whose coarse nodes are
the even ones of the fine, then one per further halving), the lattices
(one per omega and h: every point runs at h = 1/4 and 1/8, then halves h
until its sums meet rel_tol), the lattices per omega, and the final h
and the halvings from h = 1/4 that reached it.

Four local-retarded sweeps, 100 heights from a tenth of the skin depth
to 30 skin depths at one omega (copper at 6 pi 1e8 rad/s and the dense
metal of the far-field tests, omega_p 1.5e16, nu 8e13 rad/s, 10 eV, at
5e9 rad/s; E and B, default rel_tol), each one evaluate_batch call timed
best of N, with the Fresnel calls and nodes of one run (the q at which
local_reflection_q is asked, one call per sector for h = 1/4 and 1/8
together, then one per further halving), the final h of its lattice (the
deepest level at which quadrature.lattice_sums asks for sums) and the direct
terms of one run: the (height, node) pairs whose e^{-2zx} F the sweep
sums one by one (spectral._decayed; the other evanescent terms come
from moments the heights share).

The modules row gives each module of src/ewjn: its tokens (tokenize,
without COMMENT and NL tokens; each must stay under the parser's
8,192-token step) and the ms of compile() of its source, best of 10 N.

The bulk row times bulk_imD_coincident of copper at 6 pi 1e8 rad/s,
best of N, with the epsilon_l calls of one run and its nodes per rung of
its cutoff ladder (rung i runs up to 3, 10, 30 and 100 k_F; a node at a
rung's end counts in the lower rung).

The CLI row times `ewjn sweep` through cli.main, each main() in a fresh
interpreter timed after `import ewjn.cli`, best of N (default 3)
interpreters. On local-quasistatic sweeps of copper, whose closed forms
cost next to nothing, it measures the command's own Python: parsing,
the checks, relaxation and the table. Every argv here is well formed,
so main parses it from the flag table without building an argparse
parser or importing argparse. cold_main_ms is main() for a 2-point
sweep; cell_us is one warm main() for a 100-point sweep of the
two model columns local-quasistatic,local-quasistatic (200 cells) per
cell, best of N. cold_retarded_ms is main() for the retarded-farfield
shape, a 100-height sweep of copper from a tenth of the skin depth to
30 skin depths with --models auto,local-quasistatic, and
cold_retarded_model_ms the time of that run inside the model batch
functions (the values of spectral._BATCH, patched); the difference is
the glue around the models. The results print as one JSON object, and
--out also writes them to FILE.

Every count comes from a function patched in place for the run; if one
of them is missing (renamed or deleted), the bench exits 1 naming it.
"""

import argparse
import contextlib
import glob
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
import tokenize

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import ewjn.bulk as bulk  # noqa: E402
import ewjn.fresnel as fresnel  # noqa: E402
import ewjn.nonlocal_model as nonlocal_model  # noqa: E402
import ewjn.spectral as spectral  # noqa: E402
from ewjn import (  # noqa: E402
    COPPER, Material, QuadratureError, bulk_imD_coincident, evaluate_batch)
from ewjn.cli import main as cli_main  # noqa: E402
from ewjn.nonlocal_model import lattice_reflection  # noqa: E402
from ewjn.materials import E_CHARGE, epsilon_l, epsilon_t, skin_depth  # noqa: E402

OMEGA_0 = 6e8 * math.pi
KERNEL_CALLS = 20


def measure_kernel(repeat: int) -> dict:
    k = np.geomspace(1e6, 1e11, 200 * 15).reshape(200, 15)
    out = {}
    for omega in (OMEGA_0, 1e11):
        row = out[f"omega={omega:.4g}"] = {}
        for fn in (epsilon_l, epsilon_t):
            best = math.inf
            for _ in range(repeat):
                t0 = time.perf_counter()
                for _ in range(KERNEL_CALLS):
                    fn(COPPER, k, omega)
                best = min(best, (time.perf_counter() - t0) / KERNEL_CALLS)
            row[f"{fn.__name__}_ns_per_node"] = round(best / k.size * 1e9, 1)
    return out


def _batches():
    lam = COPPER.fermi_wavelength
    zs = np.geomspace(lam, 3000.0 * lam, 15).tolist()
    omegas = np.geomspace(1e7, 1e11, 17).tolist()
    for field_kind in ("E", "B"):
        yield f"point-{field_kind}", field_kind, [10.0 * lam], OMEGA_0
        yield f"z-batch-{field_kind}", field_kind, zs, OMEGA_0
        yield f"omega-batch-{field_kind}", field_kind, [10.0 * lam] * len(omegas), omegas


def measure(repeat: int) -> dict:
    counts = {}

    def lattices_counted(phi, h, count):
        counts["lattices"] += phi.shape[0] if phi.ndim > 1 else 1
        counts["h_min"] = min(counts["h_min"], h)
        return lattice_reflection(phi, h, count)

    def nodes_counted(key, eps):
        def run(material, k, omega):
            counts[f"{key}_calls"] += 1
            counts[f"{key}_nodes"] += np.size(k)
            return eps(material, k, omega)
        return run

    patches = [
        (nonlocal_model, "lattice_reflection", lattices_counted),
        (fresnel, "epsilon_l", nodes_counted("eps_l", fresnel.epsilon_l)),
        (nonlocal_model, "epsilon_t", nodes_counted("eps_t", nonlocal_model.epsilon_t)),
    ]
    out = {}
    for name, field_kind, zs, omega in _batches():
        def run():
            counts.update(eps_l_calls=0, eps_l_nodes=0, eps_t_calls=0, eps_t_nodes=0,
                          lattices=0, h_min=math.inf)
            return evaluate_batch(COPPER, field_kind, zs, omega, "nonlocal-quasistatic")
        wall, outcomes = _timed(repeat, patches, run)
        failed = sum(isinstance(o, Exception) for o in outcomes)
        omegas = len(set(np.broadcast_to(omega, len(zs)).tolist()))
        h_min = counts.pop("h_min")
        out[name] = {"points": len(zs), "wall_s": round(wall, 4), "failed": failed,
                     **counts, "lattices_per_omega": round(counts["lattices"] / omegas, 2),
                     "final_h": h_min, "halvings": round(math.log2(0.25 / h_min))}
    return out


def _timed(repeat, patches, run):
    """(best wall time of repeat runs of run(), its last result), with
    (module, attr, fn) patches in place during each run; exit 1 if a
    patched attribute does not exist."""
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in patches
               if not hasattr(module, attr)]
    if missing:
        sys.exit(f"layer_bench: nothing to patch at {', '.join(missing)}")
    walls, result = [], None
    for _ in range(repeat):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        for module, attr, fn in patches:
            setattr(module, attr, fn)
        try:
            t0 = time.perf_counter()
            result = run()
            walls.append(time.perf_counter() - t0)
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
    return min(walls), result


DENSE = Material("dense", 1.5e16, 8e13, 10.0 * E_CHARGE)


def measure_retarded(repeat: int) -> dict:
    counts = {}

    def nodes_counted(q, *args):
        counts["fresnel_calls"] += 1
        counts["fresnel_nodes"] += np.size(q)
        return reflection(q, *args)

    def levels_seen(count, sums, cfg):
        def seen(levels, live):
            counts["level"] = max(counts["level"], levels[-1])
            return sums(levels, live)
        return lattice_sums(count, seen, cfg)

    def terms_counted(x, block, two_z, lo, hi):
        counts["direct_terms"] += int(np.sum(hi - lo + 1))
        return decayed(x, block, two_z, lo, hi)

    reflection, lattice_sums, decayed = (spectral.local_reflection_q, spectral.lattice_sums,
                                         spectral._decayed)
    patches = [(spectral, "local_reflection_q", nodes_counted),
               (spectral, "lattice_sums", levels_seen), (spectral, "_decayed", terms_counted)]
    out = {}
    for metal, omega in ((COPPER, OMEGA_0), (DENSE, 5e9)):
        delta = skin_depth(metal, omega)
        zs = np.geomspace(delta / 10.0, 30.0 * delta, 100).tolist()
        for field_kind in ("E", "B"):
            def run():
                counts.update(fresnel_calls=0, fresnel_nodes=0, level=-1, direct_terms=0)
                return evaluate_batch(metal, field_kind, zs, omega, "local-retarded")
            wall, outcomes = _timed(repeat, patches, run)
            out[f"retarded-{metal.name}-{field_kind}"] = {
                "points": len(zs), "wall_s": round(wall, 4),
                "failed": sum(isinstance(o, Exception) for o in outcomes),
                "fresnel_calls": counts["fresnel_calls"], "fresnel_nodes": counts["fresnel_nodes"],
                "final_h": 0.25 / 2**counts["level"] if counts["level"] >= 0 else None,
                "direct_terms": counts["direct_terms"]}
    return out


def measure_modules(repeat: int) -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(os.getcwd(), "src", "ewjn", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        tokens = sum(1 for token in tokenize.generate_tokens(io.StringIO(source).readline)
                     if token.type not in (tokenize.COMMENT, tokenize.NL))
        best = math.inf
        for _ in range(10 * repeat):
            t0 = time.perf_counter()
            compile(source, path, "exec")
            best = min(best, time.perf_counter() - t0)
        out[os.path.basename(path)] = {"tokens": tokens, "compile_ms": round(best * 1e3, 3)}
    return out


def measure_bulk(repeat: int) -> dict:
    k_f, nodes, calls = COPPER.fermi_wavevector, [0, 0, 0, 0], [0]
    ladder = [3.0 * k_f, 10.0 * k_f, 30.0 * k_f, 100.0 * k_f]

    def counted(material, k, omega):
        calls[0] += 1
        # a node counts in the rung its k falls in, a shared end in the lower
        rungs = np.searchsorted(ladder, np.ravel(k) * (1.0 - 1e-12))
        for rung, count in enumerate(np.bincount(rungs, minlength=4)[:4].tolist()):
            nodes[rung] += count
        return eps_l(material, k, omega)

    def run():
        nodes[:], calls[0] = [0, 0, 0, 0], 0
        try:
            return bulk_imD_coincident(COPPER, OMEGA_0).convergence_series
        except QuadratureError as exc:
            return getattr(exc, "convergence_series", [])

    eps_l = bulk.epsilon_l
    wall, series = _timed(repeat, [(bulk, "epsilon_l", counted)], run)
    return {"wall_s": round(wall, 4), "rungs": len(series), "eps_l_calls": calls[0],
            "eps_l_nodes_per_rung": nodes[:len(series)]}


def _sweep_argv(count: int) -> list:
    return ["sweep", "--axis", "z", "--min", "1e-9", "--max", "1e-6", "--count", str(count),
            "--models", "local-quasistatic,local-quasistatic"]


# cli.main in a fresh interpreter, timed after the import, and its time
# inside the model batch functions; exits 1 if they cannot be patched
_COLD = """import contextlib, io, sys, time
import ewjn.cli
import ewjn.spectral as spectral
if not isinstance(getattr(spectral, "_BATCH", None), dict):
    sys.exit("layer_bench: nothing to patch at ewjn.spectral._BATCH")
inside = [0.0]
def timed(fn):
    def run(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            inside[0] += time.perf_counter() - t0
    return run
spectral._BATCH.update((model, timed(fn)) for model, fn in spectral._BATCH.items())
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    ewjn.cli.main(sys.argv[1:])
    wall = time.perf_counter() - t0
print(wall, inside[0])
"""


def _cold(argv, repeat):
    """(main() seconds, seconds inside the models) of the fastest of
    repeat fresh interpreters running argv; exit 1 if one fails."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    runs = []
    for _ in range(repeat):
        proc = subprocess.run([sys.executable, "-c", _COLD, *argv], env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            sys.exit(proc.stderr.strip())
        runs.append(tuple(map(float, proc.stdout.split())))
    return min(runs)


def measure_cli(repeat: int) -> dict:
    delta = skin_depth(COPPER, OMEGA_0)
    retarded = ["sweep", "--axis", "z", "--min", repr(delta / 10.0), "--max",
                repr(30.0 * delta), "--count", "100", "--models", "auto,local-quasistatic"]
    cold, (cold_retarded, inside) = _cold(_sweep_argv(2), repeat)[0], _cold(retarded, repeat)
    warm = math.inf
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(_sweep_argv(100))
        for _ in range(repeat):
            t0 = time.perf_counter()
            cli_main(_sweep_argv(100))
            warm = min(warm, time.perf_counter() - t0)
    return {"cold_main_ms": round(cold * 1e3, 2), "cell_us": round(warm / 200 * 1e6, 2),
            "cold_retarded_ms": round(cold_retarded * 1e3, 2),
            "cold_retarded_model_ms": round(inside * 1e3, 2)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the JSON result to this file")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per batch")
    args = parser.parse_args()
    result = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                   f"{platform.python_version()}, numpy {np.__version__}",
        "kernel": measure_kernel(max(1, args.repeat)),
        "batches": measure(max(1, args.repeat)),
        "retarded": measure_retarded(max(1, args.repeat)),
        "modules": measure_modules(max(1, args.repeat)),
        "bulk": measure_bulk(max(1, args.repeat)),
        "cli": measure_cli(max(1, args.repeat)),
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
