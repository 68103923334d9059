"""Micro-benchmark of the nonlocal spectral layer and its kernel.

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
the counts of one run: the r_p kernel calls
(nonlocal_reflection_quasistatic), its kappa-integrals (p values passed
to it) and inner rounds (integrand calls of its lockstep runs, the seed
round included), the epsilon_l and epsilon_t nodes, and the
k-integrals of the magnetic r_s channel (one per B point) and their
rounds. The results print as one JSON object, and --out also writes
them to FILE.
"""

import argparse
import json
import math
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import ewjn.fresnel as fresnel  # noqa: E402
import ewjn.spectral as spectral  # noqa: E402
from ewjn import COPPER, evaluate_batch  # noqa: E402
from ewjn.materials import epsilon_l, epsilon_t  # noqa: E402

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
    kernel = spectral.nonlocal_reflection_quasistatic

    def counted(material, p, omega, cfg):
        counts["kernel_calls"] += 1
        counts["inner_integrals"] += len(p)
        return kernel(material, p, omega, cfg)

    def power_tails_counted(rounds, integrals, power_tails):
        def run(f, scales, *args):
            def g(x, owner):
                counts[rounds] += 1
                return f(x, owner)
            if integrals:
                counts[integrals] += len(scales)
            return power_tails(g, scales, *args)
        return run

    def nodes_counted(key, eps):
        def run(material, k, omega):
            counts[key] += np.size(k)
            return eps(material, k, omega)
        return run

    patches = [
        (spectral, "nonlocal_reflection_quasistatic", counted),
        (fresnel, "integrate_power_tails",
         power_tails_counted("inner_rounds", None, fresnel.integrate_power_tails)),
        (spectral, "integrate_power_tails",
         power_tails_counted("k_rounds", "k_integrals", spectral.integrate_power_tails)),
        (fresnel, "epsilon_l", nodes_counted("eps_l_nodes", fresnel.epsilon_l)),
        (spectral, "epsilon_t", nodes_counted("eps_t_nodes", spectral.epsilon_t)),
    ]
    out = {}
    for name, field_kind, zs, omega in _batches():
        walls = []
        for _ in range(repeat):
            counts.update(dict.fromkeys(("kernel_calls", "inner_integrals", "inner_rounds",
                                         "eps_l_nodes", "eps_t_nodes", "k_integrals",
                                         "k_rounds"), 0))
            saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
            for module, attr, fn in patches:
                setattr(module, attr, fn)
            try:
                t0 = time.perf_counter()
                outcomes = evaluate_batch(COPPER, field_kind, zs, omega, "nonlocal-quasistatic")
                walls.append(time.perf_counter() - t0)
            finally:
                for module, attr, fn in saved:
                    setattr(module, attr, fn)
        failed = sum(isinstance(o, Exception) for o in outcomes)
        out[name] = {"points": len(zs), "wall_s": round(min(walls), 4), "failed": failed,
                     **counts}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the JSON result to this file")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per batch")
    args = parser.parse_args()
    result = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                   f"{platform.python_version()}, numpy {np.__version__}",
        "kernel_block": spectral._KERNEL_BLOCK,
        "kernel": measure_kernel(max(1, args.repeat)),
        "batches": measure(max(1, args.repeat)),
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
