"""Micro-benchmark of the nonlocal spectral layer.

    python3 tools/layer_bench.py [--out FILE] [--repeat N]

Run from the repository root; the package is imported from ./src. Two
nonlocal-quasistatic batches of copper at the default rel_tol, each for
the electric and the magnetic field:

  z-batch      15 heights from lambda_F to 3000 lambda_F at
               omega = 6 pi 1e8 rad/s (the fig1/fig3 grid)
  omega-batch  17 frequencies from 1e7 to 1e11 rad/s at 10 lambda_F
               (the fig2/fig4 grid)

Each batch is one evaluate_batch call, timed best of N (default 3), with
the kernel calls (nonlocal_reflection_quasistatic, one per refinement
round and polarization) and inner kappa-integrals (p values passed to
it) of one run. The results print as one JSON object, and --out also
writes them to FILE.
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

import ewjn.spectral as spectral  # noqa: E402
from ewjn import COPPER, evaluate_batch  # noqa: E402

OMEGA_0 = 6e8 * math.pi


def _batches():
    lam = COPPER.fermi_wavelength
    zs = np.geomspace(lam, 3000.0 * lam, 15).tolist()
    omegas = np.geomspace(1e7, 1e11, 17).tolist()
    for field_kind in ("E", "B"):
        yield f"z-batch-{field_kind}", field_kind, zs, OMEGA_0
        yield f"omega-batch-{field_kind}", field_kind, [10.0 * lam] * len(omegas), omegas


def measure(repeat: int) -> dict:
    counts = {"kernel_calls": 0, "inner_integrals": 0}
    kernel = spectral.nonlocal_reflection_quasistatic

    def counted(material, p, omega, polarization, cfg):
        counts["kernel_calls"] += 1
        counts["inner_integrals"] += len(p)
        return kernel(material, p, omega, polarization, cfg)

    out = {}
    for name, field_kind, zs, omega in _batches():
        walls = []
        for _ in range(repeat):
            counts.update(kernel_calls=0, inner_integrals=0)
            spectral.nonlocal_reflection_quasistatic = counted
            try:
                t0 = time.perf_counter()
                outcomes = evaluate_batch(COPPER, field_kind, zs, omega, "nonlocal-quasistatic")
                walls.append(time.perf_counter() - t0)
            finally:
                spectral.nonlocal_reflection_quasistatic = kernel
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
