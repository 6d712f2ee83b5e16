"""Dense-engine layer timings: `run_circuit` and the exact-expectation oracle.

For each qubit count N it builds the default preparation circuit
(`random_prep_circuit`), times `run_circuit` on it and then
`exact_expectation` of six weight-2 Pauli strings, one call per string,
on the state it gives.  Each point is the median of 9 runs (3 with
``--smoke``), with the quartiles beside it, and the tracemalloc peak of
one further run.  The machine record holds the CPU count, the NumPy
version and NumPy's SIMD baseline and found targets.

Run from the repository root with the package importable:

    PYTHONPATH=src python scripts/dense_layers.py            # N = 16 ... 22
    PYTHONPATH=src python scripts/dense_layers.py --smoke    # N <= 10, seconds

It writes BENCH_dense.json (``--out`` to change the path) and prints one
line per point.  Only the public API is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

from aqstate.pauli import Observable
from aqstate.statevector import exact_expectation, random_prep_circuit, run_circuit

FULL_QUBITS, REPEATS = (16, 18, 20, 21, 22), 9
SMOKE_QUBITS, SMOKE_REPEATS = (6, 8, 10), 3
N_ROWS = 6


def machine() -> dict:
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": simd["baseline"],
        "simd_found": simd["found"],
    }


def weight2_strings(n: int, rng: np.random.Generator) -> list[Observable]:
    """Six one-term observables, each X, Y or Z on two distinct random qubits."""
    strings = []
    for _ in range(N_ROWS):
        row = np.zeros(n, dtype=np.uint8)
        row[rng.choice(n, size=2, replace=False)] = rng.integers(1, 4, size=2)
        strings.append(Observable.from_rows(n, [row], [1.0]))
    return strings


def timed(fn, repeats: int) -> dict:
    """Median and quartiles of ``repeats`` wall times of ``fn()``, in ms,
    and the tracemalloc peak of one more call, in MiB."""
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - began))
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "peak_mib": peak / 2**20}


def measure(n: int, repeats: int) -> dict:
    rng = np.random.default_rng(n)
    circuit = random_prep_circuit(n, rng)
    strings = weight2_strings(n, rng)
    psi = run_circuit(circuit)
    point = {"n_qubits": n, "repeats": repeats}
    point["run_circuit"] = timed(lambda: run_circuit(circuit), repeats)
    point["oracle_6_weight2"] = timed(
        lambda: [exact_expectation(psi, obs) for obs in strings], repeats
    )
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="N <= 10, three repeats")
    parser.add_argument("--out", default="BENCH_dense.json", help="output JSON path")
    args = parser.parse_args(argv)
    qubits, repeats = (SMOKE_QUBITS, SMOKE_REPEATS) if args.smoke else (FULL_QUBITS, REPEATS)
    points = []
    for n in qubits:
        point = measure(n, repeats)
        points.append(point)
        gates, oracle = point["run_circuit"], point["oracle_6_weight2"]
        print(
            f"N={n:2d}  run_circuit {gates['median_ms']:8.1f} ms  {gates['peak_mib']:7.2f} MiB"
            f"  |  6 weight-2 oracles {oracle['median_ms']:7.1f} ms  {oracle['peak_mib']:6.2f} MiB",
            flush=True,
        )
    record = {"benchmark": "dense_layers", "smoke": args.smoke, "machine": machine(),
              "points": points}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
