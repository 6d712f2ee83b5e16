"""Seminorm layer timings: the O(T^2) pair sum of `seminorm` against term count.

For each qubit count N, term mix and term count T it draws T distinct
non-identity Pauli strings with normal coefficients and times `seminorm`
on fresh copies of that observable (the value is cached per instance, so
each call builds it once).  The mixes:

  uniform  every qubit I, X, Y or Z at random
  sparse   every qubit X, Y or Z with probability 2/N, about two per term
  z        every qubit I or Z at random: all terms commute
  axis     one random axis per term, on a random half of the qubits

Each point is the median of 9 calls (3 with ``--smoke``), with the
quartiles beside it, and the tracemalloc peak of one further call.  The
machine record holds the CPU count, the NumPy version and NumPy's SIMD
baseline and found targets.

Run from the repository root with the package importable:

    PYTHONPATH=src python scripts/seminorm_layers.py            # N = 12 ... 65
    PYTHONPATH=src python scripts/seminorm_layers.py --smoke    # T <= 200, seconds

It writes BENCH_seminorm.json (``--out`` to change the path) and prints
one line per point.  Only the public API is used.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from aqstate.pauli import Observable, seminorm
from dense_layers import machine, timed

FULL_QUBITS, FULL_TERMS, REPEATS = (12, 26, 40, 65), (20, 200, 2000), 9
SMOKE_QUBITS, SMOKE_TERMS, SMOKE_REPEATS = (12, 40, 65), (20, 200), 3
MIXES = ("uniform", "sparse", "z", "axis")


def draw(mix: str, n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """(t, n) axes of one mix, with repeats and identity rows possible."""
    if mix == "uniform":
        return rng.integers(0, 4, size=(t, n))
    if mix == "sparse":
        return rng.integers(1, 4, size=(t, n)) * (rng.random((t, n)) < 2 / n)
    if mix == "z":
        return 3 * rng.integers(0, 2, size=(t, n))
    if mix == "axis":
        return rng.integers(1, 4, size=(t, 1)) * rng.integers(0, 2, size=(t, n))
    raise ValueError(f"unknown mix {mix!r}")


def observable(mix: str, n: int, t: int, rng: np.random.Generator) -> Observable:
    """T distinct non-identity strings of ``mix``, in the order first drawn."""
    axes = np.zeros((0, n), dtype=np.int64)
    for _ in range(20):
        axes = np.concatenate([axes, draw(mix, n, t, rng)])
        axes = axes[axes.any(axis=1)]
        first = np.sort(np.unique(axes, axis=0, return_index=True)[1])
        if len(first) >= t:
            return Observable.from_rows(n, axes[first[:t]], rng.standard_normal(t))
        axes = axes[first]
    raise ValueError(f"mix {mix!r} at N={n} gave fewer than {t} distinct strings")


def measure(mix: str, n: int, t: int, repeats: int) -> dict:
    obs = observable(mix, n, t, np.random.default_rng([n, t, MIXES.index(mix)]))
    fresh = iter([Observable.from_rows(n, obs.axes, obs.coeffs) for _ in range(repeats + 1)])
    point = {"n_qubits": n, "mix": mix, "terms": t, "repeats": repeats}
    point["seminorm"] = timed(lambda: seminorm(next(fresh)), repeats)
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="N = 12, 40, 65, T <= 200, 3 repeats")
    parser.add_argument("--out", default="BENCH_seminorm.json", help="output JSON path")
    args = parser.parse_args(argv)
    qubits, terms, repeats = (
        (SMOKE_QUBITS, SMOKE_TERMS, SMOKE_REPEATS) if args.smoke
        else (FULL_QUBITS, FULL_TERMS, REPEATS)
    )
    points = []
    for n in qubits:
        for mix in MIXES:
            for t in terms:
                point = measure(mix, n, t, repeats)
                points.append(point)
                timing = point["seminorm"]
                print(
                    f"N={n:2d}  {mix:7s}  T={t:4d}  seminorm {timing['median_ms']:8.3f} ms"
                    f"  [{timing['q1_ms']:.3f}-{timing['q3_ms']:.3f}]"
                    f"  {timing['peak_mib']:6.2f} MiB",
                    flush=True,
                )
    record = {"benchmark": "seminorm_layers", "smoke": args.smoke, "machine": machine(),
              "points": points}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
