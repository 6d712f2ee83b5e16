"""Command-line interface.

Subcommands: prepare (random circuit), snapshot (circuit -> .aqst binary),
estimate (snapshots + observable -> JSON result), seminorm (observable ->
seminorms + shot budget), experiment (config -> report + curves CSV), verify
(statistical property suites).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import harness, pauli, snapshots, statevector
from .estimator import estimate_factored, estimate_observable


def _cmd_prepare(args) -> int:
    rng = np.random.default_rng(args.seed)
    circuit = statevector.random_prep_circuit(
        args.qubits, rng, allow_overlapping_pairs=args.allow_overlapping_pairs
    )
    if args.out:
        statevector.save_circuit(circuit, args.out)
    else:
        print(json.dumps(statevector.circuit_to_dict(circuit), indent=1))
    return 0


def _read_p_err(value_or_path: str) -> float | list:
    """Readout error rates: one number for every qubit, or a path to a JSON
    list of per-qubit numbers, whose entries, count and range acquisition checks."""
    try:
        return float(value_or_path)
    except ValueError:
        values = pauli._read_json(value_or_path)
    if not isinstance(values, list):
        raise ValueError("a readout-error file must hold a JSON list of numbers")
    return values


def _cmd_snapshot(args) -> int:
    circuit = statevector.load_circuit(args.circuit)
    p_err = _read_p_err(args.readout_error)
    state = snapshots.build_approximate_state(circuit, args.shots, args.seed, p_err)
    if args.dump_state:
        # the dense state, within MAX_QUBITS, checked before any file is written
        dense = statevector.run_circuit(circuit)
        with open(args.dump_state, "w") as fh:
            json.dump([[a.real, a.imag] for a in dense.amps], fh)
            fh.write("\n")
    if args.json:
        with open(args.out, "w") as fh:
            json.dump(snapshots.state_to_json_dict(state, circuit.content_hash()), fh)
            fh.write("\n")
    else:
        snapshots.save_snapshots(state, args.out)
    print(
        f"wrote {state.n_snapshots} snapshots of {state.n_qubits} qubits to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_estimate(args) -> int:
    state = snapshots.load_snapshots(args.snapshots)
    obs = pauli.load_observable(args.observable, factored=args.factored)
    estimate = estimate_factored if args.factored else estimate_observable
    result = estimate(state, obs)
    print(
        json.dumps(
            {
                "value": result.value,
                "std_bound": result.std_bound,
                "std_approx": result.std_approx,
                "std_empirical": result.std_empirical,
                "M": result.n_snapshots,
                "N": state.n_qubits,
            },
            indent=1,
        )
    )
    return 0


def _cmd_seminorm(args) -> int:
    obs = pauli.load_observable(args.observable)
    out = {
        "seminorm": pauli.seminorm(obs),
        "seminorm2": pauli.seminorm2(obs),
        "seminorm1": pauli.seminorm1(obs),
    }
    if not all(map(math.isfinite, out.values())):
        raise ValueError("the seminorms are not finite: coefficients too large")
    if args.epsilon is not None:
        out["epsilon"] = args.epsilon
        out["shot_budget"] = pauli.shot_budget(obs, args.epsilon)
    print(json.dumps(out, indent=1))
    return 0


def _cmd_experiment(args) -> int:
    cfg = harness.ExperimentConfig.from_dict(pauli._read_json(args.config))
    report = harness.run_experiment(cfg)
    prefix = args.out_prefix
    with open(prefix + ".json", "w") as fh:
        fh.write(report.to_json() + "\n")
    with open(prefix + ".csv", "w") as fh:
        fh.write(report.curves_csv())
    headline = report.fractions[report.band]
    print(
        f"fractions within 1/2 std ({report.band} band): "
        f"{headline['within_1']:.2f} / {headline['within_2']:.2f}"
    )
    print(f"report: {prefix}.json  curves: {prefix}.csv")
    return 0


def _cmd_verify(args) -> int:
    results = harness.run_verification(fast=not args.long, seed=args.seed)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failed += not result.passed
        print(f"{status}  {result.name}: {result.detail}")
    return 1 if failed else 0


@functools.cache  # built once per process, however many times main is called
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqstate",
        description="Approximate quantum states from randomized single-qubit measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="emit a random two-layer preparation circuit")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--allow-overlapping-pairs", action="store_true")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("snapshot", help="measure a circuit's state into a snapshot file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--shots", type=int, required=True, help="number of snapshots M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--readout-error",
        default="0",
        help="flip probability, or path to a JSON list of per-qubit values",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true", help="write the JSON export format")
    p.add_argument(
        "--dump-state",
        help="debug: also write the prepared statevector as a flat [re, im] list",
    )
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("estimate", help="estimate an observable from a snapshot file")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--factored", action="store_true")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("seminorm", help="seminorms and shot budget of an observable")
    p.add_argument("--observable", required=True)
    p.add_argument("--epsilon", type=float, help="target statistical error")
    p.set_defaults(func=_cmd_seminorm)

    p = sub.add_parser("experiment", help="run a coverage-fraction experiment")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run the statistical property suites")
    p.add_argument("--long", action="store_true", help="acceptance-suite sizes")
    p.add_argument("--seed", type=int, default=20240901)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow ends as a non-finite result, which the commands report
        # on one error line; NumPy's warnings would print lines before it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:  # NumPy's names the allocation it could not make
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
