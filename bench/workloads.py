"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup`` and returns one
cycle of ops; the client runs the cycle over and over, calling each op only
after the previous one returned.  Every op has a correctness check.  An op
that raises, exits non-zero or fails its check counts as failed.

experiment-n12  ``harness.run_experiment`` at N=12, M=1e4, 20 observables per
                call, alternating a 20-term Pauli-sum config and a basis-
                projector config: the paper's coverage experiment.
estimate-reuse  one N=12, M=1e4 snapshot file made in set-up, then in-process
                ``aqstate estimate`` / ``aqstate seminorm`` calls against it:
                the read path where one file serves every observable.
acquire-n22     ``aqstate prepare`` -> ``snapshot`` -> ``estimate`` at N=22:
                the top of the qubit range and the write path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from aqstate import cli, estimator, harness, pauli, snapshots, statevector

# An estimate passes when it lies within this many std_bound of its oracle.
TOLERANCE_SIGMAS = 5.0


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    """One top-level call of the client.

    ``call`` is the timed part; ``check`` validates its result and returns
    the named outputs whose digests must repeat for equal inputs.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    snapshots: int = 0
    estimates: int = 0


@dataclass
class SetupRecord:
    digests: dict = field(default_factory=dict)
    acquired: int = 0
    acquire_s: float = 0.0


def sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0] >> 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """``aqstate <argv>`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def expect_ok(rc, err: str) -> None:
    if rc != 0:
        raise CheckFailed(f"exit {rc}: {err.strip()[-300:]}")


def check_estimate(stdout: str, oracle: float, m: int, n: int) -> None:
    result = json.loads(stdout)
    if (result["M"], result["N"]) != (m, n):
        raise CheckFailed(f"estimate reports M={result['M']} N={result['N']}")
    error = abs(result["value"] - oracle)
    if not error <= TOLERANCE_SIGMAS * result["std_bound"]:
        raise CheckFailed(
            f"estimate {result['value']!r} is {error:.3g} from oracle {oracle!r}, "
            f"std_bound {result['std_bound']!r}"
        )


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data) + "\n")


def pauli_sum(n: int, terms: int, rng: np.random.Generator, max_weight: int | None = None) -> dict:
    """A random Pauli sum in the observable file format, coefficients in (0, 1].

    Without ``max_weight`` each qubit's axis is uniform over I, X, Y, Z;
    with it, each term acts on 1..max_weight random qubits.
    """
    rows = []
    for _ in range(terms):
        if max_weight is None:
            label = "".join(rng.choice(list("IXYZ"), size=n))
        else:
            chars = ["I"] * n
            for q in rng.choice(n, size=int(rng.integers(1, max_weight + 1)), replace=False):
                chars[q] = "XYZ"[int(rng.integers(3))]
            label = "".join(chars)
        rows.append({"coeff": float(1.0 - rng.random()), "pauli": label})
    return {"n_qubits": n, "terms": rows}


def basis_projector(n: int, rng: np.random.Generator) -> dict:
    """|x><x| for a random bitstring x, in the factored observable format."""
    bits = rng.integers(0, 2, size=n)
    factors = [[0.5, 0.0, 0.0, 0.5 if b == 0 else -0.5] for b in bits]
    return {"n_qubits": n, "terms": [{"coeff": 1.0, "factors": factors}]}


def snapshot_file_bytes(n: int, m: int) -> int:
    """Header (magic, version, N, M, N readout rates, seed) plus 17 bytes per
    (snapshot, qubit) record."""
    return 26 + 8 * n + 17 * m * n


def computed_sizes(n: int, m: int) -> dict:
    """Bytes the library's data layout implies for N qubits and M snapshots.

    Computed from the sizes, not measured.  ``batch_rows`` follows the
    default acquisition batch of ``snapshots_from_state``.
    """
    dim = 1 << n
    rows = min(m, 1024, max(8, (1 << 23) // dim))
    return {
        "n_qubits": n,
        "n_snapshots": m,
        "state_bytes": 16 * dim,
        "batch_rows": rows,
        "batch_buffer_bytes": rows * 16 * dim,
        "snapshot_file_bytes": snapshot_file_bytes(n, m),
        "kind": "computed, not measured",
    }


class ExperimentN12:
    name = "experiment-n12"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.n, self.m, self.n_obs = (6, 500, 4) if smoke else (12, 10_000, 20)
        self.configs = []

    def sizes(self) -> dict:
        return computed_sizes(self.n, self.m)

    def setup(self) -> SetupRecord:
        self.configs = [
            harness.ExperimentConfig(
                self.n, self.m, sub_seed(self.seed, tag), n_observables=self.n_obs,
                terms_per_observable=20, observable_kind=kind,
            )
            for tag, kind in enumerate(("random_pauli_sum", "basis_projector"))
        ]
        # warm-up: one reduced experiment per config kind
        for cfg in self.configs:
            harness.run_experiment(harness.ExperimentConfig(
                cfg.n_qubits, max(1, cfg.n_snapshots // 10), cfg.seed, n_observables=2,
                terms_per_observable=cfg.terms_per_observable,
                observable_kind=cfg.observable_kind,
            ))
        return SetupRecord()

    def cycle(self) -> list[Op]:
        return [
            Op(cfg.observable_kind, lambda cfg=cfg: harness.run_experiment(cfg),
               self._check, snapshots=cfg.n_snapshots, estimates=cfg.n_observables)
            for cfg in self.configs
        ]

    @staticmethod
    def _check(report) -> dict:
        for idx, row in enumerate(report.rows):
            error = abs(row.estimate - row.oracle)
            if not error <= TOLERANCE_SIGMAS * row.std_bound:
                raise CheckFailed(
                    f"{report.config.observable_kind} row {idx}: estimate {row.estimate!r} "
                    f"is {error:.3g} from oracle {row.oracle!r}, std_bound {row.std_bound!r}"
                )
        return {f"report:{report.config.observable_kind}": report.to_json().encode()}


class EstimateReuse:
    name = "estimate-reuse"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.dir = workdir
        self.n, self.m = (6, 500) if smoke else (12, 10_000)
        # terms of the light estimates, heavy estimates and seminorm inputs
        self.terms = (10, 20, 60) if smoke else (20, 200, 2000)
        self.snap_path = workdir / "reuse.aqst"
        self.ops: list[Op] = []

    def sizes(self) -> dict:
        return computed_sizes(self.n, self.m)

    def setup(self) -> SetupRecord:
        rng = np.random.default_rng(sub_seed(self.seed, 0))
        circuit = statevector.random_prep_circuit(self.n, rng)
        psi = statevector.run_circuit(circuit)
        start = time.perf_counter()
        state = snapshots.snapshots_from_state(psi, self.m, sub_seed(self.seed, 1))
        acquire_s = time.perf_counter() - start
        snapshots.save_snapshots(state, self.snap_path)
        record = SetupRecord({"snapshot_file": self.snap_path.read_bytes()}, self.m, acquire_s)

        light, heavy, huge = self.terms
        # One cycle: 12 light estimates, 3 projector estimates, 2 heavy
        # estimates and 3 seminorms of the largest sums.  p50 then falls
        # inside the light estimates and p90 inside the seminorms.
        ops = []
        for idx in range(12):
            ops.append(self._estimate_op(f"sum{light}-{idx}", pauli_sum(self.n, light, rng), psi))
        for idx in range(3):
            ops.append(self._estimate_op(f"projector-{idx}", basis_projector(self.n, rng), psi))
        for idx in range(2):
            ops.append(self._estimate_op(f"sum{heavy}-{idx}", pauli_sum(self.n, heavy, rng), psi))
        for idx in range(3):
            ops.append(self._seminorm_op(f"seminorm{huge}-{idx}", pauli_sum(self.n, huge, rng)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        return record

    def cycle(self) -> list[Op]:
        return self.ops

    def _estimate_op(self, key: str, data: dict, psi) -> Op:
        path = self.dir / f"{key}.json"
        write_json(path, data)
        factored = "factors" in data["terms"][0]
        obs = pauli.load_observable(path, factored=factored)
        if factored:
            oracle = statevector.exact_expectation_factored(psi, obs)
        else:
            oracle = statevector.exact_expectation(psi, obs)
        argv = ["estimate", "--snapshots", str(self.snap_path), "--observable", str(path)]
        if factored:
            argv.append("--factored")

        def check(result) -> dict:
            rc, out, err = result
            expect_ok(rc, err)
            check_estimate(out, oracle, self.m, self.n)
            return {f"estimate:{key}": out.encode()}

        return Op(key.rsplit("-", 1)[0], lambda: cli_call(argv), check, estimates=1)

    def _seminorm_op(self, key: str, data: dict) -> Op:
        path = self.dir / f"{key}.json"
        write_json(path, data)
        obs = pauli.load_observable(path)
        epsilon = 0.01
        expected = {
            "seminorm": pauli.seminorm(obs),
            "seminorm2": pauli.seminorm2(obs),
            "seminorm1": pauli.seminorm1(obs),
            "epsilon": epsilon,
            "shot_budget": pauli.shot_budget(obs, epsilon),
        }
        argv = ["seminorm", "--observable", str(path), "--epsilon", str(epsilon)]

        def check(result) -> dict:
            rc, out, err = result
            expect_ok(rc, err)
            got = json.loads(out)
            if got != expected:
                raise CheckFailed(f"{key}: printed {got}, library gives {expected}")
            return {f"seminorm:{key}": out.encode()}

        return Op(key.rsplit("-", 1)[0], lambda: cli_call(argv), check)


class AcquireN22:
    name = "acquire-n22"

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.n = 10 if smoke else 22
        self.shots = 16
        self.p_err = 0.05
        self.circuit_path = workdir / "setup-circuit.json"
        self.obs_path = workdir / "low-weight.json"
        self.op_circuit = workdir / "circuit.json"
        self.op_snapshots = workdir / "state.aqst"
        self.circuit_text = ""
        self.oracle = 0.0

    def sizes(self) -> dict:
        return computed_sizes(self.n, self.shots)

    def _prepare_argv(self, out: Path) -> list[str]:
        return ["prepare", "--qubits", str(self.n), "--seed", str(sub_seed(self.seed, 0)),
                "--out", str(out)]

    def setup(self) -> SetupRecord:
        rng = np.random.default_rng(sub_seed(self.seed, 1))
        write_json(self.obs_path, pauli_sum(self.n, 6, rng, max_weight=2))
        rc, _, err = cli_call(self._prepare_argv(self.circuit_path))
        expect_ok(rc, err)
        self.circuit_text = self.circuit_path.read_text()
        psi = statevector.run_circuit(statevector.load_circuit(self.circuit_path))
        obs = pauli.load_observable(self.obs_path)
        exact = [
            statevector.exact_expectation(psi, pauli.Observable(self.n, ((1.0, string),)))
            for _, string in obs.terms
        ]
        self.oracle = estimator.predict_attenuated(obs, exact, self.p_err)
        return SetupRecord()

    def cycle(self) -> list[Op]:
        snapshot_argv = [
            "snapshot", "--circuit", str(self.op_circuit), "--shots", str(self.shots),
            "--seed", str(sub_seed(self.seed, 2)), "--readout-error", str(self.p_err),
            "--out", str(self.op_snapshots),
        ]
        estimate_argv = [
            "estimate", "--snapshots", str(self.op_snapshots), "--observable", str(self.obs_path),
        ]

        def call():
            return [cli_call(self._prepare_argv(self.op_circuit)), cli_call(snapshot_argv),
                    cli_call(estimate_argv)]

        def check(results) -> dict:
            for rc, _, err in results:
                expect_ok(rc, err)
            if self.op_circuit.read_text() != self.circuit_text:
                raise CheckFailed("prepare wrote a different circuit than in set-up")
            data = self.op_snapshots.read_bytes()
            expected = snapshot_file_bytes(self.n, self.shots)
            if len(data) != expected:
                raise CheckFailed(f"snapshot file has {len(data)} bytes, expected {expected}")
            out = results[2][1]
            check_estimate(out, self.oracle, self.shots, self.n)
            return {"snapshot_file": data, "estimate": out.encode()}

        # The user waits on the whole pipeline, so one op is one pipeline.
        return [Op("pipeline", call, check, snapshots=self.shots, estimates=1)]


WORKLOADS = {w.name: w for w in (ExperimentN12, EstimateReuse, AcquireN22)}
