"""Byte-level golden digests of acquisition, circuit simulation and the
read path.

Snapshot j is a pure function of (seed, j), so any rewrite of the sampling
kernel or the gate kernels must reproduce these bytes exactly.  The digests
are sha256 of ``serialize(...)`` and of ``run_circuit(...).amps.tobytes()``;
comparing bytes (not ``np.array_equal``) also pins the sign of every zero.
The read-path digests pin experiment reports and curves and the stdout of
``estimate`` and ``seminorm``, so every printed bit of an estimate is fixed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from aqstate.cli import main
from aqstate.harness import ExperimentConfig, run_experiment
from aqstate.snapshots import serialize, snapshots_from_state
from aqstate.statevector import (
    Circuit,
    Gate,
    ProductState,
    haar_random_state,
    random_prep_circuit,
    run_circuit,
)

_SIZES = (1, 2, 3, 8, 12, 15)
_SEEDS = (0, 2**63 + 12345)
_P_ERRS = (0.0, 0.1)
_M = 200


def _circuit(n: int) -> Circuit:
    if n == 1:
        return Circuit(1, (Gate("H", (0,)), Gate("T", (0,)), Gate("S", (0,))))
    rng = np.random.default_rng(1000 + n)
    gates = list(random_prep_circuit(n, rng).gates)
    gates += random_prep_circuit(n, rng, allow_overlapping_pairs=True).gates
    return Circuit(n, tuple(gates))


def _states(n: int):
    yield "circuit", run_circuit(_circuit(n))
    yield "haar", haar_random_state(n, np.random.default_rng(2000 + n))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def compute_digests() -> dict[str, str]:
    out = {}
    for n in _SIZES:
        out[f"run_circuit n={n}"] = _digest(run_circuit(_circuit(n)).amps.tobytes())
        for label, psi in _states(n):
            for seed in _SEEDS:
                for p in _P_ERRS:
                    state = snapshots_from_state(psi, _M, seed, p_err=p)
                    key = f"snapshots {label} n={n} seed={seed} p={p}"
                    out[key] = _digest(serialize(state))
    return out


GOLDEN = {
    "run_circuit n=1": "d8b489c1df790ac6",
    "snapshots circuit n=1 seed=0 p=0.0": "4058fe8fa46ca281",
    "snapshots circuit n=1 seed=0 p=0.1": "d906de418a1c1e32",
    "snapshots circuit n=1 seed=9223372036854788153 p=0.0": "26cb6bbfb44814c4",
    "snapshots circuit n=1 seed=9223372036854788153 p=0.1": "e7f9de75051e833e",
    "snapshots haar n=1 seed=0 p=0.0": "4a33b8e6b4d354b6",
    "snapshots haar n=1 seed=0 p=0.1": "4cb81d36b0ca28d3",
    "snapshots haar n=1 seed=9223372036854788153 p=0.0": "fa3cd2d0a5f37665",
    "snapshots haar n=1 seed=9223372036854788153 p=0.1": "70136b8ee44b6135",
    "run_circuit n=2": "193102fb2674025f",
    "snapshots circuit n=2 seed=0 p=0.0": "24c82383a3f8ebd5",
    "snapshots circuit n=2 seed=0 p=0.1": "3378d223dd368f3b",
    "snapshots circuit n=2 seed=9223372036854788153 p=0.0": "90f4b258d2a371d9",
    "snapshots circuit n=2 seed=9223372036854788153 p=0.1": "dbf4976066064cc4",
    "snapshots haar n=2 seed=0 p=0.0": "9115886f5c6beefe",
    "snapshots haar n=2 seed=0 p=0.1": "8cfb4f429e060330",
    "snapshots haar n=2 seed=9223372036854788153 p=0.0": "3bad590a98180d7e",
    "snapshots haar n=2 seed=9223372036854788153 p=0.1": "afb65585478a218e",
    "run_circuit n=3": "68173b8457badf75",
    "snapshots circuit n=3 seed=0 p=0.0": "3e8eec60d67cd8ef",
    "snapshots circuit n=3 seed=0 p=0.1": "063859e70276d435",
    "snapshots circuit n=3 seed=9223372036854788153 p=0.0": "3dcb025368de5798",
    "snapshots circuit n=3 seed=9223372036854788153 p=0.1": "617e054d72172e3f",
    "snapshots haar n=3 seed=0 p=0.0": "a00e53e54e00d3b5",
    "snapshots haar n=3 seed=0 p=0.1": "eb31851c887e4d44",
    "snapshots haar n=3 seed=9223372036854788153 p=0.0": "9cd241cb35f30553",
    "snapshots haar n=3 seed=9223372036854788153 p=0.1": "f0e5e5db4e39c7ca",
    "run_circuit n=8": "8bfbd26aebff3906",
    "snapshots circuit n=8 seed=0 p=0.0": "6b68a36e0ef12c65",
    "snapshots circuit n=8 seed=0 p=0.1": "a9b6dcb51e516f0e",
    "snapshots circuit n=8 seed=9223372036854788153 p=0.0": "c61e1bd090e51cea",
    "snapshots circuit n=8 seed=9223372036854788153 p=0.1": "e3fa238520062898",
    "snapshots haar n=8 seed=0 p=0.0": "f28f4733c45a4ad3",
    "snapshots haar n=8 seed=0 p=0.1": "cbb209118e9070de",
    "snapshots haar n=8 seed=9223372036854788153 p=0.0": "010364c73af50da8",
    "snapshots haar n=8 seed=9223372036854788153 p=0.1": "7f93937e433f72ed",
    "run_circuit n=12": "0edf6205b3adba11",
    "snapshots circuit n=12 seed=0 p=0.0": "ec0c26bd24f3c4a3",
    "snapshots circuit n=12 seed=0 p=0.1": "dadd184129dda676",
    "snapshots circuit n=12 seed=9223372036854788153 p=0.0": "16143f7e8cefca99",
    "snapshots circuit n=12 seed=9223372036854788153 p=0.1": "512828846f20e21d",
    "snapshots haar n=12 seed=0 p=0.0": "ecc19c50b5722d4d",
    "snapshots haar n=12 seed=0 p=0.1": "6e47747c8cf3a275",
    "snapshots haar n=12 seed=9223372036854788153 p=0.0": "55e1b9a54144fff2",
    "snapshots haar n=12 seed=9223372036854788153 p=0.1": "cd9d60e8bc2b99a0",
    "run_circuit n=15": "ae0062af9a5ab58d",
    "snapshots circuit n=15 seed=0 p=0.0": "e2d1dfc58017821c",
    "snapshots circuit n=15 seed=0 p=0.1": "8c00786473eaee60",
    "snapshots circuit n=15 seed=9223372036854788153 p=0.0": "78fb36448e2a52a3",
    "snapshots circuit n=15 seed=9223372036854788153 p=0.1": "62e878b7f29da066",
    "snapshots haar n=15 seed=0 p=0.0": "705c4e74f5520110",
    "snapshots haar n=15 seed=0 p=0.1": "71aaeb58d927bb59",
    "snapshots haar n=15 seed=9223372036854788153 p=0.0": "fd73dac009ae0a2a",
    "snapshots haar n=15 seed=9223372036854788153 p=0.1": "b34238cda0845398",
}


def test_golden_digests():
    assert compute_digests() == GOLDEN



def test_product_state_bytes_match_dense():
    # each connected component measured on its own columns of the uniform
    # table gives the dense bytes, on the golden circuits and on default
    # circuits (components of at most 2 qubits)
    circuits = [_circuit(n) for n in _SIZES]
    circuits += [random_prep_circuit(n, np.random.default_rng(3000 + n)) for n in range(2, 17)]
    for circuit in circuits:
        dense, product = run_circuit(circuit), ProductState.from_circuit(circuit)
        for seed in _SEEDS:
            for p in _P_ERRS:
                assert serialize(snapshots_from_state(product, _M, seed, p_err=p)) == serialize(
                    snapshots_from_state(dense, _M, seed, p_err=p)
                ), (circuit.n_qubits, seed, p)


# M = 500 and 3000: one weight-table chunk and several; both run the one
# Pauli-value path, each term multiplied in place
READ_GOLDEN = {
    "experiment random_pauli_sum M=500 json": "edbe4a8e88b39768",
    "experiment random_pauli_sum M=500 csv": "b4e7d237557800d0",
    "experiment random_pauli_sum M=3000 json": "70e47c2c88f3ddc7",
    "experiment random_pauli_sum M=3000 csv": "f5af748689219e2d",
    "experiment basis_projector M=500 json": "91cbc27a2481c356",
    "experiment basis_projector M=500 csv": "92ca41391b3c385b",
    "experiment basis_projector M=3000 json": "2d694ff7ef359e80",
    "experiment basis_projector M=3000 csv": "f95a1c60d2e09d5c",
    "estimate pauli_sum": "62bbed9f7a148069",
    "estimate projector": "3d9e373dc02297e8",
    "estimate two_term": "c92b949b0785dd43",
    "seminorm pauli_sum": "23619773ff5cf0e1",
}


def compute_read_digests(tmp_path, capsys) -> dict[str, str]:
    out = {}
    for kind in ("random_pauli_sum", "basis_projector"):
        for m in (500, 3000):
            cfg = ExperimentConfig(n_qubits=6, n_snapshots=m, seed=11, observable_kind=kind)
            report = run_experiment(cfg)
            out[f"experiment {kind} M={m} json"] = _digest(report.to_json().encode())
            out[f"experiment {kind} M={m} csv"] = _digest(report.curves_csv().encode())

    def stdout(*argv) -> bytes:
        capsys.readouterr()
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out.encode()

    circuit, snaps = tmp_path / "c.json", tmp_path / "s.aqst"
    stdout("prepare", "--qubits", 8, "--seed", 4, "--out", circuit)
    stdout("snapshot", "--circuit", circuit, "--shots", 3000, "--seed", 5,
           "--readout-error", 0.05, "--out", snaps)
    labels = ("XXIIIIII", "IZZIIIII", "IIIYIXZI", "ZIIIIIIZ")
    pauli_sum = {"n_qubits": 8, "terms": [
        {"coeff": 0.5 - 0.2 * i, "pauli": label} for i, label in enumerate(labels)]}
    projector = {"n_qubits": 8, "terms": [
        {"coeff": 1.0, "factors": [[0.5, 0, 0, 0.5 - (q % 3 == 0)] for q in range(8)]}]}
    # a projector plus a product of mixed factors: a seminorm by expansion
    two_term = {"n_qubits": 8, "terms": projector["terms"] + [
        {"coeff": -0.3, "factors": [[0.4, 0.1 * (q % 2), 0.0, 0.2] for q in range(8)]}]}
    for name, data in (("pauli_sum", pauli_sum), ("projector", projector),
                       ("two_term", two_term)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        flags = () if name == "pauli_sum" else ("--factored",)
        out[f"estimate {name}"] = _digest(
            stdout("estimate", "--snapshots", snaps, "--observable", path, *flags))
    out["seminorm pauli_sum"] = _digest(
        stdout("seminorm", "--observable", tmp_path / "pauli_sum.json", "--epsilon", 0.02))
    return out


def test_read_path_digests(tmp_path, capsys):
    assert compute_read_digests(tmp_path, capsys) == READ_GOLDEN
