"""Byte-level golden digests of acquisition and circuit simulation.

Snapshot j is a pure function of (seed, j), so any rewrite of the sampling
kernel or the gate kernels must reproduce these bytes exactly.  The digests
are sha256 of ``serialize(...)`` and of ``run_circuit(...).amps.tobytes()``;
comparing bytes (not ``np.array_equal``) also pins the sign of every zero.
"""

from __future__ import annotations

import hashlib

import numpy as np

from aqstate.snapshots import serialize, snapshots_from_state
from aqstate.statevector import (
    Circuit,
    Gate,
    haar_random_state,
    random_prep_circuit,
    run_circuit,
)

_SIZES = (1, 2, 3, 8, 12)
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
}


def test_golden_digests():
    assert compute_digests() == GOLDEN

