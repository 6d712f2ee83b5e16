"""Dense statevector engine: gate kernels, random preparation circuits, and
the exact-expectation oracle used to validate the snapshot estimators.

Amplitude ordering: qubit 0 is the least-significant bit of the basis index.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
import numpy as np

from .pauli import FactoredObservable, Observable

__all__ = [
    "MAX_QUBITS",
    "Statevector",
    "Gate",
    "Circuit",
    "run_circuit",
    "random_prep_circuit",
    "exact_expectation",
    "exact_expectation_factored",
    "pauli_expectation_batch",
    "haar_random_state",
    "circuit_to_dict",
    "circuit_from_dict",
    "save_circuit",
    "load_circuit",
]

# 2^26 complex doubles ~ 1 GiB; enough for any desk-scale check.
MAX_QUBITS = 26

_NORM_TOL = 1e-10

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_SINGLE_QUBIT_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}

SINGLE_QUBIT_KINDS = tuple(_SINGLE_QUBIT_MATRICES)
GATE_KINDS = SINGLE_QUBIT_KINDS + ("XY",)


class Statevector:
    """Normalized 2^N complex amplitude vector.

    The amplitude buffer is frozen after construction; gate application
    returns a new instance.
    """

    __slots__ = ("n_qubits", "amps")

    def __init__(self, amps: np.ndarray, *, copy: bool = True):
        size = np.size(amps)
        n = int(size).bit_length() - 1
        if 1 << n != size:
            raise ValueError(f"amplitude count {size} is not a power of two")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
        amps = np.array(amps, dtype=complex, copy=copy).reshape(-1)
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"state is not normalized (norm {norm!r})")
        amps.setflags(write=False)
        self.n_qubits = n
        self.amps = amps

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "Statevector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, copy=False)

    def __repr__(self):
        return f"Statevector(n_qubits={self.n_qubits})"


@dataclass(frozen=True)
class Gate:
    """Single gate: one of X, Y, Z, H, S, T on one target, or XY(alpha) on
    two distinct targets.  alpha is stored reduced to [0, 2*pi)."""

    kind: str
    qubits: tuple[int, ...]
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.kind == "XY":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("XY needs two distinct targets")
            if self.alpha is None:
                raise ValueError("XY needs an angle")
            alpha = float(self.alpha)
            if not math.isfinite(alpha):
                raise ValueError(f"XY angle must be finite, got {alpha!r}")
            object.__setattr__(self, "alpha", alpha % (2.0 * math.pi))
        else:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} takes exactly one target")
            if self.alpha is not None:
                raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in gate.qubits):
                raise ValueError(f"gate {gate} targets outside {self.n_qubits} qubits")

    def content_hash(self) -> str:
        blob = json.dumps(circuit_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _apply_single_inplace(amps: np.ndarray, qubit: int, u: np.ndarray) -> None:
    view = amps.reshape(-1, 2, 1 << qubit)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    view[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1


def _apply_xy_inplace(amps: np.ndarray, q1: int, q2: int, alpha: float) -> None:
    # identity on the even-parity block; rotation by 2*alpha on {|01>,|10>}
    lo, hi = min(q1, q2), max(q1, q2)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    hi_only, lo_only = view[:, 1, :, 0, :], view[:, 0, :, 1, :]
    # sel: bit q1 set and bit q2 clear; swapped: the reverse
    sel, swapped = (hi_only, lo_only) if q1 == hi else (lo_only, hi_only)
    c, s = math.cos(2.0 * alpha), math.sin(2.0 * alpha)
    va, vb = sel.copy(), swapped.copy()
    sel[...] = c * va - 1j * s * vb
    swapped[...] = -1j * s * va + c * vb


def _apply_gate_inplace(amps: np.ndarray, gate: Gate) -> None:
    if gate.kind == "XY":
        _apply_xy_inplace(amps, gate.qubits[0], gate.qubits[1], gate.alpha)
    else:
        _apply_single_inplace(amps, gate.qubits[0], _SINGLE_QUBIT_MATRICES[gate.kind])


def run_circuit(circuit: Circuit) -> Statevector:
    """Apply all gates in order, starting from |0...0>."""
    if not 1 <= circuit.n_qubits <= MAX_QUBITS:
        raise ValueError(f"{circuit.n_qubits} qubits is outside 1..{MAX_QUBITS}")
    amps = np.zeros(1 << circuit.n_qubits, dtype=complex)
    amps[0] = 1.0
    for gate in circuit.gates:
        _apply_gate_inplace(amps, gate)
    return Statevector(amps, copy=False)


def random_prep_circuit(
    n_qubits: int,
    rng: np.random.Generator,
    allow_overlapping_pairs: bool = False,
) -> Circuit:
    """Two-layer random state-preparation circuit.

    Layer 1: floor(N/2) gates drawn uniformly from {X,Y,Z,H,S,T} on distinct
    random qubits.  Layer 2: floor(N/4) XY(alpha) gates on random qubit pairs
    (disjoint by default) with alpha uniform on [0, 2*pi).
    """
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    n_single = n_qubits // 2
    n_pairs = n_qubits // 4
    gates = []
    try:
        targets = rng.choice(n_qubits, size=n_single, replace=False)
    except (MemoryError, OverflowError):
        raise ValueError(f"cannot draw gate targets among {n_qubits} qubits") from None
    kinds = rng.integers(0, len(SINGLE_QUBIT_KINDS), size=n_single)
    gates.extend(
        Gate(SINGLE_QUBIT_KINDS[k], (int(q),)) for q, k in zip(targets, kinds)
    )
    if allow_overlapping_pairs:
        pairs = [tuple(rng.choice(n_qubits, size=2, replace=False)) for _ in range(n_pairs)]
    else:
        order = rng.permutation(n_qubits)
        pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n_pairs)]
    alphas = rng.uniform(0.0, 2.0 * math.pi, size=n_pairs)
    gates.extend(
        Gate("XY", (int(a), int(b)), float(alpha))
        for (a, b), alpha in zip(pairs, alphas)
    )
    return Circuit(n_qubits, tuple(gates))


def pauli_expectation_batch(amps: np.ndarray, obs: Observable) -> np.ndarray:
    """<psi|O|psi> for a batch of states, shape (batch, 2^N) -> (batch,).

    Terms are added one by one in canonical order: the identity coefficient
    first, then each row's.  The string with bit masks x and z (read from
    the bit-planes, one word at N <= MAX_QUBITS; Y sets both) acts on basis
    states as P|b> = c(b)|b ^ x> with c(b) = i^{#Y} * (-1)^{popcount(b & z)}.
    """
    if obs.n_qubits != int(amps.shape[-1]).bit_length() - 1:
        raise ValueError("observable and state qubit counts differ")
    idx = np.arange(amps.shape[-1], dtype=np.uint64)
    values = np.full(len(amps), obs.offset)
    for coeff, x, z in zip(obs.coeffs.tolist(), obs.x[:, 0].tolist(), obs.z[:, 0].tolist()):
        parity = np.bitwise_count(idx & np.uint64(z)) & 1
        phase = (1j ** (x & z).bit_count()) * (1.0 - 2.0 * parity.astype(float))
        permuted = amps[:, idx ^ np.uint64(x)]
        values += coeff * np.einsum("sb,b,sb->s", permuted.conj(), phase, amps).real
    return values


def exact_expectation(psi: Statevector, obs: Observable) -> float:
    """<psi|O|psi> summed term by term via sparse Pauli action."""
    return float(pauli_expectation_batch(psi.amps[None, :], obs)[0])


def exact_expectation_factored(psi: Statevector, fobs: FactoredObservable) -> float:
    """<psi|O|psi> for a tensor-factored observable via per-qubit 2x2 maps:
    the row [a0, ax, ay, az] acts as [[a0 + az, ax - i ay], [ax + i ay, a0 - az]]."""
    if fobs.n_qubits != psi.n_qubits:
        raise ValueError("observable and state qubit counts differ")
    total = 0.0
    for coeff, table in fobs.terms:
        work = psi.amps.copy()
        for qubit, (a0, ax, ay, az) in enumerate(table.tolist()):
            block = np.array([[a0 + az, ax - 1j * ay], [ax + 1j * ay, a0 - az]])
            _apply_single_inplace(work, qubit, block)
        total += coeff * float(np.vdot(psi.amps, work).real)
    return total


def haar_random_state(n_qubits: int, rng: np.random.Generator) -> Statevector:
    """Pure state drawn from the unitarily invariant distribution."""
    dim = 1 << n_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Statevector(amps / np.linalg.norm(amps), copy=False)


# --- file format ------------------------------------------------------------
#
# { "n_qubits": N, "gates": [ {"kind": "H", "q": 0},
#                             {"kind": "XY", "q1": 0, "q2": 3, "alpha": 1.234} ] }


def circuit_to_dict(circuit: Circuit) -> dict:
    gates = []
    for gate in circuit.gates:
        if gate.kind == "XY":
            gates.append(
                {"kind": "XY", "q1": gate.qubits[0], "q2": gate.qubits[1], "alpha": gate.alpha}
            )
        else:
            gates.append({"kind": gate.kind, "q": gate.qubits[0]})
    return {"n_qubits": circuit.n_qubits, "gates": gates}


def circuit_from_dict(data: dict) -> Circuit:
    try:
        n = int(data["n_qubits"])
        gates = []
        for entry in data["gates"]:
            if entry["kind"] == "XY":
                gates.append(
                    Gate("XY", (int(entry["q1"]), int(entry["q2"])), float(entry["alpha"]))
                )
            else:
                gates.append(Gate(entry["kind"], (int(entry["q"]),)))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed circuit data: {exc}") from exc
    return Circuit(n, tuple(gates))


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=1)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        return circuit_from_dict(json.load(fh))
