"""Snapshot acquisition: random measurement directions, simulated single-qubit
measurements with optional readout error, and the compact 3MN-number store.

One snapshot records, for every qubit, an outcome m in {-1,+1} and the
measurement direction angles (theta, phi).  The collection of M snapshots is
the approximate state 𝒮 from which all estimators are computed.

Randomness is counter based: the uniforms feeding snapshot j are a pure
function of (seed, j), so acquisition order and batch size never change the
result and any subrange can be regenerated independently.
"""

from __future__ import annotations

import io
import math
import struct
from typing import Sequence

import numpy as np
from numpy.random import Philox

from .statevector import Statevector, Circuit, run_circuit

__all__ = [
    "ApproximateState",
    "SnapshotFormatError",
    "snapshots_from_state",
    "build_approximate_state",
    "serialize",
    "deserialize",
    "save_snapshots",
    "load_snapshots",
    "state_to_json_dict",
]

_MAGIC = b"AQST"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")  # magic, version, n_qubits, n_snapshots
_RECORD_DTYPE = np.dtype([("m", "<i1"), ("theta", "<f8"), ("phi", "<f8")])


class SnapshotFormatError(ValueError):
    """Raised on bad magic, version mismatch, or truncated snapshot data."""


def _flip_probabilities(p_err, n_qubits: int) -> np.ndarray:
    """Per-qubit readout flip probabilities from one float or one value per
    qubit, each in [0, 1)."""
    p = np.asarray(p_err, dtype=np.float64)
    if p.ndim == 0:
        p = np.full(n_qubits, p)
    if p.shape != (n_qubits,):
        raise ValueError("p_err must have one entry per qubit")
    if not np.all((p >= 0.0) & (p < 1.0)):
        raise ValueError("p_err entries must lie in [0, 1)")
    return p


class ApproximateState:
    """M snapshots of an N-qubit state: three numbers per qubit per snapshot.

    Arrays are read only.  ``p_err`` holds the per-qubit readout flip
    probabilities, given as one float or one value per qubit.  Equality
    covers the whole state: arrays, noise and seed.
    """

    __slots__ = ("n_qubits", "outcomes", "thetas", "phis", "p_err", "seed")

    def __init__(
        self,
        outcomes: np.ndarray,
        thetas: np.ndarray,
        phis: np.ndarray,
        p_err: float | Sequence[float] = 0.0,
        seed: int = 0,
    ):
        outcomes = np.asarray(outcomes, dtype=np.int8)
        thetas = np.asarray(thetas, dtype=np.float64)
        phis = np.asarray(phis, dtype=np.float64)
        if outcomes.ndim != 2 or outcomes.shape != thetas.shape or outcomes.shape != phis.shape:
            raise ValueError("outcomes/thetas/phis must share shape (M, N)")
        if outcomes.shape[0] < 1 or outcomes.shape[1] < 1:
            raise ValueError("need at least one snapshot of at least one qubit")
        if not np.all(np.abs(outcomes) == 1):
            raise ValueError("outcomes must be -1 or +1")
        if not np.all((thetas >= 0.0) & (thetas <= math.pi)):
            raise ValueError("thetas must lie in [0, pi]")
        if not np.all(np.isfinite(phis)):
            raise ValueError("phis must be finite")
        n = outcomes.shape[1]
        p = _flip_probabilities(p_err, n)
        for arr in (outcomes, thetas, phis, p):
            arr.setflags(write=False)
        self.n_qubits = n
        self.outcomes = outcomes
        self.thetas = thetas
        self.phis = phis
        self.p_err = p
        self.seed = int(seed)

    @property
    def n_snapshots(self) -> int:
        return self.outcomes.shape[0]

    def __len__(self):
        return self.n_snapshots

    def __eq__(self, other):
        if not isinstance(other, ApproximateState):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.seed == other.seed
            and np.array_equal(self.outcomes, other.outcomes)
            and np.array_equal(self.thetas, other.thetas)
            and np.array_equal(self.phis, other.phis)
            and np.array_equal(self.p_err, other.p_err)
        )

    def __repr__(self):
        return (
            f"ApproximateState(n_qubits={self.n_qubits}, "
            f"n_snapshots={self.n_snapshots}, seed={self.seed})"
        )


def _snapshot_uniforms(seed: int, start: int, count: int, n_qubits: int) -> np.ndarray:
    """Uniform table for snapshots [start, start+count), shape (count, 4N).

    Row j is a pure function of (seed, start + j): each snapshot owns a fixed
    range of Philox counter blocks keyed by the seed.  Its 4N uniforms (phi,
    cos theta, per-qubit outcome picks, flips) fill exactly N blocks of 4 words.
    """
    bits = Philox(key=seed, counter=start * n_qubits).random_raw(count * n_qubits * 4)
    words = bits.reshape(count, n_qubits * 4)
    return (words >> np.uint64(11)) * (2.0**-53)


# The half-size branch buffer of one batch, (rows, 2^(N-1)) complex doubles,
# stays within this many bytes unless a single row is already larger.
_BATCH_BYTES = 128 << 20
_MAX_BATCH = 1024


def _default_batch_size(n_qubits: int) -> int:
    row_bytes = (1 << (n_qubits - 1)) * np.dtype(complex).itemsize
    return max(1, min(_MAX_BATCH, _BATCH_BYTES // row_bytes))


def _moments(halves: np.ndarray) -> tuple[np.ndarray, ...]:
    """||a0||^2, ||a1||^2, Re<a0,a1> and Im<a0,a1> of halves (..., 2, h).

    These four numbers are the qubit's 2x2 reduced density matrix given the
    outcomes already drawn.  Float views keep every reduction a real einsum.
    """
    f0, f1 = halves[..., 0, :].view(np.float64), halves[..., 1, :].view(np.float64)
    re0, im0, re1, im1 = f0[..., 0::2], f0[..., 1::2], f1[..., 0::2], f1[..., 1::2]
    dot = "...h,...h->..."
    return (
        np.einsum(dot, f0, f0),
        np.einsum(dot, f1, f1),
        np.einsum(dot, f0, f1),
        np.einsum(dot, re0, im1) - np.einsum(dot, im0, re1),
    )


def snapshots_from_state(
    psi: Statevector,
    n_snapshots: int,
    seed: int,
    p_err: float | Sequence[float] = 0.0,
) -> ApproximateState:
    """Acquire ``n_snapshots`` independent snapshots of a known pure state,
    each outcome flipped with the readout error ``p_err`` of its qubit (one
    float for all qubits, or one value per qubit).

    Qubits are measured from the highest down.  Each step reads the qubit's
    conditional 2x2 reduced density, draws its bit, and builds only the chosen
    half of the amplitudes.  A batch holds the most rows (up to 1024) whose
    half-size branch buffer fits in 128 MiB, or a single row where one row
    alone is larger; the result does not depend on the batch size.
    """
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be at least 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    n = psi.n_qubits
    p_err = _flip_probabilities(p_err, n)
    batch_size = _default_batch_size(n)
    try:
        outcomes = np.empty((n_snapshots, n), dtype=np.int8)
        thetas = np.empty((n_snapshots, n))
        phis = np.empty((n_snapshots, n))
    except MemoryError:
        raise ValueError(
            f"{n_snapshots} snapshots of {n} qubits need {17 * n_snapshots * n} bytes, "
            "more than can be allocated"
        ) from None

    # Every row starts from psi, so the top qubit's moments are shared.
    top = psi.amps.reshape(2, -1)
    top_moments = _moments(top)

    for start in range(0, n_snapshots, batch_size):
        rows = min(batch_size, n_snapshots - start)
        u = _snapshot_uniforms(seed, start, rows, n)
        phi = 2.0 * math.pi * u[:, :n]
        theta = np.arccos(2.0 * u[:, n : 2 * n] - 1.0)
        picks = u[:, 2 * n : 3 * n]
        flip_u = u[:, 3 * n :]

        half = 0.5 * theta
        cos_h, sin_h = np.cos(half), np.sin(half)
        phase = np.exp(1j * phi)
        bits = np.empty((rows, n), dtype=np.int8)

        # Rotating qubit k by U = [[c, s e^-iphi], [-s e^iphi, c]] and
        # projecting on outcome 0 leaves c*a0 + s e^-iphi*a1, whose squared
        # norm follows from the moments; outcome 1 leaves -s e^iphi*a0 + c*a1.
        # Only the chosen branch is built, straight from psi at the top level.
        # It is an einsum, not a matmul: BLAS threads the large products and
        # then runs twice as slow whenever another process holds a core.
        halves, moments = np.broadcast_to(top, (rows, *top.shape)), top_moments
        for k in range(n - 1, -1, -1):
            n0, n1, re, im = moments
            c, s = cos_h[:, k], sin_h[:, k]
            cross = phase[:, k].real * re + phase[:, k].imag * im
            p0 = c * c * n0 + s * s * n1 + 2.0 * c * s * cross
            take1 = picks[:, k] * (n0 + n1) >= p0
            bits[:, k] = take1
            if k == 0:
                break
            coef = np.where(
                take1[:, None],
                np.stack([-s * phase[:, k], c + 0j], axis=1),
                np.stack([c + 0j, s * phase[:, k].conj()], axis=1),
            )
            halves = np.einsum("rk,rkh->rh", coef, halves).reshape(rows, 2, -1)
            moments = _moments(halves)

        m = 1 - 2 * bits
        m = np.where(flip_u < p_err[None, :], -m, m)

        outcomes[start : start + rows] = m
        thetas[start : start + rows] = theta
        phis[start : start + rows] = phi

    return ApproximateState(outcomes, thetas, phis, p_err, seed)


def build_approximate_state(
    circuit: Circuit,
    n_snapshots: int,
    seed: int,
    p_err: float | Sequence[float] = 0.0,
) -> ApproximateState:
    """Prepare the circuit's state once and collect M independent snapshots.

    Pure-state simulation permits reusing the prepared amplitudes; each
    snapshot is semantically a fresh preparation.
    """
    p_err = _flip_probabilities(p_err, circuit.n_qubits)
    psi = run_circuit(circuit)
    return snapshots_from_state(psi, n_snapshots, seed, p_err)


# --- binary format ----------------------------------------------------------
#
# Little endian: magic "AQST", version u16, N u32, M u64, p_err N x f64,
# seed u64, then M*N records of (m i8, theta f64, phi f64) in snapshot-major
# order.  Payload size = (26 + 8N) + 17*M*N bytes.


def serialize(state: ApproximateState) -> bytes:
    buf = io.BytesIO()
    buf.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, state.n_qubits, state.n_snapshots))
    buf.write(state.p_err.astype("<f8").tobytes())
    buf.write(struct.pack("<Q", state.seed))
    records = np.empty(state.n_snapshots * state.n_qubits, dtype=_RECORD_DTYPE)
    records["m"] = state.outcomes.reshape(-1)
    records["theta"] = state.thetas.reshape(-1)
    records["phi"] = state.phis.reshape(-1)
    buf.write(records.tobytes())
    return buf.getvalue()


def deserialize(data: bytes) -> ApproximateState:
    if len(data) < _HEADER.size:
        raise SnapshotFormatError("truncated header")
    magic, version, n, m = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise SnapshotFormatError(f"unsupported format version {version}")
    offset = _HEADER.size
    expected = offset + 8 * n + 8 + _RECORD_DTYPE.itemsize * m * n
    if len(data) != expected:
        raise SnapshotFormatError(
            f"payload size {len(data)} does not match header ({expected} expected)"
        )
    p_err = np.frombuffer(data, dtype="<f8", count=n, offset=offset).copy()
    offset += 8 * n
    (seed,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    records = np.frombuffer(data, dtype=_RECORD_DTYPE, count=m * n, offset=offset)
    try:
        return ApproximateState(
            records["m"].reshape(m, n).copy(),
            records["theta"].reshape(m, n).copy(),
            records["phi"].reshape(m, n).copy(),
            p_err,
            seed,
        )
    except ValueError as exc:
        raise SnapshotFormatError(f"invalid snapshot payload: {exc}") from exc


def save_snapshots(state: ApproximateState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(state))


def load_snapshots(path) -> ApproximateState:
    with open(path, "rb") as fh:
        return deserialize(fh.read())


def state_to_json_dict(state: ApproximateState, circuit_hash: str | None = None) -> dict:
    """JSON export for interop and debugging, with the hash of the circuit
    that prepared the state when the caller passes one.  Nothing reads it
    back."""
    return {
        "format_version": _FORMAT_VERSION,
        "n_qubits": state.n_qubits,
        "n_snapshots": state.n_snapshots,
        "seed": state.seed,
        "p_err": state.p_err.tolist(),
        "circuit_hash": circuit_hash,
        "outcomes": state.outcomes.tolist(),
        "thetas": state.thetas.tolist(),
        "phis": state.phis.tolist(),
    }
