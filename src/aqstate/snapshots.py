"""Snapshot acquisition: random measurement directions, simulated single-qubit
measurements with optional readout error, and the compact 3MN-number store.

One snapshot records, for every qubit, an outcome m in {-1,+1} and the
measurement direction angles (theta, phi).  The collection of M snapshots is
the approximate state 𝒮 from which all estimators are computed.

Randomness is counter based: the uniforms feeding snapshot j are a pure
function of (seed, j), so acquisition order and batch size never change the
result and any subrange can be regenerated independently.  The head depth
of a part depends on M, and two depths round differently: an outcome can
change only where its uniform lies within rounding of its threshold.
"""

from __future__ import annotations

import io
import math
import struct
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .pauli import _integer, _numeric
from .statevector import Circuit, ProductState, Statevector

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
    p = _numeric("p_err", p_err).astype(np.float64, copy=False)
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
        outcomes = _numeric("outcomes", outcomes)
        thetas = _numeric("thetas", thetas).astype(np.float64, copy=False)
        phis = _numeric("phis", phis).astype(np.float64, copy=False)
        if outcomes.ndim != 2 or outcomes.shape != thetas.shape or outcomes.shape != phis.shape:
            raise ValueError("outcomes/thetas/phis must share shape (M, N)")
        if outcomes.shape[0] < 1 or outcomes.shape[1] < 1:
            raise ValueError("need at least one snapshot of at least one qubit")
        if not np.all(np.abs(outcomes) == 1):
            raise ValueError("outcomes must be -1 or +1")
        outcomes = outcomes.astype(np.int8, copy=False)
        if not np.all((thetas >= 0.0) & (thetas <= math.pi)):
            raise ValueError("thetas must lie in [0, pi]")
        if not np.all(np.isfinite(phis)):
            raise ValueError("phis must be finite")
        n = outcomes.shape[1]
        # the file stores the seed as an unsigned 64-bit integer
        seed = _integer("seed", seed, 0, 2**64 - 1)
        p = _flip_probabilities(p_err, n)
        for arr in (outcomes, thetas, phis, p):
            arr.setflags(write=False)
        self.n_qubits = n
        self.outcomes = outcomes
        self.thetas = thetas
        self.phis = phis
        self.p_err = p
        self.seed = seed

    @property
    def n_snapshots(self) -> int:
        return self.outcomes.shape[0]

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
    cos theta, per-qubit outcome picks, flips) fill exactly N blocks of 4
    words: ``random`` makes each double from one word w, (w >> 11) * 2^-53.
    """
    return Generator(Philox(key=seed, counter=start * n_qubits)).random((count, 4 * n_qubits))


# The first explicit level of one batch, (rows, 2^(n-D)) complex doubles for
# a part of n qubits with head depth D, stays within this many bytes unless a
# single row is already larger.
_BATCH_BYTES = 128 << 20
_MAX_BATCH = 1024


def _default_batch_size(branch_qubits: int) -> int:
    """Rows per batch whose first explicit branch level, 2^branch_qubits
    complex amplitudes per row, fits in ``_BATCH_BYTES``."""
    row_bytes = (1 << branch_qubits) * np.dtype(complex).itemsize
    return max(1, min(_MAX_BATCH, _BATCH_BYTES // row_bytes))


def _head_depth(n_qubits: int, n_snapshots: int) -> int:
    """Head depth D of an n-qubit part: its top D qubits are drawn from
    shared Gram matrices, the rest from each row's branch.

    D minimises a cost model in complex multiply-adds of the tail's einsums,
    fitted to timings of this kernel.  Every depth builds each row's branch
    once from all 2^n amplitudes; on top of that a row costs about
    4 * 2^(n-D) in the tail levels.  The head's quadratic forms, 4 * 4^d
    multiply-adds at depth d = 1 .. D-1, are matrix products at about a
    tenth of that cost, (4^D - 4) / 8 in all.  The Gram matrix, shared by
    all M rows, costs about 2^(n+D) / 128, and each head level a fixed 4096
    per batch for its NumPy calls.  So D is 1, the shared top level only,
    for parts of up to 2 qubits and for small parts with few snapshots, and
    about (n + 4) / 3 for large M.  A head deeper than n/2 + 1 costs more
    per row than the whole tail at D = 1.
    """
    batches = -(-n_snapshots // _MAX_BATCH)

    def cost(depth: int) -> float:
        row = 4 * 2 ** (n_qubits - depth) + (4**depth - 4) / 8
        return n_snapshots * row + 2 ** (n_qubits + depth - 7) + 4096 * (depth - 1) * batches

    return min(range(1, n_qubits // 2 + 2), key=cost)


# Columns of R per slice of the Gram matrix's imaginary part.
_GRAM_COLUMNS = 1 << 10


def _gram(amps: np.ndarray, depth: int) -> np.ndarray:
    """G[i, j] = <R_i, R_j> for R = amps reshaped to (2^depth, 2^(n-depth)),
    from real products of the float view f: the real part is f f^T, and the
    imaginary part Re(R) Im(R)^T minus its transpose, summed over slices of
    ``_GRAM_COLUMNS`` columns, so only the slices are copied, nothing the
    size of the state.  At depth 1 they are einsums (see ``_product``)."""
    r = amps.reshape(1 << depth, -1)
    f = r.view(np.float64)
    if depth == 1:
        real, cross = np.einsum("ih,jh->ij", f, f), np.einsum("ih,jh->ij", r.real, r.imag)
    else:
        real, cross = f @ f.T, np.zeros((1 << depth, 1 << depth))
        for start in range(0, r.shape[1], _GRAM_COLUMNS):
            piece = r[:, start : start + _GRAM_COLUMNS]
            cross += np.ascontiguousarray(piece.real) @ np.ascontiguousarray(piece.imag).T
    gram = np.empty((1 << depth, 1 << depth), dtype=complex)
    gram.real = real
    gram.imag = cross - cross.T
    return gram


def _head(amps: np.ndarray, depth: int) -> list[np.ndarray]:
    """The Gram matrices G^(1) ... G^(depth) of ``_gram``, G^(d+1) reshaped
    to (2^d, 2, 2^d, 2) for the qubit drawn at depth d.  Each smaller one is
    the partial trace of the next larger over its last qubit."""
    grams = [_gram(amps, depth).reshape(1 << (depth - 1), 2, 1 << (depth - 1), 2)]
    for d in range(depth - 2, -1, -1):
        grams.append(np.einsum("iaja->ij", grams[-1]).reshape(1 << d, 2, 1 << d, 2))
    return grams[::-1]


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


def _draw(bits: np.ndarray, q: int, moments: tuple, tables: tuple, last: bool):
    """Draw qubit q's bit in every row from its conditional moments and
    return the (2, rows) weights of (a0, a1) in the chosen branch, or None
    after the part's last qubit.  ``tables`` holds the batch's cos(theta/2),
    sin(theta/2), e^(i phi) and outcome picks, one column per qubit.

    Rotating the qubit by U = [[c, s e^-iphi], [-s e^iphi, c]] and projecting
    on outcome 0 leaves c*a0 + s e^-iphi*a1, whose squared norm follows from
    the moments; outcome 1 leaves -s e^iphi*a0 + c*a1.
    """
    n0, n1, re, im = moments
    cos_h, sin_h, phases, picks = tables
    c, s, phase, pick = cos_h[:, q], sin_h[:, q], phases[:, q], picks[:, q]
    cross = phase.real * re + phase.imag * im
    p0 = c * c * n0 + s * s * n1 + 2.0 * c * s * cross
    take1 = pick * (n0 + n1) >= p0
    bits[:, q] = take1
    if last:
        return None
    sp = s * phase
    return np.where(take1, (-sp, c), (c, sp.conj()))


# OpenBLAS runs a complex matrix product of m*n*k < 2^16 multiply-adds on the
# calling thread and splits a larger one over its threads too.  Those wait
# for a core whenever another process holds one: with a busy second core,
# dense N=12 acquisition took twice as long on split products as on one
# thread, and no less time when idle.  Slices narrower than _MIN_SLICE
# columns cost more than the threads save.  A contraction over 2, all that
# the small parts of a product state need, gains nothing from BLAS, and its
# first call costs the process about half a MiB of buffers.
_ONE_THREAD = 1 << 15
_MIN_SLICE = 8


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b, as one stacked matmul over slices of the columns of b
    that BLAS runs on the calling thread, or as one plain matmul where such
    slices would be narrower than ``_MIN_SLICE``; an einsum when b has two
    rows."""
    k, cols = b.shape
    if k == 2:
        return np.einsum("xk,kc->xc", a, b, out=out)
    step = _ONE_THREAD // (len(a) * k)
    if step < _MIN_SLICE or cols < 2 * step:
        return np.matmul(a, b, out=out)
    full = cols - cols % step
    np.matmul(
        a,
        b[:, :full].reshape(k, -1, step).transpose(1, 0, 2),
        out=out[:, :full].reshape(len(a), -1, step).transpose(1, 0, 2),
    )
    np.matmul(a, b[:, full:], out=out[:, full:])
    return out


def _measure_part(bits: np.ndarray, part: tuple, tables: tuple) -> None:
    """Draw the bits of one part of the state from its highest qubit down.
    ``part`` is ``(qubits, head_rows, grams)``: the part's columns of the
    batch's ``tables``, its amplitudes reshaped to R, (2^D, 2^(n-D)), and
    the Gram matrices of ``_head`` for its head of depth D.

    At head depth d a row's branch is sum_b w_b R_b, where w (2^d, rows)
    is the Kronecker product of the row's chosen weight pairs, so the
    qubit's moments are quadratic forms of w in a Gram matrix and no
    amplitude is touched.  The handoff builds that branch once per row;
    each tail level then builds only the chosen half of it.  The first half
    of each quadratic form and the handoff are BLAS matrix products (see
    ``_product``); the rest are einsums, whose per-row shapes BLAS would
    not speed up.
    """
    qubits, head_rows, grams = part
    rows, n = len(bits), len(qubits)
    for d, g in enumerate(grams):
        if d == 0:  # the top qubit's 2x2 matrix, the same for every row
            m = g.reshape(2, 2, 1)
        else:
            gw = np.empty((4 * len(w), rows), dtype=complex)
            _product(g.reshape(len(w), -1).T, w.conj(), gw)
            m = np.einsum("acdr,cr->adr", gw.reshape(2, len(w), 2, -1), w)
            del gw
        moments = (m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag)
        coef = _draw(bits, qubits[n - 1 - d], moments, tables, last=d == n - 1)
        if d == n - 1:  # the head holds every qubit
            return
        w = coef if d == 0 else (w[:, None, :] * coef[None]).reshape(-1, rows)
    halves = np.empty((rows, head_rows.shape[1]), dtype=complex)
    _product(head_rows.T, w, halves.T)
    del m, moments, w  # the head's buffers, before the tail's first level
    halves = halves.reshape(rows, 2, -1)
    for k in range(n - 1 - len(grams), -1, -1):
        coef = _draw(bits, qubits[k], _moments(halves), tables, last=k == 0)
        if k:
            halves = np.einsum("kr,rkh->rh", coef, halves).reshape(rows, 2, -1)


def _acquire_batch(
    parts: list,
    u: np.ndarray,
    p_err: np.ndarray,
    outcomes: np.ndarray,
    thetas: np.ndarray,
    phis: np.ndarray,
) -> None:
    """Fill one batch of snapshot rows from its uniform table ``u``
    (rows, 4N), measuring each of ``parts`` in turn.  The batch's tables
    die on return, before the next batch draws its uniforms."""
    n = outcomes.shape[1]
    phi = 2.0 * math.pi * u[:, :n]
    u_cos = u[:, n : 2 * n]
    theta = np.arccos(2.0 * u_cos - 1.0)
    picks = u[:, 2 * n : 3 * n]
    flip_u = u[:, 3 * n :]

    # cos(theta/2)^2 = (1 + cos theta)/2 = u exactly, since u is a multiple
    # of 2^-53: no trigonometry per qubit.
    cos_h, sin_h = np.sqrt(u_cos), np.sqrt(1.0 - u_cos)
    tables = (cos_h, sin_h, np.exp(1j * phi), picks)
    bits = np.empty((len(u), n), dtype=np.int8)
    for part in parts:
        _measure_part(bits, part, tables)

    m = 1 - 2 * bits
    outcomes[...] = np.where(flip_u < p_err[None, :], -m, m)
    thetas[...] = theta
    phis[...] = phi


def snapshots_from_state(
    psi: Statevector | ProductState,
    n_snapshots: int,
    seed: int,
    p_err: float | Sequence[float] = 0.0,
) -> ApproximateState:
    """Acquire ``n_snapshots`` independent snapshots of a known pure state,
    dense or a product of parts, each outcome flipped with the readout error
    ``p_err`` of its qubit (one float for all qubits, or one value per
    qubit).

    Each part's qubits are measured from the highest down.  Each step reads
    the qubit's conditional 2x2 reduced density, which depends only on the
    bits already drawn in its own part, and draws its bit.  The top D qubits
    of a part (its head, D from ``_head_depth``) read it from Gram matrices
    of the part's amplitudes that all rows share; each row then builds its
    branch once, and every later step builds only the chosen half of it.
    Every part reads its own columns of one uniform table, so a product
    state and its dense equivalent use the same uniforms for each qubit and
    give the same bits, up to rounding at a threshold; the same holds for
    two head depths.  A batch holds the most rows (up to 1024) whose first
    branch level, in the part where it is longest, fits in 128 MiB, or a
    single row where one row alone is larger; the result does not depend
    on the batch size.
    """
    n_snapshots = _integer("n_snapshots", n_snapshots, 1)
    seed = _integer("seed", seed, 0, 2**64 - 1)
    n = psi.n_qubits
    p_err = _flip_probabilities(p_err, n)
    depths = [_head_depth(part.n_qubits, n_snapshots) for _, part in psi.parts]
    batch_size = _default_batch_size(max(len(q) - d for (q, _), d in zip(psi.parts, depths)))
    try:
        outcomes = np.empty((n_snapshots, n), dtype=np.int8)
        thetas = np.empty((n_snapshots, n))
        phis = np.empty((n_snapshots, n))
    except MemoryError:
        raise ValueError(
            f"{n_snapshots} snapshots of {n} qubits need {17 * n_snapshots * n} bytes, "
            "more than can be allocated"
        ) from None

    # Every row starts from the same parts, so their Gram matrices are shared.
    parts = [
        (qubits, part.amps.reshape(1 << depth, -1), _head(part.amps, depth))
        for (qubits, part), depth in zip(psi.parts, depths)
    ]

    for start in range(0, n_snapshots, batch_size):
        stop = min(start + batch_size, n_snapshots)
        _acquire_batch(
            parts, _snapshot_uniforms(seed, start, stop - start, n), p_err,
            outcomes[start:stop], thetas[start:stop], phis[start:stop],
        )

    return ApproximateState(outcomes, thetas, phis, p_err, seed)


def build_approximate_state(
    circuit: Circuit,
    n_snapshots: int,
    seed: int,
    p_err: float | Sequence[float] = 0.0,
) -> ApproximateState:
    """Prepare the circuit's state once, one connected component at a time,
    and collect M independent snapshots.

    Pure-state simulation permits reusing the prepared amplitudes; each
    snapshot is semantically a fresh preparation.
    """
    p_err = _flip_probabilities(p_err, circuit.n_qubits)
    psi = ProductState.from_circuit(circuit)
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
