"""Statevector engine: gate kernels, product states of a circuit's connected
components, random preparation circuits, and the exact-expectation oracle
used to validate the snapshot estimators.

Amplitude ordering: qubit 0 is the least-significant bit of the basis index.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass
import numpy as np

from .pauli import (
    FactoredObservable, Observable, _integer, _number, _numeric, _planes, _read_json
)

__all__ = [
    "MAX_QUBITS",
    "MAX_TOTAL_QUBITS",
    "Statevector",
    "ProductState",
    "Gate",
    "Circuit",
    "run_circuit",
    "random_prep_circuit",
    "exact_expectation",
    "exact_expectation_factored",
    "haar_random_state",
    "circuit_to_dict",
    "circuit_from_dict",
    "save_circuit",
    "load_circuit",
]

# 2^26 complex doubles ~ 1 GiB; enough for any desk-scale check.  Caps a
# dense state, so also each part of a product state.
MAX_QUBITS = 26

# Caps the qubits of a circuit, so of a product state, an experiment and a
# preparation circuit.  An acquisition batch holds up to 96 bytes per row
# and qubit besides its branch buffers (at most 1024 rows: 24 MiB at this
# cap), and 3^r for a weight-r string stays finite.
MAX_TOTAL_QUBITS = 256

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

    The amplitude buffer is frozen after construction; ``run_circuit``
    applies its gates in place to its own buffer and wraps it once.
    """

    __slots__ = ("n_qubits", "amps")

    def __init__(self, amps: np.ndarray, *, copy: bool = True):
        size = np.size(amps)
        n = int(size).bit_length() - 1
        if size < 2 or 1 << n != size:
            raise ValueError(f"amplitude count {size} is not 2^n for some n >= 1")
        if n > MAX_QUBITS:
            raise ValueError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
        amps = np.array(_numeric("amplitudes", amps, "iufc"), dtype=complex, copy=copy).reshape(-1)
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"state is not normalized (norm {norm!r})")
        amps.setflags(write=False)
        self.n_qubits = n
        self.amps = amps

    @classmethod
    def _made(cls, amps: np.ndarray) -> "Statevector":
        """Wrap unchecked a unit-norm complex 2^n buffer (1 <= n <= MAX_QUBITS) made here."""
        psi = cls.__new__(cls)
        amps.setflags(write=False)
        psi.n_qubits, psi.amps = amps.size.bit_length() - 1, amps
        return psi

    @property
    def parts(self) -> tuple[tuple[tuple[int, ...], "Statevector"], ...]:
        """The state as the one part of a product state over all its qubits."""
        return ((tuple(range(self.n_qubits)), self),)

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
        object.__setattr__(self, "qubits", tuple(_integer("gate qubit", q) for q in self.qubits))
        if self.kind == "XY":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("XY needs two distinct targets")
            if self.alpha is None:
                raise ValueError("XY needs an angle")
            try:
                alpha = float(_number("XY angle", self.alpha))
            except OverflowError:  # an integer beyond a float's range
                raise ValueError("XY angle must be finite, got an integer out of range") from None
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
        n = _integer("n_qubits", self.n_qubits, 1, MAX_TOTAL_QUBITS)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for q in gate.qubits:
                _integer("gate qubit", q, 0, n - 1)

    def content_hash(self) -> str:
        blob = json.dumps(circuit_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# The kernels walk the two parts of the state a gate reads (a single-qubit
# gate's halves, XY's odd-parity quarters) in blocks of at most ``_BLOCK``
# amplitudes each, so every pass over a block stays in cache (2^14 complex
# doubles, 256 KiB per part).  A block copies what it reads into its
# thread's scratch buffer from ``_scratch`` and does its arithmetic there:
# NumPy runs a ufunc on a strided view through two 128 KiB buffers, a plain
# copy through none.  Each product keeps the scalar first and each sum its
# operands, up to order, as in u00*a0 + u01*a1; IEEE addition commutes, so
# the bits, signed zeros included, are those of that expression whatever
# the blocking.  That holds for blocks of two or more amplitudes: NumPy's
# in-place product of a single complex element rounds differently from its
# loop, so ``_BLOCK`` stays a power of two and only a one-amplitude half is
# a one-amplitude block.
_BLOCK = 1 << 14

# From this many amplitudes on, a state's gate blocks and oracle slices are
# shared between the calling thread and one helper (``_on_two_threads``).
# On a 2-core VM both kernels ran slower on two threads below 2^21
# amplitudes (x0.2-1.0 at N = 16-20); from 2^21 on the gates ran x1.2-1.7
# as fast and the oracle x0.9-2.2.
_TWO_THREAD_AMPS = 1 << 21


def _on_two_threads(items, work, threaded: bool) -> None:
    """Call ``work(item, slot)`` for each of ``items``.  Threaded, the
    calling thread (slot 0) and one helper thread (slot 1), joined before
    return, take items from one locked iterator, so each writes only the
    buffers of its own slot and a helper without a core delays the caller by
    at most the item it holds.  An error in either thread empties the
    iterator, so the other stops after its current item, and is raised in
    the caller after the join.  Unthreaded, the caller runs every item in
    slot 0."""
    if not threaded:
        for item in items:
            work(item, 0)
        return
    lock, items, errors = threading.Lock(), iter(items), []

    def run(slot):
        try:
            while True:
                with lock:
                    item = next(items, None)
                if item is None:
                    return
                work(item, slot)
        except BaseException as exc:  # raised in the caller once both are done
            with lock:
                for _ in items:
                    pass
            errors.append(exc)

    helper = threading.Thread(target=run, args=(1,))
    helper.start()
    run(0)
    helper.join()
    if errors:
        raise errors[0]


def _slots(size: int) -> int:
    """Threads that share the work on a state of ``size`` amplitudes: two
    from ``_TWO_THREAD_AMPS`` on, else one.  Callers hold one buffer per
    slot of ``_on_two_threads`` and thread exactly when they hold two."""
    return 2 if size >= _TWO_THREAD_AMPS else 1


def _scratch(size: int) -> tuple[np.ndarray, ...]:
    """Scratch buffers for gates on up to ``size`` amplitudes, one per slot
    (``_slots``).  Each holds the four blocks of complex values an XY gate
    needs, or ``size`` values if fewer."""
    return tuple(np.empty(min(size, 4 * _BLOCK), dtype=complex) for _ in range(_slots(size)))


def _blocks(*views: np.ndarray):
    """Yield matching sub-views of ``views``, which share one shape, of at
    most ``_BLOCK`` elements each.  The cut goes along the outermost axis
    whose inner run fits in a block; the axes outside it are walked one
    index at a time."""
    shape = views[0].shape
    if views[0].size <= _BLOCK:
        yield views
        return
    axis, inner = len(shape) - 1, 1
    while inner * shape[axis] <= _BLOCK:
        inner *= shape[axis]
        axis -= 1
    step = _BLOCK // inner
    for outer in np.ndindex(shape[:axis]):
        for start in range(0, shape[axis], step):
            index = outer + (slice(start, start + step),)
            yield tuple(view[index] for view in views)


def _apply_single_inplace(
    amps: np.ndarray, qubit: int, u: np.ndarray, scratch: tuple[np.ndarray, ...]
) -> None:
    view = amps.reshape(-1, 2, 1 << qubit)

    def block(halves, slot):
        a0, a1 = halves
        new, term = scratch[slot][: 2 * a0.size].reshape(2, *a0.shape)
        new[...] = a0
        np.multiply(u[0, 0], new, out=new)
        term[...] = a1
        np.multiply(u[0, 1], term, out=term)
        new += term
        term[...] = a0
        np.multiply(u[1, 0], term, out=term)
        a0[...] = new
        new[...] = a1
        np.multiply(u[1, 1], new, out=new)
        new += term
        a1[...] = new

    _on_two_threads(_blocks(view[:, 0, :], view[:, 1, :]), block, len(scratch) > 1)


def _apply_xy_inplace(
    amps: np.ndarray, q1: int, q2: int, alpha: float, scratch: tuple[np.ndarray, ...]
) -> None:
    # identity on the even-parity block; rotation by 2*alpha on {|01>,|10>}
    lo, hi = min(q1, q2), max(q1, q2)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    hi_only, lo_only = view[:, 1, :, 0, :], view[:, 0, :, 1, :]
    # sel: bit q1 set and bit q2 clear; swapped: the reverse
    pair = (hi_only, lo_only) if q1 == hi else (lo_only, hi_only)
    c, s = math.cos(2.0 * alpha), math.sin(2.0 * alpha)

    def block(quarters, slot):
        sel, swapped = quarters
        va, vb, new, term = scratch[slot][: 4 * sel.size].reshape(4, *sel.shape)
        va[...] = sel
        vb[...] = swapped
        np.multiply(c, va, out=new)
        np.multiply(1j * s, vb, out=term)
        new -= term
        sel[...] = new
        np.multiply(-1j * s, va, out=new)
        np.multiply(c, vb, out=term)
        new += term
        swapped[...] = new

    _on_two_threads(_blocks(*pair), block, len(scratch) > 1)


def _apply_gate_inplace(amps: np.ndarray, gate: Gate, scratch: tuple[np.ndarray, ...]) -> None:
    if gate.kind == "XY":
        _apply_xy_inplace(amps, gate.qubits[0], gate.qubits[1], gate.alpha, scratch)
    else:
        _apply_single_inplace(amps, gate.qubits[0], _SINGLE_QUBIT_MATRICES[gate.kind], scratch)


def run_circuit(circuit: Circuit) -> Statevector:
    """Apply all gates in order to the dense state, starting from |0...0>.
    Holds the state and one scratch buffer of at most 4 * 2^14 complex
    values (1 MiB) that every gate reuses, and from ``_TWO_THREAD_AMPS``
    amplitudes on a second one for the helper thread."""
    amps = np.zeros(1 << _integer("n_qubits", circuit.n_qubits, 1, MAX_QUBITS), dtype=complex)
    amps[0] = 1.0
    scratch = _scratch(amps.size)
    for gate in circuit.gates:
        _apply_gate_inplace(amps, gate, scratch)
    return Statevector._made(amps)


class ProductState:
    """Tensor product of pure states on disjoint sets of qubits.

    ``parts`` holds ``(qubits, Statevector)`` pairs ordered by lowest qubit;
    local qubit i of a part is global qubit ``qubits[i]``, and ``qubits``
    ascends, so local order follows global order.  A dense
    :class:`Statevector` is the one-part case and has the same ``parts``.
    """

    __slots__ = ("n_qubits", "parts")

    def __init__(self, n_qubits: int, parts):
        parts = tuple((tuple(qubits), psi) for qubits, psi in parts)
        covered = sorted(q for qubits, _ in parts for q in qubits)
        if covered != list(range(n_qubits)) or any(
            list(qubits) != sorted(qubits) or len(qubits) != psi.n_qubits
            for qubits, psi in parts
        ):
            raise ValueError("parts must cover each qubit once, each in ascending order")
        self.n_qubits = n_qubits
        self.parts = parts

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "ProductState":
        """Run each connected component of the circuit on its own.

        Qubits that share a two-qubit gate are joined (union-find); each
        component runs its own gates, in circuit order, through
        :func:`run_circuit`.  Every cap is checked before any amplitude is
        allocated.
        """
        n = circuit.n_qubits
        root = list(range(n))

        def find(q: int) -> int:
            while root[q] != q:
                root[q] = q = root[root[q]]
            return q

        for gate in circuit.gates:
            if len(gate.qubits) == 2:
                a, b = find(gate.qubits[0]), find(gate.qubits[1])
                root[max(a, b)] = min(a, b)  # a root is its component's lowest qubit
        components: dict[int, list[int]] = {}
        for q in range(n):
            components.setdefault(find(q), []).append(q)
        largest = max(map(len, components.values()))
        if largest > MAX_QUBITS:
            raise ValueError(
                f"a component of {largest} qubits exceeds the cap of {MAX_QUBITS}"
            )
        local = [0] * n
        for qubits in components.values():
            for i, q in enumerate(qubits):
                local[q] = i
        gates: dict[int, list[Gate]] = {r: [] for r in components}
        for gate in circuit.gates:
            gates[find(gate.qubits[0])].append(
                Gate(gate.kind, tuple(local[q] for q in gate.qubits), gate.alpha)
            )
        return cls(n, (
            (qubits, run_circuit(Circuit(len(qubits), tuple(gates[r]))))
            for r, qubits in components.items()
        ))

    def __repr__(self):
        sizes = [len(qubits) for qubits, _ in self.parts]
        return f"ProductState(n_qubits={self.n_qubits}, part_sizes={sizes})"


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
    n_qubits = _integer("n_qubits", n_qubits, 2, MAX_TOTAL_QUBITS)
    n_single = n_qubits // 2
    n_pairs = n_qubits // 4
    gates = []
    targets = rng.choice(n_qubits, size=n_single, replace=False)
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


# basis states per slice of the oracle's sums
_ORACLE_SLICE = 1 << 16


def _term_values(amps: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """<P> over the states ``amps`` (batch, 2^n) of each row P of ``axes``
    (T, n), as a (T, batch) array.

    Each distinct row is evaluated once, and the identity gives exactly 1.
    With the bit masks x and z of ``_planes`` (one word, as n <= MAX_QUBITS),
    P acts on basis states as P|b> = c(b)|b ^ x> with
    c(b) = i^{#Y} * (-1)^{popcount(b & z)}.  Each slice of ``_ORACLE_SLICE``
    basis states gives a row its own total, and the totals are added in
    ascending slice order.  The partners of the slice at ``start`` are the
    slice at ``start ^ (x & ~(size - 1))`` with the bits of ``x & (size - 1)``
    flipped, a reversed view of its axes that is conjugated into one reused
    buffer per thread; c(b) over a slice is one of two phase arrays per row,
    as popcount(start & z) is even or odd.  From ``_TWO_THREAD_AMPS``
    amplitudes per state on, a row's slices are shared between the caller
    and one helper thread.
    """
    x, z = (plane[:, 0] for plane in _planes(axes))
    # one key per distinct row: n <= MAX_QUBITS < 32 bits per mask
    keys, inverse = np.unique((x << np.uint64(32)) | z, return_inverse=True)
    values = np.ones((len(keys), len(amps)))
    size = min(amps.shape[-1], _ORACLE_SLICE)
    bits = size.bit_length() - 1
    idx = np.arange(size, dtype=np.uint32)
    # axis 2 + j of ``slices`` (batch, slice, 2, ..., 2) holds bit bits - 1 - j
    slices = amps.reshape((len(amps), -1) + (2,) * bits)
    bufs = np.empty((_slots(amps.shape[-1]), len(amps), size), dtype=complex)  # one per thread
    flipped = bufs.reshape(bufs.shape[:2] + slices.shape[2:])
    totals = [None] * slices.shape[1]  # each slice's (batch,) total of a row
    sign = np.empty(size)
    phases = np.empty((2, size), dtype=complex)
    for k, key in enumerate(keys.tolist()):
        x, z = divmod(key, 1 << 32)
        if not key:
            continue
        flips = tuple([
            slice(None, None, -1) if x >> bit & 1 else slice(None)
            for bit in range(bits - 1, -1, -1)
        ])
        # c(b) = i^{#Y} * (1.0 - 2.0 * parity) on a slice whose start has an
        # even popcount(start & z), then on one whose start has an odd one
        i_y = 1j ** (x & z).bit_count()
        np.multiply(2.0, np.bitwise_count(idx & z) & 1, out=sign)
        np.subtract(1.0, sign, out=sign)
        np.multiply(i_y, sign, out=phases[0])
        if z >> bits:
            np.multiply(i_y, np.negative(sign, out=sign), out=phases[1])

        def slice_total(index, slot):
            start = index * size
            np.conjugate(slices[(slice(None), (start ^ x) >> bits) + flips], out=flipped[slot])
            block = amps[:, start : start + size]
            phase = phases[(start & z).bit_count() & 1]
            totals[index] = np.einsum("sb,b,sb->s", bufs[slot], phase, block).real

        _on_two_threads(range(len(totals)), slice_total, len(bufs) > 1)
        total = totals[0]
        for later in totals[1:]:
            total = total + later
        values[k] = total
    return values[inverse.reshape(-1)]


def exact_expectation(psi: Statevector | ProductState, obs: Observable) -> float:
    """<psi|O|psi> summed term by term via sparse Pauli action.

    Each string's value is the product of its values on the parts of the
    state, taken in part order; a string that acts as the identity on a part
    contributes exactly 1.  Terms are then added one by one in canonical
    order, after the identity coefficient.
    """
    if obs.n_qubits != psi.n_qubits:
        raise ValueError("observable and state qubit counts differ")
    return next(_exact_expectations(psi, [obs]))


def _exact_expectations(psi: Statevector | ProductState, observables: list):
    """Yield ``exact_expectation`` of each observable, all rows at once per part."""
    axes = np.concatenate([obs.axes for obs in observables])
    values = np.ones(len(axes))
    for qubits, part in psi.parts:
        values *= _term_values(part.amps[None], axes[:, qubits])[:, 0]
    values = iter(values.tolist())
    for obs in observables:
        total = obs.offset
        for coeff in obs.coeffs.tolist():
            total += coeff * next(values)
        yield float(total)


def exact_expectation_factored(
    psi: Statevector | ProductState, fobs: FactoredObservable
) -> float:
    """<psi|O|psi> for a tensor-factored observable via per-qubit 2x2 maps:
    the row [a0, ax, ay, az] acts as [[a0 + az, ax - i ay], [ax + i ay, a0 - az]].
    Each term's value is the product of its values on the parts of the state."""
    if fobs.n_qubits != psi.n_qubits:
        raise ValueError("observable and state qubit counts differ")
    scratch = _scratch(max(part.amps.size for _, part in psi.parts))
    total = 0.0
    for coeff, table in zip(fobs.coeffs.tolist(), fobs.factors):
        value = 1.0
        for qubits, part in psi.parts:
            work = part.amps.copy()
            part_scratch = scratch[: _slots(work.size)]  # a smaller part may run unthreaded
            for qubit, (a0, ax, ay, az) in enumerate(table[list(qubits)].tolist()):
                block = np.array([[a0 + az, ax - 1j * ay], [ax + 1j * ay, a0 - az]])
                _apply_single_inplace(work, qubit, block, part_scratch)
            value *= float(np.vdot(part.amps, work).real)
        total += coeff * value
    return total


def haar_random_state(n_qubits: int, rng: np.random.Generator) -> Statevector:
    """Pure state drawn from the unitarily invariant distribution."""
    dim = 1 << _integer("n_qubits", n_qubits, 1, MAX_QUBITS)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return Statevector._made(amps / np.linalg.norm(amps))


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
        gates = [
            Gate("XY", (entry["q1"], entry["q2"]), entry["alpha"]) if entry["kind"] == "XY"
            else Gate(entry["kind"], (entry["q"],))
            for entry in data["gates"]
        ]
        return Circuit(data["n_qubits"], tuple(gates))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit data: {exc}") from exc


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_dict(circuit), fh, indent=1)
        fh.write("\n")


def load_circuit(path) -> Circuit:
    return circuit_from_dict(_read_json(path))
