"""Sparse Pauli-string algebra, observables, and the seminorms that bound
the statistical error of snapshot-based estimation.

Conventions: axis indices 0..3 are I, X, Y, Z; an observable is a real
linear combination of Pauli strings; the identity string never contributes
to any seminorm.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "PauliAxis",
    "PauliString",
    "Observable",
    "SingleQubitOperator",
    "FactoredObservable",
    "TermTable",
    "seminorm",
    "seminorm2",
    "seminorm1",
    "shot_budget",
    "normalize_to_unit_seminorm",
    "projector_factored",
    "projector_pauli_expansion",
    "projector_seminorms",
    "factored_seminorms",
    "observable_to_dict",
    "observable_from_dict",
    "factored_to_dict",
    "factored_from_dict",
    "save_observable",
    "load_observable",
]

# explicit Pauli expansions of factored observables stop at this many qubits
EXPANSION_QUBIT_CAP = 12


class PauliAxis(IntEnum):
    I = 0
    X = 1
    Y = 2
    Z = 3


_AXIS_CHARS = "IXYZ"


def _coerce_axis(value) -> PauliAxis:
    if isinstance(value, str):
        try:
            return PauliAxis(_AXIS_CHARS.index(value.upper()))
        except ValueError:
            raise ValueError(f"unknown Pauli axis {value!r}") from None
    return PauliAxis(value)


# axis of each label byte: I, X, Y, Z in either case; 4 marks any other byte
_LABEL_AXES = np.full(256, 4, dtype=np.uint8)
_LABEL_AXES[list(b"IXYZ")] = _LABEL_AXES[list(b"ixyz")] = range(4)


def _qubit_count(n_qubits: int) -> int:
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    return int(n_qubits)


def _label_axes(labels: Sequence[str], n_qubits: int) -> np.ndarray:
    """(T, N) uint8 axes of T labels of N characters, one lookup per byte."""
    n_qubits = _qubit_count(n_qubits)
    if not all(isinstance(label, str) for label in labels):
        raise ValueError("pauli labels must be strings")
    if any(len(label) != n_qubits for label in labels):
        raise ValueError("pauli label length does not match n_qubits")
    joined = "".join(labels)
    # a non-ASCII character becomes one "?", so bytes and characters align
    axes = _LABEL_AXES[np.frombuffer(joined.encode("ascii", "replace"), dtype=np.uint8)]
    unknown = np.flatnonzero(axes == 4)
    if unknown.size:
        raise ValueError(f"unknown Pauli axis {joined[unknown[0]]!r}")
    return axes.reshape(len(labels), n_qubits)


@dataclass(frozen=True)
class PauliString:
    """Pauli monomial on ``n_qubits``, stored as a sparse qubit -> axis map.

    Identity factors are never stored; an empty support is the identity
    monomial.  Instances are immutable and hashable.
    """

    n_qubits: int
    support: tuple[tuple[int, PauliAxis], ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        raw = self.support.items() if isinstance(self.support, Mapping) else self.support
        items = []
        for qubit, axis in raw:
            axis = _coerce_axis(axis)
            if axis is PauliAxis.I:
                continue
            if not 0 <= qubit < self.n_qubits:
                raise ValueError(f"qubit {qubit} out of range for {self.n_qubits} qubits")
            items.append((int(qubit), axis))
        items.sort()
        for (q1, _), (q2, _) in zip(items, items[1:]):
            if q1 == q2:
                raise ValueError(f"duplicate qubit {q1} in support")
        object.__setattr__(self, "support", tuple(items))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a label like ``"XIZ"`` (qubit 0 is the leftmost character)."""
        (row,) = _label_axes([label], len(label))
        return cls(len(label), tuple((q, int(a)) for q, a in enumerate(row) if a))

    def to_label(self) -> str:
        chars = ["I"] * self.n_qubits
        for qubit, axis in self.support:
            chars[qubit] = _AXIS_CHARS[axis]
        return "".join(chars)

    @property
    def weight(self) -> int:
        """Number of qubits on which the monomial acts non-trivially."""
        return len(self.support)

    def __repr__(self):
        return f"PauliString({self.to_label()!r})"


class Observable:
    """Real-weighted sum of Pauli strings on a fixed qubit count.

    Its canonical form is the term table ``table``, built once on
    construction: duplicate strings are merged by summing coefficients in
    input order, exact-zero terms are dropped and terms are sorted by
    support.  ``terms`` gives the same terms as ``(coeff, PauliString)``
    pairs, built on first use.  Instances are immutable and hashable.
    """

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliString]] = ()):
        terms = tuple(terms)
        axes = np.zeros((len(terms), _qubit_count(n_qubits)), dtype=np.uint8)
        for row, (_, string) in enumerate(terms):
            if string.n_qubits != n_qubits:
                raise ValueError("all strings must share the observable's qubit count")
            for qubit, axis in string.support:
                axes[row, qubit] = axis
        self._init(n_qubits, axes, [float(c) for c, _ in terms])

    def _init(self, n_qubits: int, axes, coeffs) -> None:
        n_qubits = _qubit_count(n_qubits)
        axes = np.asarray(axes)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if axes.ndim != 2 or axes.shape[1] != n_qubits or coeffs.shape != axes.shape[:1]:
            raise ValueError("need a (terms, n_qubits) axes array and one coefficient per row")
        if axes.size and not 0 <= axes.min() <= axes.max() <= 3:
            raise ValueError("Pauli axes must lie in 0..3")
        table = _canonical_table(axes.astype(np.uint8, copy=False), coeffs)
        self.__dict__.update(n_qubits=n_qubits, table=table)

    @classmethod
    def from_rows(cls, n_qubits: int, axes, coeffs) -> "Observable":
        """Observable from a (T, N) array of axis indices 0..3 (I, X, Y, Z),
        one row per term, and the T coefficients."""
        obs = cls.__new__(cls)
        obs._init(n_qubits, axes, coeffs)
        return obs

    @classmethod
    def from_strings(
        cls, pairs: Iterable[tuple[float, str]], n_qubits: int | None = None
    ) -> "Observable":
        """Observable from ``(coeff, label)`` pairs such as ``(0.5, "XIZ")``;
        ``n_qubits`` defaults to the length of the first label."""
        pairs = list(pairs)
        if n_qubits is None:
            if not pairs:
                raise ValueError("empty observable needs an explicit n_qubits")
            n_qubits = len(pairs[0][1])
        axes = _label_axes([label for _, label in pairs], n_qubits)
        return cls.from_rows(n_qubits, axes, [float(c) for c, _ in pairs])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Observable is immutable")

    @functools.cached_property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """``(coeff, PauliString)`` pairs in canonical order, the identity
        first; built on first use."""
        n, table = self.n_qubits, self.table
        terms = [(table.offset, PauliString(n))] if table.offset else []
        for coeff, row in zip(table.coeffs.tolist(), table.axes):
            qubits = np.flatnonzero(row)
            support = tuple(zip(qubits.tolist(), row[qubits].tolist()))
            terms.append((coeff, PauliString(n, support)))
        return tuple(terms)

    @property
    def n_terms(self) -> int:
        """Number of terms, the identity included."""
        return len(self.table.coeffs) + (self.table.offset != 0.0)

    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        # every term as a row, the identity first with coefficient offset
        # (0.0 when absent: merging adds it exactly)
        table = self.table
        axes = np.concatenate([np.zeros((1, self.n_qubits), dtype=np.uint8), table.axes])
        return axes, np.concatenate([[table.offset], table.coeffs])

    def scaled(self, factor: float) -> "Observable":
        axes, coeffs = self._rows()
        return Observable.from_rows(self.n_qubits, axes, factor * coeffs)

    def __add__(self, other: "Observable") -> "Observable":
        if not isinstance(other, Observable):
            return NotImplemented
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        (axes, coeffs), (axes_b, coeffs_b) = self._rows(), other._rows()
        return Observable.from_rows(
            self.n_qubits, np.concatenate([axes, axes_b]), np.concatenate([coeffs, coeffs_b])
        )

    def __rmul__(self, factor: float) -> "Observable":
        return self.scaled(float(factor))

    def __eq__(self, other):
        if not isinstance(other, Observable):
            return NotImplemented
        a, b = self.table, other.table
        return (
            self.n_qubits == other.n_qubits
            and a.offset == b.offset
            and np.array_equal(a.axes, b.axes)
            and np.array_equal(a.coeffs, b.coeffs)
        )

    def __hash__(self):
        table = self.table
        return hash((self.n_qubits, table.offset, table.axes.tobytes(), table.coeffs.tobytes()))

    def __repr__(self):
        body = " + ".join(f"{c:g}*{p.to_label()}" for c, p in self.terms) or "0"
        return f"Observable({body})"


@dataclass(frozen=True)
class SingleQubitOperator:
    """One-qubit Hermitian operator a0*I + ax*X + ay*Y + az*Z."""

    a0: float = 0.0
    ax: float = 0.0
    ay: float = 0.0
    az: float = 0.0

    def coefficients(self) -> np.ndarray:
        return np.array([self.a0, self.ax, self.ay, self.az])

    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.a0 + self.az, self.ax - 1j * self.ay],
                [self.ax + 1j * self.ay, self.a0 - self.az],
            ]
        )


@dataclass(frozen=True)
class FactoredObservable:
    """Sum of tensor-factored terms, one single-qubit operator per qubit.

    This form avoids the exponential Pauli expansion for product operators
    such as computational-basis projectors.
    """

    n_qubits: int
    terms: tuple[tuple[float, tuple[SingleQubitOperator, ...]], ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for coeff, factors in self.terms:
            if len(factors) != self.n_qubits:
                raise ValueError("each term needs exactly one factor per qubit")
            if not math.isfinite(coeff) or not all(
                math.isfinite(a) for op in factors for a in (op.a0, op.ax, op.ay, op.az)
            ):
                raise ValueError("observable coefficients must be finite")

    def to_observable(self) -> Observable:
        """Distribute the tensor products into an explicit Pauli sum."""
        if self.n_qubits > EXPANSION_QUBIT_CAP:
            raise ValueError(
                f"refusing to expand {self.n_qubits} qubits (cap {EXPANSION_QUBIT_CAP})"
            )
        collected: list[tuple[float, PauliString]] = []
        for coeff, factors in self.terms:
            partial: list[tuple[float, tuple[tuple[int, int], ...]]] = [(coeff, ())]
            for qubit, op in enumerate(factors):
                components = [
                    (float(a), axis) for axis, a in enumerate(op.coefficients()) if a != 0.0
                ]
                grown = []
                for c, axes in partial:
                    for a, axis in components:
                        extended = axes if axis == 0 else axes + ((qubit, axis),)
                        grown.append((c * a, extended))
                partial = grown
            collected.extend(
                (c, PauliString(self.n_qubits, axes)) for c, axes in partial
            )
        return Observable(self.n_qubits, tuple(collected))


def _diag_sum(table: "TermTable") -> np.ndarray:
    """Per-term diagonal contributions 3^r_i * a_i^2."""
    r = (table.axes != 0).sum(axis=1)
    return (3.0**r) * table.coeffs * table.coeffs


# pair compatibility is built for blocks of about this many term pairs
_PAIR_BLOCK = 1 << 15


def _canonical_table(axes: np.ndarray, coeffs: np.ndarray) -> "TermTable":
    """Term table of the rows ``axes`` (T, N) uint8 with ``coeffs`` (T,).

    Equal rows merge into one term whose coefficient is 0.0 plus theirs in
    input order; exact zeros are dropped; terms sort as their supports do as
    tuples of (qubit, axis) pairs, so the identity, if present, comes first
    and becomes the offset.
    """
    n_qubits = axes.shape[1]
    if not len(axes):
        return TermTable(np.zeros((0, n_qubits), dtype=np.uint8), np.zeros(0), 0.0)
    # row codes 4*qubit + axis over the support in qubit order, padded with
    # 0: comparing code rows compares supports.  Big-endian, rows compare as
    # bytes the way they compare as numbers.
    codes = np.where(axes != 0, 4 * np.arange(n_qubits, dtype=np.uint64) + axes, 0)
    support_first = np.argsort(axes == 0, axis=1, kind="stable")
    codes = np.take_along_axis(codes, support_first, axis=1).astype(">u8")
    keys = codes.view(np.dtype((np.void, codes.itemsize * n_qubits))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse.reshape(-1), weights=coeffs)
    if not np.isfinite(sums).all():
        raise ValueError("observable coefficients must be finite")
    keep = sums != 0.0
    axes, sums, offset = axes[first[keep]], sums[keep], 0.0
    if len(axes) and not axes[0].any():
        axes, sums, offset = axes[1:], sums[1:], float(sums[0])
    return TermTable(axes, sums, offset)


class TermTable:
    """Array form of an observable, built once per :class:`Observable`.

    ``axes`` (T, N) uint8 and ``coeffs`` (T,) hold the non-identity terms in
    canonical order, ``offset`` the coefficient of the identity string, and
    ``x``/``z`` the symplectic bit-planes of the terms (Aaronson-Gottesman),
    packed into (T, ceil(N/64)) uint64 words: X sets x, Z sets z, Y sets both.
    All arrays are read only.
    """

    def __init__(self, axes: np.ndarray, coeffs: np.ndarray, offset: float):
        n_qubits = axes.shape[1]
        bits = np.zeros((2, len(axes), 64 * -(-n_qubits // 64)), dtype=bool)
        bits[0, :, :n_qubits] = (axes == PauliAxis.X) | (axes == PauliAxis.Y)
        bits[1, :, :n_qubits] = axes >= PauliAxis.Y
        self.axes, self.coeffs, self.offset = axes, coeffs, offset
        self.x, self.z = np.packbits(bits, axis=2, bitorder="little").view(np.uint64)
        for arr in (self.axes, self.coeffs, self.x, self.z):
            arr.setflags(write=False)

    @functools.cached_property
    def seminorm(self) -> float:
        """See :func:`seminorm`; computed once per table."""
        t, n = self.axes.shape
        if t < 2:  # no pairs
            return math.sqrt(float(np.sum(_diag_sum(self))))
        coeffs = np.abs(self.coeffs)
        # word-major planes: the blocks below are (words, rows, later terms)
        x, z = self.x.T, self.z.T
        nonzero = x | z
        pow3 = 3.0 ** np.arange(n + 1)
        rows = max(1, _PAIR_BLOCK // max(t, 1))
        off = 0.0
        for start in range(0, t - 1, rows):
            stop = min(start + rows, t - 1)
            block, later = slice(start, stop), slice(start + 1, t)
            both = nonzero[:, block, None] & nonzero[:, None, later]
            clash = x[:, block, None] ^ x[:, None, later]
            clash |= z[:, block, None] ^ z[:, None, later]
            compat = ~(clash & both).any(axis=0)
            r = np.bitwise_count(both).sum(axis=0, dtype=np.intp)
            values = compat * pow3[r] * coeffs[later]
            # row i's later terms j > i start at column i - start
            for i in range(start, stop):
                off += coeffs[i] * float(values[i - start, i - start :].sum())
        return math.sqrt(float(np.sum(_diag_sum(self))) + 2.0 * off)


def seminorm(obs: Observable) -> float:
    """Pairwise-compatibility seminorm: sqrt of the sum over all ordered
    non-identity term pairs of 3^r_ij * delta_ij * |a_i||a_j|.

    This is the proven bound on the per-snapshot standard deviation of the
    estimator; exact pair enumeration, O(T^2 N) for T terms, computed once
    per observable.  The diagonal part is accumulated exactly as in
    :func:`seminorm2` and the off-diagonal part is a sum of non-negatives,
    so the hierarchy seminorm2 <= seminorm holds even in floating point.
    """
    return obs.table.seminorm


def seminorm2(obs: Observable) -> float:
    """Diagonal seminorm sqrt(sum 3^r_i a_i^2); the practical error scale."""
    return math.sqrt(float(np.sum(_diag_sum(obs.table))))


def seminorm1(obs: Observable) -> float:
    """Triangle seminorm sum 3^(r_i/2) |a_i|; weakest of the three bounds.

    Each term is evaluated as sqrt(3^r_i * a_i^2) so that a single-term
    observable reproduces :func:`seminorm` bit for bit.
    """
    return float(np.sum(np.sqrt(_diag_sum(obs.table))))


def shot_budget(obs: Observable, epsilon: float) -> int:
    """Snapshots needed to push the std bound below ``epsilon``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, math.ceil((seminorm(obs) / epsilon) ** 2))


def normalize_to_unit_seminorm(obs: Observable, which: str = "seminorm") -> Observable:
    """Rescale so the chosen seminorm ("seminorm" or "seminorm2") equals 1."""
    norm = {"seminorm": seminorm, "seminorm2": seminorm2}[which](obs)
    if norm == 0.0:
        raise ValueError("cannot normalize an observable with zero seminorm")
    return obs.scaled(1.0 / norm)


def projector_factored(bits: Sequence[int]) -> FactoredObservable:
    """Computational-basis projector |x><x| as a tensor product of
    (I + Z)/2 for bit 0 and (I - Z)/2 for bit 1."""
    factors = tuple(
        SingleQubitOperator(a0=0.5, az=0.5 if bit == 0 else -0.5) for bit in bits
    )
    if not factors:
        raise ValueError("empty bitstring")
    return FactoredObservable(len(bits), ((1.0, factors),))


def projector_pauli_expansion(bits: Sequence[int]) -> Observable:
    """Explicit 2^N-term {I,Z} expansion of a basis projector.

    Exists for brute-force seminorm cross-checks only; use the factored form
    for estimation.
    """
    n = len(bits)
    if n > EXPANSION_QUBIT_CAP:
        raise ValueError(f"refusing to expand {n} qubits (cap {EXPANSION_QUBIT_CAP})")
    ones = sum(int(b) << k for k, b in enumerate(bits))
    scale = 0.5**n
    terms = []
    for sub in range(1 << n):
        sign = -1.0 if (sub & ones).bit_count() & 1 else 1.0
        support = tuple((k, PauliAxis.Z) for k in range(n) if (sub >> k) & 1)
        terms.append((sign * scale, PauliString(n, support)))
    return Observable(n, tuple(terms))


def projector_seminorms(n_qubits: int) -> tuple[float, float, float]:
    """Closed forms (seminorm, seminorm2, seminorm1) of any basis projector.

    The per-qubit factorization of the pair sums telescopes the binomial
    sums: seminorm^2 = (3/2)^N - 2/2^N + 1/4^N, seminorm2^2 = 1 - 4^-N,
    seminorm1 = ((1 + sqrt 3)^N - 1)/2^N.  Cross-checked against the brute
    force expansion in the tests.
    """
    n = n_qubits
    bound = math.sqrt(1.5**n - 2.0 * 0.5**n + 0.25**n)
    two = math.sqrt(1.0 - 0.25**n)
    one = ((1.0 + math.sqrt(3.0)) ** n - 1.0) * 0.5**n
    return bound, two, one


def factored_seminorms(fobs: FactoredObservable) -> tuple[float, float]:
    """(seminorm, seminorm2) of the Pauli expansion of a factored observable.

    A single-term product form factorizes exactly per qubit at any width;
    multi-term forms fall back to the explicit expansion (capped), since
    coinciding strings from different terms must merge before squaring.
    """
    if len(fobs.terms) == 1:
        coeff, factors = fobs.terms[0]
        full = ident_row = ident_pair = diag = 1.0
        for op in factors:
            s = abs(op.ax) + abs(op.ay) + abs(op.az)
            v2 = op.ax**2 + op.ay**2 + op.az**2
            a0 = abs(op.a0)
            full *= a0 * a0 + 2.0 * a0 * s + 3.0 * v2
            ident_row *= a0 * (a0 + s)
            ident_pair *= a0 * a0
            diag *= a0 * a0 + 3.0 * v2
        c2 = coeff * coeff
        return (
            math.sqrt(c2 * (full - 2.0 * ident_row + ident_pair)),
            math.sqrt(c2 * (diag - ident_pair)),
        )
    expanded = fobs.to_observable()
    return seminorm(expanded), seminorm2(expanded)


# --- file format ------------------------------------------------------------
#
# Pauli-sum observables:
#   { "n_qubits": N, "terms": [ {"coeff": f, "pauli": "XIZ..."} ] }
# Factored observables:
#   { "n_qubits": N, "terms": [ {"coeff": f, "factors": [[a0,ax,ay,az], ...]} ] }


def observable_to_dict(obs: Observable) -> dict:
    return {
        "n_qubits": obs.n_qubits,
        "terms": [{"coeff": c, "pauli": p.to_label()} for c, p in obs.terms],
    }


def observable_from_dict(data: dict) -> Observable:
    try:
        n = int(data["n_qubits"])
        coeffs = [float(t["coeff"]) for t in data["terms"]]
        labels = [t["pauli"] for t in data["terms"]]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed observable data: {exc}") from exc
    return Observable.from_rows(n, _label_axes(labels, n), coeffs)


def factored_to_dict(fobs: FactoredObservable) -> dict:
    return {
        "n_qubits": fobs.n_qubits,
        "terms": [
            {"coeff": c, "factors": [list(op.coefficients()) for op in factors]}
            for c, factors in fobs.terms
        ],
    }


def factored_from_dict(data: dict) -> FactoredObservable:
    try:
        n = int(data["n_qubits"])
        terms = tuple(
            (
                float(t["coeff"]),
                tuple(SingleQubitOperator(*map(float, f)) for f in t["factors"]),
            )
            for t in data["terms"]
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed factored observable data: {exc}") from exc
    return FactoredObservable(n, terms)


def save_observable(obs: Observable | FactoredObservable, path) -> None:
    data = (
        factored_to_dict(obs)
        if isinstance(obs, FactoredObservable)
        else observable_to_dict(obs)
    )
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_observable(path, factored: bool = False) -> Observable | FactoredObservable:
    with open(path) as fh:
        data = json.load(fh)
    return factored_from_dict(data) if factored else observable_from_dict(data)
