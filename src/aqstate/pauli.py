"""Observables as arrays, Pauli sums and tensor-factored sums, and the
seminorms that bound the statistical error of snapshot-based estimation.

Conventions: axis indices 0..3 are I, X, Y, Z; an observable is a real
linear combination of Pauli strings; the identity string never contributes
to any seminorm.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PauliString",
    "Observable",
    "FactoredObservable",
    "seminorm",
    "seminorm2",
    "seminorm1",
    "shot_budget",
    "normalize_to_unit_seminorm",
    "projector_factored",
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


# axis of each label byte: I, X, Y, Z in either case; 4 marks any other byte
_LABEL_AXES = np.full(256, 4, dtype=np.uint8)
_LABEL_AXES[list(b"IXYZ")] = _LABEL_AXES[list(b"ixyz")] = range(4)
# label byte of each axis
_AXIS_BYTES = np.frombuffer(b"IXYZ", dtype=np.uint8)


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


def _labels(axes: np.ndarray) -> list[str]:
    """Labels of the rows of a (T, N) axes array, such as ``"XIZ"``."""
    text, n = _AXIS_BYTES[axes].tobytes().decode(), axes.shape[1]
    return [text[i : i + n] for i in range(0, len(text), n)]


def _frozen(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")


class PauliString:
    """One term row: ``axes``, a read-only (N,) uint8 array of axis indices
    0..3 (I, X, Y, Z) on qubits 0..N-1.  Instances are immutable and
    hashable."""

    def __init__(self, axes):
        axes = np.array(axes, dtype=np.uint8)
        if axes.ndim != 1 or not axes.size or axes.max() > 3:
            raise ValueError("a Pauli string is a non-empty row of axes 0..3")
        axes.setflags(write=False)
        self.__dict__["axes"] = axes

    __setattr__ = _frozen

    @property
    def n_qubits(self) -> int:
        return len(self.axes)

    @property
    def weight(self) -> int:
        """Number of qubits on which the monomial acts non-trivially."""
        return int(np.count_nonzero(self.axes))

    def __eq__(self, other):
        if not isinstance(other, PauliString):
            return NotImplemented
        return np.array_equal(self.axes, other.axes)

    def __hash__(self):
        return hash(self.axes.tobytes())

    def __repr__(self):
        return f"PauliString({_labels(self.axes[None])[0]!r})"


class Observable:
    """Real-weighted sum of Pauli strings on a fixed qubit count, stored as
    its term table.

    Construction puts the terms in canonical form: duplicate strings are
    merged by summing coefficients in input order, exact-zero terms are
    dropped and terms are sorted by support.  ``offset`` is the coefficient
    of the identity string; the other terms are the rows of ``axes``
    (T, N) uint8, axis indices 1..3 for X, Y, Z and 0 for I, with
    coefficients ``coeffs`` (T,).  ``x``/``z`` are the symplectic bit-planes
    of those rows (Aaronson-Gottesman), packed into (T, ceil(N/64)) uint64
    words: X sets x, Z sets z, Y sets both.  ``terms`` gives the same terms
    as ``(coeff, PauliString)`` pairs, built on first use.  Instances and
    their arrays are immutable; instances are hashable.
    """

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliString]] = ()):
        terms = tuple(terms)
        if any(string.n_qubits != n_qubits for _, string in terms):
            raise ValueError("all strings must share the observable's qubit count")
        axes = np.array([string.axes for _, string in terms], dtype=np.uint8)
        axes = axes.reshape(len(terms), _qubit_count(n_qubits))
        self._init(n_qubits, axes, [float(c) for c, _ in terms])

    def _init(self, n_qubits: int, axes, coeffs) -> None:
        n_qubits = _qubit_count(n_qubits)
        axes = np.asarray(axes)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if axes.ndim != 2 or axes.shape[1] != n_qubits or coeffs.shape != axes.shape[:1]:
            raise ValueError("need a (terms, n_qubits) axes array and one coefficient per row")
        if axes.size and not 0 <= axes.min() <= axes.max() <= 3:
            raise ValueError("Pauli axes must lie in 0..3")
        axes, coeffs, offset = _canonical_rows(axes.astype(np.uint8, copy=False), coeffs)
        bits = np.zeros((2, len(axes), 64 * -(-n_qubits // 64)), dtype=bool)
        bits[0, :, :n_qubits] = (axes == 1) | (axes == 2)  # X, Y
        bits[1, :, :n_qubits] = axes >= 2  # Y, Z
        x, z = np.packbits(bits, axis=2, bitorder="little").view(np.uint64)
        for arr in (axes, coeffs, x, z):
            arr.setflags(write=False)
        self.__dict__.update(n_qubits=n_qubits, axes=axes, coeffs=coeffs, offset=offset, x=x, z=z)

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

    __setattr__ = _frozen

    @functools.cached_property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """``(coeff, PauliString)`` pairs in canonical order, the identity
        first; built on first use."""
        axes, coeffs = self.rows()
        return tuple(zip(coeffs.tolist(), map(PauliString, axes)))

    @property
    def n_terms(self) -> int:
        """Number of terms, the identity included."""
        return len(self.coeffs) + (self.offset != 0.0)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every term as a row of axes with its coefficient, in the order of
        ``terms``: the identity first (an all-zero row), if present."""
        if not self.offset:
            return self.axes, self.coeffs
        identity = np.zeros((1, self.n_qubits), dtype=np.uint8)
        return np.concatenate([identity, self.axes]), np.concatenate([[self.offset], self.coeffs])

    @functools.cached_property
    def _seminorm(self) -> float:
        """See :func:`seminorm`; computed once per observable."""
        t, n = self.axes.shape
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

    def scaled(self, factor: float) -> "Observable":
        axes, coeffs = self.rows()
        return Observable.from_rows(self.n_qubits, axes, factor * coeffs)

    def __eq__(self, other):
        if not isinstance(other, Observable):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self.offset == other.offset
            and np.array_equal(self.axes, other.axes)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.n_qubits, self.offset, self.axes.tobytes(), self.coeffs.tobytes()))

    def __repr__(self):
        axes, coeffs = self.rows()
        body = " + ".join(f"{c:g}*{p}" for c, p in zip(coeffs.tolist(), _labels(axes))) or "0"
        return f"Observable({body})"


class FactoredObservable:
    """Sum of tensor-factored terms: term k is ``coeffs[k]`` times the tensor
    product over qubits q of a0*I + ax*X + ay*Y + az*Z, where
    ``factors[k, q]`` is the row [a0, ax, ay, az], as in the file format.

    This form avoids the exponential Pauli expansion for product operators
    such as computational-basis projectors.  ``coeffs`` (K,) and ``factors``
    (K, N, 4) are read-only float64 arrays; instances are immutable.
    """

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, Sequence[Sequence[float]]]]):
        n_qubits = _qubit_count(n_qubits)
        terms = tuple(terms)
        coeffs = np.array([float(c) for c, _ in terms])
        tables = [np.asarray(table, dtype=np.float64) for _, table in terms]
        if any(table.shape != (n_qubits, 4) for table in tables):
            raise ValueError("each term needs one [a0, ax, ay, az] row per qubit")
        factors = np.array(tables).reshape(len(tables), n_qubits, 4)
        if not (np.isfinite(coeffs).all() and np.isfinite(factors).all()):
            raise ValueError("observable coefficients must be finite")
        for arr in (coeffs, factors):
            arr.setflags(write=False)
        self.__dict__.update(n_qubits=n_qubits, coeffs=coeffs, factors=factors)

    __setattr__ = _frozen

    @property
    def terms(self) -> tuple[tuple[float, np.ndarray], ...]:
        """``(coeff, factors)`` pairs, one per term, with its (N, 4) table."""
        return tuple(zip(self.coeffs.tolist(), self.factors))

    def to_observable(self) -> Observable:
        """Distribute the tensor products into an explicit Pauli sum.

        Each term expands qubit by qubit into the products of its factors'
        non-zero components, qubit 0 varying slowest; the expansions of all
        terms are then merged in term order.
        """
        if self.n_qubits > EXPANSION_QUBIT_CAP:
            raise ValueError(
                f"refusing to expand {self.n_qubits} qubits (cap {EXPANSION_QUBIT_CAP})"
            )
        all_axes, all_coeffs = [np.zeros((0, self.n_qubits), dtype=np.uint8)], [np.zeros(0)]
        for coeff, table in self.terms:
            axes, coeffs = np.zeros((1, 0), dtype=np.uint8), np.array([coeff])
            for parts in table:
                (nonzero,) = np.nonzero(parts)
                coeffs = (coeffs[:, None] * parts[nonzero]).reshape(-1)
                axes = np.column_stack(
                    [np.repeat(axes, len(nonzero), axis=0), np.tile(nonzero, len(axes))]
                )
            all_axes.append(axes)
            all_coeffs.append(coeffs)
        return Observable.from_rows(
            self.n_qubits, np.concatenate(all_axes), np.concatenate(all_coeffs)
        )


def _diag_sum(obs: Observable) -> np.ndarray:
    """Per-term diagonal contributions 3^r_i * a_i^2."""
    r = (obs.axes != 0).sum(axis=1)
    return (3.0**r) * obs.coeffs * obs.coeffs


# pair compatibility is built for blocks of about this many term pairs
_PAIR_BLOCK = 1 << 15


def _canonical_rows(
    axes: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Canonical (axes, coeffs, offset) of the rows ``axes`` (T, N) uint8
    with ``coeffs`` (T,).

    Equal rows merge into one term whose coefficient is 0.0 plus theirs in
    input order; exact zeros are dropped; terms sort as their supports do as
    tuples of (qubit, axis) pairs, so the identity, if present, comes first
    and becomes the offset.
    """
    n_qubits = axes.shape[1]
    if not len(axes):
        return np.zeros((0, n_qubits), dtype=np.uint8), np.zeros(0), 0.0
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
    return axes, sums, offset


def seminorm(obs: Observable) -> float:
    """Pairwise-compatibility seminorm: sqrt of the sum over all ordered
    non-identity term pairs of 3^r_ij * delta_ij * |a_i||a_j|.

    This is the proven bound on the per-snapshot standard deviation of the
    estimator; exact pair enumeration, O(T^2 N) for T terms, computed once
    per observable.  The diagonal part is accumulated exactly as in
    :func:`seminorm2` and the off-diagonal part is a sum of non-negatives,
    so the hierarchy seminorm2 <= seminorm holds even in floating point.
    """
    return obs._seminorm


def seminorm2(obs: Observable) -> float:
    """Diagonal seminorm sqrt(sum 3^r_i a_i^2); the practical error scale."""
    return math.sqrt(float(np.sum(_diag_sum(obs))))


def seminorm1(obs: Observable) -> float:
    """Triangle seminorm sum 3^(r_i/2) |a_i|; weakest of the three bounds.

    Each term is evaluated as sqrt(3^r_i * a_i^2) so that a single-term
    observable reproduces :func:`seminorm` bit for bit.
    """
    return float(np.sum(np.sqrt(_diag_sum(obs))))


def shot_budget(obs: Observable, epsilon: float) -> int:
    """Snapshots needed to push the std bound below ``epsilon``, a finite
    positive number."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")
    try:
        return max(1, math.ceil((seminorm(obs) / epsilon) ** 2))
    except OverflowError:
        raise ValueError(f"the shot budget for epsilon {epsilon} overflows a float") from None


def normalize_to_unit_seminorm(obs: Observable, which: str = "seminorm") -> Observable:
    """Rescale so the chosen seminorm ("seminorm" or "seminorm2") equals 1."""
    norm = {"seminorm": seminorm, "seminorm2": seminorm2}[which](obs)
    if norm == 0.0:
        raise ValueError("cannot normalize an observable with zero seminorm")
    return obs.scaled(1.0 / norm)


def projector_factored(bits: Sequence[int]) -> FactoredObservable:
    """Computational-basis projector |x><x| as a tensor product of
    (I + Z)/2 for bit 0 and (I - Z)/2 for bit 1."""
    table = [[0.5, 0.0, 0.0, 0.5 if bit == 0 else -0.5] for bit in bits]
    if not table:
        raise ValueError("empty bitstring")
    return FactoredObservable(len(table), ((1.0, table),))


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
    if len(fobs.coeffs) == 1:
        (coeff,), (table,) = fobs.coeffs.tolist(), fobs.factors.tolist()
        full = ident_row = ident_pair = diag = 1.0
        for a0, ax, ay, az in table:
            s = abs(ax) + abs(ay) + abs(az)
            v2 = ax**2 + ay**2 + az**2
            a0 = abs(a0)
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
    axes, coeffs = obs.rows()
    return {
        "n_qubits": obs.n_qubits,
        "terms": [{"coeff": c, "pauli": p} for c, p in zip(coeffs.tolist(), _labels(axes))],
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
            {"coeff": c, "factors": table}
            for c, table in zip(fobs.coeffs.tolist(), fobs.factors.tolist())
        ],
    }


def factored_from_dict(data: dict) -> FactoredObservable:
    try:
        n = int(data["n_qubits"])
        return FactoredObservable(n, [(t["coeff"], t["factors"]) for t in data["terms"]])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed factored observable data: {exc}") from exc


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
