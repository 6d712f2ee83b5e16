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

# explicit Pauli expansions of factored observables stop at this many terms,
# counted before merging: the O(T^2) pair sum of a factored seminorm takes
# about 1.6 s at 2^14 terms on a 2-core VM, and 4x as long per doubling
EXPANSION_TERM_CAP = 1 << 14


# axis of each label byte: I, X, Y, Z in either case; 4 marks any other byte
_LABEL_AXES = np.full(256, 4, dtype=np.uint8)
_LABEL_AXES[list(b"IXYZ")] = _LABEL_AXES[list(b"ixyz")] = range(4)
# label byte of each axis
_AXIS_BYTES = np.frombuffer(b"IXYZ", dtype=np.uint8)


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int if it is a Python or NumPy integer, not a bool,
    and at least ``low`` and at most ``high`` where given; else ValueError."""
    if np.dtype(type(value)).kind not in "iu":
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low or high is not None and value > high:
        if high is None:
            raise ValueError(f"{name} must be at least {low}, got {value}")
        raise ValueError(f"{name} {value} is outside {low}..{high}")
    return value


def _number(name: str, value) -> int | float:
    """``value`` as a Python number if it passes ``_numeric``'s entry test; else ValueError."""
    if np.dtype(type(value)).kind not in "iuf":
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _numeric(name: str, values, kinds: str = "iuf") -> np.ndarray:
    """``values`` as an array whose dtype kind is one of ``kinds``: signed or
    unsigned integers, and floats or complexes where it holds "f" or "c"; else
    ValueError.  An ndarray costs one dtype check.  Anything else, such as a
    list, has the dtype kind of each entry's type checked (NumPy reads a bool
    among floats as 0 or 1) and becomes an int64, float64 or complex128 array."""
    noun = "numbers" if "f" in kinds else "integers"
    if not isinstance(values, np.ndarray):
        try:  # nested as deep as the lists are regular; a list below that is an entry
            entries = np.array(values, dtype=object)
        except ValueError:  # arrays of unequal shapes
            raise ValueError(f"{name} must be {noun}, got a ragged list") from None
        for kind in dict.fromkeys(map(type, entries.ravel().tolist())):  # in entry order
            if np.dtype(kind).kind not in kinds:
                raise ValueError(f"{name} must be {noun}, got a {kind.__name__}")
        try:  # where floats are allowed, an integer beyond int64 becomes a float
            values = entries.astype("c16" if "c" in kinds else "f8" if "f" in kinds else "i8")
        except OverflowError:
            raise ValueError(f"{name} must be {noun}, got an integer out of range") from None
    if values.dtype.kind not in kinds:
        raise ValueError(f"{name} must be {noun}, got an array of {values.dtype}")
    return values


def _label_axes(labels: Sequence[str], n_qubits: int) -> np.ndarray:
    """(T, N) uint8 axes of T labels of N characters, one lookup per byte."""
    n_qubits = _integer("n_qubits", n_qubits, 1)
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


def _planes(axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic bit-planes (x, z) of the rows of ``axes`` (T, N), each
    packed into (T, ceil(N/64)) uint64 words with bit q for qubit q: X and Y
    set x, Y and Z set z (Aaronson-Gottesman)."""
    t, n = axes.shape
    bits = np.zeros((2, t, 64 * -(-n // 64)), dtype=bool)
    bits[0, :, :n] = (axes == 1) | (axes == 2)
    bits[1, :, :n] = axes >= 2
    x, z = np.packbits(bits, axis=2, bitorder="little").view(np.uint64)
    return x, z


def _frozen(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")


class PauliString:
    """One term row: ``axes``, a read-only (N,) uint8 array of axis indices
    0..3 (I, X, Y, Z) on qubits 0..N-1.  Instances are immutable.  Only the
    benchmark reads these, through ``Observable.terms``; they go with the
    term views (ROADMAP item 7)."""

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


class Observable:
    """Real-weighted sum of Pauli strings on a fixed qubit count, stored as
    its term table.

    Construction puts the terms in canonical form: duplicate strings are
    merged by summing coefficients in input order, exact-zero terms are
    dropped and terms are sorted by support.  ``offset`` is the coefficient
    of the identity string; the other terms are the rows of ``axes``
    (T, N) uint8, axis indices 1..3 for X, Y, Z and 0 for I, with
    coefficients ``coeffs`` (T,).  Instances and their arrays are
    immutable; instances are hashable.  The term-pair constructor and
    ``terms`` serve only the benchmark and go with ROADMAP item 7.
    """

    def __init__(self, n_qubits: int, terms: Iterable[tuple[float, PauliString]] = ()):
        terms = tuple(terms)
        if any(string.n_qubits != n_qubits for _, string in terms):
            raise ValueError("all strings must share the observable's qubit count")
        axes = np.array([string.axes for _, string in terms], dtype=np.uint8)
        axes = axes.reshape(len(terms), _integer("n_qubits", n_qubits, 1))
        self._init(n_qubits, axes, [c for c, _ in terms])

    def _init(self, n_qubits: int, axes, coeffs) -> None:
        n_qubits = _integer("n_qubits", n_qubits, 1)
        axes = _numeric("Pauli axes", axes, "iu")
        coeffs = _numeric("observable coefficients", coeffs).astype(np.float64)
        if axes.ndim != 2 or axes.shape[1] != n_qubits or coeffs.shape != axes.shape[:1]:
            raise ValueError("need a (terms, n_qubits) axes array and one coefficient per row")
        if axes.size and not 0 <= axes.min() <= axes.max() <= 3:
            raise ValueError("Pauli axes must lie in 0..3")
        axes, coeffs, offset = _canonical_rows(axes.astype(np.uint8, copy=False), coeffs)
        for arr in (axes, coeffs):
            arr.setflags(write=False)
        self.__dict__.update(n_qubits=n_qubits, axes=axes, coeffs=coeffs, offset=offset)

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
        return cls.from_rows(n_qubits, axes, [c for c, _ in pairs])

    __setattr__ = _frozen

    @functools.cached_property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        """``(coeff, PauliString)`` pairs in the order of :meth:`rows`, built
        on first use; read only by the benchmark (ROADMAP item 7)."""
        axes, coeffs = self.rows()
        return tuple(zip(coeffs.tolist(), map(PauliString, axes)))

    @property
    def n_terms(self) -> int:
        """Number of terms, the identity included."""
        return len(self.coeffs) + (self.offset != 0.0)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every term as a row of axes with its coefficient, in canonical
        order: the identity first (an all-zero row), if present."""
        if not self.offset:
            return self.axes, self.coeffs
        identity = np.zeros((1, self.n_qubits), dtype=np.uint8)
        return np.concatenate([identity, self.axes]), np.concatenate([[self.offset], self.coeffs])

    @functools.cached_property
    def _seminorm(self) -> float:
        """See :func:`seminorm`; computed once per observable."""
        (t, n), coeffs = self.axes.shape, np.abs(self.coeffs)
        x, z = _planes(self.axes)
        if 2 * n <= 64:
            # one key word per term, x in the low n bits and z above, in the
            # smallest type that holds 2n bits; the support mask covers both
            # halves, so its popcount counts each shared qubit twice
            word, up, halve = f"u{max(8, 1 << (2 * n - 1).bit_length()) // 8}", np.uint64(n), 1
            keys = (x | z << up).astype(word).T[:, None]
            masks = (x | z | (x | z) << up).astype(word).T
        else:  # the x and z words of each 64 qubits share one support mask
            keys, masks, halve = np.stack([x.T, z.T], axis=1), (x | z).T.copy(), 0
        # r is at most the largest term weight, which unlike n bounds the table
        pow3 = 3.0 ** np.arange(np.count_nonzero(self.axes, axis=1).max(initial=0) + 1)
        rows = max(1, min(t, _PAIR_BLOCK // max(t, 1)))
        size, (later, rises, steps) = rows * t, _pair_layout(rows)
        both, diff = np.empty((len(masks), size), masks.dtype), np.empty(size, masks.dtype)
        count = np.empty(size, np.uint8 if n < 256 else np.intp)  # r <= n
        rank, values, sums = np.empty(size, np.intp), np.empty(size), []
        for start in range(0, t - 1, rows):
            # rows start..stop-1 against terms start..t-1; row i's segment is
            # its diagonal, left 0.0 as if incompatible, then its pairs j > i
            stop = min(start + rows, t - 1)
            (k, w), lo, hi = (stop - start, t - start), slice(start, stop), slice(start, t)
            compat, d = True, diff[: k * w].reshape(k, w)
            for mask, word_keys, b in zip(masks, keys, both):
                b = np.bitwise_and(mask[lo, None], mask[None, hi], out=b[: k * w].reshape(k, w))
                for key in word_keys:
                    np.bitwise_xor(key[lo, None], key[None, hi], out=d)
                    d &= b
                    compat = compat & (d == 0)
            compat[:, :k] &= later[:k, :k]
            r = np.bitwise_count(both[0, : k * w], out=count[: k * w])
            for b in both[1:, : k * w]:
                r += np.bitwise_count(b)
            r >>= halve
            block = values[: k * w]
            if 4 * np.count_nonzero(compat) < k * w:  # look 3^r up at the compatible pairs
                pairs = np.flatnonzero(compat)
                block.fill(0.0)
                block[pairs] = pow3[r.take(pairs).astype(np.intp)]
            else:  # mostly compatible: one lookup over the block, then the mask
                rank[: k * w] = r
                np.multiply(np.take(pow3, rank[: k * w], out=block), compat.reshape(-1), out=block)
            np.multiply(block.reshape(k, w), coeffs[hi], out=block.reshape(k, w))
            bounds = rises[: 2 * k - 1] * w + steps[: 2 * k - 1]
            sums.append(np.add.reduceat(block, bounds)[::2])
        # the rows' sums times a_i, added one after another in row order
        off = np.add.accumulate(coeffs[: t - 1] * np.concatenate(sums))[-1] if sums else 0.0
        return math.sqrt(float(np.sum(_diag_sum(self))) + 2.0 * float(off))

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
        n_qubits = _integer("n_qubits", n_qubits, 1)
        terms = tuple(terms)
        coeffs = _numeric("observable coefficients", [c for c, _ in terms])
        factors = _numeric("factor entries", [table for _, table in terms])
        if terms and factors.shape != (len(terms), n_qubits, 4):
            raise ValueError("each term needs one [a0, ax, ay, az] row per qubit")
        if coeffs.shape != (len(terms),):
            raise ValueError("each term needs one number as its coefficient")
        factors = factors.reshape(len(terms), n_qubits, 4)
        if not (np.isfinite(coeffs).all() and np.isfinite(factors).all()):
            raise ValueError("observable coefficients must be finite")
        for arr in (coeffs, factors):
            arr.setflags(write=False)
        self.__dict__.update(n_qubits=n_qubits, coeffs=coeffs, factors=factors)

    __setattr__ = _frozen

    @property
    def terms(self) -> tuple[tuple[float, np.ndarray], ...]:
        """``(coeff, factors)`` pairs, one per term, with its (N, 4) table;
        read only by the benchmark (ROADMAP item 7)."""
        return tuple(zip(self.coeffs.tolist(), self.factors))

    def to_observable(self) -> Observable:
        """Distribute the tensor products into an explicit Pauli sum.

        Each term expands qubit by qubit into the products of its factors'
        non-zero components, qubit 0 varying slowest; the expansions of all
        terms are then merged in term order.  Refused before anything is built
        above ``EXPANSION_TERM_CAP`` terms, counted as sum_k prod_q nnz(factors[k, q]).
        """
        n_terms = sum(map(math.prod, np.count_nonzero(self.factors, axis=2).tolist()))
        if n_terms > EXPANSION_TERM_CAP:
            raise ValueError(
                f"refusing to expand {n_terms} Pauli terms (cap {EXPANSION_TERM_CAP})"
            )
        all_axes, all_coeffs = [np.zeros((0, self.n_qubits), dtype=np.uint8)], [np.zeros(0)]
        for coeff, table in zip(self.coeffs.tolist(), self.factors):
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


@functools.lru_cache(maxsize=8)
def _pair_layout(rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For blocks of up to ``rows`` rows: which of the first ``rows`` columns
    lie right of each row's diagonal, and a, b whose ``a * w + b`` for w
    columns are the reduceat bounds i (w + 1), (i + 1) w, ...: each row from
    its diagonal to its end, then the gap to the next row's diagonal."""
    step = np.arange(2 * rows - 1)
    layout = ~np.tri(rows, dtype=bool), (step + 1) // 2, np.where(step % 2, 0, step // 2)
    for array in layout:  # shared by every caller
        array.setflags(write=False)
    return layout


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
    norms = {"seminorm": seminorm, "seminorm2": seminorm2}
    if which not in norms:
        raise ValueError(f"normalization must be one of {tuple(norms)}, got {which!r}")
    norm = norms[which](obs)
    if norm == 0.0:
        raise ValueError("cannot normalize an observable with zero seminorm")
    return obs.scaled(1.0 / norm)


def projector_factored(bits: Sequence[int]) -> FactoredObservable:
    """Computational-basis projector |x><x| as a tensor product of
    (I + Z)/2 for bit 0 and (I - Z)/2 for bit 1."""
    table = [[0.5, 0.0, 0.0, 0.5 if _integer("bit", bit, 0, 1) == 0 else -0.5] for bit in bits]
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
    multi-term forms fall back to the explicit expansion, since coinciding
    strings from different terms must merge before squaring, and so to its
    cap (see :meth:`FactoredObservable.to_observable`).
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
        n, terms = data["n_qubits"], data["terms"]
        axes = _label_axes([t["pauli"] for t in terms], n)
        return Observable.from_rows(n, axes, [t["coeff"] for t in terms])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed observable data: {exc}") from exc


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
        terms = [(t["coeff"], t["factors"]) for t in data["terms"]]
        return FactoredObservable(data["n_qubits"], terms)
    except (KeyError, TypeError) as exc:
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


def _read_json(path):
    """The JSON value in the file at ``path``, the one reader of every JSON
    input; ValueError for a file nested too deeply for the parser."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_observable(path, factored: bool = False) -> Observable | FactoredObservable:
    data = _read_json(path)
    return factored_from_dict(data) if factored else observable_from_dict(data)
