"""Estimator functions over an approximate state: Pauli sums,
tensor-factored observables, tiny-N density reconstruction, and
readout-attenuation predictions.

Every estimate is a plain snapshot average of the per-snapshot estimator
value; the returned error fields are the seminorm bound and the diagonal
seminorm approximation, both divided by sqrt(M), and the sample spread of
the per-snapshot values over sqrt(M).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .pauli import (
    FactoredObservable,
    Observable,
    _number,
    factored_seminorms,
    seminorm,
    seminorm2,
)
from .snapshots import ApproximateState, _flip_probabilities
from .statevector import _SINGLE_QUBIT_MATRICES, _on_two_threads

__all__ = [
    "EstimateResult",
    "snapshot_values",
    "estimate_observable",
    "estimate_factored",
    "reconstruct_density",
    "predict_attenuated",
]

DENSITY_QUBIT_CAP = 3


@dataclass(frozen=True)
class EstimateResult:
    """Estimate with its error scales: ``std_bound`` is the proven bound
    seminorm/sqrt(M), ``std_approx`` the diagonal-seminorm approximation and
    ``std_empirical`` what the data showed, the sample standard deviation of
    the per-snapshot values over sqrt(M) (None for a single snapshot)."""

    value: float
    std_bound: float
    std_approx: float
    n_snapshots: int
    std_empirical: float | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.value, self.std_bound, self.std_empirical or 0.0))):
            raise ValueError("the estimate or its error scale is not finite: coefficients too large")
        if self.std_approx > self.std_bound + 1e-12:
            raise ValueError("std_approx cannot exceed std_bound")

    @classmethod
    def from_values(cls, values: np.ndarray, seminorms: tuple) -> "EstimateResult":
        """Snapshot average of per-snapshot values (a pairwise sum), with the
        (seminorm, seminorm2) pair ``seminorms`` scaled to error fields."""
        m = len(values)
        root_m = math.sqrt(m)
        spread = float(np.std(values, ddof=1)) / root_m if m > 1 else None
        return cls(_snapshot_mean(values), seminorms[0] / root_m, seminorms[1] / root_m, m, spread)


def _snapshot_mean(values: np.ndarray) -> float:
    """The estimate from per-snapshot values: their pairwise sum over their count."""
    return float(np.sum(values)) / len(values)


# snapshots per chunk of the weight table: about 1 ms of trig at N = 12
_CHUNK = 1024


def _table_rows(table: np.ndarray, state: ApproximateState, rows: slice) -> None:
    scale = 3.0 * state.outcomes[rows]
    sin_t = np.sin(state.thetas[rows])
    table[:, 1, rows] = (np.cos(state.phis[rows]) * sin_t * scale).T
    table[:, 2, rows] = (np.sin(state.phis[rows]) * sin_t * scale).T
    table[:, 3, rows] = (np.cos(state.thetas[rows]) * scale).T


def _weight_table(state: ApproximateState) -> np.ndarray:
    """Single-qubit estimator values, shape (N, 4, M): entry (q, a, j) is 1
    for a = I and 3*m*n_a for a = X, Y, Z on qubit q of snapshot j.  Beyond
    one chunk, the caller and one helper thread take chunks from one iterator
    (``statevector._on_two_threads``); a table of one chunk starts no thread.
    Entries are elementwise: any split, same bits."""
    table = np.empty((state.n_qubits, 4, state.n_snapshots))
    table[:, 0] = 1.0
    _on_two_threads(
        range(0, state.n_snapshots, _CHUNK),
        lambda start, slot: _table_rows(table, state, slice(start, start + _CHUNK)),
        state.n_snapshots > _CHUNK,
    )
    return table


def _pauli_values(weights: np.ndarray, obs: Observable) -> np.ndarray:
    m = weights.shape[2]
    values = np.full(m, obs.offset)
    # term by term, in ascending qubit order; skipping a qubit skips an exact factor of 1
    table = list(weights.reshape(-1, m))  # row 4q + a is weights[q, a]
    product = np.empty(m)
    for axes, coeff in zip(obs.axes.tolist(), obs.coeffs.tolist()):
        factors = [table[4 * q + a] for q, a in enumerate(axes) if a]
        np.multiply(factors[0], factors[1] if len(factors) > 1 else 1.0, out=product)
        for row in factors[2:]:
            product *= row
        product *= coeff
        values += product
    return values


def _factored_values(weights: np.ndarray, fobs: FactoredObservable) -> np.ndarray:
    values = np.zeros(weights.shape[2])
    for coeff, table in zip(fobs.coeffs.tolist(), fobs.factors):
        values += coeff * np.prod(np.einsum("kaj,ka->kj", weights, table), axis=0)
    return values


def snapshot_values(state: ApproximateState, observables: list) -> list[np.ndarray]:
    """Per-snapshot estimator values, shape (M,), of each Pauli-sum or
    factored observable; the weight table is built once for all of them, by
    this thread and, beyond one chunk of snapshots, one helper thread that
    ends before the call returns.  The estimate from the first m snapshots is
    the mean of the first m values.
    """
    for n in {obs.n_qubits for obs in observables} - {state.n_qubits}:
        raise ValueError(f"observable acts on {n} qubits, snapshots on {state.n_qubits}")
    weights = _weight_table(state)
    return [
        _factored_values(weights, obs) if isinstance(obs, FactoredObservable)
        else _pauli_values(weights, obs)
        for obs in observables
    ]


def estimate_observable(state: ApproximateState, obs: Observable) -> EstimateResult:
    """Estimate <O> for a Pauli-sum observable; a single Pauli string is a
    one-term observable, whose error scale is 3^(r/2)/sqrt(M) at weight r.
    The pair-sum seminorm is cached with the observable."""
    (values,) = snapshot_values(state, [obs])
    return EstimateResult.from_values(values, (seminorm(obs), seminorm2(obs)))


def estimate_factored(state: ApproximateState, fobs: FactoredObservable) -> EstimateResult:
    """Estimate a tensor-factored observable via per-qubit estimator products.

    This is the path for computational-basis projectors: cost O(M*N) per
    term, with no Pauli expansion.
    """
    (values,) = snapshot_values(state, [fobs])
    return EstimateResult.from_values(values, factored_seminorms(fobs))


def reconstruct_density(state: ApproximateState) -> np.ndarray:
    """Average of the tensor-product kernels: the 2^N x 2^N matrix whose
    expectation is the true density operator.

    Snapshot j's kernel on qubit q is 1/2 sum_a w[q, a, j] sigma_a over the
    weight table, so the average is 2^-N times the sum over the 4^N Pauli
    strings of each string's estimate times the string.  Exists only to
    verify the tomographic identity at tiny N; estimation never needs it.
    """
    n = state.n_qubits
    if n > DENSITY_QUBIT_CAP:
        raise ValueError(f"density reconstruction capped at {DENSITY_QUBIT_CAP} qubits")
    # qubit 0 is the least-significant index bit, so it is the rightmost
    # factor: entry k of ``index`` is the axis on qubit n-1-k
    indices = list(np.ndindex((4,) * n))
    strings = [Observable.from_rows(n, [index[::-1]], [1.0]) for index in indices]
    sigma = [np.eye(2)] + [_SINGLE_QUBIT_MATRICES[axis] for axis in "XYZ"]
    total = sum(
        _snapshot_mean(values) * functools.reduce(np.kron, [sigma[a] for a in index])
        for index, values in zip(indices, snapshot_values(state, strings))
    )
    return total / 2**n


def predict_attenuated(
    obs: Observable, exact_terms: list[float] | np.ndarray, p_err: float
) -> float:
    """Predicted noisy estimate: each term's expectation, given in canonical
    order with the identity first, is attenuated by (1 - 2*p_err)^weight."""
    if len(exact_terms) != obs.n_terms:
        raise ValueError("need one exact expectation per observable term")
    _flip_probabilities(p_err := _number("p_err", p_err), 1)
    damp = 1.0 - 2.0 * p_err
    axes, coeffs = obs.rows()
    weights = np.count_nonzero(axes, axis=1).tolist()
    return math.fsum(
        coeff * damp**weight * value
        for coeff, weight, value in zip(coeffs.tolist(), weights, exact_terms)
    )
