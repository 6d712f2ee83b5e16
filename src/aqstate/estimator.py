"""Estimator functions over an approximate state: Pauli sums,
tensor-factored observables, tiny-N density reconstruction, and
readout-attenuation predictions.

Every estimate is a plain snapshot average of the per-snapshot estimator
value; the returned error fields are the seminorm bound and the diagonal
seminorm approximation, both divided by sqrt(M), and the sample spread of
the per-snapshot values over sqrt(M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import (
    FactoredObservable,
    Observable,
    factored_seminorms,
    seminorm,
    seminorm2,
)
from .snapshots import ApproximateState

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
    n_qubits: int
    std_empirical: float | None = None

    def __post_init__(self):
        if self.std_approx > self.std_bound + 1e-12:
            raise ValueError("std_approx cannot exceed std_bound")

    @classmethod
    def from_values(cls, values: np.ndarray, seminorms: tuple, n_qubits: int) -> "EstimateResult":
        """Snapshot average of per-snapshot values (a pairwise sum), with the
        (seminorm, seminorm2) pair ``seminorms`` scaled to error fields."""
        m = len(values)
        root_m = math.sqrt(m)
        spread = float(np.std(values, ddof=1)) / root_m if m > 1 else None
        mean = float(np.sum(values)) / m
        return cls(mean, seminorms[0] / root_m, seminorms[1] / root_m, m, n_qubits, spread)


# terms whose per-snapshot products fill this many bytes are evaluated at once
_BLOCK_BYTES = 1 << 20


def _weight_table(state: ApproximateState) -> np.ndarray:
    """Single-qubit estimator values, shape (N, 4, M): entry (q, a, j) is 1
    for a = I and 3*m*n_a for a = X, Y, Z on qubit q of snapshot j."""
    scale = 3.0 * state.outcomes
    sin_t = np.sin(state.thetas)
    table = np.empty((state.n_qubits, 4, state.n_snapshots))
    table[:, 0] = 1.0
    table[:, 1] = (np.cos(state.phis) * sin_t * scale).T
    table[:, 2] = (np.sin(state.phis) * sin_t * scale).T
    table[:, 3] = (np.cos(state.thetas) * scale).T
    return table


def _pauli_values(weights: np.ndarray, obs: Observable) -> np.ndarray:
    m = weights.shape[2]
    values = np.full(m, obs.offset)
    rows = max(1, _BLOCK_BYTES // (8 * m))
    for start in range(0, len(obs.coeffs), rows):
        axes = obs.axes[start : start + rows]
        # ascending qubit order; skipping a qubit skips an exact factor of 1
        active = np.flatnonzero(axes.any(axis=0))
        block = weights[active[0]][axes[:, active[0]]]
        for q in active[1:]:
            block *= weights[q][axes[:, q]]
        block *= obs.coeffs[start : start + rows, None]
        for row in block:  # term by term: the sum does not depend on the blocks
            values += row
    return values


def _factored_values(weights: np.ndarray, fobs: FactoredObservable) -> np.ndarray:
    values = np.zeros(weights.shape[2])
    for coeff, factors in fobs.terms:
        ops = np.array([op.coefficients() for op in factors])
        values += coeff * np.prod(np.einsum("kaj,ka->kj", weights, ops), axis=0)
    return values


def snapshot_values(state: ApproximateState, observables: list) -> list[np.ndarray]:
    """Per-snapshot estimator values, shape (M,), of each Pauli-sum or
    factored observable; the weight table is built once for all of them.
    The estimate from the first m snapshots is the mean of the first m values.
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
    return EstimateResult.from_values(values, (seminorm(obs), seminorm2(obs)), state.n_qubits)


def estimate_factored(state: ApproximateState, fobs: FactoredObservable) -> EstimateResult:
    """Estimate a tensor-factored observable via per-qubit estimator products.

    This is the path for computational-basis projectors: cost O(M*N) per
    term, with no Pauli expansion.
    """
    (values,) = snapshot_values(state, [fobs])
    return EstimateResult.from_values(values, factored_seminorms(fobs), state.n_qubits)


def reconstruct_density(state: ApproximateState) -> np.ndarray:
    """Average of the tensor-product kernels: the 2^N x 2^N matrix whose
    expectation is the true density operator.

    Exists only to verify the tomographic identity at tiny N; estimation
    never needs it.
    """
    n = state.n_qubits
    if n > DENSITY_QUBIT_CAP:
        raise ValueError(f"density reconstruction capped at {DENSITY_QUBIT_CAP} qubits")
    m = state.n_snapshots
    sin_t = np.sin(state.thetas)
    nx = np.cos(state.phis) * sin_t
    ny = np.sin(state.phis) * sin_t
    nz = np.cos(state.thetas)
    f = 1.5 * state.outcomes
    kernels = np.empty((m, n, 2, 2), dtype=complex)
    kernels[..., 0, 0] = 0.5 + f * nz
    kernels[..., 0, 1] = f * (nx - 1j * ny)
    kernels[..., 1, 0] = f * (nx + 1j * ny)
    kernels[..., 1, 1] = 0.5 - f * nz
    # qubit 0 is the least-significant index bit, so it is the rightmost
    # factor of the matrix tensor product
    subscripts = {
        1: "jab->ab",
        2: "jab,jcd->acbd",
        3: "jab,jcd,jef->acebdf",
    }[n]
    operands = [kernels[:, k] for k in reversed(range(n))]
    total = np.zeros((2**n, 2**n), dtype=complex)
    chunk = 10_000
    for start in range(0, m, chunk):
        parts = [op[start : start + chunk] for op in operands]
        total += np.einsum(subscripts, *parts).reshape(2**n, 2**n)
    return total / m


def predict_attenuated(
    obs: Observable, exact_terms: list[float] | np.ndarray, p_err: float
) -> float:
    """Predicted noisy estimate: each term's expectation, given in canonical
    order with the identity first, is attenuated by (1 - 2*p_err)^weight."""
    if len(exact_terms) != obs.n_terms:
        raise ValueError("need one exact expectation per observable term")
    damp = 1.0 - 2.0 * p_err
    axes, coeffs = obs.rows()
    weights = np.count_nonzero(axes, axis=1).tolist()
    return math.fsum(
        coeff * damp**weight * value
        for coeff, weight, value in zip(coeffs.tolist(), weights, exact_terms)
    )
