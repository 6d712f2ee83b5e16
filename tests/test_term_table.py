"""The array term table and the numerics that read it.

The reference functions below are test-only copies of the earlier per-term
formulas: a compensated ``math.fsum`` average per term, and a Python loop
over the rows of the pair sum.  The vectorized estimators must agree with
the first to 1e-12 of the absolute term scale, and the seminorms must equal
the second bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from aqstate import estimator
from aqstate.estimator import EstimateResult, estimate_observable, snapshot_values
from aqstate.harness import random_observable
from aqstate.pauli import (
    FactoredObservable,
    Observable,
    PauliString,
    SingleQubitOperator,
    projector_factored,
    seminorm,
    seminorm1,
    seminorm2,
)
from aqstate.snapshots import ApproximateState, snapshots_from_state
from aqstate.statevector import haar_random_state, random_prep_circuit, run_circuit


def reference_weights(state):
    sin_t = np.sin(state.thetas)
    w = np.empty(state.outcomes.shape + (3,))
    w[..., 0] = np.cos(state.phis) * sin_t
    w[..., 1] = np.sin(state.phis) * sin_t
    w[..., 2] = np.cos(state.thetas)
    w *= 3.0 * state.outcomes[..., None]
    return w


def reference_string_values(w, string):
    qubits = np.array([q for q, _ in string.support])
    axes = np.array([int(a) - 1 for _, a in string.support])
    if qubits.size == 1:
        return w[:, qubits[0], axes[0]]
    return np.prod(w[:, qubits, axes], axis=1)


def reference_mean(values):
    return math.fsum(values.tolist()) / len(values)


def reference_estimate(state, obs):
    w = reference_weights(state)
    parts = [
        coeff if string.weight == 0 else coeff * reference_mean(reference_string_values(w, string))
        for coeff, string in obs.terms
    ]
    return math.fsum(parts)


def reference_factored(state, fobs):
    w = reference_weights(state)
    parts = []
    for coeff, factors in fobs.terms:
        bias = np.array([op.a0 for op in factors])
        pauli = np.array([[op.ax, op.ay, op.az] for op in factors])
        per_qubit = bias[None, :] + np.einsum("jka,ka->jk", w, pauli)
        parts.append(coeff * reference_mean(np.prod(per_qubit, axis=1)))
    return math.fsum(parts)


def reference_seminorms(obs):
    """(seminorm, seminorm2, seminorm1) by the row loop."""
    rows = [(string, coeff) for coeff, string in obs.terms if string.weight > 0]
    if not rows:
        return 0.0, 0.0, 0.0
    axes = np.zeros((len(rows), obs.n_qubits), dtype=np.uint8)
    for row, (string, _) in enumerate(rows):
        for qubit, axis in string.support:
            axes[row, qubit] = axis
    signed = np.array([coeff for _, coeff in rows])

    def diag(coeffs):
        r = (axes != 0).sum(axis=1)
        return (3.0**r) * coeffs * coeffs

    coeffs = np.abs(signed)
    nonzero = axes != 0
    off = 0.0
    for i in range(axes.shape[0] - 1):
        later_axes = axes[i + 1 :]
        both = nonzero[i] & nonzero[i + 1 :]
        compat = ~((both & (axes[i] != later_axes)).any(axis=1))
        r = both.sum(axis=1)
        off += coeffs[i] * float(np.sum(compat * (3.0**r) * coeffs[i + 1 :]))
    return (
        math.sqrt(float(np.sum(diag(coeffs))) + 2.0 * off),
        math.sqrt(float(np.sum(diag(signed)))),
        float(np.sum(np.sqrt(diag(signed)))),
    )


def signed_observable(n, n_terms, rng, identity=0.0):
    """Random signed Pauli sum; one term acts on every qubit."""
    rows = rng.integers(0, 4, size=(n_terms, n))
    rows[0] = rng.integers(1, 4, size=n)
    coeffs = [float(rng.uniform(-1, 1)) for _ in rows] + [identity]  # a zero identity drops out
    return Observable.from_rows(n, np.vstack([rows, np.zeros((1, n), dtype=int)]), coeffs)


def noisy_state(n, m, rng, seed):
    psi = haar_random_state(n, rng) if n <= 8 else run_circuit(random_prep_circuit(n, rng))
    return snapshots_from_state(psi, m, seed, 0.05)


class TestTermTable:
    # an Observable is its term table: axes, coeffs, offset and x/z planes
    def test_layout(self):
        obs = Observable.from_strings([(0.5, "XIZ"), (-0.25, "III"), (2.0, "IYY")])
        assert obs.axes.dtype == np.uint8 and obs.axes.shape == (2, 3)
        # canonical order sorts by support: XIZ before IYY
        assert obs.axes.tolist() == [[1, 0, 3], [0, 2, 2]]
        assert obs.coeffs.tolist() == [0.5, 2.0]
        assert obs.offset == -0.25
        assert obs.x.dtype == np.uint64 and obs.x.shape == (2, 1)
        assert obs.x[:, 0].tolist() == [0b001, 0b110]
        assert obs.z[:, 0].tolist() == [0b100, 0b110]
        # rows in the order of terms: the identity first
        axes, coeffs = obs.rows()
        assert axes.tolist() == [[0, 0, 0], [1, 0, 3], [0, 2, 2]]
        assert coeffs.tolist() == [c for c, _ in obs.terms] == [-0.25, 0.5, 2.0]

    def test_multi_word_planes(self):
        n = 130
        obs = Observable(n, ((1.0, PauliString(n, ((0, "X"), (64, "Y"), (129, "Z")))),))
        assert obs.x.shape == (1, 3)
        assert obs.x[0].tolist() == [1, 1, 0]
        assert obs.z[0].tolist() == [0, 1, 1 << 1]

    def test_built_once_and_read_only(self):
        obs = Observable.from_strings([(1.0, "XY")])
        for name in ("axes", "coeffs", "x", "z"):
            assert not getattr(obs, name).flags.writeable
        with pytest.raises(AttributeError):
            obs.offset = 1.0
        assert seminorm(obs) is seminorm(obs)  # cached with the observable
        assert obs == Observable.from_strings([(1.0, "XY")])
        assert hash(obs) == hash(Observable.from_strings([(1.0, "XY")]))

    def test_empty(self):
        obs = Observable.from_strings([(3.0, "II")])
        assert obs.axes.shape == (0, 2) and obs.x.shape == (0, 1)
        assert obs.offset == 3.0
        assert Observable(2).offset == 0.0


class TestEstimatesMatchFsum:
    def test_term_products_are_bit_identical(self):
        rng = np.random.default_rng(101)
        for n in (1, 5, 12):
            state = noisy_state(n, 400, rng, seed=n)
            w = reference_weights(state)
            obs = signed_observable(n, 30, rng)
            for _, string in obs.terms:
                if string.weight == 0:
                    continue
                one = Observable(n, ((1.0, string),))
                (values,) = snapshot_values(state, [one])
                assert np.array_equal(values, reference_string_values(w, string))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pauli_sums(self, n):
        rng = np.random.default_rng(200 + n)
        state = noisy_state(n, 2_000, rng, seed=n)
        w = reference_weights(state)
        for n_terms in (1, 7, 40):
            obs = signed_observable(n, n_terms, rng, identity=float(rng.uniform(-1, 1)))
            scale = sum(
                abs(c) * float(np.mean(np.abs(reference_string_values(w, s)))) if s.weight else abs(c)
                for c, s in obs.terms
            )
            got = estimate_observable(state, obs).value
            assert abs(got - reference_estimate(state, obs)) <= 1e-12 * scale

    def test_factored(self):
        rng = np.random.default_rng(300)
        for n in (1, 3, 8, 12):
            state = noisy_state(n, 2_000, rng, seed=n)
            w = reference_weights(state)
            bits = [int(b) for b in rng.integers(0, 2, n)]
            general = FactoredObservable(n, tuple(
                (float(rng.uniform(-2, 2)),
                 tuple(SingleQubitOperator(*rng.uniform(-1, 1, 4)) for _ in range(n)))
                for _ in range(3)
            ))
            for fobs in (projector_factored(bits), general):
                scale = 0.0
                for coeff, factors in fobs.terms:
                    bias = np.array([op.a0 for op in factors])
                    pauli = np.array([[op.ax, op.ay, op.az] for op in factors])
                    per_qubit = bias[None, :] + np.einsum("jka,ka->jk", w, pauli)
                    scale += abs(coeff) * float(np.mean(np.abs(np.prod(per_qubit, axis=1))))
                # values, not estimate_factored: the seminorms of a multi-term
                # form would expand it to 4^N strings
                (values,) = snapshot_values(state, [fobs])
                got = EstimateResult.from_values(values, (0.0, 0.0), n).value
                assert abs(got - reference_factored(state, fobs)) <= 1e-12 * scale


class TestSeminormsAreBitIdentical:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 25, 65, 130])
    def test_random_observables(self, n):
        rng = np.random.default_rng(400 + n)
        for n_terms in (1, 2, 17, 100, 300) * 8:
            obs = random_observable(n, n_terms, rng, normalization="none")
            assert (seminorm(obs), seminorm2(obs), seminorm1(obs)) == reference_seminorms(obs)

    def test_sparse_overlapping_terms(self):
        # low weight on a wide register: many compatible and clashing pairs
        rng = np.random.default_rng(499)
        for n in (65, 130):
            terms = []
            for _ in range(200):
                qubits = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
                support = tuple((int(q), int(rng.integers(1, 4))) for q in qubits)
                terms.append((float(rng.uniform(-1, 1)), PauliString(n, support)))
            obs = Observable(n, tuple(terms))
            assert (seminorm(obs), seminorm2(obs), seminorm1(obs)) == reference_seminorms(obs)


class TestBlocks:
    def test_values_do_not_depend_on_block_size(self, monkeypatch):
        # terms are summed one by one, so a prefix state (whose blocks hold
        # more terms) gives the same values as the full state
        rng = np.random.default_rng(450)
        state = noisy_state(6, 300, rng, seed=4)
        obs = signed_observable(6, 50, rng, identity=0.3)
        (reference,) = snapshot_values(state, [obs])
        for block_bytes in (1, 8 * 300 * 3, 8 * 300 * 7):
            monkeypatch.setattr(estimator, "_BLOCK_BYTES", block_bytes)
            (values,) = snapshot_values(state, [obs])
            assert np.array_equal(values, reference)


class TestEstimationMemory:
    def test_peak_does_not_grow_with_terms(self):
        rng = np.random.default_rng(500)
        n, m = 12, 10_000
        state = ApproximateState(
            rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n)),
            np.arccos(rng.uniform(-1, 1, size=(m, n))),
            rng.uniform(0, 2 * math.pi, size=(m, n)),
        )
        peaks = {}
        for n_terms in (20, 2000):
            obs = random_observable(n, n_terms, rng, normalization="none")
            tracemalloc.start()
            estimate_observable(state, obs)
            peaks[n_terms] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert abs(peaks[2000] - peaks[20]) <= 1 << 20, peaks
