"""The array term table and the numerics that read it.

The reference functions below are test-only copies of the earlier per-term
formulas: a compensated ``math.fsum`` average per term, and a Python loop
over the rows of the pair sum.  The vectorized estimators must agree with
the first to 1e-12 of the absolute term scale, and the seminorms must equal
the second bit for bit.  Per-snapshot values must equal a term-by-term loop
(``reference_pauli_values``) bit for bit.
"""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from aqstate import estimator, pauli
from aqstate.estimator import EstimateResult, estimate_observable, snapshot_values
from aqstate.harness import random_observable
from aqstate.pauli import (
    FactoredObservable,
    Observable,
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


def reference_string_values(w, row):
    (qubits,) = np.nonzero(row)
    axes = row[qubits].astype(int) - 1
    if qubits.size == 1:
        return w[:, qubits[0], axes[0]]
    return np.prod(w[:, qubits, axes], axis=1)


def reference_mean(values):
    return math.fsum(values.tolist()) / len(values)


def reference_estimate(state, axes, coeffs):
    """Estimate of the term rows ``axes`` (T, N) with ``coeffs`` (T,)."""
    w = reference_weights(state)
    parts = [
        coeff if not row.any() else coeff * reference_mean(reference_string_values(w, row))
        for row, coeff in zip(axes, coeffs.tolist())
    ]
    return math.fsum(parts)


def reference_factored(state, fobs):
    w = reference_weights(state)
    parts = []
    for coeff, table in zip(fobs.coeffs.tolist(), fobs.factors):
        per_qubit = table[None, :, 0] + np.einsum("jka,ka->jk", w, table[:, 1:])
        parts.append(coeff * reference_mean(np.prod(per_qubit, axis=1)))
    return math.fsum(parts)


def reference_seminorms(axes, coeffs):
    """(seminorm, seminorm2, seminorm1) of the term rows ``axes`` (T, N)
    with ``coeffs`` (T,) by the row loop; the identity row adds nothing."""
    weighted = axes.any(axis=1)
    axes, signed = axes[weighted], np.asarray(coeffs, dtype=np.float64)[weighted]
    if not len(axes):
        return 0.0, 0.0, 0.0

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


def reference_pauli_values(w, obs):
    """Per-snapshot values: each term's product over its support in ascending
    qubit order, times its coefficient, added term by term after the offset."""
    values = np.full(w.shape[0], obs.offset)
    for row, coeff in zip(obs.axes, obs.coeffs):
        (qubits,) = np.nonzero(row)
        product = w[:, qubits[0], row[qubits[0]] - 1].copy()
        for q in qubits[1:]:
            product *= w[:, q, row[q] - 1]
        values += product * coeff
    return values


def random_snapshots(n, m, rng):
    """Snapshots with uniformly random outcomes and directions."""
    return ApproximateState(
        rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n)),
        np.arccos(rng.uniform(-1, 1, size=(m, n))),
        rng.uniform(0, 2 * math.pi, size=(m, n)),
    )


def signed_observable(n, n_terms, rng, identity=0.0):
    """Random signed Pauli sum; one term acts on every qubit."""
    rows = rng.integers(0, 4, size=(n_terms, n))
    rows[0] = rng.integers(1, 4, size=n)
    coeffs = [float(rng.uniform(-1, 1)) for _ in rows] + [identity]  # a zero identity drops out
    return Observable.from_rows(n, np.vstack([rows, np.zeros((1, n), dtype=int)]), coeffs)


def low_weight_rows(n, n_terms, rng):
    """Pauli rows with one or two random non-identity axes each."""
    rows = np.zeros((n_terms, n), dtype=int)
    for row in rows:
        support = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
        row[support] = rng.integers(1, 4, size=len(support))
    return rows


def noisy_state(n, m, rng, seed):
    psi = haar_random_state(n, rng) if n <= 8 else run_circuit(random_prep_circuit(n, rng))
    return snapshots_from_state(psi, m, seed, 0.05)


class TestTermTable:
    # an Observable is its term table: axes, coeffs and offset; _planes
    # packs the rows' x/z bit masks
    def test_layout(self):
        obs = Observable.from_strings([(0.5, "XIZ"), (-0.25, "III"), (2.0, "IYY")])
        assert obs.axes.dtype == np.uint8 and obs.axes.shape == (2, 3)
        # canonical order sorts by support: XIZ before IYY
        assert obs.axes.tolist() == [[1, 0, 3], [0, 2, 2]]
        assert obs.coeffs.tolist() == [0.5, 2.0]
        assert obs.offset == -0.25
        x, z = pauli._planes(obs.axes)
        assert x.dtype == z.dtype == np.uint64 and x.shape == z.shape == (2, 1)
        assert x[:, 0].tolist() == [0b001, 0b110]
        assert z[:, 0].tolist() == [0b100, 0b110]
        # rows in the order of terms: the identity first
        axes, coeffs = obs.rows()
        assert axes.tolist() == [[0, 0, 0], [1, 0, 3], [0, 2, 2]]
        assert coeffs.tolist() == [obs.offset, *obs.coeffs.tolist()] == [-0.25, 0.5, 2.0]

    def test_multi_word_planes(self):
        n = 130
        row = np.zeros(n, dtype=np.uint8)
        row[[0, 64, 129]] = 1, 2, 3  # X, Y, Z
        obs = Observable.from_rows(n, [row], [1.0])
        x, z = pauli._planes(obs.axes)
        assert x.shape == (1, 3)
        assert x[0].tolist() == [1, 1, 0]
        assert z[0].tolist() == [0, 1, 1 << 1]

    def test_built_once_and_read_only(self):
        obs = Observable.from_strings([(1.0, "XY")])
        for name in ("axes", "coeffs"):
            assert not getattr(obs, name).flags.writeable
        assert not hasattr(obs, "x") and not hasattr(obs, "z")
        with pytest.raises(AttributeError):
            obs.offset = 1.0
        assert seminorm(obs) is seminorm(obs)  # cached with the observable
        assert obs == Observable.from_strings([(1.0, "XY")])
        assert hash(obs) == hash(Observable.from_strings([(1.0, "XY")]))

    def test_empty(self):
        obs = Observable.from_strings([(3.0, "II")])
        assert obs.axes.shape == (0, 2) and pauli._planes(obs.axes)[0].shape == (0, 1)
        assert obs.offset == 3.0
        assert Observable.from_strings([], 2).offset == 0.0


class TestEstimatesMatchFsum:
    def test_term_products_are_bit_identical(self):
        rng = np.random.default_rng(101)
        for n in (1, 5, 12):
            state = noisy_state(n, 400, rng, seed=n)
            w = reference_weights(state)
            obs = signed_observable(n, 30, rng)
            for row in obs.axes:
                one = Observable.from_rows(n, [row], [1.0])
                (values,) = snapshot_values(state, [one])
                assert np.array_equal(values, reference_string_values(w, row))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pauli_sums(self, n):
        rng = np.random.default_rng(200 + n)
        state = noisy_state(n, 2_000, rng, seed=n)
        w = reference_weights(state)
        for n_terms in (1, 7, 40):
            obs = signed_observable(n, n_terms, rng, identity=float(rng.uniform(-1, 1)))
            axes, coeffs = obs.rows()
            scale = sum(
                abs(c) * float(np.mean(np.abs(reference_string_values(w, s)))) if s.any() else abs(c)
                for s, c in zip(axes, coeffs.tolist())
            )
            got = estimate_observable(state, obs).value
            assert abs(got - reference_estimate(state, axes, coeffs)) <= 1e-12 * scale

    def test_factored(self):
        rng = np.random.default_rng(300)
        for n in (1, 3, 8, 12):
            state = noisy_state(n, 2_000, rng, seed=n)
            w = reference_weights(state)
            bits = [int(b) for b in rng.integers(0, 2, n)]
            general = FactoredObservable(n, tuple(
                (float(rng.uniform(-2, 2)), rng.uniform(-1, 1, (n, 4))) for _ in range(3)
            ))
            for fobs in (projector_factored(bits), general):
                scale = 0.0
                for coeff, table in zip(fobs.coeffs.tolist(), fobs.factors):
                    per_qubit = table[None, :, 0] + np.einsum("jka,ka->jk", w, table[:, 1:])
                    scale += abs(coeff) * float(np.mean(np.abs(np.prod(per_qubit, axis=1))))
                # values, not estimate_factored: the seminorms of a multi-term
                # form would expand it to 4^N strings
                (values,) = snapshot_values(state, [fobs])
                got = EstimateResult.from_values(values, (0.0, 0.0)).value
                assert abs(got - reference_factored(state, fobs)) <= 1e-12 * scale


class TestSeminormsAreBitIdentical:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 25, 65, 130])
    def test_random_observables(self, n):
        rng = np.random.default_rng(400 + n)
        for n_terms in (1, 2, 17, 100, 300) * 8:
            obs = random_observable(n, n_terms, rng, normalization="none")
            assert (seminorm(obs), seminorm2(obs), seminorm1(obs)) == reference_seminorms(*obs.rows())

    def test_sparse_overlapping_terms(self):
        # low weight on a wide register: many compatible and clashing pairs
        rng = np.random.default_rng(499)
        for n in (65, 130):
            rows, coeffs = [], []
            for _ in range(200):
                qubits = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
                row = np.zeros(n, dtype=np.uint8)
                for q in qubits:
                    row[q] = rng.integers(1, 4)
                rows.append(row)
                coeffs.append(float(rng.uniform(-1, 1)))
            obs = Observable.from_rows(n, rows, coeffs)
            assert (seminorm(obs), seminorm2(obs), seminorm1(obs)) == reference_seminorms(*obs.rows())


def reference_table(state):
    """The weight table from whole-array expressions, in one thread."""
    table = np.empty((state.n_qubits, 4, state.n_snapshots))
    table[:, 0] = 1.0
    table[:, 1:] = reference_weights(state).transpose(1, 2, 0)
    return table


class TestChunkedTable:
    # the caller and one helper fill the table in chunks of _CHUNK snapshots

    def chunk_starts(self, monkeypatch, chunk):
        """Patch the chunk size; record the thread and start of each chunk filled."""
        monkeypatch.setattr(estimator, "_CHUNK", chunk)
        filled, fill = [], estimator._table_rows

        def recorded(table, state, rows):
            filled.append((threading.current_thread(), rows.start))
            fill(table, state, rows)

        monkeypatch.setattr(estimator, "_table_rows", recorded)
        return filled

    @pytest.mark.parametrize("chunk", [3, 7, estimator._CHUNK])
    def test_bytes_match_serial_reference(self, monkeypatch, chunk):
        rng = np.random.default_rng(460)
        filled = self.chunk_starts(monkeypatch, chunk)
        for m in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            state = random_snapshots(5, m, rng)
            filled.clear()
            table = estimator._weight_table(state)
            assert table.tobytes() == reference_table(state).tobytes()
            assert sorted(start for _, start in filled) == list(range(0, state.n_snapshots, chunk))

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise RuntimeError("thread started")

        monkeypatch.setattr(estimator, "_CHUNK", 7)
        monkeypatch.setattr(threading, "Thread", no_thread)
        rng = np.random.default_rng(461)
        for m in (1, 6, 7):
            estimator._weight_table(random_snapshots(4, m, rng))
        with pytest.raises(RuntimeError, match="thread started"):
            estimator._weight_table(random_snapshots(4, 8, rng))

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        state = random_snapshots(12, 4 * estimator._CHUNK + 1, np.random.default_rng(462))
        table = estimator._weight_table(state)
        assert threading.active_count() == before
        assert table.tobytes() == reference_table(state).tobytes()

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # the caller's first chunk waits until the helper has raised in its own
        monkeypatch.setattr(estimator, "_CHUNK", 5)
        caller, helper_failed, fill = threading.current_thread(), threading.Event(), estimator._table_rows

        def failing_on_helper(table, state, rows):
            if threading.current_thread() is not caller:
                helper_failed.set()
                raise RuntimeError("chunk failed on the helper")
            assert helper_failed.wait(10)
            fill(table, state, rows)

        monkeypatch.setattr(estimator, "_table_rows", failing_on_helper)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed on the helper"):
            estimator._weight_table(random_snapshots(3, 40, np.random.default_rng(463)))
        assert threading.active_count() == before

    def test_caller_error_stops_the_helper(self, monkeypatch):
        # the caller fails on its first chunk once the helper has filled one;
        # the helper then starts at most the chunk it may have taken before
        # the caller drained the starts, not the rest of the table
        monkeypatch.setattr(estimator, "_CHUNK", 5)
        caller, fill = threading.current_thread(), estimator._table_rows
        helper_filled, caller_failed, late = threading.Event(), threading.Event(), []

        def failing_on_caller(table, state, rows):
            if threading.current_thread() is caller:
                assert helper_filled.wait(10)
                caller_failed.set()
                raise RuntimeError("chunk failed on the caller")
            if caller_failed.is_set():
                late.append(rows.start)
            fill(table, state, rows)
            helper_filled.set()
            time.sleep(1e-3)  # lets the caller take a chunk

        monkeypatch.setattr(estimator, "_table_rows", failing_on_caller)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed on the caller"):
            estimator._weight_table(random_snapshots(3, 400, np.random.default_rng(466)))
        assert threading.active_count() == before
        assert len(late) <= 1, late

    def test_caller_fills_every_chunk_of_a_late_helper(self, monkeypatch):
        # a helper that gets no core until the caller is done takes no chunk
        class LateThread(threading.Thread):
            def run(self):
                time.sleep(0.2)
                super().run()

        filled = self.chunk_starts(monkeypatch, 4)
        monkeypatch.setattr(threading, "Thread", LateThread)
        state = random_snapshots(3, 4 * 10 + 1, np.random.default_rng(464))
        began = time.perf_counter()
        table = estimator._weight_table(state)
        assert time.perf_counter() - began < 10
        assert [start for _, start in filled] == list(range(0, 41, 4))
        assert {thread for thread, _ in filled} == {threading.current_thread()}
        assert table.tobytes() == reference_table(state).tobytes()

    def test_concurrent_calls_fill_each_chunk_once(self, monkeypatch):
        # three callers and their helpers on two cores, switching threads
        # every microsecond: a chunk lost or taken twice shows in the starts
        filled = self.chunk_starts(monkeypatch, 3)
        states = [random_snapshots(4, 200, np.random.default_rng(465 + k)) for k in range(3)]
        tables = [None] * 3

        def build(k):
            tables[k] = estimator._weight_table(states[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=build, args=(k,)) for k in range(3)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(start for _, start in filled) == sorted(list(range(0, 200, 3)) * 3)
        for state, table in zip(states, tables):
            assert table.tobytes() == reference_table(state).tobytes()


class TestPauliValues:
    # every term is multiplied in place over its own support, for any M:
    # random terms (weight 3n/4) and terms of weight 1-2 give the reference's
    # bits, with an identity row (the offset) and duplicate rows
    @pytest.mark.parametrize("n", [6, 12])
    def test_bit_identical_to_reference(self, n):
        rng = np.random.default_rng(470 + n)
        for low_weight in (False, True):
            for m in (1, 16, 300, 1000, 10_000):
                state = random_snapshots(n, m, rng)
                w = reference_weights(state)
                for n_terms in (1, 40, 500):
                    if low_weight:
                        rows = np.vstack([low_weight_rows(n, n_terms, rng), np.zeros(n, dtype=int)])
                    else:
                        rows = rng.integers(0, 4, size=(n_terms + 1, n))
                    rows[-1] = 0  # an identity row: the offset
                    rows[n_terms // 2 : n_terms] = rows[: n_terms - n_terms // 2]  # duplicates
                    coeffs = rng.uniform(-1, 1, size=n_terms + 1)
                    obs = Observable.from_rows(n, rows, coeffs)
                    assert obs.offset != 0.0
                    (values,) = snapshot_values(state, [obs])
                    assert np.array_equal(values, reference_pauli_values(w, obs)), (m, n_terms)


class TestEstimationMemory:
    def test_peak_does_not_grow_with_terms(self):
        rng = np.random.default_rng(500)
        n, m = 12, 10_000
        state = random_snapshots(n, m, rng)
        peaks = {}
        for n_terms in (20, 2000):
            obs = random_observable(n, n_terms, rng, normalization="none")
            tracemalloc.start()
            estimate_observable(state, obs)
            peaks[n_terms] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert abs(peaks[2000] - peaks[20]) <= 1 << 20, peaks

    @pytest.mark.parametrize(
        "n, m, n_terms, low_weight, seed",
        [(12, 10_000, 2000, False, 501), (22, 1000, 200, True, 502), (12, 16, 2000, False, 503)],
        ids=["n12-m10000-random", "n22-m1000-weight1to2", "n12-m16-random"],
    )
    def test_values_take_two_rows_and_the_term_lists(self, n, m, n_terms, low_weight, seed):
        # the sum and one reused product take two M-length rows, and the
        # term table a few hundred bytes per term as Python lists
        rng = np.random.default_rng(seed)
        if low_weight:
            rows = low_weight_rows(n, n_terms, rng)
            obs = Observable.from_rows(n, rows, rng.uniform(-1, 1, n_terms))
        else:
            obs = random_observable(n, n_terms, rng, normalization="none")
        weights = estimator._weight_table(random_snapshots(n, m, rng))
        tracemalloc.start()
        estimator._pauli_values(weights, obs)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 4 * 8 * m + 256 * n_terms, peak
