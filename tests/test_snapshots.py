"""Snapshot acquisition, noise, and binary format tests."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox

from aqstate import estimator, snapshots, statevector
from aqstate.snapshots import (
    ApproximateState,
    SnapshotFormatError,
    build_approximate_state,
    deserialize,
    load_snapshots,
    save_snapshots,
    serialize,
    snapshots_from_state,
    state_to_json_dict,
)
from aqstate.statevector import (
    MAX_QUBITS,
    MAX_TOTAL_QUBITS,
    Circuit,
    Gate,
    ProductState,
    Statevector,
    exact_expectation_factored,
    haar_random_state,
    random_prep_circuit,
    run_circuit,
)
from aqstate.estimator import reconstruct_density, snapshot_values
from aqstate.pauli import Observable, projector_factored
from test_estimator import Z_DIR, handmade_state


def random_state_record(rng, n_snapshots=None, n_qubits=None):
    m = n_snapshots or int(rng.integers(1, 60))
    n = n_qubits or int(rng.integers(1, 7))
    return ApproximateState(
        rng.choice([-1, 1], size=(m, n)).astype(np.int8),
        rng.uniform(0, math.pi, (m, n)),
        rng.uniform(0, 2 * math.pi, (m, n)),
        rng.uniform(0, 0.2, n),
        seed=int(rng.integers(0, 2**63)),
    )


def directions(state):
    """(M, N, 3) unit vectors of the measurement directions."""
    sin_t = np.sin(state.thetas)
    return np.stack(
        [np.cos(state.phis) * sin_t, np.sin(state.phis) * sin_t, np.cos(state.thetas)], axis=-1
    )


def qubit_state(a0, a1):
    return Statevector(np.array([a0, a1], dtype=complex))


class TestDirections:
    def test_unit_vector(self):
        # the X, Y, Z estimator values of one qubit are 3*m times a unit vector
        state = snapshots_from_state(haar_random_state(2, np.random.default_rng(1)), 100, seed=1)
        xyz = [Observable.from_strings([(1.0, axis + "I")]) for axis in "XYZ"]
        w = np.stack(snapshot_values(state, xyz), axis=1)
        assert np.allclose(np.sum(w * w, axis=1), 9.0, atol=1e-12)

    def test_sphere_moments(self):
        samples = 100_000
        vectors = directions(snapshots_from_state(Statevector(np.eye(2)[0]), samples, seed=2))[:, 0]
        stderr_mean = 3.0 / math.sqrt(samples)  # component std < 1
        assert np.all(np.abs(vectors.mean(axis=0)) <= stderr_mean)
        second = vectors.T @ vectors / samples
        # E[n_a n_b] = delta_ab / 3; per-entry sampling noise ~ 1/sqrt(samples)
        assert np.allclose(second, np.eye(3) / 3.0, atol=3.0 / math.sqrt(samples))

    def test_reproducible(self):
        psi = Statevector(np.eye(8)[0])
        a, b, c = (snapshots_from_state(psi, 5, seed) for seed in (7, 7, 8))
        assert np.array_equal(a.thetas, b.thetas) and np.array_equal(a.phis, b.phis)
        assert not np.any(a.thetas == c.thetas) and not np.any(a.phis == c.phis)


class TestMeasurementUnitary:
    # a direction n measures sigma.n: where n lies along the Bloch vector of
    # a pure state, the outcome is certain
    def test_z_axis_is_identity(self):
        # along z the outcome +1 has the computational probability |a0|^2
        state = snapshots_from_state(qubit_state(0.6, 0.8), 400_000, seed=3)
        near_z = np.cos(state.thetas[:, 0]) > 0.999
        # tilt of at most 0.045 rad moves the probability by at most 0.022
        tol = 4 * 0.5 / math.sqrt(near_z.sum()) + 0.022
        assert np.mean(state.outcomes[near_z, 0] == 1) == pytest.approx(0.36, abs=tol)

    def test_x_axis(self):
        state = snapshots_from_state(qubit_state(math.sqrt(0.5), math.sqrt(0.5)), 200_000, seed=4)
        along_x = directions(state)[:, 0, 0]
        assert np.all(state.outcomes[along_x > 0.9999, 0] == 1)
        assert np.all(state.outcomes[along_x < -0.9999, 0] == -1)

    def test_diagonalizes_any_direction(self):
        rng = np.random.default_rng(3)
        for seed in range(3):
            psi = haar_random_state(1, rng)
            rho = np.outer(psi.amps, psi.amps.conj())
            bloch = np.array([2 * rho[1, 0].real, 2 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])
            state = snapshots_from_state(psi, 100_000, seed=seed)
            along = directions(state)[:, 0] @ bloch
            assert (along > 0.9995).sum() >= 10 and (along < -0.9995).sum() >= 10
            assert np.all(state.outcomes[along > 0.9995, 0] == 1)
            assert np.all(state.outcomes[along < -0.9995, 0] == -1)


class TestKernelMatrix:
    def test_plus_z(self):
        assert np.allclose(reconstruct_density(handmade_state([[1]], [[Z_DIR]])), np.diag([2.0, -1.0]))

    def test_minus_z(self):
        assert np.allclose(reconstruct_density(handmade_state([[-1]], [[Z_DIR]])), np.diag([-1.0, 2.0]))

    def test_unit_trace(self):
        # every single-snapshot kernel is Hermitian with unit trace
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            state = snapshots_from_state(haar_random_state(n, rng), 1, seed=int(rng.integers(2**32)))
            k = reconstruct_density(state)
            assert np.trace(k).real == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(k, k.conj().T, atol=1e-12)


class TestAcquireSnapshot:
    def test_eigenstate_deterministic(self):
        # basis state |101> (qubit 0 = 1): near z every qubit reads its bit
        state = snapshots_from_state(Statevector(np.eye(8)[0b101]), 50_000, seed=5)
        for qubit, m in enumerate((-1, 1, -1)):
            near_z = np.cos(state.thetas[:, qubit]) > 0.9999
            assert near_z.any() and np.all(state.outcomes[near_z, qubit] == m)

    def test_forced_flip(self):
        # the same uniforms: a flip probability of almost 1 negates every outcome
        psi = haar_random_state(2, np.random.default_rng(6))
        clean = snapshots_from_state(psi, 500, seed=6)
        flipped = snapshots_from_state(psi, 500, seed=6, p_err=(0.999999999,) * 2)
        assert np.array_equal(flipped.outcomes, -clean.outcomes)

    def test_born_rule_on_plus(self):
        # E[m n] is the Bloch vector over 3, (1/3, 0, 0) on |+>
        draws = 30_000
        state = snapshots_from_state(qubit_state(math.sqrt(0.5), math.sqrt(0.5)), draws, seed=7)
        mean = np.mean(state.outcomes[:, 0, None] * directions(state)[:, 0], axis=0)
        assert np.allclose(mean, [1 / 3, 0, 0], atol=4 / math.sqrt(3 * draws))

    def test_source_state_untouched(self):
        psi = haar_random_state(3, np.random.default_rng(8))
        before = psi.amps.copy()
        snapshots_from_state(psi, 50, seed=8)
        assert np.array_equal(psi.amps, before)


class TestBuildApproximateState:
    def test_shapes_and_metadata(self):
        circuit = Circuit(3, (Gate("H", (0,)), Gate("X", (2,))))
        state = build_approximate_state(circuit, 50, seed=1)
        assert state.n_snapshots == 50
        assert state.n_qubits == 3
        assert state.outcomes.shape == state.thetas.shape == state.phis.shape == (50, 3)

    def test_bit_identical_replay(self):
        circuit = Circuit(2, (Gate("H", (0,)),))
        a = build_approximate_state(circuit, 200, seed=9)
        b = build_approximate_state(circuit, 200, seed=9)
        assert a == b

    def test_batch_size_invariance(self, monkeypatch):
        # at 333 snapshots a 3-qubit part keeps head depth 1, the shared top
        # level only, a 12-qubit part draws its top 5 qubits in the head and
        # a 16-qubit part its top 7; the batches of 1, 7, 64 and 999 rows
        # split the head's matrix products into different slices
        for n, depth in ((3, 1), (12, 5), (16, 7)):
            psi = haar_random_state(n, np.random.default_rng(10))
            assert snapshots._head_depth(n, 333) == depth
            variants = []
            for rows in (1, 7, 64, 999):
                monkeypatch.setattr(snapshots, "_BATCH_BYTES", rows * (16 << (n - depth)))
                assert snapshots._default_batch_size(n - depth) == rows
                variants.append(snapshots_from_state(psi, 333, seed=4))
            assert all(v == variants[0] for v in variants[1:])

    def test_gram_matches_matrix_product(self, monkeypatch):
        # summed over slices of 3 columns, the last one shorter, the Gram
        # matrix equals R* R^T
        monkeypatch.setattr(snapshots, "_GRAM_COLUMNS", 3)
        amps = haar_random_state(10, np.random.default_rng(16)).amps
        for depth in (1, 4, 6):
            r = amps.reshape(2**depth, -1)
            assert np.abs(snapshots._gram(amps, depth) - r.conj() @ r.T).max() < 1e-14

    def test_snapshots_are_counter_addressed(self):
        # row j depends only on (seed, j): a longer run extends a shorter one
        psi = haar_random_state(2, np.random.default_rng(11))
        short = snapshots_from_state(psi, 40, seed=21)
        long = snapshots_from_state(psi, 100, seed=21)
        for field in ("outcomes", "thetas", "phis"):
            assert np.array_equal(getattr(long, field)[:40], getattr(short, field))

    @pytest.mark.parametrize("seed", [0, 2**63 + 12345])
    def test_uniforms_are_philox_words_to_doubles(self, seed):
        # one double per Philox word, (w >> 11) * 2^-53, snapshot j's 4N
        # words from counter block j * N on
        for start, count, n in ((0, 16, 22), (0, 1000, 4), (5, 3, 1), (1000, 24, 12), (3, 2, 256)):
            words = Philox(key=seed, counter=start * n).random_raw(count * 4 * n)
            expected = (words.reshape(count, 4 * n) >> np.uint64(11)) * 2.0**-53
            got = snapshots._snapshot_uniforms(seed, start, count, n)
            assert got.dtype == np.float64 and np.array_equal(got, expected)

    def test_default_batch_fits_budget(self):
        # the first explicit level of a default batch: (rows, 2^(n-D)) for a
        # part of n qubits with head depth D >= 1
        budget = 128 << 20
        for branch_qubits in range(MAX_QUBITS):
            rows = snapshots._default_batch_size(branch_qubits)
            row_bytes = 16 << branch_qubits
            assert 1 <= rows <= 1024
            assert rows * row_bytes <= budget or rows == 1
            assert rows == 1024 or (rows + 1) * row_bytes > budget
        assert snapshots._default_batch_size(MAX_QUBITS - 1) == 1

    def test_acquisition_peak_follows_budget(self, monkeypatch):
        psi = run_circuit(random_prep_circuit(12, np.random.default_rng(12)))
        reference = snapshots_from_state(psi, 300, seed=5)
        budget = 1 << 20
        monkeypatch.setattr(snapshots, "_BATCH_BYTES", budget)
        # head depth 5: 512 rows of 2^7 amplitudes
        assert snapshots._default_batch_size(12 - snapshots._head_depth(12, 300)) == 512
        tracemalloc.start()
        try:
            small = snapshots_from_state(psi, 300, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert small == reference
        assert peak <= 3 * budget

    def test_single_snapshot(self):
        state = build_approximate_state(Circuit(2, ()), 1, seed=0)
        assert state.n_snapshots == 1

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ValueError):
            build_approximate_state(Circuit(2, ()), 0, seed=0)

    @pytest.mark.parametrize("n_snapshots", [1.5, 2.0, True, "3"])
    def test_non_integer_snapshot_count_rejected(self, n_snapshots):
        with pytest.raises(ValueError, match="n_snapshots must be an integer"):
            snapshots_from_state(Statevector(np.eye(4)[0]), n_snapshots, 0)

    def test_flip_rate_matches_noise(self):
        # |0> measured along z flips with probability p_err exactly
        p = 0.17
        state = snapshots_from_state(
            Statevector(np.eye(2)[0]), 40_000, seed=13, p_err=(p,)
        )
        # restrict to near-z directions where the noiseless outcome is certain
        mask = np.cos(state.thetas[:, 0]) > 0.995
        flipped = state.outcomes[mask, 0] == -1
        rate = flipped.mean()
        # tiny quantum flip probability (< 0.0013) plus binomial noise
        assert rate == pytest.approx(p, abs=3 * math.sqrt(p * (1 - p) / mask.sum()) + 0.003)

    def test_deterministic_eigenstate_outcomes(self):
        state = snapshots_from_state(Statevector(np.eye(2)[0]), 2_000, seed=14)
        along_z = np.cos(state.thetas[:, 0]) > 0.9999
        assert np.all(state.outcomes[along_z, 0] == 1)

    def test_flips_independent_across_qubits(self):
        # on |00> along near-z directions, flips are observable directly;
        # per-qubit rates match p_err and show no cross-qubit correlation
        p = np.array([0.1, 0.3])
        state = snapshots_from_state(
            Statevector(np.eye(4)[0]), 200_000, seed=15, p_err=p
        )
        mask = np.all(np.cos(state.thetas) > 0.99, axis=1)
        flips = state.outcomes[mask] == -1
        count = mask.sum()
        for k in range(2):
            rate = flips[:, k].mean()
            tol = 3 * math.sqrt(p[k] * (1 - p[k]) / count) + 0.005
            assert rate == pytest.approx(p[k], abs=tol)
        both = (flips[:, 0] & flips[:, 1]).mean()
        assert both == pytest.approx(
            flips[:, 0].mean() * flips[:, 1].mean(), abs=4 / math.sqrt(count)
        )


# The dense memory budget, computed without allocating.
def run_circuit_bytes(n):
    """Bytes run_circuit holds: the 16*2^N-byte state and one scratch
    buffer, which every gate reuses, of four blocks of complex values or the
    state's length if that is less (1 MiB from N = 16), per thread: from
    _TWO_THREAD_AMPS amplitudes on, the helper thread has a second one."""
    threads = 1 + (2**n >= statevector._TWO_THREAD_AMPS)
    return (16 << n) + threads * 16 * min(2**n, 4 * statevector._BLOCK)


def gram_bytes(depth):
    """Bytes of a part's head: its Gram matrices G^(1) ... G^(D), 16*4^d
    bytes each."""
    return sum(16 << 2 * d for d in range(1, depth + 1))


def batch_bytes(part_qubits, depth, rows, n_qubits):
    """Bytes one acquisition batch of N qubits holds at its peak, the larger
    of two moments.  Building the angle tables holds 96 bytes per row and
    qubit: 32 of uniforms, drawn straight as doubles, 8 each of phi, theta,
    cos(theta/2) and sin(theta/2), and 16 each of e^(i phi) and the i*phi
    it is taken from.  The kernel holds, per row, 81 bytes per qubit of
    uniforms, angles and rotation tables (the same without i*phi, plus the
    drawn bit), the 32-byte pair of branch weights, and in the part with
    the longest first branch level (n qubits, head depth D) the larger of
    two buffers: the head's last quadratic form, 48*2^D bytes for its
    2^(D-1) weights, their conjugates and its 4*2^(D-1) matrix products,
    and the first tail level, the 16*2^(n-D)-byte branch built from the
    head and the next level's half of it.  The branch and the 2^D weights
    it is built from never hold more than the larger of the two.  At every
    depth of 2 or more that the cost model picks for n >= 11 the tail is at
    least as large."""
    buffers = max((16 << (part_qubits - depth)) * 3 // 2, 48 << depth if depth > 1 else 0)
    return max(rows * 96 * n_qubits, rows * (81 * n_qubits + 32 + buffers))


def dense_bytes(n, m):
    """Bytes acquiring M snapshots of a dense n-qubit state holds besides
    the state: its head, one default batch and the 17*M*N bytes of snapshot
    arrays."""
    depth = snapshots._head_depth(n, m)
    rows = min(m, snapshots._default_batch_size(n - depth))
    return gram_bytes(depth) + batch_bytes(n, depth, rows, n) + 17 * m * n


def product_bytes(state, m):
    """Bytes acquiring M snapshots of a product state holds: its parts'
    16*2^|C| bytes each and their heads, one batch sized by the part with
    the longest first branch level, and the 17*M*N bytes of snapshot
    arrays."""
    sizes = [part.n_qubits for _, part in state.parts]
    depths = [snapshots._head_depth(size, m) for size in sizes]
    part_qubits, depth = max(zip(sizes, depths), key=lambda sd: sd[0] - sd[1])
    rows = min(m, snapshots._default_batch_size(part_qubits - depth))
    return (
        sum((16 << size) + gram_bytes(depth) for size, depth in zip(sizes, depths))
        + batch_bytes(part_qubits, depth, rows, state.n_qubits)
        + 17 * m * state.n_qubits
    )


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_path_bytes(n, m, n_pauli=0, n_factored=0):
    """Bytes one snapshot_values call holds at its peak, the larger of two
    moments.  While the (N, 4, M) float64 weight table, 32*N*M bytes, is
    filled, each of its two threads holds four (chunk, N) float64
    temporaries.  Then each observable adds its M values and one M-length
    product buffer, and a factored term also its (N, M) per-qubit factors."""
    table = 32 * n * m
    fill = 2 * 4 * 8 * n * estimator._CHUNK
    values = 8 * m * (n_pauli + n_factored) + 8 * m + 8 * n * m * (n_factored > 0)
    return table + max(fill, values)


class TestMemoryBudget:
    def test_dense_budget_up_to_max_qubits(self):
        # run_circuit, then the state, its head and one batch at any head
        # depth that some M can give: at most 2 GiB besides 17 bytes per
        # qubit and snapshot
        budget = 1 << 31
        peaks = {}
        for n in range(1, MAX_QUBITS + 1):
            peaks[n, "run_circuit"] = run_circuit_bytes(n)
            for depth in range(1, snapshots._head_depth(n, 2**62) + 1):
                rows = snapshots._default_batch_size(n - depth)
                peaks[n, depth] = (16 << n) + gram_bytes(depth) + batch_bytes(n, depth, rows, n)
                if n >= 11 and depth > 1:
                    assert 48 << depth <= (16 << (n - depth)) * 3 // 2
        assert max(peaks.values()) <= budget
        # the largest is acquisition at N = 26, head depth 1, one row: the
        # 1 GiB state and 768 MiB of branch buffers; run_circuit holds the
        # state and two 1 MiB scratch buffers
        assert max(peaks, key=peaks.get) == (MAX_QUBITS, 1)
        assert batch_bytes(MAX_QUBITS, 1, 1, MAX_QUBITS) >> 20 == 768
        assert peaks[MAX_QUBITS, "run_circuit"] >> 20 == 1026
        assert snapshots._head_depth(MAX_QUBITS, 2**62) == 10

    # no gate allocates, so only small objects come on top
    @pytest.mark.parametrize("n", range(12, 19))
    def test_run_circuit_peak_matches_formula(self, n):
        peak = traced_peak(run_circuit, random_prep_circuit(n, np.random.default_rng(n)))
        assert run_circuit_bytes(n) <= peak <= run_circuit_bytes(n) + (16 << 10)

    # a dense 4 MiB part: the oracle holds one working copy of it and the
    # same scratch buffer as run_circuit, so with the part itself about twice
    # the state in all, not three times
    def test_factored_oracle_peak_is_one_copy(self):
        n = 18
        psi = haar_random_state(n, np.random.default_rng(n))
        peak = traced_peak(exact_expectation_factored, psi, projector_factored([0, 1] * (n // 2)))
        assert run_circuit_bytes(n) <= peak <= run_circuit_bytes(n) + (16 << 10)

    # one full batch of 1024 rows, head depths 4 to 6; the parts' Python
    # objects and the einsum buffers come on top
    @pytest.mark.parametrize("n", range(12, 19))
    def test_acquisition_peak_matches_formula(self, n):
        psi = run_circuit(random_prep_circuit(n, np.random.default_rng(n)))
        m = snapshots._MAX_BATCH
        assert snapshots._default_batch_size(n - snapshots._head_depth(n, m)) == m
        peak = traced_peak(snapshots_from_state, psi, m, n)
        assert dense_bytes(n, m) <= peak <= 1.03 * dense_bytes(n, m)

    # N = 12, M = 10^4: the table is 3.84 MB; the threads and arrays' Python
    # objects come on top
    @pytest.mark.parametrize("n_pauli, n_factored", [(1, 0), (3, 0), (0, 1)])
    def test_read_path_peak_matches_formula(self, n_pauli, n_factored):
        n, m = 12, 10_000
        rng = np.random.default_rng(n_pauli + 10 * n_factored)
        state = random_state_record(rng, n_snapshots=m, n_qubits=n)
        observables = [
            Observable.from_rows(n, rng.integers(0, 4, (20, n)), rng.uniform(-1, 1, 20))
            for _ in range(n_pauli)
        ] + [projector_factored([0, 1] * (n // 2))] * n_factored
        peak = traced_peak(snapshot_values, state, observables)
        budget = read_path_bytes(n, m, n_pauli, n_factored)
        assert 32 * n * m <= peak <= budget + (16 << 10)

    # default circuits: components of at most 2 qubits, so 1024-row batches;
    # the parts' Python objects come on top
    @pytest.mark.parametrize("n, m", [(40, 2000), (MAX_TOTAL_QUBITS, 1500)])
    def test_product_acquisition_peak_matches_formula(self, n, m):
        circuit = random_prep_circuit(n, np.random.default_rng(n))
        budget = product_bytes(ProductState.from_circuit(circuit), m)
        peak = traced_peak(build_approximate_state, circuit, m, 1, 0.05)
        assert 0.97 * budget <= peak <= 1.01 * budget


class TestTomographicIdentity:
    def test_kernel_average_converges(self):
        rng = np.random.default_rng(15)
        n_snapshots = 100_000
        for n in (1, 2):
            limit = 5.0 * 3.0**n / math.sqrt(n_snapshots)
            for seed in range(5):
                psi = haar_random_state(n, rng)
                state = snapshots_from_state(psi, n_snapshots, seed=seed)
                rho = reconstruct_density(state)
                target = np.outer(psi.amps, psi.amps.conj())
                assert np.max(np.abs(rho - target)) <= limit


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            state = random_state_record(rng)
            assert deserialize(serialize(state)) == state

    def test_payload_size(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            state = random_state_record(rng)
            m, n = state.n_snapshots, state.n_qubits
            assert len(serialize(state)) == 26 + 8 * n + 17 * m * n

    def test_file_round_trip(self, tmp_path):
        state = random_state_record(np.random.default_rng(18))
        path = tmp_path / "snaps.aqst"
        save_snapshots(state, path)
        assert load_snapshots(path) == state

    def test_bad_magic(self):
        blob = bytearray(serialize(random_state_record(np.random.default_rng(19))))
        blob[:4] = b"NOPE"
        with pytest.raises(SnapshotFormatError, match="magic"):
            deserialize(bytes(blob))

    def test_version_mismatch(self):
        blob = bytearray(serialize(random_state_record(np.random.default_rng(20))))
        blob[4] = 99
        with pytest.raises(SnapshotFormatError, match="version"):
            deserialize(bytes(blob))

    def test_truncation(self):
        blob = serialize(random_state_record(np.random.default_rng(21)))
        with pytest.raises(SnapshotFormatError, match="size"):
            deserialize(blob[:-5])

    def test_json_export_round_trip(self):
        circuit = Circuit(2, (Gate("H", (1,)),))
        state = build_approximate_state(circuit, 20, seed=3, p_err=[0.0, 0.1])
        data = state_to_json_dict(state, circuit.content_hash())
        assert data["format_version"] == 1
        assert (data["n_qubits"], data["n_snapshots"]) == (2, 20)
        assert data["seed"] == 3 and data["p_err"] == [0.0, 0.1]
        assert data["circuit_hash"] == circuit.content_hash()
        assert np.array_equal(np.array(data["outcomes"], dtype=np.int8), state.outcomes)
        assert np.array_equal(np.array(data["thetas"]), state.thetas)
        assert np.array_equal(np.array(data["phis"]), state.phis)
        assert state_to_json_dict(state)["circuit_hash"] is None


class TestApproximateState:
    def test_rejects_bad_outcomes(self):
        with pytest.raises(ValueError):
            ApproximateState(
                np.zeros((2, 2), dtype=np.int8), np.zeros((2, 2)), np.zeros((2, 2))
            )

    @pytest.mark.parametrize(
        "value", [np.int64(257), np.int64(-255), 1.7, "1", True], ids=repr
    )
    def test_rejects_outcomes_a_cast_would_change(self, value):
        # an int8 cast made each of these +1 before the check
        thetas = np.zeros((2, 2))
        with pytest.raises(ValueError, match="outcomes"):
            ApproximateState(np.full((2, 2), value), thetas, thetas)

    @pytest.mark.parametrize("field", ["thetas", "phis"])
    @pytest.mark.parametrize("value", ["0.5", True])
    def test_rejects_angles_that_are_not_numbers(self, field, value):
        arrays = {"thetas": np.full((2, 2), 0.5), "phis": np.full((2, 2), 0.5)}
        arrays[field] = np.full((2, 2), value)
        with pytest.raises(ValueError, match=field):
            ApproximateState(np.ones((2, 2), dtype=np.int8), **arrays)

    @pytest.mark.parametrize("p_err", ["0.1", False, [False]], ids=repr)
    def test_rejects_rates_that_are_not_numbers(self, p_err):
        # a float cast read "0.1" as 0.1 and False as 0.0
        state = random_state_record(np.random.default_rng(28), n_snapshots=2, n_qubits=1)
        with pytest.raises(ValueError, match="p_err"):
            snapshots_from_state(Statevector(np.eye(2)[0]), 2, 0, p_err)
        with pytest.raises(ValueError, match="p_err"):
            ApproximateState(state.outcomes, state.thetas, state.phis, p_err)

    def test_library_arrays_kept_without_copy(self):
        # float +-1.0 outcomes stay valid; int8 outcomes and float64 angles
        # are stored as given
        state = random_state_record(np.random.default_rng(29), n_snapshots=3, n_qubits=2)
        floats = ApproximateState(state.outcomes.astype(float), state.thetas, state.phis)
        assert floats == ApproximateState(state.outcomes, state.thetas, state.phis)
        assert floats.thetas is state.thetas and floats.phis is state.phis
        assert ApproximateState(state.outcomes, state.thetas, state.phis).outcomes is state.outcomes

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", None])
    def test_rejects_seeds_outside_u64(self, seed):
        # the stored seed is a u64: both entry points check it
        state = random_state_record(np.random.default_rng(26), n_snapshots=3, n_qubits=2)
        with pytest.raises(ValueError, match="seed"):
            ApproximateState(state.outcomes, state.thetas, state.phis, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            snapshots_from_state(Statevector(np.eye(4)[0]), 3, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(5)])
    def test_u64_seeds_round_trip(self, seed):
        state = random_state_record(np.random.default_rng(27), n_snapshots=3, n_qubits=2)
        state = ApproximateState(state.outcomes, state.thetas, state.phis, seed=seed)
        assert type(state.seed) is int and state.seed == seed
        assert deserialize(serialize(state)) == state
        acquired = snapshots_from_state(Statevector(np.eye(4)[0]), 3, seed)
        assert acquired.seed == seed and deserialize(serialize(acquired)) == acquired

    @pytest.mark.parametrize(
        "field, value",
        [
            ("theta", math.nan),
            ("theta", -1e-9),
            ("theta", 3.2),
            ("phi", math.inf),
            ("phi", math.nan),
            ("p_err", 1.5),
            ("p_err", -0.2),
            ("p_err", 1.0),
            ("p_err", math.nan),
        ],
    )
    def test_rejects_corrupt_payload(self, field, value):
        state = random_state_record(np.random.default_rng(25), n_snapshots=4, n_qubits=2)
        arrays = {
            "theta": state.thetas.copy(),
            "phi": state.phis.copy(),
            "p_err": state.p_err.copy(),
        }
        arrays[field].flat[1] = value
        with pytest.raises(ValueError):
            ApproximateState(state.outcomes, arrays["theta"], arrays["phi"], arrays["p_err"])

        # binary: header (18 bytes), p_err (8N), seed (8), then 17-byte records
        blob = bytearray(serialize(state))
        n = state.n_qubits
        records = 18 + 8 * n + 8
        offset = {"p_err": 18 + 8, "theta": records + 17 + 1, "phi": records + 17 + 9}
        struct.pack_into("<d", blob, offset[field], value)
        with pytest.raises(SnapshotFormatError):
            deserialize(bytes(blob))

    def test_noise_model_validation(self):
        # readout rates are checked before anything is allocated: the
        # snapshot arrays of 10^15 snapshots, or a 20-qubit state
        bad = (1.2, -0.1, math.nan, (0.1,), (0.1, 0.2, 0.3), (0.1, 1.0), [[0.1, 0.1]])
        for p_err in bad:
            with pytest.raises(ValueError, match="p_err"):
                snapshots_from_state(Statevector(np.eye(4)[0]), 10**15, seed=0, p_err=p_err)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="p_err"):
                    build_approximate_state(Circuit(20, ()), 10, seed=0, p_err=p_err)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
