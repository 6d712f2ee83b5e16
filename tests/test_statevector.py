"""Statevector engine tests, including independent matrix oracles."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from aqstate import statevector
from aqstate.pauli import (
    FactoredObservable,
    Observable,
    _planes,
    observable_to_dict,
    projector_factored,
)
from aqstate.statevector import (
    MAX_QUBITS,
    Circuit,
    Gate,
    ProductState,
    Statevector,
    _apply_gate_inplace,
    _term_values,
    circuit_from_dict,
    circuit_to_dict,
    exact_expectation,
    exact_expectation_factored,
    haar_random_state,
    load_circuit,
    random_prep_circuit,
    run_circuit,
    save_circuit,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_MATS = {"I": np.eye(2, dtype=complex), "X": X, "Y": Y, "Z": Z}


def dense_observable(obs):
    """Test-local oracle: dense matrix of a Pauli sum (qubit 0 = LSB)."""
    dim = 1 << obs.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for term in observable_to_dict(obs)["terms"]:
        coeff, label = term["coeff"], term["pauli"]
        mat = np.eye(1, dtype=complex)
        for ch in reversed(label):  # leftmost char = qubit 0 = rightmost factor
            mat = np.kron(mat, PAULI_MATS[ch])
        total += coeff * mat
    return total


def apply_gate(psi, gate):
    Circuit(psi.n_qubits, (gate,))  # checks the targets
    amps = psi.amps.copy()
    _apply_gate_inplace(amps, gate, (np.empty_like(amps),))
    return Statevector(amps, copy=False)


class TestStatevector:
    def test_zero_state(self):
        psi = Statevector(np.eye(8)[0])
        assert psi.amps[0] == 1.0
        assert np.count_nonzero(psi.amps) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 0.0, 0.0]))

    def test_amplitudes_frozen(self):
        psi = Statevector(np.eye(2)[0])
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0

    def test_qubit_cap(self):
        # a zero-stride view of 2^(cap+1) amplitudes: the length is checked
        # before anything is copied
        amps = np.broadcast_to(np.complex128(0), (1 << (MAX_QUBITS + 1),))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap"):
                Statevector(amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="normalized"):
            Statevector(np.array([math.nan, 0.0]))

    def test_rejects_one_amplitude(self):
        # 2^0 amplitudes would be a state of no qubits
        with pytest.raises(ValueError, match="amplitude count 1 "):
            Statevector(np.array([1.0]))

    @pytest.mark.parametrize("amps", [np.array(["1", "0"]), [True, False]])
    def test_rejects_amplitudes_that_are_not_numbers(self, amps):
        # a cast to complex made both of these |0>
        with pytest.raises(ValueError, match="amplitudes"):
            Statevector(amps)

    def test_engine_states_pass_every_check(self):
        # run_circuit and haar_random_state wrap their own buffers without the
        # checks above, which still hold for amplitudes a caller supplies: the
        # same amplitudes pass them and give the same state
        rng = np.random.default_rng(4)
        for psi in (
            run_circuit(Circuit(1, ())),
            run_circuit(random_prep_circuit(5, rng)),
            haar_random_state(6, rng),
        ):
            checked = Statevector(psi.amps)
            assert psi.n_qubits == checked.n_qubits
            assert psi.amps.tobytes() == checked.amps.tobytes()
            assert psi.amps.dtype == complex and not psi.amps.flags.writeable


class TestSingleQubitGates:
    def test_h_on_zero(self):
        out = apply_gate(Statevector(np.eye(2)[0]), Gate("H", (0,)))
        assert np.allclose(out.amps, np.array([1, 1]) / math.sqrt(2))

    def test_x_on_zero(self):
        out = apply_gate(Statevector(np.eye(2)[0]), Gate("X", (0,)))
        assert np.allclose(out.amps, [0, 1])

    def test_s_squared_is_z(self):
        one = Statevector(np.eye(2)[1])
        out = apply_gate(apply_gate(one, Gate("S", (0,))), Gate("S", (0,)))
        assert np.allclose(out.amps, [0, -1])

    def test_all_matrices_unitary(self):
        rng = np.random.default_rng(3)
        gates = [Gate(k, (0,)) for k in ("X", "Y", "Z", "H", "S", "T")]
        gates.append(Gate("XY", (0, 1), float(rng.uniform(0, 2 * math.pi))))
        for gate in gates:
            # column k of the gate's unitary is its image of basis state k
            n = len(gate.qubits)
            u = np.array([apply_gate(Statevector(row), gate).amps for row in np.eye(2**n)]).T
            assert np.allclose(u.conj().T @ u, np.eye(2**n), atol=1e-12)

    def test_gate_on_correct_qubit(self):
        psi = apply_gate(Statevector(np.eye(4)[0]), Gate("X", (1,)))
        assert psi.amps[2] == 1.0  # qubit 1 is bit 1 of the index

    def test_bad_target(self):
        with pytest.raises(ValueError):
            apply_gate(Statevector(np.eye(2)[0]), Gate("X", (1,)))


class TestXYGate:
    def test_even_parity_fixed(self):
        for index in (0, 3):
            psi = Statevector(np.eye(4)[index])
            out = apply_gate(psi, Gate("XY", (0, 1), 0.7))
            assert np.allclose(out.amps, psi.amps)

    def test_matches_matrix_exponential(self):
        # oracle: expm of -i*alpha*(XX+YY) in kron(q1, q0) ordering
        rng = np.random.default_rng(9)
        for _ in range(10):
            alpha = float(rng.uniform(0, 2 * math.pi))
            u_oracle = expm(-1j * alpha * (np.kron(X, X) + np.kron(Y, Y)))
            start = haar_random_state(2, rng)
            out = apply_gate(start, Gate("XY", (0, 1), alpha))
            assert np.allclose(out.amps, u_oracle @ start.amps, atol=1e-12)

    def test_odd_block_rotation(self):
        alpha = 0.3
        out = apply_gate(Statevector(np.eye(4)[1]), Gate("XY", (0, 1), alpha))
        expect = np.zeros(4, dtype=complex)
        expect[1] = math.cos(2 * alpha)
        expect[2] = -1j * math.sin(2 * alpha)
        assert np.allclose(out.amps, expect, atol=1e-12)

    def test_quarter_pi_swap(self):
        out = apply_gate(Statevector(np.eye(4)[1]), Gate("XY", (0, 1), math.pi / 4))
        expect = np.zeros(4, dtype=complex)
        expect[2] = -1j
        assert np.allclose(out.amps, expect, atol=1e-12)

    def test_number_conservation(self):
        rng = np.random.default_rng(13)
        z0 = Observable.from_strings([(1.0, "ZII"), (1.0, "IZI")])
        for _ in range(10):
            psi = haar_random_state(3, rng)
            rotated = apply_gate(psi, Gate("XY", (0, 1), float(rng.uniform(0, 2 * math.pi))))
            assert exact_expectation(rotated, z0) == pytest.approx(
                exact_expectation(psi, z0), abs=1e-10
            )

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            Gate("XY", (0, 1), alpha)

    def test_angle_beyond_a_float_rejected(self):
        # a float() of this integer overflows: refused as a bad angle, from
        # the library and from circuit data alike
        with pytest.raises(ValueError, match="XY angle"):
            Gate("XY", (0, 1), 10**400)
        data = {"n_qubits": 2, "gates": [{"kind": "XY", "q1": 0, "q2": 1, "alpha": 10**400}]}
        with pytest.raises(ValueError, match="XY angle"):
            circuit_from_dict(data)

    def test_equal_targets_rejected(self):
        with pytest.raises(ValueError):
            Gate("XY", (1, 1), 0.5)

    @pytest.mark.parametrize("qubits", [(0.9,), (True,), ("0",)])
    def test_non_integer_target_rejected(self, qubits):
        with pytest.raises(ValueError, match="integer"):
            Gate("H", qubits)

    @pytest.mark.parametrize("alpha", ["0.5", False])
    def test_non_number_angle_rejected(self, alpha):
        with pytest.raises(ValueError, match="number"):
            Gate("XY", (0, 1), alpha)


class TestBlocking:
    # Every gate of a state the golden digests pin fits in one block, so
    # here the blocks shrink.  Block sizes 2, 6 (uneven last blocks) and 8
    # never cut a one-amplitude block: NumPy's in-place product of a single
    # complex element rounds differently from its loop over two or more.
    @pytest.mark.parametrize("block", [2, 6, 8])
    def test_bytes_match_one_block(self, monkeypatch, block):
        n = 9
        rng = np.random.default_rng(block)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        for plane in (amps.real, amps.imag):
            plane[rng.random(1 << n) < 0.2] = 0.0
            plane[rng.random(1 << n) < 0.2] = -0.0
        # every gate kind on every qubit, a general 2x2 map (as the factored
        # oracle applies) on every qubit, and XY on every ordered pair
        u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kinds = statevector.SINGLE_QUBIT_KINDS
        gates = [Gate(kind, (q,)) for kind in kinds for q in range(n)]
        gates += [Gate("XY", (a, b), 0.3 + 0.1 * a + 0.01 * b)
                  for a in range(n) for b in range(n) if a != b]

        def run():
            scratch = statevector._scratch(amps.size)
            out = {}
            for gate in gates:
                work = amps.copy()
                _apply_gate_inplace(work, gate, scratch)
                out[gate] = work.tobytes()
            for q in range(n):
                work = amps.copy()
                statevector._apply_single_inplace(work, q, u, scratch)
                out[q] = work.tobytes()
            return out

        expected = run()
        monkeypatch.setattr(statevector, "_BLOCK", block)
        blocks = statevector._blocks
        cuts = set()

        def recording_blocks(*views):
            for pieces in blocks(*views):
                cuts.add((views[0].ndim, pieces[0].ndim))
                yield pieces

        monkeypatch.setattr(statevector, "_blocks", recording_blocks)
        got = run()
        assert [key for key in expected if got[key] != expected[key]] == []
        # halves (outer, inner) cut on either axis; XY's quarters
        # (outer, middle, inner) on any of three
        assert cuts == {(2, 2), (2, 1), (3, 3), (3, 2), (3, 1)}


class TestCircuits:
    def test_norm_preserved_through_random_circuit(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            circuit = random_prep_circuit(6, rng)
            psi = run_circuit(circuit)
            assert np.linalg.norm(psi.amps) == pytest.approx(1.0, abs=1e-10)

    def test_gate_counts(self):
        rng = np.random.default_rng(2)
        circuit = random_prep_circuit(12, rng)
        kinds = [g.kind for g in circuit.gates]
        assert sum(k != "XY" for k in kinds) == 6
        assert sum(k == "XY" for k in kinds) == 3
        circuit4 = random_prep_circuit(4, rng)
        kinds4 = [g.kind for g in circuit4.gates]
        assert sum(k != "XY" for k in kinds4) == 2
        assert sum(k == "XY" for k in kinds4) == 1

    def test_layer_targets(self):
        rng = np.random.default_rng(4)
        circuit = random_prep_circuit(12, rng)
        singles = [g.qubits[0] for g in circuit.gates if g.kind != "XY"]
        assert len(set(singles)) == len(singles)
        paired = [q for g in circuit.gates if g.kind == "XY" for q in g.qubits]
        assert len(set(paired)) == len(paired)  # disjoint pairs by default

    def test_overlapping_pairs_mode(self):
        rng = np.random.default_rng(8)
        # overlapping mode may reuse qubits across XY gates; just check validity
        circuit = random_prep_circuit(8, rng, allow_overlapping_pairs=True)
        for gate in circuit.gates:
            if gate.kind == "XY":
                assert gate.qubits[0] != gate.qubits[1]

    def test_deterministic_replay(self):
        a = random_prep_circuit(10, np.random.default_rng(42))
        b = random_prep_circuit(10, np.random.default_rng(42))
        assert a == b

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            random_prep_circuit(1, np.random.default_rng(0))

    def test_fractional_qubit_count(self):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            random_prep_circuit(3.5, np.random.default_rng(0))

    def test_circuit_validates_targets(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("H", (5,)),))

    def test_json_round_trip(self, tmp_path):
        circuit = random_prep_circuit(6, np.random.default_rng(1))
        path = tmp_path / "circ.json"
        save_circuit(circuit, path)
        assert load_circuit(path) == circuit

    def test_dict_schema(self):
        circuit = Circuit(4, (Gate("H", (0,)), Gate("XY", (0, 3), 1.25)))
        data = circuit_to_dict(circuit)
        assert data["gates"][0] == {"kind": "H", "q": 0}
        assert data["gates"][1] == {"kind": "XY", "q1": 0, "q2": 3, "alpha": 1.25}
        assert circuit_from_dict(data) == circuit

    def test_content_hash_stable(self):
        circuit = Circuit(2, (Gate("H", (0,)),))
        assert circuit.content_hash() == Circuit(2, (Gate("H", (0,)),)).content_hash()
        assert circuit.content_hash() != Circuit(2, (Gate("X", (0,)),)).content_hash()


class TestExactExpectation:
    def test_z_on_zero(self):
        assert exact_expectation(
            Statevector(np.eye(2)[0]), Observable.from_strings([(1.0, "Z")])
        ) == pytest.approx(1.0)

    def test_bell_stabilizer(self):
        bell = Statevector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert exact_expectation(
            bell, Observable.from_strings([(1.0, "XX")])
        ) == pytest.approx(1.0, abs=1e-12)

    def test_y_on_plus(self):
        plus = run_circuit(Circuit(1, (Gate("H", (0,)),)))
        assert exact_expectation(
            plus, Observable.from_strings([(1.0, "Y")])
        ) == pytest.approx(0.0, abs=1e-12)

    def test_identity_normalization(self):
        rng = np.random.default_rng(6)
        psi = haar_random_state(4, rng)
        assert exact_expectation(
            psi, Observable.from_strings([(1.0, "IIII")])
        ) == pytest.approx(1.0, abs=1e-12)

    def test_against_dense_oracle(self, monkeypatch):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            psi = haar_random_state(n, rng)
            rows, coeffs = [], []
            for _ in range(int(rng.integers(1, 6))):
                rows.append(rng.integers(0, 4, n))
                coeffs.append(float(rng.uniform(-1, 1)))
            obs = Observable.from_rows(n, rows, coeffs)
            expected = np.vdot(psi.amps, dense_observable(obs) @ psi.amps).real
            # one slice for every state here, then slices of 1 and 8 basis states
            for slice_states in (1 << 16, 1, 8):
                monkeypatch.setattr(statevector, "_ORACLE_SLICE", slice_states)
                assert exact_expectation(psi, obs) == pytest.approx(expected, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(25)
        psi = haar_random_state(3, rng)
        a = Observable.from_strings([(0.7, "XZI")])
        b = Observable.from_strings([(0.2, "IYY"), (0.4, "ZII")])
        (axes_a, coeffs_a), (axes_b, coeffs_b) = a.rows(), b.rows()
        combined = Observable.from_rows(
            3, np.concatenate([axes_a, axes_b]), np.concatenate([coeffs_a, coeffs_b])
        )
        assert exact_expectation(psi, combined) == pytest.approx(
            exact_expectation(psi, a) + exact_expectation(psi, b), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_expectation(Statevector(np.eye(4)[0]), Observable.from_strings([(1.0, "X")]))

    def test_peak_is_one_slice(self):
        # a dense 20-qubit state, 16 MiB: the oracle holds, for a slice of
        # 2^16 basis states, its index, one buffer of conjugated partner
        # amplitudes, a sign array and two phase arrays, under 128 bytes a
        # basis state, whatever the state's size
        rng = np.random.default_rng(31)
        psi = haar_random_state(20, rng)
        obs = Observable.from_rows(20, rng.integers(0, 4, size=(3, 20)), [0.5, -0.25, 1.0])
        tracemalloc.start()
        try:
            exact_expectation(psi, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 16, peak

    def test_term_values_of_a_batch(self):
        # every row over a batch of states, duplicate rows and the identity
        # included, is the oracle's value on one state at a time
        rng = np.random.default_rng(29)
        n = 4
        rows = rng.integers(1, 4, (6, n)).astype(np.uint8)
        rows[:, 0] = 0
        rows = np.vstack([rows, rows[1], np.zeros(n, dtype=np.uint8), rows[3]])
        states = [haar_random_state(n, rng) for _ in range(5)]
        values = _term_values(np.stack([psi.amps for psi in states]), rows)
        assert values.shape == (len(rows), len(states))
        assert values[7].tolist() == [1.0] * len(states)
        for row, row_values in zip(rows, values):
            obs = Observable.from_rows(n, [row], [1.0])
            assert row_values.tolist() == [exact_expectation(psi, obs) for psi in states]


def gathered_term_values(amps, axes):
    """The oracle as an index gather: for each slice of ``_ORACLE_SLICE``
    basis states and each distinct row, the partner amplitudes are fetched
    by index and the phases rebuilt from the slice's index array."""
    x, z = (plane[:, 0] for plane in _planes(axes))
    keys, inverse = np.unique((x << np.uint64(32)) | z, return_inverse=True)
    values = np.ones((len(keys), len(amps)))
    for start in range(0, amps.shape[-1], statevector._ORACLE_SLICE):
        block = amps[:, start : start + statevector._ORACLE_SLICE]
        idx = np.arange(start, start + block.shape[-1], dtype=np.uint64)
        for k, key in enumerate(keys.tolist()):
            x, z = divmod(key, 1 << 32)
            if key:
                parity = np.bitwise_count(idx & np.uint64(z)) & 1
                phase = (1j ** (x & z).bit_count()) * (1.0 - 2.0 * parity.astype(float))
                permuted = amps[:, idx ^ np.uint64(x)]
                total = np.einsum("sb,b,sb->s", permuted.conj(), phase, block).real
                values[k] = values[k] + total if start else total
    return values[inverse.reshape(-1)]


def oracle_rows(n, rng):
    """Identity, X-only, Z-only, Y-bearing and mixed rows, two of them twice;
    the last qubit carries X, Y or Z in some row, so partners and signs
    reach across slices."""
    rows = [
        np.zeros(n, dtype=np.uint8),
        np.full(n, 1, dtype=np.uint8),
        np.where(rng.random(n) < 0.5, 3, 0),
        np.where(np.arange(n) == n - 1, 2, 0),
        np.where(np.arange(n) % 2 == 0, 1, 0),
        np.where(np.arange(n) == n - 1, 3, 1),
    ]
    rows += list(rng.integers(0, 4, (4, n)))
    rows += [rows[2], rows[7]]
    return np.array(rows, dtype=np.uint8)


class TestOracleBytes:
    # the bit-flipped views give the index gather's bytes, signed zeros
    # included, for every row kind, batch and slice size
    @pytest.mark.parametrize("n", range(1, 19))
    def test_matches_the_index_gather(self, monkeypatch, n):
        rng = np.random.default_rng(600 + n)
        rows = oracle_rows(n, rng)
        for batch in (1, 3):
            amps = rng.standard_normal((batch, 1 << n)) + 1j * rng.standard_normal((batch, 1 << n))
            amps[:, ::5] = 0.0
            amps[:, 1::7] = -0.0
            amps[:, 2::11] = complex(-0.0, 0.5)
            amps[:, 3::13] = complex(0.5, -0.0)
            # a slice of one or eight basis states only while there are at
            # most 2^10 slices: the gather loop walks them one at a time
            for slice_states in (1, 8, 1 << 16):
                if (1 << n) // slice_states > 1 << 10:
                    continue
                monkeypatch.setattr(statevector, "_ORACLE_SLICE", slice_states)
                got = _term_values(amps, rows)
                assert got.tobytes() == gathered_term_values(amps, rows).tobytes()


class TestTwoThreads:
    # From _TWO_THREAD_AMPS amplitudes on, the caller and one helper thread
    # share a state's gate blocks and oracle slices: every block's arithmetic
    # is unchanged and the slice totals are added in ascending order, so the
    # amplitudes and oracle values keep their bits.

    @staticmethod
    def slots_used(monkeypatch):
        """Record the slot of every item run through ``_on_two_threads``."""
        used, run = [], statevector._on_two_threads

        def recorded(items, work, threaded):
            def tagged(item, slot):
                used.append(slot)
                work(item, slot)

            run(items, tagged, threaded)

        monkeypatch.setattr(statevector, "_on_two_threads", recorded)
        return used

    @pytest.mark.parametrize("n", range(6, 11))
    def test_bytes_match_one_thread(self, monkeypatch, n):
        # every gate kind on every qubit and XY on every ordered pair (q1 > q2
        # and q1 < q2), in blocks of four amplitudes, with the oracles' rows
        # summed over slices of eight basis states.  Blocks this small run
        # with the interpreter lock held, so the threads switch every
        # microsecond to share them.
        rng = np.random.default_rng(700 + n)
        gates = [Gate(kind, (q,)) for q in range(n) for kind in statevector.SINGLE_QUBIT_KINDS]
        gates += [Gate("XY", (a, b), float(rng.uniform(0, 2 * math.pi)))
                  for a in range(n) for b in range(n) if a != b]
        circuit = Circuit(n, tuple(gates))
        rows = oracle_rows(n, rng)
        obs = Observable.from_rows(n, rows, rng.uniform(-1, 1, len(rows)))
        fobs = FactoredObservable(n, [(0.7, rng.uniform(-1, 1, (n, 4))),
                                      (-0.4, rng.uniform(-1, 1, (n, 4)))])
        monkeypatch.setattr(statevector, "_ORACLE_SLICE", 8)

        def run():
            psi = run_circuit(circuit)
            values = _term_values(psi.amps[None], rows)
            return (psi.amps.tobytes(), values.tobytes(),
                    exact_expectation(psi, obs), exact_expectation_factored(psi, fobs))

        expected = run()
        used = self.slots_used(monkeypatch)
        monkeypatch.setattr(statevector, "_TWO_THREAD_AMPS", 0)
        monkeypatch.setattr(statevector, "_BLOCK", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run()
        finally:
            sys.setswitchinterval(interval)
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2:] == expected[2:]
        assert set(used) == {0, 1}

    def test_n21_matches_one_thread(self, monkeypatch):
        # a default circuit at the smallest threaded size, after H on every
        # qubit so that every slice holds amplitude, and two rows whose X and
        # Y reach across slices, against the same run on one thread
        n = 21
        default = random_prep_circuit(n, np.random.default_rng(21))
        circuit = Circuit(n, tuple(Gate("H", (q,)) for q in range(n)) + default.gates)
        a, b = next(gate.qubits for gate in circuit.gates if gate.kind == "XY")
        rows = np.zeros((2, n), dtype=np.uint8)
        rows[0, [a, b, n - 1]] = 1, 2, 3
        rows[1, [0, n - 1]] = 1, 1

        def run():
            psi = run_circuit(circuit)
            return psi.amps.tobytes(), _term_values(psi.amps[None], rows).tobytes()

        used = self.slots_used(monkeypatch)
        threaded = run()
        assert set(used) == {0, 1}
        monkeypatch.setattr(statevector, "_TWO_THREAD_AMPS", 1 << 62)
        assert run() == threaded

    def test_concurrent_calls_keep_their_bits(self, monkeypatch):
        # three callers and their helpers on two cores, switching threads
        # every microsecond: a block run twice, lost or given another
        # thread's scratch shows in the amplitudes
        circuits = [random_prep_circuit(8, np.random.default_rng(730 + k),
                                        allow_overlapping_pairs=True) for k in range(3)]
        expected = [run_circuit(circuit).amps.tobytes() for circuit in circuits]
        monkeypatch.setattr(statevector, "_TWO_THREAD_AMPS", 0)
        monkeypatch.setattr(statevector, "_BLOCK", 4)
        got = [None] * 3

        def build(k):
            got[k] = run_circuit(circuits[k]).amps.tobytes()

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
        assert got == expected

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        # the helper's block raises; the caller's first block waits until it has
        caller, helper_failed = threading.current_thread(), threading.Event()
        blocks = statevector._blocks

        class Handoff:
            def __init__(self, views):
                self.views = views

            def __iter__(self):
                if threading.current_thread() is not caller:
                    helper_failed.set()
                    raise RuntimeError("block failed on the helper")
                assert helper_failed.wait(10)
                return iter(self.views)

        monkeypatch.setattr(statevector, "_TWO_THREAD_AMPS", 0)
        monkeypatch.setattr(statevector, "_BLOCK", 4)
        monkeypatch.setattr(statevector, "_blocks", lambda *views: map(Handoff, blocks(*views)))
        before = threading.active_count()
        for gate in (Gate("H", (3,)), Gate("XY", (5, 2), 0.4)):
            helper_failed.clear()
            with pytest.raises(RuntimeError, match="failed on the helper"):
                run_circuit(Circuit(8, (gate,)))
            assert threading.active_count() == before

    def test_below_the_constant_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise RuntimeError("thread started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        rng = np.random.default_rng(720)
        for n, state_of in ((20, run_circuit), (40, ProductState.from_circuit)):
            circuit = random_prep_circuit(n, rng)
            psi = state_of(circuit)
            obs = Observable.from_rows(n, rng.integers(0, 4, (3, n)), [0.5, -0.25, 1.0])
            assert math.isfinite(exact_expectation(psi, obs))
            assert math.isfinite(exact_expectation_factored(psi, projector_factored([0] * n)))
        monkeypatch.setattr(statevector, "_TWO_THREAD_AMPS", 1 << 20)
        with pytest.raises(RuntimeError, match="thread started"):
            run_circuit(Circuit(20, (Gate("H", (0,)),)))


class TestFactoredExpectation:
    def test_projector_on_own_state(self):
        psi = Statevector(np.eye(4)[0b10])  # |01>: qubit0=0, qubit1=1
        assert exact_expectation_factored(psi, projector_factored([0, 1])) == pytest.approx(1.0)

    def test_plus_tensor_zero(self):
        plus0 = run_circuit(Circuit(2, (Gate("H", (0,)),)))
        assert exact_expectation_factored(
            plus0, projector_factored([0, 0])
        ) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pauli_expansion(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            psi = haar_random_state(n, rng)
            factors = rng.uniform(-1, 1, size=(n, 4))
            fobs = FactoredObservable(n, ((float(rng.uniform(0.5, 1.5)), factors),))
            assert exact_expectation_factored(psi, fobs) == pytest.approx(
                exact_expectation(psi, fobs.to_observable()), abs=1e-10
            )


def dense_amplitudes(state):
    """Test-local oracle: the amplitudes of a product state, as the product
    over parts of each part's amplitude at its own bits of the index."""
    index = np.arange(1 << state.n_qubits)
    amps = np.ones(index.size, dtype=complex)
    for qubits, part in state.parts:
        local = sum(((index >> q) & 1) << i for i, q in enumerate(qubits))
        amps *= part.amps[local]
    return amps


def circuits_with_components():
    """Default and overlapping-pair circuits at N = 2..10, one XY chain."""
    rng = np.random.default_rng(61)
    for n in range(2, 11):
        yield random_prep_circuit(n, rng)
        yield random_prep_circuit(n, rng, allow_overlapping_pairs=True)
    chain = [Gate("XY", (q, q + 1), 0.1 * q + 0.3) for q in range(5)]
    yield Circuit(7, (Gate("H", (0,)), Gate("S", (6,)), *chain))


class TestProductState:
    def test_components_follow_two_qubit_gates(self):
        circuit = Circuit(6, (
            Gate("H", (4,)), Gate("XY", (4, 1), 0.5), Gate("XY", (3, 1), 1.0), Gate("X", (5,)),
        ))
        state = ProductState.from_circuit(circuit)
        assert [qubits for qubits, _ in state.parts] == [(0,), (1, 3, 4), (2,), (5,)]
        # local qubit i is global qubits[i]: H on 4 is local 2, XY(3, 1) is local (1, 0)
        local = Circuit(3, (Gate("H", (2,)), Gate("XY", (2, 0), 0.5), Gate("XY", (1, 0), 1.0)))
        assert np.array_equal(state.parts[1][1].amps, run_circuit(local).amps)

    def test_matches_dense_state(self):
        for circuit in circuits_with_components():
            state = ProductState.from_circuit(circuit)
            dense = run_circuit(circuit).amps
            assert np.max(np.abs(dense_amplitudes(state) - dense)) <= 1e-12

    def test_oracles_match_dense(self):
        rng = np.random.default_rng(62)
        for circuit in circuits_with_components():
            n = circuit.n_qubits
            state, dense = ProductState.from_circuit(circuit), run_circuit(circuit)
            assert len(state.parts) > 1 or n == 7
            obs = Observable.from_rows(n, rng.integers(0, 4, size=(20, n)), rng.uniform(-1, 1, 20))
            assert abs(exact_expectation(state, obs) - exact_expectation(dense, obs)) <= 1e-12
            for fobs in (
                projector_factored(rng.integers(0, 2, n).tolist()),
                FactoredObservable(n, [(0.7, rng.uniform(-1, 1, (n, 4))),
                                       (-0.4, rng.uniform(-1, 1, (n, 4)))]),
            ):
                product = exact_expectation_factored(state, fobs)
                assert abs(product - exact_expectation_factored(dense, fobs)) <= 1e-12

    def test_dense_state_is_one_part(self):
        psi = haar_random_state(3, np.random.default_rng(63))
        assert psi.parts == (((0, 1, 2), psi),)

    @pytest.mark.parametrize("n, parts", [
        (3, [((0,), 1), ((1,), 1)]),
        (2, [((1, 0), 2)]),
        (1, [((0,), 1), ((0,), 1)]),
        (3, [((0, 1, 2), 2)]),
    ], ids=["missing", "descending", "repeated", "size-mismatch"])
    def test_rejects_bad_parts(self, n, parts):
        with pytest.raises(ValueError, match="cover each qubit"):
            ProductState(n, [(qubits, Statevector(np.eye(1 << k)[0])) for qubits, k in parts])


class NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


class TestHaarStates:
    def test_normalized(self):
        rng = np.random.default_rng(51)
        for n in (1, 3, 6):
            assert np.linalg.norm(haar_random_state(n, rng).amps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, -1, 2.0, MAX_QUBITS + 1])
    def test_bad_qubit_count_rejected_before_drawing(self, n):
        # checked before 2^n normals are drawn: 2^27 of them need GiBs
        with pytest.raises(ValueError, match="n_qubits"):
            haar_random_state(n, NoDraws())

    def test_z_mean_vanishes(self):
        rng = np.random.default_rng(53)
        n_samples = 10_000
        z0 = Observable.from_strings([(1.0, "ZI")])
        values = np.array(
            [exact_expectation(haar_random_state(2, rng), z0) for _ in range(n_samples)]
        )
        stderr = values.std(ddof=1) / math.sqrt(n_samples)
        assert abs(values.mean()) <= 3 * stderr + 1e-12

    def test_basis_overlap_mean(self):
        rng = np.random.default_rng(59)
        n, n_samples = 3, 10_000
        proj = projector_factored([0] * n)
        values = np.array(
            [
                exact_expectation_factored(haar_random_state(n, rng), proj)
                for _ in range(n_samples)
            ]
        )
        stderr = values.std(ddof=1) / math.sqrt(n_samples)
        assert values.mean() == pytest.approx(2.0**-n, abs=3 * stderr)
