"""Statevector engine tests, including independent matrix oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from aqstate import statevector
from aqstate.pauli import (
    FactoredObservable,
    Observable,
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
    _apply_gate_inplace(amps, gate, np.empty_like(amps))
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
            scratch = np.empty(statevector._scratch_size(amps.size), dtype=complex)
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
        combined = Observable(3, a.terms + b.terms)
        assert exact_expectation(psi, combined) == pytest.approx(
            exact_expectation(psi, a) + exact_expectation(psi, b), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_expectation(Statevector(np.eye(4)[0]), Observable.from_strings([(1.0, "X")]))

    def test_peak_is_one_slice(self):
        # a dense 20-qubit state, 16 MiB: the oracle holds one slice of 2^16
        # basis states, its index, phases and gathered amplitudes, under 128
        # bytes a basis state, whatever the state's size
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


class TestHaarStates:
    def test_normalized(self):
        rng = np.random.default_rng(51)
        for n in (1, 3, 6):
            assert np.linalg.norm(haar_random_state(n, rng).amps) == pytest.approx(1.0, abs=1e-12)

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
