"""Estimator function tests against exact oracles."""

import math
import sys

import numpy as np
import pytest

from aqstate import estimator
from aqstate.estimator import (
    EstimateResult,
    estimate_factored,
    estimate_observable,
    predict_attenuated,
    reconstruct_density,
    snapshot_values,
)
from aqstate.harness import check_second_moments, noise_attenuation_study
from aqstate.pauli import (
    FactoredObservable,
    Observable,
    projector_factored,
    seminorm,
    seminorm2,
)
from aqstate.snapshots import ApproximateState, snapshots_from_state
from aqstate.statevector import (
    Statevector,
    exact_expectation,
    haar_random_state,
)
from test_pauli import NEAR_IDENTITY_FORMS, random_signed_observable
from test_statevector import dense_observable

# (theta, phi) of the X, Y and Z measurement directions
X_DIR = (math.pi / 2, 0.0)
Y_DIR = (math.pi / 2, math.pi / 2)
Z_DIR = (0.0, 0.0)


def handmade_state(outcomes, directions):
    """ApproximateState from explicit rows of outcomes and (theta, phi) pairs."""
    angles = np.array(directions, dtype=float)
    return ApproximateState(np.asarray(outcomes), angles[..., 0], angles[..., 1])


def values_of(state, obs):
    return snapshot_values(state, [obs])[0]


class TestR1:
    # the single-qubit estimator: 1 for I, 3*m*n_a for axis a
    def test_pauli_examples(self):
        state = handmade_state([[1], [-1], [-1]], [[X_DIR], [Z_DIR], [Y_DIR]])
        assert values_of(state, monomial("X"))[0] == pytest.approx(3.0, abs=1e-12)
        assert values_of(state, monomial("Z"))[1] == pytest.approx(-3.0, abs=1e-12)
        assert values_of(state, monomial("I"))[2] == 1.0

    def test_operator_examples(self):
        projector = projector_factored([0])  # |0><0| = (I + Z)/2
        state = handmade_state([[1], [-1]], [[Z_DIR], [Z_DIR]])
        assert values_of(state, projector) == pytest.approx([2.0, -1.0], abs=1e-12)

    def test_operator_is_linear_in_paulis(self):
        rng = np.random.default_rng(2)
        state = snapshots_from_state(haar_random_state(1, rng), 50, seed=2)
        paulis = [values_of(state, monomial(axis)) for axis in "XYZ"]
        for _ in range(50):
            a0, ax, ay, az = row = rng.uniform(-1, 1, 4)
            parts = a0 + ax * paulis[0] + ay * paulis[1] + az * paulis[2]
            values = values_of(state, FactoredObservable(1, ((1.0, [row]),)))
            assert values == pytest.approx(parts, abs=1e-12)


def monomial(label):
    """A Pauli string as a one-term observable with coefficient 1."""
    return Observable.from_strings([(1.0, label)])


class TestEstimatePauliString:
    def test_identity_is_exact(self):
        state = snapshots_from_state(Statevector(np.eye(4)[0]), 50, seed=1)
        result = estimate_observable(state, monomial("II"))
        assert result.value == 1.0
        assert result.std_bound == 0.0
        assert result.std_approx == 0.0
        assert result.std_empirical == 0.0

    def test_single_snapshot_product(self):
        state = handmade_state([[1, -1]], [[X_DIR, Z_DIR]])
        result = estimate_observable(state, monomial("XZ"))
        assert result.value == pytest.approx(-9.0, abs=1e-12)
        assert result.std_empirical is None

    def test_z_on_zero_state(self):
        n, m = 3, 20_000
        state = snapshots_from_state(Statevector(np.eye(1 << n)[0]), m, seed=3)
        for k in range(n):
            obs = monomial("I" * k + "Z" + "I" * (n - k - 1))
            result = estimate_observable(state, obs)
            assert result.std_bound == pytest.approx(math.sqrt(3.0 / m))
            assert result.value == pytest.approx(1.0, abs=3 * result.std_bound)

    def test_qubit_count_mismatch(self):
        state = snapshots_from_state(Statevector(np.eye(4)[0]), 10, seed=0)
        with pytest.raises(ValueError):
            estimate_observable(state, monomial("X"))


class TestStdEmpirical:
    def test_z_on_zero_state_second_moment(self):
        # per-snapshot value 3*m*n_z has mean 1 and second moment 9 <n_z^2> = 3,
        # so the per-snapshot spread is sqrt(2)
        m = 20_000
        state = snapshots_from_state(Statevector(np.eye(2)[0]), m, seed=41)
        result = estimate_observable(state, monomial("Z"))
        expected = math.sqrt(2.0 / m)
        assert result.std_empirical == pytest.approx(expected, rel=0.03)
        assert result.std_empirical <= result.std_bound

    def test_is_sample_std_of_snapshot_values(self):
        psi = haar_random_state(3, np.random.default_rng(43))
        state = snapshots_from_state(psi, 700, seed=43)
        obs = random_signed_observable(3, 6, np.random.default_rng(44))
        (values,) = snapshot_values(state, [obs])
        result = estimate_observable(state, obs)
        assert result.std_empirical == float(np.std(values, ddof=1)) / math.sqrt(700)
        assert result.value == float(np.sum(values)) / 700

    def test_factored_reports_spread(self):
        state = snapshots_from_state(Statevector(np.eye(4)[0]), 5_000, seed=45)
        result = estimate_factored(state, projector_factored([0, 0]))
        assert result.std_empirical is not None and math.isfinite(result.std_empirical)
        assert result.std_empirical > 0.0

    def test_none_for_one_snapshot(self):
        state = handmade_state([[1]], [[Z_DIR]])
        assert estimate_factored(state, projector_factored([0])).std_empirical is None


class TestEstimateObservable:
    def test_identity_exact(self):
        state = snapshots_from_state(Statevector(np.eye(4)[0]), 64, seed=5)
        result = estimate_observable(state, Observable.from_strings([(1.0, "II")]))
        assert result.value == 1.0

    def test_scalar_multiple_of_monomial(self):
        rng = np.random.default_rng(7)
        psi = haar_random_state(3, rng)
        state = snapshots_from_state(psi, 500, seed=7)
        single = estimate_observable(state, Observable.from_strings([(1.0, "XIZ")]))
        scaled = estimate_observable(state, Observable.from_strings([(2.5, "XIZ")]))
        assert scaled.value == pytest.approx(2.5 * single.value, rel=1e-12)
        assert scaled.std_bound == pytest.approx(2.5 * single.std_bound, rel=1e-12)

    def test_linearity(self):
        psi = haar_random_state(3, np.random.default_rng(9))
        state = snapshots_from_state(psi, 300, seed=9)
        a = Observable.from_strings([(0.8, "XZI"), (0.1, "IIY")])
        b = Observable.from_strings([(0.5, "ZZZ")])
        (axes_a, coeffs_a), (axes_b, coeffs_b) = a.scaled(2.0).rows(), b.scaled(-3.0).rows()
        combined = Observable.from_rows(
            3, np.concatenate([axes_a, axes_b]), np.concatenate([coeffs_a, coeffs_b])
        )
        lhs = estimate_observable(state, combined).value
        rhs = 2.0 * estimate_observable(state, a).value - 3.0 * estimate_observable(state, b).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_error_fields_use_seminorms(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.5, "XZ")])
        state = snapshots_from_state(Statevector(np.eye(4)[0]), 400, seed=11)
        result = estimate_observable(state, obs)
        assert result.std_bound == pytest.approx(seminorm(obs) / 20.0)
        assert result.std_approx == pytest.approx(seminorm2(obs) / 20.0)
        assert result.std_approx <= result.std_bound

    def test_bound_holds_across_seeds(self):
        # |estimate - oracle| <= 3 ||O|| / sqrt(M) in at least 99 of 100 runs
        rng = np.random.default_rng(13)
        psi = haar_random_state(4, rng)
        obs = random_signed_observable(4, 20, rng)
        oracle = exact_expectation(psi, obs)
        m = 10_000
        bound = 3.0 * seminorm(obs) / math.sqrt(m)
        hits = sum(
            abs(estimate_observable(snapshots_from_state(psi, m, seed=s), obs).value - oracle)
            <= bound
            for s in range(100)
        )
        assert hits >= 99

    def test_unbiased_over_many_states(self):
        # mean over 200 independent approximate states stays within
        # 4 * ||O|| / sqrt(200 * M) of the oracle
        rng = np.random.default_rng(14)
        psi = haar_random_state(3, rng)
        obs = random_signed_observable(3, 10, rng)
        oracle = exact_expectation(psi, obs)
        runs, m = 200, 1000
        mean = np.mean(
            [estimate_observable(snapshots_from_state(psi, m, seed=s), obs).value for s in range(runs)]
        )
        assert mean == pytest.approx(oracle, abs=4.0 * seminorm(obs) / math.sqrt(runs * m))


class TestEstimateFactored:
    def test_projector_on_own_basis_state(self):
        m = 40_000
        state = snapshots_from_state(Statevector(np.eye(8)[0b101]), m, seed=15)
        proj = projector_factored([1, 0, 1])
        result = estimate_factored(state, proj)
        assert result.value == pytest.approx(1.0, abs=3.0 / math.sqrt(m))

    def test_projector_on_orthogonal_state(self):
        m = 40_000
        state = snapshots_from_state(Statevector(np.eye(8)[0b000]), m, seed=17)
        result = estimate_factored(state, projector_factored([1, 0, 1]))
        assert result.value == pytest.approx(0.0, abs=3.0 / math.sqrt(m))

    def test_agrees_with_pauli_expansion(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 4):
            psi = haar_random_state(n, rng)
            state = snapshots_from_state(psi, 200, seed=19 + n)
            factors = rng.uniform(-1, 1, (n, 4))
            fobs = FactoredObservable(n, ((float(rng.uniform(0.5, 2.0)), factors),))
            direct = estimate_factored(state, fobs)
            expanded = estimate_observable(state, fobs.to_observable())
            assert direct.value == pytest.approx(expanded.value, abs=1e-10)
            assert direct.std_bound == pytest.approx(expanded.std_bound, rel=1e-10)

    def test_qubit_count_mismatch(self):
        state = snapshots_from_state(Statevector(np.eye(4)[0]), 10, seed=0)
        with pytest.raises(ValueError):
            estimate_factored(state, projector_factored([0]))

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="the closed form's seminorm2 comes out above its seminorm")
    def test_near_identity_estimate(self):
        # a valid estimate, refused as "std_approx cannot exceed std_bound"
        coeff, row = NEAR_IDENTITY_FORMS[1]
        state = snapshots_from_state(Statevector(np.eye(2)[0]), 100, seed=0)
        result = estimate_factored(state, FactoredObservable(1, [(coeff, [row])]))
        assert result.std_approx <= result.std_bound


class TestReconstructDensity:
    def test_trace_one(self):
        rng = np.random.default_rng(21)
        psi = haar_random_state(2, rng)
        state = snapshots_from_state(psi, 500, seed=21)
        rho = reconstruct_density(state)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho).imag == pytest.approx(0.0, abs=1e-12)

    def test_zero_state_convergence(self):
        m = 100_000
        state = snapshots_from_state(Statevector(np.eye(2)[0]), m, seed=23)
        rho = reconstruct_density(state)
        limit = 5.0 * math.sqrt(3.0) / math.sqrt(m)
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) <= limit

    def test_matches_estimator_functional(self):
        rng = np.random.default_rng(25)
        for n in (1, 2, 3):
            psi = haar_random_state(n, rng)
            state = snapshots_from_state(psi, 300, seed=25 + n)
            rho = reconstruct_density(state)
            obs = random_signed_observable(n, 4, rng)
            via_density = np.trace(rho @ dense_observable(obs)).real
            via_estimator = estimate_observable(state, obs).value
            assert via_density == pytest.approx(via_estimator, abs=1e-10)

    def test_qubit_cap(self):
        state = snapshots_from_state(Statevector(np.eye(16)[0]), 10, seed=0)
        with pytest.raises(ValueError):
            reconstruct_density(state)


class TestWeightTable:
    def test_read_only_through_snapshot_values(self, monkeypatch):
        # the density and the noise study take their values from one
        # snapshot_values call each, the study for all its weights at once
        callers, build = [], estimator._weight_table

        def traced(state):
            callers.append(sys._getframe(1).f_code.co_name)
            return build(state)

        monkeypatch.setattr(estimator, "_weight_table", traced)
        reconstruct_density(handmade_state([[1, -1]], [[Z_DIR, X_DIR]]))
        assert len(noise_attenuation_study(3, 200, 0.05, seed=4)) == 3
        assert callers == ["snapshot_values"] * 2


class TestSecondMoments:
    def test_pauli_products_average_to_three_delta(self):
        assert check_second_moments(200_000, 0.05, seed=27, snapshot_seed=27).passed


class TestNoisePredictions:
    # a weight-r term is attenuated by 1 - 2*p_odd, where p_odd is the
    # probability of an odd number of flips among its r qubits
    @staticmethod
    def attenuation(r, p):
        return predict_attenuated(monomial("X" * r), [1.0], p)

    def test_p_odd_examples(self):
        assert self.attenuation(1, 0.05) == pytest.approx(1 - 2 * 0.05, abs=1e-15)
        assert self.attenuation(7, 0.0) == 1.0
        assert self.attenuation(2, 0.05) == pytest.approx(1 - 2 * 0.095, abs=1e-15)

    def test_p_odd_binomial_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            r = int(rng.integers(1, 9))
            p = float(rng.uniform(0, 0.5))
            brute = sum(
                math.comb(r, k) * p**k * (1 - p) ** (r - k)
                for k in range(1, r + 1, 2)
            )
            assert self.attenuation(r, p) == pytest.approx(1 - 2 * brute, abs=1e-12)

    def test_predict_attenuated_noiseless(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.25, "ZZ")])
        values = [0.3, -0.7]
        assert predict_attenuated(obs, values, 0.0) == pytest.approx(
            0.5 * 0.3 + 0.25 * -0.7
        )

    def test_predict_attenuated_half_kills_all_but_identity(self):
        obs = Observable.from_strings([(2.0, "II"), (0.5, "XI"), (0.25, "ZZ")])
        # canonical order sorts the identity first
        values = [1.0, 0.3, -0.7]
        identity_index = np.flatnonzero(~obs.rows()[0].any(axis=1))[0]
        assert predict_attenuated(obs, values, 0.5) == pytest.approx(
            2.0 * values[identity_index]
        )

    def test_length_mismatch(self):
        obs = Observable.from_strings([(0.5, "XI")])
        with pytest.raises(ValueError):
            predict_attenuated(obs, [1.0, 2.0], 0.1)

    @pytest.mark.parametrize("p", [math.nan, -0.1, 1.0, "0.1"])
    def test_rate_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="p_err"):
            predict_attenuated(monomial("X"), [1.0], p)

    def test_noisy_estimate_matches_prediction(self):
        n, m, p = 3, 50_000, 0.08
        rng = np.random.default_rng(31)
        psi = haar_random_state(n, rng)
        state = snapshots_from_state(psi, m, seed=31, p_err=p)
        obs = random_signed_observable(n, 6, rng)
        exact_terms = [
            exact_expectation(psi, Observable.from_rows(n, [s], [1.0])) for s in obs.rows()[0]
        ]
        predicted = predict_attenuated(obs, exact_terms, p)
        estimate = estimate_observable(state, obs)
        assert estimate.value == pytest.approx(predicted, abs=3 * estimate.std_bound)


class TestEstimateResult:
    def test_rejects_inverted_error_fields(self):
        with pytest.raises(ValueError):
            EstimateResult(0.0, 0.1, 0.2, 10)
