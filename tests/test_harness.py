"""Experiment harness tests: random observables, coverage reports, Haar
ensemble checks, and the attenuation study."""

import dataclasses
import json
import math

import numpy as np
import pytest

from aqstate import harness
from aqstate.estimator import estimate_observable
from aqstate.harness import (
    ExperimentConfig,
    check_haar_mixed_terms,
    check_readout_attenuation,
    haar_mixed_term_check,
    log_checkpoints,
    mixed_term_strings,
    noise_attenuation_study,
    random_observable,
    run_experiment,
    run_verification,
)
from aqstate.pauli import (
    Observable,
    factored_seminorms,
    projector_factored,
    seminorm,
    seminorm2,
)
from aqstate.snapshots import ApproximateState
from aqstate.statevector import (
    MAX_TOTAL_QUBITS,
    ProductState,
    circuit_from_dict,
    exact_expectation,
    run_circuit,
)


class TestRandomObservable:
    def test_unit_seminorm_at_25_qubits(self):
        rng = np.random.default_rng(1)
        obs = random_observable(25, 20, rng)
        assert obs.n_terms == 20
        assert seminorm(obs) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_modes(self):
        rng = np.random.default_rng(2)
        assert seminorm2(random_observable(4, 10, rng, "seminorm2")) == pytest.approx(
            1.0, abs=1e-12
        )
        raw = random_observable(4, 10, rng, "none")
        assert all(0.0 < c <= 1.0 for c in raw.rows()[1])

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValueError, match="'seminorm', 'seminorm2', 'none'.*'bogus'"):
            random_observable(4, 10, np.random.default_rng(2), "bogus")

    def test_mean_weight(self):
        # uniform axis choice gives expected weight 3N/4
        rng = np.random.default_rng(3)
        n, draws = 8, 400
        weights = [
            weight
            for _ in range(draws)
            for weight in np.count_nonzero(random_observable(n, 5, rng, "none").rows()[0], axis=1)
        ]
        mean = np.mean(weights)
        stderr = np.std(weights, ddof=1) / math.sqrt(len(weights))
        assert mean == pytest.approx(0.75 * n, abs=3 * stderr)

    def test_reproducible(self):
        a = random_observable(6, 8, np.random.default_rng(9))
        b = random_observable(6, 8, np.random.default_rng(9))
        assert a == b


def projector_bits(seed, n_observables):
    """The basis bitstrings of a projector experiment at N = 3."""
    cfg = ExperimentConfig(n_qubits=3, n_snapshots=10, seed=seed, n_observables=n_observables,
                           observable_kind="basis_projector")
    return [o["bits"] for o in run_experiment(cfg).observables]


class TestRandomProjector:
    def test_uniform_over_basis_states(self):
        draws = 4000
        counts = np.zeros(8)
        for bits in projector_bits(5, draws):
            counts[bits[0] + 2 * bits[1] + 4 * bits[2]] += 1
        expected = draws / 8
        assert np.all(np.abs(counts - expected) <= 4 * math.sqrt(expected))

    def test_seminorm2_closed_form(self):
        rng = np.random.default_rng(6)
        for n in (2, 5, 12):
            proj = projector_factored(rng.integers(0, 2, size=n).tolist())
            _, norm2 = factored_seminorms(proj)
            assert norm2**2 == pytest.approx(1.0 - 0.25**n, abs=1e-12)

    def test_reproducible(self):
        assert projector_bits(11, 5) == projector_bits(11, 5)


class TestCheckpoints:
    def test_ends_at_total(self):
        points = log_checkpoints(10_000)
        assert points[-1] == 10_000
        assert points == sorted(set(points))
        assert points[0] <= 100

    def test_small_budget(self):
        assert log_checkpoints(7) == [7]


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(
        n_qubits=4,
        n_snapshots=800,
        seed=77,
        n_observables=6,
        terms_per_observable=6,
    )
    return cfg, run_experiment(cfg)


class TestRunExperiment:

    def test_deterministic(self, small_report):
        cfg, report = small_report
        assert run_experiment(cfg).to_json() == report.to_json()

    def test_structure(self, small_report):
        cfg, report = small_report
        assert len(report.rows) == cfg.n_observables
        assert all(len(r.curve) == len(report.checkpoints) for r in report.rows)
        assert report.checkpoints[-1] == cfg.n_snapshots
        assert report.band == "bound"
        circuit = circuit_from_dict(report.circuit)
        assert circuit.content_hash() == report.circuit_hash

    def test_final_estimate_is_last_checkpoint(self, small_report):
        _, report = small_report
        for row in report.rows:
            assert row.estimate == row.curve[-1]

    def test_rows_report_empirical_spread(self, small_report):
        _, report = small_report
        data = json.loads(report.to_json())
        assert data["format_version"] == 2
        for row in data["rows"]:
            assert 0.0 < row["std_empirical"] < 3.0 * row["std_bound"]

    def test_band_counting_consistency(self, small_report):
        _, report = small_report
        for which, field in (("bound", "std_bound"), ("approx", "std_approx")):
            for k in (1, 2):
                recount = np.mean(
                    [
                        abs(r.estimate - r.oracle) <= k * getattr(r, field)
                        for r in report.rows
                    ]
                )
                assert report.fractions[which][f"within_{k}"] == pytest.approx(recount)

    def test_unit_seminorm_band(self, small_report):
        cfg, report = small_report
        for row in report.rows:
            assert row.std_bound == pytest.approx(1.0 / math.sqrt(cfg.n_snapshots), rel=1e-9)

    def test_band_scales_inverse_root_m(self):
        base = ExperimentConfig(n_qubits=3, n_snapshots=400, seed=5, n_observables=2,
                                terms_per_observable=4)
        wide = ExperimentConfig(n_qubits=3, n_snapshots=1600, seed=5, n_observables=2,
                                terms_per_observable=4)
        r1, r4 = run_experiment(base), run_experiment(wide)
        for a, b in zip(r1.rows, r4.rows):
            assert b.std_bound == pytest.approx(0.5 * a.std_bound, rel=1e-12)

    def test_prefix_curve_consistency(self, small_report):
        # curve entries equal, bit for bit, a fresh estimate on a state made
        # of the first m snapshots
        from aqstate.snapshots import snapshots_from_state
        from aqstate.harness import _snapshot_seed, _sub_rng, _TAG_CIRCUIT, _TAG_OBSERVABLES
        from aqstate.statevector import random_prep_circuit

        cfg, report = small_report
        circuit = random_prep_circuit(cfg.n_qubits, _sub_rng(cfg.seed, _TAG_CIRCUIT))
        psi = run_circuit(circuit)
        state = snapshots_from_state(psi, cfg.n_snapshots, _snapshot_seed(cfg.seed), cfg.p_err)
        obs_rng = _sub_rng(cfg.seed, _TAG_OBSERVABLES)
        first = random_observable(cfg.n_qubits, cfg.terms_per_observable, obs_rng,
                                  cfg.normalization)
        for m, value in zip(report.checkpoints, report.rows[0].curve):
            head = ApproximateState(
                state.outcomes[:m], state.thetas[:m], state.phis[:m], state.p_err, state.seed
            )
            assert estimate_observable(head, first).value == value

    def test_projector_experiment(self):
        cfg = ExperimentConfig(
            n_qubits=4,
            n_snapshots=600,
            seed=13,
            n_observables=5,
            observable_kind="basis_projector",
        )
        report = run_experiment(cfg)
        assert report.band == "approx"
        assert all(-0.05 <= r.oracle <= 1.05 for r in report.rows)
        assert all(o["kind"] == "basis_projector" for o in report.observables)
        assert all(len(o["bits"]) == 4 for o in report.observables)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_qubits=4, n_snapshots=10, seed=0, observable_kind="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(n_qubits=4, n_snapshots=10, seed=0, p_err=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"n_qubits": 4})
        with pytest.raises(ValueError, match="n_qubits"):
            ExperimentConfig(n_qubits=MAX_TOTAL_QUBITS + 1, n_snapshots=10, seed=0)

    @pytest.mark.parametrize("p_err", [np.float32(0.25), np.int64(0)], ids=repr)
    def test_numpy_rate_stored_as_python_number(self, p_err):
        # the report writes the config as JSON, which takes no NumPy scalar
        cfg = ExperimentConfig(n_qubits=4, n_snapshots=10, seed=0, p_err=p_err)
        assert type(cfg.p_err) in (int, float) and cfg.p_err == p_err
        json.dumps(dataclasses.asdict(cfg))

    @pytest.mark.parametrize("kind", ["random_pauli_sum", "basis_projector"])
    def test_beyond_dense_cap(self, kind):
        # 40 qubits: the state is a product of components of at most 2 qubits
        cfg = ExperimentConfig(n_qubits=40, n_snapshots=2000, seed=41, n_observables=5,
                               observable_kind=kind)
        report = run_experiment(cfg)
        assert len(report.rows) == 5
        # terms of weight ~30 give heavy-tailed snapshot values: Chebyshev
        # alone bounds a 10-std miss, to 1 % per row
        for row in report.rows:
            assert abs(row.estimate - row.oracle) <= 10 * row.std_bound

    @pytest.mark.parametrize("n", [4, 12, 40])
    def test_oracles_equal_one_at_a_time(self, monkeypatch, n):
        # the oracles are evaluated together, once per part of the state;
        # each must equal exact_expectation of its own observable bit for
        # bit, also when observables share strings
        made = []

        def sharing(n_qubits, n_terms, rng, normalization):
            obs = random_observable(n_qubits, n_terms, rng, normalization)
            if len(made) % 2:  # every other observable reuses its predecessor's rows
                prev = made[-1]
                obs = Observable.from_rows(n_qubits, np.concatenate([prev.axes, obs.axes]),
                                           np.concatenate([-0.5 * prev.coeffs, obs.coeffs]))
            made.append(obs)
            return obs

        monkeypatch.setattr(harness, "random_observable", sharing)
        for seed in (1, 2, 3):
            made.clear()
            report = run_experiment(ExperimentConfig(n, 300, seed, n_observables=6,
                                                     terms_per_observable=8))
            psi = ProductState.from_circuit(circuit_from_dict(report.circuit))
            assert len(made) == 6
            assert [row.oracle for row in report.rows] == [
                exact_expectation(psi, obs) for obs in made
            ]

    def test_csv_shape(self, small_report):
        cfg, report = small_report
        lines = report.curves_csv().strip().splitlines()
        assert lines[0].startswith("observable,")
        assert len(lines) == 1 + cfg.n_observables * len(report.checkpoints)


class TestMixedTerms:
    def test_two_term_product(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.25, "XZ")])
        axes, coeffs = mixed_term_strings(obs).rows()
        assert len(axes) == 1
        assert axes[0].tolist() == [0, 3]
        assert coeffs[0] == pytest.approx(2 * 3.0 * 0.5 * 0.25)

    def test_conflicting_pair_dropped(self):
        obs = Observable.from_strings([(1.0, "XI"), (1.0, "ZI")])
        assert mixed_term_strings(obs).n_terms == 0

    def test_single_term_has_no_pairs(self):
        obs = Observable.from_strings([(1.0, "XZ")])
        assert mixed_term_strings(obs).n_terms == 0


class TestHaarMixedTermCheck:
    def test_single_term_identically_zero(self):
        rng = np.random.default_rng(17)
        obs = Observable.from_strings([(0.7, "XYZ")])
        result = haar_mixed_term_check(100, obs, rng)
        assert result.mean == 0.0
        assert result.variance == 0.0

    def test_zero_mean_for_random_observable(self):
        mean, _ = check_haar_mixed_terms(4000, seed=19)
        assert mean.passed

    def test_projector_variance_bound(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            expansion = projector_factored([0] * n).to_observable()
            result = haar_mixed_term_check(4000, expansion, rng)
            assert result.variance < 0.75**n + 4.0 * result.stderr_variance

    def test_qubit_cap(self):
        rng = np.random.default_rng(29)
        obs = random_observable(6, 3, rng, normalization="none")
        with pytest.raises(ValueError):
            haar_mixed_term_check(100, obs, rng)

    def test_fractional_sample_count(self):
        rng = np.random.default_rng(30)
        obs = random_observable(2, 3, rng, normalization="none")
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            haar_mixed_term_check(2.5, obs, rng)


class TestNoiseAttenuation:
    def test_noiseless_ratios(self):
        rows = noise_attenuation_study(4, 20_000, 0.0, seed=3)
        assert [row.weight for row in rows] == [1, 2, 3, 4]
        for row in rows:
            assert row.attenuation == 1.0
            assert abs(row.estimate - row.oracle) <= 3 * row.std_bound

    def test_fractional_max_weight(self):
        with pytest.raises(ValueError, match="max_weight must be an integer"):
            noise_attenuation_study(2, 100, 0.0, seed=3, max_weight=1.5)

    def test_five_percent_weight_one(self):
        row = noise_attenuation_study(4, 50_000, 0.05, seed=5)[0]
        assert row.predicted == pytest.approx(0.9, abs=1e-12)
        assert row.observed_ratio == pytest.approx(0.9, abs=3 * row.std_bound)

    def test_attenuation_errors_within_band(self):
        assert check_readout_attenuation(5, 50_000, 0.1, seed=7, max_weight=5).passed

    def test_even_flip_cancellation(self):
        # flipping two outcomes inside the support leaves the product unchanged
        thetas, phis = np.array([[1.0, 2.0, 0.5]]), np.array([[0.3, 4.0, 5.5]])
        clean = ApproximateState(np.array([[1, -1, 1]]), thetas, phis)
        flipped = ApproximateState(np.array([[-1, 1, 1]]), thetas, phis)
        obs = Observable.from_strings([(1.0, "XYZ")])
        assert estimate_observable(flipped, obs).value == pytest.approx(
            estimate_observable(clean, obs).value, rel=1e-12
        )

    def test_weight_cap(self):
        with pytest.raises(ValueError):
            noise_attenuation_study(11, 100, 0.0, seed=0)


class TestVerificationSuite:
    def test_fast_suite_passes(self):
        results = run_verification(fast=True)
        assert all(r.passed for r in results), [
            f"{r.name}: {r.detail}" for r in results if not r.passed
        ]
        assert len(results) == 7
