"""Pauli algebra, observables, and seminorm tests."""

import itertools
import math

import numpy as np
import pytest

from aqstate.harness import check_seminorm_hierarchy
from aqstate.pauli import (
    FactoredObservable,
    Observable,
    PauliString,
    factored_from_dict,
    factored_seminorms,
    load_observable,
    normalize_to_unit_seminorm,
    observable_from_dict,
    observable_to_dict,
    projector_factored,
    projector_seminorms,
    save_observable,
    seminorm,
    seminorm1,
    seminorm2,
    shot_budget,
)
from aqstate.snapshots import ApproximateState


def term_labels(obs):
    """Label -> coefficient of each term, read through the file format."""
    return {t["pauli"]: t["coeff"] for t in observable_to_dict(obs)["terms"]}


def seminorm_bruteforce(obs):
    """Independent oracle: explicit double loop over term labels."""
    labels = [(c, p) for p, c in term_labels(obs).items() if p.strip("I")]
    total = 0.0
    for ci, si in labels:
        for cj, sj in labels:
            r, delta = 0, 1
            for a, b in zip(si, sj):
                if a != "I" and b != "I":
                    r += 1
                    if a != b:
                        delta = 0
            total += (3.0**r) * delta * abs(ci) * abs(cj)
    return math.sqrt(total)


def random_signed_observable(n_qubits, n_terms, rng):
    rows, coeffs = [], []
    for _ in range(n_terms):
        rows.append(rng.integers(0, 4, n_qubits))
        coeffs.append(rng.uniform(-1.0, 1.0))
    return Observable.from_rows(n_qubits, rows, coeffs)


class TestPauliString:
    # a Pauli string is one term row: axes 0..3 for I, X, Y, Z
    def test_label_round_trip(self):
        p = PauliString([1, 0, 3, 2])
        assert p.n_qubits == 4
        assert repr(p) == "PauliString('XIZY')"
        obs = Observable(4, ((1.0, p),))
        assert term_labels(obs) == {"XIZY": 1.0}
        assert obs == Observable.from_strings([(1.0, "XIZY")])
        assert obs.terms == ((1.0, p),)

    def test_weight_examples(self):
        assert PauliString([1, 0, 3]).weight == 2
        assert PauliString([0, 0]).weight == 0
        assert PauliString([1, 2, 3]).weight == 3

    def test_out_of_range_qubit(self):
        # a row wider than the observable acts on a qubit it does not have
        with pytest.raises(ValueError):
            Observable(2, ((1.0, PauliString([0, 0, 1])),))

    @pytest.mark.parametrize("row", [[], [[1, 0]], [0, 4]])
    def test_bad_rows_rejected(self, row):
        with pytest.raises(ValueError):
            PauliString(row)

    def test_read_only_row(self):
        p = PauliString(np.array([1, 0]))
        assert p.axes.dtype == np.uint8 and not p.axes.flags.writeable
        with pytest.raises(AttributeError):
            p.axes = np.zeros(2, dtype=np.uint8)

    def test_hashable(self):
        assert PauliString([1, 0]) == PauliString(np.array([1, 0], dtype=np.uint8))
        assert len({PauliString([1, 0]), PauliString((1, 0))}) == 1
        assert PauliString([1, 0]) != PauliString([1, 0, 0])


class TestPairCompat:
    # a two-term observable's squared seminorm is 3^r_a + 3^r_b plus
    # 2*delta*3^r for the pair's compatibility delta and overlap r
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ("XI", "ZI", (0, 1)),
            ("XI", "XZ", (1, 1)),
            ("XY", "XY", (1, 2)),
            ("II", "XY", (1, 0)),
        ],
    )
    def test_examples(self, a, b, expect):
        delta, r = expect
        weights = [len(label) - label.count("I") for label in (a, b)]
        pair = 2 * delta * 3**r if all(weights) else 0  # the identity has no pairs
        expected = sum(3**w for w in weights if w) + pair
        assert seminorm(Observable.from_strings([(1.0, a), (1.0, b)])) ** 2 == pytest.approx(expected)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            a, b = ("".join(rng.choice(list("IXYZ"), n)) for _ in range(2))
            ca, cb = rng.uniform(-1, 1, 2)
            forward = Observable.from_strings([(ca, a), (cb, b)])
            assert seminorm(forward) == seminorm(Observable.from_strings([(cb, b), (ca, a)]))
            assert seminorm(forward) == pytest.approx(seminorm_bruteforce(forward), rel=1e-12)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            Observable.from_strings([(1.0, "X"), (1.0, "XI")])


class TestObservable:
    def test_canonicalization_merges_duplicates(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.25, "XI"), (1.0, "ZZ")])
        assert len(obs.terms) == 2
        assert term_labels(obs) == {"XI": 0.75, "ZZ": 1.0}

    def test_zero_terms_dropped(self):
        obs = Observable.from_strings([(0.5, "XI"), (-0.5, "XI")])
        assert obs.terms == ()

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            Observable(2, ((1.0, PauliString([1])),))

    def test_canonical_order_and_merge(self):
        obs = Observable.from_strings(
            [(0.1, "ZI"), (0.2, "IX"), (0.3, "XY"), (0.4, "II"), (0.5, "XI"), (0.7, "ZI")]
        )
        # sorted by support, ((qubit, axis), ...): () < ((0,X),) < ((0,X),(1,Y)) < ((0,Z),) < ((1,X),)
        assert list(term_labels(obs)) == ["II", "XI", "XY", "ZI", "IX"]
        # duplicates are summed in input order, starting from 0.0
        assert obs.terms[3][0] == 0.0 + 0.1 + 0.7
        assert obs.n_terms == 5

    def test_rows_and_strings_agree(self):
        rows = np.array([[3, 0, 1], [0, 0, 0], [3, 0, 1], [0, 2, 0]])
        coeffs = [0.5, -1.0, 0.25, 2.0]
        obs = Observable.from_rows(3, rows, coeffs)
        strings = Observable(3, tuple((c, PauliString(row)) for c, row in zip(coeffs, rows)))
        labels = Observable.from_strings([(0.5, "ZIX"), (-1.0, "III"), (0.25, "zix"), (2.0, "IYI")])
        assert obs == strings == labels
        assert hash(obs) == hash(strings) == hash(labels)
        assert obs != Observable.from_rows(3, rows, [0.5, -1.0, 0.25, 2.5])
        assert obs != Observable.from_rows(3, rows[:, [1, 0, 2]], coeffs)

    def test_bad_rows_rejected(self):
        with pytest.raises(ValueError):
            Observable.from_rows(2, np.array([[0, 4]]), [1.0])
        with pytest.raises(ValueError):
            Observable.from_rows(2, np.array([[0, 1]]), [1.0, 2.0])
        with pytest.raises(ValueError):
            Observable.from_rows(3, np.array([[0, 1]]), [1.0])

    def test_terms_built_on_demand(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.25, "IZ")])
        seminorm(obs)
        assert "terms" not in vars(obs)
        assert obs.terms is obs.terms

    def test_immutable(self):
        obs = Observable.from_strings([(1.0, "X")])
        with pytest.raises(AttributeError):
            obs.n_qubits = 2

    @pytest.mark.parametrize("label", ["XQ", "X?", "X\u00e9", "X\u0131", "X "])
    def test_unknown_label_characters(self, label):
        with pytest.raises(ValueError, match="unknown Pauli axis"):
            Observable.from_strings([(1.0, label)])

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, coeff):
        with pytest.raises(ValueError, match="finite"):
            Observable.from_strings([(coeff, "XI")])
        with pytest.raises(ValueError, match="finite"):
            FactoredObservable(1, ((coeff, [[0.5, 0.0, 0.0, 0.5]]),))
        with pytest.raises(ValueError, match="finite"):
            FactoredObservable(1, ((1.0, [[0.5, coeff, 0.0, 0.0]]),))

    def test_overflowing_merge_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Observable.from_strings([(1e308, "X"), (1e308, "X")])


class TestSeminorms:
    def test_sigma_x(self):
        obs = Observable.from_strings([(1.0, "X")])
        assert seminorm(obs) == pytest.approx(math.sqrt(3), abs=1e-15)
        assert seminorm2(obs) == pytest.approx(math.sqrt(3), abs=1e-15)
        assert seminorm1(obs) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_weight_r_monomial(self):
        for r, label in [(1, "XII"), (2, "XZI"), (3, "XYZ")]:
            obs = Observable.from_strings([(1.0, label)])
            assert seminorm(obs) == pytest.approx(3.0 ** (r / 2), rel=1e-15)

    def test_two_term_example(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.5, "XZ")])
        assert seminorm(obs) == pytest.approx(math.sqrt(4.5), abs=1e-14)
        assert seminorm2(obs) == pytest.approx(math.sqrt(3.0), abs=1e-14)
        assert seminorm1(obs) == pytest.approx(0.5 * math.sqrt(3) + 1.5, abs=1e-14)

    def test_identity_only_is_zero(self):
        obs = Observable.from_strings([(2.0, "III")])
        assert seminorm(obs) == 0.0
        assert seminorm2(obs) == 0.0
        assert seminorm1(obs) == 0.0

    def test_against_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            obs = random_signed_observable(int(rng.integers(1, 7)), int(rng.integers(1, 9)), rng)
            assert seminorm(obs) == pytest.approx(seminorm_bruteforce(obs), rel=1e-12)

    def test_hierarchy(self):
        assert check_seminorm_hierarchy(500, seed=17).passed

    def test_extension_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            obs = random_signed_observable(3, 5, rng)
            for extra in (1, 4):
                wide = Observable(
                    3 + extra,
                    tuple((c, PauliString(np.pad(p.axes, (0, extra)))) for c, p in obs.terms),
                )
                assert seminorm(wide) == pytest.approx(seminorm(obs), rel=1e-14)
                assert seminorm2(wide) == pytest.approx(seminorm2(obs), rel=1e-14)
                assert seminorm1(wide) == pytest.approx(seminorm1(obs), rel=1e-14)

    def test_scaling(self):
        rng = np.random.default_rng(29)
        obs = random_signed_observable(4, 6, rng)
        for c in (-2.0, 0.5, 3.7):
            assert seminorm(obs.scaled(c)) == pytest.approx(abs(c) * seminorm(obs), rel=1e-13)


class TestStdBound:
    # the standard-deviation bound of M snapshots is seminorm/sqrt(M)
    def test_unit_seminorm_budget(self):
        obs = normalize_to_unit_seminorm(
            Observable.from_strings([(0.3, "XZ"), (0.9, "YI")])
        )
        assert seminorm(obs) / math.sqrt(10_000) == pytest.approx(0.01, rel=1e-10)

    def test_sigma_x_three_snapshots(self):
        assert seminorm(Observable.from_strings([(1.0, "X")])) / math.sqrt(3) == pytest.approx(1.0)

    def test_identity_zero(self):
        assert seminorm(Observable.from_strings([(1.0, "II")])) / math.sqrt(7) == 0.0

    def test_zero_snapshots_rejected(self):
        # a bound over M = 0 snapshots never arises: a state needs one snapshot
        with pytest.raises(ValueError):
            ApproximateState(np.ones((0, 1)), np.zeros((0, 1)), np.zeros((0, 1)))

    def test_shot_budget(self):
        obs = Observable.from_strings([(1.0, "X")])
        m = shot_budget(obs, 0.01)
        assert seminorm(obs) / math.sqrt(m) <= 0.01 < seminorm(obs) / math.sqrt(m - 1)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.inf, math.nan, 1e-300])
    def test_shot_budget_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            shot_budget(Observable.from_strings([(1.0, "X")]), epsilon)


class TestNormalization:
    def test_scalar_rescale(self):
        obs = normalize_to_unit_seminorm(Observable.from_strings([(2.0, "X")]))
        assert seminorm(obs) == pytest.approx(1.0, abs=1e-12)
        assert obs.terms[0][0] == pytest.approx(2.0 / math.sqrt(12.0))

    def test_fixed_point(self):
        obs = normalize_to_unit_seminorm(Observable.from_strings([(0.4, "XZ"), (0.1, "YY")]))
        again = normalize_to_unit_seminorm(obs)
        for (c1, _), (c2, _) in zip(obs.terms, again.terms):
            assert c1 == pytest.approx(c2, rel=1e-12)

    def test_example_division(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.5, "XZ")])
        unit = normalize_to_unit_seminorm(obs)
        for (cu, _), (c, _) in zip(unit.terms, obs.terms):
            assert cu == pytest.approx(c / math.sqrt(4.5), rel=1e-12)

    def test_seminorm2_flag(self):
        obs = Observable.from_strings([(0.5, "XI"), (0.5, "XZ")])
        unit = normalize_to_unit_seminorm(obs, which="seminorm2")
        assert seminorm2(unit) == pytest.approx(1.0, abs=1e-12)

    def test_zero_seminorm_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_unit_seminorm(Observable.from_strings([(1.0, "II")]))


class TestProjectors:
    def test_factored_single_bit(self):
        proj = projector_factored([0])
        assert proj.coeffs.tolist() == [1.0]
        assert proj.factors.tolist() == [[[0.5, 0.0, 0.0, 0.5]]]

    def test_factored_sign_flip(self):
        proj = projector_factored([1, 1])
        assert proj.factors.tolist() == [[[0.5, 0.0, 0.0, -0.5]] * 2]

    def test_expansion_one_qubit(self):
        obs = projector_factored([0]).to_observable()
        assert term_labels(obs) == {"I": 0.5, "Z": 0.5}

    def test_expansion_two_qubits_coefficients(self):
        obs = projector_factored([0, 1]).to_observable()
        assert len(obs.terms) == 4
        assert all(abs(c) == 0.25 for c, _ in obs.terms)

    def test_expansion_matches_factored(self):
        # |x><x| = 2^-N sum over subsets S of (-1)^(sum of x over S) Z_S
        rng = np.random.default_rng(31)
        for n in range(1, 5):
            bits = [int(b) for b in rng.integers(0, 2, n)]
            expanded = projector_factored(bits).to_observable()
            direct = {
                "".join("Z" if q in subset else "I" for q in range(n)):
                    (-1) ** sum(bits[q] for q in subset) / 2**n
                for k in range(n + 1)
                for subset in itertools.combinations(range(n), k)
            }
            assert term_labels(expanded) == pytest.approx(direct)

    def test_seminorm2_closed_form(self):
        for n in range(1, 7):
            obs = projector_factored([1] * n).to_observable()
            assert seminorm2(obs) ** 2 == pytest.approx(1.0 - 0.25**n, abs=1e-12)

    def test_seminorm_bound(self):
        for n in range(1, 7):
            obs = projector_factored([0] * n).to_observable()
            assert seminorm(obs) ** 2 <= 1.5**n
            # the N = 3 instance from the brute-force pair sum
            if n == 3:
                assert seminorm(obs) ** 2 == pytest.approx(201.0 / 64.0, rel=1e-12)

    def test_closed_forms_match_bruteforce(self):
        rng = np.random.default_rng(37)
        for n in range(1, 7):
            bits = [int(b) for b in rng.integers(0, 2, n)]
            obs = projector_factored(bits).to_observable()
            closed = projector_seminorms(n)
            assert closed[0] == pytest.approx(seminorm(obs), rel=1e-13)
            assert closed[1] == pytest.approx(seminorm2(obs), rel=1e-13)
            assert closed[2] == pytest.approx(seminorm1(obs), rel=1e-13)

    def test_expansion_cap(self):
        with pytest.raises(ValueError):
            projector_factored([0] * 13).to_observable()


class TestFactoredSeminorms:
    def test_projector_closed_form_route(self):
        for n in (1, 3, 6, 20):
            proj = projector_factored([0] * n)
            norm, norm2 = factored_seminorms(proj)
            expect = projector_seminorms(n)
            assert norm == pytest.approx(expect[0], rel=1e-13)
            assert norm2 == pytest.approx(expect[1], rel=1e-13)

    def test_single_term_matches_expansion(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            factors = rng.uniform(-1, 1, size=(n, 4))
            fobs = FactoredObservable(n, ((rng.uniform(0.2, 2.0), factors),))
            norm, norm2 = factored_seminorms(fobs)
            expanded = fobs.to_observable()
            assert norm == pytest.approx(seminorm(expanded), rel=1e-11)
            assert norm2 == pytest.approx(seminorm2(expanded), rel=1e-11)

    def test_multi_term_falls_back_to_expansion(self):
        rng = np.random.default_rng(43)
        factors = lambda: rng.uniform(-1, 1, size=(3, 4))
        fobs = FactoredObservable(3, ((1.0, factors()), (0.5, factors())))
        norm, norm2 = factored_seminorms(fobs)
        expanded = fobs.to_observable()
        assert norm == pytest.approx(seminorm(expanded), rel=1e-12)
        assert norm2 == pytest.approx(seminorm2(expanded), rel=1e-12)

    def test_factor_count_must_match(self):
        with pytest.raises(ValueError):
            FactoredObservable(2, ((1.0, [[1.0, 0.0, 0.0, 0.0]]),))

    @pytest.mark.parametrize("row", [[0.5], [0.5, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5, 0.0], []])
    def test_factor_rows_need_four_numbers(self, row):
        # a short row is not zero-padded
        with pytest.raises(ValueError, match="row per qubit"):
            FactoredObservable(1, ((1.0, [row]),))
        with pytest.raises(ValueError):
            factored_from_dict({"n_qubits": 1, "terms": [{"coeff": 1.0, "factors": [row]}]})


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        obs = Observable.from_strings([(0.25, "XIZ"), (-1.5, "YYI")])
        path = tmp_path / "obs.json"
        save_observable(obs, path)
        assert load_observable(path) == obs

    def test_factored_round_trip(self, tmp_path):
        proj = projector_factored([0, 1, 1])
        path = tmp_path / "proj.json"
        save_observable(proj, path)
        loaded = load_observable(path, factored=True)
        assert loaded.n_qubits == 3
        assert np.array_equal(loaded.coeffs, proj.coeffs)
        assert np.array_equal(loaded.factors, proj.factors)

    def test_dict_schema(self):
        data = observable_to_dict(Observable.from_strings([(0.5, "XI")]))
        assert data == {"n_qubits": 2, "terms": [{"coeff": 0.5, "pauli": "XI"}]}

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            observable_from_dict({"n_qubits": 3, "terms": [{"coeff": 1.0, "pauli": "XI"}]})

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            observable_from_dict({"terms": [{"coeff": 1.0}]})
