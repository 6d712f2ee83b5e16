"""Property tests of the observable file parser.

Any JSON value fed to the dict loaders gives an observable or a clean
``ValueError``.  Random labels in either case, with duplicate, zero and
identity terms, give the terms of the earlier dictionary canonicalization
(copied below as ``reference_terms``), and the seminorms, shot budget and
estimates of the earlier formulas copied into test_term_table.py.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from aqstate.estimator import estimate_observable
from aqstate.pauli import (
    FactoredObservable,
    Observable,
    PauliString,
    factored_from_dict,
    observable_from_dict,
    seminorm,
    seminorm1,
    seminorm2,
    shot_budget,
)
from aqstate.snapshots import NoiseModel, snapshots_from_state
from aqstate.statevector import haar_random_state
from test_term_table import (
    reference_estimate,
    reference_seminorms,
    reference_string_values,
    reference_weights,
)

MAX_QUBITS = 5
M = 300


def reference_terms(data):
    """(coeff, PauliString) pairs as the dictionary canonicalization gave
    them: coefficients summed per support in input order from 0.0, exact
    zeros dropped, sorted by support."""
    n = data["n_qubits"]
    merged, strings = {}, {}
    for term in data["terms"]:
        support = tuple(
            (q, "IXYZ".index(c.upper())) for q, c in enumerate(term["pauli"]) if c.upper() != "I"
        )
        string = PauliString(n, support)
        merged[string.support] = merged.get(string.support, 0.0) + float(term["coeff"])
        strings[string.support] = string
    return tuple((merged[key], strings[key]) for key in sorted(merged) if merged[key] != 0.0)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# near misses: the right keys with values of every kind
numbers = st.integers() | st.floats() | st.integers(-2, MAX_QUBITS)
labels = st.text(alphabet="IXYZixyzQ? éı", max_size=MAX_QUBITS) | json_values
factors = st.lists(st.lists(numbers, min_size=3, max_size=5), max_size=MAX_QUBITS) | json_values
near_observables = st.fixed_dictionaries({
    "n_qubits": numbers | json_values,
    "terms": st.lists(
        st.fixed_dictionaries({"coeff": numbers | json_values, "pauli": labels}), max_size=4
    ) | json_values,
})
near_factored = st.fixed_dictionaries({
    "n_qubits": numbers | json_values,
    "terms": st.lists(
        st.fixed_dictionaries({"coeff": numbers | json_values, "factors": factors}), max_size=3
    ) | json_values,
})


@settings(max_examples=400, deadline=None)
@given(json_values | near_observables | near_factored)
def test_any_json_value_gives_an_object_or_value_error(data):
    for parse, kind in ((observable_from_dict, Observable), (factored_from_dict, FactoredObservable)):
        try:
            obs = parse(data)
        except ValueError:
            continue
        assert isinstance(obs, kind)
        if kind is Observable:
            assert np.isfinite(obs.table.coeffs).all() and math.isfinite(obs.table.offset)


@st.composite
def observable_data(draw):
    """Labels in either case drawn from a small pool (so terms repeat), the
    identity among them, and coefficients that often cancel exactly."""
    n = draw(st.integers(1, MAX_QUBITS))
    label = st.text(alphabet="IXYZixyz", min_size=n, max_size=n)
    pool = draw(st.lists(label, min_size=1, max_size=5)) + ["I" * n, "i" * n]
    coeff = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.1]) | st.floats(-2.0, 2.0)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=14))
    return {"n_qubits": n, "terms": [{"coeff": c, "pauli": p} for p, c in terms]}


STATES = {
    n: snapshots_from_state(
        haar_random_state(n, np.random.default_rng(n)), M, 60 + n, NoiseModel.uniform(0.05, n)
    )
    for n in range(1, MAX_QUBITS + 1)
}


@settings(max_examples=300, deadline=None)
@given(observable_data())
def test_parsed_terms_match_dict_canonicalization(data):
    obs = observable_from_dict(data)
    terms = reference_terms(data)
    assert obs.terms == terms
    reference = SimpleNamespace(n_qubits=obs.n_qubits, terms=terms)

    norms = reference_seminorms(reference)
    assert (seminorm(obs), seminorm2(obs), seminorm1(obs)) == norms
    assert shot_budget(obs, 0.01) == max(1, math.ceil((norms[0] / 0.01) ** 2))

    state = STATES[obs.n_qubits]
    result = estimate_observable(state, obs)
    assert result == estimate_observable(state, Observable(obs.n_qubits, terms))
    assert (result.std_bound, result.std_approx) == (norms[0] / math.sqrt(M), norms[1] / math.sqrt(M))
    w = reference_weights(state)
    scale = sum(
        abs(c) * float(np.mean(np.abs(reference_string_values(w, s)))) if s.weight else abs(c)
        for c, s in terms
    )
    assert abs(result.value - reference_estimate(state, reference)) <= 1e-12 * scale
