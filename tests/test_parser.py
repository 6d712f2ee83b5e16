"""Property tests of the input parsers.

Any JSON value fed to the observable, circuit and readout-error loaders
gives an object or a clean ``ValueError``; any bytes fed to ``deserialize``
give a state or a ``SnapshotFormatError`` (huge sizes only as claims, never
allocated).  Random labels in either case, with duplicate, zero and identity
terms, give the terms of the earlier dictionary canonicalization (copied
below as ``reference_terms``), and the seminorms, shot budget and estimates
of the earlier formulas copied into test_term_table.py.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from aqstate.cli import _read_p_err
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
from aqstate.snapshots import (
    _HEADER,
    ApproximateState,
    SnapshotFormatError,
    deserialize,
    serialize,
    snapshots_from_state,
)
from aqstate.statevector import (
    GATE_KINDS,
    Circuit,
    Statevector,
    circuit_from_dict,
    haar_random_state,
)
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
numbers = st.integers() | st.floats() | st.integers(-2, MAX_QUBITS) | st.just(10**400)
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


gate_numbers = st.integers(-1, 3) | st.floats() | st.sampled_from([math.inf, 10**400])
gates = st.fixed_dictionaries(
    {"kind": st.sampled_from(GATE_KINDS)} | {key: gate_numbers for key in ("q", "q1", "q2", "alpha")}
)
near_circuits = st.fixed_dictionaries(
    {"n_qubits": gate_numbers, "gates": st.lists(gates, max_size=3) | json_values}
)


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
            assert np.isfinite(obs.coeffs).all() and math.isfinite(obs.offset)


@settings(max_examples=100, deadline=None)
@given(json_values | near_circuits)
def test_any_json_value_gives_a_circuit_or_value_error(data):
    try:
        circuit = circuit_from_dict(data)
    except ValueError:
        return
    assert isinstance(circuit, Circuit)


@pytest.fixture(scope="module")
def p_err_path(tmp_path_factory):
    return tmp_path_factory.mktemp("p_err") / "p.json"


@settings(max_examples=100, deadline=None)
@given(json_values | st.lists(numbers, max_size=4), st.integers(1, 4))
def test_any_readout_error_file_gives_a_noise_model_or_value_error(p_err_path, data, n_qubits):
    # the rates reach acquisition, which checks their range
    p_err_path.write_text(json.dumps(data))
    try:
        p_err = _read_p_err(str(p_err_path), n_qubits)
        state = snapshots_from_state(Statevector.zero(n_qubits), 1, 0, p_err)
    except ValueError:
        return
    assert state.p_err.tolist() == p_err and len(p_err) == n_qubits


VALID_BLOB = serialize(snapshots_from_state(haar_random_state(2, np.random.default_rng(0)), 3, 1))
# headers that claim any size, followed by a short body
claimed_sizes = st.builds(
    lambda n, m, tail: _HEADER.pack(b"AQST", 1, n, m) + tail,
    st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=64),
)
mutations = st.builds(
    lambda at, byte: VALID_BLOB[:at] + bytes([byte]) + VALID_BLOB[at + 1 :],
    st.integers(0, len(VALID_BLOB) - 1), st.integers(0, 255),
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200) | claimed_sizes | mutations)
def test_any_bytes_give_a_state_or_format_error(data):
    try:
        state = deserialize(data)
    except SnapshotFormatError:
        return
    assert isinstance(state, ApproximateState)


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
        haar_random_state(n, np.random.default_rng(n)), M, 60 + n, 0.05
    )
    for n in range(1, MAX_QUBITS + 1)
}


SUBNORMAL = 2.2250738585e-313


@settings(max_examples=300, deadline=None)
@given(observable_data())
@example({"n_qubits": 3, "terms": [{"coeff": SUBNORMAL, "pauli": "IIX"},
                                   {"coeff": SUBNORMAL, "pauli": "IZI"}]})
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
    # 1e-12 * scale underflows to 0 for subnormal coefficients, where the two
    # sums may still differ by a subnormal step per summed value: M snapshots
    # times the terms
    floor = math.ulp(0.0) * M * len(terms)
    assert abs(result.value - reference_estimate(state, reference)) <= 1e-12 * scale + floor
