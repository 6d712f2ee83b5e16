"""Property tests of the input parsers.

Any JSON value fed to the observable, circuit, readout-error and
experiment-config loaders gives an object or a clean ``ValueError``, and
so does a file nested too deeply to parse; any bytes fed to ``deserialize``
give a state or a ``SnapshotFormatError`` (huge sizes only as claims, never
allocated); any ``aqstate`` command line exits 0 or 2, never with a
traceback.  Random labels in either case, with
duplicate, zero and identity terms, give the terms of the earlier dictionary
canonicalization (copied below as ``reference_terms``), and the seminorms,
shot budget and estimates of the earlier formulas copied into
test_term_table.py.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from aqstate.cli import _read_p_err, main
from aqstate.estimator import estimate_observable
from aqstate.harness import NORMALIZATIONS, OBSERVABLE_KINDS, ExperimentConfig
from aqstate.pauli import (
    FactoredObservable,
    Observable,
    factored_from_dict,
    load_observable,
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
    MAX_TOTAL_QUBITS,
    Circuit,
    Statevector,
    circuit_from_dict,
    haar_random_state,
    load_circuit,
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
    """Term rows (T, N) and their coefficients (T,) as the dictionary
    canonicalization gave them: coefficients summed per support in input
    order from 0.0, exact zeros dropped, sorted by support."""
    merged = {}
    for term in data["terms"]:
        support = tuple(
            (q, "IXYZ".index(c.upper())) for q, c in enumerate(term["pauli"]) if c.upper() != "I"
        )
        merged[support] = merged.get(support, 0.0) + float(term["coeff"])
    keys = [key for key in sorted(merged) if merged[key] != 0.0]
    rows = [support_row(key, data["n_qubits"]) for key in keys]
    axes = np.array(rows, dtype=np.uint8).reshape(len(keys), data["n_qubits"])
    return axes, np.array([merged[key] for key in keys])


def support_row(support, n_qubits):
    row = [0] * n_qubits
    for qubit, axis in support:
        row[qubit] = axis
    return row


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


gate_numbers = (
    st.integers(-1, 3) | st.floats() | st.booleans()
    | st.sampled_from([math.inf, 10**400, "1", "0.5"])
)
gates = st.fixed_dictionaries(
    {"kind": st.sampled_from(GATE_KINDS)} | {key: gate_numbers for key in ("q", "q1", "q2", "alpha")}
)
near_circuits = st.fixed_dictionaries(
    {"n_qubits": gate_numbers, "gates": st.lists(gates, max_size=3) | json_values}
)


def is_integer(value):
    return type(value) is int


def is_number(value):
    return type(value) in (int, float)


# a file loads only when its integer fields hold integers and its number
# fields numbers, and the object gives those integers back
@settings(max_examples=400, deadline=None)
@given(json_values | near_observables | near_factored)
@example({"n_qubits": 2.9, "terms": [{"coeff": 1.0, "pauli": "XZ"}]})
@example({"n_qubits": True, "terms": [{"coeff": "2", "pauli": "X"}]})
@example({"n_qubits": 1, "terms": [{"coeff": "2", "factors": [["0.5", False, 0, 1]]}]})
def test_any_json_value_gives_an_object_or_value_error(data):
    for parse, kind in ((observable_from_dict, Observable), (factored_from_dict, FactoredObservable)):
        try:
            obs = parse(data)
        except ValueError:
            continue
        assert isinstance(obs, kind)
        assert is_integer(data["n_qubits"]) and obs.n_qubits == data["n_qubits"]
        numbers = [term["coeff"] for term in data["terms"]]
        if kind is Observable:
            assert np.isfinite(obs.coeffs).all() and math.isfinite(obs.offset)
        else:
            numbers += [a for term in data["terms"] for row in term["factors"] for a in row]
        assert all(map(is_number, numbers))


@settings(max_examples=100, deadline=None)
@given(json_values | near_circuits)
@example({"n_qubits": "3", "gates": [{"kind": "XY", "q1": True, "q2": 2.99, "alpha": "0.5"}]})
@example({"n_qubits": 1, "gates": [{"kind": "H", "q": 0.9}]})
def test_any_json_value_gives_a_circuit_or_value_error(data):
    try:
        circuit = circuit_from_dict(data)
    except ValueError:
        return
    assert isinstance(circuit, Circuit)
    assert is_integer(data["n_qubits"]) and circuit.n_qubits == data["n_qubits"]
    for entry, gate in zip(data["gates"], circuit.gates, strict=True):
        targets = [entry["q1"], entry["q2"]] if gate.kind == "XY" else [entry["q"]]
        assert all(map(is_integer, targets)) and list(gate.qubits) == targets
        assert gate.kind != "XY" or is_number(entry["alpha"])


config_values = (
    st.integers(-2, MAX_TOTAL_QUBITS + 2) | numbers | st.booleans()
    | st.sampled_from(OBSERVABLE_KINDS + NORMALIZATIONS) | json_values
)
near_configs = st.fixed_dictionaries(
    {key: config_values for key in ("n_qubits", "n_snapshots", "seed")},
    optional={key: config_values for key in (
        "n_observables", "terms_per_observable", "p_err", "observable_kind", "normalization", "x"
    )},
)


@settings(max_examples=300, deadline=None)
@given(json_values | near_configs)
def test_any_json_value_gives_a_config_or_value_error(data):
    # validation only: no experiment runs
    try:
        cfg = ExperimentConfig.from_dict(data)
    except ValueError:
        return
    counts = (cfg.n_snapshots, cfg.n_observables, cfg.terms_per_observable)
    assert all(type(v) is int for v in counts + (cfg.n_qubits, cfg.seed))
    assert 2 <= cfg.n_qubits <= MAX_TOTAL_QUBITS and min(counts) >= 1 and cfg.seed >= 0
    assert type(cfg.p_err) in (int, float) and 0.0 <= cfg.p_err < 1.0
    assert cfg.observable_kind in OBSERVABLE_KINDS and cfg.normalization in NORMALIZATIONS
    json.dumps(asdict(cfg))  # the report records the config


@pytest.fixture(scope="module")
def p_err_path(tmp_path_factory):
    return tmp_path_factory.mktemp("p_err") / "p.json"


@settings(max_examples=100, deadline=None)
@given(json_values | st.lists(numbers, max_size=4), st.integers(1, 4))
def test_any_readout_error_file_gives_a_noise_model_or_value_error(p_err_path, data, n_qubits):
    # the rates reach acquisition, which checks their range
    p_err_path.write_text(json.dumps(data))
    try:
        p_err = _read_p_err(str(p_err_path))
        state = snapshots_from_state(Statevector(np.eye(1 << n_qubits)[0]), 1, 0, p_err)
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
    axes, coeffs = reference_terms(data)
    obs_axes, obs_coeffs = obs.rows()
    assert obs_axes.tolist() == axes.tolist() and obs_coeffs.tolist() == coeffs.tolist()

    norms = reference_seminorms(axes, coeffs)
    assert (seminorm(obs), seminorm2(obs), seminorm1(obs)) == norms
    assert shot_budget(obs, 0.01) == max(1, math.ceil((norms[0] / 0.01) ** 2))

    state = STATES[obs.n_qubits]
    result = estimate_observable(state, obs)
    assert result == estimate_observable(state, Observable.from_rows(obs.n_qubits, axes, coeffs))
    assert (result.std_bound, result.std_approx) == (norms[0] / math.sqrt(M), norms[1] / math.sqrt(M))
    w = reference_weights(state)
    scale = sum(
        abs(c) * float(np.mean(np.abs(reference_string_values(w, s)))) if s.any() else abs(c)
        for s, c in zip(axes, coeffs.tolist())
    )
    # 1e-12 * scale underflows to 0 for subnormal coefficients, where the two
    # sums may still differ by a subnormal step per summed value: M snapshots
    # times the terms
    floor = math.ulp(0.0) * M * len(coeffs)
    assert abs(result.value - reference_estimate(state, axes, coeffs)) <= 1e-12 * scale + floor


# Whole command lines: every subcommand but verify, which takes seconds a
# call, each flag dropped, given once or given twice, its value valid or
# junk, over the input files it names, which each example writes afresh
# with valid, random or 10^4-deep JSON or valid or random snapshot bytes.
# Counts allocate a few MiB at most or more than a 64-bit process can map: a
# count between would be allocated lazily, and so for real.  Relative paths
# resolve in a temporary directory, and junk holds no "/", so nothing is
# written outside it.
DEEP = "[" * 10**4 + "]" * 10**4
ARGV_STATE = serialize(snapshots_from_state(haar_random_state(3, np.random.default_rng(1)), 20, 2))


def often(valid, other):
    """``valid`` three times in four, ``other`` otherwise."""
    return st.sampled_from([valid, valid, valid, other]).flatmap(lambda strategy: strategy)


junk = st.text(st.characters(exclude_characters="/"), max_size=6) | st.sampled_from(
    ["", "-1", "0", "1.5", "nan", "inf", "1e-300", "1e400", "--out", "-h"]
)
huge = st.integers(10**15, 2**70)
counts = often(st.integers(-2, 300), huge)
small_counts = often(st.integers(-1, 4), huge)
junk_fields = st.none() | st.booleans() | st.floats() | st.text(max_size=3)
small_configs = st.fixed_dictionaries(
    {"n_qubits": often(st.integers(-1, 5), junk_fields),
     "n_snapshots": often(counts, junk_fields),
     "seed": often(st.integers(-1, 3), junk_fields)},
    optional={
        "n_observables": often(small_counts, junk_fields),
        "terms_per_observable": often(small_counts, junk_fields),
        "p_err": often(st.floats(0, 1), junk_fields),
        "observable_kind": often(st.sampled_from(OBSERVABLE_KINDS), junk_fields),
        "normalization": often(st.sampled_from(NORMALIZATIONS), junk_fields),
    },
)
ARGV_FILES = {
    "circuit.json": often(
        st.just('{"n_qubits": 3, "gates": [{"kind": "H", "q": 0}, '
                '{"kind": "XY", "q1": 0, "q2": 2, "alpha": 0.3}]}'),
        st.just(DEEP) | (json_values | near_circuits).map(json.dumps),
    ),
    "observable.json": often(
        st.sampled_from([
            '{"n_qubits": 3, "terms": [{"coeff": 0.5, "pauli": "XIZ"}, '
            '{"coeff": 1, "pauli": "III"}]}',
            '{"n_qubits": 3, "terms": [{"coeff": 1, "factors": [[0.5, 0, 0, 0.5], '
            '[1, 0, 0, 0], [0.5, 0.1, 0.2, -0.5]]}]}',
        ]),
        st.just(DEEP) | (json_values | near_observables | near_factored).map(json.dumps),
    ),
    "readout.json": often(
        st.just("[0.1, 0, 0.2]"),
        st.just(DEEP) | (json_values | st.lists(numbers, max_size=4)).map(json.dumps),
    ),
    "config.json": often(
        small_configs.map(json.dumps), st.just(DEEP) | json_values.map(json.dumps)
    ),
    "state.aqst": often(st.just(ARGV_STATE), st.binary(max_size=64) | st.builds(
        lambda at, byte: ARGV_STATE[:at] + bytes([byte]) + ARGV_STATE[at + 1 :],
        st.integers(0, len(ARGV_STATE) - 1), st.integers(0, 255),
    )),
}
paths = st.sampled_from([*ARGV_FILES, "missing.json", ".", "no/such"]) | junk
seeds = often(st.integers(-2, 2**64 + 2), junk)
ARGV_FLAGS = {
    "prepare": [("--qubits", often(counts, junk)), ("--seed", seeds), ("--out", paths),
                ("--allow-overlapping-pairs", None)],
    "snapshot": [("--circuit", often(st.just("circuit.json"), paths)),
                 ("--shots", often(counts, junk)), ("--seed", seeds),
                 ("--readout-error", often(st.sampled_from(["0", "0.05", "readout.json"]), paths)),
                 ("--out", paths), ("--json", None), ("--dump-state", paths)],
    "estimate": [("--snapshots", often(st.just("state.aqst"), paths)),
                 ("--observable", often(st.just("observable.json"), paths)),
                 ("--factored", None)],
    "seminorm": [("--observable", often(st.just("observable.json"), paths)),
                 ("--epsilon", often(st.floats().map(repr), junk))],
    "experiment": [("--config", often(st.just("config.json"), paths)),
                   ("--out-prefix", paths)],
}


@st.composite
def command_lines(draw):
    """A command line, and the content of each input file that it names."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    pairs = []
    for flag, values in ARGV_FLAGS[command]:
        for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))):
            pairs.append([flag] if values is None else [flag, str(draw(values))])
    argv = [command] + [arg for pair in draw(st.permutations(pairs)) for arg in pair]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(junk))
    files = {name: draw(content) for name, content in ARGV_FILES.items() if name in argv}
    return argv, files


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


def test_deeply_nested_file_is_a_value_error(argv_dir):
    path = argv_dir / "deep.json"
    path.write_text(DEEP)
    for load in (load_circuit, load_observable, _read_p_err):
        with pytest.raises(ValueError, match="nested too deeply"):
            load(str(path))


@settings(max_examples=300, deadline=None)
@given(command_lines())
# an empty observable on 10^13 qubits: its seminorm once sized a table by n
@example((["seminorm", "--observable", "observable.json"],
          {"observable.json": '{"n_qubits": 10000000000000, "terms": []}'}))
def test_any_command_line_exits_0_or_2(argv_dir, command_line):
    argv, files = command_line
    for name, content in files.items():
        path = argv_dir / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(argv_dir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # from argparse: a usage error, or --help
                rc = exc.code
    finally:
        os.chdir(cwd)
    assert rc in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
