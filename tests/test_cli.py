"""End-to-end CLI tests driving main() directly."""

import functools
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import aqstate
from aqstate import estimator, pauli
from aqstate.cli import main
from aqstate.pauli import (
    Observable,
    projector_factored,
    projector_seminorms,
    save_observable,
    seminorm,
)
from aqstate.snapshots import load_snapshots
from aqstate.estimator import predict_attenuated
from aqstate.statevector import MAX_TOTAL_QUBITS, ProductState, exact_expectation, load_circuit


def run_cli(*args):
    return main([str(a) for a in args])


def xy_chain(n):
    """Circuit file data: XY gates on the neighbours (q, q+1), one component."""
    gates = [{"kind": "XY", "q1": q, "q2": q + 1, "alpha": 0.3} for q in range(n - 1)]
    return {"n_qubits": n, "gates": [{"kind": "H", "q": 0}] + gates}


class TestPrepare:
    def test_writes_circuit(self, tmp_path):
        path = tmp_path / "circ.json"
        assert run_cli("prepare", "--qubits", 8, "--seed", 3, "--out", path) == 0
        circuit = load_circuit(path)
        assert circuit.n_qubits == 8
        kinds = [g.kind for g in circuit.gates]
        assert sum(k != "XY" for k in kinds) == 4
        assert sum(k == "XY" for k in kinds) == 2

    def test_stdout_mode(self, capsys):
        assert run_cli("prepare", "--qubits", 4, "--seed", 1) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_qubits"] == 4

    def test_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "circ.json"
        assert run_cli("prepare", "--qubits", 6, "--seed", 2, "--out", path) == 0
        assert run_cli("prepare", "--qubits", 6, "--seed", 2) == 0
        assert path.read_text() == capsys.readouterr().out


class TestPipeline:
    @pytest.fixture()
    def circuit_path(self, tmp_path):
        path = tmp_path / "circ.json"
        run_cli("prepare", "--qubits", 2, "--seed", 11, "--out", path)
        return path

    @pytest.fixture()
    def snaps(self, tmp_path, circuit_path):
        # 10 snapshots of the 2-qubit circuit
        path = tmp_path / "state.aqst"
        run_cli("snapshot", "--circuit", circuit_path, "--shots", 10, "--seed", 9, "--out", path)
        return path

    def test_snapshot_then_estimate(self, tmp_path, circuit_path, capsys):
        snaps = tmp_path / "state.aqst"
        assert run_cli(
            "snapshot", "--circuit", circuit_path, "--shots", 3000,
            "--seed", 5, "--out", snaps,
        ) == 0
        state = load_snapshots(snaps)
        assert state.n_snapshots == 3000

        obs_path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(1.0, "ZI")]), obs_path)
        capsys.readouterr()
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["M"] == 3000 and result["N"] == 2
        assert result["std_bound"] == pytest.approx(math.sqrt(3.0 / 3000))
        assert abs(result["value"]) <= 5 * result["std_bound"] + 1.0
        assert 0.0 < result["std_empirical"] <= result["std_bound"]

    def test_single_snapshot_spread_is_null(self, tmp_path, circuit_path, capsys):
        snaps = tmp_path / "state.aqst"
        run_cli("snapshot", "--circuit", circuit_path, "--shots", 1, "--seed", 5,
                "--out", snaps)
        obs_path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(1.0, "ZI")]), obs_path)
        capsys.readouterr()
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path) == 0
        out = capsys.readouterr().out
        assert '"std_empirical": null' in out
        assert json.loads(out)["std_empirical"] is None

    def test_factored_estimate(self, tmp_path, circuit_path, capsys):
        snaps = tmp_path / "state.aqst"
        run_cli("snapshot", "--circuit", circuit_path, "--shots", 2000,
                "--seed", 6, "--out", snaps)
        proj_path = tmp_path / "proj.json"
        save_observable(projector_factored([0, 0]), proj_path)
        capsys.readouterr()
        assert run_cli(
            "estimate", "--snapshots", snaps, "--observable", proj_path, "--factored"
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert -0.5 <= result["value"] <= 1.5
        assert result["std_approx"] <= result["std_bound"]

    def test_json_snapshot_mode(self, tmp_path, circuit_path):
        out, binary = tmp_path / "state.json", tmp_path / "state.aqst"
        for path, mode in ((out, ["--json"]), (binary, [])):
            assert run_cli(
                "snapshot", "--circuit", circuit_path, "--shots", 50,
                "--seed", 7, "--readout-error", 0.1, "--out", path, *mode,
            ) == 0
        with open(out) as fh:
            data = json.load(fh)
        state = load_snapshots(binary)
        assert (data["n_qubits"], data["n_snapshots"]) == (2, 50)
        assert data["seed"] == state.seed == 7
        assert data["p_err"] == state.p_err.tolist() == [0.1, 0.1]
        assert data["outcomes"] == state.outcomes.tolist()
        assert data["thetas"] == state.thetas.tolist()
        assert data["phis"] == state.phis.tolist()
        assert data["circuit_hash"] == load_circuit(circuit_path).content_hash()

    def test_pipeline_beyond_dense_cap(self, tmp_path, capsys):
        # a 40-qubit default circuit: components of at most 2 qubits
        circuit_path, snaps, obs = tmp_path / "c.json", tmp_path / "s.aqst", tmp_path / "o.json"
        assert run_cli("prepare", "--qubits", 40, "--seed", 5, "--out", circuit_path) == 0
        assert run_cli("snapshot", "--circuit", circuit_path, "--shots", 2000, "--seed", 6,
                       "--readout-error", 0.05, "--out", snaps) == 0
        # three terms, in canonical order
        labels = ["X" + "I" * 39, "I" * 20 + "ZZ" + "I" * 18, "I" * 39 + "Y"]
        observable = Observable.from_strings([(0.5, label) for label in labels])
        save_observable(observable, obs)
        capsys.readouterr()
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["M"], result["N"]) == (2000, 40)
        psi = ProductState.from_circuit(load_circuit(circuit_path))
        exact = [exact_expectation(psi, Observable.from_strings([(1.0, l)])) for l in labels]
        predicted = predict_attenuated(observable, exact, 0.05)
        assert abs(result["value"] - predicted) <= 5 * result["std_bound"]

    def test_dump_state_debug_flag(self, tmp_path, circuit_path):
        snaps = tmp_path / "state.aqst"
        dump = tmp_path / "psi.json"
        assert run_cli(
            "snapshot", "--circuit", circuit_path, "--shots", 5,
            "--seed", 2, "--out", snaps, "--dump-state", dump,
        ) == 0
        pairs = json.loads(dump.read_text())
        amps = np.array([complex(re, im) for re, im in pairs])
        assert amps.size == 4
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_per_qubit_readout_error_file(self, tmp_path, circuit_path):
        errs = tmp_path / "p.json"
        errs.write_text("[0.01, 0.05]")
        snaps = tmp_path / "state.aqst"
        assert run_cli(
            "snapshot", "--circuit", circuit_path, "--shots", 10,
            "--seed", 8, "--readout-error", errs, "--out", snaps,
        ) == 0
        assert np.allclose(load_snapshots(snaps).p_err, [0.01, 0.05])

    def test_qubit_mismatch_fails(self, tmp_path, snaps, capsys):
        obs_path = tmp_path / "obs3.json"
        save_observable(Observable.from_strings([(1.0, "ZII")]), obs_path)
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_snapshot_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.aqst"
        bad.write_bytes(b"JUNKJUNKJUNK")
        obs_path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(1.0, "Z")]), obs_path)
        assert run_cli("estimate", "--snapshots", bad, "--observable", obs_path) == 2

    def test_nan_angle_in_snapshot_file_fails(self, tmp_path, snaps, capsys):
        blob = bytearray(snaps.read_bytes())
        # first record's theta: header 18 bytes, p_err 8N, seed 8, then m (1)
        struct.pack_into("<d", blob, 18 + 8 * 2 + 8 + 1, math.nan)
        snaps.write_bytes(bytes(blob))
        obs_path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(1.0, "ZI")]), obs_path)
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path) == 2
        assert "thetas" in capsys.readouterr().err


    @pytest.mark.parametrize("factored", [False, True])
    def test_non_finite_coefficient_fails(self, tmp_path, snaps, capsys, factored):
        obs_path = tmp_path / "obs.json"
        term = {"coeff": math.inf, "factors": [[0.5, 0, 0, 0.5]] * 2} if factored else {
            "coeff": math.inf, "pauli": "ZI"}
        obs_path.write_text(json.dumps({"n_qubits": 2, "terms": [term]}))
        flags = ["--factored"] if factored else []
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path, *flags) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [[0.5], [0.5, 0, 0, 0.5, 0]], ids=["short", "long"])
    def test_factor_row_of_wrong_length_fails(self, tmp_path, snaps, capsys, row):
        obs_path = tmp_path / "obs.json"
        term = {"coeff": 1.0, "factors": [[0.5, 0, 0, 0.5], row]}
        obs_path.write_text(json.dumps({"n_qubits": 2, "terms": [term]}))
        assert run_cli(
            "estimate", "--snapshots", snaps, "--observable", obs_path, "--factored"
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_nan_angle_in_circuit_fails(self, tmp_path, circuit_path, capsys):
        data = json.loads(circuit_path.read_text())
        data["gates"].append({"kind": "XY", "q1": 0, "q2": 1, "alpha": math.nan})
        circuit_path.write_text(json.dumps(data))
        snaps = tmp_path / "state.aqst"
        assert run_cli("snapshot", "--circuit", circuit_path, "--shots", 10,
                       "--seed", 9, "--out", snaps) == 2
        assert "finite" in capsys.readouterr().err
        assert not snaps.exists()

    def test_estimate_builds_no_pauli_strings(self, tmp_path, snaps, monkeypatch):
        obs_path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(1.0, "ZI"), (0.5, "XY"), (0.25, "II")]), obs_path)
        monkeypatch.setattr(pauli.PauliString, "__init__", forbidden)
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path) == 0


def forbidden(*args):
    raise AssertionError("a PauliString was built")


def test_guard_catches_every_pauli_string(monkeypatch):
    # the guard the tests here install fails on each way to build one
    obs = Observable.from_strings([(1.0, "ZI"), (0.25, "II")])
    monkeypatch.setattr(pauli.PauliString, "__init__", forbidden)
    with pytest.raises(AssertionError, match="PauliString was built"):
        obs.terms
    with pytest.raises(AssertionError, match="PauliString was built"):
        pauli.PauliString([3, 0])


def test_writers_build_no_pauli_strings(tmp_path, monkeypatch):
    obs = Observable.from_strings([(1.0, "ZI"), (0.5, "XY"), (0.25, "II")])
    monkeypatch.setattr(pauli.PauliString, "__init__", forbidden)
    path = tmp_path / "obs.json"
    save_observable(obs, path)
    # the identity first, then canonical order
    assert json.loads(path.read_text())["terms"] == [
        {"coeff": 0.25, "pauli": "II"}, {"coeff": 0.5, "pauli": "XY"}, {"coeff": 1.0, "pauli": "ZI"}
    ]
    assert repr(obs) == "Observable(0.25*II + 0.5*XY + 1*ZI)"


class TestSeminormCommand:
    @pytest.mark.parametrize("coeff", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coefficient_fails(self, tmp_path, capsys, coeff):
        path = tmp_path / "obs.json"
        path.write_text('{"n_qubits": 2, "terms": [{"coeff": %s, "pauli": "XI"}]}' % coeff)
        assert run_cli("seminorm", "--observable", path) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    def test_builds_no_pauli_strings(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(0.5, "XI"), (0.5, "xz"), (0.2, "II")]), path)
        monkeypatch.setattr(pauli.PauliString, "__init__", forbidden)
        assert run_cli("seminorm", "--observable", path, "--epsilon", 0.05) == 0

    def test_norms_and_budget(self, tmp_path, capsys):
        obs = Observable.from_strings([(0.5, "XI"), (0.5, "XZ")])
        path = tmp_path / "obs.json"
        save_observable(obs, path)
        assert run_cli("seminorm", "--observable", path, "--epsilon", 0.05) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seminorm"] == pytest.approx(math.sqrt(4.5))
        assert out["seminorm2"] == pytest.approx(math.sqrt(3.0))
        assert out["seminorm1"] == pytest.approx(0.5 * math.sqrt(3) + 1.5)
        assert out["shot_budget"] == math.ceil(4.5 / 0.05**2)
        assert seminorm(obs) / math.sqrt(out["shot_budget"]) <= 0.05

    def test_pair_sum_runs_once(self, tmp_path, capsys, monkeypatch):
        # the seminorm is cached with the observable, so the shot budget
        # reuses the value printed beside it
        calls = []
        pair_sum = pauli.Observable.__dict__["_seminorm"]

        def counted(obs):
            calls.append(obs)
            return pair_sum.func(obs)

        counting = functools.cached_property(counted)
        counting.__set_name__(pauli.Observable, "_seminorm")
        monkeypatch.setattr(pauli.Observable, "_seminorm", counting)
        path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(0.5, "XI"), (0.5, "XZ"), (0.2, "YY")]), path)
        assert run_cli("seminorm", "--observable", path, "--epsilon", 0.05) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert out["shot_budget"] == math.ceil((out["seminorm"] / 0.05) ** 2)


class TestExperimentCommand:
    def test_writes_report_and_curves(self, tmp_path, capsys):
        cfg = {
            "n_qubits": 3,
            "n_snapshots": 400,
            "seed": 21,
            "n_observables": 4,
            "terms_per_observable": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        prefix = tmp_path / "run"
        assert run_cli("experiment", "--config", cfg_path, "--out-prefix", prefix) == 0
        with open(str(prefix) + ".json") as fh:
            report = json.load(fh)
        assert report["config"]["seed"] == 21
        assert len(report["rows"]) == 4
        csv_lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("observable,")
        assert "fractions within 1/2 std" in capsys.readouterr().out

    def test_bad_config_fails(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_qubits": 3}))
        assert run_cli("experiment", "--config", cfg_path, "--out-prefix", tmp_path / "x") == 2

    @pytest.mark.parametrize("kind", ["random_pauli_sum", "basis_projector"])
    def test_builds_no_pauli_strings(self, tmp_path, monkeypatch, kind):
        cfg = {"n_qubits": 3, "n_snapshots": 200, "seed": 22, "n_observables": 3,
               "terms_per_observable": 4, "p_err": 0.05, "observable_kind": kind}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setattr(pauli.PauliString, "__init__", forbidden)
        assert run_cli("experiment", "--config", cfg_path, "--out-prefix", tmp_path / "run") == 0


class TestVerifyCommand:
    def test_fast_suite(self, capsys, monkeypatch):
        # every check reads term tables: none builds a PauliString
        monkeypatch.setattr(pauli.PauliString, "__init__", forbidden)
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out


class TestInputErrors:
    # each input exits 2 with an error line and writes nothing
    def snapshot(self, tmp_path, circuit, readout_error="0", shots=10):
        circuit_path, out = tmp_path / "circ.json", tmp_path / "state.aqst"
        circuit_path.write_text(circuit)
        rc = run_cli("snapshot", "--circuit", circuit_path, "--shots", shots,
                     "--readout-error", readout_error, "--out", out)
        assert not out.exists()
        return rc

    def test_too_many_qubits(self, tmp_path, capsys):
        # an XY chain joins 27 qubits into one component, one over the cap:
        # refused before the 2 GiB state is allocated
        tracemalloc.start()
        try:
            rc = self.snapshot(tmp_path, json.dumps(xy_chain(27)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and "component of 27 qubits" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_too_many_qubits_in_all(self, tmp_path, capsys):
        # refused when the circuit is read, before the rates are spread over
        # its qubits
        for n in (MAX_TOTAL_QUBITS + 1, 10**13, 10**20):
            circuit = json.dumps({"n_qubits": n, "gates": []})
            assert self.snapshot(tmp_path, circuit) == 2
            assert f"outside 1..{MAX_TOTAL_QUBITS}" in capsys.readouterr().err
        out = tmp_path / "prepared.json"
        assert run_cli("prepare", "--qubits", MAX_TOTAL_QUBITS + 1, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_state_of_product_circuit_beyond_dense_cap(self, tmp_path, capsys):
        # the 40-qubit product state can be measured, but not dumped densely
        circuit_path, out, dump = tmp_path / "circ.json", tmp_path / "s.aqst", tmp_path / "psi"
        assert run_cli("prepare", "--qubits", 40, "--seed", 3, "--out", circuit_path) == 0
        assert run_cli("snapshot", "--circuit", circuit_path, "--shots", 10,
                       "--out", out, "--dump-state", dump) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    # 10^13 snapshots of 3 qubits need 218 TiB per angle array, more than
    # the 128 TiB a 64-bit process can map on common hardware: allocation
    # fails at once and no memory is touched
    def test_oversized_shot_count(self, tmp_path, capsys):
        circuit = '{"n_qubits": 3, "gates": []}'
        assert self.snapshot(tmp_path, circuit, shots=10**13) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_experiment(self, tmp_path, capsys):
        cfg_path, prefix = tmp_path / "cfg.json", tmp_path / "run"
        cfg_path.write_text(json.dumps({"n_qubits": 3, "n_snapshots": 10**13, "seed": 1}))
        assert run_cli("experiment", "--config", cfg_path, "--out-prefix", prefix) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_factored_expansion_too_large(self, tmp_path, capsys):
        # a projector plus one term with every axis on each of 9 qubits
        # expands to 2^9 + 4^9 strings, whose pair sum would run for minutes
        circuit_path, snaps, obs_path = (tmp_path / f for f in ("c.json", "s.aqst", "o.json"))
        assert run_cli("prepare", "--qubits", 9, "--out", circuit_path) == 0
        assert run_cli("snapshot", "--circuit", circuit_path, "--shots", 100,
                       "--out", snaps) == 0
        dense = {"coeff": 0.5, "factors": [[0.5, 0.1, 0.2, 0.3]] * 9}
        terms = [{"coeff": 1.0, "factors": [[0.5, 0, 0, 0.5]] * 9}, dense]
        obs_path.write_text(json.dumps({"n_qubits": 9, "terms": terms}))
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path,
                       "--factored") == 2
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == "" and "error: refusing to expand" in captured.err

    def test_factored_expansion_under_the_term_cap(self, tmp_path, capsys):
        # a 13-qubit projector plus 0.5 I expands to 2^13 + 1 strings, under
        # the term cap, so it is estimated whatever its qubit count
        circuit_path, snaps, obs_path = (tmp_path / f for f in ("c.json", "s.aqst", "o.json"))
        assert run_cli("prepare", "--qubits", 13, "--out", circuit_path) == 0
        assert run_cli("snapshot", "--circuit", circuit_path, "--shots", 100,
                       "--out", snaps) == 0
        terms = [{"coeff": 1.0, "factors": [[0.5, 0, 0, 0.5]] * 13},
                 {"coeff": 0.5, "factors": [[1, 0, 0, 0]] * 13}]
        obs_path.write_text(json.dumps({"n_qubits": 13, "terms": terms}))
        capsys.readouterr()
        start = time.perf_counter()
        assert run_cli("estimate", "--snapshots", snaps, "--observable", obs_path,
                       "--factored") == 0
        assert time.perf_counter() - start < 5.0
        result = json.loads(capsys.readouterr().out)
        assert (result["N"], result["M"]) == (13, 100)
        # the identity adds nothing to the seminorm
        assert result["std_bound"] * 10 == pytest.approx(projector_seminorms(13)[0], rel=1e-12)

    @pytest.mark.parametrize("epsilon", ["1e-300", "inf", "nan"])
    def test_bad_epsilon(self, tmp_path, capsys, epsilon):
        path = tmp_path / "obs.json"
        save_observable(Observable.from_strings([(0.5, "XI"), (0.5, "XZ")]), path)
        assert run_cli("seminorm", "--observable", path, "--epsilon", epsilon) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "epsilon" in captured.err

    # drawing gate targets among 10^13 qubits needs a 73 TiB permutation, and
    # 10^20 does not fit a C long: both fail before anything is allocated
    @pytest.mark.parametrize("qubits", [10**13, 10**20])
    def test_impossible_qubit_count(self, tmp_path, capsys, qubits):
        out = tmp_path / "circ.json"
        assert run_cli("prepare", "--qubits", qubits, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"n_snapshots": 100.0},
        {"terms_per_observable": 2.5},
        {"n_observables": 2.5},
        {"seed": 1.5},
        {"seed": 1e30},
        {"seed": "1"},
        {"seed": -1},
        {"n_qubits": 4.5},
        {"n_qubits": 10**40},
        {"n_snapshots": True},
        {"p_err": False},
        # the axis draw of 10^12 terms (22 TiB) or the per-snapshot values of
        # 10^13 observables cannot be allocated: the run stops before its
        # circuit runs and before any observable is built
        {"terms_per_observable": 10**12},
        {"n_observables": 10**13},
    ], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
    def test_bad_experiment_config(self, tmp_path, capsys, change):
        cfg_path, prefix = tmp_path / "cfg.json", tmp_path / "run"
        cfg_path.write_text(json.dumps({"n_qubits": 3, "n_snapshots": 50, "seed": 1} | change))
        assert run_cli("experiment", "--config", cfg_path, "--out-prefix", prefix) == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("gates, errors", [
        ('{"kind": "H", "q": 1e400}', None),
        ('{"kind": "XY", "q1": 0, "q2": 1, "alpha": 1%s}' % ("0" * 400), None),
        ("", "5"),
        ("", "[null, 0.1, 0.1]"),
    ], ids=["huge-qubit-index", "huge-xy-angle", "errors-file-number", "errors-file-null"])
    def test_bad_input(self, tmp_path, capsys, gates, errors):
        path = tmp_path / "p.json"
        path.write_text(errors or "[0, 0, 0]")
        assert self.snapshot(tmp_path, '{"n_qubits": 3, "gates": [%s]}' % gates, path) == 2
        assert "error:" in capsys.readouterr().err

    def test_xy_angle_beyond_a_float(self, tmp_path, capsys):
        # a 401-digit integer angle has no float: exit 2, one error line
        capsys.readouterr()
        gate = '{"kind": "XY", "q1": 0, "q2": 1, "alpha": 1%s}' % ("0" * 400)
        assert self.snapshot(tmp_path, '{"n_qubits": 2, "gates": [%s]}' % gate) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "XY angle" in captured.err

    @pytest.mark.parametrize("argv", [
        "snapshot --circuit DEEP --shots 10 --out OUT",
        "snapshot --circuit CIRC --shots 10 --readout-error DEEP --out OUT",
        "estimate --snapshots SNAPS --observable DEEP",
        "estimate --snapshots SNAPS --observable DEEP --factored",
        "seminorm --observable DEEP",
        "experiment --config DEEP --out-prefix OUT",
    ])
    def test_deeply_nested_json(self, tmp_path, capsys, argv):
        # 10^4 nested lists exceed the JSON parser's recursion limit
        files = {name: tmp_path / name for name in ("CIRC", "SNAPS", "DEEP", "OUT")}
        files["CIRC"].write_text('{"n_qubits": 2, "gates": []}')
        assert run_cli("snapshot", "--circuit", files["CIRC"], "--shots", 10,
                       "--out", files["SNAPS"]) == 0
        files["DEEP"].write_text("[" * 10**4 + "]" * 10**4)
        capsys.readouterr()
        assert run_cli(*(files.get(arg, arg) for arg in argv.split())) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {files['DEEP']}: JSON nested too deeply\n"
        assert not any(tmp_path.glob("OUT*"))

    # coefficients whose products or squares overflow a float: the value,
    # bound or seminorms would be NaN or inf, which JSON cannot hold
    non_finite = pytest.mark.parametrize("terms, argv", [
        ([{"coeff": 1e308, "pauli": "XXXX"}, {"coeff": -1e308, "pauli": "ZZZZ"}],
         "estimate --snapshots SNAPS --observable OBS"),
        ([{"coeff": 1e308, "pauli": "XXXX"}, {"coeff": -1e308, "pauli": "ZZZZ"}],
         "seminorm --observable OBS"),
        ([{"coeff": 1e308, "factors": [[0.5, 0, 0, 0.5]] * 4}],
         "estimate --snapshots SNAPS --observable OBS --factored"),
    ], ids=["estimate", "seminorm", "factored"])

    @staticmethod
    def non_finite_argv(tmp_path, terms, argv):
        """Write a 4-qubit snapshot file and the observable; return ``argv``
        with SNAPS and OBS replaced by their paths."""
        files = {name: tmp_path / name for name in ("CIRC", "SNAPS", "OBS")}
        files["CIRC"].write_text('{"n_qubits": 4, "gates": []}')
        assert run_cli("snapshot", "--circuit", files["CIRC"], "--shots", 100,
                       "--out", files["SNAPS"]) == 0
        files["OBS"].write_text(json.dumps({"n_qubits": 4, "terms": terms}))
        return [str(files.get(arg, arg)) for arg in argv.split()]

    @non_finite
    def test_non_finite_result(self, tmp_path, capsys, terms, argv):
        argv = self.non_finite_argv(tmp_path, terms, argv)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "not finite" in captured.err
        assert captured.err.count("\n") == 1

    @non_finite
    def test_non_finite_result_in_a_process(self, tmp_path, terms, argv):
        # a process of its own prints whatever NumPy warns on stderr, which
        # pytest would collect apart: the error line is all it prints
        argv = self.non_finite_argv(tmp_path, terms, argv)
        src = str(Path(aqstate.__file__).parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "aqstate.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr

    @pytest.mark.parametrize("message", ["", "Unable to allocate 1.00 TiB for an array"])
    def test_out_of_memory(self, tmp_path, capsys, monkeypatch, message):
        # a table, file or copy that cannot be allocated: one error line
        def no_memory(state):
            raise MemoryError(message)

        argv = self.non_finite_argv(tmp_path, [{"coeff": 0.5, "pauli": "XXII"}],
                                    "estimate --snapshots SNAPS --observable OBS")
        monkeypatch.setattr(estimator, "_weight_table", no_memory)
        capsys.readouterr()
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory{': ' * bool(message)}{message}\n"

    @pytest.mark.parametrize("factored", [False, True], ids=["pauli", "factored"])
    def test_integer_coefficient_beyond_int64(self, tmp_path, capsys, factored):
        # a JSON 10**20 loads as the float 1e20 does; 10**400 has no float
        def argv(coeff):
            term = {"coeff": coeff, "factors": [[0.5, 0, 0, 0.5]] * 4} if factored else {
                "coeff": coeff, "pauli": "XXII"}
            return self.non_finite_argv(tmp_path, [term], "estimate --snapshots SNAPS "
                                        "--observable OBS" + " --factored" * factored)

        outputs = []
        for coeff in (10**20, 1e20):
            args = argv(coeff)
            assert pauli.load_observable(tmp_path / "OBS", factored).coeffs.tolist() == [1e20]
            capsys.readouterr()
            assert run_cli(*args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        args = argv(10**400)
        capsys.readouterr()
        assert run_cli(*args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "out of range" in captured.err

    # integer fields take only integers, number fields only numbers: none of
    # these is rounded, parsed from a string or read as 0 or 1
    @pytest.mark.parametrize("circuit", [
        '{"n_qubits": 3.0, "gates": []}',
        '{"n_qubits": "3", "gates": [{"kind": "XY", "q1": true, "q2": 2.99, "alpha": "0.5"}]}',
        '{"n_qubits": 3, "gates": [{"kind": "XY", "q1": true, "q2": 2, "alpha": 0.5}]}',
        '{"n_qubits": 3, "gates": [{"kind": "XY", "q1": 1, "q2": 2.99, "alpha": 0.5}]}',
        '{"n_qubits": 3, "gates": [{"kind": "XY", "q1": 1, "q2": 2, "alpha": "0.5"}]}',
        '{"n_qubits": 3, "gates": [{"kind": "H", "q": 0.9}]}',
    ], ids=["float-count", "mixed-fields", "bool-qubit", "float-qubit", "string-angle",
            "float-target"])
    def test_non_integer_circuit_field(self, tmp_path, capsys, circuit):
        assert self.snapshot(tmp_path, circuit) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("data, factored", [
        ({"n_qubits": 2.9, "terms": [{"coeff": 1.0, "pauli": "XZ"}]}, False),
        ({"n_qubits": True, "terms": [{"coeff": 1.0, "pauli": "X"}]}, False),
        ({"n_qubits": 2, "terms": [{"coeff": "2", "pauli": "XZ"}]}, False),
        ({"n_qubits": 2, "terms": [{"coeff": "2", "factors": [[1, 0, 0, 0]] * 2}]}, True),
        ({"n_qubits": 2, "terms": [{"coeff": 1, "factors": [["0.5", 0, 0, 0.5]] * 2}]}, True),
        ({"n_qubits": 2, "terms": [{"coeff": 1, "factors": [[1, False, 0, 0]] * 2}]}, True),
        ({"n_qubits": 2.0, "terms": [{"coeff": 1, "factors": [[1, 0, 0, 0]] * 2}]}, True),
    ], ids=["float-count", "bool-count", "string-coeff", "factored-string-coeff",
            "string-factor", "bool-factor", "factored-float-count"])
    def test_non_number_observable_field(self, tmp_path, capsys, data, factored):
        circuit, snaps, obs = tmp_path / "c.json", tmp_path / "s.aqst", tmp_path / "o.json"
        circuit.write_text('{"n_qubits": 2, "gates": []}')
        assert run_cli("snapshot", "--circuit", circuit, "--shots", 10, "--out", snaps) == 0
        obs.write_text(json.dumps(data))
        argv = ["estimate", "--snapshots", snaps, "--observable", obs] + ["--factored"] * factored
        assert run_cli(*argv) == 2
        if not factored:
            assert run_cli("seminorm", "--observable", obs) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["prepare", "--bogus"])

    def test_parser_is_reused_after_an_error(self, capsys):
        # one parser serves every call in a process; a failed parse leaves
        # nothing behind for the next call
        argv = ["prepare", "--qubits", "5", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--qubits", "five"])
        assert exc.value.code == 2
        assert main(argv) == 0
        assert capsys.readouterr().out == first != ""
