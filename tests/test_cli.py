"""End-to-end CLI tests driving main() directly."""

import functools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from aqstate import pauli
from aqstate.cli import main
from aqstate.pauli import Observable, projector_factored, save_observable, seminorm
from aqstate.snapshots import load_snapshots
from aqstate.statevector import load_circuit


def run_cli(*args):
    return main([str(a) for a in args])


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
        tracemalloc.start()
        try:
            rc = self.snapshot(tmp_path, '{"n_qubits": 40, "gates": []}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and "error:" in capsys.readouterr().err
        assert peak < 1 << 20

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


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_flag(self):
        with pytest.raises(SystemExit):
            main(["prepare", "--bogus"])
