"""End-to-end CLI behavior: files, exit codes, determinism."""

import functools
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from seqirsim import _kernel, cli
from seqirsim.cli import _fmt, _write_csv, main
from seqirsim.integrate import derive_seed

from conftest import (
    EX1_PARAMS, EX2_PARAMS, GENERATOR_2, GENERATOR_4, P_4_PRINTED, PERSISTENT_PARAMS,
    PI_4_PRINTED, started_threads, stepping_threads, use_cpus,
)
from test_config import valid_doc, write_doc


def parse_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def small_doc(**sim_overrides):
    doc = valid_doc()
    doc["simulation"].update({"dt": 1e-3, "horizon": 5.0, "stride": 10})
    doc["simulation"].update(sim_overrides)
    return doc


def table_doc(generator, params):
    """small_doc on another generator and parameter table."""
    doc = small_doc()
    doc["generator"] = generator
    doc["regimes"] = [{name: values[k] for name, values in params.items()}
                      for k in range(len(generator))]
    return doc


def persistent_doc():
    """The certified-persistence table, so the reports carry bounds."""
    return table_doc(GENERATOR_2, PERSISTENT_PARAMS)


def example2_doc():
    """Benchmark set 2: no bounds, and a regime failing the noise condition."""
    return table_doc(GENERATOR_4, EX2_PARAMS)


class TestThresholdsCommand:
    def test_example1_verdict(self, example1_config_path, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["thresholds", "--config", str(example1_config_path),
                     "--out", str(out)]) == 0
        report = parse_report(out)
        assert report["verdict"] == "extinction_certified"
        assert float(report["rs_star"]) == pytest.approx(0.31496982228995035, rel=1e-12)
        assert report["bounds_applicable"] == "false"

    def test_example2_faithful_formulas_do_not_certify(self, example2_config_path, tmp_path):
        # the second benchmark parameter set fails the beta-vs-noise premise
        # in regime 2 and its rtilde_star comes out below 1, so the honest
        # verdict is indeterminate
        out = tmp_path / "report.txt"
        assert main(["thresholds", "--config", str(example2_config_path),
                     "--out", str(out), "--quiet"]) == 0
        report = parse_report(out)
        assert report["verdict"] == "indeterminate"
        conds = report["condition_beta_extinction"].split(", ")
        assert conds == ["true", "false", "true", "true"]

    def test_persistent_config_writes_bounds(self, tmp_path):
        path = write_doc(tmp_path, persistent_doc())
        out = tmp_path / "report.txt"
        assert main(["thresholds", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        report = parse_report(out)
        assert report["verdict"] == "persistence_certified"
        assert float(report["E_bound"]) > 0


class TestSimulateCommand:
    def test_zero_horizon_single_row(self, tmp_path):
        path = write_doc(tmp_path, small_doc(horizon=0.0))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,regime,S,E,Q,I,R"
        assert len(lines) == 2
        assert lines[1] == "0.0,1,1.0,0.5,0.1,0.1,0.0"

    def test_byte_identical_reruns(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out1), "--quiet"]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(path), "--out", str(out1), "--quiet"])
        main(["simulate", "--config", str(path), "--out", str(out2),
              "--seed", "123", "--quiet"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_values_round_trip_full_precision(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        out = tmp_path / "traj.csv"
        main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        lines = out.read_text().splitlines()[1:]
        cells = lines[-1].split(",")
        assert "e" not in lines[-1]  # positional decimal notation
        for cell in cells[2:]:
            assert float(cell) >= 0.0

    def test_default_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEQIRSIM_OUT_DIR", str(tmp_path))
        path = write_doc(tmp_path, small_doc())
        assert main(["simulate", "--config", str(path), "--quiet"]) == 0
        assert (tmp_path / "config_trajectory.csv").exists()


class TestEnsembleCommand:
    def test_member_zero_matches_simulate_with_derived_seed(self, tmp_path):
        doc = small_doc()
        doc["ensemble"] = {"n": 1, "base_seed": 77}
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "ens"
        assert main(["ensemble", "--config", str(path), "--out", str(out_dir),
                     "--quiet"]) == 0
        derived = derive_seed(77, 0)
        member = out_dir / f"traj_000_seed_{derived}.csv"
        assert member.exists()

        single = tmp_path / "single.csv"
        assert main(["simulate", "--config", str(path), "--out", str(single),
                     "--seed", str(derived), "--quiet"]) == 0
        assert member.read_bytes() == single.read_bytes()

    def test_summary_written(self, tmp_path):
        doc = small_doc()
        doc["ensemble"] = {"n": 3, "base_seed": 5}
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "ens"
        assert main(["ensemble", "--config", str(path), "--out", str(out_dir),
                     "--quiet"]) == 0
        summary = parse_report(out_dir / "summary.txt")
        assert summary["n_trajectories"] == "3"
        assert 0.0 <= float(summary["extinction_fraction"]) <= 1.0
        assert len(list(out_dir.glob("traj_*.csv"))) == 3


class TestChainCommand:
    def test_benchmark_diagnostics(self, example1_config_path, tmp_path):
        out = tmp_path / "chain.txt"
        assert main(["chain", "--config", str(example1_config_path),
                     "--out", str(out), "--quiet"]) == 0
        report = parse_report(out)
        pi = [float(v) for v in report["pi"].split(", ")]
        assert np.abs(np.array(pi) - np.array(PI_4_PRINTED)).max() < 5e-5
        for i in range(4):
            row = [float(v) for v in report[f"P_row_{i + 1}"].split(", ")]
            assert np.abs(np.array(row) - np.array(P_4_PRINTED[i])).max() < 5e-5
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
        assert float(report["occupancy_l1_distance"]) < 0.1

    def test_occupancy_close_on_long_horizon(self, tmp_path):
        doc = small_doc(horizon=10000.0)
        doc["generator"] = [
            [-10, 3, 2, 5], [6, -9, 2, 1], [3, 3, -8, 2], [1, 5, 3, -9]]
        doc["regimes"] = doc["regimes"] * 2
        path = write_doc(tmp_path, doc)
        out = tmp_path / "chain.txt"
        assert main(["chain", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        assert float(parse_report(out)["occupancy_l1_distance"]) < 0.02


class TestCompareDetCommand:
    def test_noise_free_agreement(self, tmp_path):
        doc = small_doc(horizon=10.0)
        doc["generator"] = [[0.0]]
        regime = dict(doc["regimes"][0])
        regime["sigma0"] = 0.0
        doc["regimes"] = [regime]
        doc["initial"]["regime"] = 1
        doc["ensemble"] = {"n": 2, "base_seed": 3}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "cmp.csv"
        assert main(["compare-det", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("t,S_mean,S_det,E_mean,E_det,Q_mean,Q_det,"
                            "I_mean,I_det,R_mean,R_det")
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        gap = np.abs(data[:, 1::2][:, :5] - data[:, 2::2]).max()
        assert gap < 1e-3

    def test_noise_widens_gap(self, tmp_path):
        gaps = []
        for sigma0 in (1e-3, 1e-2, 1e-1):
            doc = small_doc(horizon=10.0)
            doc["generator"] = [[0.0]]
            regime = dict(doc["regimes"][0])
            regime["sigma0"] = sigma0
            doc["regimes"] = [regime]
            doc["initial"]["regime"] = 1
            doc["ensemble"] = {"n": 4, "base_seed": 3}
            path = write_doc(tmp_path, doc, name=f"cfg_{sigma0}.json")
            out = tmp_path / f"cmp_{sigma0}.csv"
            assert main(["compare-det", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
            lines = out.read_text().splitlines()[1:]
            data = np.array([[float(v) for v in line.split(",")] for line in lines])
            gaps.append(np.abs(data[:, 1::2][:, :5] - data[:, 2::2]).max())
        assert gaps[0] < gaps[1] < gaps[2]


    def test_members_are_not_all_held(self, tmp_path, monkeypatch):
        # when member i arrives, members 1..i-2 are gone: only the first
        # (its times are written) and the one last added may still live
        held = []
        real = cli.iter_ensemble

        def tracked(*args):
            for i, traj in enumerate(real(*args)):
                held.append(sum(ref() is not None for ref in members[1:i - 1]))
                members.append(weakref.ref(traj))
                yield traj

        members = []
        monkeypatch.setattr(cli, "iter_ensemble", tracked)
        doc = small_doc(horizon=1.0)
        doc["ensemble"] = {"n": 6, "base_seed": 3}
        path = write_doc(tmp_path, doc)
        assert main(["compare-det", "--config", str(path), "--out", str(tmp_path / "cmp.csv"),
                     "--quiet"]) == 0
        assert held == [0] * 6


@pytest.mark.parametrize("rows", [1, 7, 1001, 20001])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20, 33, 64, 257])
def test_member_mean_has_the_bytes_of_np_mean(n, rows):
    # states spread over 35 orders of magnitude, so that every rounding of
    # the sum shows; np.mean adds along the member axis in index order
    rng = np.random.default_rng(n * 100003 + rows)
    states = np.exp(rng.uniform(-60.0, 20.0, size=(n, rows, 5)))
    members = [types.SimpleNamespace(states=member) for member in states]
    expected, first_states = np.mean(list(states), axis=0).tobytes(), states[0].tobytes()
    first, mean = cli._member_mean(members)
    assert first is members[0]
    assert mean.tobytes() == expected
    assert states[0].tobytes() == first_states  # the sum is a copy


class TestWarnings:
    def test_coarse_chain_grid_is_one_status_line(self, example2_config_path, tmp_path,
                                                  capsys):
        doc = json.loads(example2_config_path.read_text())
        doc["simulation"].update({"dt": 0.05, "horizon": 5, "stride": 1})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "traj.csv"
        # twice in one process: the line must not depend on earlier warnings
        for _ in range(2):
            assert main(["simulate", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
            assert capsys.readouterr().err == (
                "warning: dt * max exit rate = 0.5 > 0.1; "
                "the grid approximation of the chain is coarse\n")
        # the CSV is the one written with the warning ignored
        silent = tmp_path / "silent.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--config", str(path), "--out", str(silent),
                         "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        assert out.read_bytes() == silent.read_bytes()

    def test_each_distinct_warning_once_per_run(self, example2_config_path, tmp_path,
                                                capsys):
        # an ensemble samples one chain path per member, each of which warns
        doc = json.loads(example2_config_path.read_text())
        doc["simulation"].update({"dt": 0.05, "horizon": 5, "stride": 1})
        doc["ensemble"] = {"n": 3, "base_seed": 1}
        path = write_doc(tmp_path, doc)
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "ens"),
                     "--quiet"]) == 0
        assert capsys.readouterr().err.count("warning: dt * max exit rate") == 1


def failing_member_doc():
    """An error-policy ensemble whose members 2 and 4 go negative, member 4
    earlier in its run (t = 1.33) than member 2 (t = 1.53); 0, 1 and 3 pass."""
    doc = table_doc(GENERATOR_4, dict(EX1_PARAMS, sigma0=[0.1] * 4))
    doc["simulation"].update({"dt": 0.01, "horizon": 20.0, "stride": 10,
                              "scheme": "euler_maruyama", "negativity_policy": "error"})
    doc["initial"] = {"S": 20, "E": 20, "Q": 15, "I": 10, "R": 0, "regime": 3}
    doc["ensemble"] = {"n": 5, "base_seed": 6}
    return doc


class TestEnsemblePool:
    """Ensemble members step on one thread per usable CPU; no output may
    depend on how many there are."""

    @staticmethod
    def run_at(monkeypatch, cpus, argv):
        with monkeypatch.context() as m:
            use_cpus(m, cpus)
            threads = stepping_threads(m)
            return main(argv), threads

    @pytest.mark.parametrize("name, make_doc", [("small", small_doc),
                                                ("persistent", persistent_doc),
                                                ("example2", example2_doc)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pinned_outputs_at_each_worker_count(self, tmp_path, monkeypatch, cpus, name,
                                                 make_doc):
        use_cpus(monkeypatch, cpus)
        assert golden_outputs(tmp_path, make_doc()) == GOLDEN_SHA256[name]

    @pytest.mark.parametrize("command", ["ensemble", "compare-det"])
    def test_outputs_identical_at_1_and_2_workers(self, tmp_path, monkeypatch, command):
        # n = 7 passes the limit of two members in flight per worker
        doc = small_doc()
        doc["ensemble"] = {"n": 7, "base_seed": 3}
        path = write_doc(tmp_path, doc)
        compiled = _kernel.load()[0] is not None
        outputs = []
        for cpus in (1, 2):
            out = tmp_path / f"{cpus}cpus"
            out.mkdir()
            with monkeypatch.context() as m:
                started = started_threads(m)
                code, threads = self.run_at(monkeypatch, cpus, [command, "--config", str(path),
                                                                "--out", str(out / "out"),
                                                                "--quiet"])
            # with the kernel, more members than CPUs step in pairs: 4 kernel calls
            assert code == 0 and len(threads) == (4 if compiled else 7)
            # members step on the calling thread and on helpers started for the ensemble
            assert set(threads) <= {"MainThread", "seqirsim-member"}
            assert started == ["seqirsim-member"] * (cpus - 1 if compiled else 0)
            outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                            if p.is_file()})
        assert outputs[0] == outputs[1]
        if command == "ensemble":
            assert len(outputs[0]) == 8

    def test_first_failing_member_by_index_decides(self, tmp_path, monkeypatch, capsys):
        path = write_doc(tmp_path, failing_member_doc())
        runs = []
        for cpus in (1, 2):
            out = tmp_path / f"{cpus}cpus"
            code, _ = self.run_at(monkeypatch, cpus, ["ensemble", "--config", str(path),
                                                      "--out", str(out), "--quiet"])
            runs.append((code, capsys.readouterr().err,
                         {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert runs[0] == runs[1]
        code, err, files = runs[1]
        assert code == 3
        assert err.startswith("math domain error: compartment went negative")
        assert err.rstrip().endswith("at t=1.53")
        # the members before the failing one are written; no summary, nothing after
        assert sorted(files) == [f"traj_{i:03d}_seed_{derive_seed(6, i)}.csv"
                                 for i in range(2)]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_failed_member_write_exits_4(self, tmp_path, monkeypatch, capsys, cpus):
        # the first chunk of member 2's CSV fails, while later members are in flight
        doc = small_doc()
        doc["ensemble"] = {"n": 6, "base_seed": 3}
        path = write_doc(tmp_path, doc)
        argv = ["ensemble", "--config", str(path), "--quiet", "--out"]
        use_cpus(monkeypatch, cpus)
        assert main([*argv, str(tmp_path / "whole")]) == 0
        whole = {p.name: p.read_bytes() for p in (tmp_path / "whole").iterdir()}

        def failing_open(file, mode):
            return FailingWrite(file, mode, fail_at=2 if "traj_002_" in str(file) else 0)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        before = threading.active_count()
        assert within_deadline(lambda: main([*argv, str(tmp_path / "out")])) == 4
        assert threading.active_count() == before
        assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"
        files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        # members 0 and 1 whole, member 2 its header only, and nothing after it
        names = [f"traj_{i:03d}_seed_{derive_seed(3, i)}.csv" for i in range(3)]
        assert sorted(files) == names
        assert [files[name] for name in names[:2]] == [whole[name] for name in names[:2]]
        assert files[names[2]] == whole[names[2]].split(b"\n")[0] + b"\n"

    def test_each_distinct_warning_once_per_run_on_two_workers(self, example2_config_path,
                                                               tmp_path, monkeypatch, capsys):
        # TestWarnings at 2 workers: each member's path sampling warns, in the calling thread
        use_cpus(monkeypatch, 2)
        doc = json.loads(example2_config_path.read_text())
        doc["simulation"].update({"dt": 0.05, "horizon": 5, "stride": 1})
        doc["ensemble"] = {"n": 5, "base_seed": 1}
        path = write_doc(tmp_path, doc)
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "ens"),
                     "--quiet"]) == 0
        assert capsys.readouterr().err == (
            "warning: dt * max exit rate = 0.5 > 0.1; "
            "the grid approximation of the chain is coarse\n")


def test_the_parser_is_built_once_and_handlers_are_looked_up_per_call(
        example1_config_path, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = []
    help_text, suffix, _ = cli.COMMANDS["thresholds"]
    monkeypatch.setitem(cli.COMMANDS, "thresholds",
                        (help_text, suffix, lambda cfg, out, quiet: calls.append(out) or 0))
    out = tmp_path / "report.txt"
    assert main(["thresholds", "--config", str(example1_config_path), "--out", str(out)]) == 0
    assert calls == [out] and not out.exists()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        doc = valid_doc()
        doc["regimes"] = doc["regimes"][:1]
        path = write_doc(tmp_path, doc)
        assert main(["thresholds", "--config", str(path), "--quiet"]) == 2

    def test_missing_config_is_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--quiet"]) == 2

    def test_math_domain_error_is_3(self, tmp_path):
        # dt * max exit rate = 2 trips the chain-step guard mid-command
        doc = small_doc(dt=2.0, horizon=10.0)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 3

    def test_negative_state_is_3(self, tmp_path, capsys):
        # strong noise drives a compartment below zero under the error policy
        doc = table_doc(GENERATOR_4, dict(EX1_PARAMS, sigma0=[0.2] * 4))
        doc["simulation"].update({"dt": 0.01, "horizon": 50.0, "seed": 7,
                                  "scheme": "euler_maruyama", "negativity_policy": "error"})
        doc["initial"] = {"S": 20, "E": 20, "Q": 15, "I": 10, "R": 0, "regime": 3}
        path = write_doc(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("math domain error: compartment went negative")
        assert not out.exists()

    @pytest.mark.parametrize("params, named", [
        # sigma0_min ** 2 overflows a Python float: the error names sigma0
        (dict(EX1_PARAMS, sigma0=[1e200] * 4), "sigma0"),
        # numpy overflows to inf without raising: the report refuses the value
        (dict(EX1_PARAMS, beta=[1e300, *EX1_PARAMS["beta"][1:]],
              M=[1e300, *EX1_PARAMS["M"][1:]]), "lambda"),
    ], ids=["overflow_error", "inf_value"])
    def test_arithmetic_overflow_is_3_without_report(self, tmp_path, capsys, params, named):
        path = write_doc(tmp_path, table_doc(GENERATOR_4, params))
        out = tmp_path / "report.txt"
        assert main(["thresholds", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("math domain error: ")]
        assert len(lines) == 1 and named in lines[0]
        assert not out.exists()

    def test_a_mean_past_the_largest_float_is_3(self, tmp_path, example1_config_path,
                                                capsys):
        # each member's states are finite; their sum is not
        doc = json.loads(example1_config_path.read_text())
        doc["initial"].update(S=1.5e308, E=0, Q=0, I=0, R=0)
        doc["simulation"].update(horizon=0.01, stride=1)
        doc["ensemble"]["n"] = 2
        path = write_doc(tmp_path, doc)
        out = tmp_path / "compare.csv"
        assert main(["compare-det", "--config", str(path), "--out", str(out), "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "math domain error: ensemble mean S_mean = inf is not finite at sample 0 (t=0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "compare-det"])
    def test_a_run_too_large_to_allocate_is_2(self, tmp_path, example1_config_path, command):
        # 1e12 steps: ensemble and compare-det ask 7.28 TiB for the recorded
        # steps, and simulate's chain walk grows its path until the limit
        # refuses it.  The run is a child with its own address-space limit,
        # so it fails at that limit rather than at the machine's memory
        doc = json.loads(example1_config_path.read_text())
        doc["simulation"].update(horizon=1e8, dt=1e-4, stride=1)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        _kernel.load()  # built before the limit, which the compiler must not meet
        limit = 512 * 2 ** 20
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                "from seqirsim.cli import main\n"
                f"sys.exit(main({[command, '--config', str(path), '--out', str(out)]!r}))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("config error: the run does not fit in memory (")
        assert res.stderr.endswith("; lower simulation.horizon or raise simulation.dt or "
                                   "simulation.stride\n")
        assert not out.exists()

    def test_io_error_is_4(self, tmp_path):
        path = write_doc(tmp_path, small_doc())
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["simulate", "--config", str(path), "--out", str(missing_dir),
                     "--quiet"]) == 4

    @pytest.mark.parametrize("command, field, value", [
        ("simulate", ("simulation", "dt"), math.nan),
        ("simulate", ("simulation", "horizon"), math.inf),
        ("simulate", ("policy",), {"kind": "saturating", "a": math.nan}),
        ("chain", ("generator", 0, 1), math.nan),
        ("simulate", ("initial", "S"), 10 ** 400),
    ], ids=["dt-nan", "horizon-inf", "policy-a-nan", "generator-nan", "int-beyond-float"])
    def test_non_finite_config_is_2(self, tmp_path, capsys, command, field, value):
        # json.dumps writes NaN/Infinity, which json.loads accepts again
        doc = small_doc()
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out.txt"
        assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sim", [{"horizon": 1e-3}, {"horizon": 0.0}, {"stride": 10000}],
                             ids=["horizon-dt", "horizon-0", "stride-above-steps"])
    def test_empty_ensemble_tail_window_is_2(self, tmp_path, capsys, sim):
        doc = small_doc(**sim)
        doc["ensemble"] = {"n": 2, "base_seed": 1}
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "ens"
        assert main(["ensemble", "--config", str(path), "--out", str(out_dir),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "simulation.horizon" in err and "simulation.stride" in err
        # the window is checked before any member is simulated or written
        assert not list(out_dir.glob("traj_*.csv"))

    @pytest.mark.parametrize("generator, diagnostic", [
        ({}, "generator: expected an array of arrays of numbers"),
        ([1.0, -1.0], "generator: expected an array of arrays of numbers"),
        ([[{}, 1], [1, -1]], "generator[0][0]: expected a number, got {}"),
        ([["-1", "1"], ["1", "-1"]], "generator[0][0]: expected a number, got '-1'"),
        ([[-1, 1], [True, -1]], "generator[1][0]: expected a number, got True"),
    ], ids=["object", "flat", "object-entry", "string-entries", "bool-entry"])
    def test_generator_entry_that_is_not_a_number_is_2(self, tmp_path, capsys, generator,
                                                       diagnostic):
        # an object entry used to end in a TypeError traceback, and strings were read as floats
        doc = small_doc()
        doc["generator"] = generator
        path = write_doc(tmp_path, doc)
        out = tmp_path / "report.txt"
        assert main(["thresholds", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {diagnostic}\n"
        assert not out.exists()

    def test_step_count_beyond_2_53_is_2(self, tmp_path, capsys):
        # horizon / dt overflows to inf; it used to end in an OverflowError traceback
        doc = small_doc(dt=1e-300, horizon=1e300)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "2**53" in err
        assert not out.exists()

    def test_dt_past_the_horizon_is_2_for_chain(self, tmp_path, capsys):
        # it used to load, then sample a path to dt and end in a MemoryError traceback
        path = write_doc(tmp_path, small_doc(dt=1e9, horizon=1.0))
        out = tmp_path / "chain.txt"
        assert main(["chain", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: simulation: horizon 1.0 is not a whole number")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [0.004, 0.057], ids=["below-half-step", "off-grid"])
    def test_horizon_off_the_step_grid_is_2(self, tmp_path, capsys, horizon):
        # rounding would run 0 steps, or end silently at t = 0.06
        path = write_doc(tmp_path, small_doc(dt=0.01, horizon=horizon))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: simulation:") and "whole number of steps" in err
        assert not out.exists()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, small_doc())
        out = tmp_path / "t.csv"
        main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        assert capsys.readouterr().out == ""
        main(["simulate", "--config", str(path), "--out", str(out)])
        assert "trajectory" in capsys.readouterr().out


#: sha256 of every output file of the five subcommands, keyed by config,
#: then by path under the output directory: any changed byte of the output
#: format fails here.  Like the benchmark byte gate, this relies on numpy's
#: PCG64 stream and float formatting staying as they are.
GOLDEN_SHA256 = {
    "small": {
        "chain.txt":
            "d3afee8d1c7a34739e0bb571d95da1aa56c026631dc4ee47044aae15deac95bf",
        "compare_det.csv":
            "cb1d306f08255b19cbdcc118e71df353379f0f8698b3fef9eb780d89564607ec",
        "ensemble/summary.txt":
            "4b8b2ff0550bbda8e4c84c160e71d48679798ea37d9405adfa29f7554280d7f6",
        "ensemble/traj_000_seed_12587370737594032228.csv":
            "55bfc7ea27837f7dff721a824f08fc95862dea28879bd7277392a1fd1af44b93",
        "ensemble/traj_001_seed_13847876567842155106.csv":
            "203c716608ad300f09aae448e0f3fb8a8e3b9acd11d13ba99f5c074082d209fe",
        "thresholds.txt":
            "917b965a4bdbb0025af9c9d5b4c8f1b22a90e088a6964a21854f800392e41fa5",
        "trajectory.csv":
            "f8c336d8c6a770fc063d2b338ee874fc500ed48064946f6c78db25f31bb8401c",
    },
    "persistent": {
        "chain.txt":
            "d3afee8d1c7a34739e0bb571d95da1aa56c026631dc4ee47044aae15deac95bf",
        "compare_det.csv":
            "2415d6af37604161e3e3e7b0bd2e0287cd83fe56032c115c6d589ffeb8a90a0d",
        "ensemble/summary.txt":
            "148eca2fddf5806bb8d75c3d6ba2dbf8898e2707e56cf276d08ee3afa210a967",
        "ensemble/traj_000_seed_12587370737594032228.csv":
            "da68b24e5b3f5f3837edde1541caff99cfa0a569587238ff46a7a2ece8a4b289",
        "ensemble/traj_001_seed_13847876567842155106.csv":
            "55a7687c9ea6ceef275ad973274b4509a15a41bf222c46934779ff1836f2f46f",
        "thresholds.txt":
            "c8d7074306c06df9c6d97307646c2d4d091ef2b050614daebc79728813b01718",
        "trajectory.csv":
            "51fbdf6d6513ac58445b0542651a26506f2d27a3585d7dfc7e44924817f4af55",
    },
    "example2": {
        "chain.txt":
            "e61dd256f9793cbc032aba1dcb952f0f4084d45b8b84dd66165732c2290cb963",
        "compare_det.csv":
            "b9d1d34fed143cde019272599b6b250c25d889c129f4e75f696eec2346b3a9c2",
        "ensemble/summary.txt":
            "69af48a37b274660ef5d3116a29c60d4bb5e8ed5f5029901bf817251505e1126",
        "ensemble/traj_000_seed_12587370737594032228.csv":
            "4a8277b3fca86a4d6a45dc992668736d4adb6f1dbffbeb13259ca31e4e88a01d",
        "ensemble/traj_001_seed_13847876567842155106.csv":
            "84decf1d1b554bc9d273fc5c790d82abd22d0ebf4ef18bcbe5f63cea575ac627",
        "thresholds.txt":
            "c3ad796678a35afc8252fbda02c3b4df6eb5be558540b22a418fd52f17e11c08",
        "trajectory.csv":
            "bc7ac02f990725d1d7fa7e9d8e0c5e379bf3a7a0eaa1555a72905239580a324e",
    },
}

GOLDEN_OUTPUTS = (
    ("thresholds", "thresholds.txt"),
    ("simulate", "trajectory.csv"),
    ("ensemble", "ensemble"),
    ("chain", "chain.txt"),
    ("compare-det", "compare_det.csv"),
)


def golden_outputs(tmp_path, doc):
    """Run every subcommand on doc; return {relative path: sha256 hex}."""
    doc["ensemble"] = {"n": 2, "base_seed": 9}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    out.mkdir()
    for command, target in GOLDEN_OUTPUTS:
        assert main([command, "--config", str(path), "--out", str(out / target),
                     "--quiet"]) == 0
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name, make_doc", [("small", small_doc),
                                                ("persistent", persistent_doc),
                                                ("example2", example2_doc)])
    def test_every_output_byte_is_pinned(self, tmp_path, name, make_doc):
        assert golden_outputs(tmp_path, make_doc()) == GOLDEN_SHA256[name]

    def test_pinned_configs_reach_both_bound_branches(self, tmp_path):
        # the pins above cover both report branches only if these lines are written
        for name, make_doc in (("persistent", persistent_doc), ("example2", example2_doc)):
            (tmp_path / name).mkdir()
            golden_outputs(tmp_path / name, make_doc())
        out = tmp_path / "persistent" / "out"
        report = parse_report(out / "thresholds.txt")
        assert {"E_bound", "Q_bound", "I_bound"} <= report.keys()
        assert "bounds_applicable" not in report
        summary = parse_report(out / "ensemble" / "summary.txt")
        assert {f"bound_violation_{c}" for c in "EQI"} <= summary.keys()

        out = tmp_path / "example2" / "out"
        report = parse_report(out / "thresholds.txt")
        assert report["bounds_applicable"] == "false"
        assert report["condition_beta_extinction"] == "true, false, true, true"
        assert "bound_violation_E" not in parse_report(out / "ensemble" / "summary.txt")


def reference_csv(header, columns):
    """The CSV text of one ``str``/``_fmt`` call per value, row by row."""
    fmts = [str if np.issubdtype(col.dtype, np.integer) else _fmt for col in columns]
    rows = [",".join(header)] + [",".join(f(v) for f, v in zip(fmts, row))
                                 for row in zip(*columns)]
    return ("\n".join(rows) + "\n").encode()


#: values at and next to the edges of the range where repr has no exponent
GUARD_EDGES = [x for edge in (1e-4, 1e16) for x in (np.nextafter(edge, 0.0), edge,
                                                      np.nextafter(edge, np.inf))]
SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, *GUARD_EDGES, *(-x for x in GUARD_EDGES)]
#: integers of every digit count, next to each power of ten, and the int64 ends
INT_EDGES = [0, *(sign * v for k in range(19) for v in (10 ** k - 1, 10 ** k, 10 ** k + 1)
                  for sign in (1, -1)), 2 ** 63 - 1, -2 ** 63]
C = cli._CSV_CHUNK
#: every chunk boundary of _write_csv is crossed, and the header-only file
ROW_COUNTS = [0, 1, C - 1, C, C + 1, 2 * C + 1]


def csv_bytes(tmp_path, header, columns):
    path = tmp_path / "out.csv"
    _write_csv(path, header, columns)
    return path.read_bytes()


def in_guard(values):
    """The values that the writers print as ``repr`` prints them."""
    values = np.asarray(values, dtype=np.float64)
    mag = np.abs(values)
    return values[(values == 0) | ((mag >= 1e-4) & (mag < 1e16))]


@functools.cache
def guard_sweep() -> np.ndarray:
    """Over a million seeded random doubles inside the guard, both signs,
    and edge lists where digit search and rounding are hardest."""
    rng = np.random.default_rng(20240614)
    n = 1_050_000
    bits = (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
            | rng.integers(1023 - 14, 1023 + 54, n, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 1 << 52, n, dtype=np.uint64))
    edges = [2.0 ** k for k in range(-14, 54)]  # powers of two: the gap below is half
    edges += [float(f"{k}e{e}") for k in range(1, 1000) for e in range(-4, 16)]
    edges = [y for x in edges for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
    for centre in (2.0 ** 53, 1.5 * 2.0 ** 53):  # float sums, then rounded integers
        edges += [centre + i for i in range(-5000, 5001)]
        edges += [float(int(centre) + i) for i in range(-5000, 5001)]
    grid = np.arange(1, 100_001)  # a time column of step 1e-4, computed and parsed
    edges += (grid * 1e-4).tolist() + [float(f"{i}e-4") for i in grid.tolist()]
    edges += [1e-4, np.nextafter(1e16, 0.0), 0.0]
    edges = np.array(edges)
    return in_guard(np.concatenate([bits.view(np.float64), edges, -edges]))


def repr_mismatches(path, values):
    """``(repr, written)`` for each value whose line in a one-column CSV
    written by ``_write_csv`` is not its ``repr``."""
    _write_csv(path, ["x"], [values])
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == "x" and lines[-1] == "" and len(lines) == len(values) + 2
    return [(r, w) for r, w in zip(map(repr, values.tolist()), lines[1:-1]) if r != w]


def no_fallback(col):
    raise AssertionError("the kernel's CSV writer fell back to _cells")


#: values that both writers hand to _fmt, spliced into the kernel's rows
SPLICED = [np.nan, np.inf, -np.inf, 5e-324, 1e-5, -1e-5, np.nextafter(1e-4, 0.0), 1e16,
           -1e16, 1e300]


arbitrary_columns = given(
    pool=hyp.lists(hyp.one_of(hyp.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True),
                              hyp.sampled_from(SPECIAL_VALUES)),
                   min_size=1, max_size=40),
    ints=hyp.lists(hyp.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=10),
    n_rows=hyp.sampled_from(ROW_COUNTS), seed=hyp.integers(0, 2 ** 32))


def check_arbitrary_columns(tmp_path_factory, pool, ints, n_rows, seed):
    # the rows draw from small pools, so every pool value is written
    # in a few hundred rows and hypothesis still shrinks the pool
    rng = np.random.default_rng(seed)
    pool, ints = np.array(pool, dtype=np.float64), np.array(ints, dtype=np.int64)
    columns = [pool[rng.integers(0, len(pool), n_rows)],
               ints[rng.integers(0, len(ints), n_rows)],
               pool[rng.integers(0, len(pool), n_rows)]]
    header = ["a", "b", "c"]
    tmp_path = tmp_path_factory.mktemp("csv")
    assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)


class TestCsvWriter:
    """``_write_csv`` writes exactly what one ``_fmt`` (or ``str``) call per
    value writes.  Here it writes through the compiled kernel, which must then
    format every chunk itself; on a machine without gcc, in Python."""

    @pytest.fixture(scope="class", autouse=True)
    def backend(self):
        with pytest.MonkeyPatch.context() as mp:
            if shutil.which(_kernel.CC) is not None:
                kernel, reason = _kernel.load()
                assert kernel is not None, reason
                mp.setattr(cli, "_cells", no_fallback)
            yield

    @pytest.mark.parametrize("n_rows", ROW_COUNTS)
    def test_chunked_rows_match_the_per_value_loop(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        special = np.array(SPECIAL_VALUES)
        columns = [np.arange(n_rows) * 1e-3, rng.integers(-5, 5, n_rows),
                   special[rng.integers(0, len(special), n_rows)],
                   rng.lognormal(0.0, 12.0, n_rows) * rng.choice([-1.0, 1.0], n_rows)]
        header = ["t", "regime", "special", "spread"]
        data = csv_bytes(tmp_path, header, columns)
        assert data == reference_csv(header, columns)
        assert data.count(b"\n") == n_rows + 1

    def test_special_values_are_written_as_fmt_writes_them(self, tmp_path):
        column = np.array(SPECIAL_VALUES)
        data = csv_bytes(tmp_path, ["x"], [column])
        assert data.decode().split("\n")[1:-1] == [_fmt(x) for x in column]

    def test_integers_of_every_digit_count_are_written_as_str_writes_them(self, tmp_path):
        data = csv_bytes(tmp_path, ["n"], [np.array(INT_EDGES, dtype=np.int64)])
        assert data.decode().split("\n")[1:-1] == list(map(str, INT_EDGES))

    @settings(max_examples=200, deadline=None)
    @arbitrary_columns
    def test_arbitrary_columns_match_the_per_value_loop(self, tmp_path_factory, pool, ints,
                                                         n_rows, seed):
        check_arbitrary_columns(tmp_path_factory, pool, ints, n_rows, seed)

    @pytest.mark.parametrize("columns", [[np.zeros(3), np.zeros(2)], [np.zeros((3, 1))]])
    def test_columns_of_unequal_length_are_refused(self, tmp_path, columns):
        # the kernel reads every column up to the first one's length
        with pytest.raises(ValueError, match="equal length"):
            csv_bytes(tmp_path, ["x"] * len(columns), columns)
        assert not (tmp_path / "out.csv").exists()

    def test_in_guard_values_are_written_as_repr_writes_them(self, tmp_path):
        values = guard_sweep()
        assert len(values) > 1_000_000
        bad = repr_mismatches(tmp_path / "sweep.csv", values)
        assert not bad, f"{len(bad)} mismatches, first {bad[:10]}"

    def test_values_outside_the_guard_are_spliced_into_their_cells(self, tmp_path):
        n_rows = C + 344
        rng = np.random.default_rng(3)
        columns = [rng.uniform(-1e3, 1e3, n_rows), rng.integers(-9, 9, n_rows),
                   rng.lognormal(0.0, 3.0, n_rows), rng.integers(0, 5, n_rows),
                   rng.uniform(0.0, 1.0, n_rows)]
        # first, middle and last column; first row, both sides of the first
        # chunk boundary and the last row: 12 cells, so each value is placed
        cells = itertools.product((0, C - 1, C, n_rows - 1), (0, 2, 4))
        for value, (row, col) in zip(itertools.cycle(SPLICED), cells):
            columns[col][row] = value
        header = ["a", "b", "c", "d", "e"]
        assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)


class TestCsvWriterWithoutKernel(TestCsvWriter):
    """The same tests of the Python writer, with the kernel unavailable."""

    @pytest.fixture(scope="class", autouse=True)
    def backend(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
            yield

    # hypothesis runs one test function under one class only
    @settings(max_examples=200, deadline=None)
    @arbitrary_columns
    def test_arbitrary_columns_match_the_per_value_loop(self, tmp_path_factory, pool, ints,
                                                         n_rows, seed):
        check_arbitrary_columns(tmp_path_factory, pool, ints, n_rows, seed)


#: a file of one row, one chunk short of full, full, one past, several chunks
#: with a part one, and more chunks than the 2 x 4 buffer slots of four threads
THREADED_ROW_COUNTS = [1, C - 1, C, C + 1, 5 * C + 7, 9 * C + 7]
#: cells that go through _fmt (and -0.0, which repr writes), placed in every chunk
OUT_OF_GUARD = [1e-300, 1e20, np.nan, np.inf, -np.inf, -0.0]


def threaded_table(n_rows):
    """A float, an int and a second float column, with cells of
    ``OUT_OF_GUARD`` in every chunk of both float columns."""
    rng = np.random.default_rng(n_rows)
    columns = [np.arange(n_rows) * 1e-3, rng.integers(-2 ** 40, 2 ** 40, n_rows),
               rng.lognormal(0.0, 3.0, n_rows)]
    for lo in range(0, n_rows, C):
        for k, value in enumerate(OUT_OF_GUARD):
            row = lo + (37 * k + lo // C) % min(C, n_rows - lo)
            columns[2 * (k % 2)][row] = value
    return ["t", "n", "x"], columns


class SlowFirstChunk:
    """The kernel, with ``seqir_csv`` resting after it formats the rows from
    0, so that the other threads run ahead meanwhile: they format later chunks
    before chunk 0 is written, and fill every slot the writer lets them.
    ``threads`` holds the name of the thread of each call."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.threads = []

    def seqir_csv(self, *args):
        n = self.kernel.seqir_csv(*args)
        self.threads.append(threading.current_thread().name)
        if args[4] == 0:  # lo
            time.sleep(0.05)
        return n


class FailingHelper:
    """The kernel, with ``seqir_csv`` raising on every chunk that a helper
    thread formats.  The calling thread formats nothing until a helper has
    raised, so a helper's chunk fails whichever chunks the calling thread
    claims.  ``failed`` holds the first row of each failed chunk."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.failed = []
        self.helper_failed = threading.Event()

    def seqir_csv(self, *args):
        if threading.current_thread().name == "seqirsim-csv":
            self.failed.append(args[4])
            self.helper_failed.set()
            raise RuntimeError(f"seqir_csv failed at row {args[4]}")
        assert self.helper_failed.wait(30), "no helper formatted a chunk"
        return self.kernel.seqir_csv(*args)


class FailingWrite:
    """A file opened for writing whose ``write`` fails on call ``fail_at``
    (the header is call 1, the first chunk call 2)."""

    def __init__(self, path, mode, fail_at):
        self.fh = open(path, mode)
        self.calls = 0
        self.fail_at = fail_at

    def write(self, data):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def within_deadline(fn, seconds=120):
    """fn() on a thread of its own, which must end within ``seconds``: a
    writer that hangs fails the test instead of the run.  Returns what fn
    returned, or raises what it raised."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the CSV writer did not return"
    if "error" in out:
        raise out["error"]
    return out["value"]


class TestThreadedCsvWriter:
    """With the kernel, ``_write_csv`` formats the chunks of a file on one
    thread per usable CPU: the calling thread and helpers started for the
    file.  The bytes must not depend on the thread count or on which thread
    formats which chunk, and no helper may outlive the call."""

    @pytest.fixture(autouse=True)
    def kernel(self, monkeypatch):
        if shutil.which(_kernel.CC) is None:
            pytest.skip(f"no {_kernel.CC} on this machine")
        kernel, reason = _kernel.load()
        assert kernel is not None, reason
        monkeypatch.setattr(cli, "_cells", no_fallback)
        return kernel

    @staticmethod
    def started_helpers(monkeypatch):
        """The names of the threads started from now on."""
        names = []
        start = threading.Thread.start

        def spy(thread):
            names.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        return names

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_rows", THREADED_ROW_COUNTS)
    def test_bytes_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch, kernel,
                                                     threads, n_rows):
        use_cpus(monkeypatch, threads)
        slow = SlowFirstChunk(kernel)
        monkeypatch.setattr(_kernel, "load", lambda: (slow, None))
        fmt_threads = []

        def fmt(x):
            fmt_threads.append(threading.current_thread().name)
            return _fmt(x)

        monkeypatch.setattr(cli, "_fmt", fmt)
        started = self.started_helpers(monkeypatch)
        before = threading.active_count()
        header, columns = threaded_table(n_rows)
        data = csv_bytes(tmp_path, header, columns)
        assert threading.active_count() == before
        monkeypatch.undo()  # the reference formats through the real _fmt
        assert data == reference_csv(header, columns)
        n_chunks = -(-n_rows // C)
        assert len(slow.threads) == n_chunks
        assert started == ["seqirsim-csv"] * (min(threads, n_chunks) - 1)
        # helpers format chunks, their empty cells too
        if len(started):
            assert "seqirsim-csv" in slow.threads
        assert len(fmt_threads) == sum(n_rows - len(in_guard(columns[j])) for j in (0, 2))
        assert len(fmt_threads) >= min(n_rows, 2) * n_chunks  # nan and inf, at least

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_a_helpers_exception_is_raised_as_its_chunk(self, tmp_path, monkeypatch, kernel,
                                                        threads):
        use_cpus(monkeypatch, threads)
        failing = FailingHelper(kernel)
        monkeypatch.setattr(_kernel, "load", lambda: (failing, None))
        before = threading.active_count()
        header, columns = threaded_table(5 * C + 7)
        with pytest.raises(RuntimeError) as info:
            within_deadline(lambda: csv_bytes(tmp_path, header, columns))
        assert threading.active_count() == before
        first = min(failing.failed)
        assert str(info.value) == f"seqir_csv failed at row {first}"
        # the chunks before it are written, in order, and none after it
        written = (tmp_path / "out.csv").read_bytes()
        assert written == reference_csv(header, [col[:first] for col in columns])

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_a_failed_write_ends_every_helper(self, tmp_path, monkeypatch, threads):
        use_cpus(monkeypatch, threads)
        monkeypatch.setattr(cli, "open", functools.partial(FailingWrite, fail_at=4),
                            raising=False)
        before = threading.active_count()
        header, columns = threaded_table(5 * C + 7)
        with pytest.raises(OSError, match="No space left"):
            within_deadline(lambda: csv_bytes(tmp_path, header, columns))
        assert threading.active_count() == before
        monkeypatch.undo()
        # the header and the first two chunks, written before the failure
        assert (tmp_path / "out.csv").read_bytes() == reference_csv(
            header, [col[:2 * C] for col in columns])

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_a_failed_write_exits_4(self, tmp_path, monkeypatch, capsys, threads):
        use_cpus(monkeypatch, threads)
        path = write_doc(tmp_path, small_doc(stride=1))  # 5001 rows: 5 chunks
        monkeypatch.setattr(cli, "open", functools.partial(FailingWrite, fail_at=3),
                            raising=False)
        before = threading.active_count()
        argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv"),
                "--quiet"]
        assert within_deadline(lambda: main(argv)) == 4
        assert threading.active_count() == before
        assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"
