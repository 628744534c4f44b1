"""End-to-end CLI behavior: files, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from seqirsim.cli import main
from seqirsim.integrate import derive_seed

from conftest import P_4_PRINTED, PI_4_PRINTED
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
        doc = valid_doc()
        from conftest import PERSISTENT_PARAMS, GENERATOR_2
        doc["generator"] = GENERATOR_2
        doc["regimes"] = [
            {name: PERSISTENT_PARAMS[name][k] for name in PERSISTENT_PARAMS}
            for k in range(2)
        ]
        path = write_doc(tmp_path, doc)
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
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "ens"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "simulation.horizon" in err and "simulation.stride" in err

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, small_doc())
        out = tmp_path / "t.csv"
        main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        assert capsys.readouterr().out == ""
        main(["simulate", "--config", str(path), "--out", str(out)])
        assert "trajectory" in capsys.readouterr().out
