"""Configuration loading: schema validation, round-trip, bundle integrity."""

import hashlib
import json

import pytest

from seqirsim import EpidemicState, SimulationConfig, load_config
from seqirsim.errors import ConfigError
from seqirsim.model import PARAMETER_NAMES

from conftest import EX1_PARAMS, EX2_PARAMS, GENERATOR_4

def valid_doc():
    return {
        "generator": [[-1.0, 1.0], [1.0, -1.0]],
        "regimes": [
            {"A": 0.5, "beta": 0.02, "rho1": 0.01, "rho2": 0.01, "b1": 0.05,
             "b2": 0.05, "c": 0.08, "xi": 0.01, "delta": 0.05, "alpha": 0.016,
             "sigma": 0.003, "eta": 0.02, "p": 0.001, "M": 0.001, "sigma0": 0.008},
            {"A": 0.4, "beta": 0.03, "rho1": 0.02, "rho2": 0.02, "b1": 0.06,
             "b2": 0.04, "c": 0.07, "xi": 0.012, "delta": 0.06, "alpha": 0.0015,
             "sigma": 0.005, "eta": 0.018, "p": 0.002, "M": 0.002, "sigma0": 0.0065},
        ],
        "policy": {"kind": "linear"},
        "simulation": {"dt": 0.001, "horizon": 10.0, "scheme": "milstein",
                       "chain_mode": "discretized", "seed": 5, "stride": 10,
                       "negativity_policy": "clamp_to_zero"},
        "initial": {"S": 1.0, "E": 0.5, "Q": 0.1, "I": 0.1, "R": 0.0, "regime": 1},
        "ensemble": {"n": 4, "base_seed": 9},
    }


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestBundledConfigs:
    def test_example1_encodes_benchmark_parameters(self, example1_config_path):
        cfg = load_config(example1_config_path)
        assert cfg.generator.n_states == 4
        for name in PARAMETER_NAMES:
            values = [getattr(row, name) for row in cfg.table.rows]
            assert values == EX1_PARAMS[name], name
        init = cfg.simulation.initial_state
        assert (init.S, init.E, init.Q, init.I, init.R) == (20, 20, 15, 10, 0)
        assert cfg.simulation.initial_regime == 3
        assert cfg.simulation.dt == 0.0001

    def test_example2_encodes_benchmark_parameters(self, example2_config_path):
        cfg = load_config(example2_config_path)
        for name in PARAMETER_NAMES:
            values = [getattr(row, name) for row in cfg.table.rows]
            assert values == EX2_PARAMS[name], name

    def test_generator_matches(self, example1_config_path):
        cfg = load_config(example1_config_path)
        assert cfg.generator.rates.tolist() == [[float(v) for v in row]
                                                for row in GENERATOR_4]

    def test_checksums_frozen(self, example1_config_path, example2_config_path):
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (example1_config_path, example2_config_path)
        }
        expected = {
            "example1.json": "a52e47d6533235705274f1d97eede27c0258d3fbd6212bb1a87d6acd96a47472",
            "example2.json": "c003d4d4334fee84d77ac8ced51d7643da660c21846df7764bdb5a0df6aed05a",
        }
        assert digests == expected

    def test_round_trip(self, example1_config_path, example2_config_path):
        for path in (example1_config_path, example2_config_path):
            original = json.loads(path.read_text())
            assert load_config(path).to_dict() == original


class TestRoundTrip:
    def test_synthetic_round_trip(self, tmp_path):
        doc = valid_doc()
        cfg = load_config(write_doc(tmp_path, doc))
        assert cfg.to_dict() == doc

    def test_saturating_policy_round_trip(self, tmp_path):
        doc = valid_doc()
        doc["policy"] = {"kind": "saturating", "a": 0.25}
        cfg = load_config(write_doc(tmp_path, doc))
        assert cfg.policy.kind == "saturating"
        assert cfg.to_dict()["policy"] == {"kind": "saturating", "a": 0.25}


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        doc = valid_doc()
        del doc["simulation"]
        with pytest.raises(ConfigError, match="simulation"):
            load_config(write_doc(tmp_path, doc))

    def test_unknown_section(self, tmp_path):
        doc = valid_doc()
        doc["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            load_config(write_doc(tmp_path, doc))

    def test_regime_count_mismatch(self, tmp_path):
        doc = valid_doc()
        doc["regimes"] = doc["regimes"][:1]
        with pytest.raises(ConfigError, match="2-state"):
            load_config(write_doc(tmp_path, doc))

    def test_missing_parameter_field(self, tmp_path):
        doc = valid_doc()
        del doc["regimes"][1]["sigma0"]
        with pytest.raises(ConfigError, match=r"regimes\[1\].*sigma0"):
            load_config(write_doc(tmp_path, doc))

    def test_unknown_parameter_field(self, tmp_path):
        doc = valid_doc()
        doc["regimes"][0]["gamma"] = 0.1
        with pytest.raises(ConfigError, match="gamma"):
            load_config(write_doc(tmp_path, doc))

    def test_strict_ranges(self, tmp_path):
        for field, value, fragment in [
            ("A", 0.0, "recruitment"),
            ("xi", 0.0, "death"),
            ("rho1", 0.0, "precaution"),
            ("rho2", 1.0, "precaution"),
            ("beta", -0.1, ">= 0"),
        ]:
            doc = valid_doc()
            doc["regimes"][0][field] = value
            with pytest.raises(ConfigError, match=fragment):
                load_config(write_doc(tmp_path, doc))

    def test_generator_row_sum_rejected(self, tmp_path):
        doc = valid_doc()
        doc["generator"] = [[-1.0, 2.0], [1.0, -1.0]]
        with pytest.raises(ConfigError, match="generator"):
            load_config(write_doc(tmp_path, doc))

    def test_negative_initial_rejected(self, tmp_path):
        doc = valid_doc()
        doc["initial"]["Q"] = -1.0
        with pytest.raises(ConfigError, match=r"initial\.Q"):
            load_config(write_doc(tmp_path, doc))

    def test_initial_regime_out_of_range(self, tmp_path):
        doc = valid_doc()
        doc["initial"]["regime"] = 3
        with pytest.raises(ConfigError, match="regime"):
            load_config(write_doc(tmp_path, doc))

    def test_bad_policy_kind(self, tmp_path):
        doc = valid_doc()
        doc["policy"] = {"kind": "quadratic"}
        with pytest.raises(ConfigError, match="policy.kind"):
            load_config(write_doc(tmp_path, doc))

    def test_bad_scheme(self, tmp_path):
        doc = valid_doc()
        doc["simulation"]["scheme"] = "heun"
        with pytest.raises(ConfigError, match="scheme"):
            load_config(write_doc(tmp_path, doc))

    def test_zero_ensemble_rejected(self, tmp_path):
        doc = valid_doc()
        doc["ensemble"]["n"] = 0
        with pytest.raises(ConfigError, match=r"ensemble\.n"):
            load_config(write_doc(tmp_path, doc))

    def test_simulation_defaults_are_the_dataclass_defaults(self, tmp_path):
        doc = valid_doc()
        doc["simulation"] = {"dt": 0.001, "horizon": 10.0}
        state = EpidemicState(S=1.0, E=0.5, Q=0.1, I=0.1, R=0.0)
        assert load_config(write_doc(tmp_path, doc)).simulation == \
            SimulationConfig(0.001, 10.0, state, 1)

    def test_type_errors_diagnosed(self, tmp_path):
        doc = valid_doc()
        doc["simulation"]["dt"] = "small"
        with pytest.raises(ConfigError, match=r"simulation\.dt"):
            load_config(write_doc(tmp_path, doc))

    def test_dt_past_a_nonzero_horizon_rejected(self, tmp_path):
        # a grid of zero whole steps short of the horizon: chain would sample
        # to dt, about 1e10 jumps at example1's rates
        doc = valid_doc()
        doc["simulation"].update(dt=1e9, horizon=1.0)
        with pytest.raises(ConfigError, match=r"^simulation: horizon 1\.0 is not a whole number "
                                              r"of steps of dt 1000000000\.0"):
            load_config(write_doc(tmp_path, doc))
        # a horizon of zero steps is still a grid, of one sample
        doc["simulation"].update(horizon=0.0)
        assert load_config(write_doc(tmp_path, doc)).simulation.n_steps == 0
