"""The compiled block runner against the Python reference, its lazy loader
and its fallback."""

import itertools
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from seqirsim import (
    EpidemicState,
    PolicyFunction,
    SimulationConfig,
    simulate,
    validate_generator,
)
from seqirsim import _kernel
from seqirsim.cli import main
from seqirsim.errors import NegativeState, NonFiniteState
from seqirsim.integrate import _BLOCK, _run_blocks_c, _run_blocks_py, _setup

from conftest import EX1_PARAMS, EX2_PARAMS, GENERATOR_2, GENERATOR_4, table_from_lists
from test_config import valid_doc, write_doc

SRC = Path(__file__).resolve().parent.parent / "src"


def _with(params: dict, **values) -> dict:
    out = dict(params)
    for name, v in values.items():
        out[name] = [v] * len(out["A"])
    return out


_BLOW_UP_ROWS = valid_doc()["regimes"]
BLOW_UP_PARAMS = {name: [row[name] for row in _BLOW_UP_ROWS] for name in _BLOW_UP_ROWS[0]}

# name -> (generator, parameters, dt, horizon, initial state, initial regime, seed)
CASES = {
    # 40 clamp events over 5000 Euler-Maruyama steps; the error policy raises
    "clamping": (GENERATOR_4, _with(EX1_PARAMS, sigma0=0.2), 0.01, 50.0,
                 (20, 20, 15, 10, 0), 3, 7),
    # 65600 steps: the second Brownian block starts mid-run
    "two_blocks": (GENERATOR_4, EX2_PARAMS, 1e-3, 65.6, (20, 20, 15, 10, 0), 3, 7),
    # Milstein on the discretized chain overflows to inf at t = 5.5
    "blow_up": (GENERATOR_2, _with(BLOW_UP_PARAMS, beta=50.0, sigma0=50.0), 0.5, 10.0,
                (100, 100, 0.1, 0.1, 0), 1, 2),
}
POLICIES = {"linear": PolicyFunction.linear(), "saturating": PolicyFunction.saturating(0.5)}


def case_inputs(case, **overrides):
    gen, params, dt, horizon, init, regime, seed = CASES[case]
    config = SimulationConfig(dt=dt, horizon=horizon, initial_state=EpidemicState(*init),
                              initial_regime=regime, seed=seed, **overrides)
    return config, validate_generator(gen), table_from_lists(params)


def outcome(runner, config, gen, table, h):
    """The recorded bytes and clamp count of one run, or its error and message."""
    run = _setup(config, gen, table, h)
    try:
        runner(run)
    except (NegativeState, NonFiniteState) as exc:
        return type(exc).__name__, str(exc)
    return run.times.tobytes(), run.regimes.tobytes(), run.states.tobytes(), run.clamps


@pytest.fixture(scope="module")
def kernel():
    """The loaded kernel; skipped only on a machine with no C compiler."""
    if shutil.which(_kernel.CC) is None:
        pytest.skip(f"no {_kernel.CC} on this machine")
    fn, reason = _kernel.load()
    assert fn is not None, reason
    return fn


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("scheme, chain_mode, policy, negativity, stride", list(
    itertools.product(("milstein", "euler_maruyama"), ("exact", "discretized"),
                      ("linear", "saturating"), ("clamp_to_zero", "error"),
                      (1, 7, "beyond"))))
def test_backend_identity(kernel, case, scheme, chain_mode, policy, negativity, stride):
    config, gen, table = case_inputs(case, scheme=scheme, chain_mode=chain_mode,
                                     negativity_policy=negativity)
    if stride == "beyond":
        stride = config.n_steps + 5
    config = replace(config, output_stride=stride)
    h = POLICIES[policy]
    reference = outcome(_run_blocks_py, config, gen, table, h)
    compiled = outcome(lambda run: _run_blocks_c(run, kernel), config, gen, table, h)
    assert compiled == reference


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
def test_identity_cases_reach_the_paths_they_cover(kernel):
    """Each case exercises what its comment claims, so identity there means something."""
    h = POLICIES["linear"]
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama")
    assert outcome(_run_blocks_py, config, gen, table, h)[3] == 40
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama",
                                     negativity_policy="error")
    assert outcome(_run_blocks_py, config, gen, table, h)[0] == "NegativeState"
    config, _, _ = case_inputs("two_blocks")
    assert config.n_steps > _BLOCK
    config, gen, table = case_inputs("blow_up", chain_mode="discretized")
    name, message = outcome(_run_blocks_py, config, gen, table, h)
    assert name == "NonFiniteState" and "t=5.5" in message


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An empty kernel cache and a loader that has not run yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


@pytest.mark.parametrize("breakage", ["no-compiler", "build-fails"])
def test_fallback_to_python_when_the_kernel_cannot_build(kernel, fresh_loader, monkeypatch,
                                                         tmp_path, breakage):
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama", output_stride=7)
    h = POLICIES["saturating"]
    compiled = outcome(lambda run: _run_blocks_c(run, kernel), config, gen, table, h)
    if breakage == "no-compiler":
        monkeypatch.setattr(_kernel, "CC", "no-such-compiler-seqirsim")
        expected = "not found"
    else:
        broken = tmp_path / "_kernel.c"
        broken.write_text("#error deliberately broken\n")
        monkeypatch.setattr(_kernel, "SOURCE", broken)
        expected = "failed"
    fallback = simulate(config, gen, table, h)
    assert fallback.metadata["backend"] == "python"
    assert expected in fallback.metadata["backend_reason"]
    assert (fallback.times.tobytes(), fallback.regimes.tobytes(), fallback.states.tobytes(),
            fallback.metadata["clamp_events"]) == compiled
    assert compiled[3] > 0
    assert not list((tmp_path / "cache" / "seqirsim").iterdir())


def test_custom_policy_always_steps_in_python(kernel):
    config, gen, table = case_inputs("two_blocks", output_stride=100)
    custom = PolicyFunction.custom(lambda s: s / (1.0 + 0.5 * s), slope_at_zero=1.0)
    by_python = simulate(config, gen, table, custom)
    assert by_python.metadata["backend"] == "python"
    assert "custom" in by_python.metadata["backend_reason"]
    by_kernel = simulate(config, gen, table, POLICIES["saturating"])
    assert by_kernel.metadata["backend"] == "c"
    assert by_python.states.tobytes() == by_kernel.states.tobytes()


def test_import_and_config_load_do_not_build_or_load(kernel, tmp_path, example1_config_path):
    cache = tmp_path / "cache"
    code = (
        "import sys, seqirsim, seqirsim.cli\n"
        f"cfg = seqirsim.cli.load_config({str(example1_config_path)!r})\n"
        "print('seqirsim._kernel' in sys.modules, 'subprocess' in sys.modules)\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert res.stdout.split() == ["False", "False"]
    assert not cache.exists()

    # the same checks see a build once simulate has run
    code += ("from dataclasses import replace\n"
             "sim = replace(cfg.simulation, horizon=0.01)\n"
             "traj = seqirsim.simulate(sim, cfg.generator, cfg.table, cfg.policy)\n"
             "from seqirsim import _kernel\n"
             "print(traj.metadata['backend'], _kernel.load.cache_info().currsize)\n")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert res.stdout.split()[-2:] == ["c", "1"]
    assert len(list((cache / "seqirsim").glob("kernel-*.so"))) == 1
    assert (cache / "seqirsim").stat().st_mode & 0o777 == 0o700


@pytest.mark.parametrize("backend", ["c", "python"])
def test_non_finite_state_is_exit_3_without_csv(kernel, tmp_path, monkeypatch, capsys,
                                                backend):
    # the blow-up reproduction: beta = sigma0 = 50, dt = 0.5, S = E = 100, clamp_to_zero
    doc = valid_doc()
    for row in doc["regimes"]:
        row["beta"] = row["sigma0"] = 50.0
    doc["simulation"].update({"dt": 0.5, "seed": 2, "negativity_policy": "clamp_to_zero"})
    doc["initial"].update({"S": 100.0, "E": 100.0})
    path = write_doc(tmp_path, doc)
    if backend == "python":
        monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
    out = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["simulate", "--config", str(path), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("math domain error: state is not finite") and "t=5.5" in err
    assert not out.exists()


def test_status_line_names_the_backend(kernel, tmp_path, capsys):
    doc = valid_doc()
    doc["simulation"]["horizon"] = 1.0
    path = write_doc(tmp_path, doc)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 0
    assert "backend c" in capsys.readouterr().out
