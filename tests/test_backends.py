"""The compiled step loop, RK4 loop and sojourn walk against the Python
reference, their lazy loader and its fallback."""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqirsim import (
    EpidemicState,
    PolicyFunction,
    RegimePath,
    SimulationConfig,
    sample_path_discretized,
    sample_path_exact,
    simulate,
    simulate_deterministic,
    validate_generator,
)
from seqirsim import _kernel, chain, cli
from seqirsim.cli import main
from seqirsim.errors import NegativeState, NonFiniteState, StalledClock
from seqirsim.integrate import _BLOCK, _run_c, _run_py, _setup, derive_seed

from conftest import EX1_PARAMS, EX2_PARAMS, GENERATOR_2, GENERATOR_4, table_from_lists
from test_chain import GOLDEN_CASES, GOLDEN_DIGESTS, NEAR_ABSORBING, golden_digest
from test_cli import guard_sweep, no_fallback, parse_report, repr_mismatches
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
    # 65600 steps: more than one of the Python runner's blocks of normals, the last partial
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
    """The recorded bytes, clamp count and stream state after one run, or its
    error and message.  The state pins the draws: one normal per step."""
    run = _setup(config, gen, table, h)
    try:
        runner(run)
    except (NegativeState, NonFiniteState) as exc:
        return type(exc).__name__, str(exc)
    return (run.times.tobytes(), run.regimes.tobytes(), run.states.tobytes(), run.clamps,
            run.rng.bit_generator.state)


def alone(kernel):
    """A runner that steps a run in a lone lane of ``kernel`` and raises its
    error, as ``simulate`` does."""
    def run_alone(run):
        _run_c([run], kernel)
        if run.error is not None:
            raise run.error
    return run_alone


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
    reference = outcome(_run_py, config, gen, table, h)
    compiled = outcome(alone(kernel), config, gen, table, h)
    assert compiled == reference


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
def test_identity_cases_reach_the_paths_they_cover(kernel):
    """Each case exercises what its comment claims, so identity there means something."""
    h = POLICIES["linear"]
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama")
    assert outcome(_run_py, config, gen, table, h)[3] == 40
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama",
                                     negativity_policy="error")
    assert outcome(_run_py, config, gen, table, h)[0] == "NegativeState"
    config, _, _ = case_inputs("two_blocks")
    assert config.n_steps > _BLOCK
    config, gen, table = case_inputs("blow_up", chain_mode="discretized")
    name, message = outcome(_run_py, config, gen, table, h)
    assert name == "NonFiniteState" and "t=5.5" in message


def member_outcome(run, failed=False):
    """What a stepped run leaves: its recorded bytes, clamp count, final
    state and stream state, or its error and message, and with ``failed``
    the failing state and the stream state too."""
    if run.error is not None:
        return (type(run.error).__name__, str(run.error),
                *((run.state, stream_state(run.rng)) if failed else ()))
    return (run.times.tobytes(), run.regimes.tobytes(), run.states.tobytes(), run.clamps,
            run.state, stream_state(run.rng))


def python_runs(runs):
    """Step each run alone in ``_run_py``, keeping its error as the kernel does."""
    for run in runs:
        try:
            _run_py(run)
        except (NegativeState, NonFiniteState) as exc:
            run.error = exc


def in_lanes(kernel, configs, gen, table, h, failed=False):
    """:func:`member_outcome` of each of one or two runs, at ``configs``,
    stepped in the lanes of one kernel call."""
    runs = [_setup(config, gen, table, h) for config in configs]
    _run_c(runs, kernel)
    return [member_outcome(run, failed) for run in runs]


def in_python(configs, gen, table, h):
    """:func:`member_outcome` of each run at ``configs``, stepped alone in Python."""
    runs = [_setup(config, gen, table, h) for config in configs]
    python_runs(runs)
    return [member_outcome(run) for run in runs]


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("scheme, chain_mode, policy, negativity", list(
    itertools.product(("milstein", "euler_maruyama"), ("exact", "discretized"),
                      ("linear", "saturating"), ("clamp_to_zero", "error"))))
def test_each_lane_of_a_pair_steps_as_its_lone_run(kernel, case, scheme, chain_mode, policy,
                                                   negativity):
    # the other lane has another seed, so another path and other normals
    config, gen, table = case_inputs(case, scheme=scheme, chain_mode=chain_mode,
                                     negativity_policy=negativity, output_stride=7)
    h = POLICIES[policy]
    configs = [config, replace(config, seed=config.seed + 100)]
    reference = in_python(configs, gen, table, h)
    assert in_lanes(kernel, configs, gen, table, h) == reference
    assert in_lanes(kernel, configs[::-1], gen, table, h) == reference[::-1]


def test_twin_lanes_step_as_their_lone_run(kernel):
    # one seed in both lanes: every clamp falls on both lanes at the same step
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama", output_stride=7)
    h = POLICIES["linear"]
    reference = in_python([config], gen, table, h)
    assert reference[0][3] == 40
    assert in_lanes(kernel, [config, config], gen, table, h) == reference * 2


#: (jump times, 0-based regimes) put in place of a sampled path: several
#: jumps inside one step (the last wins), jumps at other steps, no jump
CRAFTED_PATHS = [([0.0, 0.1, 0.1001, 0.1002, 0.5], [2, 0, 3, 1, 2]),
                 ([0.0, 0.25, 0.75], [1, 3, 0]),
                 ([0.0], [3])]


def on_crafted_paths(runner, paths):
    """:func:`member_outcome` of runs of 100 steps on ``paths``, one run a
    path, stepped by ``runner``, which takes the list of runs."""
    config = SimulationConfig(dt=0.01, horizon=1.0, output_stride=7,
                              initial_state=EpidemicState(20, 20, 15, 10, 0))
    runs = []
    for seed, (jumps, regs) in enumerate(paths, 3):
        run = _setup(replace(config, seed=seed), validate_generator(GENERATOR_4),
                     table_from_lists(EX1_PARAMS), POLICIES["saturating"])
        run.jump_times, run.regs = np.array(jumps), np.array(regs, dtype=np.int64)
        runs.append(run)
    runner(runs)
    return [member_outcome(run) for run in runs]


@pytest.mark.parametrize("paths", list(itertools.permutations(range(len(CRAFTED_PATHS)), 2)))
def test_lanes_that_jump_at_different_steps(kernel, paths):
    paths = [CRAFTED_PATHS[i] for i in paths]
    assert on_crafted_paths(lambda runs: _run_c(runs, kernel), paths) == \
        on_crafted_paths(python_runs, paths)


#: an error-policy ensemble of base seed 6 (test_cli.failing_member_doc):
#: members 2 and 4 go negative, at t = 1.53 and 1.33, and 0, 1 and 3 pass
NEGATIVE = (GENERATOR_4, _with(EX1_PARAMS, sigma0=0.1), 0.01, 20.0, (20, 20, 15, 10, 0), 3)
#: kind -> the seeds of a pair; the first fails
FAILING_PAIRS = {
    "non-finite": [2, 0],  # blow_up: seed 2 overflows at t = 5.5, seed 0 passes
    "both-non-finite": [2, 8],  # both at t = 5.5
    "negative": [derive_seed(6, 2), derive_seed(6, 1)],
    "both-negative": [derive_seed(6, 2), derive_seed(6, 4)],  # at different steps
}


def failing_pair(kind="negative"):
    """The configs of the pair ``FAILING_PAIRS[kind]``, the generator and the table."""
    if "non-finite" in kind:
        config, gen, table = case_inputs("blow_up", chain_mode="discretized", output_stride=7)
    else:
        g, params, dt, horizon, init, regime = NEGATIVE
        config = SimulationConfig(dt=dt, horizon=horizon, initial_state=EpidemicState(*init),
                                  initial_regime=regime, scheme="euler_maruyama",
                                  output_stride=10, negativity_policy="error")
        gen, table = validate_generator(g), table_from_lists(params)
    return [replace(config, seed=seed) for seed in FAILING_PAIRS[kind]], gen, table


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("kind", list(FAILING_PAIRS))
@pytest.mark.parametrize("failing_lane", [0, 1])
def test_a_failing_lane_stops_as_its_lone_run_and_the_other_runs_on(kernel, kind,
                                                                    failing_lane):
    configs, gen, table = failing_pair(kind)
    if failing_lane:
        configs = configs[::-1]
    h = POLICIES["linear"]
    # the failing state before any clamp and the stream state after the
    # failing step: the kernel stops drawing there, as a lone run does
    lone = [in_lanes(kernel, [config], gen, table, h, failed=True)[0] for config in configs]
    assert in_lanes(kernel, configs, gen, table, h, failed=True) == lone
    # and the lone runs are the Python reference's, the failures by type and message
    reference = in_python(configs, gen, table, h)
    assert [out[:2] if isinstance(out[0], str) else out for out in lone] == reference
    failed = [isinstance(out[0], str) for out in lone]
    assert failed == ([True, "both" in kind][::-1] if failing_lane else [True, "both" in kind])
    expected = "NonFiniteState" if "non-finite" in kind else "NegativeState"
    assert {out[0] for out, bad in zip(lone, failed) if bad} == {expected}


#: name -> (parameters, regime, initial state, policy intensity M, dt, horizon)
RK4_CASES = {
    # 5000 steps of the rich dynamics of benchmark set 2
    "ex2-regime3": (EX2_PARAMS, 3, (20, 20, 15, 10, 0), 2.0, 1e-3, 5.0),
    "ex1-regime1-coarse": (EX1_PARAMS, 1, (0.3, 0.2, 0.1, 0.05, 0.05), 0.001, 0.1, 20.0),
    "no-policy": (EX2_PARAMS, 2, (10, 5, 1, 1, 0), 0.0, 0.01, 3.0),
    "all-zero": (EX1_PARAMS, 4, (0, 0, 0, 0, 0), 0.004, 0.05, 2.0),
    # one step that leaves E, Q, I and R far below zero, returned as computed
    "one-step-negative": (_with(EX2_PARAMS, beta=0.5), 1, (20, 20, 15, 10, 0), 0.001, 0.5, 0.5),
    # the blow-up reproduction: example2.json regime 1 with beta 2 at dt 0.5
    "blow-up": (_with(EX2_PARAMS, beta=2.0), 1, (20, 20, 15, 10, 0), 0.001, 0.5, 100.0),
}


def rk4_outcome(params, regime, init, m_const, dt, horizon, stride=1):
    """Times and states bytes and backend of one RK4 run, or its error and message."""
    if stride == "beyond":
        stride = round(horizon / dt) + 5
    row = replace(table_from_lists(params)[regime], M=m_const)
    try:
        traj = simulate_deterministic(EpidemicState(*init), row, dt, horizon, stride)
    except NonFiniteState as exc:
        return type(exc).__name__, str(exc)
    return traj.times.tobytes(), traj.states.tobytes(), traj.metadata["backend"]


def python_rk4_outcome(monkeypatch, *args):
    """:func:`rk4_outcome` with the kernel unavailable."""
    with monkeypatch.context() as m:
        m.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
        return rk4_outcome(*args)


@pytest.mark.parametrize("stride", [1, 7, 8, "beyond"])
@pytest.mark.parametrize("case", list(RK4_CASES))
def test_rk4_backend_identity(kernel, monkeypatch, case, stride):
    compiled = rk4_outcome(*RK4_CASES[case], stride)
    reference = python_rk4_outcome(monkeypatch, *RK4_CASES[case], stride)
    assert compiled[:2] == reference[:2]
    if compiled[0] != "NonFiniteState":
        assert (compiled[2], reference[2]) == ("c", "python")


def test_rk4_cases_reach_the_paths_they_cover(kernel):
    for case in ("ex2-regime3", "ex1-regime1-coarse", "no-policy"):
        assert len(np.frombuffer(rk4_outcome(*RK4_CASES[case])[1])) > 1000
    all_zero = np.frombuffer(rk4_outcome(*RK4_CASES["all-zero"])[1]).reshape(-1, 5)
    assert not all_zero[0].any() and not all_zero[:, 1].any() and all_zero[-1, 0] > 0.0
    one_step = np.frombuffer(rk4_outcome(*RK4_CASES["one-step-negative"])[1]).reshape(-1, 5)
    assert len(one_step) == 2 and (one_step[1, 1:] < -1.0).all()
    name, message = rk4_outcome(*RK4_CASES["blow-up"])
    assert name == "NonFiniteState" and "t=1.5" in message


@pytest.mark.parametrize("beta", [0.5, 2.0, 5.0])
def test_rk4_non_finite_state_raises_on_both_backends(kernel, monkeypatch, beta):
    # example2.json regime 1 at dt 0.5 over 200 steps overflows for each beta
    args = (_with(EX2_PARAMS, beta=beta), *RK4_CASES["blow-up"][1:])
    compiled = rk4_outcome(*args)
    assert compiled == python_rk4_outcome(monkeypatch, *args)
    assert compiled[0] == "NonFiniteState"
    assert compiled[1].startswith("state is not finite (S=")


#: name -> (generator, initial regime, horizon, grid dt or None for exact, seed)
WALK_CASES = {
    "exact-gen4": (GENERATOR_4, 2, 30.0, None, 11),
    # more jumps than the first two kernel buffers of the default size hold
    "exact-gen4-long": (GENERATOR_4, 4, 600.0, None, 13),
    # about 1.7 jumps per 1e-3 step, several inside one step
    "exact-several-jumps-per-step": ((np.array(GENERATOR_4) * 200).tolist(), 1, 0.5, None, 3),
    "grid-gen4": (GENERATOR_4, 3, 30.0, 1e-3, 11),
    # leave_prob == 0 in state 1: the grid walk ends there without a draw
    "exact-near-absorbing-1": (NEAR_ABSORBING, 1, 10.0, None, 5),
    "exact-near-absorbing-2": (NEAR_ABSORBING, 2, 10.0, None, 5),
    "grid-near-absorbing-1": (NEAR_ABSORBING, 1, 10.0, 1e-3, 5),
    "grid-near-absorbing-2": (NEAR_ABSORBING, 2, 10.0, 1e-3, 5),
    # no walk at all: the samplers return before drawing
    "exact-single": ([[0.0]], 1, 10.0, None, 5),
    "grid-single": ([[0.0]], 1, 10.0, 1e-3, 5),
    "grid-horizon-within-one-step": (GENERATOR_4, 2, 1e-3, 1e-3, 5),
}


def sample(case, rng=None):
    """The path of one public sampler call on a walk case."""
    raw, r0, horizon, dt, seed = WALK_CASES[case]
    g = validate_generator(raw)
    rng = np.random.default_rng(seed) if rng is None else rng
    if dt is None:
        return sample_path_exact(g, r0, horizon, rng)
    return sample_path_discretized(g, r0, horizon, dt, rng)


def sampled(case):
    """Path bytes of one public sampler call and the stream state after it."""
    rng = np.random.default_rng(WALK_CASES[case][4])
    path = sample(case, rng)
    return path.jump_times.tobytes(), path.regimes.dtype, path.regimes.tobytes(), \
        rng.bit_generator.state


def python_only(monkeypatch):
    monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))


def fallback(*args):
    raise AssertionError("the kernel's work fell back to Python")


def kernel_only(monkeypatch):
    """Make the Python walk fail."""
    monkeypatch.setattr(chain, "_walk", fallback)


def walked(walk, cdfs, r0, horizon, unit, geometric, param, seed):
    """Path bytes of one walk from ``walk`` and the stream state after it."""
    rng = np.random.default_rng(seed)
    path = walk(np.array(cdfs, dtype=float), r0, horizon, unit, geometric,
                np.array(param, dtype=float), rng)
    return path.jump_times.tobytes(), path.regimes.dtype, path.regimes.tobytes(), \
        rng.bit_generator.state


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("capacity", [1, 7, 65536, chain._WALK_CAPACITY])
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_walk_identity(kernel, monkeypatch, case, capacity):
    # the walk's arrays start with `capacity` entries: 1 and 7 grow them and
    # resume the walk on every longer path, the default grows them on the
    # longest case, and 65536 holds every case in one call
    monkeypatch.setattr(chain, "_WALK_CAPACITY", capacity)
    with monkeypatch.context() as m:
        kernel_only(m)
        compiled = sampled(case)
    python_only(monkeypatch)
    assert compiled == sampled(case)


def walk_inputs(case):
    """The kernel walk's landing laws, initial regime, horizon, unit,
    geometric flag and param for a walk case, as its sampler passes them.
    The samplers do not walk a one-state chain: its landing laws are empty
    (of 0 / 0), its grid walk ends before a draw and its exact walk holds
    for an infinite mean time (of 1 / 0), ending at its first draw."""
    raw, r0, horizon, dt, _ = WALK_CASES[case]
    g = validate_generator(raw)
    with np.errstate(divide="ignore", invalid="ignore"):
        if dt is None:
            return chain._jump_cdfs(g.rates), r0, horizon, 1.0, False, 1.0 / g.exit_rates
        cdfs, leave = chain._grid_law(g, dt)
    return cdfs, r0, horizon, dt, True, leave


@pytest.mark.parametrize("capacity", [1, 7, chain._WALK_CAPACITY])
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_the_kernel_walk_sums_the_occupancy_of_its_path(kernel, case, capacity):
    # the sums go on across the calls that resume the walk in grown arrays;
    # occupancy divides its sums by the horizon, and so does the chain report
    cdfs, r0, horizon, unit, geometric, param = walk_inputs(case)
    rng = np.random.default_rng(WALK_CASES[case][4])
    times, regimes, stored, occ = chain._kernel_walk(kernel, cdfs, r0, horizon, unit,
                                                     geometric, param, rng, capacity,
                                                     chain._grow)
    path = RegimePath(times[:stored], regimes[:stored], horizon, len(param))
    assert (occ / horizon).tobytes() == chain.occupancy(path).tobytes()


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("case", list(WALK_CASES))
def test_sampled_paths_own_their_entries_and_pass_the_public_checks(kernel, monkeypatch,
                                                                    case, backend):
    if backend == "python":
        python_only(monkeypatch)
    path = sample(case)
    for entries in (path.jump_times, path.regimes):
        # not a view of a larger buffer: the path holds no memory it does not use
        assert entries.base is None and entries.flags.owndata
        assert entries.shape == (path.n_jumps + 1,)
    RegimePath(path.jump_times, path.regimes, path.horizon, path.n_states)


def test_walk_cases_reach_the_paths_they_cover(kernel):
    jumps = {name: len(np.frombuffer(sampled(name)[0])) - 1 for name in WALK_CASES}
    assert jumps["exact-gen4"] > 100 and jumps["grid-gen4"] > 100
    assert jumps["grid-near-absorbing-1"] == jumps["grid-near-absorbing-2"] - 1 == 0
    for name in ("exact-single", "grid-single", "grid-horizon-within-one-step"):
        assert jumps[name] == 0
        assert sampled(name)[3] == np.random.default_rng(WALK_CASES[name][4]).bit_generator.state
    times = np.frombuffer(sampled("exact-several-jumps-per-step")[0])
    assert np.bincount((times / 1e-3).astype(int)).max() >= 3
    # the walk resumes: more jumps than the smallest capacities hold, at the
    # default capacity only on the longest case, and never at 65536
    assert min(jumps["exact-gen4"], jumps["grid-gen4"]) > 7
    assert chain._WALK_CAPACITY < jumps["exact-gen4-long"] < 65536
    assert max(jumps[name] for name in WALK_CASES if name != "exact-gen4-long") \
        < chain._WALK_CAPACITY


def occupancy_outcome(case, reference):
    """The jump count, occupancy bytes and stream state of an exact walk
    case, from :func:`chain.sample_occupancy_exact` or, for ``reference``,
    from the path that :func:`sample_path_exact` samples."""
    raw, r0, horizon, _, seed = WALK_CASES[case]
    g = validate_generator(raw)
    rng = np.random.default_rng(seed)
    if reference:
        path = sample_path_exact(g, r0, horizon, rng)
        n_jumps, occ = path.n_jumps, chain.occupancy(path)
    else:
        n_jumps, occ = chain.sample_occupancy_exact(g, r0, horizon, rng)
    return n_jumps, occ.tobytes(), rng.bit_generator.state


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("block", [2, 7, chain._OCCUPANCY_BLOCK])
@pytest.mark.parametrize("case", [name for name, case in WALK_CASES.items() if case[3] is None])
def test_sampled_occupancy_is_that_of_the_sampled_path(kernel, monkeypatch, case, block,
                                                       backend):
    # the block is rewound after every jump (2), after every six (7), or, at
    # the default size, never on these paths; the reference runs on the
    # other backend.  The kernel walk sums the occupancy of every chain that
    # it walks, that is of more than one state
    monkeypatch.setattr(chain, "_OCCUPANCY_BLOCK", block)
    with monkeypatch.context() as m:
        (kernel_only if backend == "c" else python_only)(m)
        if backend == "c" and len(WALK_CASES[case][0]) > 1:
            m.setattr(RegimePath, "segment_durations", fallback)
        sampled_occupancy = occupancy_outcome(case, reference=False)
    (python_only if backend == "c" else kernel_only)(monkeypatch)
    assert sampled_occupancy == occupancy_outcome(case, reference=True)


def test_chain_command_memory_does_not_grow_with_the_path(kernel, tmp_path,
                                                         example1_config_path):
    # about 1e6 jumps: a path of them takes 16 MB in its two arrays alone
    doc = json.loads(example1_config_path.read_text())
    doc["generator"] = (np.array(doc["generator"]) * 50).tolist()
    doc["simulation"]["horizon"] = 2200.0
    path = write_doc(tmp_path, doc)
    out = tmp_path / "chain.txt"
    tracemalloc.start()
    try:
        code = main(["chain", "--config", str(path), "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert int(parse_report(out)["sampled_jumps"]) > 900_000
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("dt", [None, 1e-3])
def test_the_kernel_walk_runs_under_a_profiler(kernel, monkeypatch, dt):
    # a profiler set with sys.setprofile, as cProfile and pyinstrument set
    # one, holds a reference to the walk's times array while its resize runs
    kernel_only(monkeypatch)
    g = validate_generator(GENERATOR_4)

    def walk():
        rng = np.random.default_rng(13)
        path = (sample_path_exact(g, 4, 600.0, rng) if dt is None
                else sample_path_discretized(g, 4, 600.0, dt, rng))
        return path.jump_times.tobytes(), path.regimes.tobytes(), rng.bit_generator.state

    plain = walk()
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        profiled = walk()
    finally:
        sys.setprofile(None)
    assert "c_call" in events
    assert len(np.frombuffer(plain[0])) > chain._WALK_CAPACITY
    assert profiled == plain


def test_chain_command_runs_under_a_profiler(kernel, tmp_path):
    sys.setprofile(lambda frame, event, arg: None)
    try:
        code = main(["chain", "--config", str(SRC / "seqirsim" / "configs" / "example1.json"),
                     "--out", str(tmp_path / "chain.txt"), "--quiet"])
    finally:
        sys.setprofile(None)
    assert code == 0 and (tmp_path / "chain.txt").exists()


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_paths_on_both_backends(kernel, monkeypatch, backend, name):
    if backend == "python":
        monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
    assert golden_digest(name) == GOLDEN_DIGESTS[name]


TWO_STATE_CDFS = [[0.0], [1.0]]  # the landing laws of any 2-state chain


@pytest.mark.parametrize("param, horizon, unit, n_jumps", [
    ([1e-300, 0.5], 10.0, 1e-3, 0),   # the first hold is INT64_MAX steps
    ([0.5, 1e-300], 10.0, 1e-3, 1),   # INT64_MAX steps after a short hold: past INT64_MAX
    ([1.0, 1.0], 5 * 0.1, 0.1, 4),    # a jump every step, the fifth at exactly the horizon
])
def test_walk_identity_at_the_grid_clock_limits(kernel, param, horizon, unit, n_jumps):
    args = (TWO_STATE_CDFS, 1, horizon, unit, True, param, 4)
    compiled = walked(lambda *a: chain._walk_c(kernel, *a), *args)
    assert compiled == walked(chain._walk, *args)
    assert compiled == walked(chain._sample, *args)
    assert len(np.frombuffer(compiled[0])) - 1 == n_jumps


#: state 2 holds for about 1e20, after which a hold of about 1 in state 1 is
#: lost in the rounding of the exact clock
STIFF = [[-1.0, 1.0], [1e-20, -1e-20]]


@pytest.mark.parametrize("backend", ["c", "python"])
def test_a_hold_lost_in_the_exact_clock_raises(kernel, monkeypatch, backend):
    if backend == "python":
        python_only(monkeypatch)
    with pytest.raises(StalledClock, match="strictly increasing"):
        sample_path_exact(validate_generator(STIFF), 1, 1e24, 1)


def test_a_hold_lost_in_the_grid_clock_raises_on_both_backends(kernel):
    # holds of about 1e17 steps, past 2**53, and then of one step: the
    # step count is exact, but its double is not
    states = []
    for walk in (chain._walk, lambda *a: chain._walk_c(kernel, *a)):
        rng = np.random.default_rng(0)
        with pytest.raises(StalledClock, match="strictly increasing"):
            walk(np.array(TWO_STATE_CDFS), 1, 2.0 ** 62, 1.0, True, np.array([1e-17, 1.0]), rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize("backend", ["c", "python"])
def test_a_stalled_clock_is_exit_3_without_report(kernel, tmp_path, monkeypatch, capsys,
                                                  example1_config_path, backend):
    # example1 cut to its first two regimes, with the stiff generator
    doc = json.loads(example1_config_path.read_text())
    doc["generator"] = STIFF
    doc["regimes"] = doc["regimes"][:2]
    doc["simulation"].update({"dt": 1e9, "horizon": 1e24})
    doc["initial"]["regime"] = 1
    path = write_doc(tmp_path, doc)
    if backend == "python":
        python_only(monkeypatch)
    out = tmp_path / "chain.txt"
    assert main(["chain", "--config", str(path), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("math domain error: a hold too short for the clock")
    assert "Traceback" not in err
    assert not out.exists()


def with_word(word: int, at: int = 1) -> np.random.Generator:
    """A PCG64 stream whose 64-bit output number ``at`` (from 1) is ``word``.
    PCG64 steps state = state * MULT + inc, then outputs the xor of the new
    state's two halves rotated right by its top 6 bits, so a state whose
    high half is below 2**58 and whose halves xor to ``word`` outputs it."""
    mult, mask = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
    bitgen = np.random.PCG64(1)
    state = bitgen.state
    inc = state["state"]["inc"]
    s = (12345 << 64) | (12345 ^ word)
    for _ in range(at):
        s = (s - inc) * pow(mult, -1, 1 << 128) & mask
    state["state"]["state"] = s
    bitgen.state = state
    return np.random.Generator(bitgen)


def test_a_uniform_equal_to_a_cdf_entry_lands_past_it(kernel):
    # the grid hold of p = 1 takes the first draw and the landing the second,
    # u = 0.0: searchsorted(side="right") counts the entry 0.0 <= u, state 2
    assert with_word(0, at=2).bit_generator.random_raw(2)[1] == 0
    cdfs, param = np.array(TWO_STATE_CDFS), np.ones(2)
    compiled = chain._walk_c(kernel, cdfs, 1, 0.15, 0.1, True, param, with_word(0, at=2))
    reference = chain._walk(cdfs, 1, 0.15, 0.1, True, param, with_word(0, at=2))
    assert compiled.regimes.tolist() == reference.regimes.tolist() == [1, 2]
    assert compiled.jump_times.tobytes() == reference.jump_times.tobytes()


def stream_state(rng: np.random.Generator) -> dict:
    """The state of ``rng``'s bit generator with its arrays (MT19937's key,
    Philox's counter) as bytes, so that two states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tobytes() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


#: kind -> (bit of the magnitude, bit of the box, the other bits that
#: matter, offset of k in the kernel's tables): numpy's words for a normal
#: and an exponential, as _kernel.c's ziggurat_t describes them
WORD_LAYOUTS = {"normal": (9, 0, 0x100, 256), "exponential": (11, 3, 0x7, 768)}


def boundary_words(kernel, kind):
    """``(word, fast)`` at both ends of every box's fast path in the kernel's
    tables: magnitude k - 1, the last on it, and k, the first off it (the
    normal's tail in box 0, a wedge elsewhere), each with the other bits
    (the normal's sign, three bits the exponential skips) clear and set.
    Box 1 has k = 0 in numpy's tables: no magnitude is on its fast path."""
    m_at, box_at, other, at = WORD_LAYOUTS[kind]
    k = kernel.ziggurat[at:at + 256].tolist()
    return [(m << m_at | idx << box_at | bits, m < k[idx]) for idx in range(256)
            for m in (k[idx] - 1, k[idx]) if m >= 0 for bits in (0, other)]


def test_boundary_words_straddle_numpys_fast_paths(kernel):
    # numpy draws one word on its fast path and more (uniforms, words) off it;
    # box 1 is always off it
    for kind, draw in (("normal", np.random.Generator.standard_normal),
                       ("exponential", np.random.Generator.standard_exponential)):
        words = boundary_words(kernel, kind)
        assert len(words) == 2 * (2 * 256 - 1)
        for word, fast in words:
            rng = with_word(word)
            draw(rng)
            one_word_on = with_word(word).bit_generator.advance(1).state
            assert (rng.bit_generator.state == one_word_on) == fast, (kind, hex(word))


#: a 3-step run on one regime: the chain draws nothing, so the first normal
#: takes the stream's first word
ONE_REGIME = (SimulationConfig(dt=0.01, horizon=0.03,
                               initial_state=EpidemicState(20, 20, 15, 10, 0)),
              validate_generator([[0.0]]),
              table_from_lists({name: values[:1] for name, values in EX1_PARAMS.items()}))


def stepped(runner, rng):
    """States, clamp count and stream state after a one-regime run on ``rng``."""
    run = _setup(*ONE_REGIME, POLICIES["linear"])
    run.rng = rng
    runner(run)
    return run.states.tobytes(), run.clamps, stream_state(run.rng)


def boundary_steps(kernel, runner):
    """:func:`stepped` with the first normal at each of the boundary words."""
    return [stepped(runner, with_word(word)) for word, _ in boundary_words(kernel, "normal")]


def walked_exact(rng_for, horizon=3.0):
    """An exact path's bytes, then the jump count and occupancy bytes of
    ``sample_occupancy_exact``, each drawn from a stream ``rng_for()`` gives
    and paired with its state after the walk.  A hold of 0 stalls the clock
    (a word of magnitude 0): its message stands for the walk's result."""
    g = validate_generator(GENERATOR_4)
    outcomes = []
    for sample, result in ((sample_path_exact,
                            lambda path: (path.jump_times.tobytes(), path.regimes.tobytes())),
                           (chain.sample_occupancy_exact,
                            lambda out: (out[0], out[1].tobytes()))):
        rng = rng_for()
        try:
            outcome = result(sample(g, 2, horizon, rng))
        except StalledClock as exc:
            outcome = str(exc)
        outcomes.append((outcome, stream_state(rng)))
    return outcomes


def boundary_walks(kernel):
    """:func:`walked_exact` with the first hold at each of the boundary words."""
    return [walked_exact(lambda: with_word(word))
            for word, _ in boundary_words(kernel, "exponential")]


def test_normals_at_both_ends_of_every_fast_path_on_both_backends(kernel):
    assert boundary_steps(kernel, alone(kernel)) == \
        boundary_steps(kernel, _run_py)


def test_exponentials_at_both_ends_of_every_fast_path_on_both_backends(kernel, monkeypatch):
    with monkeypatch.context() as m:
        kernel_only(m)
        compiled = boundary_walks(kernel)
    python_only(monkeypatch)
    assert compiled == boundary_walks(kernel)


def test_first_exact_hold_is_numpys_exponential_at_every_boundary_word(kernel, monkeypatch):
    # an exact walk's first jump time is its scale times the first
    # exponential, which is Generator.standard_exponential's
    kernel_only(monkeypatch)
    g = validate_generator(GENERATOR_4)
    scale = (1.0 / g.exit_rates)[1]
    checked = 0
    for word, _ in boundary_words(kernel, "exponential"):
        expected = scale * with_word(word).standard_exponential()
        if 0.0 < expected < 3.0:
            assert sample_path_exact(g, 2, 3.0, with_word(word)).jump_times[1] == expected
            checked += 1
    assert checked > 1000


OTHER_BIT_GENERATORS = [np.random.MT19937, np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS)
def test_runs_on_other_bit_generators_on_both_backends(kernel, bit_generator):
    # 5000 steps draw about 35 normals off the fast path, each through
    # numpy's routine on the run's own bit generator
    config, gen, table = case_inputs("clamping", output_stride=7)
    h = POLICIES["linear"]
    outcomes = []
    for runner in (alone(kernel), _run_py):
        run = _setup(config, gen, table, h)
        run.rng = np.random.Generator(bit_generator(7))
        runner(run)
        outcomes.append((run.states.tobytes(), run.clamps, stream_state(run.rng)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("bit_generator", OTHER_BIT_GENERATORS)
def test_walks_on_other_bit_generators_on_both_backends(kernel, monkeypatch, bit_generator):
    # about 2700 holds, some 30 of them off the exponential's fast path
    outcomes = []
    for use in (kernel_only, python_only):
        with monkeypatch.context() as m:
            use(m)
            outcomes.append(walked_exact(lambda: np.random.Generator(bit_generator(11)), 300.0))
    assert outcomes[0] == outcomes[1]
    (n_jumps, _), _ = outcomes[0][1]
    assert n_jumps > 2000


def test_grid_horizon_past_the_int64_clock_is_refused(kernel, monkeypatch):
    # the kernel counts grid steps in an int64: a longer horizon is refused
    # on both backends before a draw, and one of exactly 2**63 steps is
    # sampled alike, in holds of about 4.5e15 steps
    g = validate_generator([[-2e-16, 2e-16], [2e-16, -2e-16]])
    outcomes = []
    for backend in ("c", "python"):
        with monkeypatch.context() as m:
            (kernel_only if backend == "c" else python_only)(m)
            rng = np.random.default_rng(4)
            with pytest.raises(ValueError, match=r"exceeds 2\*\*63 grid steps"):
                sample_path_discretized(g, 1, 1e20, 1.0, rng)
            assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state
            path = sample_path_discretized(g, 1, 2.0 ** 63, 1.0, rng)
            outcomes.append((path.jump_times.tobytes(), path.regimes.tobytes(),
                             rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]
    assert len(np.frombuffer(outcomes[0][0])) > 1000


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An empty kernel cache and a loader that has not run yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


def test_a_build_removes_kernels_unused_for_30_days(kernel, fresh_loader, tmp_path):
    cache = tmp_path / "cache" / "seqirsim"
    cache.mkdir(parents=True, mode=0o700)
    now = time.time()
    ages = {"kernel-stale.so": 31, "kernel-recent.so": 29, "other-stale.so": 40}
    for name, days in ages.items():
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (now - days * 86400,) * 2)
    assert _kernel.load()[0] is not None
    built = [p.name for p in cache.glob("kernel-*.so") if p.name not in ages]
    assert len(built) == 1
    # the other kernel of 31 days goes; the 29-day one and a file of another name stay
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [*built, "kernel-recent.so", "other-stale.so"])
    # a load from the cache refreshes the kernel's time, so it is never stale
    os.utime(cache / built[0], (now - 40 * 86400,) * 2)
    _kernel.load.cache_clear()
    assert _kernel.load()[0] is not None
    assert (cache / built[0]).stat().st_mtime > now - 60


def test_a_removal_that_fails_or_races_is_ignored(kernel, fresh_loader, tmp_path,
                                                  monkeypatch):
    cache = tmp_path / "cache" / "seqirsim"
    cache.mkdir(parents=True, mode=0o700)
    old = time.time() - 31 * 86400
    for name in ("kernel-a.so", "kernel-b.so"):
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (old, old))
    unlink = Path.unlink

    def flaky(path, *args, **kwargs):
        if path.name == "kernel-a.so":
            raise PermissionError("read-only")
        unlink(path, *args, **kwargs)  # kernel-b: another process removed it first
        unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", flaky)
    assert _kernel.load()[0] is not None
    assert sorted(p.name for p in cache.glob("kernel-[ab].so")) == ["kernel-a.so"]


@pytest.mark.parametrize("breakage", ["no-compiler", "build-fails", "no-archive"])
def test_fallback_to_python_when_the_kernel_cannot_build(kernel, fresh_loader, monkeypatch,
                                                         tmp_path, breakage):
    if breakage == "no-compiler":
        monkeypatch.setattr(_kernel, "CC", "no-such-compiler-seqirsim")
        expected = "not found"
    elif breakage == "build-fails":
        broken = tmp_path / "_kernel.c"
        broken.write_text("#error deliberately broken\n")
        monkeypatch.setattr(_kernel, "SOURCE", broken)
        expected = "failed"
    else:
        monkeypatch.setattr(_kernel, "ARCHIVE", tmp_path / "no-such-libnpyrandom.a")
        expected = "numpy random library missing"
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama", output_stride=7)
    h = POLICIES["saturating"]
    # the path is walked in Python here too: the breakage applies to every load
    compiled = outcome(alone(kernel), config, gen, table, h)
    fallback = simulate(config, gen, table, h)
    assert fallback.metadata["backend"] == "python"
    assert expected in fallback.metadata["backend_reason"]
    assert "\n" not in fallback.metadata["backend_reason"]
    assert (fallback.times.tobytes(), fallback.regimes.tobytes(), fallback.states.tobytes(),
            fallback.metadata["clamp_events"]) == compiled[:4]
    assert compiled[3] > 0
    # RK4 falls back too, with the same reason
    det = simulate_deterministic(EpidemicState(20, 20, 15, 10, 0), replace(table[3], M=0.5),
                                 0.01, 1.0)
    assert det.metadata["backend"] == "python"
    assert det.metadata["backend_reason"] == fallback.metadata["backend_reason"]
    assert not [f for f in (tmp_path / "cache").rglob("*") if not f.is_dir()]


#: one-operation changes of seqir_rk4, each of which some RK4 case must detect
RK4_MUTATIONS = {
    "update-distributes-2": ("k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]",
                             "k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]"),
    "last-stage-half-step": ("y4[j] = y[j] + dt * k3[j]", "y4[j] = y[j] + half * k3[j]"),
}


#: seqir_ziggurat's result with its check of the tables against numpy left out
NO_TABLE_CHECK = ("return normal_bad ? normal_bad : exponential_bad ? 256 + exponential_bad : 0;",
                  "return 0;")


def mutate_kernel(monkeypatch, tmp_path, old, new, checked=True):
    """Point the loader at a copy of ``_kernel.c`` with ``old`` replaced by
    ``new``, and with the table check left out unless ``checked``."""
    source = _kernel.SOURCE.read_text()
    for old, new in [(old, new)] + ([] if checked else [NO_TABLE_CHECK]):
        assert source.count(old) == 1
        source = source.replace(old, new)
    mutated = tmp_path / "_kernel.c"
    mutated.write_text(source)
    monkeypatch.setattr(_kernel, "SOURCE", mutated)


@pytest.mark.parametrize("mutation", list(RK4_MUTATIONS))
def test_rk4_identity_detects_a_mutated_kernel(kernel, fresh_loader, monkeypatch, tmp_path,
                                               mutation):
    mutate_kernel(monkeypatch, tmp_path, *RK4_MUTATIONS[mutation])
    cases = [(*args, stride) for args in RK4_CASES.values() for stride in (1, 7)]
    compiled = [rk4_outcome(*case) for case in cases]
    assert {out[2] for out in compiled if len(out) == 3} == {"c"}
    reference = [python_rk4_outcome(monkeypatch, *case) for case in cases]
    assert any(c[:2] != r[:2] for c, r in zip(compiled, reference))


#: one-operation changes of the inline ziggurats, each of which the table
#: check refuses at load time, and the identity tests detect without it
ZIGGURAT_MUTATIONS = {
    # every normal on the fast path comes out positive
    "xor-sign-dropped": ("        bits ^= (r & 0x100) << 55;\n", ""),
    # each box's fast path one magnitude too long: only a word at its end shows it
    "probe-stores-hi-plus-1": ("        k[idx] = hi;", "        k[idx] = hi + 1;"),
    # numpy's routine is handed the live stream's next word, not the one that missed
    "replay-word-not-replayed": ("    if (!p->replayed++)\n        return p->word;\n", ""),
    # the exponential's box and magnitude read one bit too low
    "exponential-shift-2": ("    uint64_t ri = r >> 3;", "    uint64_t ri = r >> 2;"),
}


@pytest.mark.parametrize("mutation", list(ZIGGURAT_MUTATIONS))
def test_the_table_check_refuses_a_mutated_ziggurat(kernel, fresh_loader, monkeypatch,
                                                    tmp_path, mutation):
    mutate_kernel(monkeypatch, tmp_path, *ZIGGURAT_MUTATIONS[mutation])
    mutant, reason = _kernel.load()
    assert mutant is None
    assert "draw differently from it" in reason and "\n" not in reason


#: one-operation changes of seqir_run, each of which some identity case, lone
#: or in a pair of lanes, must detect
RUN_MUTATIONS = {
    # discretized jumps land on grid points, so each would start a step late
    "jump-a-step-late": ("if ((double)n * dt >= next[l])", "if ((double)n * dt > next[l])"),
    # the states are unchanged; only the stream state after the run shows it
    "one-draw-too-many": ("        lane[l].out[0] = clamps[l];",
                          "        random_standard_normal(lane[l].bitgen);\n"
                          "        lane[l].out[0] = clamps[l];"),
    **{name: ZIGGURAT_MUTATIONS[name] for name in ("xor-sign-dropped", "probe-stores-hi-plus-1",
                                                   "replay-word-not-replayed")},
    # each lane steps on the other's normal
    "lane-draws-swapped": ("(vd){d0, d1}", "(vd){d1, d0}"),
    # a jump of lane 1 alone leaves it on its old regime's constants
    "jumping-lane-constants-not-refreshed": ("jumped = 1;", "jumped = l == 0;"),
    # both lanes step on after one fails, so the failed lane draws on
    "failed-lane-keeps-drawing": ("        if (failed)\n            break;\n", ""),
    # lane l's clamp applied to both lanes: the other's clamps go uncounted
    "clamp-applied-to-both-lanes": ("        if (v[j][l] < 0.0)\n            v[j][l] = 0.0;",
                                    "        for (int m = 0; m < 2; m++)\n"
                                    "            if (v[j][m] < 0.0)\n"
                                    "                v[j][m] = 0.0;"),
}


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("mutation", list(RUN_MUTATIONS))
def test_run_identity_detects_a_mutated_kernel(kernel, fresh_loader, monkeypatch, tmp_path,
                                               mutation):
    mutate_kernel(monkeypatch, tmp_path, *RUN_MUTATIONS[mutation], checked=False)
    mutant, reason = _kernel.load()
    assert mutant is not None, reason
    h = POLICIES["linear"]
    cases = [case_inputs(case, chain_mode=mode, output_stride=7)
             for case in ("clamping", "blow_up") for mode in ("exact", "discretized")]
    compiled = [outcome(alone(mutant), *case, h) for case in cases]
    reference = [outcome(_run_py, *case, h) for case in cases]
    compiled.append(boundary_steps(kernel, alone(mutant)))
    reference.append(boundary_steps(kernel, _run_py))
    # pairs: another seed, a twin (Euler-Maruyama clamps, too), crafted
    # paths, and a lane that fails
    for config, gen, table in [*cases, case_inputs("clamping", scheme="euler_maruyama")]:
        for seeds in ((7, 8), (7, 7)):
            configs = [replace(config, seed=seed) for seed in seeds]
            compiled.append(in_lanes(mutant, configs, gen, table, h))
            reference.append(in_python(configs, gen, table, h))
    for paths in itertools.permutations(CRAFTED_PATHS, 2):
        compiled.append(on_crafted_paths(lambda runs: _run_c(runs, mutant), paths))
        reference.append(on_crafted_paths(python_runs, paths))
    configs, gen, table = failing_pair()
    compiled.append(in_lanes(mutant, configs, gen, table, h, failed=True))
    reference.append([in_lanes(kernel, [config], gen, table, h, failed=True)[0]
                      for config in configs])
    assert compiled != reference


#: one-operation changes of seqir_walk's draws, each of which the walks from
#: the boundary words must detect
WALK_MUTATIONS = {name: ZIGGURAT_MUTATIONS[name] for name in (
    "exponential-shift-2", "probe-stores-hi-plus-1", "replay-word-not-replayed")}


@pytest.mark.parametrize("mutation", list(WALK_MUTATIONS))
def test_walk_identity_detects_a_mutated_kernel(kernel, fresh_loader, monkeypatch, tmp_path,
                                                mutation):
    mutate_kernel(monkeypatch, tmp_path, *WALK_MUTATIONS[mutation], checked=False)
    mutant, reason = _kernel.load()
    assert mutant is not None, reason
    with monkeypatch.context() as m:
        kernel_only(m)
        compiled = boundary_walks(kernel)
    with monkeypatch.context() as m:
        python_only(m)
        assert compiled != boundary_walks(kernel)


#: one-operation changes of seqir_csv, each of which the repr identity sweep must detect
CSV_MUTATIONS = {
    "ties-round-up": ("half + (sticky | odd) > p10", "half + 1 > p10"),
    "misplaced-digits-below-1": ("p = put_text(p + 2 - point, text, n);",
                                 "p = put_text(p + 1 - point, text, n);"),
    # d = 10^17 (x = 10.0, 1000.0, ...) counted as 17 digits
    "digit-count-off-at-a-power-of-ten": ("d >= POW10[17]", "d > POW10[17]"),
    # the two-digit test made with dh's last digit: two digits go where one may
    "two-digits-dropped-where-one-may-go": (
        "const unsigned two = rh - 100 * (rh >= 100) <= slack;",
        "const unsigned two = rh - 10 * (rh * 103 >> 10) <= slack;"),
    # below 2^-9 (t = 20, 21) the factor 10^(t-19) is left out of the product
    "t-19-product-below-2^-9": ("P10(SCALE_T(b) - SCALE_LOW(b))", "P10(0)"),
}


@pytest.mark.parametrize("mutation", list(CSV_MUTATIONS))
def test_csv_identity_detects_a_mutated_kernel(kernel, fresh_loader, monkeypatch, tmp_path,
                                               mutation):
    mutate_kernel(monkeypatch, tmp_path, *CSV_MUTATIONS[mutation])
    mutant, reason = _kernel.load()
    assert mutant is not None, reason
    monkeypatch.setattr(cli, "_cells", no_fallback)
    assert repr_mismatches(tmp_path / "sweep.csv", guard_sweep())


def test_csv_rows_of_the_longest_cells_end_inside_the_buffer(kernel):
    # a full chunk of the longest in-guard cells (23 characters and a
    # separator: _CELL_BYTES each) fills the buffer that _kernel_rows
    # allocates to its last byte; the fixed-size stores of the digit writer
    # must not pass that end, where the canary bytes sit
    assert len(repr(-0.00012345678901234567)) + 1 == cli._CELL_BYTES
    n_rows, n_cols = cli._CSV_CHUNK, 3
    cols = [np.full(n_rows, -0.00012345678901234567) for _ in range(n_cols)]
    size = n_rows * n_cols * cli._CELL_BYTES
    buf = np.full(size + 64, 0xA5, dtype=np.uint8)
    splices = np.empty((n_rows * n_cols, 3), dtype=np.int64)
    n_bytes = np.zeros(1, dtype=np.int64)
    addrs = np.array([col.ctypes.data for col in cols], dtype=np.uintp)
    strides = np.full(n_cols, 8, dtype=np.int64)
    ints = np.zeros(n_cols, dtype=np.int64)
    assert kernel.seqir_csv(addrs.ctypes.data, strides.ctypes.data, ints.ctypes.data, n_cols,
                            0, n_rows, buf.ctypes.data, splices.ctypes.data,
                            n_bytes.ctypes.data) == 0
    assert n_bytes[0] == size
    assert buf[:size].tobytes() == (",".join(["-0.00012345678901234567"] * n_cols)
                                    + "\n").encode() * n_rows
    assert (buf[size:] == 0xA5).all()


def test_no_kernel_without_128_bit_integers(kernel, fresh_loader, monkeypatch, tmp_path):
    # the kernel as a compiler without unsigned __int128 (and without the
    # macro that announces it) meets it: the build fails and no routine
    # loads, so every one runs in Python
    source = _kernel.SOURCE.read_text()
    assert "unsigned __int128" in source
    narrow = tmp_path / "_kernel.c"
    narrow.write_text(source.replace("__SIZEOF_INT128__", "SEQIRSIM_NO_INT128")
                      .replace("unsigned __int128", "unsigned __seqirsim_no_int128"))
    monkeypatch.setattr(_kernel, "SOURCE", narrow)
    lib, reason = _kernel.load()
    assert lib is None and reason.startswith(f"{_kernel.CC} failed: ")
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama", output_stride=7)
    traj = simulate(config, gen, table, POLICIES["linear"])
    assert (traj.metadata["backend"], traj.metadata["backend_reason"]) == ("python", reason)


def test_csv_rows_keep_the_arrays_the_kernel_reads_alive(kernel):
    # fill hands seqir_csv the addresses of the column table and the flags;
    # freed, their memory goes to the next arrays of the same size.  In a
    # child interpreter, so a crash fails this test and not the run
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from seqirsim import _kernel, cli\n"
        "kernel, _ = _kernel.load()\n"
        "cols = [np.arange(10) * 0.1, np.arange(10) % 4, *[np.linspace(1.0, 2.0, 10)] * 5]\n"
        "fill, text = cli._kernel_rows(kernel, cols, 2)\n"
        "taken = [np.full(7, 7, dtype=np.int64) for _ in range(8)]\n"
        "expected = ''.join(','.join(row) + '\\n' for row in zip(*map(cli._cells, cols)))\n"
        "sys.stdout.write(str(bytes(text(1, fill(0, 10, 1))) == expected.encode()))\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True"


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


@pytest.mark.parametrize("backend", ["c", "python"])
def test_rk4_non_finite_state_is_exit_3_without_csv(kernel, tmp_path, monkeypatch, capsys,
                                                    example2_config_path, backend):
    # the frozen ensemble clamps and stays finite; RK4 overflows at t = 1.5
    doc = json.loads(example2_config_path.read_text())
    doc["regimes"][0]["beta"] = 2.0
    doc["simulation"].update({"dt": 0.5, "horizon": 100, "stride": 1})
    doc["initial"]["regime"] = 1
    doc["ensemble"]["n"] = 2
    path = write_doc(tmp_path, doc)
    if backend == "python":
        monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
    out = tmp_path / "cmp.csv"
    assert main(["compare-det", "--config", str(path), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("math domain error: state is not finite") and "t=1.5" in err
    assert not out.exists()


def test_status_line_names_the_backend(kernel, tmp_path, capsys):
    doc = valid_doc()
    doc["simulation"]["horizon"] = 1.0
    path = write_doc(tmp_path, doc)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 0
    assert "backend c" in capsys.readouterr().out
    assert main(["compare-det", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 0
    assert "ensemble backend c, rk4 backend c" in capsys.readouterr().out
