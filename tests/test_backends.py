"""The compiled step loop, RK4 loop and sojourn walk against the Python
reference, their lazy loader and its fallback."""

import itertools
import json
import os
import shutil
import subprocess
import sys
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
from seqirsim.errors import NegativeState, NonFiniteState
from seqirsim.integrate import _BLOCK, _run_c, _run_py, _setup

from conftest import EX1_PARAMS, EX2_PARAMS, GENERATOR_2, GENERATOR_4, table_from_lists
from test_chain import GOLDEN_CASES, GOLDEN_DIGESTS, NEAR_ABSORBING, golden_digest
from test_cli import csv_bytes, guard_sweep, no_fallback, reference_csv, repr_mismatches
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
    compiled = outcome(lambda run: _run_c(run, kernel), config, gen, table, h)
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


#: name -> (parameters, regime, initial state, M_const, dt, horizon)
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
    row = table_from_lists(params)[regime]
    try:
        traj = simulate_deterministic(EpidemicState(*init), row, m_const, dt, horizon, stride)
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
    """Path bytes of one public sampler call, the stream state after it and
    the bytes of the path's occupancy."""
    rng = np.random.default_rng(WALK_CASES[case][4])
    path = sample(case, rng)
    return path.jump_times.tobytes(), path.regimes.dtype, path.regimes.tobytes(), \
        rng.bit_generator.state, chain.occupancy(path).tobytes()


def python_only(monkeypatch):
    monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))


def kernel_only(monkeypatch):
    """Make the Python walk and the bincount's durations fail."""
    def fallback(*args):
        raise AssertionError("the walk or the occupancy fell back to Python")
    monkeypatch.setattr(chain, "_walk", fallback)
    monkeypatch.setattr(RegimePath, "segment_durations", fallback)


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
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_path_exact(validate_generator(STIFF), 1, 1e24, 1)


def test_a_hold_lost_in_the_grid_clock_raises_on_both_backends(kernel):
    # holds of about 1e17 steps, past 2**53, and then of one step: the
    # step count is exact, but its double is not
    states = []
    for walk in (chain._walk, lambda *a: chain._walk_c(kernel, *a)):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="strictly increasing"):
            walk(np.array(TWO_STATE_CDFS), 1, 2.0 ** 62, 1.0, True, np.array([1e-17, 1.0]), rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize("backend", ["c", "python"])
def test_occupancy_adds_the_segments_in_index_order(kernel, monkeypatch, backend):
    # state 1 holds for 2**-53, 2**-53 and then 1.0: added in that order the
    # two halves of an ulp of 1.0 make a whole one, and with 1.0 first each
    # rounds away
    tiny = 2.0 ** -53
    path = RegimePath(np.array([0.0, tiny, 2 * tiny, 3 * tiny, 4 * tiny]),
                      np.array([1, 2, 1, 2, 1]), 1.0 + 4 * tiny, 2)
    if backend == "python":
        python_only(monkeypatch)
    else:
        kernel_only(monkeypatch)
    expected = np.array([2 * tiny + 1.0, 2 * tiny]) / path.horizon
    assert chain.occupancy(path).tobytes() == expected.tobytes()


def test_occupancy_of_a_path_changed_out_of_range_is_the_bincount(kernel, monkeypatch):
    # a path's arrays can be written after its checks: the kernel stops at
    # the regime out of range, writing nothing past occ, and leaves the path
    # to the bincount
    path = RegimePath(np.array([0.0, 1.0, 2.0]), np.array([1, 2, 1]), 4.0, 2)
    path.regimes[1] = 5
    compiled = chain.occupancy(path)
    python_only(monkeypatch)
    assert compiled.tobytes() == chain.occupancy(path).tobytes()


def zero_at_second_draw() -> np.random.Generator:
    """A PCG64 stream whose second 64-bit output is 0, so that draw is the
    uniform 0.0 exactly.  PCG64 steps state = state * MULT + inc and outputs
    the rotated xor of its two halves, which is 0 for equal halves."""
    mult, mask = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
    bitgen = np.random.PCG64(1)
    state = bitgen.state
    inc = state["state"]["inc"]
    s = (12345 << 64) | 12345
    for _ in range(2):
        s = (s - inc) * pow(mult, -1, 1 << 128) & mask
    state["state"]["state"] = s
    bitgen.state = state
    return np.random.Generator(bitgen)


def test_a_uniform_equal_to_a_cdf_entry_lands_past_it(kernel):
    # the grid hold of p = 1 takes the first draw and the landing the second,
    # u = 0.0: searchsorted(side="right") counts the entry 0.0 <= u, state 2
    assert zero_at_second_draw().bit_generator.random_raw(2)[1] == 0
    cdfs, param = np.array(TWO_STATE_CDFS), np.ones(2)
    compiled = chain._walk_c(kernel, cdfs, 1, 0.15, 0.1, True, param, zero_at_second_draw())
    reference = chain._walk(cdfs, 1, 0.15, 0.1, True, param, zero_at_second_draw())
    assert compiled.regimes.tolist() == reference.regimes.tolist() == [1, 2]
    assert compiled.jump_times.tobytes() == reference.jump_times.tobytes()


def test_grid_horizon_past_the_int64_clock_walks_in_python(kernel):
    # holds of INT64_MAX steps add up past 2**63 before the horizon: only
    # Python's int clock follows them, so the sampler must not take the kernel
    args = (TWO_STATE_CDFS, 1, 1e20, 1.0, True, [1e-300, 1e-300], 4)
    reference = walked(chain._walk, *args)
    assert len(np.frombuffer(reference[0])) > 10
    assert walked(chain._sample, *args) == reference
    assert walked(lambda *a: chain._walk_c(kernel, *a), *args) != reference


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An empty kernel cache and a loader that has not run yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _kernel.load.cache_clear()
    yield
    _kernel.load.cache_clear()


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
    compiled = outcome(lambda run: _run_c(run, kernel), config, gen, table, h)
    fallback = simulate(config, gen, table, h)
    assert fallback.metadata["backend"] == "python"
    assert expected in fallback.metadata["backend_reason"]
    assert "\n" not in fallback.metadata["backend_reason"]
    assert (fallback.times.tobytes(), fallback.regimes.tobytes(), fallback.states.tobytes(),
            fallback.metadata["clamp_events"]) == compiled[:4]
    assert compiled[3] > 0
    # RK4 falls back too, with the same reason
    det = simulate_deterministic(EpidemicState(20, 20, 15, 10, 0), table[3], 0.5, 0.01, 1.0)
    assert det.metadata["backend"] == "python"
    assert det.metadata["backend_reason"] == fallback.metadata["backend_reason"]
    assert not [f for f in (tmp_path / "cache").rglob("*") if not f.is_dir()]


#: one-operation changes of seqir_rk4, each of which some RK4 case must detect
RK4_MUTATIONS = {
    "update-distributes-2": ("k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]",
                             "k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]"),
    "last-stage-half-step": ("y4[j] = y[j] + dt * k3[j]", "y4[j] = y[j] + half * k3[j]"),
}


def mutate_kernel(monkeypatch, tmp_path, old, new):
    """Point the loader at a copy of ``_kernel.c`` with ``old`` replaced by ``new``."""
    source = _kernel.SOURCE.read_text()
    assert source.count(old) == 1
    mutated = tmp_path / "_kernel.c"
    mutated.write_text(source.replace(old, new))
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


#: one-operation changes of seqir_run, each of which some identity case must detect
RUN_MUTATIONS = {
    # discretized jumps land on grid points, so each would start a step late
    "jump-a-step-late": ("(double)n * dt >= jump_times[seg + 1]",
                         "(double)n * dt > jump_times[seg + 1]"),
    # the states are unchanged; only the stream state after the run shows it
    "one-draw-too-many": ("    out[0] = clamps;",
                          "    random_standard_normal(bitgen);\n    out[0] = clamps;"),
}


@pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
@pytest.mark.parametrize("mutation", list(RUN_MUTATIONS))
def test_run_identity_detects_a_mutated_kernel(kernel, fresh_loader, monkeypatch, tmp_path,
                                               mutation):
    mutate_kernel(monkeypatch, tmp_path, *RUN_MUTATIONS[mutation])
    mutant, reason = _kernel.load()
    assert mutant is not None, reason
    h = POLICIES["linear"]
    cases = [case_inputs(case, chain_mode=mode, output_stride=7)
             for case in ("clamping", "blow_up") for mode in ("exact", "discretized")]
    compiled = [outcome(lambda run: _run_c(run, mutant), *case, h) for case in cases]
    reference = [outcome(_run_py, *case, h) for case in cases]
    assert compiled != reference


#: one-operation changes of seqir_csv, each of which the repr identity sweep must detect
CSV_MUTATIONS = {
    "ties-round-up": ("d += above || (tie && (d & 1));", "d += above || tie;"),
    "misplaced-digits-below-1": ("for (int z = 0; z < -decpt; z++)",
                                 "for (int z = 0; z <= -decpt; z++)"),
}


@pytest.mark.parametrize("mutation", list(CSV_MUTATIONS))
def test_csv_identity_detects_a_mutated_kernel(kernel, fresh_loader, monkeypatch, tmp_path,
                                               mutation):
    mutate_kernel(monkeypatch, tmp_path, *CSV_MUTATIONS[mutation])
    mutant, reason = _kernel.load()
    assert mutant is not None, reason
    monkeypatch.setattr(cli, "_cells", no_fallback)
    assert repr_mismatches(tmp_path / "sweep.csv", guard_sweep())


def test_csv_alone_falls_back_without_128_bit_integers(kernel, fresh_loader, monkeypatch,
                                                        tmp_path):
    # the kernel as a compiler without unsigned __int128 builds it
    source = _kernel.SOURCE.read_text()
    assert source.count("__SIZEOF_INT128__") >= 2
    narrow = tmp_path / "_kernel.c"
    narrow.write_text(source.replace("__SIZEOF_INT128__", "SEQIRSIM_NO_INT128"))
    monkeypatch.setattr(_kernel, "SOURCE", narrow)
    lib, reason = _kernel.load()
    assert lib is not None, reason
    config, gen, table = case_inputs("clamping", scheme="euler_maruyama", output_stride=7)
    assert simulate(config, gen, table, POLICIES["linear"]).metadata["backend"] == "c"

    slices = []
    cells = cli._cells
    monkeypatch.setattr(cli, "_cells", lambda col: slices.append(len(col)) or cells(col))
    columns = [np.arange(300) * 0.1, np.arange(300) % 4, np.linspace(-1e-6, 1e17, 300)]
    header = ["t", "regime", "x"]
    assert csv_bytes(tmp_path, header, columns) == reference_csv(header, columns)
    assert slices == [256] * 3 + [44] * 3


def test_csv_rows_keep_the_arrays_the_kernel_reads_alive(kernel):
    # rows hands seqir_csv the addresses of the column table and the flags;
    # freed, their memory goes to the next arrays of the same size.  In a
    # child interpreter, so a crash fails this test and not the run
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from seqirsim import _kernel, cli\n"
        "kernel, _ = _kernel.load()\n"
        "cols = [np.arange(10) * 0.1, np.arange(10) % 4, *[np.linspace(1.0, 2.0, 10)] * 5]\n"
        "rows = cli._kernel_rows(kernel, cols)\n"
        "taken = [np.full(7, 7, dtype=np.int64) for _ in range(8)]\n"
        "expected = ''.join(','.join(row) + '\\n' for row in zip(*map(cli._cells, cols)))\n"
        "sys.stdout.write(str(bytes(rows(0, 10)) == expected.encode()))\n"
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
