"""Stepping schemes, the SDE driver loop, RK4, seeds and reproducibility."""

import math
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

from seqirsim import (
    EpidemicState,
    PolicyFunction,
    RegimeParameterTable,
    SimulationConfig,
    RegimeParameters,
    derive_seed,
    diffusion,
    iter_ensemble,
    simulate,
    simulate_deterministic,
    validate_generator,
)
from seqirsim import integrate
from seqirsim.chain import RegimePath, sample_path_discretized, sample_path_exact
from seqirsim.errors import NegativeState, StepTooLarge
from seqirsim.integrate import NEGATIVITY_TOL, _clamp_negative, _run_py, _setup, _step
from seqirsim.model import regime_constants

from conftest import (EX1_PARAMS, EX2_PARAMS, started_threads, stepping_threads,
                      table_from_lists, use_cpus)
from test_model import params_from, random_state, zero_params

LINEAR = PolicyFunction.linear()
EX1_TABLE = table_from_lists(EX1_PARAMS)


def base_config(**overrides):
    kwargs = dict(dt=1e-3, horizon=10.0, initial_state=EpidemicState(20, 20, 15, 10, 0),
                  initial_regime=3, seed=7)
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(42, 0) == 13679457532755275413
        assert derive_seed(42, 1) == 2949826092126892291
        assert derive_seed(2 ** 64 - 1, 7) == 4638043754431676516

    def test_range_and_distinctness(self):
        seeds = {derive_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2 ** 64 for s in seeds)

    @settings(max_examples=500, deadline=None)
    @given(base_seed=hyp.integers(0, 2 ** 64 - 1), i=hyp.integers(0, 2 ** 20))
    @example(base_seed=2 ** 64 - 1, i=2 ** 20)
    def test_matches_the_readme_specification(self, base_seed, i):
        # the SplitMix64 lines of README "Reproducibility", one per statement
        z = (base_seed + (i + 1) * 0x9E3779B97F4A7C15) % 2 ** 64
        z ^= z >> 30
        z = z * 0xBF58476D1CE4E5B9 % 2 ** 64
        z ^= z >> 27
        z = z * 0x94D049BB133111EB % 2 ** 64
        z ^= z >> 31
        assert derive_seed(base_seed, i) == z


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            base_config(dt=0.0)
        with pytest.raises(ValueError):
            base_config(horizon=-1.0)
        with pytest.raises(ValueError):
            base_config(scheme="heun")
        with pytest.raises(ValueError):
            base_config(output_stride=0)
        with pytest.raises(ValueError):
            base_config(seed=-1)
        with pytest.raises(ValueError):
            base_config(negativity_policy="ignore")

    def test_horizon_must_be_whole_steps(self):
        # rounding would run zero steps for horizon < dt / 2 and end 0.057 at 0.06
        for horizon in (0.004, 0.057):
            with pytest.raises(ValueError, match="whole number of steps"):
                base_config(dt=0.01, horizon=horizon)
        assert base_config(dt=0.01, horizon=0.0).n_steps == 0
        # a horizon a few ulps off the grid, as decimal input gives, is accepted
        assert base_config(dt=0.1, horizon=0.30000000000000004).n_steps == 3
        assert base_config(dt=1e-4, horizon=5.0).n_steps == 50000

    def test_record_times(self):
        assert base_config(horizon=0.0).record_times().tolist() == [0.0]
        assert base_config(dt=1.0, horizon=10.0, output_stride=4).record_times().tolist() \
            == [0.0, 4.0, 8.0, 10.0]
        assert base_config(dt=1.0, horizon=8.0, output_stride=4).record_times().tolist() \
            == [0.0, 4.0, 8.0]
        assert base_config(dt=1.0, horizon=3.0, output_stride=9).record_times().tolist() \
            == [0.0, 3.0]


def one_step(st, p, dt, dB, milstein=True):
    """One stochastic step from ``st`` under the linear policy, as an array."""
    s, e, q, i, r = st.S, st.E, st.Q, st.I, st.R
    return np.array(_step(s, e, q, i, r, regime_constants(p), dt, dB, milstein, s))


class TestSteps:
    def test_milstein_without_noise_is_euler_on_drift(self):
        from seqirsim import drift
        p = params_from(EX1_PARAMS, 1)
        p = replace(p, sigma0=0.0)
        st = EpidemicState(20, 20, 15, 10, 0)
        dt, dB = 1e-3, 0.123
        out = one_step(st, p, dt, dB)
        expected = np.array(astuple(st)) + dt * drift(st, p, LINEAR)
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_correction_vanishes_when_db_squared_equals_dt(self):
        # dt = 0.25 and dB = 0.5 make dB^2 - dt exactly zero in floats
        p = params_from(EX1_PARAMS, 1)
        st = EpidemicState(2, 3, 1, 1, 0)
        np.testing.assert_array_equal(one_step(st, p, 0.25, 0.5),
                                      one_step(st, p, 0.25, 0.5, milstein=False))

    def test_correction_against_finite_differences(self):
        # 0.5 (g . grad)g by central differences of the diffusion field
        rng = np.random.default_rng(12)
        p = params_from(EX1_PARAMS, 1)
        dt, dB = 1e-3, 0.07
        eps = 1e-6
        for _ in range(10):
            st = random_state(rng, scale=10.0)
            g = diffusion(st, p)
            fd = np.zeros(5)
            for j in range(5):
                bumped_up = np.array(astuple(st))
                bumped_dn = np.array(astuple(st))
                bumped_up[j] += eps
                bumped_dn[j] -= eps
                dg = (diffusion(EpidemicState(*bumped_up), p)
                      - diffusion(EpidemicState(*np.maximum(bumped_dn, 0)), p))
                denom = bumped_up[j] - max(bumped_dn[j], 0)
                fd += g[j] * dg / denom
            correction = 0.5 * fd * (dB * dB - dt)
            actual = one_step(st, p, dt, dB) - one_step(st, p, dt, dB, milstein=False)
            np.testing.assert_allclose(actual, correction, rtol=1e-6, atol=1e-12)

    def test_em_pure_noise_transfer(self):
        p = zero_params(sigma0=1.0)
        out = one_step(EpidemicState(1, 1, 0, 0, 0), p, dt=0.01, dB=0.1, milstein=False)
        assert out[0] == pytest.approx(0.9, abs=1e-15)
        assert out[1] == pytest.approx(1.1, abs=1e-15)

    def test_em_equals_milstein_without_noise(self):
        p = replace(params_from(EX1_PARAMS, 2), sigma0=0.0)
        st = EpidemicState(5, 4, 3, 2, 1)
        np.testing.assert_array_equal(one_step(st, p, 1e-2, 0.3, milstein=False),
                                      one_step(st, p, 1e-2, 0.3))

    def test_em_observed_strong_order(self):
        # self-convergence of the Euler-Maruyama scheme under multiplicative
        # noise: observed order roughly in the 0.5..1.0 band
        pars = regime_constants(params_from(EX2_PARAMS, 1))
        init = (20.0, 20.0, 15.0, 10.0, 0.0)
        n_ref = 2 ** 12
        dt_ref = 1.0 / n_ref
        exponents = (5, 6, 7, 8)
        errors = np.zeros(len(exponents))
        n_paths = 80
        for path_idx in range(n_paths):
            rng = np.random.default_rng(500 + path_idx)
            fine = rng.standard_normal(n_ref) * math.sqrt(dt_ref)

            def endpoint(dt, increments):
                s, e, q, i, r = init
                for dB in increments:
                    s, e, q, i, r = _step(s, e, q, i, r, pars, dt, dB, False, s)
                return np.array([s, e, q, i, r])

            ref = endpoint(dt_ref, fine.tolist())
            for j, expo in enumerate(exponents):
                n_coarse = 2 ** expo
                coarse = fine.reshape(n_coarse, n_ref // n_coarse).sum(axis=1)
                errors[j] += np.linalg.norm(endpoint(1.0 / n_coarse, coarse.tolist()) - ref)
        errors /= n_paths
        dts = np.array([1.0 / 2 ** e for e in exponents])
        slope = float(np.polyfit(np.log2(dts), np.log2(errors), 1)[0])
        assert 0.35 <= slope <= 1.15

    def test_negative_state_policies(self):
        p = zero_params(xi=1000.0)  # drift alone drives S negative
        vals = tuple(one_step(EpidemicState(1, 0, 0, 0, 0), p, dt=0.01, dB=0.0))
        assert vals[0] < NEGATIVITY_TOL
        clamped, hits = _clamp_negative(vals, "clamp_to_zero", 0.01)
        assert clamped[0] == 0.0 and hits == 1
        with pytest.raises(NegativeState):
            _clamp_negative(vals, "error", 0.01)

    @settings(max_examples=300, deadline=None)
    @given(state=hyp.tuples(*[hyp.floats(0.0, 1e4)] * 5),
           rates=hyp.tuples(*[hyp.floats(0.0, 10.0)] * 13),
           rho=hyp.tuples(hyp.floats(0.0, 0.99), hyp.floats(0.0, 0.99)),
           h_frac=hyp.floats(0.0, 1.0),
           dt=hyp.floats(1e-6, 1.0),
           dB=hyp.floats(-10.0, 10.0),
           milstein=hyp.booleans())
    def test_total_changes_by_drift_sum_alone(self, state, rates, rho, h_frac, dt, dB,
                                              milstein):
        # the S->E noise and every transfer term cancel in the total, so one
        # step changes it by dt*(A - xi*N - delta*I) whatever dB and h(s) are
        names = ("A", "beta", "b1", "b2", "c", "xi", "delta", "alpha", "sigma", "eta",
                 "p", "M", "sigma0")
        p = RegimeParameters(rho1=rho[0], rho2=rho[1], **dict(zip(names, rates)))
        s, e, q, i, r = state
        k = regime_constants(p)
        new = _step(s, e, q, i, r, k, dt, dB, milstein, h_frac * s)
        total = math.fsum(state)
        expected = dt * (p.A - p.xi * total - p.delta * i)
        # tolerance scale: the largest term the step adds or cancels
        A, bw1, b1, xi, pm, w2v, b2, bcx, al, c, exd, eta, sg, s0w1, halfcorr = k
        drift_terms = (A, bw1 * s * e, b1 * q, xi * total, pm * s, w2v * e, b2 * e, bcx * q,
                       al * e, c * q, exd * i, eta * i, sg * e)
        terms = (*state, *new, s0w1 * s * e * dB, halfcorr * s * e * (dB * dB - dt) * (e - s),
                 *(dt * v for v in drift_terms))
        change = math.fsum(new) - total
        assert abs(change - expected) <= 1e-12 * max(abs(v) for v in terms)


THREE_REGIMES = table_from_lists({name: v[:3] for name, v in EX1_PARAMS.items()})
THREE_STATES = validate_generator([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])


@contextmanager
def sampling(path):
    """Both samplers that ``integrate`` calls return ``path``."""
    with pytest.MonkeyPatch.context() as m:
        for sampler in ("sample_path_exact", "sample_path_discretized"):
            m.setattr(integrate, sampler, lambda *args: path)
        yield


def set_up_on(path, config):
    """``_setup`` of ``config`` on three regimes, with ``path`` as the sampled path."""
    with sampling(path):
        return _setup(config, THREE_STATES, THREE_REGIMES, LINEAR)


def stepped_by_regime_at(path, config):
    """Every state of a loop that takes the constants of ``path.regime_at(n * dt)``
    at each step n, on the normals of the run's stream."""
    dt = config.dt
    constants = [regime_constants(row) for row in THREE_REGIMES.rows]
    normals = np.random.default_rng(config.seed).standard_normal(config.n_steps) * math.sqrt(dt)
    state = astuple(config.initial_state)
    states = [state]
    for n, dB in enumerate(normals.tolist()):
        k = constants[path.regime_at(n * dt) - 1]
        state = _step(*state, k, dt, dB, config.scheme == "milstein", LINEAR(state[0]))
        if min(state) < 0.0:
            state, _ = _clamp_negative(state, config.negativity_policy, (n + 1) * dt)
        states.append(state)
    return np.array(states)


class TestRegimeOnTheStepGrid:
    """Both runners step with the regime ``RegimePath.regime_at`` gives at each
    grid point, and the regime column is ``regime_at`` of each recorded time."""

    @staticmethod
    def assert_steps_by_regime_at(path, dt, n_steps):
        config = base_config(dt=dt, horizon=n_steps * dt, initial_regime=1)
        expected = stepped_by_regime_at(path, config)
        run = set_up_on(path, config)
        _run_py(run)
        assert run.states.tobytes() == expected.tobytes()
        assert run.regimes.tolist() == [path.regime_at(t) for t in run.times]
        # and through simulate, on the compiled runner when it loads
        with sampling(path):
            traj = simulate(config, THREE_STATES, THREE_REGIMES, LINEAR)
        assert traj.states.tobytes() == expected.tobytes()
        assert traj.regimes.tobytes() == run.regimes.tobytes()

    @pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
    @settings(max_examples=150, deadline=None)
    @given(seed=hyp.integers(0, 2 ** 32), exact=hyp.booleans(),
           dt=hyp.floats(1e-3, 0.5), n_steps=hyp.integers(1, 300),
           rate_per_step=hyp.floats(0.01, 20.0))
    def test_sampled_paths(self, seed, exact, dt, n_steps, rate_per_step):
        # up to 20 exits per step in exact mode, so several jumps share a step
        if not exact:
            rate_per_step = min(rate_per_step, 0.45)
        lam = rate_per_step / dt
        gen = validate_generator([[-2 * lam, lam, lam], [lam, -2 * lam, lam],
                                  [lam, lam, -2 * lam]])
        rng = np.random.default_rng(seed)
        if exact:
            path = sample_path_exact(gen, 1, n_steps * dt, rng)
        else:
            path = sample_path_discretized(gen, 1, n_steps * dt, dt, rng)
        self.assert_steps_by_regime_at(path, dt, n_steps)

    @settings(max_examples=300, deadline=None)
    @given(dt=hyp.floats(1e-4, 1.0), n_steps=hyp.integers(2, 200), data=hyp.data())
    def test_jumps_on_beside_and_between_grid_points(self, dt, n_steps, data):
        horizon = n_steps * dt
        on_grid = hyp.integers(1, n_steps - 1).map(lambda k: k * dt)
        times = data.draw(hyp.lists(hyp.one_of(
            on_grid,
            on_grid.map(lambda t: math.nextafter(t, math.inf)),
            on_grid.map(lambda t: math.nextafter(t, 0.0)),
            hyp.floats(0.0, horizon, exclude_min=True, exclude_max=True),
        ), max_size=25))
        times = sorted({t for t in times if 0.0 < t < horizon})
        offsets = data.draw(hyp.lists(hyp.integers(1, 2), min_size=len(times),
                                      max_size=len(times)))
        regimes = [1]
        for off in offsets:
            regimes.append((regimes[-1] + off - 1) % 3 + 1)
        path = RegimePath(np.array([0.0, *times]), np.array(regimes), horizon, 3)
        self.assert_steps_by_regime_at(path, dt, n_steps)

    def test_several_jumps_in_one_step_last_wins(self):
        # 0.31, 0.32 and 0.35 fall inside step 3 and 0.4 = 4 * 0.1 on grid point 4,
        # so step 4 runs in regime 3, the regime of the last of them
        path = RegimePath(np.array([0.0, 0.31, 0.32, 0.35, 0.4, 0.45]),
                          np.array([1, 2, 3, 2, 3, 1]), 1.0, 3)
        config = base_config(dt=0.1, horizon=1.0, initial_regime=1)
        assert set_up_on(path, config).regimes.tolist() == [1, 1, 1, 1, 3, 1, 1, 1, 1, 1, 1]
        self.assert_steps_by_regime_at(path, 0.1, 10)

    @settings(max_examples=200, deadline=None)
    @given(dt=hyp.floats(1e-6, 1e-2), n_steps=hyp.integers(2 ** 39, 2 ** 40),
           stride=hyp.integers(2 ** 36, 2 ** 38))
    def test_grid_jumps_start_on_their_step_on_long_grids(self, dt, n_steps, stride):
        # discretized paths jump at k * dt; a jump on each recorded step m * stride,
        # and one a step before and after it, so an off-by-one regime shows
        ks = [k for m in range(1, n_steps // stride + 1) for k in
              (m * stride - 1, m * stride, m * stride + 1) if k < n_steps]
        path = RegimePath(np.array([0.0, *(k * dt for k in ks)]),
                          np.array([1 + j % 3 for j in range(len(ks) + 1)]), n_steps * dt, 3)
        config = base_config(dt=dt, horizon=n_steps * dt, output_stride=stride,
                             initial_regime=1)
        assert config.n_steps == n_steps
        run = set_up_on(path, config)
        assert run.regimes.tolist() == [path.regime_at(t) for t in run.times]
        # the regime recorded at step m * stride is the one of the jump at m * stride
        for step, regime in zip(run.steps.tolist(), run.regimes.tolist()):
            if step in ks:
                assert regime == 1 + (ks.index(step) + 1) % 3


class TestClampNegative:
    def test_error_policy_clamps_within_tolerance(self):
        vals = (1.0, -0.5e-12, 2.0, 0.0, 3.0)
        clamped, hits = _clamp_negative(vals, "error", 1.0)
        assert clamped == (1.0, 0.0, 2.0, 0.0, 3.0)
        assert hits == 1

    def test_error_policy_raises_below_tolerance(self):
        with pytest.raises(NegativeState, match="at t=0.5"):
            _clamp_negative((1.0, -2e-12, 2.0, 0.0, 3.0), "error", 0.5)

    def test_clamp_policy_counts_each_negative_component(self):
        vals = (-1.0, 2.0, -1e-300, -5e-13, 0.0)
        clamped, hits = _clamp_negative(vals, "clamp_to_zero", 1.0)
        assert clamped == (0.0, 2.0, 0.0, 0.0, 0.0)
        assert hits == 3


class TestSimulate:
    def test_zero_horizon_initial_sample_only(self, gen4, ex1_table):
        traj = simulate(base_config(horizon=0.0), gen4, ex1_table, LINEAR)
        assert len(traj) == 1
        assert traj.times[0] == 0.0
        np.testing.assert_array_equal(traj.states[0], [20, 20, 15, 10, 0])

    def test_seed_determinism(self, gen4, ex1_table):
        a = simulate(base_config(), gen4, ex1_table, LINEAR)
        b = simulate(base_config(), gen4, ex1_table, LINEAR)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.regimes, b.regimes)
        np.testing.assert_array_equal(a.times, b.times)

    def test_different_seeds_differ(self, gen4, ex1_table):
        a = simulate(base_config(seed=1), gen4, ex1_table, LINEAR)
        b = simulate(base_config(seed=2), gen4, ex1_table, LINEAR)
        assert not np.array_equal(a.states, b.states)

    def test_first_step_matches_public_step(self, gen4, ex1_table):
        # replicate the stream: the chain is drawn first, then the increments
        cfg = base_config(horizon=1e-3, output_stride=1)
        traj = simulate(cfg, gen4, ex1_table, LINEAR)
        rng = np.random.default_rng(cfg.seed)
        sample_path_discretized(gen4, cfg.initial_regime, cfg.dt, cfg.dt, rng)
        dB = float(rng.standard_normal(1)[0] * math.sqrt(cfg.dt))
        stepped = one_step(cfg.initial_state, ex1_table[int(traj.regimes[0])], cfg.dt, dB)
        np.testing.assert_array_equal(traj.states[1], stepped)

    def test_trajectory_invariants(self, gen4, ex1_table):
        traj = simulate(base_config(output_stride=7), gen4, ex1_table, LINEAR)
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(10.0, abs=1e-12)
        assert traj.regimes.min() >= 1 and traj.regimes.max() <= 4
        assert traj.metadata["clamp_events"] == 0

    def test_recorded_regimes_match_sampled_path(self, gen4, ex1_table):
        cfg = base_config(chain_mode="exact", output_stride=3)
        traj = simulate(cfg, gen4, ex1_table, LINEAR)
        rng = np.random.default_rng(cfg.seed)
        from seqirsim.chain import sample_path_exact
        path = sample_path_exact(gen4, cfg.initial_regime, cfg.n_steps * cfg.dt, rng)
        expected = [path.regime_at(t) for t in traj.times]
        np.testing.assert_array_equal(traj.regimes, expected)

    @pytest.mark.filterwarnings("ignore:dt \\* max exit rate")
    @settings(max_examples=100, deadline=None)
    @given(seed=hyp.integers(0, 2 ** 32), exact=hyp.booleans(), dt=hyp.floats(1e-3, 0.1),
           n_steps=hyp.integers(1, 300), rate_per_step=hyp.floats(0.01, 20.0),
           stride=hyp.sampled_from([1, 7, "beyond"]))
    def test_regime_column_is_the_path_at_each_recorded_time(self, seed, exact, dt, n_steps,
                                                              rate_per_step, stride):
        # up to 20 exits per step in exact mode, so several jumps share a step
        if not exact:
            rate_per_step = min(rate_per_step, 0.45)
        lam = rate_per_step / (3 * dt)
        gen = validate_generator([[-3 * lam if a == b else lam for b in range(4)]
                                  for a in range(4)])
        cfg = base_config(dt=dt, horizon=n_steps * dt, seed=seed,
                          chain_mode="exact" if exact else "discretized",
                          output_stride=n_steps + 5 if stride == "beyond" else stride)
        traj = simulate(cfg, gen, EX1_TABLE, LINEAR)
        # the chain consumes the seeded stream first, so re-sampling gives the same path
        rng = np.random.default_rng(seed)
        if exact:
            path = sample_path_exact(gen, cfg.initial_regime, n_steps * dt, rng)
        else:
            path = sample_path_discretized(gen, cfg.initial_regime, n_steps * dt, dt, rng)
        assert traj.regimes.tolist() == [path.regime_at(t) for t in traj.times]

    def test_stride_subsamples_same_dynamics(self, gen4, ex1_table):
        fine = simulate(base_config(output_stride=1), gen4, ex1_table, LINEAR)
        coarse = simulate(base_config(output_stride=10), gen4, ex1_table, LINEAR)
        np.testing.assert_array_equal(coarse.states, fine.states[::10])

    def test_step_too_large_propagates(self, gen4, ex1_table):
        with pytest.raises(StepTooLarge):
            simulate(base_config(dt=0.2, horizon=1.0), gen4, ex1_table, LINEAR)

    def test_table_generator_mismatch(self, gen2, ex1_table):
        with pytest.raises(ValueError):
            simulate(base_config(), gen2, ex1_table, LINEAR)

    def test_error_policy_raises_mid_run(self, gen2):
        table = RegimeParameterTable(rows=(
            zero_params(A=0.001, xi=50.0), zero_params(A=0.001, xi=50.0)))
        cfg = base_config(dt=0.05, horizon=1.0, initial_regime=1,
                          initial_state=EpidemicState(1, 0, 0, 0, 0),
                          negativity_policy="error")
        with pytest.raises(NegativeState):
            simulate(cfg, gen2, table, LINEAR)

    def test_clamp_policy_counts_events(self, gen2):
        table = RegimeParameterTable(rows=(
            zero_params(A=0.001, xi=50.0), zero_params(A=0.001, xi=50.0)))
        cfg = base_config(dt=0.05, horizon=1.0, initial_regime=1,
                          initial_state=EpidemicState(1, 0, 0, 0, 0))
        traj = simulate(cfg, gen2, table, LINEAR)
        assert traj.metadata["clamp_events"] >= 1
        assert traj.states.min() >= 0.0

    def test_example1_short_extinction_smoke(self, gen4, ex1_table):
        # desk-size version of the benchmark run: exposed mass collapses
        from seqirsim import detect_extinction
        cfg = base_config(horizon=400.0, output_stride=100)
        for seed in range(3):
            traj = simulate(replace(cfg, seed=seed), gen4, ex1_table, LINEAR)
            assert detect_extinction(traj, threshold=1e-3, tail_fraction=0.1)


class TestNoiseOffLimit:
    def test_matches_rk4_within_tolerance(self):
        params = replace(params_from(EX1_PARAMS, 1), sigma0=0.0)
        init = EpidemicState(0.3, 0.2, 0.1, 0.05, 0.05)
        gen1 = validate_generator([[0.0]])
        table = RegimeParameterTable(rows=(params,))
        cfg = SimulationConfig(dt=1e-3, horizon=10.0, initial_state=init,
                               initial_regime=1, seed=0, output_stride=10)
        stochastic = simulate(cfg, gen1, table, LINEAR)
        reference = simulate_deterministic(init, params, 1e-3, 10.0, output_stride=10)
        gap = np.abs(stochastic.states - reference.states).max()
        assert gap < 1e-3


class TestInvariantIntervalAttraction:
    def test_population_started_above_interval_descends(self, gen4, ex1_table):
        # total population starts far above max A / min xi and must approach
        # the invariant interval monotonically (its distance never grows)
        from seqirsim import invariant_set_bounds
        lower, upper = invariant_set_bounds(ex1_table)
        cfg = base_config(horizon=200.0, output_stride=1000, seed=4)
        totals = simulate(cfg, gen4, ex1_table, LINEAR).total
        dist = np.maximum(totals - upper, 0.0) + np.maximum(lower - totals, 0.0)
        assert dist[0] > 1.0  # genuinely outside at the start
        assert np.all(np.diff(dist) <= 1e-9)
        assert dist[-1] < dist[0] * 0.1


class TestSchemeConsistency:
    def test_gap_shrinks_with_dt(self, gen4, ex2_table):
        gaps = []
        for dt in (1e-2, 1e-3):
            diffs = []
            for seed in range(3):
                cfg = base_config(dt=dt, horizon=5.0, seed=seed)
                m = simulate(cfg, gen4, ex2_table, LINEAR)
                e = simulate(replace(cfg, scheme="euler_maruyama"), gen4, ex2_table, LINEAR)
                diffs.append(np.abs(m.states - e.states).max())
            gaps.append(np.mean(diffs))
        assert gaps[1] < gaps[0]


class TestEnsemble:
    def test_member_matches_standalone_run(self, gen4, ex1_table):
        cfg = base_config(horizon=2.0)
        members = list(iter_ensemble(cfg, gen4, ex1_table, LINEAR, n=1, base_seed=99))
        standalone = simulate(replace(cfg, seed=derive_seed(99, 0)), gen4, ex1_table, LINEAR)
        np.testing.assert_array_equal(members[0].states, standalone.states)
        np.testing.assert_array_equal(members[0].regimes, standalone.regimes)

    def test_members_are_independent_streams(self, gen4, ex1_table):
        cfg = base_config(horizon=2.0)
        members = list(iter_ensemble(cfg, gen4, ex1_table, LINEAR, n=3, base_seed=5))
        assert not np.array_equal(members[0].states, members[1].states)
        assert not np.array_equal(members[1].states, members[2].states)

    def test_size_validated(self, gen4, ex1_table):
        with pytest.raises(ValueError):
            list(iter_ensemble(base_config(), gen4, ex1_table, LINEAR, n=0, base_seed=1))

    @staticmethod
    def members_at(monkeypatch, cpus, *args):
        """The members of iter_ensemble at ``cpus`` usable CPUs, the stepping
        threads, and the names of the threads it started."""
        with monkeypatch.context() as m:
            use_cpus(m, cpus)
            threads = stepping_threads(m)
            started = started_threads(m)
            return list(iter_ensemble(*args)), threads, started

    @staticmethod
    def outcome(traj):
        return (traj.times.tobytes(), traj.regimes.tobytes(), traj.states.tobytes(),
                traj.metadata["clamp_events"], traj.metadata["backend"],
                traj.metadata["config"])

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_members_do_not_depend_on_the_worker_count(self, gen4, ex1_table, monkeypatch, n):
        from seqirsim import _kernel

        # n = 7 passes the limit of two tasks in flight per worker at 1, 2 and 3 CPUs
        config = base_config(horizon=2.0, output_stride=7)
        compiled = _kernel.load()[0] is not None
        standalone = [self.outcome(simulate(replace(config, seed=derive_seed(5, i)), gen4,
                                            ex1_table, LINEAR)) for i in range(n)]
        for cpus in (1, 2, 3):
            members, threads, started = self.members_at(monkeypatch, cpus, config, gen4,
                                                        ex1_table, LINEAR, n, 5)
            assert [self.outcome(t) for t in members] == standalone
            # with the kernel and more members than CPUs, members 2j and 2j + 1
            # step in one kernel call (an odd n's last alone); else one a call
            paired = compiled and n > cpus
            assert len(threads) == (-(-n // 2) if paired else n)
            # members step on the calling thread and on helpers started for the ensemble
            assert set(threads) <= {"MainThread", "seqirsim-member"}
            # the Python runner holds the GIL, so it starts no helper
            assert started == ["seqirsim-member"] * (min(cpus, len(threads)) - 1
                                                     if compiled else 0)

    def test_members_share_their_grid_read_only(self, gen4, ex1_table):
        members = list(iter_ensemble(base_config(horizon=0.5, output_stride=7), gen4,
                                     ex1_table, LINEAR, 3, 5))
        assert all(t.times is members[0].times for t in members)
        assert not members[0].times.flags.writeable
        assert all(t.states.flags.writeable for t in members)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("base_seed, first", [(0, 1), (2, 0), (6, 2)])
    def test_the_first_failing_member_raises_at_its_turn(self, gen4, monkeypatch, cpus,
                                                         base_seed, first):
        # error-policy members that go negative: at base seed 0 member 1
        # (lane 1 of the first pair) and 2; at 2 member 0 (lane 0, its
        # partner passes) and later ones; at 6 member 2 (lane 0) and 4
        table = table_from_lists(dict(EX1_PARAMS, sigma0=[0.1] * 4))
        config = base_config(dt=0.01, horizon=20.0, output_stride=10, initial_regime=3,
                             scheme="euler_maruyama", negativity_policy="error")
        alone = []
        for i in range(first + 1):
            try:
                alone.append(self.outcome(simulate(replace(config, seed=derive_seed(base_seed, i)),
                                                   gen4, table, LINEAR)))
            except NegativeState as exc:
                alone.append(str(exc))
        assert [isinstance(out, str) for out in alone] == [False] * first + [True]
        use_cpus(monkeypatch, cpus)
        yielded = []
        with pytest.raises(NegativeState) as info:
            for traj in iter_ensemble(config, gen4, table, LINEAR, 6, base_seed):
                yielded.append(self.outcome(traj))
        assert yielded + [str(info.value)] == alone

    def test_python_runner_steps_on_the_pool(self, gen4, ex1_table, monkeypatch):
        from seqirsim import _kernel

        args = (base_config(horizon=0.5), gen4, ex1_table, LINEAR, 3, 5)
        compiled, _, _ = self.members_at(monkeypatch, 2, *args)
        monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
        for cpus in (1, 2):
            python, threads, started = self.members_at(monkeypatch, cpus, *args)
            # Python stepping holds the GIL, so its members step inline on the calling thread
            assert threads == ["MainThread"] * 3
            assert started == []
            assert [t.metadata["backend"] for t in python] == ["python"] * 3
            assert [t.states.tobytes() for t in python] == [t.states.tobytes()
                                                            for t in compiled]

    def test_a_failing_setup_comes_after_the_members_before_it(self, gen4, ex1_table,
                                                               monkeypatch):
        # members 0-2 are in flight on the pool when member 3's setup raises
        use_cpus(monkeypatch, 2)
        failing_seed = derive_seed(5, 3)
        setup = integrate._setup

        def flaky(config, *args):
            if config.seed == failing_seed:
                raise StepTooLarge("setup of member 3")
            return setup(config, *args)

        monkeypatch.setattr(integrate, "_setup", flaky)
        members = integrate.iter_ensemble(base_config(horizon=0.5), gen4, ex1_table, LINEAR,
                                          6, 5)
        seeds = []
        with pytest.raises(StepTooLarge, match="member 3"):
            for traj in members:
                seeds.append(traj.metadata["config"].seed)
        assert seeds == [derive_seed(5, i) for i in range(3)]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", [2, 3])
    def test_no_member_is_set_up_after_a_failing_setup(self, gen4, ex1_table, monkeypatch,
                                                       cpus, failing):
        # members 2 and 3 are one pair: either may fail, in either lane
        use_cpus(monkeypatch, cpus)
        seeds = [derive_seed(5, i) for i in range(6)]
        set_up = []
        setup = integrate._setup

        def flaky(config, *args):
            set_up.append(seeds.index(config.seed))
            if set_up[-1] == failing:
                raise StepTooLarge(f"setup of member {failing}")
            return setup(config, *args)

        monkeypatch.setattr(integrate, "_setup", flaky)
        yielded = []
        with pytest.raises(StepTooLarge, match=f"member {failing}"):
            for traj in iter_ensemble(base_config(horizon=0.5), gen4, ex1_table, LINEAR, 6, 5):
                yielded.append(seeds.index(traj.metadata["config"].seed))
        assert yielded == list(range(failing))
        assert set_up == list(range(failing + 1))


class Tasks:
    """The tasks of one ``integrate._ordered`` call: ``prepare(i)`` returns i,
    ``work(i)`` sleeps up to 3 ms at random and returns i * i, and either may
    raise on one task.  ``prepared`` holds each prepared index with its
    thread; the consumer counts ``consumed`` up when it is done with an item,
    and ``most_in_flight`` is the most tasks prepared and not yet consumed."""

    def __init__(self, seed, n, fail_prepare=None, fail_work=None):
        rng = random.Random(seed)
        self.delays = [rng.uniform(0.0, 0.003) for _ in range(n)]
        self.fail_prepare, self.fail_work = fail_prepare, fail_work
        self.prepared = []
        self.consumed = self.most_in_flight = 0

    def prepare(self, i):
        self.prepared.append((i, threading.current_thread().name))
        self.most_in_flight = max(self.most_in_flight, len(self.prepared) - self.consumed)
        if i == self.fail_prepare:
            raise StepTooLarge(f"prepare {i}")
        return i

    def work(self, i):
        time.sleep(self.delays[i])
        if i == self.fail_work:
            raise StepTooLarge(f"work {i}")
        return i * i

    def ordered(self, n, threads):
        return integrate._ordered(n, self.prepare, self.work, threads, "ordered-test")


class TestOrdered:
    """``integrate._ordered``, the one thread pipeline of ensemble members and
    CSV chunks: results in index order, preparing on the calling thread in
    index order, at most a window of tasks in flight, the first error by
    index, and no thread left behind."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_results_in_index_order_within_the_window(self, threads, seed):
        n = 23
        tasks = Tasks(seed, n)
        before = threading.active_count()
        results = []
        for i, result in tasks.ordered(n, threads):
            results.append((i, result))
            tasks.consumed += 1
        assert threading.active_count() == before
        assert results == [(i, i * i) for i in range(n)]
        assert tasks.prepared == [(i, "MainThread") for i in range(n)]
        assert tasks.most_in_flight <= integrate._window(threads)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_threads_minus_one_helpers_are_started(self, monkeypatch, threads):
        started = started_threads(monkeypatch)
        worked = []
        items = list(integrate._ordered(5, lambda i: i, lambda i: worked.append(
            threading.current_thread().name), threads, "ordered-test"))
        assert [i for i, _ in items] == list(range(5))
        assert started == ["ordered-test"] * (threads - 1)
        if threads == 1:
            assert worked == ["MainThread"] * 5

    @pytest.mark.parametrize("where", ["prepare", "work"])
    @pytest.mark.parametrize("failing", [0, 4, 22])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_an_exception_on_task_i_comes_after_i_yields(self, threads, failing, where):
        n = 23
        tasks = Tasks(failing + threads, n, **{f"fail_{where}": failing})
        before = threading.active_count()
        yielded = []
        with pytest.raises(StepTooLarge, match=f"^{where} {failing}$"):
            for i, _ in tasks.ordered(n, threads):
                yielded.append(i)
                tasks.consumed += 1
        assert threading.active_count() == before
        assert yielded == list(range(failing))
        if where == "prepare":  # nothing after it is prepared
            assert [i for i, _ in tasks.prepared] == list(range(failing + 1))

    @pytest.mark.parametrize("taken", [0, 1, 5])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_close_ends_every_helper(self, threads, taken):
        n = 23
        tasks = Tasks(taken, n)
        before = threading.active_count()
        items = tasks.ordered(n, threads)
        for i in range(taken):
            assert next(items)[0] == i
            tasks.consumed += 1
        items.close()
        assert threading.active_count() == before
        # task i + window is not prepared before the consumer is done with task i
        assert len(tasks.prepared) <= max(0, taken - 1 + integrate._window(threads))


    def test_every_task_runs_once_under_a_short_switch_interval(self):
        # more threads than CPUs, switching every microsecond: a lost update of
        # the shared queue or results would run a task twice, drop it or hang
        n, threads = 2000, 6
        runs = [0] * n

        def work(i):
            runs[i] += 1  # each task is one thread's alone
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        out = {}
        try:
            worker = threading.Thread(target=lambda: out.update(items=list(
                integrate._ordered(n, lambda i: i, work, threads, "ordered-test"))))
            worker.start()
            worker.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "_ordered did not return"
        assert out["items"] == [(i, -i) for i in range(n)]
        assert runs == [1] * n

    def test_a_generator_left_suspended_does_not_hold_the_process_at_exit(self):
        # its helpers wait for tasks that never come; the interpreter must still exit
        code = ("from seqirsim import integrate\n"
                "items = integrate._ordered(9, lambda i: i, lambda i: i, 3, 'ordered-test')\n"
                "print(next(items))\n")
        src = str(Path(integrate.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert (res.returncode, res.stdout) == (0, "(0, 0)\n"), res.stderr


class TestMetadata:
    """The keys of ``Trajectory.metadata``.  The benchmark tracer reads
    ``clamp_events`` and, of RK4 runs, ``config["dt"]`` and
    ``config["horizon"]``."""

    @staticmethod
    def keys(traj):
        """The keys of ``traj``: a reason is given exactly for the Python backend."""
        reason = {"backend_reason"} if traj.metadata["backend"] == "python" else set()
        return {"config", "clamp_events", "backend"} | reason

    @pytest.mark.parametrize("disabled", [False, True], ids=["as-loaded", "python"])
    def test_keys_of_every_kind_of_run(self, gen4, ex1_table, monkeypatch, disabled):
        from seqirsim import _kernel

        if disabled:
            monkeypatch.setattr(_kernel, "load", lambda: (None, "kernel disabled for this test"))
        config = base_config(horizon=0.5)
        runs = [simulate(config, gen4, ex1_table, LINEAR),
                *iter_ensemble(config, gen4, ex1_table, LINEAR, 3, 5)]
        for traj in runs:
            assert set(traj.metadata) == self.keys(traj)
            assert traj.metadata["backend"] in ("c", "python")
            assert isinstance(traj.metadata["config"], integrate.SimulationConfig)
            assert isinstance(traj.metadata["clamp_events"], int)
        params = params_from(EX1_PARAMS, 1)
        det = simulate_deterministic(EpidemicState(20, 20, 15, 10, 0), params, 0.01, 0.5,
                                     output_stride=5)
        assert set(det.metadata) == self.keys(det)
        assert det.metadata["config"] == {"dt": 0.01, "horizon": 0.5, "scheme": "rk4",
                                          "output_stride": 5}
        assert det.metadata["clamp_events"] == 0
        if disabled:
            assert {t.metadata["backend"] for t in [*runs, det]} == {"python"}


class TestDeterministicIntegrator:
    def test_pure_recruitment_linear_growth(self):
        p = zero_params(A=1.0)
        traj = simulate_deterministic(EpidemicState(2, 0, 0, 0, 0), p, 0.01, 5.0)
        np.testing.assert_allclose(traj.compartment("S"), 2.0 + traj.times, atol=1e-10)

    def test_relaxation_to_closed_form(self):
        # S' = 1 - S from S(0) = 0 has solution 1 - exp(-t)
        p = zero_params(A=1.0, xi=1.0)
        traj = simulate_deterministic(EpidemicState(0, 0, 0, 0, 0), p, 1e-3, 1.0)
        assert traj.compartment("S")[-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        np.testing.assert_allclose(traj.states[:, 1:], 0.0, atol=1e-14)

    def test_fourth_order_convergence(self):
        params = params_from(EX2_PARAMS, 1)
        init = EpidemicState(10, 5, 1, 1, 0)
        ref = simulate_deterministic(init, params, 1e-4, 2.0).states[-1]
        errs = []
        for dt in (0.2, 0.1):
            end = simulate_deterministic(init, params, dt, 2.0).states[-1]
            errs.append(np.abs(end - ref).max())
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0  # nominal 16 for order 4

    @pytest.mark.parametrize("dt, horizon, stride, match", [
        (0.01, 1.0, 0, "output_stride"),
        (1e-300, 1e300, 1, "2\\*\\*53"),
        (0.01, 0.057, 1, "whole number of steps"),
    ], ids=["stride-0", "steps-beyond-2-53", "horizon-off-grid"])
    def test_grid_checked_as_for_simulation_config(self, dt, horizon, stride, match):
        p = zero_params(A=1.0)
        with pytest.raises(ValueError, match=match):
            simulate_deterministic(EpidemicState(2, 0, 0, 0, 0), p, dt, horizon,
                                   output_stride=stride)
        with pytest.raises(ValueError, match=match):
            base_config(dt=dt, horizon=horizon, output_stride=stride)

    def test_records_the_simulation_config_grid(self):
        p = zero_params(A=1.0)
        for stride in (1, 7, 3000):
            traj = simulate_deterministic(EpidemicState(2, 0, 0, 0, 0), p, 1e-3, 2.0,
                                          output_stride=stride)
            expected = base_config(horizon=2.0, output_stride=stride).record_times()
            assert traj.times.tobytes() == expected.tobytes()
            assert traj.states.shape == (len(expected), 5)
            assert traj.metadata["config"]["dt"] == 1e-3
            assert traj.metadata["config"]["horizon"] == 2.0

    def test_against_rich_dynamics_self_consistency(self):
        params = params_from(EX2_PARAMS, 3)
        init = EpidemicState(20, 20, 15, 10, 0)
        a = simulate_deterministic(init, params, 1e-3, 5.0, output_stride=100)
        b = simulate_deterministic(init, params, 5e-4, 5.0, output_stride=200)
        np.testing.assert_allclose(a.states, b.states, rtol=1e-9, atol=1e-11)
