"""Trajectory post-processing: averages, extinction detection, summaries."""

from dataclasses import replace

import numpy as np
import pytest

from seqirsim import (
    EpidemicState,
    PolicyFunction,
    RegimeParameterTable,
    SimulationConfig,
    Trajectory,
    detect_extinction,
    exponential_rate_estimate,
    extinction_rate_bound,
    invariant_set_bounds,
    iter_ensemble,
    simulate,
    stationary_distribution,
    summarize_ensemble,
    threshold_report,
    time_average,
    validate_generator,
)
from seqirsim.analysis import member_statistics, tail_window, window_mask
from seqirsim.errors import EmptyWindow, InconsistentConfigs, NonPositiveValues

from conftest import PERSISTENT_PARAMS, table_from_lists
from test_model import params_from, zero_params
from conftest import EX1_PARAMS

LINEAR = PolicyFunction.linear()


def synthetic_trajectory(times, e_values, s_values=None):
    """Trajectory with a prescribed E column (other compartments zero-ish)."""
    times = np.asarray(times, dtype=float)
    m = len(times)
    states = np.zeros((m, 5))
    states[:, 1] = e_values
    if s_values is not None:
        states[:, 0] = s_values
    return Trajectory(times=times, regimes=np.ones(m, dtype=np.int64), states=states)


class TestTimeAverage:
    def test_constant_series(self):
        traj = synthetic_trajectory(np.linspace(0, 10, 101), np.full(101, 3.7))
        assert time_average(traj, "E") == pytest.approx(3.7, rel=1e-12)

    def test_linear_series_exact_for_trapezoid(self):
        t = np.linspace(0, 1, 11)
        traj = synthetic_trajectory(t, t)
        assert time_average(traj, "E", (0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_window_restriction(self):
        t = np.linspace(0, 10, 1001)
        traj = synthetic_trajectory(t, np.where(t < 5.0, 0.0, 2.0))
        assert time_average(traj, "E", (6.0, 10.0)) == pytest.approx(2.0, rel=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 4, 201)
        x = rng.uniform(0, 5, 201)
        y = rng.uniform(0, 5, 201)
        a, b = 1.7, 0.3
        tx = synthetic_trajectory(t, x)
        ty = synthetic_trajectory(t, y)
        txy = synthetic_trajectory(t, a * x + b * y)
        combined = a * time_average(tx, "E") + b * time_average(ty, "E")
        assert time_average(txy, "E") == pytest.approx(combined, rel=1e-12)

    def test_empty_window_rejected(self):
        traj = synthetic_trajectory(np.linspace(0, 1, 11), np.ones(11))
        with pytest.raises(EmptyWindow):
            time_average(traj, "E", (0.5, 0.5))
        with pytest.raises(EmptyWindow):
            time_average(traj, "E", (0.0, 2.0))


class TestDetectExtinction:
    def test_identically_zero_always_detected(self):
        traj = synthetic_trajectory(np.linspace(0, 10, 101), np.zeros(101))
        assert detect_extinction(traj, threshold=1e-12)
        assert detect_extinction(traj, threshold=100.0)

    def test_constant_above_threshold(self):
        traj = synthetic_trajectory(np.linspace(0, 10, 101), np.ones(101))
        assert not detect_extinction(traj, threshold=0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        traj = synthetic_trajectory(np.linspace(0, 10, 101),
                                    rng.uniform(0, 1e-2, 101))
        thresholds_ = [1e-4, 1e-3, 1e-2, 1e-1]
        flags = [detect_extinction(traj, th) for th in thresholds_]
        # once true it stays true as the threshold grows
        assert flags == sorted(flags)

    def test_tail_only_matters(self):
        t = np.linspace(0, 10, 1001)
        e = np.where(t < 9.0, 5.0, 1e-6)
        traj = synthetic_trajectory(t, e)
        assert detect_extinction(traj, threshold=1e-3, tail_fraction=0.05)
        assert not detect_extinction(traj, threshold=1e-3, tail_fraction=0.5)


class TestExponentialRateEstimate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 201)
        traj = synthetic_trajectory(t, np.exp(-2.0 * t))
        assert exponential_rate_estimate(traj, "E") == pytest.approx(-2.0, abs=1e-9)

    def test_constant_series_zero_slope(self):
        traj = synthetic_trajectory(np.linspace(0, 5, 51), np.full(51, 0.25))
        assert exponential_rate_estimate(traj, "E") == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        traj = synthetic_trajectory(np.linspace(0, 5, 51), np.zeros(51))
        with pytest.raises(NonPositiveValues):
            exponential_rate_estimate(traj, "E")


class TestRateEstimateOnBenchmarkRuns:
    def test_certified_extinction_runs_have_negative_slope(self, gen4, ex1_table):
        # E decays exponentially once the outbreak transient has passed; the
        # fitted log-slope is negative and the theoretical rate bound from
        # the threshold module is reported alongside (not asserted per seed)
        pi = stationary_distribution(gen4)
        bound = extinction_rate_bound(ex1_table, pi)
        assert bound < 0.0
        negative = 0
        for seed in range(5):
            cfg = SimulationConfig(dt=1e-3, horizon=300.0,
                                   initial_state=EpidemicState(20, 20, 15, 10, 0),
                                   initial_regime=3, seed=seed, output_stride=100)
            traj = simulate(cfg, gen4, ex1_table, LINEAR)
            slope = exponential_rate_estimate(traj, "E", (100.0, 300.0))
            if slope < 0.0:
                negative += 1
        assert negative >= 4  # majority of seeds, not a per-path certainty

    def test_decay_rate_respects_the_extinction_rate_bound(self, gen4, ex1_table):
        # limsup (1/t) ln E <= extinction_rate_bound (-0.0539 on example1)
        # holds on every path; a fit over a finite window may sit slightly
        # above it, so each slope may exceed the bound by MARGIN, about 5% of
        # the bound.  The ten slopes lie between -0.0677 and -0.0615.
        MARGIN = 0.0025
        bound = extinction_rate_bound(ex1_table, stationary_distribution(gen4))
        cfg = SimulationConfig(dt=1e-3, horizon=200.0,
                               initial_state=EpidemicState(20, 20, 15, 10, 0),
                               initial_regime=3, output_stride=100)
        runs = list(iter_ensemble(cfg, gen4, ex1_table, LINEAR, 10, 42))
        slopes = [exponential_rate_estimate(traj, "E", (100.0, 200.0)) for traj in runs]
        assert max(slopes) <= bound + MARGIN, (bound, slopes)


class TestDeterministicSubcase:
    def test_subthreshold_single_regime_dies_out(self):
        # beta*w1*(A/xi) < w2 keeps the exposed class decaying, and the
        # stochastic pipeline with sigma0 = 0 must agree
        params = zero_params(A=1.0, xi=1.0, beta=0.05, b2=0.05, alpha=0.02,
                             sigma=0.01, c=0.05, b1=0.02, eta=0.05, delta=0.02)
        gen1 = validate_generator([[0.0]])
        table = RegimeParameterTable(rows=(params,))
        cfg = SimulationConfig(dt=1e-2, horizon=40.0,
                               initial_state=EpidemicState(1, 0.5, 0.2, 0.2, 0),
                               initial_regime=1, seed=3, output_stride=10)
        traj = simulate(cfg, gen1, table, LINEAR)
        e = traj.compartment("E")
        assert e[-1] < e[0] * 1e-3
        assert detect_extinction(traj, threshold=1e-2, tail_fraction=0.1)


@pytest.fixture(scope="module")
def persistent_setup():
    gen = validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    table = table_from_lists(PERSISTENT_PARAMS)
    cfg = SimulationConfig(dt=1e-3, horizon=200.0,
                           initial_state=EpidemicState(1.0, 0.3, 0.05, 0.05, 0.1),
                           initial_regime=1, seed=0, output_stride=100)
    trajectories = list(iter_ensemble(cfg, gen, table, LINEAR, n=5, base_seed=11))
    return gen, table, cfg, trajectories


class TestMemberStatistics:
    #: window sample counts on both sides of numpy's pairwise-summation
    #: blocks (8 and 128 elements), and longer ones
    WINDOW_SAMPLES = [2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 255, 256, 257, 300, 501,
                      1001, 5001]

    @pytest.mark.parametrize("m", WINDOW_SAMPLES)
    def test_tail_averages_are_time_average_to_the_byte(self, m):
        # the window holds the last m samples of 2m - 1 on an irregular grid
        rng = np.random.default_rng(m)
        for _ in range(5):
            times = np.cumsum(rng.uniform(0.5, 1.5, 2 * m - 1))
            times[0] = 0.0
            traj = Trajectory(times=times, regimes=np.ones(len(times), dtype=np.int64),
                              states=rng.lognormal(0.0, 4.0, (len(times), 5)))
            window = (times[m - 1], times[-1])
            mask = window_mask(times, window)
            assert mask.sum() == m
            stats = member_statistics(traj, mask, 1)
            expected = {name: time_average(traj, name, window) for name in Trajectory.COLUMNS}
            assert stats.tail_averages == expected
            assert all(type(v) is float for v in stats.tail_averages.values())

    def test_the_window_of_the_summary_grid(self):
        times = np.arange(11) * 0.5
        assert tail_window(times) == (2.5, 5.0)
        assert window_mask(times, (2.5, 5.0)).tolist() == [False] * 5 + [True] * 6


class TestSummarizeEnsemble:
    def test_single_run_matches_trajectory_statistics(self):
        params = replace(params_from(EX1_PARAMS, 1), sigma0=0.0)
        gen1 = validate_generator([[0.0]])
        table = RegimeParameterTable(rows=(params,))
        cfg = SimulationConfig(dt=1e-2, horizon=50.0,
                               initial_state=EpidemicState(0.3, 0.1, 0.05, 0.02, 0.01),
                               initial_regime=1, seed=1, output_stride=10)
        traj = simulate(cfg, gen1, table, LINEAR)
        pi = stationary_distribution(gen1)
        summary = summarize_ensemble([traj], pi)
        assert summary.n_trajectories == 1
        window = (25.0, 50.0)
        for name in Trajectory.COLUMNS:
            assert summary.tail_means[name] == pytest.approx(
                time_average(traj, name, window), rel=1e-12)
            assert summary.tail_stds[name] == 0.0

    def test_persistent_ensemble_statistics(self, persistent_setup):
        gen, table, cfg, trajectories = persistent_setup
        pi = stationary_distribution(gen)
        report = threshold_report(table, gen)
        summary = summarize_ensemble(trajectories, pi, report)
        assert summary.extinction_fraction == 0.0
        assert summary.tail_means["E"] > 0.0
        assert summary.verdict == "persistence_certified"
        # certified lower bounds hold empirically for these runs
        assert summary.bound_violations == {"E": False, "Q": False, "I": False}
        assert summary.occupancy_l1 < 0.2

    def test_population_stays_in_invariant_interval(self, persistent_setup):
        gen, table, cfg, trajectories = persistent_setup
        lower, upper = invariant_set_bounds(table)
        eps = 0.01 * upper
        for traj in trajectories:
            totals = traj.total
            assert totals.min() >= lower - eps
            assert totals.max() <= upper + eps
            avg_total = time_average(traj, "S", (100.0, 200.0))  # S alone below ceiling
            assert avg_total <= upper + eps

    def test_inconsistent_grids_rejected(self, persistent_setup):
        gen, table, cfg, trajectories = persistent_setup
        pi = stationary_distribution(gen)
        odd = simulate(replace(cfg, horizon=100.0), gen, table, LINEAR)
        with pytest.raises(InconsistentConfigs):
            summarize_ensemble([trajectories[0], odd], pi)

    def test_empty_ensemble_rejected(self, persistent_setup):
        gen, *_ = persistent_setup
        pi = stationary_distribution(gen)
        with pytest.raises(InconsistentConfigs):
            summarize_ensemble([], pi)
