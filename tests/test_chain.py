"""Regime-chain construction, steady state, transition matrices, sampling."""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from seqirsim import chain
from seqirsim import (
    EpidemicState,
    PolicyFunction,
    RegimePath,
    SimulationConfig,
    iter_ensemble,
    occupancy,
    sample_path_discretized,
    sample_path_exact,
    stationary_distribution,
    transition_matrix,
    validate_generator,
)
from seqirsim.errors import (
    NegativeOffDiagonal,
    ReducibleChain,
    RowSumViolation,
    StepTooLarge,
)

from conftest import GENERATOR_4, P_4_PRINTED, PI_4_PRINTED

#: exact rational stationary distribution of GENERATOR_4, as floats
PI_4_EXACT = [0.26224944320712695, 0.2878619153674833, 0.22271714922049, 0.22717149220489977]


def random_generator(rng, n):
    """Random irreducible Q-matrix with all off-diagonal rates positive."""
    off = rng.uniform(0.1, 5.0, size=(n, n))
    np.fill_diagonal(off, 0.0)
    q = off.copy()
    np.fill_diagonal(q, -off.sum(axis=1))
    return validate_generator(q)


class TestValidateGenerator:
    def test_benchmark_matrix(self):
        g = validate_generator(GENERATOR_4)
        assert g.n_states == 4
        assert np.allclose(g.rates.sum(axis=1), 0.0, atol=1e-12)

    def test_symmetric_two_state(self):
        g = validate_generator([[-1, 1], [1, -1]])
        assert g.n_states == 2

    def test_row_sum_violation(self):
        with pytest.raises(RowSumViolation):
            validate_generator([[-1, 2], [1, -1]])

    def test_negative_off_diagonal(self):
        with pytest.raises(NegativeOffDiagonal):
            validate_generator([[-1, 1, 0], [1, -2, 1], [-0.5, 1, -0.5]])

    def test_reducible(self):
        # state 3 has no outgoing rate, so nothing is reachable from it
        with pytest.raises(ReducibleChain):
            validate_generator([[-1, 1, 0], [1, -1, 0], [0, 0, 0]])

    def test_one_way_reducible(self):
        # 1 -> 2 but never back
        with pytest.raises(ReducibleChain):
            validate_generator([[-1, 1], [0, 0]])

    def test_diagonal_repair_small_deviation(self):
        g = validate_generator([[-1 + 4e-10, 1], [1, -1]])
        assert g.rates[0, 0] == -1.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate_generator([[1, 2, 3], [4, 5, 6]])

    def test_single_state(self):
        g = validate_generator([[0.0]])
        assert g.n_states == 1

    def test_rates_read_only(self):
        g = validate_generator(GENERATOR_4)
        with pytest.raises(ValueError):
            g.rates[0, 0] = 5.0


class TestStationaryDistribution:
    def test_benchmark_printed_values(self, gen4):
        pi = stationary_distribution(gen4).probabilities
        assert np.abs(pi - np.array(PI_4_PRINTED)).max() < 5e-5

    def test_benchmark_exact_rational(self, gen4):
        pi = stationary_distribution(gen4).probabilities
        np.testing.assert_allclose(pi, PI_4_EXACT, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.3, 1.0, 7.5])
    def test_symmetric_two_state_uniform(self, a):
        g = validate_generator([[-a, a], [a, -a]])
        np.testing.assert_allclose(
            stationary_distribution(g).probabilities, [0.5, 0.5], atol=1e-14)

    def test_cyclic_three_state_uniform(self):
        g = validate_generator([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
        np.testing.assert_allclose(
            stationary_distribution(g).probabilities, [1 / 3] * 3, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_residual_and_positivity_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            g = random_generator(rng, n)
            pi = stationary_distribution(g).probabilities
            assert np.abs(pi @ g.rates).max() <= 1e-10
            assert pi.min() > 0.0
            assert abs(pi.sum() - 1.0) <= 1e-12


class TestTransitionMatrix:
    def test_benchmark_printed_four_decimals(self, gen4):
        p = transition_matrix(gen4, 1e-4)
        assert np.abs(p - np.array(P_4_PRINTED)).max() < 5e-5

    def test_zero_interval_is_identity(self, gen4):
        np.testing.assert_array_equal(transition_matrix(gen4, 0.0), np.eye(4))

    def test_two_state_closed_form(self):
        # exp(dt*[[-a, a], [b, -b]]) has the closed form
        # (1/(a+b)) [[b + a*e, a - a*e], [b - b*e, a + b*e]], e = exp(-(a+b)dt)
        a, b, dt = 1.3, 0.4, 1.0
        g = validate_generator([[-a, a], [b, -b]])
        e = math.exp(-(a + b) * dt)
        expected = np.array([[b + a * e, a - a * e], [b - b * e, a + b * e]]) / (a + b)
        np.testing.assert_allclose(transition_matrix(g, dt), expected, atol=1e-14)

    def test_against_scipy_expm(self, gen4):
        for dt in (1e-4, 0.01, 0.5, 2.0):
            expected = scipy.linalg.expm(np.array(GENERATOR_4, float) * dt)
            np.testing.assert_allclose(transition_matrix(gen4, dt), expected, atol=1e-12)

    def test_rows_sum_to_one_entries_nonnegative(self, gen4):
        for dt in (1e-4, 0.05, 1.0, 4.0):
            p = transition_matrix(gen4, dt)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert p.min() >= 0.0

    def test_semigroup_property(self, gen4):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            g = random_generator(rng, n)
            dt1, dt2 = rng.uniform(0.01, 0.8, size=2)
            combined = transition_matrix(g, dt1 + dt2)
            product = transition_matrix(g, dt1) @ transition_matrix(g, dt2)
            assert np.abs(combined - product).max() <= 1e-10

    def test_stationarity_of_pi(self, gen4):
        pi = stationary_distribution(gen4).probabilities
        for dt in (1e-3, 0.1, 1.0):
            assert np.abs(pi @ transition_matrix(gen4, dt) - pi).max() <= 1e-10

    def test_large_argument_consistency(self, gen4):
        # ||2*rates||_inf = 40: squaring path must stay consistent
        p2 = transition_matrix(gen4, 2.0)
        p1 = transition_matrix(gen4, 1.0)
        assert np.abs(p2 - p1 @ p1).max() <= 1e-12


class TestSamplePathExact:
    def test_single_state_constant(self):
        g = validate_generator([[0.0]])
        path = sample_path_exact(g, 1, 10.0, 1)
        assert path.n_jumps == 0
        assert occupancy(path).tolist() == [1.0]

    def test_seed_determinism(self, gen4):
        p1 = sample_path_exact(gen4, 3, 50.0, 1234)
        p2 = sample_path_exact(gen4, 3, 50.0, 1234)
        np.testing.assert_array_equal(p1.jump_times, p2.jump_times)
        np.testing.assert_array_equal(p1.regimes, p2.regimes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ergodic_occupancy(self, gen4, seed):
        pi = stationary_distribution(gen4).probabilities
        path = sample_path_exact(gen4, 3, 1e4, seed)
        assert np.abs(occupancy(path) - pi).sum() < 0.02

    def test_path_invariants(self, gen4):
        path = sample_path_exact(gen4, 1, 200.0, 7)
        assert path.jump_times[0] == 0.0
        assert np.all(np.diff(path.jump_times) > 0)
        assert np.all(path.regimes[1:] != path.regimes[:-1])
        assert path.regimes.min() >= 1 and path.regimes.max() <= 4

    def test_invalid_initial_regime(self, gen4):
        with pytest.raises(ValueError):
            sample_path_exact(gen4, 5, 10.0, 0)


class TestSamplePathDiscretized:
    def test_single_state_constant(self):
        g = validate_generator([[0.0]])
        path = sample_path_discretized(g, 1, 5.0, 0.1, 3)
        assert path.n_jumps == 0

    def test_seed_determinism(self, gen4):
        p1 = sample_path_discretized(gen4, 2, 20.0, 1e-3, 99)
        p2 = sample_path_discretized(gen4, 2, 20.0, 1e-3, 99)
        np.testing.assert_array_equal(p1.jump_times, p2.jump_times)
        np.testing.assert_array_equal(p1.regimes, p2.regimes)

    def test_step_too_large(self, gen4):
        with pytest.raises(StepTooLarge):
            sample_path_discretized(gen4, 1, 10.0, 0.2, 0)  # dt*max|q_ii| = 2

    def test_warn_on_coarse_step(self, gen4):
        with pytest.warns(UserWarning):
            sample_path_discretized(gen4, 1, 10.0, 0.05, 0)  # dt*max|q_ii| = 0.5

    def test_occupancy_near_stationary(self, gen4):
        # horizon 100 holds ~900 sojourns, so a single path carries ~0.07 of
        # sampling noise; the seed-averaged occupancy is the stable statistic
        pi = stationary_distribution(gen4).probabilities
        occ = np.mean([
            occupancy(sample_path_discretized(gen4, 3, 100.0, 1e-4, seed))
            for seed in range(10)
        ], axis=0)
        assert np.abs(occ - pi).sum() < 0.05

    def test_jumps_on_grid(self, gen4):
        dt = 1e-3
        path = sample_path_discretized(gen4, 1, 5.0, dt, 11)
        steps = path.jump_times / dt
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
        assert path.jump_times.max() < 5.0

    def test_matches_exact_occupancy_law(self, gen4):
        # the two samplers approximate the same stationary occupancy
        pi = stationary_distribution(gen4).probabilities
        exact_l1 = [
            np.abs(occupancy(sample_path_exact(gen4, 3, 1e4, s)) - pi).sum()
            for s in range(3)
        ]
        grid_occ = np.mean([
            occupancy(sample_path_discretized(gen4, 3, 100.0, 1e-4, s))
            for s in range(10)
        ], axis=0)
        assert max(exact_l1) < 0.05
        assert np.abs(grid_occ - pi).sum() < 0.05


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_a_non_finite_horizon_is_refused_before_a_draw(gen4, horizon):
    # an infinite horizon would walk until memory runs out
    samplers = (lambda rng: sample_path_exact(gen4, 1, horizon, rng),
                lambda rng: sample_path_discretized(gen4, 1, horizon, 1e-3, rng))
    for sample in samplers:
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="^horizon must be positive and finite$"):
            sample(rng)
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


class TestGridLawCache:
    """The grid sampler computes transition_matrix once per (generator, dt)."""

    def test_an_ensemble_computes_the_matrix_once(self, monkeypatch, ex1_table):
        calls = []
        original = chain.transition_matrix
        monkeypatch.setattr(chain, "transition_matrix",
                            lambda g, dt: calls.append(dt) or original(g, dt))
        g = validate_generator(GENERATOR_4)  # a generator with no cached law yet
        config = SimulationConfig(dt=1e-3, horizon=2.0, chain_mode="discretized",
                                  initial_state=EpidemicState(20, 20, 15, 10, 0))
        list(iter_ensemble(config, g, ex1_table, PolicyFunction.linear(), 4, 9))
        assert calls == [1e-3]

    def test_cached_paths_equal_fresh_ones(self):
        g = validate_generator(GENERATOR_4)
        dts = [1e-3, 1e-3, 2e-3, 1e-3]
        cached = [sample_path_discretized(g, 2, 5.0, dt, 7) for dt in dts]
        assert sorted(g._grid_laws) == [1e-3, 2e-3]
        for dt, path in zip(dts, cached):
            fresh = sample_path_discretized(validate_generator(GENERATOR_4), 2, 5.0, dt, 7)
            assert path.jump_times.tobytes() == fresh.jump_times.tobytes()
            assert path.regimes.tobytes() == fresh.regimes.tobytes()

    def test_public_matrix_stays_fresh_and_writable(self, gen4):
        sample_path_discretized(gen4, 2, 5.0, 1e-3, 7)
        p1 = transition_matrix(gen4, 1e-3)
        p2 = transition_matrix(gen4, 1e-3)
        assert p1 is not p2 and p1.flags.writeable
        p1[:] = 0.0
        np.testing.assert_array_equal(transition_matrix(gen4, 1e-3), p2)


class TestOccupancyAndPath:
    def test_single_segment(self):
        path = RegimePath(np.array([0.0]), np.array([1]), 4.0, 1)
        assert occupancy(path).tolist() == [1.0]

    def test_two_equal_segments(self):
        path = RegimePath(np.array([0.0, 1.0]), np.array([1, 2]), 2.0, 2)
        np.testing.assert_allclose(occupancy(path), [0.5, 0.5])

    def test_regime_at(self):
        path = RegimePath(np.array([0.0, 1.0, 2.5]), np.array([2, 1, 2]), 3.0, 2)
        assert path.regime_at(0.0) == 2
        assert path.regime_at(0.999) == 2
        assert path.regime_at(1.0) == 1
        assert path.regime_at(2.7) == 2

    def test_invalid_paths_rejected(self):
        with pytest.raises(ValueError):
            RegimePath(np.array([0.0, 1.0]), np.array([1, 1]), 2.0, 2)  # no change
        with pytest.raises(ValueError):
            RegimePath(np.array([0.5, 1.0]), np.array([1, 2]), 2.0, 2)  # not from 0
        with pytest.raises(ValueError):
            RegimePath(np.array([0.0, 1.0]), np.array([1, 3]), 2.0, 2)  # state range
        with pytest.raises(ValueError):
            RegimePath(np.array([0.0, 1.0]), np.array([0, 2]), 2.0, 2)  # state 0
        with pytest.raises(ValueError):
            RegimePath(np.array([0.0, 1.0, 1.0]), np.array([1, 2, 1]), 2.0, 2)  # repeated time
        with pytest.raises(ValueError):
            RegimePath(np.array([0.0, 1.0, 0.5]), np.array([1, 2, 1]), 2.0, 2)  # time goes back

    def test_occupancy_adds_the_segments_in_index_order(self):
        # state 1 holds for 2**-53, 2**-53 and then 1.0: added in that order the
        # two halves of an ulp of 1.0 make a whole one, and with 1.0 first each
        # rounds away
        tiny = 2.0 ** -53
        path = RegimePath(np.array([0.0, tiny, 2 * tiny, 3 * tiny, 4 * tiny]),
                          np.array([1, 2, 1, 2, 1]), 1.0 + 4 * tiny, 2)
        expected = np.array([2 * tiny + 1.0, 2 * tiny]) / path.horizon
        assert occupancy(path).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("regime", [0, 5])
    def test_occupancy_of_a_path_changed_out_of_range_raises(self, regime):
        # a path's arrays can be written after its checks; np.bincount alone
        # would count regime 5 into a slot of its own and drop regime 0
        path = RegimePath(np.array([0.0, 1.0, 2.0]), np.array([1, 2, 1]), 4.0, 2)
        path.regimes[1] = regime
        with pytest.raises(ValueError, match=r"^regimes must lie in 1\.\.2$"):
            occupancy(path)


#: a two-state chain whose first state is left at rate 1e-14: exp(dt * rates)
#: rounds its stay probability to 1.0, so the grid sampler never leaves it
NEAR_ABSORBING = [[-1e-14, 1e-14], [1.0, -1.0]]
GENERATOR_4_X50 = (np.array(GENERATOR_4) * 50).tolist()

#: (generator, initial regime, horizon, grid dt); dt None samples exactly
GOLDEN_CASES = {
    "exact-gen4": (GENERATOR_4, 2, 20.0, None),
    "exact-gen4x50": (GENERATOR_4_X50, 1, 5.0, None),
    "exact-near-absorbing-1": (NEAR_ABSORBING, 1, 10.0, None),
    "exact-near-absorbing-2": (NEAR_ABSORBING, 2, 10.0, None),
    "exact-single": ([[0.0]], 1, 10.0, None),
    "grid-gen4": (GENERATOR_4, 3, 20.0, 1e-3),
    "grid-gen4x50": (GENERATOR_4_X50, 4, 5.0, 1e-4),
    "grid-near-absorbing-1": (NEAR_ABSORBING, 1, 10.0, 1e-3),
    "grid-near-absorbing-2": (NEAR_ABSORBING, 2, 10.0, 1e-3),
    "grid-single": ([[0.0]], 1, 10.0, 1e-3),
    "grid-horizon-within-one-step": (GENERATOR_4, 2, 1e-3, 1e-3),
}

#: sha256 over seeds 0, 1, 2, each given as an int and then as a Generator:
#: the path bytes, plus the next 4 normals of a passed Generator
GOLDEN_DIGESTS = {
    "exact-gen4": "4276b44982a711a81fa4697a2aed559904b8197f3a5786c9e908a8f59ac0bf03",
    "exact-gen4x50": "0d21fcb1fab9b0671708f96cb42686dee11ee381994bac14ea6905dcb0debfb3",
    "exact-near-absorbing-1": "e30e18045cbff0242dfbeee28361a6521823a984631491abc11489d4be329fa3",
    "exact-near-absorbing-2": "2e11379eb98b48b6784f371dd9a2a422e4e5003cafcc4d8562a8af62d502e7dc",
    "exact-single": "8b5213f13506bdc24d968b055718521c86f09d16b3dd75c2279091c9e9e5f3e4",
    "grid-gen4": "0760efe269cfd7118d38276c6f3619a5956fd04394d62c63bd09d82b007b02ca",
    "grid-gen4x50": "9b7b409a8a10605af56f09935019c422cb1f37b3adf9a74a0d0afb730f4a3fbe",
    "grid-horizon-within-one-step":
        "e7c359a1df122f190198d6e8b01547178fefd0a386e55d8c59ad584a70731237",
    "grid-near-absorbing-1": "8b5213f13506bdc24d968b055718521c86f09d16b3dd75c2279091c9e9e5f3e4",
    "grid-near-absorbing-2": "85a8a8a431d7bdd39dc09401ad0e514d7098ce9efcbb179ee054de14f52b1c82",
    "grid-single": "8b5213f13506bdc24d968b055718521c86f09d16b3dd75c2279091c9e9e5f3e4",
}


def sample_golden(name, seed_arg):
    raw, r0, horizon, dt = GOLDEN_CASES[name]
    g = validate_generator(raw)
    if dt is None:
        return sample_path_exact(g, r0, horizon, seed_arg)
    return sample_path_discretized(g, r0, horizon, dt, seed_arg)


def golden_digest(name):
    h = hashlib.sha256()
    for seed in range(3):
        for seed_arg in (seed, np.random.default_rng(seed)):
            path = sample_golden(name, seed_arg)
            h.update(path.jump_times.tobytes() + path.regimes.astype(np.int64).tobytes())
            if isinstance(seed_arg, np.random.Generator):
                h.update(seed_arg.standard_normal(4).tobytes())
    return h.hexdigest()


class TestGoldenPaths:
    """Both samplers draw the same paths from the same stream, byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_digest(self, name):
        assert golden_digest(name) == GOLDEN_DIGESTS[name]

    def test_edges_are_reached(self):
        # no draw at all: one state, a grid horizon within one step, or a
        # start in the state that the grid sampler never leaves
        for name in ("exact-single", "grid-single", "grid-horizon-within-one-step",
                     "grid-near-absorbing-1"):
            rng = np.random.default_rng(5)
            assert sample_golden(name, rng).n_jumps == 0
            assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
        # the other start jumps into that state and stays there
        assert sample_golden("grid-near-absorbing-2", 0).regimes.tolist() == [2, 1]
        for name in ("exact-gen4x50", "grid-gen4x50"):
            assert sample_golden(name, 0).n_jumps > 1000
