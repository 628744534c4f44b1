"""Model types, drift/diffusion fields, policy functions, invariant set."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from seqirsim import (
    EpidemicState,
    PolicyFunction,
    RegimeParameters,
    RegimeParameterTable,
    diffusion,
    drift,
    invariant_set_bounds,
    w1,
    w2,
)
from seqirsim.errors import DegenerateBounds
from seqirsim.model import regime_constants, vector_field

from conftest import EX1_PARAMS, EX2_PARAMS

# independent exact-rational evaluation of the five drift formulas,
# EX1 regime-1 parameters at (S, E, Q, I, R) = (20, 20, 15, 10, 0), linear h
DRIFT_EX1_K1 = [-1.8644224, 0.7952024, -1.115, 0.71, 0.26002]

# same oracle, EX2 regime-1 parameters at (10, 5, 1, 1, 0), M_const = 0.001
DET_DRIFT_EX2_K1 = [-0.1584108, 0.3984008, 0.109, 0.079, 0.03501]


def params_from(lists, k):
    """RegimeParameters for 1-based regime k of a parameter-list dict."""
    return RegimeParameters(**{name: lists[name][k - 1] for name in lists})


def zero_params(**overrides):
    base = {name: 0.0 for name in
            ("A", "beta", "rho1", "rho2", "b1", "b2", "c", "xi", "delta",
             "alpha", "sigma", "eta", "p", "M", "sigma0")}
    base.update(overrides)
    return RegimeParameters(**base)


def random_params(rng):
    return RegimeParameters(
        A=rng.uniform(0.001, 1.0), beta=rng.uniform(0.001, 0.1),
        rho1=rng.uniform(0.0, 0.5), rho2=rng.uniform(0.0, 0.5),
        b1=rng.uniform(0, 0.1), b2=rng.uniform(0, 0.1), c=rng.uniform(0, 0.1),
        xi=rng.uniform(0.005, 0.05), delta=rng.uniform(0, 0.1),
        alpha=rng.uniform(0, 0.05), sigma=rng.uniform(0, 0.05),
        eta=rng.uniform(0, 0.05), p=rng.uniform(0, 0.01),
        M=rng.uniform(0, 0.01), sigma0=rng.uniform(0, 0.1))


def random_state(rng, scale=30.0):
    return EpidemicState(*rng.uniform(0.0, scale, size=5))


class TestContactAndExitRates:
    def test_w1_example_regime1(self):
        assert w1(params_from(EX1_PARAMS, 1)) == pytest.approx(0.998001, abs=1e-15)

    def test_w1_no_precaution(self):
        assert w1(zero_params()) == 1.0

    def test_w1_half_half(self):
        assert w1(zero_params(rho1=0.5, rho2=0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_w2_example_regime1(self):
        assert w2(params_from(EX1_PARAMS, 1)) == pytest.approx(0.080, abs=1e-15)

    def test_w2_example_regime2(self):
        assert w2(params_from(EX1_PARAMS, 2)) == pytest.approx(0.0565, abs=1e-15)

    def test_w2_only_xi(self):
        assert w2(zero_params(xi=1.0)) == 1.0


class TestParameterValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            zero_params(beta=-0.1)

    def test_rho_at_one_rejected(self):
        with pytest.raises(ValueError):
            zero_params(rho1=1.0)

    def test_table_regime_indexing(self, ex1_table):
        assert ex1_table.n_regimes == 4
        assert ex1_table[2].beta == 0.018
        with pytest.raises(IndexError):
            ex1_table[0]

    def test_table_arrays(self, ex1_table):
        np.testing.assert_array_equal(ex1_table.beta, EX1_PARAMS["beta"])
        assert ex1_table.A_max == 0.0070
        assert ex1_table.xi_min == 0.010
        assert ex1_table.beta_max == 0.08
        assert ex1_table.sigma0_min == 0.006


class TestEpidemicState:
    def test_total(self):
        s = EpidemicState(1.0, 2.0, 3.0, 4.0, 5.0)
        assert s.total == 15.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EpidemicState(1.0, -0.5, 0.0, 0.0, 0.0)


class TestDrift:
    def test_disease_free_reduction(self):
        # with E = Q = I = R = 0 only recruitment, death and policy remain
        p = params_from(EX1_PARAMS, 1)
        h = PolicyFunction.linear()
        s = 12.0
        out = drift(EpidemicState(s, 0, 0, 0, 0), p, h)
        pol = p.p * p.M * s
        np.testing.assert_allclose(
            out, [p.A - p.xi * s - pol, 0, 0, 0, pol], rtol=1e-15)

    def test_empty_state_only_recruitment(self):
        p = params_from(EX1_PARAMS, 3)
        out = drift(EpidemicState(0, 0, 0, 0, 0), p, PolicyFunction.linear())
        np.testing.assert_allclose(out, [p.A, 0, 0, 0, 0], rtol=0, atol=0)

    def test_against_exact_oracle(self):
        out = drift(EpidemicState(20, 20, 15, 10, 0), params_from(EX1_PARAMS, 1),
                    PolicyFunction.linear())
        np.testing.assert_allclose(out, DRIFT_EX1_K1, rtol=1e-12)

    def test_conservation_structure(self):
        # the transfer terms cancel: sum of components = A - xi*total - delta*I
        rng = np.random.default_rng(17)
        h = PolicyFunction.linear()
        for _ in range(50):
            p = random_params(rng)
            st = random_state(rng)
            total = drift(st, p, h).sum()
            expected = p.A - p.xi * st.total - p.delta * st.I
            assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_population_ceiling_not_expanding(self, ex1_table, ex2_table):
        # at total = max A / min xi with I = 0 the population derivative is <= 0
        h = PolicyFunction.linear()
        for table in (ex1_table, ex2_table):
            upper = invariant_set_bounds(table)[1]
            for k in range(1, table.n_regimes + 1):
                st = EpidemicState(upper / 2, upper / 4, upper / 8, 0.0,
                                   upper - upper / 2 - upper / 4 - upper / 8)
                assert drift(st, table[k], h).sum() <= 1e-12


class TestDiffusion:
    def test_vanishes_without_exposed(self):
        p = params_from(EX1_PARAMS, 1)
        np.testing.assert_array_equal(
            diffusion(EpidemicState(5, 0, 1, 1, 1), p), np.zeros(5))

    def test_vanishes_without_susceptible(self):
        p = params_from(EX1_PARAMS, 1)
        np.testing.assert_array_equal(
            diffusion(EpidemicState(0, 5, 1, 1, 1), p), np.zeros(5))

    def test_magnitude_oracle(self):
        # sigma0 * w1 * S * E = 0.008 * 0.998001 * 20 * 20
        p = params_from(EX1_PARAMS, 1)
        out = diffusion(EpidemicState(20, 20, 0, 0, 0), p)
        np.testing.assert_allclose(out, [-3.1936032, 3.1936032, 0, 0, 0], rtol=1e-12)

    def test_components_sum_to_zero_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            out = diffusion(random_state(rng), random_params(rng))
            assert out[0] + out[1] == 0.0
            assert np.all(out[2:] == 0.0)


class TestDeterministicDrift:
    """The noise-free single-regime field: :func:`drift` with a linear policy
    and the policy intensity pinned at M_const."""

    def test_exposed_free_reduction(self):
        p = params_from(EX2_PARAMS, 1)
        s, q, i, r = 4.0, 2.0, 1.0, 0.5
        out = drift(EpidemicState(s, 0, q, i, r), p, PolicyFunction.linear())
        pol = p.p * s * p.M
        np.testing.assert_allclose(out, [
            p.A + p.b1 * q - p.xi * s - pol,
            0.0,
            -(p.b1 + p.c + p.xi) * q,
            p.c * q - (p.eta + p.xi + p.delta) * i,
            p.eta * i - p.xi * r + pol,
        ], rtol=1e-14, atol=1e-16)

    def test_equals_drift_with_linear_policy(self):
        # the field simulate_deterministic steps: vector_field with h(s) = s
        rng = np.random.default_rng(8)
        h = PolicyFunction.linear()
        for _ in range(25):
            p = random_params(rng)
            st = random_state(rng)
            m_const = rng.uniform(0.0, 0.01)
            pinned = replace(p, M=m_const)
            np.testing.assert_array_equal(
                drift(st, pinned, h),
                vector_field(*astuple(st), regime_constants(pinned), st.S))

    def test_against_exact_oracle(self):
        out = drift(EpidemicState(10, 5, 1, 1, 0), replace(params_from(EX2_PARAMS, 1), M=0.001),
                    PolicyFunction.linear())
        np.testing.assert_allclose(out, DET_DRIFT_EX2_K1, rtol=1e-12)


class TestPolicyFunction:
    def test_linear_and_saturating_envelope(self):
        # h(0) = 0 and 0 <= h(s) <= s: the envelope the threshold formulas use
        for h in (PolicyFunction.linear(), PolicyFunction.saturating(0.7)):
            assert h(0.0) == 0.0
            for s in np.linspace(0, 100, 2001):
                assert 0.0 <= h(s) <= s
        assert PolicyFunction.saturating(0.7)(10.0) == pytest.approx(10.0 / 8.0, rel=1e-15)

    def test_linear_is_the_identity_bit_for_bit(self):
        # the linear policy is s / (1 + 0 * s); on the states h sees it must return s
        lin = PolicyFunction.linear()
        values = [0.0, -0.0, 5e-324, 2.2e-308, 1.0, 1e308]
        values += np.random.default_rng(3).uniform(0.0, 1e6, 1000).tolist()
        for s in values:
            assert math.copysign(1.0, lin(s)) == math.copysign(1.0, s) and lin(s) == s

    def test_saturating_requires_positive_a(self):
        for a in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                PolicyFunction.saturating(a)

    # a coefficient that cannot be saturating is refused by the saturating kind
    # even where PolicyFunction(a) alone would accept it (a = 0 is linear);
    # the ids name kind, a and the absent custom function
    @pytest.mark.parametrize("kind, a", [
        ("saturating", 0.0),
        ("saturating", -1.0),
        ("saturating", math.nan),
    ], ids=["saturating-0.0-None", "saturating--1.0-None", "saturating-nan-None"])
    def test_kind_must_agree_with_a_and_fn(self, kind, a):
        with pytest.raises(ValueError):
            getattr(PolicyFunction, kind)(a)

    @pytest.mark.parametrize("a", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_a_must_be_finite_and_nonnegative(self, a):
        with pytest.raises(ValueError):
            PolicyFunction(a)

    def test_classmethods_agree_with_their_kind(self):
        assert PolicyFunction.linear() == PolicyFunction(0.0)
        assert PolicyFunction.linear().kind == "linear"
        assert PolicyFunction.saturating(0.5) == PolicyFunction(0.5)
        assert PolicyFunction.saturating(0.5).kind == "saturating"


class TestInvariantSetBounds:
    def test_example1_values(self, ex1_table):
        lower, upper = invariant_set_bounds(ex1_table)
        assert lower == pytest.approx(0.005, rel=1e-12)
        assert upper == pytest.approx(0.7, rel=1e-12)

    def test_example2_upper(self, ex2_table):
        assert invariant_set_bounds(ex2_table)[1] == pytest.approx(89.0, rel=1e-12)

    def test_single_regime_coincident(self):
        table = RegimeParameterTable(rows=(zero_params(A=1.0, xi=1.0),))
        assert invariant_set_bounds(table) == (1.0, 1.0)

    def test_degenerate_when_no_death(self):
        table = RegimeParameterTable(rows=(zero_params(A=1.0),))
        with pytest.raises(DegenerateBounds):
            invariant_set_bounds(table)

    def test_ordered(self, ex1_table, ex2_table, persistent_table):
        for table in (ex1_table, ex2_table, persistent_table):
            lower, upper = invariant_set_bounds(table)
            assert 0 < lower <= upper
