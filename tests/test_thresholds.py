"""Threshold engine against the exact-rational oracle and structural laws."""

import numpy as np
import pytest

from seqirsim import (
    RegimeParameterTable,
    check_conditions,
    compute_lambda,
    compute_rs_star,
    compute_rtilde_star,
    extinction_rate_bound,
    persistence_bounds,
    stationary_distribution,
    threshold_report,
    validate_generator,
)
from seqirsim.chain import StationaryDistribution
from seqirsim.errors import NotPersistent
from seqirsim.thresholds import psi1_vector, psi2_vector, psi3_vector

from conftest import (
    EX1_PARAMS,
    EX2_PARAMS,
    GENERATOR_2,
    GENERATOR_4,
    PERSISTENT_PARAMS,
    table_from_lists,
)
from exact_oracle import exact_params, exact_stationary, exact_thresholds
from test_model import zero_params, random_params

# frozen outputs of the exact-rational oracle (tests/exact_oracle.py)
EX1_RS = 0.31496982228995035
EX1_RT = 0.042186558904341184
EX1_LAM = 0.5871367828078444
EX2_RS = 0.27520947153227243
EX2_RT = 0.17575831086740387
EX2_LAM = 7.733913609485228
EX2_PSI1 = [0.6162329567324091, 4.041731657005593, 1.3734942973827144, 5.123002488455922]
EX2_PSI2 = [3.7262911545233406, 10.484745495327063, 2.8476611987604037, 6.241158928535473]
EX2_PSI3 = [2.208015925860242, 6.262793957142403, 1.71301145469102, 3.7355350996161087]
PERS_RT = 2.762512600841381
PERS_BOUNDS = (0.02346711962237151, 0.009202792008773142, 0.013848432205509582)

RTOL = 1e-10


@pytest.fixture(scope="module")
def pi4(gen4):
    return stationary_distribution(gen4)


@pytest.fixture(scope="module")
def pi2(gen2):
    return stationary_distribution(gen2)


def single_regime_pi():
    return StationaryDistribution(probabilities=np.array([1.0]))


def single_regime_table(**overrides):
    return RegimeParameterTable(rows=(zero_params(**overrides),))


class TestRsStar:
    def test_single_regime_noise_free_reduction(self):
        # reduces to beta*w1*(A/xi) / w2
        t = single_regime_table(A=0.4, xi=0.05, beta=0.3, rho1=0.1, rho2=0.2,
                                b2=0.05, alpha=0.02, sigma=0.01)
        expected = 0.3 * 0.9 * 0.8 * (0.4 / 0.05) / (0.05 + 0.02 + 0.01 + 0.05)
        assert compute_rs_star(t, single_regime_pi()) == pytest.approx(expected, rel=1e-14)

    def test_example1_against_oracle(self, ex1_table, pi4):
        assert compute_rs_star(ex1_table, pi4) == pytest.approx(EX1_RS, rel=RTOL)

    def test_example2_against_oracle(self, ex2_table, pi4):
        assert compute_rs_star(ex2_table, pi4) == pytest.approx(EX2_RS, rel=RTOL)

    def test_doubling_beta_increases(self, ex1_table, pi4):
        doubled = dict(EX1_PARAMS)
        doubled["beta"] = [2 * b for b in EX1_PARAMS["beta"]]
        assert compute_rs_star(table_from_lists(doubled), pi4) > compute_rs_star(ex1_table, pi4)

    def test_monotone_in_each_beta_and_sigma0(self, pi4):
        base = {k: list(v) for k, v in EX1_PARAMS.items()}
        rs0 = compute_rs_star(table_from_lists(base), pi4)
        for k in range(4):
            up = {key: list(v) for key, v in base.items()}
            up["beta"][k] *= 1.01
            assert compute_rs_star(table_from_lists(up), pi4) > rs0
            noisier = {key: list(v) for key, v in base.items()}
            noisier["sigma0"][k] *= 1.5
            assert compute_rs_star(table_from_lists(noisier), pi4) < rs0

    def test_recruitment_scaling_matches_formula(self, ex1_table, pi4):
        # scaling every A by lam scales the ceiling by lam; predict the new
        # value from the unscaled pieces and compare against recomputation
        lam = 3.0
        scaled = dict(EX1_PARAMS)
        scaled["A"] = [lam * a for a in EX1_PARAMS["A"]]
        table = table_from_lists(scaled)
        p = pi4.probabilities
        s = ex1_table.population_ceiling
        w1v = ex1_table.w1_array
        num = p @ (ex1_table.beta * w1v * (lam * s))
        den = p @ (ex1_table.w2_array + 0.5 * ex1_table.sigma0 ** 2 * w1v ** 2 * (lam * s) ** 2)
        assert compute_rs_star(table, pi4) == pytest.approx(num / den, rel=1e-12)


class TestPsi:
    def test_single_regime_no_policy_is_zero(self):
        t = single_regime_table(A=1.0, xi=0.1, beta=0.2, b2=0.05)
        assert psi1_vector(t)[0] == 0.0

    def test_zero_common_factor_zeroes_all(self):
        # sigma0^2/2 * w1 * ceiling = beta  =>  C(k) = 0
        t = single_regime_table(A=1.0, xi=1.0, beta=0.5, sigma0=1.0, p=0.01, M=1.0)
        assert psi1_vector(t)[0] == 0.0
        assert psi2_vector(t)[0] == 0.0
        assert psi3_vector(t)[0] == 0.0

    def test_example2_against_oracle(self, ex2_table):
        for k in range(1, 5):
            assert psi1_vector(ex2_table)[k - 1] == pytest.approx(EX2_PSI1[k - 1], rel=RTOL)
            assert psi2_vector(ex2_table)[k - 1] == pytest.approx(EX2_PSI2[k - 1], rel=RTOL)
            assert psi3_vector(ex2_table)[k - 1] == pytest.approx(EX2_PSI3[k - 1], rel=RTOL)

    def test_nonnegative_under_remark_conditions(self, ex1_table, persistent_table):
        for table in (ex1_table, persistent_table):
            cond = check_conditions(table)
            assert cond.beta_vs_half_noise.all() and cond.bracket_positive.all()
            assert np.all(psi1_vector(table) >= 0)
            assert np.all(psi2_vector(table) >= 0)
            assert np.all(psi3_vector(table) >= 0)

    def test_zero_recruitment_rejected(self):
        t = single_regime_table(xi=0.1, beta=0.2)
        with pytest.raises(ZeroDivisionError):
            psi1_vector(t)[0]


class TestRtildeStar:
    def test_equals_rs_star_when_psi1_vanishes(self):
        t = single_regime_table(A=1.0, xi=0.1, beta=0.2, b2=0.05, sigma0=0.05)
        pi = single_regime_pi()
        assert psi1_vector(t)[0] == 0.0
        assert compute_rtilde_star(t, pi) == pytest.approx(compute_rs_star(t, pi), rel=1e-14)

    def test_example2_against_oracle(self, ex2_table, pi4):
        assert compute_rtilde_star(ex2_table, pi4) == pytest.approx(EX2_RT, rel=RTOL)

    def test_example1_against_oracle(self, ex1_table, pi4):
        assert compute_rtilde_star(ex1_table, pi4) == pytest.approx(EX1_RT, rel=RTOL)

    def test_dominated_by_rs_star_when_psi1_nonnegative(self, pi4):
        rng = np.random.default_rng(4)
        found = 0
        while found < 10:
            table = RegimeParameterTable(rows=tuple(random_params(rng) for _ in range(4)))
            if table.A_min == 0 or table.xi_min == 0:
                continue
            psi1 = psi1_vector(table)
            if np.all(psi1 >= 0):
                found += 1
                assert compute_rtilde_star(table, pi4) <= compute_rs_star(table, pi4) + 1e-15
        # equality exactly when the psi1 average vanishes
        t = single_regime_table(A=1.0, xi=0.1, beta=0.2, b2=0.05)
        pi = single_regime_pi()
        assert compute_rtilde_star(t, pi) == pytest.approx(compute_rs_star(t, pi), rel=1e-14)


class TestLambda:
    def test_definitional_identity(self, ex1_table, ex2_table, persistent_table, pi4, pi2):
        for table, pi in ((ex1_table, pi4), (ex2_table, pi4), (persistent_table, pi2)):
            p = pi.probabilities
            num = float(p @ (table.beta * table.w1_array * table.population_ceiling))
            assert compute_rtilde_star(table, pi) * compute_lambda(table, pi) == \
                pytest.approx(num, rel=1e-12)

    def test_all_off_single_regime_is_w2(self):
        t = single_regime_table(A=1.0, xi=0.1, b2=0.04, alpha=0.02, sigma=0.01)
        assert compute_lambda(t, single_regime_pi()) == pytest.approx(0.17, rel=1e-14)

    def test_example2_against_oracle(self, ex2_table, pi4):
        assert compute_lambda(ex2_table, pi4) == pytest.approx(EX2_LAM, rel=RTOL)

    def test_example1_against_oracle(self, ex1_table, pi4):
        assert compute_lambda(ex1_table, pi4) == pytest.approx(EX1_LAM, rel=RTOL)


class TestPersistenceBounds:
    def test_not_persistent_examples(self, ex1_table, ex2_table, pi4):
        for table in (ex1_table, ex2_table):
            with pytest.raises(NotPersistent):
                persistence_bounds(table, pi4)

    def test_persistent_table_against_oracle(self, persistent_table, pi2):
        bounds = persistence_bounds(persistent_table, pi2)
        np.testing.assert_allclose(bounds, PERS_BOUNDS, rtol=RTOL)

    def test_q_to_e_ratio_structure(self, persistent_table, pi2):
        e_bound, q_bound, _ = persistence_bounds(persistent_table, pi2)
        t = persistent_table
        expected = float(t.b2.min()) / float(t.b1.max() + t.c.max() + t.xi.max())
        assert q_bound / e_bound == pytest.approx(expected, rel=1e-14)

    def test_bounds_scale_with_margin(self, persistent_table, pi2):
        # bounds carry the factor (rtilde - 1): verify against components
        rt = compute_rtilde_star(persistent_table, pi2)
        lam = compute_lambda(persistent_table, pi2)
        psi2_avg = float(pi2.probabilities @ psi2_vector(persistent_table))
        e_bound = persistence_bounds(persistent_table, pi2)[0]
        assert e_bound == pytest.approx(lam * (rt - 1.0) / psi2_avg, rel=1e-14)


class TestConditions:
    def test_no_noise_all_pass(self, ex1_table):
        quiet = dict(EX1_PARAMS)
        quiet["sigma0"] = [0.0, 0.0, 0.0, 0.0]
        cond = check_conditions(table_from_lists(quiet))
        assert cond.beta_vs_noise.all() and cond.beta_vs_half_noise.all()

    def test_example1_direct_inequalities(self, ex1_table):
        cond = check_conditions(ex1_table)
        s = ex1_table.population_ceiling
        expected = ex1_table.beta >= ex1_table.sigma0 ** 2 * ex1_table.w1_array * s
        np.testing.assert_array_equal(cond.beta_vs_noise, expected)
        assert cond.beta_vs_noise.all()

    def test_example2_regime2_fails(self, ex2_table):
        cond = check_conditions(ex2_table)
        np.testing.assert_array_equal(cond.beta_vs_noise, [True, False, True, True])

    def test_boundary_equality_counts_as_pass(self):
        # sigma0^2 * w1 * ceiling = 0.25 * 1 * 2 = 0.5 = beta exactly
        t = single_regime_table(A=2.0, xi=1.0, beta=0.5, sigma0=0.5)
        assert check_conditions(t).beta_vs_noise.all()


class TestThresholdReport:
    def test_example1_extinction_certified(self, ex1_table, gen4):
        report = threshold_report(ex1_table, gen4)
        assert report.verdict == "extinction_certified"
        assert report.rs_star == pytest.approx(EX1_RS, rel=RTOL)
        assert report.bounds is None

    def test_example2_indeterminate(self, ex2_table, gen4):
        # regime 2 fails the beta-vs-noise premise and rtilde_star < 1, so
        # neither certification applies to this parameter set as printed
        report = threshold_report(ex2_table, gen4)
        assert report.verdict == "indeterminate"
        assert not report.condition_beta_extinction.all()
        assert report.rtilde_star < 1.0

    def test_persistent_table_certified(self, persistent_table, gen2):
        report = threshold_report(persistent_table, gen2)
        assert report.verdict == "persistence_certified"
        assert report.rtilde_star == pytest.approx(PERS_RT, rel=RTOL)
        np.testing.assert_allclose(report.bounds, PERS_BOUNDS, rtol=RTOL)

    def test_rs_below_one_with_failed_condition_is_indeterminate(self, ex2_table, gen4):
        report = threshold_report(ex2_table, gen4)
        assert report.rs_star < 1.0
        assert report.verdict == "indeterminate"

    def test_dimension_mismatch(self, persistent_table, gen4):
        with pytest.raises(ValueError):
            threshold_report(persistent_table, gen4)


class TestLiveOracle:
    """Regenerate the oracle values at test time and compare wholesale."""

    @pytest.mark.parametrize("params,gen", [
        (EX1_PARAMS, GENERATOR_4),
        (EX2_PARAMS, GENERATOR_4),
        (PERSISTENT_PARAMS, GENERATOR_2),
    ])
    def test_full_agreement(self, params, gen):
        table = table_from_lists(params)
        g = validate_generator(gen)
        pi = stationary_distribution(g)
        exact_pi = exact_stationary(gen)
        np.testing.assert_allclose(
            pi.probabilities, [float(v) for v in exact_pi], rtol=1e-12)

        oracle = exact_thresholds(exact_params(params), exact_pi)
        assert compute_rs_star(table, pi) == pytest.approx(float(oracle["rs"]), rel=RTOL)
        assert compute_rtilde_star(table, pi) == pytest.approx(float(oracle["rtilde"]), rel=RTOL)
        assert compute_lambda(table, pi) == pytest.approx(float(oracle["lam"]), rel=RTOL)
        np.testing.assert_allclose(psi1_vector(table),
                                   [float(v) for v in oracle["psi1"]], rtol=RTOL)
        np.testing.assert_allclose(psi2_vector(table),
                                   [float(v) for v in oracle["psi2"]], rtol=RTOL)
        np.testing.assert_allclose(psi3_vector(table),
                                   [float(v) for v in oracle["psi3"]], rtol=RTOL)
        if oracle["bounds"] is not None:
            np.testing.assert_allclose(
                persistence_bounds(table, pi),
                [float(v) for v in oracle["bounds"]], rtol=RTOL)
        else:
            with pytest.raises(NotPersistent):
                persistence_bounds(table, pi)


class TestExtinctionRateBound:
    def test_negative_for_certified_extinction(self, ex1_table, pi4):
        assert extinction_rate_bound(ex1_table, pi4) == pytest.approx(
            -0.053870889854431496, rel=RTOL)
