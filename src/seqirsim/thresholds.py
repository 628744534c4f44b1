"""Closed-form extinction/persistence thresholds and certification checks.

All quantities are regime averages under the chain's stationary distribution
pi, evaluated at the population ceiling s_max = max A / min xi (the largest
total population the model sustains):

* ``rs_star``      extinction index: transmission pressure over exposed-class
                   losses plus the noise penalty; < 1 (with the per-regime
                   noise condition) certifies exponential die-out of E, Q, I.
* ``rtilde_star``  persistence index: same numerator over losses additionally
                   penalized by psi1; > 1 certifies persistence in mean with
                   explicit lower bounds on the time averages of E, Q, I.
* ``psi1/2/3``     per-regime penalty coefficients sharing the common factor
                   C(k) = beta_max*w1(k) - (sigma0_min^2 / 2)*w1(k)^2*s_max.
* ``lambda_``      the rtilde_star denominator; rtilde_star * lambda_ equals
                   the shared numerator identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import Generator, StationaryDistribution, stationary_distribution
from .errors import DegeneratePsi2, NotPersistent
from .model import RegimeParameterTable

VERDICTS = ("extinction_certified", "persistence_certified", "indeterminate")


@dataclass(frozen=True)
class ConditionReport:
    """Per-regime boolean checks behind the certification verdicts.

    ``beta_vs_noise``       beta(k) >= sigma0(k)^2 * w1(k) * s_max
                            (premise of both certification statements)
    ``beta_vs_half_noise``  beta(k) >= sigma0(k)^2 * w1(k) * s_max / 2
                            (weaker variant under which the psi are
                            guaranteed nonnegative)
    ``bracket_positive``    1 - A(k)*xi_min/(A_max*xi(k)) + p(k)*M(k)*h'(0)/xi(k) > 0
    """

    beta_vs_noise: np.ndarray
    beta_vs_half_noise: np.ndarray
    bracket_positive: np.ndarray


@dataclass(frozen=True)
class ThresholdReport:
    """Aggregated threshold computation for one parameter table + chain."""

    rs_star: float
    rtilde_star: float
    psi1: np.ndarray
    psi2: np.ndarray
    psi3: np.ndarray
    lambda_: float
    condition_beta_extinction: np.ndarray
    condition_beta_persistence_remark: np.ndarray
    bounds: Optional[tuple[float, float, float]]
    verdict: str
    pi: np.ndarray


def compute_rs_star(table: RegimeParameterTable, pi: StationaryDistribution) -> float:
    """Extinction index: pi-average of beta*w1*s_max over the pi-average of
    (w2 + (sigma0^2/2) * w1^2 * s_max^2)."""
    p = _probs(pi, table)
    s = table.population_ceiling
    w1v = table.w1_array
    num = float(p @ (table.beta * w1v * s))
    den = float(p @ (table.w2_array + 0.5 * table.sigma0 ** 2 * w1v ** 2 * s ** 2))
    return num / den


def _common_factor(table: RegimeParameterTable) -> np.ndarray:
    """C(k) = beta_max * w1(k) - (sigma0_min^2 / 2) * w1(k)^2 * s_max.

    Every psi divides by A(k), so this factor they share is where A(k) > 0
    is checked.
    """
    if np.any(table.A == 0.0):
        raise ZeroDivisionError("psi formulas require A(k) > 0 for every regime")
    w1v = table.w1_array
    return (table.beta_max * w1v
            - 0.5 * table.sigma0_min ** 2 * w1v ** 2 * table.population_ceiling)


def _bracket(table: RegimeParameterTable, slope_at_zero: float) -> np.ndarray:
    """1 - A(k)*xi_min/(A_max*xi(k)) + p(k)*M(k)*h'(0)/xi(k), per regime."""
    return (1.0 - table.A * table.xi_min / (table.A_max * table.xi)
            + table.p * table.M * slope_at_zero / table.xi)


def psi1_vector(table: RegimeParameterTable, slope_at_zero: float = 1.0) -> np.ndarray:
    """Penalty coefficient psi1 per regime (index k - 1 for regime k)."""
    common = _common_factor(table)
    scale = table.A_max ** 2 * table.xi / (table.A * table.xi_min ** 2)
    return common * scale * _bracket(table, slope_at_zero)


def psi2_vector(table: RegimeParameterTable) -> np.ndarray:
    """Penalty coefficient psi2 per regime (index k - 1 for regime k)."""
    common = _common_factor(table)
    scale = table.A_max ** 2 / (table.A * table.xi_min ** 2)
    return common * scale * table.beta_max * table.w1_array


def psi3_vector(table: RegimeParameterTable) -> np.ndarray:
    """Penalty coefficient psi3 per regime (index k - 1 for regime k)."""
    return _common_factor(table) * table.A_max / (table.A * table.xi_min)


def compute_lambda(table: RegimeParameterTable, pi: StationaryDistribution,
                   slope_at_zero: float = 1.0) -> float:
    """pi-average of (sigma0^2/2)*w1^2*s_max^2 + w2 + psi1 (the rtilde_star
    denominator)."""
    p = _probs(pi, table)
    s = table.population_ceiling
    w1v = table.w1_array
    return float(p @ (0.5 * table.sigma0 ** 2 * w1v ** 2 * s ** 2
                      + table.w2_array + psi1_vector(table, slope_at_zero)))


def compute_rtilde_star(table: RegimeParameterTable, pi: StationaryDistribution,
                        slope_at_zero: float = 1.0) -> float:
    """Persistence index: the rs_star numerator over :func:`compute_lambda`."""
    p = _probs(pi, table)
    s = table.population_ceiling
    num = float(p @ (table.beta * table.w1_array * s))
    return num / compute_lambda(table, pi, slope_at_zero)


def persistence_bounds(table: RegimeParameterTable, pi: StationaryDistribution,
                       slope_at_zero: float = 1.0) -> tuple[float, float, float]:
    """Lower bounds on the long-run time averages of E, Q and I.

    Only defined when ``rtilde_star > 1``:

        E >= lambda * (rtilde_star - 1) / <psi2>
        Q >= min(b2) * E_bound / (max(b1) + max(c) + max(xi))
        I >= (min(alpha) + min(c)*min(b2)/(max(b1)+max(c)+max(xi)))
             * E_bound / (max(eta) + max(xi) + max(delta))
    """
    rtilde = compute_rtilde_star(table, pi, slope_at_zero)
    if rtilde <= 1.0:
        raise NotPersistent(f"rtilde_star = {rtilde:.6g} <= 1")
    p = _probs(pi, table)
    psi2_avg = float(p @ psi2_vector(table))
    if psi2_avg == 0.0:
        raise DegeneratePsi2("pi-average of psi2 vanishes")
    lam = compute_lambda(table, pi, slope_at_zero)
    e_bound = lam * (rtilde - 1.0) / psi2_avg

    q_out = float(table.b1.max() + table.c.max() + table.xi.max())
    q_bound = float(table.b2.min()) * e_bound / q_out
    i_bound = (float(table.alpha.min()) + float(table.c.min()) * float(table.b2.min()) / q_out) \
        * e_bound / float(table.eta.max() + table.xi.max() + table.delta.max())
    return e_bound, q_bound, i_bound


def check_conditions(table: RegimeParameterTable,
                     slope_at_zero: float = 1.0) -> ConditionReport:
    """Evaluate the per-regime certification conditions (non-strict >=)."""
    s = table.population_ceiling
    noise = table.sigma0 ** 2 * table.w1_array * s
    return ConditionReport(
        beta_vs_noise=table.beta >= noise,
        beta_vs_half_noise=table.beta >= 0.5 * noise,
        bracket_positive=_bracket(table, slope_at_zero) > 0.0,
    )


def extinction_rate_bound(table: RegimeParameterTable, pi: StationaryDistribution) -> float:
    """Theoretical bound on the exponential decay rate of ln E.

    pi-average of beta*w1*s_max - (sigma0^2/2)*w1^2*s_max^2 - w2; negative
    values certify the decay rate of the exposed class under the beta-vs-noise
    condition.
    """
    p = _probs(pi, table)
    s = table.population_ceiling
    w1v = table.w1_array
    return float(p @ (table.beta * w1v * s
                      - 0.5 * table.sigma0 ** 2 * w1v ** 2 * s ** 2
                      - table.w2_array))


def threshold_report(table: RegimeParameterTable, g: Generator,
                     slope_at_zero: float = 1.0) -> ThresholdReport:
    """Full threshold computation with a certification verdict.

    Verdict logic: ``extinction_certified`` iff every regime passes the
    beta-vs-noise condition and rs_star < 1; ``persistence_certified`` iff
    every regime passes and rtilde_star > 1; otherwise ``indeterminate``.
    """
    if table.n_regimes != g.n_states:
        raise ValueError(
            f"parameter table has {table.n_regimes} regimes, generator has {g.n_states}"
        )
    pi = stationary_distribution(g)
    rs = compute_rs_star(table, pi)
    rtilde = compute_rtilde_star(table, pi, slope_at_zero)
    conditions = check_conditions(table, slope_at_zero)

    all_pass = bool(conditions.beta_vs_noise.all())
    if all_pass and rs < 1.0:
        verdict = "extinction_certified"
    elif all_pass and rtilde > 1.0:
        verdict = "persistence_certified"
    else:
        verdict = "indeterminate"

    bounds = None
    if rtilde > 1.0:
        bounds = persistence_bounds(table, pi, slope_at_zero)

    return ThresholdReport(
        rs_star=rs,
        rtilde_star=rtilde,
        psi1=psi1_vector(table, slope_at_zero),
        psi2=psi2_vector(table),
        psi3=psi3_vector(table),
        lambda_=compute_lambda(table, pi, slope_at_zero),
        condition_beta_extinction=conditions.beta_vs_noise,
        condition_beta_persistence_remark=conditions.beta_vs_half_noise,
        bounds=bounds,
        verdict=verdict,
        pi=pi.probabilities,
    )


def _probs(pi: StationaryDistribution, table: RegimeParameterTable) -> np.ndarray:
    p = pi.probabilities
    if len(p) != table.n_regimes:
        raise ValueError(
            f"stationary distribution has {len(p)} states, table has {table.n_regimes}"
        )
    return p
