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

The psi1 bracket carries the policy slope h'(0), which is 1 for every policy
h(s) = s / (1 + a*s) the model admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import Generator, StationaryDistribution, stationary_distribution
from .errors import DegeneratePsi2, MathDomainError, NotPersistent
from .model import RegimeParameterTable, w1, w2


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
    return float(p @ _pressure(table)) / float(p @ (w2(table) + _noise(table)))


def _pressure(table: RegimeParameterTable) -> np.ndarray:
    """Transmission pressure beta(k) * w1(k) * s_max, per regime."""
    return table.beta * w1(table) * table.population_ceiling


def _noise(table: RegimeParameterTable) -> np.ndarray:
    """Noise penalty (sigma0(k)^2 / 2) * w1(k)^2 * s_max^2, per regime."""
    return 0.5 * table.sigma0 ** 2 * w1(table) ** 2 * table.population_ceiling ** 2


def _common_factor(table: RegimeParameterTable) -> np.ndarray:
    """C(k) = beta_max * w1(k) - (sigma0_min^2 / 2) * w1(k)^2 * s_max.

    Every psi divides by A(k), so this factor they share is where A(k) > 0
    is checked.  sigma0_min^2 is a Python float power, which raises on
    overflow; that is reported as a :class:`MathDomainError` naming sigma0.
    """
    if np.any(table.A == 0.0):
        raise ZeroDivisionError("psi formulas require A(k) > 0 for every regime")
    try:
        sigma0_sq = table.sigma0_min ** 2
    except OverflowError:
        raise MathDomainError(f"sigma0 = {table.sigma0_min!r}: its square overflows "
                              f"a float in the psi formulas") from None
    w1v = w1(table)
    return (table.beta_max * w1v
            - 0.5 * sigma0_sq * w1v ** 2 * table.population_ceiling)


def _bracket(table: RegimeParameterTable) -> np.ndarray:
    """1 - A(k)*xi_min/(A_max*xi(k)) + p(k)*M(k)*h'(0)/xi(k) per regime, with h'(0) = 1."""
    return (1.0 - table.A * table.xi_min / (table.A_max * table.xi)
            + table.p * table.M / table.xi)


def psi1_vector(table: RegimeParameterTable) -> np.ndarray:
    """Penalty coefficient psi1 per regime (index k - 1 for regime k)."""
    common = _common_factor(table)
    scale = table.A_max ** 2 * table.xi / (table.A * table.xi_min ** 2)
    return common * scale * _bracket(table)


def psi2_vector(table: RegimeParameterTable) -> np.ndarray:
    """Penalty coefficient psi2 per regime (index k - 1 for regime k)."""
    common = _common_factor(table)
    scale = table.A_max ** 2 / (table.A * table.xi_min ** 2)
    return common * scale * table.beta_max * w1(table)


def psi3_vector(table: RegimeParameterTable) -> np.ndarray:
    """Penalty coefficient psi3 per regime (index k - 1 for regime k)."""
    return _common_factor(table) * table.A_max / (table.A * table.xi_min)


def compute_lambda(table: RegimeParameterTable, pi: StationaryDistribution) -> float:
    """pi-average of (sigma0^2/2)*w1^2*s_max^2 + w2 + psi1 (the rtilde_star
    denominator)."""
    p = _probs(pi, table)
    return float(p @ (_noise(table) + w2(table) + psi1_vector(table)))


def compute_rtilde_star(table: RegimeParameterTable, pi: StationaryDistribution) -> float:
    """Persistence index: the rs_star numerator over :func:`compute_lambda`."""
    p = _probs(pi, table)
    return float(p @ _pressure(table)) / compute_lambda(table, pi)


def persistence_bounds(table: RegimeParameterTable,
                       pi: StationaryDistribution) -> tuple[float, float, float]:
    """Lower bounds on the long-run time averages of E, Q and I.

    Only defined when ``rtilde_star > 1``:

        E >= lambda * (rtilde_star - 1) / <psi2>
        Q >= min(b2) * E_bound / (max(b1) + max(c) + max(xi))
        I >= (min(alpha) + min(c)*min(b2)/(max(b1)+max(c)+max(xi)))
             * E_bound / (max(eta) + max(xi) + max(delta))
    """
    rtilde = compute_rtilde_star(table, pi)
    if rtilde <= 1.0:
        raise NotPersistent(f"rtilde_star = {rtilde:.6g} <= 1")
    p = _probs(pi, table)
    psi2_avg = float(p @ psi2_vector(table))
    if psi2_avg == 0.0:
        raise DegeneratePsi2("pi-average of psi2 vanishes")
    lam = compute_lambda(table, pi)
    e_bound = lam * (rtilde - 1.0) / psi2_avg

    q_out = float(table.b1.max() + table.c.max() + table.xi.max())
    q_bound = float(table.b2.min()) * e_bound / q_out
    i_bound = (float(table.alpha.min()) + float(table.c.min()) * float(table.b2.min()) / q_out) \
        * e_bound / float(table.eta.max() + table.xi.max() + table.delta.max())
    return e_bound, q_bound, i_bound


def check_conditions(table: RegimeParameterTable) -> ConditionReport:
    """Evaluate the per-regime certification conditions (non-strict >=)."""
    s = table.population_ceiling
    noise = table.sigma0 ** 2 * w1(table) * s
    return ConditionReport(
        beta_vs_noise=table.beta >= noise,
        beta_vs_half_noise=table.beta >= 0.5 * noise,
        bracket_positive=_bracket(table) > 0.0,
    )


def extinction_rate_bound(table: RegimeParameterTable, pi: StationaryDistribution) -> float:
    """Theoretical bound on the exponential decay rate of ln E.

    pi-average of beta*w1*s_max - (sigma0^2/2)*w1^2*s_max^2 - w2; negative
    values certify the decay rate of the exposed class under the beta-vs-noise
    condition.
    """
    p = _probs(pi, table)
    return float(p @ (_pressure(table) - _noise(table) - w2(table)))


def threshold_report(table: RegimeParameterTable, g: Generator) -> ThresholdReport:
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
    rtilde = compute_rtilde_star(table, pi)
    conditions = check_conditions(table)

    all_pass = bool(conditions.beta_vs_noise.all())
    if all_pass and rs < 1.0:
        verdict = "extinction_certified"
    elif all_pass and rtilde > 1.0:
        verdict = "persistence_certified"
    else:
        verdict = "indeterminate"

    bounds = None
    if rtilde > 1.0:
        bounds = persistence_bounds(table, pi)

    return ThresholdReport(
        rs_star=rs,
        rtilde_star=rtilde,
        psi1=psi1_vector(table),
        psi2=psi2_vector(table),
        psi3=psi3_vector(table),
        lambda_=compute_lambda(table, pi),
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
