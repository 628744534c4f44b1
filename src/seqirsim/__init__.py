"""Regime-switching stochastic SEQIR epidemic model.

Simulation (Milstein / Euler-Maruyama over a Markov-modulated parameter set),
extinction and persistence threshold computation, trajectory analysis, and a
CLI for reproducible CSV/report output.
"""

from .chain import (
    Generator,
    RegimePath,
    StationaryDistribution,
    occupancy,
    sample_path_discretized,
    sample_path_exact,
    stationary_distribution,
    transition_matrix,
    validate_generator,
)
from .model import (
    EpidemicState,
    PolicyFunction,
    RegimeParameters,
    RegimeParameterTable,
    deterministic_drift,
    diffusion,
    drift,
    invariant_set_bounds,
    w1,
    w2,
)
from .integrate import (
    SimulationConfig,
    Trajectory,
    derive_seed,
    simulate,
    simulate_deterministic,
    simulate_ensemble,
)
from .thresholds import (
    ConditionReport,
    ThresholdReport,
    check_conditions,
    compute_lambda,
    compute_rs_star,
    compute_rtilde_star,
    extinction_rate_bound,
    persistence_bounds,
    threshold_report,
)
from .analysis import (
    EnsembleSummary,
    detect_extinction,
    exponential_rate_estimate,
    summarize_ensemble,
    time_average,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "Generator", "RegimePath", "StationaryDistribution", "occupancy",
    "sample_path_discretized", "sample_path_exact", "stationary_distribution",
    "transition_matrix", "validate_generator",
    "EpidemicState", "PolicyFunction", "RegimeParameters", "RegimeParameterTable",
    "deterministic_drift", "diffusion", "drift", "invariant_set_bounds", "w1", "w2",
    "SimulationConfig", "Trajectory", "derive_seed", "simulate", "simulate_deterministic",
    "simulate_ensemble",
    "ConditionReport", "ThresholdReport", "check_conditions", "compute_lambda",
    "compute_rs_star", "compute_rtilde_star", "extinction_rate_bound",
    "persistence_bounds", "threshold_report",
    "EnsembleSummary", "detect_extinction", "exponential_rate_estimate",
    "summarize_ensemble", "time_average",
    "RunConfig", "load_config",
]
