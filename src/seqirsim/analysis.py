"""Post-processing of trajectories and ensembles.

Time averages and decay-rate estimates are computed on the recorded grid,
which is the analysis contract: choose the output stride so that
stride * dt stays below roughly 0.1 / (fastest rate) or the recorded data
will alias the dynamics.

Asymptotic statements (extinction, persistence in mean) are checked as
Monte Carlo majorities over seeds, never per-path certainties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chain import StationaryDistribution
from .errors import EmptyWindow, InconsistentConfigs, NonPositiveValues
from .integrate import Trajectory
from .thresholds import ThresholdReport

#: default detection threshold on compartment size for "the disease is gone"
EXTINCTION_THRESHOLD = 1e-3
#: default fraction of the horizon inspected by extinction detection
EXTINCTION_TAIL = 0.1
#: fraction of the horizon an ensemble summary averages over
SUMMARY_TAIL = 0.5


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregated tail statistics of an ensemble of trajectories.

    ``tail_means``/``tail_stds`` hold the across-trajectory mean and standard
    deviation of each compartment's time average over the tail window.
    ``bound_violations`` flags compartments whose ensemble tail average falls
    below the certified persistence lower bound (informational: the certified
    statements are asymptotic liminf claims).
    """

    n_trajectories: int
    window: tuple[float, float]
    tail_means: dict
    tail_stds: dict
    extinction_fraction: float
    occupancy_l1: float
    bound_violations: dict
    verdict: str


def _window_slice(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    t0, t1 = window
    horizon = float(times[-1])
    if not (t0 < t1 <= horizon + 1e-12):
        raise EmptyWindow(f"window ({t0}, {t1}) invalid for horizon {horizon}")
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if mask.sum() < 2:
        raise EmptyWindow(f"window ({t0}, {t1}) selects fewer than two samples")
    return mask


def tail_window(times: np.ndarray) -> tuple[float, float]:
    """The window [T*(1 - SUMMARY_TAIL), T] of a recorded grid ending at T.

    Raises :class:`EmptyWindow` unless it holds at least two samples.
    """
    horizon = float(times[-1])
    window = (horizon * (1.0 - SUMMARY_TAIL), horizon)
    _window_slice(times, window)
    return window


def time_average(traj: Trajectory, compartment: str,
                 window: Optional[tuple[float, float]] = None) -> float:
    """Trapezoidal time average of a compartment over [t0, t1].

    Defaults to the whole recorded horizon.  Exact for data linear in t.
    """
    if window is None:
        window = (float(traj.times[0]), traj.horizon)
    mask = _window_slice(traj.times, window)
    t = traj.times[mask]
    y = traj.compartment(compartment)[mask]
    return float(np.trapezoid(y, t) / (t[-1] - t[0]))


def detect_extinction(traj: Trajectory, threshold: float = EXTINCTION_THRESHOLD,
                      tail_fraction: float = EXTINCTION_TAIL) -> bool:
    """True iff max(E, Q, I) stays below ``threshold`` over the final
    ``tail_fraction`` of the horizon."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    t_from = traj.horizon * (1.0 - tail_fraction)
    mask = traj.times >= t_from - 1e-12
    tail = traj.states[mask][:, 1:4]  # E, Q, I columns
    return bool(tail.max() < threshold)


def exponential_rate_estimate(traj: Trajectory, compartment: str,
                              window: Optional[tuple[float, float]] = None) -> float:
    """Least-squares slope of ln(compartment) against t over the window.

    For certified-extinction systems the estimate should be negative; compare
    it (informally) with ``thresholds.extinction_rate_bound``.
    """
    if window is None:
        window = (float(traj.times[0]), traj.horizon)
    mask = _window_slice(traj.times, window)
    t = traj.times[mask]
    y = traj.compartment(compartment)[mask]
    if np.any(y <= 0.0):
        raise NonPositiveValues(f"{compartment} must be strictly positive on the window")
    slope, _ = np.polyfit(t, np.log(y), 1)
    return float(slope)


def occupancy_from_samples(traj: Trajectory, n_states: int) -> np.ndarray:
    """Fraction of recorded samples per regime (uniform-grid approximation)."""
    counts = np.bincount(traj.regimes - 1, minlength=n_states)
    return counts / len(traj.regimes)


@dataclass(frozen=True)
class MemberStatistics:
    """What an ensemble summary keeps of one member: each compartment's time
    average over the tail window, the extinction flag, and the fraction of
    recorded samples per regime (:func:`occupancy_from_samples`)."""

    tail_averages: dict
    extinct: bool
    occupancy: np.ndarray


def member_statistics(traj: Trajectory, window: tuple[float, float],
                      n_states: int) -> MemberStatistics:
    """Reduce one member to the values :func:`aggregate_ensemble` reads, so
    that its states can be dropped before the next member is reduced."""
    return MemberStatistics(
        tail_averages={name: time_average(traj, name, window) for name in Trajectory.COLUMNS},
        extinct=detect_extinction(traj),
        occupancy=occupancy_from_samples(traj, n_states),
    )


def aggregate_ensemble(members: Sequence[MemberStatistics], window: tuple[float, float],
                       pi: StationaryDistribution,
                       report: Optional[ThresholdReport] = None) -> EnsembleSummary:
    """The :class:`EnsembleSummary` of the members' statistics, taken over
    the members in the order given."""
    tail_means = {}
    tail_stds = {}
    for name in Trajectory.COLUMNS:
        values = [m.tail_averages[name] for m in members]
        tail_means[name] = float(np.mean(values))
        tail_stds[name] = float(np.std(values))
    occ_l1 = [float(np.abs(m.occupancy - pi.probabilities).sum()) for m in members]

    bound_violations = {}
    verdict = report.verdict if report is not None else "unknown"
    if report is not None and report.bounds is not None:
        for name, bound in zip(("E", "Q", "I"), report.bounds):
            bound_violations[name] = bool(tail_means[name] < bound)

    return EnsembleSummary(
        n_trajectories=len(members),
        window=window,
        tail_means=tail_means,
        tail_stds=tail_stds,
        extinction_fraction=sum(m.extinct for m in members) / len(members),
        occupancy_l1=float(np.mean(occ_l1)),
        bound_violations=bound_violations,
        verdict=verdict,
    )


def summarize_ensemble(trajectories: Sequence[Trajectory],
                       pi: StationaryDistribution,
                       report: Optional[ThresholdReport] = None) -> EnsembleSummary:
    """Aggregate per-trajectory tail statistics over an ensemble.

    The tail window is :func:`tail_window` of the grid.  Extinction detection uses
    the module defaults (threshold on the final ``EXTINCTION_TAIL`` of the
    run).  Raises :class:`InconsistentConfigs` when trajectories disagree on
    grid or horizon.  This is :func:`member_statistics` of each trajectory
    followed by :func:`aggregate_ensemble`; the ``ensemble`` command makes
    those two calls itself, reducing each member as it arrives.
    """
    if len(trajectories) < 1:
        raise InconsistentConfigs("ensemble must contain at least one trajectory")
    ref = trajectories[0]
    for traj in trajectories[1:]:
        if len(traj) != len(ref) or traj.horizon != ref.horizon:
            raise InconsistentConfigs("trajectories have mismatched grids or horizons")

    window = tail_window(ref.times)
    n_states = len(pi.probabilities)
    members = [member_statistics(traj, window, n_states) for traj in trajectories]
    return aggregate_ensemble(members, window, pi, report)
