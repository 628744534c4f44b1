"""Continuous-time Markov regime chain: validation, sampling, steady state.

The environment process is a right-continuous Markov chain r(t) on states
{1, ..., N} driven by a transition-rate matrix (Q-matrix).  This module
validates rate matrices, solves for the stationary distribution, computes
finite-interval transition matrices, and samples regime paths either exactly
(event-driven, exponential holding times) or on a fixed grid.

Both samplers run one sojourn walk.  It runs in the compiled kernel
(``_kernel.c``), which draws through numpy's own distribution routines on the
Generator's bit generator, so it consumes the same variates in the same
stream order as the Python reference :func:`_walk`; the reference runs when
the kernel cannot be loaded.  The grid sampler computes its transition
matrix once per generator and dt, so an ensemble's members share it.

States are 1-based everywhere in the public interface.  All types are frozen
and safe to share across threads; samplers take an explicit seed or Generator
(no hidden global RNG).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativeOffDiagonal,
    ReducibleChain,
    RowSumViolation,
    SingularSystem,
    StepTooLarge,
)

# Row-sum deviations up to this size are absorbed into the diagonal;
# anything larger is rejected as a genuine configuration mistake.
ROW_SUM_TOL = 1e-9

#: dt * max exit rate above which the grid sampler refuses to run.
STEP_HARD_LIMIT = 1.0
#: dt * max exit rate above which the grid sampler warns.
STEP_WARN_LIMIT = 0.1

#: jumps stored per call of the kernel walk; a longer path resumes the walk
_WALK_BUFFER = 65536


@dataclass(frozen=True)
class Generator:
    """Validated transition-rate matrix of the regime chain.

    Off-diagonal entries are nonnegative rates (1/time), each row sums to
    zero, and the transition graph is a single communicating class.  Build
    instances through :func:`validate_generator`.
    """

    n_states: int
    rates: np.ndarray
    # dt -> the grid sampler's (landing cdfs, leave probabilities); see _grid_law
    _grid_laws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def exit_rates(self) -> np.ndarray:
        """Per-state exit rates, i.e. -diagonal."""
        return -np.diag(self.rates)


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector pi with pi @ rates == 0 and sum(pi) == 1."""

    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class RegimePath:
    """Piecewise-constant regime path over [0, horizon].

    ``jump_times[i]`` is the start of segment i (``jump_times[0] == 0``) and
    ``regimes[i]`` its 1-based state; the last segment extends to ``horizon``.
    Consecutive regimes differ.
    """

    jump_times: np.ndarray
    regimes: np.ndarray
    horizon: float
    n_states: int

    def __post_init__(self):
        if len(self.jump_times) != len(self.regimes) or len(self.regimes) == 0:
            raise ValueError("jump_times and regimes must be equal-length and nonempty")
        if self.jump_times[0] != 0.0:
            raise ValueError("path must start at time 0")
        if np.any(np.diff(self.jump_times) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if np.any(self.regimes[1:] == self.regimes[:-1]):
            raise ValueError("consecutive regimes must differ")
        if np.any((self.regimes < 1) | (self.regimes > self.n_states)):
            raise ValueError(f"regimes must lie in 1..{self.n_states}")

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times) - 1

    def regime_at(self, t: float) -> int:
        """Regime in effect at time t (right-continuous)."""
        idx = int(np.searchsorted(self.jump_times, t, side="right")) - 1
        return int(self.regimes[idx])

    def segment_durations(self) -> np.ndarray:
        ends = np.append(self.jump_times[1:], self.horizon)
        return ends - self.jump_times


def validate_generator(raw) -> Generator:
    """Validate a raw rate matrix and return a :class:`Generator`.

    The diagonal is recomputed as the negative off-diagonal row sum when the
    supplied rows deviate from zero by at most ``ROW_SUM_TOL`` (tolerates
    config-file rounding).  Raises ``ValueError`` for a non-square or
    non-finite matrix, and :class:`NegativeOffDiagonal`,
    :class:`RowSumViolation` or :class:`ReducibleChain` otherwise.
    """
    rates = np.array(raw, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1] or rates.shape[0] < 1:
        raise ValueError(
            f"generator must be a square N x N matrix with N >= 1, got shape {rates.shape}"
        )
    if not np.all(np.isfinite(rates)):
        raise ValueError("generator entries must be finite")
    n = rates.shape[0]

    off = rates.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        i, j = np.argwhere(off < 0.0)[0]
        raise NegativeOffDiagonal(f"rate [{i + 1},{j + 1}] = {rates[i, j]} is negative")

    row_dev = np.abs(rates.sum(axis=1))
    if np.any(row_dev > ROW_SUM_TOL):
        i = int(np.argmax(row_dev))
        raise RowSumViolation(f"row {i + 1} sums to {rates[i].sum():.3g}, expected 0")
    np.fill_diagonal(rates, -off.sum(axis=1))

    _check_irreducible(off)

    rates.setflags(write=False)
    return Generator(n_states=n, rates=rates)


def _check_irreducible(off: np.ndarray) -> None:
    """Every state must reach every other along positive off-diagonal rates."""
    n = off.shape[0]
    if n == 1:
        return
    adj = off > 0.0
    for start in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = adj[frontier].any(axis=0) & ~seen
            seen |= nxt
            frontier = list(np.flatnonzero(nxt))
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise ReducibleChain(
                f"state {missing + 1} is not reachable from state {start + 1}"
            )


def stationary_distribution(g: Generator) -> StationaryDistribution:
    """Solve pi @ rates = 0 with sum(pi) = 1.

    Uses the augmented linear system: the last balance equation is replaced
    by the normalization constraint.  The residual ``max|pi @ rates|`` must
    come out below 1e-10, which irreducibility guarantees.
    """
    n = g.n_states
    a = g.rates.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by irreducibility
        raise SingularSystem(str(exc)) from exc

    residual = np.abs(pi @ g.rates).max()
    if residual > 1e-10 or pi.min() <= 0.0:
        raise SingularSystem(
            f"stationary solve failed: residual={residual:.2e}, min pi={pi.min():.2e}"
        )
    pi.setflags(write=False)
    return StationaryDistribution(probabilities=pi)


def transition_matrix(g: Generator, dt: float) -> np.ndarray:
    """Transition-probability matrix over an interval dt: exp(dt * rates).

    Scaling-and-squaring with a truncated Taylor series: the argument is
    scaled by a power of two until its infinity norm is at most 0.5, the
    series is summed to machine-level term decay, and the result is squared
    back up.  Robust for non-symmetric rate matrices; accuracy ~1e-12 in max
    norm for ``||dt * rates|| <= 50``.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    a = g.rates * dt
    norm = np.abs(a).sum(axis=1).max()
    n_square = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    a = a / (2.0 ** n_square)

    n = g.n_states
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(n_square):
        result = result @ result

    # exp of a Q-matrix is entrywise nonnegative; scrub rounding dust
    np.clip(result, 0.0, None, out=result)
    return result


def sample_path_exact(g: Generator, r0: int, horizon: float, rng_seed) -> RegimePath:
    """Event-driven sample of the chain on [0, horizon].

    Holding time in state i is Exponential(exit rate); the next state j is
    chosen with probability rate(i, j) / exit_rate(i).  Reproducible from the
    seed (or pass a Generator to continue an existing stream).
    """
    _check_initial(g, r0, horizon)
    rng = np.random.default_rng(rng_seed)
    if g.n_states == 1:
        return RegimePath(np.array([0.0]), np.array([1]), horizon, 1)
    # irreducibility (validate_generator) gives every state a positive exit rate
    return _sample(_jump_cdfs(g.rates), r0, horizon, 1.0, False, 1.0 / g.exit_rates, rng)


def sample_path_discretized(
    g: Generator, r0: int, horizon: float, dt: float, rng_seed
) -> RegimePath:
    """Grid-based sample: at each grid point the next regime is drawn from
    the matching row of ``transition_matrix(g, dt)``; the path is constant
    between grid points.

    Sampling is done per sojourn rather than per grid point: the number of
    steps spent in a state is geometric with success probability
    ``1 - P[i, i]``, and the landing state is drawn from the off-diagonal row
    conditioned on leaving.  This is the same law at a fraction of the draws.
    """
    _check_initial(g, r0, horizon)
    if dt <= 0:
        raise ValueError("dt must be positive")
    stiffness = dt * g.exit_rates.max(initial=0.0)
    if stiffness > STEP_HARD_LIMIT:
        raise StepTooLarge(
            f"dt * max exit rate = {stiffness:.3g} exceeds {STEP_HARD_LIMIT}"
        )
    if stiffness > STEP_WARN_LIMIT:
        warnings.warn(
            f"dt * max exit rate = {stiffness:.3g} > {STEP_WARN_LIMIT}; "
            "the grid approximation of the chain is coarse",
            stacklevel=2,
        )

    rng = np.random.default_rng(rng_seed)
    n = g.n_states
    if n == 1 or horizon <= dt:
        return RegimePath(np.array([0.0]), np.array([r0]), horizon, n)
    cdfs, leave = _grid_law(g, dt)
    return _sample(cdfs, r0, horizon, dt, True, leave, rng)


def _grid_law(g: Generator, dt: float) -> tuple:
    """Landing laws and leave probabilities of the grid chain, from
    ``transition_matrix(g, dt)``; computed once per generator and dt."""
    law = g._grid_laws.get(dt)
    if law is None:
        p = transition_matrix(g, dt)
        law = g._grid_laws[dt] = (_jump_cdfs(p), 1.0 - np.diag(p))
    return law


def _sample(cdfs: np.ndarray, r0: int, horizon: float, unit: float, geometric: bool,
            param: np.ndarray, rng: np.random.Generator) -> RegimePath:
    """The sojourn walk of both samplers, in the kernel when it loads.

    A grid clock is an int64 in the kernel; one past INT64_MAX is a jump
    time past ``horizon`` only when ``horizon <= 2**63 * unit``, so a longer
    grid horizon walks in Python.
    """
    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, _ = _kernel.load()
    if kernel is None or (geometric and not horizon <= 2.0 ** 63 * unit):
        return _walk(cdfs, r0, horizon, unit, geometric, param, rng)
    return _walk_c(kernel, cdfs, r0, horizon, unit, geometric, param, rng)


def _walk_c(kernel, cdfs: np.ndarray, r0: int, horizon: float, unit: float,
            geometric: bool, param: np.ndarray, rng: np.random.Generator) -> RegimePath:
    """:func:`_walk` in the compiled ``kernel``, drawing from ``rng``'s own
    bit generator under its lock, ``_WALK_BUFFER`` jumps per call."""
    cdfs = np.ascontiguousarray(cdfs, dtype=np.float64)
    param = np.ascontiguousarray(param, dtype=np.float64)
    n = len(param)
    if param.shape != (n,) or cdfs.shape != (n, n - 1) or not 1 <= r0 <= n:
        raise ValueError(f"walk inputs do not fit {n} states starting in {r0}")
    clock = np.zeros(1)  # the exact clock
    carry = np.array([r0 - 1, 0, 0], dtype=np.int64)  # state, grid clock, ended
    buf_t = np.empty(_WALK_BUFFER)
    buf_r = np.empty(_WALK_BUFFER, dtype=np.int64)
    times, regimes = [np.zeros(1)], [np.array([r0], dtype=np.int64)]
    bitgen = rng.bit_generator
    with bitgen.lock:
        while not carry[2]:
            stored = kernel.seqir_walk(bitgen.ctypes.bit_generator, geometric,
                                       param.ctypes.data, cdfs.ctypes.data, n, unit, horizon,
                                       clock.ctypes.data, carry.ctypes.data,
                                       buf_t.ctypes.data, buf_r.ctypes.data, _WALK_BUFFER)
            times.append(buf_t[:stored].copy())
            regimes.append(buf_r[:stored].copy())
    return RegimePath(np.concatenate(times), np.concatenate(regimes), horizon, n)


def _walk(cdfs: np.ndarray, r0: int, horizon: float, unit: float, geometric: bool,
          param: np.ndarray, rng: np.random.Generator) -> RegimePath:
    """The sojourn loop of both samplers, in Python: a path from regime r0 up
    to horizon.  It is the reference that the kernel walk mirrors.

    In state i the clock advances by ``rng.geometric(param[i])`` steps
    (``geometric``) or by ``rng.exponential(param[i])``, and the jump time is
    ``clock * unit``; the landing state is drawn from row i of the landing
    laws ``cdfs`` (see :func:`_jump_cdfs`).  The walk stops at the first jump
    time at or past ``horizon``, or, before drawing, in a state whose param
    is <= 0.  The clock starts as the int 0, so integer holds keep it an
    exact step count.
    """
    hold = rng.geometric if geometric else rng.exponential
    param = param.tolist()  # a list indexes faster per jump than the array
    times = [0.0]
    regimes = [r0]
    cur = r0 - 1
    clock = 0
    while param[cur] > 0.0:
        clock += hold(param[cur])
        t = clock * unit
        if t >= horizon:
            break
        cur = int(np.searchsorted(cdfs[cur], rng.random(), side="right"))
        times.append(t)
        regimes.append(cur + 1)
    return RegimePath(np.array(times), np.array(regimes), horizon, len(param))


def occupancy(path: RegimePath) -> np.ndarray:
    """Fraction of [0, horizon] spent in each state; sums to 1."""
    durations = path.segment_durations()
    occ = np.zeros(path.n_states)
    np.add.at(occ, path.regimes - 1, durations)
    return occ / path.horizon


def _check_initial(g: Generator, r0: int, horizon: float) -> None:
    if not 1 <= r0 <= g.n_states:
        raise ValueError(f"initial regime {r0} outside 1..{g.n_states}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")


def _jump_cdfs(m: np.ndarray) -> np.ndarray:
    """Row-wise cumulative landing-state laws: the off-diagonal part of m,
    each row normalised by its own sum.

    For a generator that sum is bit for bit the exit rate, since
    :func:`validate_generator` set the diagonal to minus the same sum.
    Returns the first N-1 cumulative values per row; searchsorted against a
    uniform draw then yields the landing state index.
    """
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    return np.cumsum(off / off.sum(axis=1)[:, None], axis=1)[:, :-1]
