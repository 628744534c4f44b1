"""Continuous-time Markov regime chain: validation, sampling, steady state.

The environment process is a right-continuous Markov chain r(t) on states
{1, ..., N} driven by a transition-rate matrix (Q-matrix).  This module
validates rate matrices, solves for the stationary distribution, computes
finite-interval transition matrices, and samples regime paths either exactly
(event-driven, exponential holding times) or on a fixed grid.

Both samplers run one sojourn walk, in the compiled kernel (``_kernel.c``)
when it loads, else in the Python reference :func:`_walk`.  The kernel draws
on the Generator's own bit generator, its exponentials on the fast path of
numpy's ziggurat inline and through numpy's own routines otherwise (see
``_kernel``), so both consume the same variates in the same stream order,
and writes into one pair of arrays that grows in place, so a path is not
copied on its way out, or into none.  The grid sampler computes its
transition matrix once per generator and dt, so an ensemble's members share
it.

A path that a user builds with ``RegimePath(...)`` is checked; a sampled path
is trusted and built without the checks, since both walks build it valid:
times strictly increasing from 0, each jump to a different state in range.
A walk raises :class:`StalledClock` rather than repeat a jump time.
:func:`occupancy` sums a path's segments with ``np.bincount``.  The kernel
walk adds each segment into the same sums, in the same order, as it leaves
it, so :func:`sample_occupancy_exact` gives the jump count and occupancy of
an exact path with those bytes in constant memory, storing no jump.

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
    StalledClock,
    StepTooLarge,
)

# Row-sum deviations up to this size are absorbed into the diagonal;
# anything larger is rejected as a genuine configuration mistake.
ROW_SUM_TOL = 1e-9

#: dt * max exit rate above which the grid sampler refuses to run.
STEP_HARD_LIMIT = 1.0
#: dt * max exit rate above which the grid sampler warns.
STEP_WARN_LIMIT = 0.1

#: the entries the kernel walk's arrays hold at first; they double whenever full
_WALK_CAPACITY = 1024
#: the most jumps of one kernel call of a walk that stores none: between calls
#: Python runs its signal handlers, so Ctrl-C ends a long walk
_WALK_CALL_JUMPS = 16384
#: why a walk stops at a jump time no later than the one before it
_STALLED = "a hold too short for the clock: jump times must be strictly increasing"


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

    @classmethod
    def _sampled(cls, jump_times: np.ndarray, regimes: np.ndarray, horizon: float,
                 n_states: int) -> RegimePath:
        """A path from a sampler, built without :meth:`__post_init__`'s checks:
        the walks make every path valid, so only user-built paths pay them."""
        path = object.__new__(cls)
        for name, value in (("jump_times", jump_times), ("regimes", regimes),
                            ("horizon", horizon), ("n_states", n_states)):
            object.__setattr__(path, name, value)
        return path

    @property
    def n_jumps(self) -> int:
        return len(self.jump_times) - 1

    def regime_at(self, t: float) -> int:
        """Regime in effect at time t (right-continuous)."""
        idx = int(np.searchsorted(self.jump_times, t, side="right")) - 1
        return int(self.regimes[idx])

    def segment_durations(self) -> np.ndarray:
        """Length of each segment: the gap to the next jump time, and to
        ``horizon`` for the last one, subtracted into one new array."""
        jump_times = np.asarray(self.jump_times, dtype=float)
        out = np.empty(len(jump_times))
        np.subtract(jump_times[1:], jump_times[:-1], out=out[:-1])
        out[-1] = self.horizon - jump_times[-1]
        return out


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
        return RegimePath._sampled(np.array([0.0]), np.array([1]), horizon, 1)
    # irreducibility (validate_generator) gives every state a positive exit rate
    return _sample(_jump_cdfs(g.rates), r0, horizon, 1.0, False, 1.0 / g.exit_rates, rng)


def sample_occupancy_exact(g: Generator, r0: int, horizon: float,
                           rng_seed) -> tuple[int, np.ndarray]:
    """``(path.n_jumps, occupancy(path))`` for ``path =
    sample_path_exact(g, r0, horizon, rng_seed)``, with the same bytes and
    the same draws, without building the path: the kernel walk sums the
    occupancy itself and stores no jump (:func:`_kernel_walk` with no
    arrays), so the memory does not grow with their number.  Without the
    kernel it is that expression itself, the reference."""
    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, _ = _kernel.load()
    if kernel is None or g.n_states == 1:
        path = sample_path_exact(g, r0, horizon, rng_seed)
        return path.n_jumps, occupancy(path)
    _check_initial(g, r0, horizon)
    rng = np.random.default_rng(rng_seed)
    n_jumps, occ = _kernel_walk(kernel, _jump_cdfs(g.rates), r0, horizon, 1.0, False,
                                1.0 / g.exit_rates, rng)
    return n_jumps, occ / horizon


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
    A horizon past ``2**63 * dt`` is refused with ``ValueError`` before any
    draw: the kernel counts grid steps in an int64.
    """
    _check_initial(g, r0, horizon)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not horizon <= 2.0 ** 63 * dt:
        raise ValueError(f"horizon {horizon} exceeds 2**63 grid steps of {dt}")
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
        return RegimePath._sampled(np.array([0.0]), np.array([r0]), horizon, n)
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
    """The sojourn walk of both samplers: in the kernel when it loads, else
    in Python."""
    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, _ = _kernel.load()
    if kernel is None:
        return _walk(cdfs, r0, horizon, unit, geometric, param, rng)
    return _walk_c(kernel, cdfs, r0, horizon, unit, geometric, param, rng)


def _walk_c(kernel, cdfs: np.ndarray, r0: int, horizon: float, unit: float,
            geometric: bool, param: np.ndarray, rng: np.random.Generator) -> RegimePath:
    """:func:`_walk` in the compiled ``kernel``: the walk of
    :func:`_kernel_walk` in one pair of arrays of ``_WALK_CAPACITY``
    entries, cut to the path's length at the end, so the path owns exactly
    its entries.  The walk's occupancy is not used."""
    times, regimes = np.empty(_WALK_CAPACITY), np.empty(_WALK_CAPACITY, dtype=np.int64)
    n_jumps, _ = _kernel_walk(kernel, cdfs, r0, horizon, unit, geometric, param, rng,
                              times, regimes)
    times.resize(n_jumps + 1, refcheck=False)
    regimes.resize(n_jumps + 1, refcheck=False)
    return RegimePath._sampled(times, regimes, horizon, len(param))


def _kernel_walk(kernel, cdfs: np.ndarray, r0: int, horizon: float, unit: float,
                 geometric: bool, param: np.ndarray, rng: np.random.Generator,
                 times: np.ndarray | None = None,
                 regimes: np.ndarray | None = None) -> tuple[int, np.ndarray]:
    """:func:`_walk` in the compiled ``kernel``, drawing from ``rng``'s own
    bit generator under its lock, with the kernel's ziggurat tables.
    Returns the number of jumps and the time spent in each state, which the
    walk adds up segment by segment as :func:`occupancy` does before its
    division by ``horizon``.

    Given ``times`` and ``regimes`` (float64 and int64, of equal length), it
    stores the path in them, the first entry (0, r0), and doubles both in
    place (``ndarray.resize``, a realloc) whenever they are full.  The resize
    skips numpy's reference check: a profiler set with ``sys.setprofile``
    holds a reference to ``times`` while its method runs, which the check
    refuses.  Without them it stores nothing and returns to Python after
    every ``_WALK_CALL_JUMPS`` jumps."""
    cdfs = np.ascontiguousarray(cdfs, dtype=np.float64)
    param = np.ascontiguousarray(param, dtype=np.float64)
    n = len(param)
    if param.shape != (n,) or cdfs.shape != (n, n - 1) or not 1 <= r0 <= n:
        raise ValueError(f"walk inputs do not fit {n} states starting in {r0}")
    clock = np.zeros(1)  # the exact clock
    carry = np.array([r0 - 1, 0, 0], dtype=np.int64)  # state, grid clock, ended (2: stalled)
    occ = np.zeros(n)
    n_jumps, at, cap = 0, (None, None), _WALK_CALL_JUMPS
    if times is not None:
        times[0], regimes[0] = 0.0, r0
    bitgen = rng.bit_generator
    args = (bitgen.ctypes.bit_generator, kernel.ziggurat.ctypes.data, geometric,
            param.ctypes.data, cdfs.ctypes.data, n, unit, horizon, clock.ctypes.data,
            carry.ctypes.data)
    with bitgen.lock:
        while not carry[2]:
            if times is not None:
                if n_jumps + 1 == len(times):
                    times.resize(2 * len(times), refcheck=False)
                    regimes.resize(2 * len(regimes), refcheck=False)
                # both arrays hold 8-byte entries: the walk goes on past the last jump
                end = 8 * (n_jumps + 1)
                at = times.ctypes.data + end, regimes.ctypes.data + end
                cap = len(times) - n_jumps - 1
            n_jumps += kernel.seqir_walk(*args, *at, cap, occ.ctypes.data)
    if carry[2] == 2:
        raise StalledClock(_STALLED)
    return n_jumps, occ


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
    exact step count.  A jump time no later than the one before it, a hold
    lost in the rounding of a large float clock, raises
    :class:`StalledClock`, so every path the walk returns has strictly
    increasing times.
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
        if t <= times[-1]:
            raise StalledClock(_STALLED)
        cur = int(np.searchsorted(cdfs[cur], rng.random(), side="right"))
        times.append(t)
        regimes.append(cur + 1)
    return RegimePath._sampled(np.array(times), np.array(regimes), horizon, len(param))


def occupancy(path: RegimePath) -> np.ndarray:
    """Fraction of [0, horizon] spent in each state; sums to 1.

    ``np.bincount`` adds each segment's duration into its state's slot in
    index order.  A regime outside 1..n_states, written into the path's
    array after its checks, raises ``ValueError``: bincount alone would
    count it in a slot of its own or drop it."""
    regimes = np.asarray(path.regimes, dtype=np.int64)
    if regimes.min() < 1 or regimes.max() > path.n_states:
        raise ValueError(f"regimes must lie in 1..{path.n_states}")
    occ = np.bincount(regimes, weights=path.segment_durations(),
                      minlength=path.n_states + 1)[1:]
    return occ / path.horizon


def _check_initial(g: Generator, r0: int, horizon: float) -> None:
    if not 1 <= r0 <= g.n_states:
        raise ValueError(f"initial regime {r0} outside 1..{g.n_states}")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")


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
