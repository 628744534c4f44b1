"""Time-stepping schemes for the regime-switching epidemic SDE.

Milstein (strong order 1) and Euler-Maruyama (strong order 1/2) steppers for
the stochastic model, plus a classical fourth-order Runge-Kutta integrator
for the noise-free single-regime system.

The regime sampled at t_n is frozen over the whole step [t_n, t_n + dt).
Because S and E share a single Brownian driver with opposite signs, the
Milstein correction is exact (no iterated-integral approximation needed) and
the total population carries no noise at all.

Reproducibility: each trajectory consumes one seeded NumPy generator; the
regime path is drawn first, then one standard normal per step.  Ensemble
member i uses the stream seeded by ``derive_seed(base_seed, i)``
(SplitMix64, documented in the README).

Backends: both step loops, the stochastic one and RK4, run in the compiled
kernel (``seqir_run`` and ``seqir_rk4`` in ``_kernel.c``) when it loads,
else in their Python references, ``_run_py`` and ``_rk4_py``.  A compiled
stochastic run is one kernel call that draws its normals from the run's own
bit generator in C: on the fast path of numpy's ziggurat inline, with
numpy's tables, and through numpy's own routine off it (see ``_kernel``).
Both backends give the same bytes and leave the generator in the same
state, and ``Trajectory.metadata["backend"]`` says which ran.

Ensembles: :func:`iter_ensemble` runs its members through :func:`_ordered`,
the one thread pipeline, which ``cli._write_csv`` runs CSV chunks through
too.  The calling thread sets up each member (path sampling, record arrays)
in index order, and members step on it and, since the kernel call releases
the GIL, on helper threads: one thread per usable CPU (:func:`_workers`) in
all.  The Python runner holds the GIL, so its members step inline, with no
thread started.  Members are returned in index order, so no output depends
on the thread count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .chain import Generator, RegimePath, sample_path_discretized, sample_path_exact
from .errors import NegativeState, NonFiniteState
from .model import (EpidemicState, PolicyFunction, RegimeParameters, RegimeParameterTable,
                    regime_constants, vector_field)

SCHEMES = ("milstein", "euler_maruyama")
CHAIN_MODES = ("exact", "discretized")
NEGATIVITY_POLICIES = ("clamp_to_zero", "error")

#: components below this are treated as rounding noise under the error policy
NEGATIVITY_TOL = -1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_BLOCK = 1 << 12  # the Python runner draws its normals in blocks of this size

#: bound on horizon / dt: steps are int64 and m * dt is exact below it
MAX_STEPS = float(1 << 53)


def derive_seed(base_seed: int, index: int) -> int:
    """Independent per-trajectory seed via SplitMix64 avalanche.

    z = (base_seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2^64, then
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.
    """
    z = (base_seed + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, scheme, seed and initial condition of one stochastic run."""

    dt: float
    horizon: float
    initial_state: EpidemicState
    initial_regime: int = 1
    scheme: str = "milstein"
    chain_mode: str = "discretized"
    seed: int = 0
    output_stride: int = 1
    negativity_policy: str = "clamp_to_zero"

    def __post_init__(self):
        _check_grid(self.dt, self.horizon, self.output_stride)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.chain_mode not in CHAIN_MODES:
            raise ValueError(f"chain_mode must be one of {CHAIN_MODES}")
        if self.negativity_policy not in NEGATIVITY_POLICIES:
            raise ValueError(f"negativity_policy must be one of {NEGATIVITY_POLICIES}")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.initial_regime < 1:
            raise ValueError("initial_regime must be >= 1")

    @property
    def n_steps(self) -> int:
        """Number of whole steps; the run ends at n_steps * dt."""
        return int(round(self.horizon / self.dt))

    def record_times(self) -> np.ndarray:
        """Times of the recorded samples: every stride-th step and the last."""
        return _record_steps(self.n_steps, self.output_stride) * self.dt


def _check_grid(dt: float, horizon: float, stride: int) -> None:
    """Reject a grid that is not a whole number of steps below 2**53 or a bad stride.

    The grid end may miss the horizon by 1e-9 of the horizon, the rounding
    of decimal input.  A dt far past a nonzero horizon, whose grid ends at 0
    or at dt, is thus refused; a horizon of 0 is a grid of one sample."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError("output_stride must be a positive integer")
    if not horizon / dt < MAX_STEPS:
        raise ValueError(f"horizon / dt = {horizon / dt:.6g} must be "
                         f"finite and below 2**53 steps")
    end = round(horizon / dt) * dt
    if abs(end - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon!r} is not a whole number of steps of dt {dt!r} "
                         f"(the nearest grid end is {end!r})")


def _record_steps(n_steps: int, stride: int) -> np.ndarray:
    """The recorded steps: 0, every stride-th step and the last step."""
    steps = np.arange(0, n_steps + 1, stride, dtype=np.int64)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


@dataclass
class Trajectory:
    """Recorded samples of one run: times, 1-based regimes, (m, 5) states.

    ``metadata`` echoes the configuration and carries the clamp-event count
    and the stepping backend ("c" or "python", with a one-line
    ``backend_reason`` for "python").  Column order is S, E, Q, I, R.
    """

    times: np.ndarray
    regimes: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    COLUMNS = ("S", "E", "Q", "I", "R")

    def __len__(self) -> int:
        return len(self.times)

    def compartment(self, name: str) -> np.ndarray:
        return self.states[:, self.COLUMNS.index(name)]

    @property
    def total(self) -> np.ndarray:
        return self.states.sum(axis=1)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _step(s, e, q, i, r, k, dt, dB, milstein, hs):
    """One explicit step from scalar state; returns the new scalar state.

    ``k`` is :func:`~seqirsim.model.regime_constants` of the regime frozen
    over the step and ``hs`` the policy value h(s).  The diffusion g =
    sigma0 * w1 * S * E moves g * dB from S to E.  With ``milstein`` the
    derivative correction 0.5 * (g . grad)g * (dB^2 - dt) is added; for this
    diffusion it is 0.5 * sigma0^2 * w1^2 * S * E * (E - S) * (dB^2 - dt) on
    S and its negation on E.
    """
    fs, fe, fq, fi, fr = vector_field(s, e, q, i, r, k, hs)
    se = s * e
    # k[13] = sigma0 * w1 and k[14] = 0.5 * (sigma0 * w1)^2
    gdb = k[13] * se * dB
    if milstein:
        dm = k[14] * se * (dB * dB - dt) * (e - s)
    else:
        dm = 0.0
    return (s + fs * dt - gdb + dm, e + fe * dt + gdb - dm, q + fq * dt, i + fi * dt,
            r + fr * dt)


def _clamp_negative(vals: tuple, policy: str, t: float) -> tuple[tuple, int]:
    """Apply the negativity policy to a state with a negative component.

    Under ``error`` a component below ``NEGATIVITY_TOL`` raises
    :class:`NegativeState`; otherwise, and always under ``clamp_to_zero``,
    each negative component is set to zero.  Returns the state and the
    number of components clamped.
    """
    low = min(vals)
    if policy == "error" and low < NEGATIVITY_TOL:
        raise NegativeState(f"compartment went negative ({low:.3e}) at t={t:.6g}")
    return tuple(0.0 if v < 0.0 else v for v in vals), sum(v < 0.0 for v in vals)


def _check_finite(vals: tuple, t: float) -> None:
    """Raise :class:`NonFiniteState` if a component of the state is nan or inf."""
    if not all(map(math.isfinite, vals)):
        cells = ", ".join(f"{name}={v!r}" for name, v in zip(Trajectory.COLUMNS, vals))
        raise NonFiniteState(f"state is not finite ({cells}) at t={t:.6g}")


@dataclass
class _Run:
    """One stochastic run between setup and output, as both runners see it.

    Setup lays the run out: the sampled regime path as ``jump_times`` and
    0-based ``regs``, the recorded ``steps`` with their ``times`` and
    ``regimes``, and the first row of ``states``.  A runner only steps
    ``state`` over ``n_steps`` steps of ``dt``, drawing one normal per step
    from ``rng``, stores ``states`` at the recorded steps and counts clamp
    events.
    """

    config: SimulationConfig
    h: PolicyFunction
    rng: np.random.Generator
    jump_times: np.ndarray  # start time of each regime segment, float64
    regs: np.ndarray        # 0-based regime of each segment, int64
    constants: np.ndarray   # (n_regimes, 15) regime_constants rows, float64
    steps: np.ndarray       # recorded steps, int64
    times: np.ndarray
    regimes: np.ndarray
    states: np.ndarray
    state: tuple
    clamps: int = 0


def _setup(config: SimulationConfig, generator: Generator,
           table: RegimeParameterTable, h: PolicyFunction) -> _Run:
    """Sample the regime path and lay out the record arrays."""
    if table.n_regimes != generator.n_states:
        raise ValueError(
            f"parameter table has {table.n_regimes} regimes, generator has {generator.n_states}"
        )
    if config.initial_regime > generator.n_states:
        raise ValueError(
            f"initial regime {config.initial_regime} outside 1..{generator.n_states}"
        )
    rng = np.random.default_rng(config.seed)
    n_steps = config.n_steps
    dt = config.dt
    if n_steps == 0:
        path = RegimePath(np.array([0.0]), np.array([config.initial_regime]),
                          config.horizon, generator.n_states)
    elif config.chain_mode == "exact":
        path = sample_path_exact(generator, config.initial_regime, n_steps * dt, rng)
    else:
        path = sample_path_discretized(generator, config.initial_regime,
                                       n_steps * dt, dt, rng)

    steps = _record_steps(n_steps, config.output_stride)
    times = steps * dt
    # RegimePath.regime_at of every recorded time
    regimes = path.regimes[np.searchsorted(path.jump_times, times, side="right") - 1]
    states = np.empty((len(steps), 5))
    init = config.initial_state
    state = (init.S, init.E, init.Q, init.I, init.R)
    states[0] = state
    return _Run(config=config, h=h, rng=rng,
                jump_times=np.ascontiguousarray(path.jump_times, dtype=np.float64),
                regs=np.asarray(path.regimes, dtype=np.int64) - 1,
                constants=np.array([regime_constants(row) for row in table.rows]),
                steps=steps, times=times, regimes=regimes, states=states, state=state)


def _run_py(run: _Run) -> None:
    """Step ``run`` in Python; the reference that ``seqir_run`` in ``_kernel.c``
    mirrors.  The normals are drawn ``_BLOCK`` at a time, in stream order."""
    config, regs, states = run.config, run.regs.tolist(), run.states
    n_steps, dt = config.n_steps, config.dt
    sqrt_dt = math.sqrt(dt)
    constants = run.constants.tolist()
    policy = config.negativity_policy
    milstein = config.scheme == "milstein"
    a = run.h.a  # h(s) as _kernel.c evaluates it, with no call per step

    # the regime of step n is that of the last jump with n * dt >= its time,
    # as RegimePath.regime_at compares; of several jumps in one step the last wins
    jumps = [*run.jump_times.tolist(), math.inf]
    seg = 0
    next_jump = jumps[1]
    k = constants[regs[0]]
    s, e, q, i, r = run.state
    clamps = 0
    rec = 1
    recorded = map(int, run.steps[1:])  # each step is read as its sample is stored
    next_rec = next(recorded, None)
    for n0 in range(0, n_steps, _BLOCK):
        block = run.rng.standard_normal(min(_BLOCK, n_steps - n0)) * sqrt_dt
        for n, dB in enumerate(block.tolist(), n0):
            while n * dt >= next_jump:
                seg += 1
                k = constants[regs[seg]]
                next_jump = jumps[seg + 1]

            s, e, q, i, r = _step(s, e, q, i, r, k, dt, dB, milstein, s / (1.0 + a * s))
            # a one-sum test first: any nan or inf component makes the sum non-finite
            if not math.isfinite(s + e + q + i + r):
                _check_finite((s, e, q, i, r), (n + 1) * dt)
            if s < 0.0 or e < 0.0 or q < 0.0 or i < 0.0 or r < 0.0:
                (s, e, q, i, r), hit = _clamp_negative((s, e, q, i, r), policy, (n + 1) * dt)
                clamps += hit

            if n + 1 == next_rec:
                states[rec] = (s, e, q, i, r)
                rec += 1
                next_rec = next(recorded, None)
    run.state = (s, e, q, i, r)
    run.clamps = clamps


def _run_c(run: _Run, kernel) -> None:
    """Step ``run`` with the compiled ``kernel`` in one call, drawing from
    ``run.rng``'s own bit generator under its lock, with the kernel's
    ziggurat tables."""
    config = run.config
    x = np.array(run.state, dtype=np.float64)
    out = np.zeros(2, dtype=np.int64)  # clamps, failed step
    bitgen = run.rng.bit_generator
    with bitgen.lock:
        status = kernel.seqir_run(
            bitgen.ctypes.bit_generator, kernel.ziggurat.ctypes.data, config.n_steps, config.dt,
            run.jump_times.ctypes.data, run.regs.ctypes.data, len(run.regs),
            run.constants.ctypes.data,
            config.scheme == "milstein", run.h.a, config.negativity_policy == "error",
            x.ctypes.data, out.ctypes.data, run.steps.ctypes.data, run.states.ctypes.data)
    if status:
        vals, t = tuple(x.tolist()), int(out[1]) * config.dt
        _check_finite(vals, t)
        _clamp_negative(vals, config.negativity_policy, t)
        raise RuntimeError(f"kernel status {status} without a failing state")
    run.state = tuple(x.tolist())
    run.clamps = int(out[0])


def simulate(config: SimulationConfig, generator: Generator,
             table: RegimeParameterTable, h: PolicyFunction) -> Trajectory:
    """Integrate the regime-switching SDE over [0, n_steps * dt].

    Samples a regime path according to ``config.chain_mode``, freezes the
    regime over each step, and advances the chosen scheme with independent
    Normal(0, dt) increments.  Deterministic given (config, inputs): the
    chain consumes the seeded stream first, then one normal per step.  The
    steps run in the compiled kernel when it is available, else in Python;
    both give the same bytes, and ``metadata["backend"]`` says which ran.
    Raises :class:`NegativeState` (error policy) or :class:`NonFiniteState`
    when a stepped state fails.
    """
    run = _setup(config, generator, table, h)
    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, reason = _kernel.load()
    _advance(run, kernel)
    return _trajectory(run, kernel, reason)


def _advance(run: _Run, kernel) -> _Run:
    """Step ``run`` on ``kernel``, or in Python when it is None; returns it."""
    if kernel is None:
        _run_py(run)
    else:
        _run_c(run, kernel)
    return run


def _trajectory(run: _Run, kernel, reason) -> Trajectory:
    """The :class:`Trajectory` of a stepped ``run``, with its metadata."""
    metadata = {
        "config": run.config,
        "clamp_events": run.clamps,
        "backend": "python" if kernel is None else "c",
    }
    if reason is not None:
        metadata["backend_reason"] = reason
    return Trajectory(times=run.times, regimes=run.regimes, states=run.states,
                      metadata=metadata)


def _workers(n: int) -> int:
    """Threads for n tasks of :func:`_ordered`: the CPUs this process may run
    on (``os.cpu_count()`` where affinity is unavailable), at most n."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(n, cpus)


def _window(threads: int) -> int:
    """Tasks in flight in :func:`_ordered`: two per thread, one on one thread."""
    return 2 * threads if threads > 1 else 1


def _ordered(n: int, prepare, work, threads: int, name: str):
    """Yield ``(i, work(prepare(i)))`` for i in 0..n-1, in index order.

    ``prepare`` runs on the calling thread, in index order; ``work`` runs
    there or on one of ``threads - 1`` helper threads named ``name``, started
    for the call.  While the calling thread waits for task i, it prepares the
    next task, else it runs the next prepared one itself.  Task i is not
    prepared until the caller has resumed after task ``i - _window(threads)``,
    so it may reuse what that task used.  On one thread all runs inline and
    no thread is started.  What ``prepare`` or ``work`` raises on task i is
    raised at its turn, after i yields, and no task after it is prepared.
    Every helper has ended when the generator returns, raises or is closed.
    """
    import threading  # imported on first use: start-up does not pay for it
    window, cond = _window(threads), threading.Condition()
    ready = deque()  # (i, prepared task) that no thread has taken yet
    done = {}  # i -> (True, what work returned) or (False, what was raised)
    prepared, stop, helpers = 0, False, []

    def call(fn, arg):
        try:
            return True, fn(arg)
        except BaseException as exc:  # raised at its task's turn
            return False, exc

    def run(i, task):
        result = call(work, task)
        with cond:
            done[i] = result
            cond.notify_all()

    def helper():
        while True:
            with cond:
                while not (ready or stop):
                    cond.wait()
                if stop:
                    return
                taken = ready.popleft()
            run(*taken)

    try:
        for _ in range(threads - 1):
            # daemon: a generator left suspended at exit must not keep the process
            thread = threading.Thread(target=helper, name=name, daemon=True)
            thread.start()
            helpers.append(thread)
        for i in range(n):
            while True:
                with cond:
                    if i in done:
                        ok, result = done.pop(i)
                        break
                    # preparing comes first, so that the helpers are kept fed
                    taken = None
                    if prepared >= min(n, i + window):
                        if not ready:
                            cond.wait()
                            continue
                        taken = ready.popleft()
                if taken:
                    run(*taken)
                    continue
                ok, task = call(prepare, prepared)
                with cond:
                    if ok:
                        ready.append((prepared, task))
                        cond.notify()
                    else:
                        done[prepared] = False, task
                        n = prepared + 1  # no task after it is prepared
                prepared += 1
            if not ok:
                raise result
            yield i, result
    finally:
        with cond:
            stop = True
            cond.notify_all()
        for thread in helpers:
            thread.join()


def iter_ensemble(config: SimulationConfig, generator: Generator,
                  table: RegimeParameterTable, h: PolicyFunction,
                  n: int, base_seed: int) -> Iterator[Trajectory]:
    """Yield n independent trajectories in index order, with derived seeds.

    Member i is the :func:`simulate` run with seed ``derive_seed(base_seed,
    i)``, byte for byte, whatever the thread count and backend.  Members are
    the tasks of :func:`_ordered`: setup (path sampling, with its warnings,
    and the record arrays) prepares one, and stepping is its work, on
    :func:`_workers` threads with the kernel and inline without it.

    The first failing member by index raises, as in a serial run; members
    after it are not yielded.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, reason = _kernel.load()

    def prepare(i):
        return _setup(replace(config, seed=derive_seed(base_seed, i)), generator, table, h)

    # Python stepping holds the GIL: a helper thread would only contend for it
    threads = 1 if kernel is None else _workers(n)
    for _, run in _ordered(n, prepare, lambda run: _advance(run, kernel), threads,
                           "seqirsim-member"):
        yield _trajectory(run, kernel, reason)


def _rk4_py(k: tuple, dt: float, steps: np.ndarray, states: np.ndarray) -> None:
    """RK4 in Python from ``states[0]``, storing ``states`` at the recorded
    ``steps``; the reference that ``seqir_rk4`` in ``_kernel.c`` mirrors."""
    y = tuple(states[0].tolist())
    half = dt / 2.0
    sixth = dt / 6.0
    for rec in range(1, len(steps)):
        for m in range(int(steps[rec - 1]) + 1, int(steps[rec]) + 1):
            k1 = vector_field(*y, k, y[0])
            y2 = tuple(yv + half * kv for yv, kv in zip(y, k1))
            k2 = vector_field(*y2, k, y2[0])
            y3 = tuple(yv + half * kv for yv, kv in zip(y, k2))
            k3 = vector_field(*y3, k, y3[0])
            y4 = tuple(yv + dt * kv for yv, kv in zip(y, k3))
            k4 = vector_field(*y4, k, y4[0])
            y = tuple(yv + sixth * (a + 2.0 * (b + cc) + d)
                      for yv, a, b, cc, d in zip(y, k1, k2, k3, k4))
            if not math.isfinite(sum(y)):
                _check_finite(y, m * dt)
        states[rec] = y


def _rk4_c(k: tuple, dt: float, steps: np.ndarray, states: np.ndarray, kernel) -> None:
    """RK4 with the compiled ``kernel``, one call for the whole run."""
    consts = np.array(k, dtype=np.float64)
    x = states[0].copy()
    failed = np.zeros(1, dtype=np.int64)
    status = kernel.seqir_rk4(consts.ctypes.data, dt, x.ctypes.data, steps.ctypes.data,
                              len(steps), states.ctypes.data, failed.ctypes.data)
    if status:
        _check_finite(tuple(x.tolist()), int(failed[0]) * dt)
        raise RuntimeError(f"kernel status {status} without a failing state")


def simulate_deterministic(initial: EpidemicState, params: RegimeParameters, dt: float,
                           horizon: float, output_stride: int = 1) -> Trajectory:
    """Classical 4-stage Runge-Kutta integration of the noise-free model.

    Single frozen regime, linear policy incidence p*S*M with the constant
    intensity ``params.M``.  Local error O(dt^5).  The grid is checked and
    recorded as for :class:`SimulationConfig`.  The steps run in the compiled
    kernel when it is available, else in Python; both give the same bytes,
    and ``metadata["backend"]`` says which ran, as for :func:`simulate`.
    Raises :class:`NonFiniteState` when a step's state has a nan or infinite
    component.  RK4 is noise-free and not clamped, so negative states are
    returned as computed.
    """
    _check_grid(dt, horizon, output_stride)
    k = regime_constants(params)
    steps = _record_steps(round(horizon / dt), output_stride)
    states = np.empty((len(steps), 5))
    states[0] = (initial.S, initial.E, initial.Q, initial.I, initial.R)

    from . import _kernel  # imported on first use: start-up does not pay for it
    kernel, reason = _kernel.load()
    if kernel is None:
        _rk4_py(k, dt, steps, states)
    else:
        _rk4_c(k, dt, steps, states, kernel)

    metadata = {
        "config": {"dt": dt, "horizon": horizon, "scheme": "rk4",
                   "output_stride": output_stride},
        "clamp_events": 0,
        "backend": "python" if kernel is None else "c",
    }
    if reason is not None:
        metadata["backend_reason"] = reason
    return Trajectory(times=steps * dt, regimes=np.ones(len(steps), dtype=np.int64),
                      states=states, metadata=metadata)
