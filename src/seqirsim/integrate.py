"""Time-stepping schemes for the regime-switching epidemic SDE.

Milstein (strong order 1) and Euler-Maruyama (strong order 1/2) steppers for
the stochastic model, plus a classical fourth-order Runge-Kutta integrator
for the noise-free single-regime system.

The regime sampled at t_n is frozen over the whole step [t_n, t_n + dt).
Because S and E share a single Brownian driver with opposite signs, the
Milstein correction is exact (no iterated-integral approximation needed) and
the total population carries no noise at all.

Reproducibility: each trajectory consumes one seeded NumPy generator; the
regime path is drawn first, then the Brownian increments in fixed-size
blocks.  Ensemble member i uses the stream seeded by
``derive_seed(base_seed, i)`` (SplitMix64, documented in the README).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import Generator, RegimePath, sample_path_discretized, sample_path_exact
from .errors import NegativeState
from .model import (EpidemicState, PolicyFunction, RegimeParameters, RegimeParameterTable,
                    regime_constants, vector_field)

SCHEMES = ("milstein", "euler_maruyama")
CHAIN_MODES = ("exact", "discretized")
NEGATIVITY_POLICIES = ("clamp_to_zero", "error")

#: components below this are treated as rounding noise under the error policy
NEGATIVITY_TOL = -1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_BLOCK = 1 << 16  # Brownian increments are pre-drawn in blocks of this size


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.chain_mode not in CHAIN_MODES:
            raise ValueError(f"chain_mode must be one of {CHAIN_MODES}")
        if self.negativity_policy not in NEGATIVITY_POLICIES:
            raise ValueError(f"negativity_policy must be one of {NEGATIVITY_POLICIES}")
        if not isinstance(self.output_stride, int) or self.output_stride < 1:
            raise ValueError("output_stride must be a positive integer")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")
        if self.initial_regime < 1:
            raise ValueError("initial_regime must be >= 1")

    @property
    def n_steps(self) -> int:
        """Number of whole steps; the run ends at n_steps * dt."""
        return int(round(self.horizon / self.dt))


@dataclass
class Trajectory:
    """Recorded samples of one run: times, 1-based regimes, (m, 5) states.

    ``metadata`` echoes the configuration and carries the clamp-event count
    and wall time.  Column order is S, E, Q, I, R.
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


def _regime_step_schedule(path: RegimePath, dt: float, n_steps: int) -> list[tuple[int, int]]:
    """Map a regime path onto grid steps as (start_step, regime-1) pairs.

    The regime in force at grid point n is the path value at t = n * dt.  If
    several jumps land inside one step (exact mode), the last one wins.
    """
    schedule: list[tuple[int, int]] = []
    for t, reg in zip(path.jump_times, path.regimes):
        start = 0 if t == 0.0 else int(math.ceil(t / dt - 1e-9))
        if start > n_steps:
            break
        if schedule and schedule[-1][0] == start:
            schedule[-1] = (start, reg - 1)
        else:
            schedule.append((start, reg - 1))
    return schedule


def simulate(config: SimulationConfig, generator: Generator,
             table: RegimeParameterTable, h: PolicyFunction) -> Trajectory:
    """Integrate the regime-switching SDE over [0, n_steps * dt].

    Samples a regime path according to ``config.chain_mode``, freezes the
    regime over each step, and advances the chosen scheme with independent
    Normal(0, dt) increments.  Deterministic given (config, inputs): the
    chain consumes the seeded stream first, then the Brownian blocks.
    """
    if table.n_regimes != generator.n_states:
        raise ValueError(
            f"parameter table has {table.n_regimes} regimes, generator has {generator.n_states}"
        )
    if config.initial_regime > generator.n_states:
        raise ValueError(
            f"initial regime {config.initial_regime} outside 1..{generator.n_states}"
        )

    t_start = time.perf_counter()
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

    schedule = _regime_step_schedule(path, dt, n_steps)
    constants = [regime_constants(row) for row in table.rows]

    stride = config.output_stride
    n_rec = n_steps // stride + 1 + (1 if n_steps % stride else 0)
    times = np.empty(n_rec)
    regimes = np.empty(n_rec, dtype=np.int64)
    states = np.empty((n_rec, 5))

    init = config.initial_state
    s, e, q, i, r = init.S, init.E, init.Q, init.I, init.R
    times[0] = 0.0
    regimes[0] = schedule[0][1] + 1
    states[0] = (s, e, q, i, r)

    milstein = config.scheme == "milstein"
    linear_policy = h.kind == "linear"
    sqrt_dt = math.sqrt(dt)

    seg = 0
    next_jump = schedule[1][0] if len(schedule) > 1 else n_steps + 1
    cur_regime = schedule[0][1]
    k = constants[cur_regime]

    clamps = 0
    rec = 1
    for n0 in range(0, n_steps, _BLOCK):
        block = (rng.standard_normal(min(_BLOCK, n_steps - n0)) * sqrt_dt).tolist()
        for n, dB in enumerate(block, n0):
            if n >= next_jump:
                while len(schedule) > seg + 1 and n >= schedule[seg + 1][0]:
                    seg += 1
                cur_regime = schedule[seg][1]
                k = constants[cur_regime]
                next_jump = schedule[seg + 1][0] if len(schedule) > seg + 1 else n_steps + 1

            hs = s if linear_policy else h(s)
            s, e, q, i, r = _step(s, e, q, i, r, k, dt, dB, milstein, hs)
            if s < 0.0 or e < 0.0 or q < 0.0 or i < 0.0 or r < 0.0:
                (s, e, q, i, r), hit = _clamp_negative((s, e, q, i, r),
                                                       config.negativity_policy, (n + 1) * dt)
                clamps += hit

            m = n + 1
            if m % stride == 0 or m == n_steps:
                times[rec] = m * dt
                # regime reported at a sample is the one in force at that time
                if m >= next_jump:
                    idx = seg
                    while len(schedule) > idx + 1 and m >= schedule[idx + 1][0]:
                        idx += 1
                    regimes[rec] = schedule[idx][1] + 1
                else:
                    regimes[rec] = cur_regime + 1
                states[rec] = (s, e, q, i, r)
                rec += 1

    metadata = {
        "config": config,
        "clamp_events": clamps,
        "wall_time_s": time.perf_counter() - t_start,
    }
    return Trajectory(times=times[:rec], regimes=regimes[:rec],
                      states=states[:rec], metadata=metadata)


def simulate_ensemble(config: SimulationConfig, generator: Generator,
                      table: RegimeParameterTable, h: PolicyFunction,
                      n: int, base_seed: int) -> list[Trajectory]:
    """n independent trajectories with per-index derived seeds.

    Member i runs ``simulate`` with seed ``derive_seed(base_seed, i)``; the
    members are independent and each is bit-reproducible on its own.
    """
    if n < 1:
        raise ValueError("ensemble size must be >= 1")
    out = []
    for i in range(n):
        cfg = replace(config, seed=derive_seed(base_seed, i))
        out.append(simulate(cfg, generator, table, h))
    return out


def simulate_deterministic(initial: EpidemicState, params: RegimeParameters,
                           M_const: float, dt: float, horizon: float,
                           output_stride: int = 1) -> Trajectory:
    """Classical 4-stage Runge-Kutta integration of the noise-free model.

    Single frozen regime, linear policy incidence p*S*M with the constant
    intensity ``M_const``.  Local error O(dt^5).
    """
    if dt <= 0 or horizon < 0:
        raise ValueError("dt must be positive and horizon nonnegative")
    t_start = time.perf_counter()
    pars = regime_constants(replace(params, M=M_const))

    n_steps = int(round(horizon / dt))
    stride = output_stride
    n_rec = n_steps // stride + 1 + (1 if n_steps % stride else 0)
    times = np.empty(n_rec)
    states = np.empty((n_rec, 5))

    y = (initial.S, initial.E, initial.Q, initial.I, initial.R)
    times[0] = 0.0
    states[0] = y
    rec = 1
    half = dt / 2.0
    sixth = dt / 6.0
    for n in range(n_steps):
        k1 = vector_field(*y, pars, y[0])
        y2 = tuple(yv + half * kv for yv, kv in zip(y, k1))
        k2 = vector_field(*y2, pars, y2[0])
        y3 = tuple(yv + half * kv for yv, kv in zip(y, k2))
        k3 = vector_field(*y3, pars, y3[0])
        y4 = tuple(yv + dt * kv for yv, kv in zip(y, k3))
        k4 = vector_field(*y4, pars, y4[0])
        y = tuple(yv + sixth * (a + 2.0 * (b + cc) + d)
                  for yv, a, b, cc, d in zip(y, k1, k2, k3, k4))
        m = n + 1
        if m % stride == 0 or m == n_steps:
            times[rec] = m * dt
            states[rec] = y
            rec += 1

    metadata = {
        "config": {"dt": dt, "horizon": horizon, "M_const": M_const,
                   "scheme": "rk4", "output_stride": output_stride},
        "clamp_events": 0,
        "wall_time_s": time.perf_counter() - t_start,
    }
    return Trajectory(times=times[:rec], regimes=np.ones(rec, dtype=np.int64),
                      states=states[:rec], metadata=metadata)
