"""SEQIR compartment model with per-regime parameters and policy incidence.

Compartments: S (susceptible), E (exposed), Q (quarantined), I (infected),
R (recovered).  Every epidemiological rate may differ between regimes of the
environment chain; a governmental-policy term p*M*h(S) removes susceptibles
directly into the recovered class, where h is a sublinear incidence function
with h(0) = 0 and 0 <= h(s) <= s * h'(0).

Transmission noise enters multiplicatively: a single Brownian driver moves
mass between S and E with intensity sigma0 * (1-rho1) * (1-rho2) * S * E, so
the total population carries no diffusion.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateBounds

PARAMETER_NAMES = (
    "A", "beta", "rho1", "rho2", "b1", "b2", "c", "xi",
    "delta", "alpha", "sigma", "eta", "p", "M", "sigma0",
)


@dataclass(frozen=True)
class RegimeParameters:
    """All model rates for one regime.

    A       recruitment rate into S (population/time)
    beta    transmission rate (1/(population x time))
    rho1    fraction of S taking proper precaution
    rho2    fraction of E taking proper precaution
    b1      quarantine release rate Q -> S (1/time)
    b2      quarantine intake rate E -> Q (1/time)
    c       progression rate Q -> I (1/time)
    xi      natural death rate (1/time)
    delta   disease-induced death rate of I (1/time)
    alpha   progression rate E -> I (1/time)
    sigma   recovery rate of E (1/time)
    eta     recovery rate of I (1/time)
    p       rate at which policy is implemented (1/time)
    M       policy intensity (dimensionless)
    sigma0  white-noise intensity on the transmission term

    Construction only enforces sign sanity; the configuration loader applies
    the strict Table-style ranges so that bad configs fail early while edge
    cases (e.g. rho = 0) remain constructible for analysis.
    """

    A: float
    beta: float
    rho1: float
    rho2: float
    b1: float
    b2: float
    c: float
    xi: float
    delta: float
    alpha: float
    sigma: float
    eta: float
    p: float
    M: float
    sigma0: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"parameter {f.name} must be finite and >= 0, got {v}")
        if self.rho1 >= 1.0 or self.rho2 >= 1.0:
            raise ValueError("precaution fractions rho1, rho2 must be < 1")


def w1(params: RegimeParameters) -> float:
    """Effective contact reduction (1 - rho1)(1 - rho2); per regime for a table."""
    return (1.0 - params.rho1) * (1.0 - params.rho2)


def w2(params: RegimeParameters) -> float:
    """Total exit rate of the exposed class: b2 + alpha + sigma + xi; per regime for a table."""
    return params.b2 + params.alpha + params.sigma + params.xi


@dataclass(frozen=True)
class RegimeParameterTable:
    """One :class:`RegimeParameters` row per regime, with cached extremes.

    Array accessors (``table.A``, ``table.beta``, ...) return one value per
    regime in chain order; the min/max accessors back every threshold
    formula, so they are computed once.
    """

    rows: tuple

    def __post_init__(self):
        if len(self.rows) < 1:
            raise ValueError("parameter table needs at least one regime")
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n_regimes(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> RegimeParameters:
        """Row for 1-based regime k."""
        if not 1 <= k <= len(self.rows):
            raise IndexError(f"regime {k} outside 1..{len(self.rows)}")
        return self.rows[k - 1]

    @cached_property
    def _arrays(self) -> dict:
        out = {}
        for name in PARAMETER_NAMES:
            arr = np.array([getattr(r, name) for r in self.rows])
            arr.setflags(write=False)
            out[name] = arr
        return out

    def __getattr__(self, name: str):
        if name in PARAMETER_NAMES:
            return self._arrays[name]
        raise AttributeError(name)

    # min/max over regimes used by the invariant set and threshold formulas
    @cached_property
    def A_min(self) -> float:
        return float(self.A.min())

    @cached_property
    def A_max(self) -> float:
        return float(self.A.max())

    @cached_property
    def xi_min(self) -> float:
        return float(self.xi.min())

    @cached_property
    def xi_max(self) -> float:
        return float(self.xi.max())

    @cached_property
    def delta_max(self) -> float:
        return float(self.delta.max())

    @cached_property
    def beta_max(self) -> float:
        return float(self.beta.max())

    @cached_property
    def sigma0_min(self) -> float:
        return float(self.sigma0.min())

    @cached_property
    def population_ceiling(self) -> float:
        """Largest sustainable total population, max A / min xi."""
        if self.xi_min <= 0.0:
            raise DegenerateBounds("minimum natural death rate is zero")
        return self.A_max / self.xi_min


@dataclass(frozen=True)
class EpidemicState:
    """Compartment sizes (S, E, Q, I, R), all nonnegative."""

    S: float
    E: float
    Q: float
    I: float
    R: float

    def __post_init__(self):
        vals = (self.S, self.E, self.Q, self.I, self.R)
        if any(not np.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError(f"compartments must be finite and >= 0, got {vals}")

    @property
    def total(self) -> float:
        return self.S + self.E + self.Q + self.I + self.R


@dataclass(frozen=True)
class PolicyFunction:
    """Policy incidence function h with h(0) = 0 and 0 <= h(s) <= s h'(0).

    Kinds:
      linear       h(s) = s                      (recovers the plain p*S*M term)
      saturating   h(s) = s / (1 + a*s), a > 0   (policy effect saturates)
      custom       any callable; callers should run :meth:`validate_envelope`
                   over the population range before trusting it.

    h is evaluated from ``a`` and ``fn`` alone, so each kind is held to its
    own: linear has a = 0 and no fn, saturating a > 0 and no fn, custom a
    callable fn and a = 0.  Build instances through the classmethods.
    """

    kind: str
    a: float = 0.0
    fn: Optional[Callable[[float], float]] = None
    slope_at_zero: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "saturating", "custom"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "custom":
            if not callable(self.fn) or self.a != 0:
                raise ValueError("a custom policy needs a callable fn and a = 0")
        elif self.fn is not None:
            raise ValueError(f"a {self.kind} policy takes no fn")
        elif self.kind == "linear" and self.a != 0:
            raise ValueError("a linear policy has a = 0")
        elif self.kind == "saturating" and not self.a > 0:
            raise ValueError("saturation coefficient a must be > 0")

    @classmethod
    def linear(cls) -> "PolicyFunction":
        return cls(kind="linear", slope_at_zero=1.0)

    @classmethod
    def saturating(cls, a: float) -> "PolicyFunction":
        return cls(kind="saturating", a=a, slope_at_zero=1.0)

    @classmethod
    def custom(cls, fn: Callable[[float], float], slope_at_zero: float) -> "PolicyFunction":
        if slope_at_zero < 0:
            raise ValueError("slope_at_zero must be >= 0")
        return cls(kind="custom", fn=fn, slope_at_zero=slope_at_zero)

    def __call__(self, s: float) -> float:
        # a = 0 for linear, and s / (1.0 + 0.0 * s) is s bit for bit for s >= 0
        return s / (1.0 + self.a * s) if self.fn is None else self.fn(s)

    def validate_envelope(self, s_max: float, n_points: int = 2001) -> None:
        """Check h(0) = 0 and 0 <= h(s) <= s h'(0) by dense sampling.

        The built-in kinds satisfy the envelope identically; custom functions
        are sampled on [0, s_max].  Differentiability is assumed, not tested.
        """
        if self(0.0) != 0.0:
            raise ValueError("policy function must satisfy h(0) = 0")
        s = np.linspace(0.0, s_max, n_points)
        h = np.array([self(v) for v in s])
        if np.any(h < -1e-12) or np.any(h > s * self.slope_at_zero + 1e-12):
            bad = int(np.flatnonzero((h < -1e-12) | (h > s * self.slope_at_zero + 1e-12))[0])
            raise ValueError(
                f"policy function leaves the envelope 0 <= h(s) <= s*h'(0) at s={s[bad]:.6g}"
            )


def regime_constants(params: RegimeParameters) -> tuple:
    """Per-regime scalar constants consumed by :func:`vector_field`.

    In order: A, beta*w1, b1, xi, p*M, w2, b2, b1 + c + xi, alpha, c,
    eta + xi + delta, eta, sigma, sigma0*w1 and 0.5*(sigma0*w1)^2.  The last
    two scale the diffusion and the Milstein correction.
    """
    w1v = w1(params)
    s0w1 = params.sigma0 * w1v
    return (
        params.A,
        params.beta * w1v,
        params.b1,
        params.xi,
        params.p * params.M,
        w2(params),
        params.b2,
        params.b1 + params.c + params.xi,
        params.alpha,
        params.c,
        params.eta + params.xi + params.delta,
        params.eta,
        params.sigma,
        s0w1,
        0.5 * s0w1 * s0w1,
    )


def vector_field(s, e, q, i, r, k, hs):
    """Drift of the model at scalar state (s, e, q, i, r) as five floats.

    ``k`` is :func:`regime_constants` of the regime in force and ``hs`` the
    policy value h(s).  This is the one definition of the drift: the
    stochastic step, the RK4 integrator and :func:`drift` all evaluate it.
    """
    # _kernel.c repeats these operations in this order for the compiled
    # runner; change both together (tests/test_backends.py compares them)
    A, bw1, b1, xi, pm, w2v, b2, bcx, al, c, exd, eta, sg, _, _ = k
    inc = bw1 * (s * e)
    pmh = pm * hs
    return (A - inc + b1 * q - xi * s - pmh,
            inc - w2v * e,
            b2 * e - bcx * q,
            al * e + c * q - exd * i,
            eta * i + sg * e - xi * r + pmh)


def drift(state: EpidemicState, params: RegimeParameters, h: PolicyFunction) -> np.ndarray:
    """Drift field of the stochastic model, returned as (dS, dE, dQ, dI, dR)/dt.

    dS = A - beta*w1*S*E + b1*Q - xi*S - p*M*h(S)
    dE = beta*w1*S*E - w2*E
    dQ = b2*E - (b1 + c + xi)*Q
    dI = alpha*E + c*Q - (eta + xi + delta)*I
    dR = eta*I + sigma*E - xi*R + p*M*h(S)
    """
    return np.array(vector_field(*astuple(state), regime_constants(params), h(state.S)))


def diffusion(state: EpidemicState, params: RegimeParameters) -> np.ndarray:
    """Diffusion vector for the single shared Brownian driver.

    The noise removes sigma0*w1*S*E from S and adds it to E; the other
    compartments carry no noise, so the components sum to zero exactly.
    """
    g = params.sigma0 * w1(params) * (state.S * state.E)
    return np.array([-g, g, 0.0, 0.0, 0.0])


def deterministic_drift(state: EpidemicState, params: RegimeParameters,
                        M_const: float) -> np.ndarray:
    """Vector field of the noise-free single-regime model with policy p*S*M.

    Identical to :func:`drift` with a linear policy function and the policy
    intensity pinned at ``M_const``; sigma0 plays no role in the drift.
    """
    return drift(state, replace(params, M=M_const), PolicyFunction.linear())


def invariant_set_bounds(table: RegimeParameterTable) -> tuple[float, float]:
    """Total-population interval that trajectories do not leave.

    lower = min A / (max xi + max delta), upper = max A / min xi.  The noise
    cancels in the population total, so the interval is forward-invariant
    regardless of the regime path.
    """
    upper = table.population_ceiling  # raises DegenerateBounds when min xi is 0
    return table.A_min / (table.xi_max + table.delta_max), upper
