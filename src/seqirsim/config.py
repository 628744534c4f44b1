"""Run-configuration files: schema, strict validation, round-trip.

A run configuration is a JSON document:

    {
      "generator": [[...], ...],            # N x N rate matrix
      "regimes":   [{"A": ..., "beta": ..., ... "sigma0": ...}, ...],
      "policy":    {"kind": "linear"} | {"kind": "saturating", "a": ...},
      "simulation": {"dt": ..., "horizon": ..., "scheme": ...,
                     "chain_mode": ..., "seed": ..., "stride": ...,
                     "negativity_policy": ...},
      "initial":   {"S": ..., "E": ..., "Q": ..., "I": ..., "R": ...,
                    "regime": ...},
      "ensemble":  {"n": ..., "base_seed": ...}
    }

Validation here is strict (positive recruitment and death rates, precaution
fractions strictly inside (0, 1), regime count matching the generator) so
that bad configs fail at load time with a field-path diagnostic, never mid
simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .chain import Generator, validate_generator
from .errors import ConfigError, MathDomainError
from .integrate import SimulationConfig
from .model import (
    PARAMETER_NAMES,
    EpidemicState,
    PolicyFunction,
    RegimeParameters,
    RegimeParameterTable,
)

_SIM_KEYS = {"dt", "horizon", "scheme", "chain_mode", "seed", "stride", "negativity_policy"}
_INITIAL_KEYS = {"S", "E", "Q", "I", "R", "regime"}


@dataclass(frozen=True)
class RunConfig:
    """Typed view of one configuration file."""

    generator: Generator
    table: RegimeParameterTable
    policy: PolicyFunction
    simulation: SimulationConfig
    ensemble_n: int
    ensemble_base_seed: int

    def to_dict(self) -> dict:
        """Serialize back to the JSON data model (round-trips a loaded file)."""
        sim = self.simulation
        policy: dict = {"kind": self.policy.kind}
        if self.policy.kind == "saturating":
            policy["a"] = self.policy.a
        init = sim.initial_state
        return {
            "generator": [list(row) for row in self.generator.rates],
            "regimes": [
                {name: getattr(r, name) for name in PARAMETER_NAMES}
                for r in self.table.rows
            ],
            "policy": policy,
            "simulation": {
                "dt": sim.dt,
                "horizon": sim.horizon,
                "scheme": sim.scheme,
                "chain_mode": sim.chain_mode,
                "seed": sim.seed,
                "stride": sim.output_stride,
                "negativity_policy": sim.negativity_policy,
            },
            "initial": {"S": init.S, "E": init.E, "Q": init.Q, "I": init.I,
                        "R": init.R, "regime": sim.initial_regime},
            "ensemble": {"n": self.ensemble_n, "base_seed": self.ensemble_base_seed},
        }


def _require(doc: dict, key: str, where: str) -> object:
    if key not in doc:
        raise ConfigError(f"{where}: missing required field '{key}'")
    return doc[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _load_regime(doc: dict, where: str) -> RegimeParameters:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a parameter record")
    unknown = set(doc) - set(PARAMETER_NAMES)
    if unknown:
        raise ConfigError(f"{where}: unknown parameter(s) {sorted(unknown)}")
    values = {name: _number(_require(doc, name, where), f"{where}.{name}")
              for name in PARAMETER_NAMES}
    # strict ranges at load time; the dataclass itself is more permissive
    if values["A"] <= 0:
        raise ConfigError(f"{where}.A: recruitment rate must be > 0")
    if values["xi"] <= 0:
        raise ConfigError(f"{where}.xi: natural death rate must be > 0")
    for frac in ("rho1", "rho2"):
        if not 0 < values[frac] < 1:
            raise ConfigError(f"{where}.{frac}: precaution fraction must lie in (0, 1)")
    for name, v in values.items():
        if v < 0:
            raise ConfigError(f"{where}.{name}: must be >= 0")
    try:
        return RegimeParameters(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file.

    Raises :class:`ConfigError` with a field-path diagnostic on any schema or
    range violation.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")

    unknown = set(doc) - {"generator", "regimes", "policy", "simulation", "initial", "ensemble"}
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")

    raw_gen = _require(doc, "generator", str(path))
    if not isinstance(raw_gen, list) or not all(isinstance(row, list) for row in raw_gen):
        raise ConfigError("generator: expected an array of arrays of numbers")
    raw_gen = [[_number(v, f"generator[{i}][{j}]") for j, v in enumerate(row)]
               for i, row in enumerate(raw_gen)]
    try:
        generator = validate_generator(raw_gen)
    except (MathDomainError, ValueError) as exc:
        raise ConfigError(f"generator: {exc}") from exc

    raw_regimes = _require(doc, "regimes", str(path))
    if not isinstance(raw_regimes, list) or not raw_regimes:
        raise ConfigError("regimes: expected a nonempty array of parameter records")
    rows = tuple(_load_regime(r, f"regimes[{i}]") for i, r in enumerate(raw_regimes))
    if len(rows) != generator.n_states:
        raise ConfigError(
            f"regimes: {len(rows)} parameter records for a "
            f"{generator.n_states}-state generator"
        )
    table = RegimeParameterTable(rows=rows)

    policy = _load_policy(doc.get("policy", {"kind": "linear"}))

    sim_doc = _require(doc, "simulation", str(path))
    init_doc = _require(doc, "initial", str(path))
    simulation = _load_simulation(sim_doc, init_doc, generator.n_states)

    ens = doc.get("ensemble", {"n": 1, "base_seed": simulation.seed})
    if not isinstance(ens, dict):
        raise ConfigError("ensemble: expected an object")
    n = _integer(_require(ens, "n", "ensemble"), "ensemble.n")
    if n < 1:
        raise ConfigError("ensemble.n: must be >= 1")
    base_seed = _integer(_require(ens, "base_seed", "ensemble"), "ensemble.base_seed")
    if not 0 <= base_seed < (1 << 64):
        raise ConfigError("ensemble.base_seed: must fit in 64 bits")

    return RunConfig(generator=generator, table=table, policy=policy,
                     simulation=simulation, ensemble_n=n, ensemble_base_seed=base_seed)


def _load_policy(doc) -> PolicyFunction:
    if not isinstance(doc, dict):
        raise ConfigError("policy: expected an object")
    kind = _require(doc, "kind", "policy")
    if kind == "linear":
        return PolicyFunction.linear()
    if kind == "saturating":
        a = _number(_require(doc, "a", "policy"), "policy.a")
        if a <= 0:
            raise ConfigError("policy.a: saturation coefficient must be > 0")
        return PolicyFunction.saturating(a)
    raise ConfigError(f"policy.kind: must be 'linear' or 'saturating', got {kind!r}")


def _load_simulation(sim_doc, init_doc, n_states: int) -> SimulationConfig:
    if not isinstance(sim_doc, dict):
        raise ConfigError("simulation: expected an object")
    if not isinstance(init_doc, dict):
        raise ConfigError("initial: expected an object")
    unknown = set(sim_doc) - _SIM_KEYS
    if unknown:
        raise ConfigError(f"simulation: unknown field(s) {sorted(unknown)}")
    unknown = set(init_doc) - _INITIAL_KEYS
    if unknown:
        raise ConfigError(f"initial: unknown field(s) {sorted(unknown)}")

    comp = {k: _number(_require(init_doc, k, "initial"), f"initial.{k}")
            for k in ("S", "E", "Q", "I", "R")}
    for k, v in comp.items():
        if v < 0:
            raise ConfigError(f"initial.{k}: compartments must be >= 0")
    regime = _integer(_require(init_doc, "regime", "initial"), "initial.regime")
    if not 1 <= regime <= n_states:
        raise ConfigError(f"initial.regime: must lie in 1..{n_states}")

    dt = _number(_require(sim_doc, "dt", "simulation"), "simulation.dt")
    horizon = _number(_require(sim_doc, "horizon", "simulation"), "simulation.horizon")
    seed = _integer(sim_doc.get("seed", 0), "simulation.seed")
    stride = _integer(sim_doc.get("stride", 1), "simulation.stride")
    try:
        return SimulationConfig(
            dt=dt,
            horizon=horizon,
            initial_state=EpidemicState(**comp),
            initial_regime=regime,
            scheme=sim_doc.get("scheme", "milstein"),
            chain_mode=sim_doc.get("chain_mode", "discretized"),
            seed=seed,
            output_stride=stride,
            negativity_policy=sim_doc.get("negativity_policy", "clamp_to_zero"),
        )
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from exc
