"""In-memory spans around the seqirsim functions the CLI calls.

The tracer patches public functions at the module attributes where the CLI
(or the function calling them) looks them up, so no file of the package is
changed.  Each span records name, start, end, parent index and run id (one
run id per benchmark iteration), plus the work counts taken from the call's
arguments or result.  ``layer_metrics`` turns the spans of one iteration into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


def _simulate_counts(args, out):
    return {"steps": args[0].n_steps, "clamps": int(out.metadata["clamp_events"])}


def _rk4_counts(args, out):
    config = out.metadata["config"]
    return {"steps": int(round(config["horizon"] / config["dt"]))}


def _path_counts(args, out):
    return {"jumps": out.n_jumps}


def _csv_counts(args, out):
    return {"rows": len(args[0])}


# (module, attribute, span name, counter); a function imported by name into
# several modules is patched at each attribute the traced code looks up.
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "config.load", None),
    ("cli", "simulate", "integrate.simulate", _simulate_counts),
    ("integrate", "simulate", "integrate.simulate", _simulate_counts),
    ("cli", "simulate_deterministic", "integrate.rk4", _rk4_counts),
    ("integrate", "sample_path_exact", "chain.sample_path", _path_counts),
    ("integrate", "sample_path_discretized", "chain.sample_path", _path_counts),
    ("chain", "sample_path_exact", "chain.sample_path", _path_counts),
    ("chain", "sample_path_discretized", "chain.sample_path", _path_counts),
    ("chain", "transition_matrix", "chain.transition_matrix", None),
    ("chain", "stationary_distribution", "chain.stationary", None),
    ("thresholds", "stationary_distribution", "chain.stationary", None),
    ("chain", "occupancy", "chain.occupancy", None),
    ("cli", "write_trajectory_csv", "cli.csv", _csv_counts),
    ("thresholds", "threshold_report", "thresholds.report", None),
    ("analysis", "summarize_ensemble", "analysis.summarize", None),
)


class Tracer:
    """Collects spans in memory; ``patched`` installs the wrappers."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, out))
            return out
        return traced

    @contextmanager
    def patched(self, modules: dict, run_id: int):
        """Wrap every attribute in PATCHES for the duration of the block."""
        self.run_id = run_id
        saved = []
        for mod, attr, name, counter in PATCHES:
            module = modules[mod]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, counter))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], run_id: int) -> dict:
    """Per-layer times (ms) and counts of the spans of one run id.

    A span's self time is its duration minus that of its direct children;
    children never overlap because the traced code is single-threaded.
    """
    dur = {i: (s["end"] - s["start"]) * 1e3 for i, s in enumerate(spans)
           if s["run"] == run_id}
    child_ms = dict.fromkeys(dur, 0.0)
    for i in dur:
        if spans[i]["parent"] is not None:
            child_ms[spans[i]["parent"]] += dur[i]

    def named(name):
        return [i for i in dur if spans[i]["name"] == name]

    def total(name, key=None):
        return sum(spans[i][key] if key else dur[i] for i in named(name))

    def self_ms(name):
        return sum(dur[i] - child_ms[i] for i in named(name))

    m = {
        "integrate.simulate_self_ms": self_ms("integrate.simulate"),
        "integrate.steps": total("integrate.simulate", "steps"),
        "integrate.members": len(named("integrate.simulate")),
        "integrate.clamp_events": total("integrate.simulate", "clamps"),
        "integrate.rk4_ms": total("integrate.rk4"),
        "integrate.rk4_steps": total("integrate.rk4", "steps"),
        "chain.sample_path_ms": total("chain.sample_path"),
        "chain.paths": len(named("chain.sample_path")),
        "chain.jumps": total("chain.sample_path", "jumps"),
        "chain.transition_matrix_ms": total("chain.transition_matrix"),
        "chain.stationary_ms": total("chain.stationary"),
        "chain.occupancy_ms": total("chain.occupancy"),
        "cli.csv_ms": total("cli.csv"),
        "cli.csv_rows": total("cli.csv", "rows"),
        "cli.self_ms": self_ms("cli.main"),
        "config.load_ms": total("config.load"),
        "thresholds.report_ms": total("thresholds.report"),
        "analysis.summarize_ms": total("analysis.summarize"),
        "main_ms": total("cli.main"),
    }
    m["integrate.ns_per_step"] = _ratio(m["integrate.simulate_self_ms"] * 1e6,
                                        m["integrate.steps"])
    m["integrate.rk4_ns_per_step"] = _ratio(m["integrate.rk4_ms"] * 1e6,
                                            m["integrate.rk4_steps"])
    m["chain.us_per_jump"] = _ratio(m["chain.sample_path_ms"] * 1e3, m["chain.jumps"])
    m["cli.us_per_row"] = _ratio(m["cli.csv_ms"] * 1e3, m["cli.csv_rows"])
    return m
