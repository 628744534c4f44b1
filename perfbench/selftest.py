"""Self-test of the benchmark at a tiny size (a few seconds in all).

    python3 perfbench/selftest.py

For every workload, at the tiny sizes of workloads.json: one iteration runs
with no failed CLI call; a traced iteration yields every per-layer metric of
BENCHMARK.json; the bytes are identical on a second iteration, so gating on
the hashes just taken passes; and gating on a deliberately wrong hash counts
a failed call (its FAILED line on stderr is expected).  Exits 0 when every
check holds.
"""

from __future__ import annotations

import sys

import run  # sets the thread pins before numpy is imported
from tracing import Tracer, layer_metrics


def check_workload(name: str, modules: dict) -> list[str]:
    cli = modules["cli"]
    errors = []
    w = run.Workload(name, run.DEFAULT_SEED, tiny=True)
    w.iterate(cli)
    if w.failed:
        errors.append(f"{name}: {w.failed} of {w.attempted} calls failed")

    tracer = Tracer()
    with tracer.patched(modules, run_id=1):
        w.iterate(cli)
    layers = {**layer_metrics(tracer.spans, 1), "cli.out_bytes": w.out_bytes}
    missing = [m["name"] for m in run.declared_metrics(trace=True)
               if m["name"] not in layers and m["name"] != "trace.overhead_s"]
    if missing:
        errors.append(f"{name}: per-layer metrics missing: {missing}")

    w.expected = dict(w.hashes)
    before = w.failed
    w.iterate(cli)
    if w.failed != before:
        errors.append(f"{name}: gating on its own hashes failed")

    rel = sorted(w.expected)[0]
    w.expected[rel] = "0" * 64
    w.iterate(cli)
    if w.failed == before:
        errors.append(f"{name}: a wrong expected hash for {rel} was not counted")
    return errors


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.RUN_DIR.mkdir(exist_ok=True)
    modules = run.cli_modules()
    errors = [e for name in run.SPEC["workloads"] for e in check_workload(name, modules)]
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
