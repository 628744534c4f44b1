"""seqirsim benchmark: closed loops of in-process CLI calls at fixed work.

Usage (from the repository root):

    python3 perfbench/run.py --workload ensemble_sparse --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30 --trace 0

Each run writes the workload's config from a shipped config in
``src/seqirsim/configs`` plus the overrides and the seed (workloads.json),
then calls ``seqirsim.cli.main`` with ``--seed`` over and over until
``--seconds`` have passed; one iteration is the workload's list of CLI calls.
Every call is checked: exit code 0, every output present and finite, and
bytes identical across the iterations of a run.  The first, untimed iteration
of every run is made at the default seed, where each output must also match
the sha256 recorded in workloads.json (the byte gate), so a changed output
byte counts as a failed call whatever the run's seed.

``--trace 0`` reports the end-to-end metrics: median ``wall_s`` of an
iteration, median ``setup_s`` (import of seqirsim.cli plus config load in a
fresh interpreter) and the process's peak RSS.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of
tracing.py, plus ``trace.overhead_s``.  The last line of stdout is the JSON
result; the full record (samples, hashes, provenance, spans) is written
under ``.bench_run/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in child interpreters
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SPEC = json.loads((BENCH / "workloads.json").read_text())
DEFAULT_SEED = SPEC["default_seed"]

SETUP_SAMPLES = 7
SETUP_CODE = ("import time; t0 = time.perf_counter(); import seqirsim.cli as c; "
              "c.load_config({path!r}); print(time.perf_counter() - t0)")
# counts that must repeat exactly for the same seed and code
EXACT_COUNTS = ("integrate.steps", "integrate.members", "integrate.clamp_events",
                "chain.jumps", "cli.csv_rows", "cli.out_bytes")
NON_FINITE = re.compile(rb"(?<![A-Za-z_])-?(nan|inf)(?![A-Za-z_])", re.IGNORECASE)
OUT_SUFFIX = {"simulate": ".csv", "compare-det": ".csv", "chain": ".txt", "thresholds": ".txt"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _set(doc: dict, dotted: str, value) -> None:
    *parents, leaf = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


class Workload:
    """One workload's generated config, CLI calls and output checks."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        spec = SPEC["workloads"][name]
        self.dir = RUN_DIR / name / f"seed{seed}{'-tiny' if tiny else ''}"
        self.out = self.dir / "out"
        self.dir.mkdir(parents=True, exist_ok=True)

        doc = json.loads((SRC / "seqirsim" / "configs" / spec["base_config"]).read_text())
        for key, value in {**spec["set"], **(spec["tiny_set"] if tiny else {})}.items():
            _set(doc, key, value)
        doc["generator"] = [[v * spec["generator_scale"] for v in row]
                            for row in doc["generator"]]
        doc["simulation"]["seed"] = seed
        doc["ensemble"]["base_seed"] = seed
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(text)
        self.config_sha256 = _sha256(text.encode())

        from seqirsim.integrate import derive_seed
        self.calls = []
        for command in spec["calls"]:
            if command == "ensemble":
                n = doc["ensemble"]["n"]
                outputs = [f"ensemble/traj_{i:03d}_seed_{derive_seed(seed, i)}.csv"
                           for i in range(n)] + ["ensemble/summary.txt"]
                target = "ensemble"
            else:
                target = command + OUT_SUFFIX[command]
                outputs = [target]
            argv = [command, "--config", str(self.config_path), "--out",
                    str(self.out / target), "--seed", str(seed), "--quiet"]
            self.calls.append((argv, outputs))

        # the byte gate applies to the full-size workload at the default seed
        self.expected = spec["sha256"] if seed == DEFAULT_SEED and not tiny else None
        self.reference: dict[str, str] = {}
        self.hashes: dict[str, str] = {}
        self.out_bytes = 0
        self.attempted = 0
        self.failed = 0

    def iterate(self, cli) -> float:
        """Run the workload's CLI calls once; returns their wall time in s."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        codes = []
        t0 = time.perf_counter()
        for argv, _ in self.calls:
            try:
                codes.append(cli.main(argv))
            except (Exception, SystemExit) as exc:  # a traceback is a failed call
                codes.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0

        self.out_bytes = 0
        for (argv, outputs), code in zip(self.calls, codes):
            self.attempted += 1
            problems = ([f"exit {code}"] if code != 0 else []) + self._check(outputs)
            if problems:
                self.failed += 1
                print(f"FAILED {argv[0]}: {'; '.join(problems)}", file=sys.stderr)
        return wall

    def _check(self, outputs: list[str]) -> list[str]:
        problems = []
        for rel in outputs:
            path = self.out / rel
            if not path.is_file():
                problems.append(f"{rel} missing")
                continue
            data = path.read_bytes()
            self.out_bytes += len(data)
            digest = _sha256(data)
            self.hashes[rel] = digest
            if not data or NON_FINITE.search(data):
                problems.append(f"{rel} empty or non-finite")
            if self.reference.setdefault(rel, digest) != digest:
                problems.append(f"{rel} bytes differ from the run's first iteration")
            if self.expected is not None and self.expected.get(rel) != digest:
                problems.append(f"{rel} sha256 {digest} differs from the recorded one")
        return problems


def cli_modules() -> dict:
    from seqirsim import analysis, chain, cli, integrate, thresholds
    return {"analysis": analysis, "chain": chain, "cli": cli,
            "integrate": integrate, "thresholds": thresholds}


def setup_times(config_path: Path) -> list[float]:
    """Import of seqirsim.cli plus config load, each in a fresh interpreter.

    The first sample is discarded: it may compile the bytecode cache, which a
    user pays once, not per run.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    code = SETUP_CODE.format(path=str(config_path))
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(res.stdout.split()[-1]))
    return times[1:]


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "seqirsim").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(w: Workload, seed: int) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_sha256(),
        "seed": seed,
        "config_sha256": w.config_sha256,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "gcc": shutil.which("gcc") is not None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, layer_metrics

    w = Workload(name, seed)
    setup = setup_times(w.config_path) if not trace else []
    modules = cli_modules()
    tracer = Tracer()
    walls, traced_walls, layers = [], [], []
    # One untimed iteration first, at the default seed so that the byte gate
    # applies on every run whatever its seed.  It also takes the costs of the
    # first iteration in a process (heap growth, lazy imports).
    checked = [w] if seed == DEFAULT_SEED else [w, Workload(name, DEFAULT_SEED)]
    checked[-1].iterate(modules["cli"])
    deadline = time.perf_counter() + seconds
    i = 0
    # trace runs alternate untraced and traced iterations, so the difference
    # of their medians is the tracing overhead
    while i < (2 if trace else 1) or time.perf_counter() < deadline:
        if trace and i % 2:
            with tracer.patched(modules, run_id=i):
                traced_walls.append(w.iterate(modules["cli"]))
            layers.append({**layer_metrics(tracer.spans, i), "cli.out_bytes": w.out_bytes})
        else:
            walls.append(w.iterate(modules["cli"]))
        i += 1

    result = {"workload": name, "seed": seed, "trace": int(trace), "iterations": i,
              "attempted": sum(x.attempted for x in checked),
              "failed": sum(x.failed for x in checked),
              "hashes": w.hashes, "provenance": provenance(w, seed),
              "samples": {"wall_s": walls}}
    counts_ok = True
    if trace:
        # median_low keeps counts whole and every value one that was measured
        metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
        for key in EXACT_COUNTS:
            values = {m[key] for m in layers}
            if len(values) != 1:
                counts_ok = False
                print(f"COUNT MISMATCH {key}: {sorted(values)}", file=sys.stderr)
        counts_ok &= _counts_repeat(w, result["provenance"]["source_sha256"],
                                    {key: layers[0][key] for key in EXACT_COUNTS})
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        # share of the CLI time spent in the layers the workload is meant to stress
        purpose = SPEC["workloads"][name]["purpose"]
        share = sum(metrics[key] for key in purpose["numerator"]) / metrics["main_ms"]
        result["purpose"] = {**purpose, "measured": share, "met": share >= purpose["at_least"]}
        result["samples"]["traced_wall_s"] = traced_walls
        spans_path = RUN_DIR / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        result["samples"]["setup_s"] = setup
    result["metrics"] = metrics
    for x in checked:  # the outputs were checked per iteration; only the config stays
        shutil.rmtree(x.out, ignore_errors=True)
    result["correct"] = result["failed"] == 0 and counts_ok
    return result


def _counts_repeat(w: Workload, source: str, counts: dict) -> bool:
    """Compare exact counts with an earlier traced run of the same seed and code."""
    path = w.dir / f"counts-{source[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        if before != counts:
            print(f"COUNT MISMATCH with an earlier run: {before} != {counts}", file=sys.stderr)
            return False
    path.write_text(json.dumps(counts))
    return True


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    trace = bool(result["trace"])
    samples = result["samples"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(trace)}  "
          f"timed iterations {result['iterations']}")
    out = {}
    for m in declared_metrics(trace):
        value = result["metrics"][m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        n = {"wall_s": len(samples["wall_s"]), "setup_s": len(samples.get("setup_s", ())),
             "peak_rss_mb": 1}.get(m["name"], len(samples.get("traced_wall_s", ())))
        print(f"  {m['name']:<28} {value:>14.6g} {m['unit']:<6} (n={n})")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<28} {rate:>14.6g} {'1':<6} "
          f"({result['failed']} of {result['attempted']} CLI calls failed)")
    if "purpose" in result:
        p = result["purpose"]
        print(f"  share of cli.main in {' + '.join(p['numerator'])} = {p['measured']:.3f} "
              f"(expected >= {p['at_least']}: {'met' if p['met'] else 'NOT met'})")
    for rel, digest in sorted(result["hashes"].items()):
        print(f"  sha256 {digest}  {rel}")
    print(f"  provenance {json.dumps(result['provenance'], sort_keys=True)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqirsim" / "cli.py").is_file():
        print(f"seqirsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":  # each workload in its own process, for its own peak RSS
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in SPEC["workloads"]]
        return max(codes)

    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
