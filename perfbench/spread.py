"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --out spread.json

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, and
reports for every metric the median and the quartile spread (Q3 - Q1) / median
of its values, with the quartiles of ``statistics.quantiles(values, n=4)``.
A run whose result is not correct stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    spec = json.loads((BENCH / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args()

    summary = {"seconds": float(args.seconds), "seeds": parse_seeds(args.seeds), "workloads": {}}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, cwd=BENCH.parent)
            if proc.returncode or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            for key, metric in json.loads(proc.stdout.splitlines()[-1])["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        rows = summary["workloads"][name] = {}
        for key, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[key] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median, "values": vals}
            print(f"{name:<18} {key:<12} median {median:<12.6g} "
                  f"spread {(q3 - q1) / median:.4f}  (n={len(vals)})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
