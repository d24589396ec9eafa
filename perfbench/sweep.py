"""Run the benchmark over several seeds and collect one result set.

Usage::

    python3 perfbench/sweep.py --out SET.jsonl --seeds 1-10 \\
        [--workloads run-cold,serve-v1] [--seconds 15] [--trace 0]

Runs execute one after another (never concurrently: they would contend
for the same cores), each as its own process exactly as a user would run
it, and append to ``SET.jsonl``; the wall time of every run is printed.
Summarize or compare sets with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 f"{args.seconds:g}", "--trace", str(args.trace),
                 "--out", str(args.out)],
                capture_output=True, text=True, cwd=str(HERE.parent))
            wall = time.perf_counter() - start
            status = "ok" if proc.returncode == 0 else \
                f"exit {proc.returncode}"
            print(f"{workload:13s} seed={seed:<4d} {wall:7.1f}s {status}",
                  flush=True)
            if proc.returncode != 0:
                failures += 1
                print(proc.stderr[-3000:], file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
