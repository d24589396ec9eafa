"""Summarize one result set, or compare two, against BENCHMARK.json.

A result set is a JSON-lines file written by ``run.py --out`` (one line
per run; ``sweep.py`` makes one).  Usage::

    python3 perfbench/compare.py SET.jsonl            # spread of one set
    python3 perfbench/compare.py OLD.jsonl NEW.jsonl  # classify changes

For every (metric, workload) pair it prints the median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread — the quartile
distance as a share of the median.  With two sets, each end-to-end pair
is marked against the metric's bound:

* ``regressed``  — the new median is worse by more than the bound;
* ``improved``   — better by more than the old set's spread, and the new
  run beats the old one in at least 90% of all (new, old) pairings;
* ``unchanged``  — neither;
* ``unresolved`` — either set spreads wider than the bound and the runs
  do not separate completely (every new run better, or every one worse).

Per-layer metrics have no bound; their medians and change are shown for
attribution only.  Exits 1 when any end-to-end pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(path: Path) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over every run in the file."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            workload = record["header"]["workload"]
            for name, metric in record["result"]["metrics"].items():
                values[(workload, name)].append(float(metric["value"]))
    return values


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, spread)``; spread is (q3 - q1) / |median|."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    if q3 == q1:
        spread = 0.0
    else:
        spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def classify(old: List[float], new: List[float], better: str,
             bound: float) -> str:
    old_med, _, _, old_spread = summary(old)
    new_med, _, _, new_spread = summary(new)
    worse = worse_by(old_med, new_med, better)

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    pairs = [(n, o) for n in new for o in old]
    wins = sum(beats(n, o) for n, o in pairs) / len(pairs)
    losses = sum(beats(o, n) for n, o in pairs) / len(pairs)
    if max(old_spread, new_spread) > bound:
        if wins == 1.0:
            return "improved"
        if losses == 1.0:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > old_spread and wins >= 0.9:
        return "improved"
    return "unchanged"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="+", type=Path,
                        help="one result set, or OLD NEW")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one result set, or two to compare")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    sets = [load_set(path) for path in args.sets]
    keys = sorted(set().union(*sets),
                  key=lambda k: (k[0], k[1] not in e2e, k[1]))
    regressed = 0
    for workload, name in keys:
        meta = e2e.get(name) or layers.get(name)
        if meta is None:
            continue
        columns = []
        for values in sets:
            if (workload, name) not in values:
                columns.append(None)
                continue
            med, q1, q3, spread = summary(values[(workload, name)])
            columns.append(f"n={len(values[(workload, name)]):<2d} "
                           f"med={med:<12.6g} q1={q1:<12.6g} "
                           f"q3={q3:<12.6g} spread={spread:7.2%}")
        line = f"{workload:13s} {name:26s} " + " | ".join(
            c or "(absent)" for c in columns)
        if name in e2e and len(sets) == 1 and columns[0] is not None:
            spread = summary(sets[0][(workload, name)])[3]
            bound = e2e[name]["bound"]
            line += f"  bound={bound:.0%}"
            if name != "setup_s" and spread > bound:
                line += "  OUT OF BOUND"
            elif spread > bound / 3:
                line += "  (above a third of the bound)"
        if len(sets) == 2 and None not in columns:
            old, new = (s[(workload, name)] for s in sets)
            worse = worse_by(statistics.median(old), statistics.median(new),
                             meta["better"])
            line += f"  change={-worse:+.2%}"
            if name in e2e:
                status = classify(old, new, meta["better"],
                                  e2e[name]["bound"])
                regressed += status == "regressed"
                line += f"  {status.upper()}"
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
