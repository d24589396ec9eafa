"""The repository's layered benchmark: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload run-cold --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``run-cold``     — ``repro.api.run`` of SeqGRD-NM and SupGRD on NetHEPT;
* ``build-pa200k`` — edge-list load + streaming index build, 200k nodes;
* ``serve-v1``     — v1 SeqGRD-NM specs against a ``repro serve`` process;
* ``serve-drift``  — legacy queries + ``apply-delta`` repairs, replayed.

Inputs are generated from ``--seed``; the program sees only the graph,
specs and traces.  ``--trace 0`` measures the end-to-end metrics with no
benchmark tracing; ``--trace 1`` runs an untraced phase then a traced
one and reports the per-layer metrics (``PER_LAYER``) — every layer
metric is printed on every workload, and reads 0 where the workload does
not exercise that layer.  Per-layer times and counts are per operation
of the workload (one run, one build or one request).  Outputs are
checked for correctness; the last stdout line is the JSON result.
``--tiny`` shrinks every workload for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, WORK_ROOT, dumps, make_workdir  # noqa: E402

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ok_frac": "ratio",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "welfare": "utility",
}

#: per-layer metrics, grouped by module: name -> unit
PER_LAYER = {
    "graphs.load_s": "s",
    "engine.sample_s": "s",
    "engine.rr_sets": "count",
    "engine.rr_sets_per_s": "1/s",
    "engine.members_per_set": "count",
    "diffusion.welfare_s": "s",
    "diffusion.worlds": "count",
    "rrsets.select_s": "s",
    "rrsets.select_loop_s": "s",
    "rrsets.gains_init_s": "s",
    "rrsets.select_calls": "count",
    "rrsets.theta.seqgrd_nm": "count",
    "rrsets.theta.supgrd": "count",
    "rrsets.cap_hit": "count",
    "core.self_s": "s",
    "api.run_s.seqgrd_nm": "s",
    "api.run_s.supgrd": "s",
    "api.welfare.seqgrd_nm": "utility",
    "api.welfare.supgrd": "utility",
    "api.parse_ms": "ms",
    "api.validate_ms": "ms",
    "index.invert_s": "s",
    "index.spill_s": "s",
    "index.pool_start_s": "s",
    "index.array_bytes": "bytes",
    "index.save_s": "s",
    "index.load_s": "s",
    "index.cache_hit_rate": "ratio",
    "serve.queue_ms": "ms",
    "serve.execute_ms": "ms",
    "serve.respond_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "serve.reload_ms": "ms",
    "serve.repair_p50_ms": "ms",
    "serve.repair_p90_ms": "ms",
    "dynamic.repair_ms": "ms",
    "dynamic.repaired_frac": "ratio",
    "dynamic.persist_ms": "ms",
    "dynamic.rescan_ms": "ms",
    "obs.trace_overhead_pct": "%",
}

WORKLOADS = ("run-cold", "build-pa200k", "serve-v1", "serve-drift")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: Path


def _runner(workload: str):
    if workload == "run-cold":
        from run_cold import run_workload
        return run_workload
    if workload == "build-pa200k":
        from build_pa import run_workload
        return run_workload
    from serve import run_drift, run_v1
    return run_v1 if workload == "serve-v1" else run_drift


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record_header(ctx: Context, workload_header) -> dict:
    import numpy

    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "workload": ctx.workload,
            "seed": ctx.seed, "seconds": ctx.seconds,
            "trace": int(ctx.trace), "tiny": ctx.tiny,
            **workload_header}


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: every metric of the requested kind."""
    if trace:
        catalog = PER_LAYER
        values = {name: outcome.layers.get(name, 0.0) for name in catalog}
    else:
        catalog = END_TO_END
        values = dict(outcome.e2e, ok_frac=outcome.tally.ok_frac)
        missing = sorted(set(catalog) - set(values))
        if missing:
            raise RuntimeError(f"workload measured no {missing}")
    unknown = sorted(set(outcome.layers) - set(PER_LAYER))
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {unknown}")
    return {"correct": outcome.tally.failed == 0,
            "attempted": outcome.tally.attempted,
            "failed": outcome.tally.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in catalog.items()}}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke tests)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the header and result as one JSON "
                             "line to this file (input of compare.py)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its server and worker pools
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  tiny=args.tiny, workdir=make_workdir(args.workload))
    try:
        outcome = _runner(args.workload)(ctx)
    finally:
        from repro.index.pool import shutdown_worker_pools

        shutdown_worker_pools()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    header = record_header(ctx, outcome.header)
    result = result_line(outcome, ctx.trace)
    print(f"# header {dumps(header)}")
    for failure in outcome.tally.failures:
        print(f"# FAILED {failure}")
    for name, metric in result["metrics"].items():
        note = outcome.notes.get(name)
        print(f"{args.workload:13s} {name:26s} {metric['value']:>16.6g} "
              f"{metric['unit']}" + (f"  ({note})" if note else ""))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(dumps({"header": header, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
