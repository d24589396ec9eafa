"""Command-line interface for the CWelMax reproduction.

The CLI wraps the most common workflows so they can be driven from a shell
or a job scheduler without writing Python:

* ``repro networks`` — list the benchmark networks and their statistics.
* ``repro generate`` — write a synthetic stand-in network to an edge list.
* ``repro run`` — run one seed-selection algorithm on a network and utility
  configuration and report the allocation, welfare and adoption counts.
* ``repro experiment`` — regenerate one of the paper's figures or tables and
  print it as a text table.
* ``repro learn`` — learn item utilities from a selection-log file
  (``user-selections`` as comma-separated items per line).
* ``repro index build`` / ``repro index query`` — persist the RR-set
  collection of a run as an on-disk index, then answer allocation queries
  against it without resampling (stale indexes are fingerprint-rejected).
* ``repro serve`` — long-lived JSON-lines allocation service over one or
  more loaded indexes; speaks both the versioned
  :mod:`repro.api.protocol` dialect (``{"v": 1, "spec": {...}}``) and the
  legacy ``{"op": "query", ...}`` dialect, over ``--stdio`` (default),
  ``--tcp HOST:PORT`` and/or ``--unix PATH`` — every transport through
  one request pipeline, in which every request crosses to the worker
  thread once (see :mod:`repro.serve`); ``SIGHUP`` or the ``reload`` op
  hot-reloads the index registry.

The ``run`` and ``index build`` subcommands share argument groups
generated from the :class:`~repro.api.WorkloadSpec` and
:class:`~repro.api.EngineConfig` dataclass fields (see
:mod:`repro.api.cliargs`), so every workload/engine knob is declared once.

Invoke with ``python -m repro <command> --help`` (or ``python -m
repro.cli``) for per-command options.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.allocation import Allocation
from repro.api.cliargs import (
    add_algorithm_argument,
    add_engine_arguments,
    add_workload_arguments,
    budgets_argument,
    engine_from_args,
    runspec_from_args,
    tcp_address_argument,
    workload_from_args,
)
from repro.api.runner import load_graph, resolve_workload, run as run_spec
from repro.diffusion.estimators import estimate_welfare
from repro.exceptions import ReproError
from repro.experiments import (
    figure3,
    figure4,
    figure5,
    figure6_blocking,
    figure6_items,
    figure6_scalability,
    figure7,
    format_table,
    get_scale,
    table2,
    table5,
    table6,
)
from repro.graphs.datasets import NETWORKS, load_network, network_statistics
from repro.graphs.loaders import write_edge_list
from repro.index import SAMPLER_KINDS, build_index
from repro.utility.configs import CONFIGURATIONS, configuration_model  # noqa: F401 (CONFIGURATIONS re-exported for callers)
from repro.utility.learning import learn_utilities

#: experiment name -> callable used by ``repro experiment``
EXPERIMENTS = {
    "table2": table2,
    "table5": lambda scale: table5(rng=get_scale(scale).seed),
    "table6": table6,
    "figure3": figure3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6-items": figure6_items,
    "figure6-blocking": figure6_blocking,
    "figure6-scalability": figure6_scalability,
    "figure7": figure7,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Competitive social welfare maximization (CWelMax) "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # networks ---------------------------------------------------------
    networks = sub.add_parser("networks",
                              help="list benchmark networks and statistics")
    networks.add_argument("--scale", type=float, default=None,
                          help="fraction of the published node count")
    networks.add_argument("--seed", type=int, default=2020)
    networks.add_argument("--stats", action="store_true",
                          help="generate the stand-ins and print statistics")

    # generate ---------------------------------------------------------
    generate = sub.add_parser("generate",
                              help="write a synthetic network to an edge list")
    generate.add_argument("network", choices=sorted(NETWORKS))
    generate.add_argument("output", type=Path)
    generate.add_argument("--scale", type=float, default=None)
    generate.add_argument("--seed", type=int, default=2020)
    generate.add_argument("--weighting", default="weighted_cascade",
                          choices=["weighted_cascade", "uniform", "none"])

    # run ----------------------------------------------------------------
    run = sub.add_parser("run", help="run one seed-selection algorithm")
    add_algorithm_argument(run)
    add_workload_arguments(run)
    add_engine_arguments(run)
    run.add_argument("--json", action="store_true",
                     help="print machine-readable JSON instead of text")

    # index --------------------------------------------------------------
    index = sub.add_parser("index",
                           help="build and query persistent RR-set indexes")
    index_sub = index.add_subparsers(dest="index_command", required=True)

    build = index_sub.add_parser(
        "build", help="sample an RR-set index once and persist it")
    build.add_argument("--out", type=Path, required=True,
                       help="index path stem (writes <out>.npz + "
                            "<out>.manifest.json)")
    build.add_argument("--sampler", default="marginal",
                       choices=sorted(SAMPLER_KINDS),
                       help="RR-set kind: 'marginal' serves SeqGRD-NM, "
                            "'weighted' serves SupGRD, 'standard' serves "
                            "plain top-k selection")
    add_workload_arguments(build)
    add_engine_arguments(build, exclude=("samples", "marginal_samples",
                                         "pool_size"))
    build.add_argument("--stream", action="store_true",
                       help="standard sampler only: spill RR-set chunks "
                            "straight to the on-disk v2 layout (bounded "
                            "working set; bit-identical to an in-RAM "
                            "build)")
    build.add_argument("--rr-sets", type=int, default=None,
                       help="with --stream: skip adaptive IMM and sample "
                            "exactly this many RR sets (fixed θ)")
    build.add_argument("--chunk-sets", type=int, default=None,
                       help="with --stream: RR sets per spilled chunk "
                            "(rounded up to a shard multiple)")
    build.add_argument("--repairable", action="store_true",
                       help="standard sampler only: sample with keyed "
                            "per-(set, edge) coins so the index supports "
                            "incremental 'repro index repair' after graph "
                            "deltas (requires --rr-sets: adaptive θ would "
                            "break set identity)")
    build.add_argument("--json", action="store_true")

    repair = index_sub.add_parser(
        "repair", help="apply a graph-delta batch to a repairable index "
                       "in place (resamples only the touched RR sets; a "
                       "zero-op delta is fingerprint-identical)")
    repair.add_argument("--index", type=Path, required=True,
                        help="index path stem (or its .npz/.manifest.json)")
    repair.add_argument("--delta", type=Path, required=True,
                        help="JSON file with {add_nodes, remove_nodes, "
                             "add_edges, remove_edges, update_edges}")
    repair.add_argument("--no-verify", action="store_true",
                        help="skip the fingerprint check against the "
                             "freshly rebuilt graph/configuration")
    repair.add_argument("--json", action="store_true")

    info = index_sub.add_parser(
        "info", help="describe a persisted index from its manifest "
                     "(no arrays are loaded)")
    info.add_argument("path", type=Path,
                      help="index path stem (or its .npz/.manifest.json)")
    info.add_argument("--json", action="store_true")

    query = index_sub.add_parser(
        "query", help="answer an allocation query from a persisted index")
    query.add_argument("--index", type=Path, required=True,
                       help="index path stem (or its .npz/.manifest.json)")
    query.add_argument("--algorithm", default=None,
                       choices=["select", "SeqGRD-NM", "SupGRD"],
                       help="defaults to the algorithm the index was "
                            "built for")
    query.add_argument("--budget", type=int, default=None)
    query.add_argument("--budgets", type=budgets_argument, default=None,
                       help="per-item budgets as JSON "
                            "('{\"i\": 10, \"j\": 5}') or pairs "
                            "('i=10,j=5')")
    query.add_argument("--samples", type=int, default=0,
                       help="Monte-Carlo samples for an optional welfare "
                            "estimate of the served allocation (0 = skip)")
    query.add_argument("--no-verify", action="store_true",
                       help="skip the fingerprint check against the "
                            "freshly rebuilt graph/configuration")
    query.add_argument("--json", action="store_true")

    # serve --------------------------------------------------------------
    serve = sub.add_parser(
        "serve", help="JSON-lines allocation service over persisted "
                      "indexes (versioned {'v': 1, 'spec': ...} protocol "
                      "plus the legacy {'op': ...} dialect) — stdio by "
                      "default, concurrent over --tcp/--unix")
    serve.add_argument("--index", type=Path, action="append", default=[],
                       help="index path stem to host (repeatable)")
    serve.add_argument("--index-dir", type=Path, default=None,
                       help="directory scanned for *.manifest.json "
                            "indexes (lazily loaded, hot-reloaded on "
                            "SIGHUP or the 'reload' op)")
    serve.add_argument("--tcp", type=tcp_address_argument, default=None,
                       metavar="HOST:PORT",
                       help="serve concurrent clients over TCP "
                            "(port 0 picks a free port)")
    serve.add_argument("--unix", type=Path, default=None, metavar="PATH",
                       help="serve concurrent clients over a unix socket")
    serve.add_argument("--stdio", action="store_true",
                       help="serve stdin/stdout until stdin closes "
                            "(default when neither --tcp nor --unix is "
                            "given)")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="per-index LRU entry cap for distinct query "
                            "results")
    serve.add_argument("--max-indexes", type=int, default=4,
                       help="LRU capacity for concurrently loaded indexes")
    serve.add_argument("--max-line-bytes", type=int, default=None,
                       help="frame cap; longer request lines get an "
                            "oversized-request envelope (default 1 MiB)")
    serve.add_argument("--no-mmap", action="store_true",
                       help="materialize index arrays in RAM instead of "
                            "serving v2 indexes off the page cache")
    serve.add_argument("--memory-budget-mb", type=float, default=None,
                       metavar="MB",
                       help="evict least-recently-used indexes beyond "
                            "this resident-byte budget (mmap-served "
                            "arrays count zero)")
    serve.add_argument("--no-verify", action="store_true")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       metavar="N",
                       help="admission bound on queries (v1 specs and "
                            "legacy query ops) admitted and not yet "
                            "answered; beyond it new work is shed with a "
                            "typed 'overloaded' envelope carrying "
                            "queue_depth and retry_after_ms (default 256; "
                            "0 disables admission control)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="RPS",
                       help="per-connection token-bucket rate limit in "
                            "requests/second (ping/stats/metrics/reload/"
                            "apply-delta stay exempt; default: "
                            "unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       metavar="N",
                       help="token-bucket burst size (default: 2x the "
                            "rate limit)")
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="deadline applied to requests that carry no "
                            "deadline_ms of their own")
    serve.add_argument("--max-deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="ceiling client deadline_ms values are "
                            "clamped to")
    serve.add_argument("--drain-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="graceful-shutdown drain budget; connections "
                            "still busy when it expires get a typed "
                            "'shutting-down' envelope before the close "
                            "(default 10)")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="arm deterministic fault injection, e.g. "
                            "'registry-load:0.3,stall-write:0.2:50' "
                            "(sites: registry-load, slow-selection, "
                            "stall-write, disconnect); also via "
                            "REPRO_FAULTS")
    serve.add_argument("--fault-seed", type=int, default=None, metavar="N",
                       help="seed for the fault-injection RNG streams "
                            "(default 0; also via REPRO_FAULT_SEED)")
    serve.add_argument("--metrics-tcp", type=tcp_address_argument,
                       default=None, metavar="HOST:PORT",
                       help="expose GET /metrics (Prometheus text format) "
                            "and GET /healthz on a dedicated HTTP "
                            "listener")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable metrics recording (the ops surface "
                            "still answers, with empty instruments)")
    serve.add_argument("--log-level", default="info",
                       choices=["debug", "info", "warning", "error"],
                       help="structured event log level (stderr)")
    serve.add_argument("--log-json", action="store_true",
                       help="emit structured events as one JSON object "
                            "per line instead of key=value text")

    # metrics ------------------------------------------------------------
    metrics = sub.add_parser(
        "metrics", help="query a running repro serve process and "
                        "pretty-print its metrics")
    metrics_source = metrics.add_mutually_exclusive_group(required=True)
    metrics_source.add_argument("--tcp", type=tcp_address_argument,
                                default=None, metavar="HOST:PORT",
                                help="JSON-lines endpoint of the server "
                                     "(sends the 'stats' op)")
    metrics_source.add_argument("--unix", type=Path, default=None,
                                metavar="PATH",
                                help="unix-socket endpoint of the server")
    metrics_source.add_argument("--http", type=tcp_address_argument,
                                default=None, metavar="HOST:PORT",
                                help="scrape the --metrics-tcp exporter "
                                     "and print the raw Prometheus text")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw stats payload as JSON")
    metrics.add_argument("--timeout", type=float, default=10.0,
                         help="socket timeout in seconds")

    # replay -------------------------------------------------------------
    replay = sub.add_parser(
        "replay", help="replay a seeded query/delta trace against a "
                       "repairable index served in-process (throughput, "
                       "repair latency and staleness over time); exits 1 "
                       "when any replayed event errored")
    replay.add_argument("--index", type=Path, required=True,
                        help="repairable index path stem (or its "
                             ".npz/.manifest.json)")
    replay.add_argument("--queries", type=int, default=50,
                        help="number of legacy query requests in the trace")
    replay.add_argument("--deltas", type=int, default=5,
                        help="number of interleaved graph-delta batches")
    replay.add_argument("--fraction", type=float, default=0.01,
                        help="edge fraction each delta touches")
    replay.add_argument("--seed", type=int, default=2020,
                        help="trace-generation seed")
    replay.add_argument("--budgets", default=(5, 10, 20),
                        type=lambda s: tuple(int(b) for b in s.split(",")),
                        metavar="K1,K2,...",
                        help="query budget pool (default 5,10,20)")
    replay.add_argument("--in-place", action="store_true",
                        help="repair the index where it lives instead of "
                             "replaying against a temporary copy")
    replay.add_argument("--no-verify", action="store_true")
    replay.add_argument("--out", type=Path, default=None,
                        help="also write the summary JSON to this path")
    replay.add_argument("--json", action="store_true")

    # experiment ---------------------------------------------------------
    experiment = sub.add_parser("experiment",
                                help="regenerate one of the paper's "
                                     "figures/tables")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", default="smoke",
                            help="experiment scale preset "
                                 "(smoke/default/large)")
    experiment.add_argument("--json", action="store_true")

    # learn --------------------------------------------------------------
    learn = sub.add_parser("learn",
                           help="learn item utilities from a selection log")
    learn.add_argument("logfile", type=Path,
                       help="one selection per line, items comma-separated")
    learn.add_argument("--items", type=str, default=None,
                       help="comma-separated list of items to learn")
    learn.add_argument("--json", action="store_true")

    return parser


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------
def _cmd_networks(args: argparse.Namespace) -> int:
    rows = []
    for name, spec in NETWORKS.items():
        row = {
            "name": name,
            "published_nodes": spec.num_nodes,
            "published_edges": spec.num_edges,
            "published_avg_degree": spec.avg_degree,
            "directed": spec.directed,
            "default_scale": spec.default_scale,
        }
        if args.stats:
            graph = load_network(name, scale=args.scale, rng=args.seed)
            stats = network_statistics(graph)
            row.update({"standin_nodes": stats["nodes"],
                        "standin_edges": stats["edges"],
                        "standin_avg_degree": stats["avg_degree"]})
        rows.append(row)
    print(format_table(rows, title="benchmark networks"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_network(args.network, scale=args.scale, rng=args.seed,
                         weighting_scheme=args.weighting)
    write_edge_list(graph, args.output)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges "
          f"to {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = runspec_from_args(args)
    model = configuration_model(spec.workload.configuration)
    spec.validate(items=tuple(model.items))
    graph = load_graph(spec.workload, spec.engine.seed)
    record = run_spec(spec, graph=graph, model=model)
    result = record.result

    payload = {
        "algorithm": result.algorithm,
        "network": graph.name,
        "configuration": spec.workload.configuration,
        "budgets": record.budgets,
        "runtime_seconds": round(result.runtime_seconds, 4),
        "expected_welfare": round(record.welfare, 3),
        "welfare_std_error": round(record.welfare_std_error, 3),
        "adoption_counts": {k: round(v, 2)
                            for k, v in record.adoption_counts.items()},
        "allocation": {item: list(nodes)
                       for item, nodes in result.allocation.as_dict().items()},
        "spec_fingerprint": spec.fingerprint(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"algorithm        : {payload['algorithm']}")
        print(f"network          : {payload['network']} "
              f"({graph.num_nodes} nodes, {graph.num_edges} edges)")
        print(f"configuration    : {payload['configuration']}")
        print(f"runtime          : {payload['runtime_seconds']} s")
        print(f"expected welfare : {payload['expected_welfare']} "
              f"(± {1.96 * record.welfare_std_error:.2f})")
        for item, count in payload["adoption_counts"].items():
            print(f"  adopters of {item!r}: {count}")
        for item, nodes in payload["allocation"].items():
            print(f"  seeds[{item}]: {nodes}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS[args.name]
    rows = runner(args.scale)
    if args.json:
        print(json.dumps(rows, indent=2, default=str))
    else:
        print(format_table(rows, title=args.name))
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    logs = []
    with args.logfile.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            logs.append({part.strip() for part in line.split(",") if part.strip()})
    items = ([part.strip() for part in args.items.split(",")]
             if args.items else None)
    utilities = learn_utilities(logs, items=items)
    if args.json:
        print(json.dumps(utilities, indent=2))
    else:
        rows = [{"item": item, "utility": round(value, 3)}
                for item, value in sorted(utilities.items(),
                                          key=lambda kv: -kv[1])]
        print(format_table(rows, title="learned utilities"))
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    workload = workload_from_args(args)
    engine = engine_from_args(args).resolve()
    model = configuration_model(workload.configuration)
    workload.validate(items=tuple(model.items))
    graph = load_graph(workload, engine.seed)
    options = engine.imm_options()
    budgets, fixed = resolve_workload(workload, graph, model,
                                      options=options, seed=engine.seed,
                                      engine=engine.engine)

    superior_item = None
    if args.sampler == "weighted":
        # mirror `repro run --algorithm SupGRD`: allocate the single
        # budgeted item, or the one with the largest budget
        ((item, budget),) = budgets.items() if len(budgets) == 1 else \
            (max(budgets.items(), key=lambda kv: kv[1]),)
        superior_item = item
        budgets = {item: budget}

    meta_extra = {
        "network": workload.network,
        "scale": workload.scale,
        "configuration": workload.configuration,
        "graph_seed": engine.seed,
        "fixed_imm_item": workload.fixed_imm_item,
        "fixed_imm_budget": workload.fixed_imm_budget,
    }
    if getattr(args, "repairable", False):
        if args.sampler != "standard":
            print("error: --repairable supports the standard sampler only",
                  file=sys.stderr)
            return 2
        if getattr(args, "stream", False):
            print("error: --repairable cannot be combined with --stream",
                  file=sys.stderr)
            return 2
        if not args.rr_sets:
            print("error: --repairable needs an explicit --rr-sets "
                  "(adaptive θ would break keyed set identity)",
                  file=sys.stderr)
            return 2
        from repro.dynamic import build_repairable_index

        index = build_repairable_index(
            graph, model, sampler="standard", rr_sets=args.rr_sets,
            base_seed=engine.seed, meta_extra=meta_extra)
        npz_path, manifest_path = index.save(args.out)
    elif getattr(args, "stream", False):
        if args.sampler != "standard":
            print("error: --stream supports the standard sampler only",
                  file=sys.stderr)
            return 2
        from repro.index import build_streaming_index
        from repro.index.frozen import index_paths

        index = build_streaming_index(
            graph, model, budgets=budgets, fixed_allocation=fixed,
            out=args.out,
            rr_sets=args.rr_sets, options=options, seed=engine.seed,
            workers=engine.workers or 1, engine=engine.engine,
            chunk_sets=args.chunk_sets, meta_extra=meta_extra)
        npz_path, manifest_path = index_paths(args.out)
    else:
        index = build_index(
            graph, model, sampler=args.sampler, budgets=budgets,
            fixed_allocation=fixed, superior_item=superior_item,
            options=options, seed=engine.seed, workers=engine.workers,
            engine=engine.engine, meta_extra=meta_extra)
        npz_path, manifest_path = index.save(args.out)
    payload = {
        "index": str(npz_path),
        "manifest": str(manifest_path),
        "network": workload.network,
        "configuration": workload.configuration,
        "sampler": args.sampler,
        "algorithm": index.meta.get("algorithm"),
        "budgets": budgets,
        "num_rr_sets": index.num_sets,
        "num_nodes": index.num_nodes,
        "size_bytes": npz_path.stat().st_size,
        "fingerprint": index.fingerprint,
        "repairable": bool(index.meta.get("keyed", False)),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"built {args.sampler} index: {index.num_sets} RR sets over "
              f"{index.num_nodes} nodes "
              f"({payload['size_bytes'] / 1024:.1f} KiB)")
        print(f"  arrays   : {npz_path}")
        print(f"  manifest : {manifest_path}")
        print(f"  serves   : {index.meta.get('algorithm')} "
              f"(budgets {budgets})")
        print(f"  fingerprint: {index.fingerprint[:16]}…")
    return 0


def _load_service(index_path: Path, verify: bool, cache_size: int = 128):
    """Load an index + rebuild its instance, returning an AllocationService.

    Thin wrapper over :func:`repro.serve.load_service` (shared with the
    multi-index registry behind ``repro serve``), preserving this module's
    historical ``(service, graph, model, fixed)`` return shape.
    """
    from repro.serve import load_service

    loaded = load_service(index_path, verify=verify, cache_size=cache_size)
    return loaded.service, loaded.graph, loaded.model, loaded.fixed


#: manifest algorithm name -> service algorithm name
_SERVE_ALGORITHMS = {"SeqGRD-NM": "SeqGRD-NM", "SupGRD": "SupGRD",
                     "IMM": "select"}


def _cmd_index_query(args: argparse.Namespace) -> int:
    service, graph, model, fixed = _load_service(
        args.index, verify=not args.no_verify)
    meta = service.index.meta
    algorithm = args.algorithm or _SERVE_ALGORITHMS.get(
        str(meta.get("algorithm")), "select")
    payload = service.query(algorithm, budgets=args.budgets, k=args.budget)
    payload.update(network=graph.name,
                   configuration=meta.get("configuration"))
    if args.samples > 0:
        allocation = Allocation(payload["allocation"]).union(fixed)
        welfare = estimate_welfare(graph, model, allocation,
                                   n_samples=args.samples,
                                   rng=int(meta.get("seed", 0)))
        payload["expected_welfare"] = round(welfare.mean, 3)
        payload["welfare_std_error"] = round(welfare.std_error, 3)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"algorithm        : {payload['algorithm']} (served from "
              f"{service.index.num_sets} indexed RR sets)")
        print(f"network          : {payload['network']}")
        print(f"configuration    : {payload['configuration']}")
        print(f"estimated value  : {payload['estimated_value']:.3f}")
        if "expected_welfare" in payload:
            print(f"expected welfare : {payload['expected_welfare']}")
        for item, nodes in payload["allocation"].items():
            print(f"  seeds[{item}]: {nodes}")
    return 0


def _cmd_index_repair(args: argparse.Namespace) -> int:
    from repro.dynamic import GraphDelta, RRRepairEngine, save_repaired
    from repro.index import index_paths
    from repro.serve import load_service

    npz_path, _ = index_paths(args.index)
    stem = npz_path.with_suffix("")
    delta = GraphDelta.from_dict(
        json.loads(args.delta.read_text(encoding="utf-8")))
    loaded = load_service(stem, verify=not args.no_verify)
    engine = RRRepairEngine(loaded.service.index, loaded.graph,
                            loaded.model)
    outcome = engine.repair(delta)
    if not outcome.report.zero_delta:
        save_repaired(outcome.index, stem)
    payload = {"index": str(npz_path), **outcome.report.to_dict(),
               "fingerprint": outcome.index.fingerprint,
               "staleness": outcome.index.meta["dynamic"]["staleness"]}
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    report = outcome.report
    if report.zero_delta:
        print("zero-op delta: index untouched "
              f"(epoch {report.epoch}, fingerprint unchanged)")
        return 0
    print(f"repaired {report.repaired_sets}/{report.num_sets} RR sets "
          f"({report.repaired_fraction:.1%}) in {report.duration_ms:.1f} ms")
    print(f"  delta      : {report.delta_ops} ops "
          f"({report.num_nodes_before} -> {report.num_nodes_after} nodes)")
    print(f"  epoch      : {report.epoch}")
    print(f"  touched    : {report.touched_sets} sets by reachability, "
          f"{report.rerooted_sets} re-rooted")
    staleness = payload["staleness"]
    print(f"  staleness  : {staleness['cumulative_repaired_fraction']:.1%} "
          f"cumulative over {staleness['deltas_applied']} delta ops")
    print(f"  fingerprint: {payload['fingerprint'][:16]}…")
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    from repro.index import FrozenRRIndex, index_paths

    npz_path, manifest_path = index_paths(args.path)
    manifest = FrozenRRIndex.peek_manifest(args.path)
    meta = manifest.get("meta", {})
    payload = {
        "index": str(npz_path),
        "manifest": str(manifest_path),
        "format_version": manifest.get("format_version"),
        "fingerprint": meta.get("fingerprint"),
        "num_nodes": manifest.get("num_nodes"),
        "num_sets": manifest.get("num_sets"),
        "total_weight": manifest.get("total_weight"),
        "dtypes": manifest.get("dtypes"),
        "array_bytes": manifest.get("array_bytes"),
        "size_bytes": npz_path.stat().st_size if npz_path.exists() else None,
        "manifest_bytes": (manifest_path.stat().st_size
                           if manifest_path.exists() else None),
        "algorithm": meta.get("algorithm"),
        "sampler": meta.get("sampler"),
        "network": meta.get("network"),
        "configuration": meta.get("configuration"),
        "scale": meta.get("scale"),
        "seed": meta.get("seed"),
        "budgets": meta.get("budgets"),
        "engine": meta.get("engine"),
        "workers": meta.get("workers"),
        "options": meta.get("options"),
        "streamed": bool(meta.get("streamed", False)),
        "repairable": bool(meta.get("keyed", False)),
    }
    dynamic = meta.get("dynamic") or {}
    if dynamic:
        payload["staleness"] = dynamic.get("staleness")
        payload["epoch"] = dynamic.get("epoch")
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    version = payload["format_version"]
    mmap_note = ("mmap-served" if version and int(version) >= 2
                 else "compressed v1 (heap-loaded; rebuild for mmap)")
    print(f"index      : {npz_path}")
    print(f"format     : v{version} ({mmap_note})")
    print(f"fingerprint: {payload['fingerprint']}")
    print(f"contents   : {payload['num_sets']} RR sets over "
          f"{payload['num_nodes']} nodes, total weight "
          f"{payload['total_weight']}")
    if payload["dtypes"]:
        dtypes = ", ".join(f"{name}={dt}"
                           for name, dt in sorted(payload["dtypes"].items()))
        print(f"dtypes     : {dtypes}")
    if payload["array_bytes"] is not None:
        print(f"array bytes: {payload['array_bytes']} "
              f"({payload['array_bytes'] / 2 ** 20:.1f} MiB)")
    if payload["size_bytes"] is not None:
        print(f"file bytes : {payload['size_bytes']} npz + "
              f"{payload['manifest_bytes']} manifest")
    built_from = payload["network"] or "?"
    if payload["configuration"]:
        built_from += f" / {payload['configuration']}"
    print(f"built from : {built_from} "
          f"({payload['algorithm']}, sampler={payload['sampler']}, "
          f"seed={payload['seed']}"
          f"{', streamed' if payload['streamed'] else ''})")
    if payload["budgets"]:
        print(f"budgets    : {payload['budgets']}")
    if payload["repairable"]:
        staleness = payload.get("staleness") or {}
        print(f"repairable : keyed coins, epoch {payload.get('epoch', 0)}")
        print(f"staleness  : "
              f"{staleness.get('cumulative_repaired_fraction', 0.0):.1%} "
              f"of sets repaired cumulatively "
              f"({staleness.get('deltas_applied', 0)} delta ops, last "
              f"repair touched "
              f"{staleness.get('repaired_fraction', 0.0):.1%})")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    if args.index_command == "build":
        return _cmd_index_build(args)
    if args.index_command == "info":
        return _cmd_index_info(args)
    if args.index_command == "repair":
        return _cmd_index_repair(args)
    return _cmd_index_query(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import configure_logging, set_global_metrics_enabled
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import (
        DEFAULT_MAX_LINE_BYTES,
        AllocationServer,
        IndexRegistry,
    )

    if not args.index and args.index_dir is None:
        print("error: repro serve needs --index and/or --index-dir",
              file=sys.stderr)
        return 2
    if args.stdio and (args.tcp is not None or args.unix is not None):
        print("error: --stdio serves until stdin closes and cannot be "
              "combined with --tcp/--unix; run separate processes to "
              "serve both", file=sys.stderr)
        return 2
    configure_logging(level=args.log_level, json_output=args.log_json)
    if args.no_metrics:
        set_global_metrics_enabled(False)
    from repro import faults
    try:
        if args.faults is not None:
            faults.configure(args.faults,
                             seed=args.fault_seed
                             if args.fault_seed is not None else 0)
        else:
            faults.configure_from_env()
    except (faults.FaultSpecError, ValueError) as error:
        print(f"error: bad fault spec: {error}", file=sys.stderr)
        return 2
    if faults.active() is not None:
        print(f"WARNING: fault injection armed "
              f"(spec={faults.active().spec!r}, "
              f"seed={faults.active().seed}) — responses will be "
              f"deliberately failed/stalled/truncated",
              file=sys.stderr, flush=True)
    registry = IndexRegistry(
        paths=args.index, directory=args.index_dir,
        capacity=args.max_indexes, cache_size=args.cache_size,
        verify=not args.no_verify, mmap=not args.no_mmap,
        memory_budget=(int(args.memory_budget_mb * 2 ** 20)
                       if args.memory_budget_mb is not None else None))
    from repro.serve.server import (
        DEFAULT_DRAIN_TIMEOUT,
        DEFAULT_MAX_QUEUE_DEPTH,
    )
    if args.max_queue_depth is None:
        max_queue_depth: "int | None" = DEFAULT_MAX_QUEUE_DEPTH
    elif args.max_queue_depth <= 0:
        max_queue_depth = None
    else:
        max_queue_depth = args.max_queue_depth
    server = AllocationServer(
        registry,
        max_line_bytes=(args.max_line_bytes if args.max_line_bytes
                        else DEFAULT_MAX_LINE_BYTES),
        metrics=MetricsRegistry(enabled=not args.no_metrics),
        max_queue_depth=max_queue_depth,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        default_deadline_ms=args.default_deadline_ms,
        max_deadline_ms=args.max_deadline_ms,
        drain_timeout=(args.drain_timeout if args.drain_timeout is not None
                       else DEFAULT_DRAIN_TIMEOUT))
    hosted = ", ".join(registry.keys()) or "(empty registry)"
    stdio = args.tcp is None and args.unix is None

    def _ready(endpoints):
        print(f"serving indexes [{hosted}] on "
              f"{' + '.join(endpoints)} — JSON lines, versioned "
              f'{{"v": 1, "spec": {{...}}}} (see repro.api.protocol) or '
              f'legacy {{"op": "query", "budgets": {{"i": 5}}}}; SIGHUP '
              f"reloads the registry, SIGTERM"
              f"{' or EOF on stdin' if stdio else ''} drains and exits",
              file=sys.stderr, flush=True)

    asyncio.run(server.serve_forever(tcp=args.tcp, unix=args.unix,
                                     stdio=stdio,
                                     metrics_tcp=args.metrics_tcp,
                                     ready=_ready))
    return 0


def _metrics_exchange(args: argparse.Namespace) -> dict:
    """One ``stats`` request/response over the server's JSON-lines socket."""
    import socket

    if args.tcp is not None:
        sock = socket.create_connection(args.tcp, timeout=args.timeout)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(args.timeout)
        sock.connect(str(args.unix))
    try:
        sock.sendall(b'{"op": "stats", "id": "repro-metrics"}\n')
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        return json.loads(b"".join(chunks).decode("utf-8"))
    finally:
        sock.close()


def _format_metrics(stats: dict) -> str:
    """Human-readable digest of a ``stats`` payload."""
    lines = []
    server = stats.get("server", {})
    lines.append(f"uptime        : {server.get('uptime_s', 0.0):.1f} s")
    lines.append(f"requests      : {server.get('requests', 0)} "
                 f"({server.get('errors', 0)} errors)")
    lines.append(f"connections   : {server.get('active_connections', 0)} "
                 f"active / {server.get('connections', 0)} total")
    lines.append(f"queue depth   : {server.get('queue_depth', 0)} "
                 f"(in flight: {server.get('in_flight', 0)})")
    metrics = stats.get("metrics", {})
    latency = (metrics.get("histograms", {})
               .get("repro_request_latency_seconds", {}).get("", {}))
    if latency.get("count"):
        lines.append(
            f"latency       : p50 {latency['p50'] * 1e3:.2f} ms, "
            f"p95 {latency['p95'] * 1e3:.2f} ms, "
            f"p99 {latency['p99'] * 1e3:.2f} ms "
            f"(n={latency['count']})")
    for name, family in sorted(
            metrics.get("histograms", {}).items()):
        if not name.startswith("repro_span_seconds"):
            continue
        for labels, summary in sorted(family.items()):
            if summary.get("count"):
                lines.append(f"  span {labels}: p50 "
                             f"{summary['p50'] * 1e3:.2f} ms "
                             f"(n={summary['count']})")
    registry = stats.get("registry", {})
    for key, row in sorted(registry.get("indexes", {}).items()):
        cache = row.get("cache") or {}
        state = "loaded" if row.get("loaded") else "manifest-only"
        line = (f"index[{key}]  : {state}, "
                f"{row.get('requests', 0)} requests")
        if cache:
            line += (f", cache hit rate {cache.get('hit_rate', 0.0):.0%} "
                     f"({cache.get('hits', 0)}/"
                     f"{cache.get('hits', 0) + cache.get('misses', 0)})")
        lines.append(line)
    lines.append(f"registry      : {registry.get('loads', 0)} loads, "
                 f"{registry.get('evictions', 0)} evictions, "
                 f"{registry.get('reloads', 0)} reloads")
    return "\n".join(lines)


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio
    import shutil
    import tempfile

    from repro.dynamic.replay import make_replay_trace, replay_events
    from repro.index import index_paths
    from repro.serve import AllocationServer, IndexRegistry, load_service
    from repro.serve.client import ResilientClient, RetryPolicy

    npz_path, manifest_path = index_paths(args.index)
    stem = npz_path.with_suffix("")
    loaded = load_service(stem, verify=not args.no_verify)
    meta = loaded.service.index.meta
    if not meta.get("keyed"):
        print("error: replay needs a repairable index "
              "(build with `repro index build --repairable`)",
              file=sys.stderr)
        return 2
    events = make_replay_trace(
        loaded.graph, num_queries=args.queries, num_deltas=args.deltas,
        fraction=args.fraction, seed=args.seed, budgets=args.budgets)

    async def _drive(directory: Path, key: str) -> dict:
        registry = IndexRegistry(directory=directory, capacity=2,
                                 verify=not args.no_verify)
        server = AllocationServer(registry)
        host, port = await server.start_tcp("127.0.0.1", 0)
        try:
            async with ResilientClient(
                    tcp=(host, port),
                    policy=RetryPolicy(seed=args.seed)) as client:
                return await replay_events(client, events, index=key)
        finally:
            await server.shutdown(drain=True)

    if args.in_place:
        summary = asyncio.run(_drive(stem.parent, stem.name))
    else:
        # replay is a measurement harness: run against a throwaway copy
        # so the trace's repairs don't mutate the source index
        with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
            scratch = Path(tmp)
            shutil.copy2(npz_path, scratch / npz_path.name)
            shutil.copy2(manifest_path, scratch / manifest_path.name)
            summary = asyncio.run(_drive(scratch, stem.name))
    summary = {"index": str(npz_path), "trace": {
        "queries": args.queries, "deltas": args.deltas,
        "fraction": args.fraction, "seed": args.seed,
        "budgets": list(args.budgets), "in_place": bool(args.in_place),
    }, **summary}
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=2) + "\n",
                            encoding="utf-8")
    # errored events fail the run, so a CI replay step can catch them
    status = 1 if summary["errors"] else 0
    if args.json:
        print(json.dumps(summary, indent=2))
        return status
    query, repair = summary["query"], summary["repair"]
    print(f"replayed {summary['events']} events against {stem.name}: "
          f"{summary['queries']} queries, {summary['deltas']} deltas, "
          f"{summary['errors']} errors in {summary['wall_s']:.2f} s")
    print(f"  queries : {query['throughput_rps']:.1f} req/s, "
          f"p50 {query['latency_s']['p50'] * 1000:.2f} ms, "
          f"p95 {query['latency_s']['p95'] * 1000:.2f} ms")
    if repair["count"]:
        fractions = [f for f in repair["repaired_fraction"]
                     if f is not None]
        print(f"  repairs : {repair['count']}, "
              f"p50 {repair['latency_s']['p50'] * 1000:.1f} ms, "
              f"mean repaired fraction "
              f"{sum(fractions) / len(fractions):.1%}")
        last = summary["staleness_over_time"][-1]
        print(f"  staleness: "
              f"{last['cumulative_repaired_fraction']:.1%} cumulative at "
              f"epoch {last['epoch']}")
    return status


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.http is not None:
        from urllib.request import urlopen

        host, port = args.http
        with urlopen(f"http://{host}:{port}/metrics",
                     timeout=args.timeout) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0
    try:
        stats = _metrics_exchange(args)
    except OSError as error:
        print(f"error: cannot reach the server: {error}", file=sys.stderr)
        return 2
    if not stats.get("ok", False):
        print(f"error: the server answered with {stats!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(_format_metrics(stats))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "networks": _cmd_networks,
        "generate": _cmd_generate,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "learn": _cmd_learn,
        "index": _cmd_index,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
        "metrics": _cmd_metrics,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
