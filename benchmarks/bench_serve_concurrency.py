"""Benchmark: concurrent allocation serving vs the single-client stdio loop.

Measures the serving story of :mod:`repro.serve` on a smoke-scale
benchmark network:

* **stdio baseline** — one client, one request at a time
  (:meth:`AllocationServer.dispatch_line`), warm index, response caching
  off so every request pays its selection run;
* **concurrent TCP** — 1/8/32 simulated clients against the asyncio
  server, cold (first pass: lazy index load + first selections) vs warm
  (second pass).  Coalescing makes N clients asking about the same
  workload cost one selection run, so warm 32-client throughput must be
  **>= 5x** the stdio baseline (acceptance criterion), with the coalesce
  counter > 0 and every response bit-identical to a direct ``repro run``
  of its spec.

Results are written to ``benchmarks/BENCH_serve.json``.  Scale is
controlled by ``REPRO_BENCH_SCALE`` like the rest of the suite.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import platform
import time
from pathlib import Path

import numpy as np

from conftest import report

from repro.api import EngineConfig, RunSpec, WorkloadSpec, make_request
from repro.api import run as run_spec
from repro.index import build_index
from repro.serve import AllocationServer, IndexRegistry
from repro.utility.configs import configuration_model

ARTIFACT = Path(__file__).resolve().parent / "BENCH_serve.json"

NETWORK, CONFIGURATION = "nethept", "C1"
#: the per-query selection must dominate socket/JSON overhead for the
#: stdio-vs-concurrent comparison to measure serving, not transport —
#: hence a larger stand-in + tighter epsilon than the unit-test scale
_NETWORK_SCALE = {"smoke": 0.1, "default": 0.2, "large": 0.4}
_MAX_RR_SETS = {"smoke": 60_000, "default": 100_000, "large": 200_000}

#: distinct budget points in the request stream
BUDGET_SWEEP = ({"i": 5, "j": 5}, {"i": 10, "j": 10}, {"i": 15, "j": 15},
                {"i": 20, "j": 20}, {"i": 25, "j": 25})
CLIENT_COUNTS = (1, 8, 32)
#: requests each client sends per pass (cycling through the sweep)
REQUESTS_PER_CLIENT = 5


def _specs(scale):
    engine = EngineConfig(seed=scale.seed, samples=10, epsilon=0.3,
                          max_rr_sets=_MAX_RR_SETS.get(scale.name, 60_000))
    base = RunSpec(
        algorithm="SeqGRD-NM",
        workload=WorkloadSpec(network=NETWORK,
                              scale=_NETWORK_SCALE.get(scale.name, 0.01),
                              configuration=CONFIGURATION,
                              budgets=dict(BUDGET_SWEEP[-1])),
        engine=engine)
    return [dataclasses.replace(
        base, workload=dataclasses.replace(base.workload, budgets=dict(b)))
        for b in BUDGET_SWEEP]


def _build_index_dir(tmp_path, scale, spec):
    from repro.api.runner import load_graph

    graph = load_graph(spec.workload, spec.engine.seed)
    model = configuration_model(CONFIGURATION)
    index = build_index(
        graph, model, sampler="marginal",
        budgets=dict(spec.workload.budgets),
        options=spec.engine.imm_options(), seed=spec.engine.seed,
        meta_extra={"network": NETWORK,
                    "scale": spec.workload.scale,
                    "configuration": CONFIGURATION,
                    "graph_seed": spec.engine.seed,
                    "fixed_imm_item": None, "fixed_imm_budget": 50})
    index.save(tmp_path / "bench-serve-idx")
    return graph, model, index


def _fresh_server(tmp_path):
    registry = IndexRegistry(directory=tmp_path, capacity=2, cache_size=0)
    return AllocationServer(registry)


def _stdio_pass(server, requests):
    start = time.perf_counter()
    responses = [server.dispatch_line(line) for line in requests]
    elapsed = time.perf_counter() - start
    assert all(r["ok"] for r in responses), "stdio pass failed"
    return elapsed, responses


async def _tcp_pass(host, port, num_clients, request_lines):
    """Each client opens its own connection and streams its requests."""

    async def client(lines):
        reader, writer = await asyncio.open_connection(host, port)
        out = []
        for line in lines:
            writer.write(line.encode() + b"\n")
            await writer.drain()
            out.append(json.loads(await asyncio.wait_for(
                reader.readline(), 600)))
        writer.close()
        return out

    start = time.perf_counter()
    results = await asyncio.gather(
        *[client(request_lines) for _ in range(num_clients)])
    elapsed = time.perf_counter() - start
    return elapsed, [r for batch in results for r in batch]


def _tcp_run(tmp_path, num_clients, request_lines):
    """One cold + one warm pass against a fresh server; returns rows."""
    server = _fresh_server(tmp_path)

    async def scenario():
        host, port = await server.start_tcp("127.0.0.1", 0)
        cold = await _tcp_pass(host, port, num_clients, request_lines)
        warm = await _tcp_pass(host, port, num_clients, request_lines)
        stats = server.stats_payload()
        await server.shutdown(drain=True)
        return cold, warm, stats

    (cold_s, cold_responses), (warm_s, warm_responses), stats = \
        asyncio.run(scenario())
    for response in cold_responses + warm_responses:
        assert response["ok"], response
    total = num_clients * len(request_lines)
    return {
        "clients": num_clients,
        "requests_per_pass": total,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_rps": round(total / cold_s, 1),
        "warm_rps": round(total / warm_s, 1),
        "coalesced": sum(c["coalesced"]
                         for c in stats["coalescer"].values()),
        "batches": sum(c["batches"] for c in stats["coalescer"].values()),
        "responses": warm_responses,
    }


def test_serve_concurrency_throughput(scale, tmp_path):
    specs = _specs(scale)
    graph, model, index = _build_index_dir(tmp_path, scale, specs[-1])
    request_lines = [json.dumps(make_request(spec, request_id=i))
                     for i, spec in enumerate(specs)] * (
                         REQUESTS_PER_CLIENT // len(specs) or 1)

    # --- acceptance oracle: the direct run of the build-matching spec ----
    record = run_spec(specs[-1], graph=graph, model=model)
    direct = {item: list(nodes) for item, nodes
              in record.result.allocation.as_dict().items()}

    # --- stdio baseline: warm single-client loop, no response cache -----
    stdio_server = _fresh_server(tmp_path)
    _stdio_pass(stdio_server, request_lines)            # warm the index
    stdio_s, stdio_responses = _stdio_pass(stdio_server, request_lines)
    stdio_rps = len(request_lines) / stdio_s

    # --- concurrent TCP: 1/8/32 clients ---------------------------------
    rows = []
    by_clients = {}
    for num_clients in CLIENT_COUNTS:
        row = _tcp_run(tmp_path, num_clients, request_lines)
        by_clients[num_clients] = (row, row.pop("responses"))
        rows.append(row)

    # --- acceptance: bit-identical, coalesced, >= 5x --------------------
    top_row, top_responses = by_clients[32]
    fingerprint = specs[-1].fingerprint()
    served = [r for r in top_responses if r["fingerprint"] == fingerprint]
    assert served, "the build-matching spec was never served"
    for response in served:
        assert response["allocation"] == direct, \
            "served allocation diverged from the direct repro run"
    for response in stdio_responses:
        if response["fingerprint"] == fingerprint:
            assert response["allocation"] == direct
    assert top_row["coalesced"] > 0, "32 clients never coalesced"
    speedup = top_row["warm_rps"] / stdio_rps

    table = [{"workload": "stdio single-client (warm)",
              "rps": round(stdio_rps, 1), "vs_stdio": 1.0}]
    for row in rows:
        label = f"tcp {row['clients']} client(s)"
        table.append({"workload": label, "rps": row["warm_rps"],
                      "vs_stdio": round(row["warm_rps"] / stdio_rps, 2)})
    report(f"Concurrent serving — {graph.name} ({graph.num_nodes} nodes, "
           f"{index.num_sets} RR sets), warm 32-client coalesced speedup "
           f"{speedup:.1f}x vs stdio", table,
           columns=["workload", "rps", "vs_stdio"])

    ARTIFACT.write_text(json.dumps({
        "benchmark": "serve_concurrency",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale.name,
        "graph": {"name": graph.name, "nodes": graph.num_nodes,
                  "edges": graph.num_edges},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "num_rr_sets": index.num_sets,
        "budget_sweep": [dict(b) for b in BUDGET_SWEEP],
        "requests_per_client": len(request_lines),
        "stdio_single_client": {"seconds": round(stdio_s, 4),
                                "rps": round(stdio_rps, 1)},
        "tcp": rows,
        "warm_32_coalesced_speedup_vs_stdio": round(speedup, 2),
    }, indent=2) + "\n")

    assert speedup >= 5.0, (
        f"32 warm coalesced clients must serve >= 5x the single-client "
        f"stdio loop's throughput, measured {speedup:.1f}x")
