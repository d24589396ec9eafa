"""Workloads ``serve-v1`` and ``serve-drift``: a ``repro serve`` process
under closed-loop load from ``ResilientClient`` connections.

``serve-v1`` hosts the SeqGRD-NM marginal index of run-cold's instance
(built with ``workers=2``, so requests carry ``workers=2``) and two
connections send v1 SeqGRD-NM specs with (b_i, b_j) uniform over 1..50²:
2,500 distinct specs against the 128-entry cache, the cache-bypass side.

``serve-drift`` hosts a keyed repairable index over NetHEPT at scale 0.2
(20k RR sets); one connection replays seeded ``make_replay_trace``
segments of 20 ``apply-delta`` batches (1% of edges each) with 20 legacy
``select`` queries (k ∈ {5, 10, 20, 50}) per delta.  Every segment starts
from the pristine index, so repair cost does not drift with run length.
The few distinct queries between deltas fit the cache: the cache-hit
side.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from common import (
    EVAL_SEED,
    GRAPH_SEED,
    Outcome,
    ServerProcess,
    counter_delta,
    hist_delta,
    mean,
    median,
    per_op,
    percentile,
    selection_layers,
    tail,
    timed,
    trace_overhead_pct,
)

V1_SETUP_REPEATS = 2
DRIFT_SETUP_REPEATS = 5
CONNECTIONS = 2
CHECKED_RESPONSES = 5
WELFARE_SAMPLES = 300
SPREAD_SAMPLES = 1000
DRIFT_SCALE = 0.2
DRIFT_BUDGETS = (5, 10, 20, 50)
DRIFT_FRACTION = 0.01
QUERIES_PER_DELTA = 20
DIRECT_DELTAS = 10
REQUEST_TIMEOUT_S = 60.0


class Phase:
    """Client-side record of one closed-loop phase."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.cached = 0
        self.ok = 0
        self.wall = 0.0
        self.repairs: list = []
        self.reloads: list = []
        self.samples: list = []
        self.last_seeds = None

    def throughput(self) -> float:
        return self.ok / self.wall if self.wall else 0.0


async def _metrics(client) -> dict:
    response = await client.request({"op": "metrics"})
    return response["metrics"]


def _client(address, seed: int):
    from repro.serve.client import ResilientClient

    return ResilientClient(tcp=address, seed=seed,
                           request_timeout_s=REQUEST_TIMEOUT_S)


def _serve_layers(before, after, phase: Phase) -> dict:
    """Per-request stage means and counters from the server's own
    instruments (histogram sum/count, not bucketed percentiles)."""
    server_b, server_a = before["server"], after["server"]
    ops = len(phase.latencies)
    layers = selection_layers(before["process"], after["process"], ops)

    def stage_ms(stage: str) -> float:
        count, total = hist_delta(server_b, server_a, "repro_span_seconds",
                                  stage=stage)
        return 1e3 * total / count if count else 0.0

    batches, batched = hist_delta(server_b, server_a, "repro_batch_size")
    layers.update({
        "api.parse_ms": stage_ms("parse"),
        "api.validate_ms": stage_ms("validate"),
        "serve.queue_ms": stage_ms("queue"),
        "serve.execute_ms": stage_ms("execute"),
        "serve.respond_ms": stage_ms("respond"),
        "serve.batch_size_mean": batched / batches if batches else 0.0,
        "serve.coalesced": per_op(counter_delta(
            server_b, server_a, "repro_coalesced_total"), ops),
        "serve.shed": per_op(counter_delta(
            server_b, server_a, "repro_shed_total"), ops),
        "index.cache_hit_rate": per_op(phase.cached, ops),
    })
    return layers


def _e2e(out: Outcome, phase: Phase, server: ServerProcess) -> None:
    out.e2e["op_p50_ms"] = median(phase.latencies) * 1e3
    value, label = tail(phase.latencies)
    out.e2e["op_tail_ms"] = value * 1e3
    out.notes["op_p50_ms"] = f"n={len(phase.latencies)}"
    out.notes["op_tail_ms"] = f"{label} of {len(phase.latencies)} queries"
    out.e2e["ops_per_s"] = phase.throughput()
    out.e2e["peak_rss_mb"] = server.vm_hwm_mib()


# ======================================================================
# serve-v1
# ======================================================================
def _v1_instance(ctx):
    from repro.api import EngineConfig, WorkloadSpec

    scale, budget = (0.02, 5) if ctx.tiny else (1.0, 50)
    workload = WorkloadSpec(network="nethept", scale=scale,
                            configuration="C1",
                            budgets={"i": budget, "j": budget})
    return workload, EngineConfig(seed=ctx.seed, workers=2), budget


def _v1_setup(ctx, workload, engine, stem, out):
    """Build + save the index, start the server, answer the first
    request.  Returns ``(server, graph, model, first_response, times)``."""
    from repro.api.runner import load_graph, resolve_workload
    from repro.index import build_index
    from repro.index.pool import shutdown_worker_pools
    from repro.utility.configs import configuration_model

    start = time.perf_counter()
    graph, load_s = timed(lambda: load_graph(workload, GRAPH_SEED))
    model = configuration_model(workload.configuration)
    resolved = engine.resolve()
    options = resolved.imm_options()
    budgets, fixed = resolve_workload(workload, graph, model,
                                      options=options, seed=engine.seed,
                                      engine=resolved.engine)
    index = build_index(
        graph, model, sampler="marginal", budgets=budgets,
        fixed_allocation=fixed, options=options, seed=engine.seed,
        workers=engine.workers, engine=resolved.engine,
        meta_extra={"network": workload.network, "scale": workload.scale,
                    "configuration": workload.configuration,
                    "graph_seed": GRAPH_SEED, "fixed_imm_item": None,
                    "fixed_imm_budget": workload.fixed_imm_budget})
    _, save_s = timed(lambda: index.save(stem))
    server = ServerProcess(stem.parent, stem.parent / "server.log")
    server.start()
    try:
        first = asyncio.run(_one_request(
            server.address, _v1_request(workload, engine,
                                        *budgets.values())))
    except BaseException:
        server.stop()
        raise
    seconds = time.perf_counter() - start
    shutdown_worker_pools()
    out.header.update(graph=graph.name, nodes=graph.num_nodes,
                      edges=graph.num_edges, rr_sets=index.num_sets,
                      index_bytes=index.array_nbytes())
    return server, graph, model, first, (seconds, load_s, save_s)


async def _one_request(address, request) -> dict:
    async with _client(address, 0) as client:
        return await client.request(request)


def _v1_request(workload, engine, b_i: int, b_j: int) -> dict:
    from dataclasses import replace

    from repro.api import RunSpec

    spec = RunSpec("SeqGRD-NM",
                   replace(workload, budgets={"i": int(b_i), "j": int(b_j)}),
                   engine)
    return {"v": 1, "spec": spec.to_dict()}


def _allocation_ok(allocation, budgets) -> bool:
    if not isinstance(allocation, dict) or set(allocation) != set(budgets):
        return False
    return all(len(allocation[item]) == budget
               and len(set(allocation[item])) == budget
               for item, budget in budgets.items())


async def _v1_phase(address, requests, seconds, tally, phase: Phase,
                    keep: int = 0) -> None:
    deadline = time.perf_counter() + seconds

    async def connection(c: int) -> None:
        sequence = requests[c]
        async with _client(address, c) as client:
            i = 0
            while time.perf_counter() < deadline:
                request = sequence[i % len(sequence)]
                i += 1
                budgets = request["spec"]["workload"]["budgets"]
                start = time.perf_counter()
                response = await client.request(request)
                phase.latencies.append(time.perf_counter() - start)
                ok = bool(response.get("ok")) and _allocation_ok(
                    response.get("allocation"), budgets)
                if tally.record(ok, f"v1 response {str(response)[:300]}"):
                    phase.ok += 1
                    phase.cached += bool(response.get("cached"))
                if c == 0 and len(phase.samples) < keep and ok:
                    phase.samples.append((request, response))

    start = time.perf_counter()
    await asyncio.gather(*(connection(c) for c in range(CONNECTIONS)))
    phase.wall = time.perf_counter() - start


async def _traced(address, phase_fn):
    async with _client(address, 99) as client:
        before = await _metrics(client)
        await phase_fn()
        after = await _metrics(client)
    return before, after


def run_v1(ctx) -> Outcome:
    from repro.allocation import Allocation
    from repro.api import RunSpec, run
    from repro.diffusion.estimators import estimate_welfare
    from repro.index import FrozenRRIndex
    from repro.serve import load_service

    out = Outcome()
    workload, engine, budget = _v1_instance(ctx)
    setups, server = [], None
    try:
        for r in range(V1_SETUP_REPEATS):
            if server is not None:
                server.stop()
            stem = ctx.workdir / f"v1-{r}" / "nethept-seqgrd-nm"
            stem.parent.mkdir()
            server, graph, model, first, times = _v1_setup(
                ctx, workload, engine, stem, out)
            setups.append(times)
            out.tally.record(bool(first.get("ok")) and _allocation_ok(
                first.get("allocation"), {"i": budget, "j": budget}),
                f"first v1 response {str(first)[:300]}")
        out.e2e["setup_s"] = median([s for s, _, _ in setups])

        rng = np.random.default_rng(ctx.seed)
        requests = [[_v1_request(workload, engine, b_i, b_j)
                     for b_i, b_j in rng.integers(1, budget + 1,
                                                  size=(4000, 2))]
                    for _ in range(CONNECTIONS)]
        untraced = Phase()
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        asyncio.run(_v1_phase(server.address, requests, seconds,
                              out.tally, untraced, keep=CHECKED_RESPONSES))
        if not ctx.trace:
            _e2e(out, untraced, server)
            out.e2e["welfare"] = estimate_welfare(
                graph, model, Allocation(first["allocation"]),
                n_samples=WELFARE_SAMPLES, rng=EVAL_SEED).mean
        else:
            traced = Phase()
            before, after = asyncio.run(_traced(
                server.address, lambda: _v1_phase(
                    server.address, requests, seconds, out.tally, traced)))
            out.layers.update(_serve_layers(before, after, traced))
            _, load_s = timed(lambda: load_service(stem))
            out.layers.update({
                "graphs.load_s": median([s for _, s, _ in setups]),
                "index.save_s": median([s for _, _, s in setups]),
                "index.load_s": load_s,
                "index.array_bytes": float(out.header["index_bytes"]),
                "obs.trace_overhead_pct": trace_overhead_pct(
                    traced.latencies, untraced.latencies),
            })
    finally:
        if server is not None:
            server.stop()

    # served ≡ direct: a fixed sample of served allocations must equal
    # repro.api.run over the same index
    index = FrozenRRIndex.load(stem)
    for request, response in untraced.samples:
        record = run(RunSpec.from_dict(request["spec"]), graph=graph,
                     model=model, index=index)
        direct = {item: list(seeds) for item, seeds
                  in record.result.allocation.as_dict().items()}
        out.tally.record(direct == response["allocation"],
                         f"served {response['allocation']} != direct "
                         f"{direct}")
    return out


# ======================================================================
# serve-drift
# ======================================================================
def _drift_sizes(tiny: bool):
    """``(scale, rr_sets, deltas per segment)``."""
    return (0.02, 2_000, 4) if tiny else (DRIFT_SCALE, 20_000, 20)


def _drift_setup(ctx, stem, out):
    from repro.api import WorkloadSpec
    from repro.api.runner import load_graph
    from repro.dynamic import build_repairable_index
    from repro.utility.configs import configuration_model

    scale, rr_sets, _ = _drift_sizes(ctx.tiny)
    start = time.perf_counter()
    graph, load_s = timed(lambda: load_graph(
        WorkloadSpec(network="nethept", scale=scale), GRAPH_SEED))
    model = configuration_model("C1")
    index = build_repairable_index(
        graph, model, rr_sets=rr_sets, base_seed=ctx.seed,
        meta_extra={"network": "nethept", "scale": scale,
                    "configuration": "C1", "graph_seed": GRAPH_SEED})
    _, save_s = timed(lambda: index.save(stem))
    server = ServerProcess(stem.parent, stem.parent / "server.log")
    server.start()
    try:
        first = asyncio.run(_one_request(server.address,
                                         _query(stem.name, 50)))
    except BaseException:
        server.stop()
        raise
    seconds = time.perf_counter() - start
    out.header.update(graph=graph.name, nodes=graph.num_nodes,
                      edges=graph.num_edges, rr_sets=index.num_sets,
                      index_bytes=index.array_nbytes())
    return server, graph, model, index, first, (seconds, load_s, save_s)


def _query(key: str, k: int) -> dict:
    return {"op": "query", "algorithm": "select", "k": int(k), "index": key}


def _segments(graph, ctx, count: int):
    from repro.dynamic.replay import make_replay_trace

    _, _, deltas = _drift_sizes(ctx.tiny)
    return [make_replay_trace(
        graph, num_queries=QUERIES_PER_DELTA * deltas, num_deltas=deltas,
        fraction=DRIFT_FRACTION, seed=ctx.seed * 1000 + s,
        budgets=DRIFT_BUDGETS) for s in range(count)]


async def _drift_phase(address, key, segments, seconds, tally,
                       phase: Phase, reset, pristine: bool) -> None:
    """Replay segments until ``seconds`` pass; ``pristine`` says the
    hosted index needs no reset before the first one."""
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    async with _client(address, 0) as client:
        s = 0
        while time.perf_counter() < deadline:
            if s > 0 or not pristine:
                # every segment starts from the pristine index
                reset()
                response = await client.request({"op": "reload"})
                tally.record(bool(response.get("ok")),
                             f"reload {str(response)[:300]}")
            events = segments[s % len(segments)]
            s += 1
            after_repair = False
            for event in events:
                if time.perf_counter() >= deadline:
                    break
                if event["kind"] == "query":
                    k = int(event["budget"])
                    t0 = time.perf_counter()
                    response = await client.request(_query(key, k))
                    elapsed = time.perf_counter() - t0
                    phase.latencies.append(elapsed)
                    if after_repair:
                        phase.reloads.append(elapsed)
                        after_repair = False
                    seeds = (response.get("allocation") or {}).get("seeds")
                    ok = bool(response.get("ok")) and seeds is not None \
                        and len(seeds) == k and len(set(seeds)) == k
                    if tally.record(ok, f"query {str(response)[:300]}"):
                        phase.ok += 1
                        phase.cached += bool(response.get("cached"))
                else:
                    t0 = time.perf_counter()
                    response = await client.request(
                        {"op": "apply-delta", "delta": event["delta"],
                         "index": key})
                    phase.repairs.append(time.perf_counter() - t0)
                    repair = response.get("repair") or {}
                    ok = bool(response.get("ok")) and \
                        repair.get("repaired_sets", 0) > 0
                    tally.record(ok, f"apply-delta {str(response)[:300]}")
                    after_repair = True
        final = await client.request(_query(key, 50))
        phase.last_seeds = (final.get("allocation") or {}).get("seeds")
    phase.wall = time.perf_counter() - start


def _direct_dynamic(ctx, index, graph, model, segment) -> dict:
    """Time the dynamic layer by calling it directly on one segment."""
    from repro.dynamic import GraphDelta, RRRepairEngine, save_repaired
    from repro.serve import IndexRegistry, load_service

    stem = ctx.workdir / "direct" / "drift"
    stem.parent.mkdir()
    index.save(stem)
    registry = IndexRegistry(directory=stem.parent)
    engine = RRRepairEngine(index, graph, model)
    repair, fraction, persist, rescan, load = [], [], [], [], []
    deltas = [e["delta"] for e in segment if e["kind"] == "delta"]
    for payload in deltas[:DIRECT_DELTAS]:
        delta = GraphDelta.from_dict(payload)
        outcome, seconds = timed(lambda: engine.repair(delta))
        repair.append(seconds)
        fraction.append(outcome.report.repaired_fraction)
        persist.append(timed(lambda: save_repaired(outcome.index, stem))[1])
        rescan.append(timed(registry.scan)[1])
        load.append(timed(lambda: load_service(stem))[1])
    return {"dynamic.repair_ms": 1e3 * mean(repair),
            "dynamic.repaired_frac": mean(fraction),
            "dynamic.persist_ms": 1e3 * mean(persist),
            "dynamic.rescan_ms": 1e3 * mean(rescan),
            "index.load_s": mean(load)}


def run_drift(ctx) -> Outcome:
    from repro.diffusion.estimators import estimate_spread
    from repro.dynamic import (
        build_repairable_index,
        replay_deltas,
        save_repaired,
    )
    from repro.index import FrozenRRIndex
    from repro.rrsets.coverage import node_selection

    out = Outcome()
    scale, rr_sets, _ = _drift_sizes(ctx.tiny)
    setups, server = [], None
    try:
        for r in range(DRIFT_SETUP_REPEATS):
            if server is not None:
                server.stop()
            stem = ctx.workdir / f"drift-{r}" / "drift"
            stem.parent.mkdir()
            server, graph, model, index, first, times = _drift_setup(
                ctx, stem, out)
            setups.append(times)
            out.tally.record(bool(first.get("ok")),
                             f"first query {str(first)[:300]}")
        out.e2e["setup_s"] = median([s for s, _, _ in setups])
        segments = _segments(graph, ctx, 12)

        def reset():
            save_repaired(index, stem)

        untraced = Phase()
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        asyncio.run(_drift_phase(server.address, stem.name, segments,
                                 seconds, out.tally, untraced, reset,
                                 pristine=True))
        final_phase = untraced
        if not ctx.trace:
            _e2e(out, untraced, server)
        else:
            traced = Phase()
            before, after = asyncio.run(_traced(
                server.address, lambda: _drift_phase(
                    server.address, stem.name, segments, seconds,
                    out.tally, traced, reset, pristine=False)))
            final_phase = traced
            out.layers.update(_serve_layers(before, after, traced))
            out.layers.update({
                "graphs.load_s": median([s for _, s, _ in setups]),
                "index.save_s": median([s for _, _, s in setups]),
                "index.array_bytes": float(out.header["index_bytes"]),
                "serve.reload_ms": 1e3 * mean(traced.reloads),
                "serve.repair_p50_ms": 1e3 * median(traced.repairs),
                "serve.repair_p90_ms": 1e3 * percentile(traced.repairs, 90),
                "obs.trace_overhead_pct": trace_overhead_pct(
                    traced.latencies, untraced.latencies),
            })
    finally:
        if server is not None:
            server.stop()
    if ctx.trace:
        out.layers.update(_direct_dynamic(ctx, index, graph, model,
                                          segments[0]))

    # repaired ≡ rebuilt: the final repaired index selects the seeds of a
    # keyed rebuild on the drifted graph
    final = FrozenRRIndex.load(stem)
    drifted = replay_deltas(graph, final.meta)
    rebuilt = build_repairable_index(drifted, model, rr_sets=rr_sets,
                                     base_seed=ctx.seed)
    expected = list(node_selection(rebuilt, 50).seeds)
    out.tally.record(final_phase.last_seeds == expected,
                     f"served {final_phase.last_seeds} != rebuilt "
                     f"{expected}")
    out.header["repairs"] = len(final_phase.repairs)
    if not ctx.trace:
        # the pristine index's k=50 answer: independent of where the
        # replay stopped
        out.e2e["welfare"] = estimate_spread(
            graph, first["allocation"]["seeds"], n_samples=SPREAD_SAMPLES,
            rng=EVAL_SEED)
    return out
