"""Workload ``build-pa200k``: a streaming index build at the ≥200k tier.

A 200k-node preferential-attachment graph (out-degree 3) from the
in-repo generator is written once per checkout as a gzipped SNAP edge
list.  One operation
parses it with ``load_edge_list_network`` and runs
``build_streaming_index`` (20k RR sets, k=50, ``workers=2``) on a warm
pool, one caller at a time.  Warm pools are keyed by graph identity, so
the build runs on the pooled graph object, whose content the fresh parse
must reproduce.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

from common import (
    CACHE_DIR,
    EVAL_SEED,
    GRAPH_SEED,
    Outcome,
    Pacer,
    counter_delta,
    hist_delta,
    median,
    per_op,
    selection_layers,
    src_env,
    tail,
    timed,
    trace_overhead_pct,
    vm_hwm_mib,
)

SETUP_REPEATS = 5
WORKERS = 2
OUT_DEGREE = 3
SPREAD_SAMPLES = 100

# The snapshot is generated in a child process, so the generator's memory
# never enters this process's peak RSS (VmHWM), which is the build's.
_SNAPSHOT_CHILD = """
import os, sys
from repro.graphs import generators
from repro.graphs.loaders import write_edge_list
path, nodes, out_degree, seed = sys.argv[1:5]
graph = generators.preferential_attachment(
    int(nodes), int(out_degree), rng=int(seed), directed=True, name="pa200k")
partial = path + ".partial.gz"
write_edge_list(graph, partial, include_probabilities=False)
os.replace(partial, path)
"""


def sizes(tiny: bool):
    """``(nodes, rr_sets, k)``."""
    return (3_000, 2_048, 10) if tiny else (200_000, 20_000, 50)


def snapshot(nodes: int) -> Path:
    """The reference graph as a gzipped SNAP edge list, generated once per
    checkout into the benchmark's cache."""
    path = CACHE_DIR / f"pa{nodes}-d{OUT_DEGREE}-{GRAPH_SEED}.txt.gz"
    if not path.exists():
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, "-c", _SNAPSHOT_CHILD, str(path),
                        str(nodes), str(OUT_DEGREE), str(GRAPH_SEED)],
                       check=True, env=src_env(), timeout=170)
    return path


def start_pool(graph, seed: int, keep: bool) -> float:
    """Start a 2-worker pool over ``graph`` and run one tiny task on it,
    which forks the workers and hands them the graph.  Returns seconds."""
    from repro.index.builder import ParallelRRSampler, ShardSpec, shard_size
    from repro.index.pool import acquire_pool, discard_pool, release_pool

    start = time.perf_counter()
    pool = acquire_pool(graph, WORKERS)
    with ParallelRRSampler(ShardSpec(kind="standard", graph=graph),
                           seed=seed, workers=WORKERS) as sampler:
        sampler.generate(WORKERS * shard_size())
    seconds = time.perf_counter() - start
    if keep:
        release_pool(pool)
    else:
        discard_pool(pool)
    return seconds


def verify_index(out_dir, graph, rr_sets: int, k: int):
    """``(ok, index, load_s)``: the manifest's fingerprint verifies
    against the graph and the counts and seeds are what was asked for."""
    from repro.index import FrozenRRIndex
    from repro.index.builder import expected_index_fingerprint

    index, load_s = timed(lambda: FrozenRRIndex.load(out_dir, mmap=True))
    seeds = list(index.meta.get("seeds") or [])
    ok = (index.fingerprint == expected_index_fingerprint(graph, None,
                                                          index.meta)
          and index.num_sets == rr_sets
          and index.num_nodes == graph.num_nodes
          and len(seeds) == k and len(set(seeds)) == k)
    return ok, index, load_s


def run_workload(ctx) -> Outcome:
    from repro.graphs.datasets import load_edge_list_network
    from repro.index import build_streaming_index
    from repro.obs import get_metrics

    out = Outcome()
    nodes, rr_sets, k = sizes(ctx.tiny)
    path = snapshot(nodes)
    graph = load_edge_list_network(path, directed=True)
    out.header.update(graph="pa200k", nodes=graph.num_nodes,
                      edges=graph.num_edges, rr_sets=rr_sets)

    setup = [start_pool(graph, ctx.seed, keep=i == SETUP_REPEATS - 1)
             for i in range(SETUP_REPEATS)]
    out.e2e["setup_s"] = median(setup)

    def build(i: int):
        """One operation, checked: ``(seconds, load_s, build_s, index,
        index_load_s)``."""
        index_dir = ctx.workdir / f"index-{i}"
        fresh, load_s = timed(
            lambda: load_edge_list_network(path, directed=True))
        _, build_s = timed(lambda: build_streaming_index(
            graph, out=index_dir, k=k, rr_sets=rr_sets, seed=ctx.seed,
            workers=WORKERS))
        parsed = fresh.num_nodes == nodes == graph.num_nodes \
            and fresh.num_edges == graph.num_edges
        del fresh
        ok, index, index_load_s = verify_index(index_dir, graph, rr_sets, k)
        out.tally.record(parsed and ok, f"build {i}: parse ok={parsed}, "
                                        f"manifest ok={ok}")
        return load_s + build_s, load_s, build_s, index, index_load_s

    if not ctx.trace:
        pacer, times, index = Pacer(ctx.seconds), [], None
        while pacer.more():
            seconds, _, _, index, _ = build(len(times))
            times.append(seconds)
            pacer.done(seconds)
        out.e2e["op_p50_ms"] = median(times) * 1e3
        value, label = tail(times)
        out.e2e["op_tail_ms"] = value * 1e3
        out.notes["op_tail_ms"] = f"{label} of {len(times)} builds"
        out.e2e["ops_per_s"] = (len(times) - out.tally.failed) / sum(times)
        # this process did nothing but load and build: its peak RSS is
        # the build's (read before the spread estimate allocates)
        out.e2e["peak_rss_mb"] = vm_hwm_mib()
        out.e2e["welfare"] = _spread(graph, index)
    else:
        baseline = build(0)[0]
        registry = get_metrics()
        before = registry.summary()
        seconds, load_s, _, index, index_load_s = build(1)
        after = registry.summary()
        out.layers.update(_layers(before, after, index, load_s,
                                  index_load_s))
        out.layers["index.pool_start_s"] = median(setup)
        out.layers["obs.trace_overhead_pct"] = trace_overhead_pct(
            [seconds], [baseline])
    out.header["index_bytes"] = index.array_nbytes()
    return out


def _spread(graph, index) -> float:
    """The benchmark's own IC spread estimate of the built seeds."""
    from repro.diffusion.estimators import estimate_spread

    return estimate_spread(graph, index.meta["seeds"],
                           n_samples=SPREAD_SAMPLES, rng=EVAL_SEED)


def _layers(before, after, index, load_s: float, index_load_s: float):
    _, sample_s = hist_delta(before, after, "repro_build_sample_seconds")
    sets = counter_delta(before, after, "repro_build_rr_sets_total")
    _, spill_s = hist_delta(before, after, "repro_build_spill_seconds")
    _, invert_s = hist_delta(before, after, "repro_build_invert_seconds")
    members = float(index._packed()[0][-1])
    layers = selection_layers(before, after, 1)
    layers.update({
        "graphs.load_s": load_s,
        "engine.sample_s": sample_s,
        "engine.rr_sets": sets,
        "engine.rr_sets_per_s": sets / sample_s if sample_s else 0.0,
        "engine.members_per_set": per_op(members, index.num_sets),
        "index.spill_s": spill_s,
        "index.invert_s": invert_s,
        "index.array_bytes": float(index.array_nbytes()),
        "index.load_s": index_load_s,
        "rrsets.cap_hit": float(bool(index.meta.get("cap_hit"))),
    })
    return layers
