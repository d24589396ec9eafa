"""Benchmark: the CSR-native greedy selection engine vs the Python loop.

Measures the node-selection phase (Algorithm 5) on a 2k-node smoke graph
with k = 50 — the acceptance setting of the selection-engine PR:

* **selection strategies** — one greedy selection over the same packed RR
  collection with ``strategy="reference"`` (the retained pre-PR pure-Python
  loop), ``"eager"`` (vectorized exact updates) and ``"lazy"`` (CELF heap),
  asserting bit-identical results and the >= 10x lazy-vs-reference
  speedup of the acceptance criterion;
* **cold build-and-select** — sampling plus one selection, per strategy
  (the sampling cost is shared, so this shows the end-to-end effect on a
  direct run);
* **warm index-serve** — selections answered from a loaded
  :class:`~repro.index.FrozenRRIndex` (the serving hot path), plus a rerun
  of the PR 2 warm ``AllocationService`` sweep workload, compared against
  the latency recorded in ``BENCH_index.json``.

Results are written to ``benchmarks/BENCH_selection.json``.  Scale is
controlled by ``REPRO_BENCH_SCALE`` like the rest of the suite (the graph
stays at 2k nodes in every preset; larger presets sample more RR sets).
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from conftest import report

from repro.engine.reverse import random_rr_sets
from repro.graphs import generators, weighting
from repro.index import AllocationService, FrozenRRIndex, build_index
from repro.rrsets.coverage import (
    SELECTION_STRATEGIES,
    RRCollection,
    node_selection,
)
from repro.rrsets.imm import IMMOptions
from repro.utility.configs import two_item_config

ARTIFACT = Path(__file__).resolve().parent / "BENCH_selection.json"
INDEX_ARTIFACT = Path(__file__).resolve().parent / "BENCH_index.json"

#: the acceptance setting: k = 50 on a 2k-node smoke graph
GRAPH_NODES = 2_000
BUDGET_K = 50

_NUM_RR_SETS = {"smoke": 20_000, "default": 60_000, "large": 200_000}
#: reruns per timing; the minimum is reported (timing noise, not variance,
#: is the enemy at millisecond scale)
REPEATS = 3


def _best_of(func, repeats=REPEATS):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = func()
        best = min(best, time.perf_counter() - start)
    return best, value


def _sample_collection(graph, num_sets, seed):
    rng = np.random.default_rng(seed)
    collection = RRCollection(graph.num_nodes)
    while collection.num_sets < num_sets:
        collection.extend(
            (nodes, 1.0)
            for nodes in random_rr_sets(graph, num_sets - collection.num_sets,
                                        rng))
    return collection


def _assert_identical(result_a, result_b):
    assert result_a.seeds == result_b.seeds
    assert result_a.prefix_weights == result_b.prefix_weights
    assert result_a.covered_weight == result_b.covered_weight


def test_node_selection_speedup(scale, tmp_path):
    graph = weighting.weighted_cascade(
        generators.erdos_renyi(GRAPH_NODES, avg_degree=8.0, rng=7,
                               directed=True,
                               name=f"er{GRAPH_NODES}-selection-bench"))
    num_sets = _NUM_RR_SETS.get(scale.name, 20_000)

    sample_s, collection = _best_of(
        lambda: _sample_collection(graph, num_sets, scale.seed), repeats=1)

    # --- the selection phase, strategy by strategy ----------------------
    # (one warm-up selection builds the cached inverted CSR / gains, the
    # state every steady-state selection runs against)
    node_selection(collection, BUDGET_K)
    times, results = {}, {}
    for strategy in SELECTION_STRATEGIES:
        times[strategy], results[strategy] = _best_of(
            lambda s=strategy: node_selection(collection, BUDGET_K,
                                              strategy=s))
    for strategy in ("eager", "lazy"):
        _assert_identical(results[strategy], results["reference"])

    lazy_speedup = times["reference"] / max(times["lazy"], 1e-9)
    eager_speedup = times["reference"] / max(times["eager"], 1e-9)

    # --- warm index-serve: selections over the frozen, loaded index -----
    frozen = collection.freeze(meta={"sampler": "standard"})
    frozen.save(tmp_path / "selection-bench")
    loaded = FrozenRRIndex.load(tmp_path / "selection-bench")
    node_selection(loaded, BUDGET_K)  # warm the caches once, as a server
    warm_times = {}
    for strategy in SELECTION_STRATEGIES:
        warm_times[strategy], warm_result = _best_of(
            lambda s=strategy: node_selection(loaded, BUDGET_K, strategy=s))
        _assert_identical(warm_result, results["reference"])

    # --- the PR 2 warm AllocationService sweep, on the new engine -------
    service_graph = weighting.weighted_cascade(
        generators.erdos_renyi(300, avg_degree=8.0, rng=7, directed=True,
                               name="er300-index-bench"))
    model = two_item_config("C1")
    options = IMMOptions(max_rr_sets=20_000)
    sweep = [{"i": b, "j": b} for b in (2, 4, 6, 8, 10)]
    service_index = build_index(service_graph, model, sampler="marginal",
                                budgets={"i": 10, "j": 10}, options=options,
                                seed=scale.seed)
    service_index.save(tmp_path / "service-bench")

    def warm_sweep():
        index = FrozenRRIndex.load(tmp_path / "service-bench")
        service = AllocationService(index, graph=service_graph, model=model)
        return [service.query("SeqGRD-NM", budgets=b) for b in sweep]

    warm_sweep_s, warm_answers = _best_of(warm_sweep)
    assert all(answer["allocation"] for answer in warm_answers)

    pr2_warm_s = None
    if INDEX_ARTIFACT.exists():
        recorded = json.loads(INDEX_ARTIFACT.read_text(encoding="utf-8"))
        pr2_warm_s = recorded.get("warm_sweep_seconds")

    rows = [
        {"strategy": strategy,
         "selection_ms": round(times[strategy] * 1e3, 3),
         "cold_build_and_select_s": round(sample_s + times[strategy], 4),
         "warm_index_serve_ms": round(warm_times[strategy] * 1e3, 3),
         "speedup_vs_reference": round(
             times["reference"] / max(times[strategy], 1e-9), 1)}
        for strategy in ("reference", "eager", "lazy")
    ]
    report(f"Node selection — {graph.name} ({graph.num_nodes} nodes, "
           f"{collection.num_sets} RR sets, k={BUDGET_K}), "
           f"lazy speedup {lazy_speedup:.1f}x", rows,
           columns=["strategy", "selection_ms", "cold_build_and_select_s",
                    "warm_index_serve_ms", "speedup_vs_reference"])
    if pr2_warm_s:
        report("Warm AllocationService sweep (PR 2 workload)", [
            {"engine": "PR 2 recorded", "seconds": round(pr2_warm_s, 5)},
            {"engine": "this run", "seconds": round(warm_sweep_s, 5)},
        ], columns=["engine", "seconds"])

    ARTIFACT.write_text(json.dumps({
        "benchmark": "node_selection",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale.name,
        "graph": {"name": graph.name, "nodes": graph.num_nodes,
                  "edges": graph.num_edges},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "k": BUDGET_K,
        "num_rr_sets": collection.num_sets,
        "avg_rr_set_size": collection.average_set_size(),
        "sampling_seconds": sample_s,
        "selection_seconds": {s: times[s] for s in SELECTION_STRATEGIES},
        "cold_build_and_select_seconds": {
            s: sample_s + times[s] for s in SELECTION_STRATEGIES},
        "warm_index_serve_seconds": {
            s: warm_times[s] for s in SELECTION_STRATEGIES},
        "lazy_speedup_vs_reference": lazy_speedup,
        "eager_speedup_vs_reference": eager_speedup,
        "service_warm_sweep_seconds": warm_sweep_s,
        "pr2_warm_sweep_seconds": pr2_warm_s,
        "warm_latency_improvement": (pr2_warm_s / warm_sweep_s
                                     if pr2_warm_s else None),
    }, indent=2) + "\n")

    assert lazy_speedup >= 10.0, (
        f"lazy node selection must be >= 10x faster than the pre-PR "
        f"pure-Python loop at k={BUDGET_K}, measured {lazy_speedup:.1f}x")
    if pr2_warm_s is not None:
        assert warm_sweep_s < pr2_warm_s, (
            f"the warm AllocationService sweep must beat the "
            f"BENCH_index.json recording ({warm_sweep_s:.4f}s vs "
            f"{pr2_warm_s:.4f}s)")
