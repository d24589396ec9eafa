"""Benchmark: memory tiers of the index store (build/serve at scale).

Exercises the full scaling path on synthetic SNAP-style snapshots:
generate a preferential-attachment graph, write it as a gzipped edge
list, then — in separate measured subprocesses so peak RSS is meaningful —

* **build** — parse the edge list, apply weighted-cascade, run the
  chunked streaming index build (``build_streaming_index``, fixed θ) and
  record wall time, peak RSS and the on-disk array bytes;
* **serve** — memory-map the frozen index (``mmap=True``) and answer
  greedy selection queries, recording first-query and repeat-query
  latency, resident bytes and peak RSS.  At every tier the serve process
  must stay **strictly below the index's on-disk array bytes** in peak
  RSS — the point of the mmap tier: serving does not need the index in
  heap memory.

Tiers scale with ``REPRO_BENCH_SCALE``:

* ``smoke`` — small tier only (5k nodes);
* ``default`` — small + mid (50k nodes);
* ``large`` — small + mid + large (**1M nodes**, the acceptance tier).

Results are written to ``benchmarks/BENCH_scale.json``.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from conftest import report

from repro.graphs import generators, weighting
from repro.graphs.loaders import write_edge_list

ARTIFACT = Path(__file__).resolve().parent / "BENCH_scale.json"

#: tier -> (num nodes, RR sets streamed, selection budget k)
TIERS = {
    "small": (5_000, 20_000, 10),
    "mid": (50_000, 100_000, 10),
    "large": (1_000_000, 2_000_000, 10),
}
_TIERS_BY_SCALE = {
    "smoke": ("small",),
    "default": ("small", "mid"),
    "large": ("small", "mid", "large"),
}

#: chunk sizes keep the streaming working set bounded without drowning the
#: small tiers in per-chunk overhead
_CHUNK_SETS = {"small": 8_192, "mid": 16_384, "large": 65_536}

# Children report their own peak RSS via VmHWM, not getrusage: Linux
# folds the pre-exec (forked, copy-on-write) address space's high-water
# mark into ``ru_maxrss`` at exec, so a child spawned from a parent that
# *ever* peaked high inherits that peak forever — even after the parent
# freed the memory.  ``VmHWM`` lives on the mm struct, which exec
# replaces, so it tracks only the child's own pages.  Each child also
# records VmHWM at startup as a sanity baseline (the bare interpreter).
_RSS_PREAMBLE = """
import json, sys, time
def _vm_hwm():
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0
inherited_rss = _vm_hwm()
"""

_BUILD_CHILD = _RSS_PREAMBLE + """
path, out, rr_sets, chunk_sets, k = sys.argv[1:6]
t0 = time.perf_counter()
from repro.graphs.datasets import load_edge_list_network
graph = load_edge_list_network(path, directed=True)
load_s = time.perf_counter() - t0
t1 = time.perf_counter()
from repro.index import build_streaming_index
index = build_streaming_index(
    graph, out=out, k=int(k), rr_sets=int(rr_sets), seed=2020, workers=1,
    chunk_sets=int(chunk_sets))
build_s = time.perf_counter() - t1
print(json.dumps({
    "load_s": load_s,
    "build_s": build_s,
    "num_nodes": index.num_nodes,
    "num_sets": index.num_sets,
    "array_bytes": index.array_nbytes(),
    "id_dtype": str(index.id_dtype),
    "inherited_rss_bytes": inherited_rss,
    "peak_rss_bytes": _vm_hwm(),
}))
"""

_SERVE_CHILD = _RSS_PREAMBLE + """
out, k = sys.argv[1], int(sys.argv[2])
from repro.index import AllocationService, FrozenRRIndex
t0 = time.perf_counter()
index = FrozenRRIndex.load(out, mmap=True)
load_s = time.perf_counter() - t0
service = AllocationService(index)
t1 = time.perf_counter()
first = service.query("select", k=k)
first_s = time.perf_counter() - t1
repeats = []
for prefix in range(1, k):
    t = time.perf_counter()
    service.query("select", k=prefix)  # prefix of the cached greedy order
    repeats.append(time.perf_counter() - t)
print(json.dumps({
    "load_s": load_s,
    "first_query_s": first_s,
    "repeat_query_s": max(repeats) if repeats else 0.0,
    "seeds": first["allocation"]["seeds"],
    "mmapped": index.mmapped,
    "resident_bytes": index.resident_nbytes(),
    "array_bytes": index.array_nbytes(),
    "inherited_rss_bytes": inherited_rss,
    "peak_rss_bytes": _vm_hwm(),
}))
"""


def _run_child(code, *args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise AssertionError(
            f"measured child failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _tier_snapshot(tier, nodes, tmp_path):
    """Write the tier's synthetic snapshot as a gzipped SNAP edge list.

    Returns only the edge count, not the graph: keeping a million-node
    graph alive in the parent while the measured children run would
    compete with them for physical memory and skew their RSS peaks.
    """
    graph = generators.preferential_attachment(
        nodes, 3, rng=2020, directed=True, name=f"scale-{tier}")
    path = tmp_path / f"{tier}.txt.gz"
    write_edge_list(graph, path, include_probabilities=False)
    num_edges = graph.num_edges
    del graph
    gc.collect()
    return num_edges, path


def test_memory_tiers(scale, tmp_path):
    tiers = _TIERS_BY_SCALE.get(scale.name, ("small",))
    rows = []
    for tier in tiers:
        nodes, rr_sets, k = TIERS[tier]
        gen_start = time.perf_counter()
        num_edges, snapshot = _tier_snapshot(tier, nodes, tmp_path)
        gen_s = time.perf_counter() - gen_start
        out = tmp_path / f"{tier}-index"

        build = _run_child(_BUILD_CHILD, snapshot, out, rr_sets,
                           _CHUNK_SETS[tier], k)
        serve = _run_child(_SERVE_CHILD, out, k)

        assert build["num_nodes"] == nodes
        assert build["num_sets"] == rr_sets
        assert serve["mmapped"] is True
        assert serve["resident_bytes"] == 0
        assert len(serve["seeds"]) == k
        # the acceptance criterion: a warm mmap-served process never holds
        # the index in heap memory, so its peak RSS stays strictly below
        # the on-disk array footprint (page-cache pages are the kernel's).
        # Only meaningful once the index dwarfs the interpreter baseline
        # (~40 MiB for python+numpy), i.e. at the large tier.
        if tier == "large":
            assert serve["inherited_rss_bytes"] < build["array_bytes"], (
                f"{tier}: the serve child inherited "
                f"{serve['inherited_rss_bytes']} bytes of parent RSS at "
                f"fork — its peak is a measurement of this process, not "
                f"of serving; slim the parent before spawning children")
            assert serve["peak_rss_bytes"] < build["array_bytes"], (
                f"{tier}: serve RSS {serve['peak_rss_bytes']} >= "
                f"array bytes {build['array_bytes']}")

        rows.append({
            "tier": tier,
            "nodes": nodes,
            "edges": num_edges,
            "rr_sets": rr_sets,
            "id_dtype": build["id_dtype"],
            "snapshot_gen_s": round(gen_s, 3),
            "edge_list_load_s": round(build["load_s"], 3),
            "build_s": round(build["build_s"], 3),
            "array_mib": round(build["array_bytes"] / 2 ** 20, 2),
            "build_rss_mib": round(build["peak_rss_bytes"] / 2 ** 20, 1),
            "mmap_load_s": round(serve["load_s"], 4),
            "first_query_s": round(serve["first_query_s"], 4),
            "repeat_query_s": round(serve["repeat_query_s"], 5),
            "serve_rss_mib": round(serve["peak_rss_bytes"] / 2 ** 20, 1),
            "serve_inherited_rss_mib": round(
                serve["inherited_rss_bytes"] / 2 ** 20, 1),
        })

    report("memory tiers: chunked build + mmap serve", rows)
    ARTIFACT.write_text(json.dumps({
        "benchmark": "scale",
        "scale": scale.name,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "tiers": rows,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {ARTIFACT}")
