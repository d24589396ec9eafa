"""Keyed (counter-based) RR-set sampling for repairable indexes.

The stream-RNG samplers in :mod:`repro.engine.reverse` draw each edge
coin from a shared generator, so a set's coins depend on every draw that
came before it — resampling one set cannot reproduce the others.  Here
every coin is a **pure function of its key**: the coin deciding whether
edge ``src -> dst`` is live inside RR set ``i`` is

    ``u = u01(mix64(seed_i ^ mix64(src ^ mix64(dst))))``,  live iff
    ``u < p(src -> dst)``,

with ``seed_i = mix64(mix64(i) ^ base_seed)`` and ``mix64`` the
SplitMix64 finalizer.  Roots come from the same keyspace.  Three
properties fall out, and they are the entire correctness story of
:mod:`repro.dynamic.repair`:

* **Replay** — re-running a set's reverse BFS over an unchanged graph
  region queries the same keys and reproduces the set bit-for-bit, no
  matter how sampling is batched or chunked.
* **Locality** — deleting an edge removes its key from the walk;
  inserting one introduces a fresh, independent coin; changing a
  probability reuses the same uniform ``u`` against the new threshold
  (the standard monotone coupling: the edge flips only if ``u`` crosses
  the old/new threshold gap).
* **Exactness** — repairing the touched sets of a delta yields exactly
  the index a from-scratch keyed rebuild on the new graph would
  produce, so incremental maintenance inherits the sampler's guarantees
  instead of accumulating bias.

The price is a different coin stream from the stream-RNG engines: a
keyed index is *not* bit-comparable to a `build_index` artifact at the
same seed, which is why repairable builds are opt-in
(``engine="keyed"`` in the manifest keeps v1 spec routing away from
them).

All three sampler kinds are supported.  The keyed **marginal** sampler
differs from the stream one in how it stores dead sets: instead of an
empty member list it records the partial traversal with weight ``0.0``,
so the repair engine can see which nodes the dead walk touched.
Zero-weight sets never enter the inverted CSR, so selection semantics
are unchanged; estimators normalizing by total weight should use the
manifest's ``dynamic.rr_sets`` count instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.coins import gather_csr_edges
from repro.engine.config import batch_size
from repro.engine.reverse import VisitedPairs
from repro.graphs.graph import DirectedGraph

#: engine tag recorded in repairable manifests (never matches a v1 spec)
KEYED_ENGINE = "keyed"

#: sampler kinds, matching repro.index.builder.SAMPLER_KINDS
KEYED_KINDS = ("standard", "marginal", "weighted")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)
#: domain-separation tags (arbitrary odd constants)
_ROOT_TAG = np.uint64(0xD1B54A32D192ED03)
_KEEP_TAG = np.uint64(0x8CB92BA72F3D8DD7)
_FRESH_TAG = np.uint64(0xAEF17502108EF2D9)


def mix64(value) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays.

    All constants and shift counts are ``np.uint64`` so numpy never
    upcasts the unsigned arithmetic (wrapping is intentional).
    """
    with np.errstate(over="ignore"):
        z = np.asarray(value, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def u01(bits: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniform doubles in ``[0, 1)`` (53-bit)."""
    return (np.asarray(bits, dtype=np.uint64) >> np.uint64(11)) \
        .astype(np.float64) * (2.0 ** -53)


def set_seeds(base_seed: int, indices) -> np.ndarray:
    """Per-RR-set uint64 seeds derived from ``base_seed``."""
    base = np.uint64(int(base_seed)) & _U64
    idx = np.asarray(indices, dtype=np.uint64)
    return mix64(mix64(idx) ^ base)


def keyed_roots(base_seed: int, indices, num_nodes: int) -> np.ndarray:
    """Deterministic uniform roots for the given set indices."""
    draws = u01(mix64(set_seeds(base_seed, indices) ^ _ROOT_TAG))
    roots = (draws * float(num_nodes)).astype(np.int64)
    return np.minimum(roots, np.int64(num_nodes - 1))


def reroot(base_seed: int, indices, roots, old_n: int, new_n: int,
           epoch: int) -> Tuple[np.ndarray, np.ndarray]:
    """Re-root sets after ``new_n - old_n`` node insertions.

    Each set keeps its root with probability ``old_n / new_n`` and
    otherwise moves to a uniformly chosen *new* node — the unique
    coupling that restores exact uniformity over ``[0, new_n)`` while
    re-rooting (and hence resampling) as few sets as possible.  The
    coins are keyed on ``(set, epoch)`` so repeated growth epochs stay
    independent.

    Returns ``(new_roots, moved_mask)``.
    """
    if new_n <= old_n:
        return np.asarray(roots, dtype=np.int64).copy(), \
            np.zeros(len(roots), dtype=bool)
    seeds = set_seeds(base_seed, indices)
    epoch_tag = mix64(np.uint64(int(epoch)) ^ _KEEP_TAG)
    keep_draws = u01(mix64(seeds ^ epoch_tag))
    moved = keep_draws >= (float(old_n) / float(new_n))
    fresh_tag = mix64(np.uint64(int(epoch)) ^ _FRESH_TAG)
    fresh_draws = u01(mix64(seeds ^ fresh_tag))
    fresh = old_n + np.minimum(
        (fresh_draws * float(new_n - old_n)).astype(np.int64),
        np.int64(new_n - old_n - 1))
    new_roots = np.where(moved, fresh, np.asarray(roots, dtype=np.int64))
    return new_roots.astype(np.int64), moved


def _in_edge_keys(indptr: np.ndarray, in_sources: np.ndarray
                  ) -> np.ndarray:
    """The set-independent half of every coin key, per in-CSR edge.

    Position ``e`` of the in-CSR holds edge ``src -> dst`` with ``dst``
    the row; its key ``mix64(src ^ mix64(dst))`` does not depend on the
    RR set, so one O(n + E) pass leaves a gathered edge one ``mix64``.
    """
    dst_keys = mix64(np.arange(len(indptr) - 1, dtype=np.uint64))
    return mix64(in_sources.astype(np.uint64)
                 ^ np.repeat(dst_keys, np.diff(indptr)))


def keyed_rr_sets(graph: DirectedGraph, indices, roots, base_seed: int, *,
                  kind: str = "standard",
                  blocked: Sequence[int] = (),
                  node_block_utility: Optional[Dict[int, float]] = None,
                  superior_utility: float = 0.0,
                  ) -> List[Tuple[np.ndarray, float]]:
    """Sample (or replay) the RR sets with the given global indices.

    Returns ``(members, weight)`` per set, aligned with ``indices``;
    members are ascending int64.  Because every coin is keyed, the
    result is independent of chunking — sampling sets ``[0..N)`` in one
    call equals sampling any partition of them in any order.
    """
    if kind not in KEYED_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}; "
                         f"expected one of {KEYED_KINDS}")
    indices = np.asarray(indices, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    if indices.shape != roots.shape:
        raise ValueError(f"expected {indices.size} roots, got {roots.size}")
    n = graph.num_nodes
    if indices.size == 0:
        return []
    if roots.size and (roots.min() < 0 or roots.max() >= n):
        raise ValueError(f"root ids must lie in [0, {n})")
    indptr, in_sources, in_probs = graph.in_csr()
    edge_keys = _in_edge_keys(indptr, in_sources)
    seeds = set_seeds(base_seed, indices)

    blocked_mask = None
    block_values = None
    if kind == "marginal":
        blocked_mask = np.zeros(n, dtype=bool)
        if len(blocked):
            blocked_mask[np.asarray(list(blocked), dtype=np.int64)] = True
    elif kind == "weighted":
        blocked_mask = np.zeros(n, dtype=bool)
        block_values = np.zeros(n, dtype=np.float64)
        for node, value in (node_block_utility or {}).items():
            blocked_mask[int(node)] = True
            block_values[int(node)] = float(value)

    visits = VisitedPairs(batch_size(n, indices.size), n)
    results: List[Tuple[np.ndarray, float]] = []
    done = 0
    while done < indices.size:
        chunk = min(batch_size(n, indices.size - done), indices.size - done)
        lo, hi = done, done + chunk
        results.extend(_sample_chunk(
            visits, seeds[lo:hi], roots[lo:hi],
            (indptr, in_sources, in_probs, edge_keys), kind, blocked_mask,
            block_values, float(superior_utility)))
        done = hi
    return results


def _sample_chunk(visits: VisitedPairs, seeds: np.ndarray,
                  roots: np.ndarray, in_csr, kind: str,
                  blocked_mask, block_values,
                  superior_utility: float) -> List[Tuple[np.ndarray, float]]:
    indptr, in_sources, in_probs, edge_keys = in_csr
    k = seeds.size
    rows = np.arange(k, dtype=np.int64)
    visits.start(roots)

    dead = np.zeros(k, dtype=bool)        # marginal: walk hit a blocked node
    stopped = np.zeros(k, dtype=bool)     # weighted: level-stop reached
    best_block = np.zeros(k, dtype=np.float64)

    if kind == "marginal":
        dead = blocked_mask[roots].copy()
        active = ~dead
    elif kind == "weighted":
        hit = blocked_mask[roots]
        best_block[hit] = block_values[roots[hit]]
        stopped = hit.copy()
        active = ~stopped
    else:
        active = np.ones(k, dtype=bool)

    sample_ids = rows[active]
    node_ids = roots[active]
    while sample_ids.size:
        # gather the frontier's in-edges, carrying the sample per edge
        edge_ids, edge_samples = gather_csr_edges(indptr, node_ids,
                                                  sample_ids)
        coins = u01(mix64(seeds[edge_samples] ^ edge_keys[edge_ids]))
        live = coins < in_probs[edge_ids]
        src_samples, src_nodes = visits.add(edge_samples[live],
                                            in_sources[edge_ids[live]])
        if kind == "marginal":
            hit = blocked_mask[src_nodes]
            dead[src_samples[hit]] = True
            keep = ~dead[src_samples]
            src_samples, src_nodes = src_samples[keep], src_nodes[keep]
        elif kind == "weighted":
            hit = blocked_mask[src_nodes]
            np.maximum.at(best_block, src_samples[hit],
                          block_values[src_nodes[hit]])
            stopped[src_samples[hit]] = True
            keep = ~stopped[src_samples]
            src_samples, src_nodes = src_samples[keep], src_nodes[keep]
        sample_ids, node_ids = src_samples, src_nodes

    samples, members = visits.finish()
    sets = np.split(members, np.searchsorted(samples, rows[1:]))
    if kind == "marginal":
        weights = [0.0 if gone else 1.0 for gone in dead.tolist()]
    elif kind == "weighted":
        weights = [max(0.0, superior_utility - best)
                   for best in best_block.tolist()]
    else:
        weights = [1.0] * k
    return list(zip(sets, weights))


__all__ = [
    "KEYED_ENGINE",
    "KEYED_KINDS",
    "keyed_roots",
    "keyed_rr_sets",
    "mix64",
    "reroot",
    "set_seeds",
    "u01",
]
