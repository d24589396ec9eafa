"""Batched reverse-BFS sampling of standard, marginal and weighted RR sets.

The scalar generators in :mod:`repro.rrsets.rrset` run one reverse BFS per
RR set with a Python ``deque``.  Here a whole **chunk of K roots** advances
level-synchronously: every level gathers the in-edges of all frontier
nodes of all samples in one ragged CSR gather, and the edge coins come
from :func:`~repro.engine.coins.bernoulli_mask` — pre-drawn geometric
edge-skip coins when the gathered probabilities are uniform, a vectorized
comparison otherwise.

Visited state (:class:`VisitedPairs`) costs what the walks visit:
membership tests read one ``(K, n)`` boolean buffer that lives for the
whole call, but a chunk's sets are extracted from, and the buffer is
cleared at, only the (sample, node) pairs the chunk touched — a few
members per set, never a scan of all ``K × n`` cells.

The three samplers implement the same semantics as their scalar
counterparts and share one chunk loop:

* standard RR sets — plain reverse reachability;
* marginal RR sets — discarded (emptied) as soon as the BFS touches the
  fixed seed set;
* weighted RR sets — level-by-level BFS that stops after the first level
  containing a fixed seed, carrying ``max(0, U⁺(i_m) − best block
  utility)`` as the weight.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.config import batch_size
from repro.engine.coins import bernoulli_mask, gather_csr_edges
from repro.graphs.graph import DirectedGraph
from repro.utils.rng import RngLike, ensure_rng


class VisitedPairs:
    """The (sample, node) pairs a chunk of reverse BFSs has visited.

    ``add`` filters newly reached pairs against a reusable ``(rows, n)``
    membership buffer and records the fresh ones by key
    ``sample * n + node``; ``finish`` returns the recorded pairs in sorted
    key order (samples in order, nodes ascending within a sample) and
    clears only their cells, so the buffer is clean for the next chunk.
    """

    def __init__(self, rows: int, n: int) -> None:
        self._n = n
        self._member = np.zeros((rows, n), dtype=bool)
        self._keys: List[np.ndarray] = []

    def start(self, roots: np.ndarray) -> None:
        """Open a chunk whose sample ``k`` is rooted at ``roots[k]``."""
        rows = np.arange(len(roots), dtype=np.int64)
        self._member[rows, roots] = True
        self._keys = [rows * self._n + roots]

    def add(self, samples: np.ndarray,
            nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Mark the pairs not visited yet; return them once each, in key
        order (one level can reach a node through two frontier nodes)."""
        fresh = ~self._member[samples, nodes]
        keys = np.unique(samples[fresh] * self._n + nodes[fresh])
        samples, nodes = np.divmod(keys, self._n)
        self._member[samples, nodes] = True
        self._keys.append(keys)
        return samples, nodes

    def finish(self) -> Tuple[np.ndarray, np.ndarray]:
        """Close the chunk: every visited ``(samples, nodes)`` pair in
        row-major order."""
        samples, nodes = np.divmod(np.sort(np.concatenate(self._keys)),
                                   self._n)
        self._member[samples, nodes] = False
        self._keys = []
        return samples, nodes


def _expand_level(graph_csr, sample_ids: np.ndarray, node_ids: np.ndarray,
                  rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the live in-edges of the frontier (sample, node) pairs.

    Returns ``(sample_ids, source_ids)`` of the successful reverse edges.
    """
    indptr, indices, probs = graph_csr
    edge_ids, edge_samples = gather_csr_edges(indptr, node_ids, sample_ids)
    live = bernoulli_mask(rng, probs[edge_ids])
    return edge_samples[live], indices[edge_ids[live]]


def _as_views(offsets: np.ndarray, nodes: np.ndarray) -> List[np.ndarray]:
    """Slice a packed ``(offsets, nodes)`` pair into per-set views."""
    return [nodes[offsets[k]:offsets[k + 1]]
            for k in range(len(offsets) - 1)]


def _sample_packed(graph: DirectedGraph, kind: str, count: int,
                   rng: RngLike, roots: Optional[Sequence[int]],
                   blocked: Optional[Dict[int, float]] = None,
                   superior_utility: float = 0.0
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
    """The chunk loop of the three stream samplers.

    ``blocked`` maps each fixed seed to its block utility (marginal
    sampling only reads the keys).  Returns ``(offsets, nodes, weights,
    roots)``.  Chunk sizes come from :func:`batch_size`; together with
    the seed they fix the RNG stream, because roots are drawn per chunk.
    """
    rng = ensure_rng(rng)
    count = max(int(count), 0)
    n = graph.num_nodes
    if count == 0 or n == 0:
        return (np.zeros(count + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.zeros(count, dtype=np.float64),
                np.full(count, -1, dtype=np.int64))
    if roots is not None:
        roots = np.asarray(list(roots), dtype=np.int64)
        if len(roots) != count:
            raise ValueError(f"expected {count} roots, got {len(roots)}")
        if roots.min() < 0 or roots.max() >= n:
            raise ValueError(f"root ids must lie in [0, {n})")
    blocked_mask = np.zeros(n, dtype=bool)
    block_values = np.full(n, -np.inf)
    for node, value in (blocked or {}).items():
        node = int(node)
        if 0 <= node < n:
            blocked_mask[node] = True
            block_values[node] = float(value)
    graph_csr = graph.in_csr()
    visits = VisitedPairs(batch_size(n, count), n)
    counts_parts: List[np.ndarray] = []
    nodes_parts: List[np.ndarray] = []
    weights = np.zeros(count, dtype=np.float64)
    all_roots = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        chunk = batch_size(n, count - done)
        chunk_roots = rng.integers(0, n, size=chunk).astype(np.int64) \
            if roots is None else roots[done:done + chunk]
        visits.start(chunk_roots)
        # marginal: the walk touched a fixed seed (the set is emptied);
        # weighted: a fixed seed was found in the last explored level
        stopped = blocked_mask[chunk_roots]
        best_block = np.where(stopped, block_values[chunk_roots], -np.inf)
        alive = ~stopped
        front_samples = np.arange(chunk, dtype=np.int64)[alive]
        front_nodes = chunk_roots[alive]
        while len(front_samples):
            front_samples, front_nodes = visits.add(*_expand_level(
                graph_csr, front_samples, front_nodes, rng))
            if kind == "standard":
                continue
            hit = blocked_mask[front_nodes]
            if hit.any():
                if kind == "weighted":
                    # the whole level is explored before the stop check,
                    # matching the scalar sampler (every fixed seed found
                    # in this level counts)
                    np.maximum.at(best_block, front_samples[hit],
                                  block_values[front_nodes[hit]])
                stopped[front_samples[hit]] = True
                keep = ~stopped[front_samples]
                front_samples = front_samples[keep]
                front_nodes = front_nodes[keep]
        sample_ids, node_ids = visits.finish()
        if kind == "marginal":
            # discarded samples are emptied, not dropped: they leave
            # zero-length ranges in the packed output
            live_set = ~stopped[sample_ids]
            sample_ids, node_ids = sample_ids[live_set], node_ids[live_set]
        elif kind == "weighted":
            block_utility = np.where(np.isfinite(best_block), best_block,
                                     0.0)
            weights[done:done + chunk] = np.maximum(
                0.0, float(superior_utility) - block_utility)
        counts_parts.append(np.bincount(sample_ids, minlength=chunk))
        nodes_parts.append(node_ids)
        all_roots[done:done + chunk] = chunk_roots
        done += chunk
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts_parts), out=offsets[1:])
    return offsets, np.concatenate(nodes_parts), weights, all_roots


def random_rr_sets_packed(graph: DirectedGraph, count: int,
                          rng: RngLike = None,
                          roots: Optional[Sequence[int]] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` standard RR sets as one packed CSR pair.

    Returns ``(offsets, nodes)`` — set ``k`` occupies
    ``nodes[offsets[k]:offsets[k + 1]]`` — drawing the identical sets (in
    the identical order) as :func:`random_rr_sets` from the same RNG
    state.  The packed layout is what the sharded parallel builder ships
    between processes: one buffer per shard instead of one array per set.
    """
    offsets, nodes, _, _ = _sample_packed(graph, "standard", count, rng,
                                          roots)
    return offsets, nodes


def random_rr_sets(graph: DirectedGraph, count: int, rng: RngLike = None,
                   roots: Optional[Sequence[int]] = None) -> List[np.ndarray]:
    """Sample ``count`` standard RR sets (each an array of node ids)."""
    return _as_views(*random_rr_sets_packed(graph, count, rng, roots))


def marginal_rr_sets_packed(graph: DirectedGraph, blocked: Set[int],
                            count: int, rng: RngLike = None,
                            roots: Optional[Sequence[int]] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` marginal RR sets as one packed CSR pair.

    Same sets, same order and same RNG stream as
    :func:`marginal_rr_sets`; discarded samples appear as zero-length set
    ranges exactly where the list API returns empty arrays.
    """
    offsets, nodes, _, _ = _sample_packed(graph, "marginal", count, rng,
                                          roots, dict.fromkeys(blocked, 0.0))
    return offsets, nodes


def marginal_rr_sets(graph: DirectedGraph, blocked: Set[int], count: int,
                     rng: RngLike = None,
                     roots: Optional[Sequence[int]] = None) -> List[np.ndarray]:
    """Sample ``count`` marginal RR sets w.r.t. the fixed seed set ``blocked``.

    A sample that touches ``blocked`` is discarded (returned as an empty
    array) but still counts towards ``count`` — exactly the Algorithm 3
    semantics that make coverage estimates marginal.
    """
    return _as_views(*marginal_rr_sets_packed(graph, blocked, count, rng,
                                              roots))


def weighted_rr_sets_packed(graph: DirectedGraph,
                            node_block_utility: Dict[int, float],
                            superior_utility: float, count: int,
                            rng: RngLike = None,
                            roots: Optional[Sequence[int]] = None
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    """Sample ``count`` weighted RR sets as ``(offsets, nodes, weights,
    roots)`` packed arrays.

    Same sets, weights and roots (in the same order, from the same RNG
    stream) as :func:`weighted_rr_sets`, in the transport layout of the
    sharded parallel builder.
    """
    return _sample_packed(graph, "weighted", count, rng, roots,
                          node_block_utility, superior_utility)


def weighted_rr_sets(graph: DirectedGraph,
                     node_block_utility: Dict[int, float],
                     superior_utility: float, count: int,
                     rng: RngLike = None,
                     roots: Optional[Sequence[int]] = None
                     ) -> List[Tuple[np.ndarray, float, int]]:
    """Sample ``count`` weighted RR sets as ``(nodes, weight, root)`` tuples.

    Mirrors :meth:`repro.rrsets.rrset.WeightedRRSampler.sample`: the reverse
    BFS proceeds level by level and stops after the first level containing a
    node of the fixed seed set; the weight is ``max(0, superior_utility −
    best block utility hit)`` (0 block utility when no fixed seed reaches
    the root).
    """
    offsets, nodes, weights, root_ids = weighted_rr_sets_packed(
        graph, node_block_utility, superior_utility, count, rng, roots)
    return [(nodes[offsets[k]:offsets[k + 1]], float(weights[k]),
             int(root_ids[k]))
            for k in range(len(weights))]


__all__ = [
    "VisitedPairs",
    "random_rr_sets",
    "random_rr_sets_packed",
    "marginal_rr_sets",
    "marginal_rr_sets_packed",
    "weighted_rr_sets",
    "weighted_rr_sets_packed",
]
