"""Reverse-reachable (RR) set generation.

An RR set for a root ``v`` is the set of nodes that reach ``v`` in a random
edge world; sampling roots uniformly makes ``n · E[I(S ∩ R ≠ ∅)]`` an
unbiased estimator of the influence spread ``σ(S)`` (Borgs et al.).  The
paper extends plain RR sets in two ways:

* **marginal RR sets** (Algorithm 3): the BFS is run as usual but if the set
  ever touches the fixed seed set ``S_P`` it is discarded (set to ``∅``), so
  covering the surviving sets estimates the *marginal* spread on top of
  ``S_P``;
* **weighted RR sets** (Definition 2, used by SupGRD): the BFS stops as soon
  as a whole BFS level containing a node of ``S_P`` has been explored, and
  the set carries the weight ``U⁺(i_m) − max_{i ∈ I_s, s ∈ S_P ∩ R_v} U⁺(i)``
  — the welfare gained if the root switches from the best fixed item that
  reaches it to the superior item ``i_m``.

All three generators share the same reverse BFS with per-edge coin flips.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.allocation import Allocation
from repro.graphs.graph import DirectedGraph
from repro.rrsets.coverage import PackedRRBatch
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, ensure_rng


def random_rr_set(graph: DirectedGraph, rng: RngLike = None,
                  root: Optional[int] = None) -> np.ndarray:
    """Sample one standard RR set (array of node ids, root included)."""
    rng = ensure_rng(rng)
    n = graph.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if root is None:
        root = int(rng.integers(0, n))
    visited: Set[int] = {root}
    queue: deque = deque([root])
    while queue:
        node = queue.popleft()
        sources, probs = graph.in_neighbors(node)
        if len(sources) == 0:
            continue
        coins = rng.random(len(sources)) < probs
        for source in sources[coins]:
            source = int(source)
            if source not in visited:
                visited.add(source)
                queue.append(source)
    return np.fromiter(visited, dtype=np.int64, count=len(visited))


def marginal_rr_set(graph: DirectedGraph, blocked: Set[int],
                    rng: RngLike = None,
                    root: Optional[int] = None) -> np.ndarray:
    """Sample one marginal RR set w.r.t. the fixed seed set ``blocked``.

    Follows Algorithm 3 of the paper: the RR set is generated as usual but
    whenever it hits a node of ``blocked`` it is discarded (an empty array
    is returned).  The empty sets still count towards the number of
    generated samples, which is what makes coverage estimates *marginal*.
    """
    rng = ensure_rng(rng)
    n = graph.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if root is None:
        root = int(rng.integers(0, n))
    if root in blocked:
        return np.empty(0, dtype=np.int64)
    visited: Set[int] = {root}
    queue: deque = deque([root])
    while queue:
        node = queue.popleft()
        sources, probs = graph.in_neighbors(node)
        if len(sources) == 0:
            continue
        coins = rng.random(len(sources)) < probs
        for source in sources[coins]:
            source = int(source)
            if source in blocked:
                return np.empty(0, dtype=np.int64)
            if source not in visited:
                visited.add(source)
                queue.append(source)
    return np.fromiter(visited, dtype=np.int64, count=len(visited))


@dataclass
class WeightedRRSet:
    """A weighted RR set: its nodes and its welfare weight.

    ``root`` is ``-1`` for the degenerate empty-graph sample (no node to
    root the set at).
    """

    nodes: np.ndarray
    weight: float
    root: int


class WeightedRRSampler:
    """Sampler of weighted RR sets for SupGRD (paper Definition 2).

    Parameters
    ----------
    graph, model:
        The CWelMax instance.
    superior_item:
        The item being allocated (``i_m``); must have the largest truncated
        expected utility for SupGRD's guarantee to hold.
    fixed_allocation:
        The fixed allocation ``S_P`` of the inferior items.
    n_utility_samples:
        Sample count used for the truncated-utility estimates.
    """

    def __init__(self, graph: DirectedGraph, model: UtilityModel,
                 superior_item: str, fixed_allocation: Allocation,
                 n_utility_samples: int = 20_000,
                 rng: RngLike = None) -> None:
        self._graph = graph
        self._model = model
        self._superior_item = superior_item
        self._superior_utility = model.expected_truncated_utility(
            superior_item, n_samples=n_utility_samples, rng=rng)
        # truncated utility of the best fixed item seeded at each node
        self._node_block_utility: Dict[int, float] = {}
        for item in fixed_allocation.items:
            item_utility = model.expected_truncated_utility(
                item, n_samples=n_utility_samples, rng=rng)
            for node in fixed_allocation.seeds_for(item):
                current = self._node_block_utility.get(int(node), 0.0)
                self._node_block_utility[int(node)] = max(current, item_utility)
        self._blocked_nodes: Set[int] = set(self._node_block_utility)

    @classmethod
    def from_state(cls, graph: DirectedGraph,
                   node_block_utility: Dict[int, float],
                   superior_utility: float) -> "WeightedRRSampler":
        """Rebuild a sampler from its precomputed state.

        Used by the sharded parallel builder and the serving layer, where the
        per-node block utilities and ``U⁺(i_m)`` have already been estimated
        (re-estimating them per worker would both waste time and desync the
        utility-sampling RNG streams).
        """
        sampler = object.__new__(cls)
        sampler._graph = graph
        sampler._model = None
        sampler._superior_item = None
        sampler._superior_utility = float(superior_utility)
        sampler._node_block_utility = {int(node): float(value)
                                       for node, value
                                       in node_block_utility.items()}
        sampler._blocked_nodes = set(sampler._node_block_utility)
        return sampler

    @property
    def node_block_utility(self) -> Dict[int, float]:
        """Truncated utility of the best fixed item seeded at each node."""
        return dict(self._node_block_utility)

    @property
    def max_weight(self) -> float:
        """Upper bound ``w_max`` on the weight of any RR set."""
        return self._superior_utility

    @property
    def superior_utility(self) -> float:
        """``U⁺(i_m)`` — the truncated utility of the superior item."""
        return self._superior_utility

    def sample(self, rng: RngLike = None,
               root: Optional[int] = None) -> WeightedRRSet:
        """Sample one weighted RR set.

        The reverse BFS proceeds level by level (so node distances to the
        root are respected) and stops after the first level that contains a
        node of the fixed seed set: those fixed seeds are at distance no
        larger than any node in the set, so seeding any member with the
        superior item guarantees the root adopts it (pure competition).
        """
        rng = ensure_rng(rng)
        graph = self._graph
        n = graph.num_nodes
        if n == 0:
            # degenerate empty graph: nothing to root the BFS at
            return WeightedRRSet(nodes=np.empty(0, dtype=np.int64),
                                 weight=0.0, root=-1)
        if root is None:
            root = int(rng.integers(0, n))
        visited: Set[int] = {root}
        level = [root]
        hit_blocked: List[int] = [root] if root in self._blocked_nodes else []
        while level and not hit_blocked:
            next_level: List[int] = []
            for node in level:
                sources, probs = graph.in_neighbors(node)
                if len(sources) == 0:
                    continue
                coins = rng.random(len(sources)) < probs
                for source in sources[coins]:
                    source = int(source)
                    if source not in visited:
                        visited.add(source)
                        next_level.append(source)
                        if source in self._blocked_nodes:
                            hit_blocked.append(source)
            level = next_level
        block_utility = max((self._node_block_utility[v] for v in hit_blocked),
                            default=0.0)
        weight = max(0.0, self._superior_utility - block_utility)
        nodes = np.fromiter(visited, dtype=np.int64, count=len(visited))
        return WeightedRRSet(nodes=nodes, weight=weight, root=root)

    def sample_batch(self, rng: RngLike = None, count: int = 1,
                     roots: Optional[Sequence[int]] = None
                     ) -> List[WeightedRRSet]:
        """Sample ``count`` weighted RR sets via the vectorized engine.

        Semantically equivalent to ``count`` calls of :meth:`sample` (same
        level-by-level stopping rule and weights) but the reverse BFS of the
        whole batch advances together; on an empty graph every sample is the
        empty set with weight 0.
        """
        rng = ensure_rng(rng)
        count = int(count)
        if count <= 0:
            return []
        if self._graph.num_nodes == 0:
            return [WeightedRRSet(nodes=np.empty(0, dtype=np.int64),
                                  weight=0.0, root=-1)
                    for _ in range(count)]
        from repro.engine.reverse import weighted_rr_sets

        raw = weighted_rr_sets(self._graph, self._node_block_utility,
                               self._superior_utility, count, rng,
                               roots=roots)
        return [WeightedRRSet(nodes=nodes, weight=weight, root=root)
                for nodes, weight, root in raw]

    def sample_pairs(self, rng: RngLike = None,
                     count: int = 1) -> PackedRRBatch:
        """Sample ``count`` weighted RR sets as one packed batch.

        The feed format of :meth:`RRCollection.extend
        <repro.rrsets.coverage.RRCollection.extend>`, which splices it in
        bulk; iterating the batch yields the bare ``(nodes, weight)``
        pairs.  Identical draws to :meth:`sample_batch` without
        materializing the :class:`WeightedRRSet` wrappers.
        """
        from repro.engine.reverse import weighted_rr_sets_packed

        offsets, nodes, weights, _roots = weighted_rr_sets_packed(
            self._graph, self._node_block_utility, self._superior_utility,
            count, rng)
        return PackedRRBatch(offsets, nodes, weights)


__all__ = [
    "random_rr_set",
    "marginal_rr_set",
    "WeightedRRSet",
    "WeightedRRSampler",
]
