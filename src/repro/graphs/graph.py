"""CSR-backed directed probabilistic graphs.

The whole library operates on :class:`DirectedGraph`: a directed graph over
nodes ``0 .. n-1`` where each edge ``(u, v)`` carries an influence
probability ``p_uv`` in ``[0, 1]``.  Both the forward (out-neighbour) and the
reverse (in-neighbour) adjacency are stored in compressed sparse row form so
the UIC forward simulation and the reverse-BFS RR-set sampling are both fast
and allocation-free in their hot loops.

Graphs are immutable once constructed; use :meth:`DirectedGraph.from_edges`
or the generators in :mod:`repro.graphs.generators` to build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError

Edge = Tuple[int, int, float]


@dataclass(frozen=True)
class _CSR:
    """One adjacency direction in CSR layout."""

    indptr: np.ndarray   # shape (n + 1,), int64
    indices: np.ndarray  # shape (m,), int64 — neighbour node ids
    probs: np.ndarray    # shape (m,), float64 — edge probabilities

    def neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        start, stop = self.indptr[node], self.indptr[node + 1]
        return self.indices[start:stop], self.probs[start:stop]

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])


def _build_csr(n: int, sources: np.ndarray, targets: np.ndarray,
               probs: np.ndarray) -> _CSR:
    """Build a CSR adjacency keyed by ``sources`` (rows) -> ``targets``."""
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    targets = targets[order]
    probs = probs[order]
    counts = np.bincount(sources, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return _CSR(indptr=indptr, indices=targets.astype(np.int64),
                probs=probs.astype(np.float64))


class DirectedGraph:
    """Immutable directed graph with per-edge influence probabilities.

    Parameters
    ----------
    n:
        Number of nodes; nodes are the integers ``0 .. n-1``.
    sources, targets, probs:
        Parallel arrays describing the edges.  Self loops are rejected and
        duplicate edges are collapsed keeping the *maximum* probability (the
        convention used by weighted-cascade datasets).
    name:
        Optional human readable name (used by the experiment harness).
    """

    def __init__(self, n: int, sources: Sequence[int], targets: Sequence[int],
                 probs: Sequence[float], name: str = "graph") -> None:
        if n < 0:
            raise GraphError(f"number of nodes must be >= 0, got {n}")
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if not (len(sources) == len(targets) == len(probs)):
            raise GraphError("sources, targets and probs must have equal length")
        if len(sources) and (sources.min() < 0 or sources.max() >= n
                             or targets.min() < 0 or targets.max() >= n):
            raise GraphError("edge endpoints must be valid node ids in [0, n)")
        if np.any(sources == targets):
            raise GraphError("self loops are not allowed")
        if len(probs) and (probs.min() < 0.0 or probs.max() > 1.0):
            raise GraphError("edge probabilities must lie in [0, 1]")

        sources, targets, probs = _dedupe_edges(sources, targets, probs, n)

        self._n = int(n)
        self._m = int(len(sources))
        self._name = str(name)
        self._sources = sources
        self._targets = targets
        self._probs = probs
        self._out = _build_csr(n, sources, targets, probs)
        self._in = _build_csr(n, targets, sources, probs)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge],
                   name: str = "graph") -> "DirectedGraph":
        """Build a graph from an iterable of ``(source, target, prob)``."""
        edges = list(edges)
        if edges:
            sources, targets, probs = map(np.asarray, zip(*edges))
        else:
            sources = targets = np.empty(0, dtype=np.int64)
            probs = np.empty(0, dtype=np.float64)
        return cls(n, sources, targets, probs, name=name)

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[Tuple[int, float]]],
                       name: str = "graph") -> "DirectedGraph":
        """Build a graph from ``adjacency[u] = [(v, p_uv), ...]``."""
        edges: List[Edge] = []
        for u, nbrs in enumerate(adjacency):
            for v, p in nbrs:
                edges.append((u, v, p))
        return cls.from_edges(len(adjacency), edges, name=name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human readable graph name."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (deduplicated) directed edges ``m``."""
        return self._m

    @property
    def nodes(self) -> np.ndarray:
        """Array of all node ids (``0 .. n-1``)."""
        return np.arange(self._n, dtype=np.int64)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as ``(source, target, prob)`` tuples."""
        for u, v, p in zip(self._sources, self._targets, self._probs):
            yield int(u), int(v), float(p)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return the raw ``(sources, targets, probs)`` arrays (copies)."""
        return self._sources.copy(), self._targets.copy(), self._probs.copy()

    def out_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of ``node`` and the probabilities of those edges."""
        self._check_node(node)
        return self._out.neighbors(node)

    def in_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """In-neighbours of ``node`` and the probabilities of those edges."""
        self._check_node(node)
        return self._in.neighbors(node)

    def out_degree(self, node: int) -> int:
        """Number of out-neighbours of ``node``."""
        self._check_node(node)
        return self._out.degree(node)

    def in_degree(self, node: int) -> int:
        """Number of in-neighbours of ``node``."""
        self._check_node(node)
        return self._in.degree(node)

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw forward adjacency ``(indptr, indices, probs)`` (no copies).

        The arrays are the CSR layout used by the vectorized engine: the
        out-edges of node ``u`` occupy positions ``indptr[u]:indptr[u + 1]``
        of ``indices`` (targets) and ``probs``.  Callers must not mutate them.
        """
        return self._out.indptr, self._out.indices, self._out.probs

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw reverse adjacency ``(indptr, indices, probs)`` (no copies).

        Position ``indptr[v]:indptr[v + 1]`` holds the in-neighbours
        (sources) of node ``v`` and the probabilities of those edges.
        """
        return self._in.indptr, self._in.indices, self._in.probs

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all nodes."""
        return np.diff(self._out.indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all nodes."""
        return np.diff(self._in.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists."""
        self._check_node(u)
        self._check_node(v)
        nbrs, _ = self._out.neighbors(u)
        return bool(np.any(nbrs == v))

    def edge_probability(self, u: int, v: int) -> float:
        """Probability of edge ``(u, v)``; raises if the edge is absent."""
        nbrs, probs = self.out_neighbors(u)
        hit = np.nonzero(nbrs == v)[0]
        if len(hit) == 0:
            raise GraphError(f"edge ({u}, {v}) does not exist")
        return float(probs[hit[0]])

    def average_degree(self) -> float:
        """Average out-degree ``m / n`` (0 for the empty graph)."""
        return self._m / self._n if self._n else 0.0

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def with_probabilities(self, probs: Sequence[float],
                           name: Optional[str] = None) -> "DirectedGraph":
        """Return a copy of this graph with edge probabilities replaced.

        ``probs`` must be aligned with :meth:`edge_arrays` order; it is
        copied, so the caller may reuse it.  The new graph shares this
        graph's deduplicated edge arrays and both CSRs' ``indptr`` and
        ``indices`` (all immutable) and allocates only its probability
        arrays.  Deduplicated edges are sorted by (source, target), so the
        out-CSR takes the probabilities in edge order and the in-CSR
        through one stable argsort of the targets: the arrays a
        from-scratch build would make.
        """
        probs = np.array(probs, dtype=np.float64)
        if probs.ndim != 1 or len(probs) != self._m:
            raise GraphError(
                f"expected {self._m} probabilities, got {probs.size}")
        if len(probs) and (probs.min() < 0.0 or probs.max() > 1.0):
            raise GraphError("edge probabilities must lie in [0, 1]")
        graph = object.__new__(DirectedGraph)
        graph._n, graph._m = self._n, self._m
        graph._name = str(name or self._name)
        graph._sources, graph._targets = self._sources, self._targets
        graph._probs = probs
        graph._out = _CSR(self._out.indptr, self._out.indices, probs)
        graph._in = _CSR(self._in.indptr, self._in.indices,
                         probs[np.argsort(self._targets, kind="stable")])
        return graph

    def reverse(self, name: Optional[str] = None) -> "DirectedGraph":
        """Return the graph with every edge direction flipped."""
        return DirectedGraph(self._n, self._targets, self._sources,
                             self._probs, name=name or f"{self._name}-rev")

    def subgraph(self, nodes: Sequence[int],
                 name: Optional[str] = None) -> "DirectedGraph":
        """Induced subgraph on ``nodes``, relabelled to ``0..len(nodes)-1``.

        The returned graph's node ``i`` corresponds to ``nodes[i]``.
        """
        nodes = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        for v in nodes:
            self._check_node(int(v))
        relabel = -np.ones(self._n, dtype=np.int64)
        relabel[nodes] = np.arange(len(nodes))
        keep = (relabel[self._sources] >= 0) & (relabel[self._targets] >= 0)
        return DirectedGraph(
            len(nodes),
            relabel[self._sources[keep]],
            relabel[self._targets[keep]],
            self._probs[keep],
            name=name or f"{self._name}-sub{len(nodes)}",
        )

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} out of range [0, {self._n})")

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DirectedGraph(name={self._name!r}, nodes={self._n}, "
                f"edges={self._m})")


def _dedupe_edges(sources: np.ndarray, targets: np.ndarray, probs: np.ndarray,
                  n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate (u, v) edges, keeping the maximum probability."""
    if len(sources) == 0:
        return sources, targets, probs
    keys = sources.astype(np.int64) * n + targets.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys, sources, targets, probs = keys[order], sources[order], targets[order], probs[order]
    unique_mask = np.empty(len(keys), dtype=bool)
    unique_mask[0] = True
    unique_mask[1:] = keys[1:] != keys[:-1]
    if unique_mask.all():
        return sources, targets, probs
    group_ids = np.cumsum(unique_mask) - 1
    max_probs = np.zeros(group_ids[-1] + 1, dtype=np.float64)
    np.maximum.at(max_probs, group_ids, probs)
    return sources[unique_mask], targets[unique_mask], max_probs


__all__ = ["DirectedGraph", "Edge"]
