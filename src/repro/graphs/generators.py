"""Synthetic graph generators.

The paper evaluates on five real social networks (Table 2).  Those datasets
are not redistributable inside this repository, so the experiment harness
builds *synthetic stand-ins* with matching size/degree characteristics using
the generators in this module (see :mod:`repro.graphs.datasets`).  The
generators are also useful on their own for tests and examples.

All generators return a :class:`~repro.graphs.graph.DirectedGraph` whose edge
probabilities are initialised to 1.0; apply a weighting scheme from
:mod:`repro.graphs.weighting` (e.g. weighted cascade) afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graphs.graph import DirectedGraph, Edge
from repro.utils.rng import RngLike, ensure_rng


# ----------------------------------------------------------------------
# deterministic test graphs
# ----------------------------------------------------------------------
def line_graph(n: int, prob: float = 1.0, name: str = "line") -> DirectedGraph:
    """Directed path ``0 -> 1 -> ... -> n-1`` with uniform edge probability."""
    edges = [(i, i + 1, prob) for i in range(n - 1)]
    return DirectedGraph.from_edges(n, edges, name=name)


def star_graph(n_leaves: int, prob: float = 1.0,
               name: str = "star") -> DirectedGraph:
    """Star with centre 0 pointing at ``n_leaves`` leaves."""
    edges = [(0, i + 1, prob) for i in range(n_leaves)]
    return DirectedGraph.from_edges(n_leaves + 1, edges, name=name)


def complete_graph(n: int, prob: float = 1.0,
                   name: str = "complete") -> DirectedGraph:
    """Complete directed graph (both directions, no self loops)."""
    edges = [(u, v, prob) for u in range(n) for v in range(n) if u != v]
    return DirectedGraph.from_edges(n, edges, name=name)


def grid_graph(rows: int, cols: int, prob: float = 1.0,
               name: str = "grid") -> DirectedGraph:
    """Bidirectional 4-neighbour grid of ``rows x cols`` nodes."""
    def nid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((nid(r, c), nid(r, c + 1), prob))
                edges.append((nid(r, c + 1), nid(r, c), prob))
            if r + 1 < rows:
                edges.append((nid(r, c), nid(r + 1, c), prob))
                edges.append((nid(r + 1, c), nid(r, c), prob))
    return DirectedGraph.from_edges(rows * cols, edges, name=name)


def bipartite_cover_graph(subsets: Sequence[Sequence[int]], n_elements: int,
                          prob: float = 1.0,
                          name: str = "cover") -> DirectedGraph:
    """Bipartite graph used by the SET-COVER hardness gadget (Theorem 2).

    Node ``i`` (``0 <= i < len(subsets)``) is the set node ``s_i`` and node
    ``len(subsets) + j`` is the ground-element node ``g_j``.  There is an edge
    ``s_i -> g_j`` iff ``j in subsets[i]``.
    """
    r = len(subsets)
    edges = []
    for i, subset in enumerate(subsets):
        for j in subset:
            if not 0 <= j < n_elements:
                raise GraphError(f"ground element {j} out of range")
            edges.append((i, r + j, prob))
    return DirectedGraph.from_edges(r + n_elements, edges, name=name)


# ----------------------------------------------------------------------
# random graph models
# ----------------------------------------------------------------------
def erdos_renyi(n: int, avg_degree: float, rng: RngLike = None,
                directed: bool = True,
                name: str = "erdos-renyi") -> DirectedGraph:
    """G(n, m) style Erdős–Rényi graph with expected average out-degree.

    ``avg_degree`` is the expected number of out-edges per node.  When
    ``directed`` is ``False``, each sampled undirected pair contributes edges
    in both directions (mimicking how IM benchmarks treat undirected
    networks such as NetHEPT and Orkut).
    """
    rng = ensure_rng(rng)
    if n <= 1 or avg_degree <= 0:
        return DirectedGraph.from_edges(max(n, 0), [], name=name)
    m = int(round(avg_degree * n)) if directed else int(round(avg_degree * n / 2))
    sources = rng.integers(0, n, size=2 * m)
    targets = rng.integers(0, n, size=2 * m)
    keep = sources != targets
    sources, targets = sources[keep][:m], targets[keep][:m]
    edges = [(int(u), int(v), 1.0) for u, v in zip(sources, targets)]
    if not directed:
        edges.extend((v, u, p) for u, v, p in list(edges))
    return DirectedGraph.from_edges(n, edges, name=name)


def preferential_attachment(n: int, out_degree: int, rng: RngLike = None,
                            directed: bool = True,
                            name: str = "pref-attach") -> DirectedGraph:
    """Barabási–Albert style preferential-attachment graph.

    Each new node attaches ``out_degree`` edges to existing nodes chosen with
    probability proportional to their current degree, producing the heavy
    tailed degree distribution typical of social networks (Orkut, Twitter).
    When ``directed`` is ``True``, each attachment edge points from the
    existing (popular) node to the new node with probability 0.5 and the
    other way otherwise, so both in- and out-degree distributions are skewed.
    """
    rng = ensure_rng(rng)
    if out_degree < 1:
        raise GraphError("out_degree must be >= 1")
    if n <= out_degree:
        return complete_graph(max(n, 0), name=name)

    # repeated-nodes list implements preferential attachment in O(m)
    repeated: List[int] = list(range(out_degree))
    edges: List[Edge] = []
    for new_node in range(out_degree, n):
        chosen = set()
        while len(chosen) < out_degree:
            pick = int(repeated[rng.integers(0, len(repeated))]) \
                if repeated else int(rng.integers(0, new_node))
            chosen.add(pick)
        for old_node in chosen:
            if directed and rng.random() < 0.5:
                edges.append((old_node, new_node, 1.0))
            else:
                edges.append((new_node, old_node, 1.0))
            if not directed:
                edges.append((old_node, new_node, 1.0))
            repeated.append(old_node)
            repeated.append(new_node)
    return DirectedGraph.from_edges(n, edges, name=name)


def watts_strogatz(n: int, k: int, rewire_prob: float, rng: RngLike = None,
                   name: str = "watts-strogatz") -> DirectedGraph:
    """Small-world ring lattice with random rewiring (both edge directions)."""
    rng = ensure_rng(rng)
    if k < 2 or k % 2:
        raise GraphError("k must be an even integer >= 2")
    edges: List[Edge] = []
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < rewire_prob:
                v = int(rng.integers(0, n))
                while v == u:
                    v = int(rng.integers(0, n))
            edges.append((u, v, 1.0))
            edges.append((v, u, 1.0))
    return DirectedGraph.from_edges(n, edges, name=name)


def power_law_configuration(n: int, exponent: float, avg_degree: float,
                            rng: RngLike = None,
                            name: str = "power-law") -> DirectedGraph:
    """Directed configuration-model graph with power-law out-degrees.

    Out-degrees are drawn from a discrete power law with the given exponent,
    rescaled so the mean matches ``avg_degree``; targets are chosen uniformly
    at random.  This mimics the skewed follower distributions of Twitter.
    """
    rng = ensure_rng(rng)
    if n <= 1:
        return DirectedGraph.from_edges(max(n, 0), [], name=name)
    raw = rng.pareto(exponent - 1.0, size=n) + 1.0
    degrees = np.maximum(1, np.round(raw * avg_degree / raw.mean())).astype(int)
    sources = np.repeat(np.arange(n), degrees)
    targets = rng.integers(0, n, size=len(sources))
    keep = sources != targets
    return DirectedGraph(n, sources[keep], targets[keep],
                         np.ones(int(keep.sum())), name=name)


def random_dag(n: int, avg_degree: float, rng: RngLike = None,
               name: str = "dag") -> DirectedGraph:
    """Random DAG (edges only from lower to higher node id).

    Useful in tests because influence spread on a DAG can be computed exactly
    by dynamic programming over a topological order.
    """
    rng = ensure_rng(rng)
    edges: List[Edge] = []
    if n > 1:
        p = min(1.0, avg_degree / max(n - 1, 1))
        for u in range(n):
            coins = rng.random(n - u - 1) < p
            for j in np.nonzero(coins)[0]:
                edges.append((u, u + 1 + int(j), 1.0))
    return DirectedGraph.from_edges(n, edges, name=name)


__all__ = [
    "line_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "bipartite_cover_graph",
    "erdos_renyi",
    "preferential_attachment",
    "watts_strogatz",
    "power_law_configuration",
    "random_dag",
]
