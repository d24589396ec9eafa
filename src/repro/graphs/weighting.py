"""Edge-probability weighting schemes.

IM papers (including the reproduced one, §6.1.3) assign influence
probabilities to edges using a handful of standard schemes.  Each function
here takes a :class:`~repro.graphs.graph.DirectedGraph` and returns a *new*
graph with the probabilities replaced.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graphs.graph import DirectedGraph
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability


def weighted_cascade(graph: DirectedGraph,
                     name: Optional[str] = None) -> DirectedGraph:
    """Weighted-cascade probabilities ``p(u, v) = 1 / d_in(v)``.

    This is the default setting used throughout the paper's experiments
    ("Following previous works we set probability of edge e = (u, v) to
    1/din(v)").  Deduplicated edges are sorted by (source, target), so
    the out-CSR's indices are the edge targets in edge order: they are
    read there, without copying the edge arrays.
    """
    _, targets, _ = graph.out_csr()
    in_deg = graph.in_degrees().astype(np.float64)
    probs = 1.0 / np.maximum(in_deg[targets], 1.0)
    return graph.with_probabilities(probs, name=name or graph.name)


def uniform(graph: DirectedGraph, probability: float,
            name: Optional[str] = None) -> DirectedGraph:
    """Constant probability on every edge (e.g. 0.01 in Figure 6(d))."""
    check_probability(probability, "probability")
    probs = np.full(graph.num_edges, probability, dtype=np.float64)
    return graph.with_probabilities(probs, name=name or graph.name)


def trivalency(graph: DirectedGraph, rng: RngLike = None,
               choices: Sequence[float] = (0.1, 0.01, 0.001),
               name: Optional[str] = None) -> DirectedGraph:
    """Trivalency model: each edge gets a probability uniformly from
    ``choices`` (the classic {0.1, 0.01, 0.001})."""
    rng = ensure_rng(rng)
    for c in choices:
        check_probability(c, "choice")
    probs = rng.choice(np.asarray(choices, dtype=np.float64),
                       size=graph.num_edges)
    return graph.with_probabilities(probs, name=name or graph.name)


__all__ = ["weighted_cascade", "uniform", "trivalency"]
