"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation import Allocation
from repro.graphs import generators, weighting
from repro.graphs.graph import DirectedGraph
from repro.utility.configs import (
    blocking_config,
    lastfm_config,
    multi_item_config,
    single_item_config,
    theorem1_config,
    two_item_config,
)


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def two_node_graph():
    """The Theorem-1 counterexample network: u -> v with probability 1."""
    return DirectedGraph.from_edges(2, [(0, 1, 1.0)], name="two-node")


@pytest.fixture
def line4():
    """Directed path 0 -> 1 -> 2 -> 3 with probability 1."""
    return generators.line_graph(4)


@pytest.fixture
def star10():
    """Star: node 0 points at 10 leaves with probability 1."""
    return generators.star_graph(10)


@pytest.fixture
def small_er_graph():
    """A small weighted-cascade Erdős–Rényi graph (150 nodes)."""
    graph = generators.erdos_renyi(150, avg_degree=4.0, rng=7, directed=True,
                                   name="er150")
    return weighting.weighted_cascade(graph)


@pytest.fixture
def medium_graph():
    """A medium preferential-attachment graph used by integration tests."""
    graph = generators.preferential_attachment(300, 3, rng=11, directed=True,
                                               name="pa300")
    return weighting.weighted_cascade(graph)


@pytest.fixture
def c1_model():
    """Two-item configuration C1."""
    return two_item_config("C1")


@pytest.fixture
def c1_model_no_noise():
    """C1 utilities with the noise switched off (deterministic)."""
    return two_item_config("C1", noise_sigma=0.0)


@pytest.fixture
def c3_model():
    """Two-item soft-competition configuration C3."""
    return two_item_config("C3")


@pytest.fixture
def blocking_model():
    """Three-item blocking configuration (Table 4)."""
    return blocking_config()


@pytest.fixture
def lastfm_model():
    """Learned Last.fm genre configuration (Table 5)."""
    return lastfm_config()


@pytest.fixture
def single_model():
    """Single item with utility 1 (welfare == spread)."""
    return single_item_config()


@pytest.fixture
def theorem1_model():
    """Figure 1(a) configuration used in the Theorem 1 counterexamples."""
    return theorem1_config()


@pytest.fixture
def empty_allocation():
    return Allocation.empty()


@pytest.fixture
def selection_extensions():
    """A callable counting the greedy-order extensions recorded so far:
    ``repro_selection_seconds{phase="total"}`` observations in the
    process registry."""
    from repro.obs.metrics import get_metrics

    def count() -> int:
        rows = get_metrics().summary()["histograms"].get(
            "repro_selection_seconds", {})
        return rows.get('{phase="total"}', {}).get("count", 0)

    return count
