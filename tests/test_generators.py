"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import generators
from repro.graphs.graph import DirectedGraph


class TestDeterministicGraphs:
    def test_line_graph(self):
        g = generators.line_graph(5, prob=0.7)
        assert g.num_nodes == 5
        assert g.num_edges == 4
        assert g.edge_probability(2, 3) == pytest.approx(0.7)
        assert not g.has_edge(3, 2)

    def test_line_graph_single_node(self):
        g = generators.line_graph(1)
        assert g.num_nodes == 1
        assert g.num_edges == 0

    def test_star_graph(self):
        g = generators.star_graph(6)
        assert g.num_nodes == 7
        assert g.out_degree(0) == 6
        assert all(g.in_degree(i) == 1 for i in range(1, 7))

    def test_complete_graph(self):
        g = generators.complete_graph(4)
        assert g.num_edges == 12
        assert all(g.out_degree(v) == 3 for v in range(4))

    def test_grid_graph(self):
        g = generators.grid_graph(3, 4)
        assert g.num_nodes == 12
        # interior node has degree 4 in each direction
        assert g.out_degree(5) == 4
        # corner has degree 2
        assert g.out_degree(0) == 2
        # bidirectional
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_bipartite_cover_graph(self):
        subsets = [[0, 1], [1, 2]]
        g = generators.bipartite_cover_graph(subsets, 3)
        assert g.num_nodes == 5
        assert g.has_edge(0, 2)  # s0 -> g0
        assert g.has_edge(0, 3)  # s0 -> g1
        assert g.has_edge(1, 3)  # s1 -> g1
        assert g.has_edge(1, 4)  # s1 -> g2
        assert not g.has_edge(0, 4)

    def test_bipartite_cover_graph_bad_element(self):
        with pytest.raises(GraphError):
            generators.bipartite_cover_graph([[0, 5]], 3)


class TestRandomGraphs:
    def test_erdos_renyi_size_and_degree(self):
        g = generators.erdos_renyi(500, avg_degree=6.0, rng=3)
        assert g.num_nodes == 500
        assert 4.0 < g.average_degree() < 8.0

    def test_erdos_renyi_undirected_symmetric(self):
        g = generators.erdos_renyi(100, avg_degree=4.0, rng=3, directed=False)
        for u, v, _ in list(g.edges())[:50]:
            assert g.has_edge(v, u)

    def test_erdos_renyi_deterministic_with_seed(self):
        g1 = generators.erdos_renyi(100, 3.0, rng=42)
        g2 = generators.erdos_renyi(100, 3.0, rng=42)
        assert set(g1.edges()) == set(g2.edges())

    def test_erdos_renyi_empty(self):
        assert generators.erdos_renyi(0, 3.0, rng=1).num_nodes == 0
        assert generators.erdos_renyi(5, 0.0, rng=1).num_edges == 0

    def test_preferential_attachment_size(self):
        g = generators.preferential_attachment(200, 2, rng=5)
        assert g.num_nodes == 200
        # each new node contributes ~2 edges
        assert 150 <= g.num_edges <= 2 * 200

    def test_preferential_attachment_skewed_degrees(self):
        g = generators.preferential_attachment(400, 2, rng=5, directed=False)
        degrees = g.out_degrees()
        # heavy-tailed: the max degree should be far above the mean
        assert degrees.max() > 4 * degrees.mean()

    def test_preferential_attachment_undirected_symmetric(self):
        g = generators.preferential_attachment(80, 2, rng=9, directed=False)
        for u, v, _ in list(g.edges())[:60]:
            assert g.has_edge(v, u)

    def test_preferential_attachment_invalid_degree(self):
        with pytest.raises(GraphError):
            generators.preferential_attachment(10, 0, rng=1)

    def test_preferential_attachment_tiny(self):
        g = generators.preferential_attachment(3, 5, rng=1)
        assert g.num_nodes == 3  # falls back to the complete graph

    def test_watts_strogatz(self):
        g = generators.watts_strogatz(60, 4, 0.1, rng=2)
        assert g.num_nodes == 60
        assert g.num_edges >= 60 * 2  # 2 undirected ring edges per node

    def test_watts_strogatz_invalid_k(self):
        with pytest.raises(GraphError):
            generators.watts_strogatz(10, 3, 0.1, rng=2)

    def test_power_law_configuration(self):
        g = generators.power_law_configuration(300, exponent=2.3,
                                               avg_degree=5.0, rng=4)
        assert g.num_nodes == 300
        assert g.num_edges > 0
        assert g.out_degrees().max() > g.out_degrees().mean() * 2

    def test_power_law_configuration_equals_edge_list_build(self):
        """The graph built from the edge arrays is the one the per-edge
        ``(u, v, 1.0)`` list builds: same draws, same deduplicated edges."""
        n, exponent, avg_degree = 200, 2.3, 5.0
        graph = generators.power_law_configuration(n, exponent, avg_degree,
                                                   rng=4)
        rng = np.random.default_rng(4)
        raw = rng.pareto(exponent - 1.0, size=n) + 1.0
        degrees = np.maximum(
            1, np.round(raw * avg_degree / raw.mean())).astype(int)
        sources = np.repeat(np.arange(n), degrees)
        targets = rng.integers(0, n, size=len(sources))
        reference = DirectedGraph.from_edges(
            n, [(int(u), int(v), 1.0) for u, v in zip(sources, targets)
                if u != v])
        assert graph.num_edges == reference.num_edges
        for got, want in zip(graph.edge_arrays(), reference.edge_arrays()):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_random_dag_is_acyclic_by_construction(self):
        g = generators.random_dag(50, avg_degree=3.0, rng=6)
        for u, v, _ in g.edges():
            assert u < v

    def test_random_dag_deterministic(self):
        g1 = generators.random_dag(30, 2.0, rng=8)
        g2 = generators.random_dag(30, 2.0, rng=8)
        assert set(g1.edges()) == set(g2.edges())
