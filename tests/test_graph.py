"""Unit tests for the CSR-backed directed graph."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import DirectedGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)])
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = DirectedGraph.from_edges(0, [])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.average_degree() == 0.0

    def test_nodes_array(self):
        g = DirectedGraph.from_edges(4, [(0, 1, 1.0)])
        assert list(g.nodes) == [0, 1, 2, 3]

    def test_from_adjacency(self):
        g = DirectedGraph.from_adjacency([[(1, 0.3)], [(0, 0.7)], []])
        assert g.num_nodes == 3
        assert g.edge_probability(0, 1) == pytest.approx(0.3)
        assert g.edge_probability(1, 0) == pytest.approx(0.7)

    def test_isolated_nodes_allowed(self):
        g = DirectedGraph.from_edges(10, [(0, 1, 1.0)])
        assert g.num_nodes == 10
        assert g.out_degree(5) == 0

    def test_rejects_negative_node_count(self):
        with pytest.raises(GraphError):
            DirectedGraph(-1, [], [], [])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self loop"):
            DirectedGraph.from_edges(2, [(1, 1, 0.5)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError):
            DirectedGraph.from_edges(2, [(0, 2, 0.5)])
        with pytest.raises(GraphError):
            DirectedGraph.from_edges(2, [(-1, 0, 0.5)])

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphError):
            DirectedGraph.from_edges(2, [(0, 1, 1.5)])
        with pytest.raises(GraphError):
            DirectedGraph.from_edges(2, [(0, 1, -0.1)])

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GraphError, match="equal length"):
            DirectedGraph(2, [0], [1, 0], [0.5, 0.5])

    def test_duplicate_edges_keep_max_probability(self):
        g = DirectedGraph.from_edges(2, [(0, 1, 0.2), (0, 1, 0.8), (0, 1, 0.5)])
        assert g.num_edges == 1
        assert g.edge_probability(0, 1) == pytest.approx(0.8)

    def test_name(self):
        g = DirectedGraph.from_edges(1, [], name="mygraph")
        assert g.name == "mygraph"
        assert "mygraph" in repr(g)


class TestAccessors:
    @pytest.fixture
    def diamond(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        return DirectedGraph.from_edges(
            4, [(0, 1, 0.1), (0, 2, 0.2), (1, 3, 0.3), (2, 3, 0.4)])

    def test_out_neighbors(self, diamond):
        nbrs, probs = diamond.out_neighbors(0)
        assert sorted(nbrs.tolist()) == [1, 2]
        assert sorted(probs.tolist()) == [0.1, 0.2]

    def test_in_neighbors(self, diamond):
        nbrs, probs = diamond.in_neighbors(3)
        assert sorted(nbrs.tolist()) == [1, 2]
        assert sorted(probs.tolist()) == [0.3, 0.4]

    def test_degrees(self, diamond):
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(0) == 0
        assert diamond.in_degree(3) == 2
        assert diamond.out_degrees().tolist() == [2, 1, 1, 0]
        assert diamond.in_degrees().tolist() == [0, 1, 1, 2]

    def test_has_edge(self, diamond):
        assert diamond.has_edge(0, 1)
        assert not diamond.has_edge(1, 0)
        assert not diamond.has_edge(0, 3)

    def test_edge_probability_missing_raises(self, diamond):
        with pytest.raises(GraphError):
            diamond.edge_probability(3, 0)

    def test_edges_iteration(self, diamond):
        edges = set(diamond.edges())
        assert (0, 1, 0.1) in edges
        assert len(edges) == 4

    def test_edge_arrays_are_copies(self, diamond):
        sources, targets, probs = diamond.edge_arrays()
        probs[:] = 0.0
        assert diamond.edge_probability(0, 1) == pytest.approx(0.1)

    def test_average_degree(self, diamond):
        assert diamond.average_degree() == pytest.approx(1.0)

    def test_len(self, diamond):
        assert len(diamond) == 4

    def test_node_out_of_range(self, diamond):
        with pytest.raises(GraphError):
            diamond.out_neighbors(4)
        with pytest.raises(GraphError):
            diamond.in_degree(-1)


class TestDerivedGraphs:
    def test_with_probabilities(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)])
        sources, targets, _ = g.edge_arrays()
        g2 = g.with_probabilities(np.full(2, 0.9))
        assert g2.edge_probability(0, 1) == pytest.approx(0.9)
        # the original is unchanged
        assert g.edge_probability(0, 1) == pytest.approx(0.5)

    def test_with_probabilities_wrong_length(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 0.5)])
        with pytest.raises(GraphError):
            g.with_probabilities([0.1, 0.2])

    def test_with_probabilities_equals_a_fresh_build(self):
        # duplicates (collapsed), unsorted input and several in-edges per
        # target: the shared CSR structure must still line up
        rng = np.random.default_rng(3)
        sources = rng.integers(0, 30, size=400)
        targets = rng.integers(0, 30, size=400)
        keep = sources != targets
        g = DirectedGraph(30, sources[keep], targets[keep],
                          rng.random(int(keep.sum())))
        assert g.num_edges < int(keep.sum())
        edge_sources, edge_targets, _ = g.edge_arrays()
        probs = rng.random(g.num_edges)
        derived = g.with_probabilities(probs, name="derived")
        fresh = DirectedGraph(30, edge_sources, edge_targets, probs)
        for got, want in [(derived.edge_arrays(), fresh.edge_arrays()),
                          (derived.out_csr(), fresh.out_csr()),
                          (derived.in_csr(), fresh.in_csr())]:
            for left, right in zip(got, want):
                assert left.dtype == right.dtype
                np.testing.assert_array_equal(left, right)
        assert derived.name == "derived"
        assert derived.num_edges == fresh.num_edges

    def test_weighted_cascade_reads_targets_from_the_out_csr(self):
        # duplicate edges collapse, so the edge count shrinks and the
        # targets come from the deduplicated, (source, target)-sorted order
        from repro.graphs.weighting import weighted_cascade

        rng = np.random.default_rng(5)
        sources = rng.integers(0, 25, size=300)
        targets = rng.integers(0, 25, size=300)
        keep = sources != targets
        g = DirectedGraph(25, sources[keep], targets[keep],
                          rng.random(int(keep.sum())), name="dupes")
        assert g.num_edges < int(keep.sum())
        _, edge_targets, _ = g.edge_arrays()
        in_deg = g.in_degrees().astype(np.float64)
        want = g.with_probabilities(
            1.0 / np.maximum(in_deg[edge_targets], 1.0))
        got = weighted_cascade(g)
        for left_csr, right_csr in [(got.out_csr(), want.out_csr()),
                                    (got.in_csr(), want.in_csr())]:
            for left, right in zip(left_csr, right_csr):
                assert left.dtype == right.dtype
                np.testing.assert_array_equal(left, right)
        assert got.name == "dupes"

    def test_with_probabilities_range_and_copy(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 0.5), (2, 1, 0.5)])
        for bad in ([0.1, 1.5], [-0.1, 0.2]):
            with pytest.raises(GraphError):
                g.with_probabilities(bad)
        probs = np.array([0.25, 0.75])
        derived = g.with_probabilities(probs)
        probs[:] = 0.0  # the caller's array stays the caller's
        assert derived.edge_probability(0, 1) == 0.25
        assert derived.edge_probability(2, 1) == 0.75
        np.testing.assert_array_equal(derived.in_csr()[2], [0.25, 0.75])

    def test_reverse(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25)])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert not r.has_edge(0, 1)
        assert r.edge_probability(1, 0) == pytest.approx(0.5)

    def test_reverse_twice_is_identity(self):
        g = DirectedGraph.from_edges(4, [(0, 1, 0.5), (2, 3, 0.7), (1, 3, 0.2)])
        rr = g.reverse().reverse()
        assert set(rr.edges()) == set(g.edges())

    def test_subgraph_relabels(self):
        g = DirectedGraph.from_edges(5, [(0, 1, 1.0), (1, 4, 0.5), (2, 3, 0.2)])
        sub = g.subgraph([1, 4])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.edge_probability(0, 1) == pytest.approx(0.5)

    def test_subgraph_drops_external_edges(self):
        g = DirectedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        sub = g.subgraph([0, 1, 3])
        assert sub.num_edges == 1  # only 0 -> 1 survives

    def test_subgraph_invalid_node(self):
        g = DirectedGraph.from_edges(3, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            g.subgraph([0, 5])
