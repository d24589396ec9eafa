"""Tests for PRIMA+ (prefix-preserving seed selection on marginals)."""

import numpy as np
import pytest

from repro.diffusion.estimators import estimate_marginal_spread, estimate_spread
from repro.engine.reverse import marginal_rr_sets_packed
from repro.exceptions import AlgorithmError
from repro.core.prima import prima_plus
from repro.graphs import generators, weighting
from repro.graphs.graph import DirectedGraph
from repro.rrsets.coverage import PackedRRBatch, RRCollection
from repro.rrsets.imm import IMMOptions, imm
from repro.rrsets.rrset import marginal_rr_set

FAST = IMMOptions(max_rr_sets=8_000)


class TestPrimaPlus:
    def test_returns_requested_number_of_seeds(self, small_er_graph):
        result = prima_plus(small_er_graph, [], [3, 3], 6, options=FAST, rng=1)
        assert len(result.seeds) == 6
        assert len(set(result.seeds)) == 6

    def test_excludes_fixed_seeds(self, small_er_graph):
        fixed = [0, 1, 2, 3, 4]
        result = prima_plus(small_er_graph, fixed, [5], 5, options=FAST, rng=2)
        assert not set(result.seeds) & set(fixed)

    def test_zero_seeds(self, small_er_graph):
        result = prima_plus(small_er_graph, [], [0], 0, options=FAST, rng=1)
        assert result.seeds == []
        assert result.num_rr_sets == 0

    def test_empty_graph_rejected(self):
        empty = DirectedGraph.from_edges(0, [])
        with pytest.raises(AlgorithmError):
            prima_plus(empty, [], [1], 1, options=FAST)

    def test_no_fixed_seeds_matches_imm_prefix(self, small_er_graph):
        """With S_P = ∅ the PRIMA+ order behaves like plain IMM."""
        prima = prima_plus(small_er_graph, [], [4], 4, options=FAST, rng=7)
        plain = imm(small_er_graph, 4, options=FAST, rng=7)
        prima_spread = estimate_spread(small_er_graph, prima.seeds,
                                       n_samples=500, rng=8)
        imm_spread = estimate_spread(small_er_graph, plain.seeds,
                                     n_samples=500, rng=8)
        assert prima_spread >= 0.8 * imm_spread

    def test_prefix_spreads_non_decreasing(self, medium_graph):
        result = prima_plus(medium_graph, [], [2, 3, 5], 10, options=FAST,
                            rng=3)
        spreads = result.prefix_marginal_spreads
        assert all(a <= b + 1e-9 for a, b in zip(spreads, spreads[1:]))
        assert result.prefix_spread(0) == 0.0
        assert result.prefix_spread(2) <= result.prefix_spread(10) + 1e-9

    def test_prefix_quality_for_smaller_budget(self, medium_graph):
        """The length-k prefix is a good seed set for budget k (Definition 1)."""
        result = prima_plus(medium_graph, [], [2, 6], 6, options=FAST, rng=5)
        prefix2 = result.prefix(2)
        dedicated = imm(medium_graph, 2, options=FAST, rng=5).seeds
        prefix_spread = estimate_spread(medium_graph, prefix2, n_samples=500,
                                        rng=6)
        dedicated_spread = estimate_spread(medium_graph, dedicated,
                                           n_samples=500, rng=6)
        assert prefix_spread >= 0.7 * dedicated_spread

    def test_marginality_on_disjoint_components(self):
        """Marginal seed selection ignores the component already covered."""
        # component A: star around 0 (6 nodes); component B: star around 10
        edges = [(0, v, 1.0) for v in range(1, 6)]
        edges += [(10, v, 1.0) for v in range(11, 16)]
        graph = DirectedGraph.from_edges(16, edges)
        result = prima_plus(graph, [0], [1], 1, options=FAST, rng=4)
        assert result.seeds == [10]

    def test_lower_bounds_recorded_per_budget(self, small_er_graph):
        result = prima_plus(small_er_graph, [], [2, 4], 4, options=FAST, rng=9)
        assert set(result.lower_bounds) == {2, 4}
        assert all(lb >= 1.0 for lb in result.lower_bounds.values())

    def test_num_seeds_capped_by_available_nodes(self):
        graph = generators.line_graph(4)
        result = prima_plus(graph, [0, 1], [5], 5, options=FAST, rng=1)
        assert len(result.seeds) <= 2


class TestPrimaEngine:
    """PRIMA+ draws its serial marginal RR sets through its ``engine``."""

    #: every round's target exceeds the cap and the final phase reuses the
    #: capped collection, so one sampling request fills it
    ONE_REQUEST = IMMOptions(max_rr_sets=100, fresh_final_sampling=False)
    FIXED = [0, 1, 2]

    def expected(self, graph, engine):
        rng = np.random.default_rng(5)
        blocked = set(self.FIXED)
        collection = RRCollection(graph.num_nodes)
        if engine == "python":
            for _ in range(100):
                collection.add(marginal_rr_set(graph, blocked, rng))
        else:
            offsets, nodes = marginal_rr_sets_packed(graph, blocked, 100,
                                                     rng)
            collection.extend(PackedRRBatch(offsets, nodes, np.ones(100)))
        return collection

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_collection_is_the_engine_stream(self, small_er_graph, engine):
        result = prima_plus(small_er_graph, self.FIXED, [2, 4], 4,
                            options=self.ONE_REQUEST,
                            rng=np.random.default_rng(5),
                            keep_collection=True, engine=engine)
        assert result.num_rr_sets == 100
        for got, want in zip(result.collection._packed(),
                             self.expected(small_er_graph, engine)._packed()):
            np.testing.assert_array_equal(got, want)
        spreads = result.prefix_marginal_spreads
        assert all(a <= b for a, b in zip(spreads, spreads[1:]))
