"""Tests for the IMM engine and the single-item IMM / marginal IMM."""

import itertools

import numpy as np
import pytest

from repro.diffusion.estimators import estimate_spread
from repro.exceptions import AlgorithmError
from repro.graphs import generators, weighting
from repro.graphs.graph import DirectedGraph
from repro.rrsets.imm import IMMOptions, imm, marginal_imm, run_imm_engine
from repro.rrsets.rrset import random_rr_set

FAST = IMMOptions(max_rr_sets=8_000)


class TestIMM:
    def test_budget_respected(self, small_er_graph):
        result = imm(small_er_graph, 5, options=FAST, rng=1)
        assert len(result.seeds) == 5
        assert len(set(result.seeds)) == 5

    def test_k_zero(self, small_er_graph):
        result = imm(small_er_graph, 0, options=FAST, rng=1)
        assert result.seeds == []
        assert result.estimated_value == 0.0

    def test_k_at_least_nodes(self):
        g = generators.line_graph(4)
        result = imm(g, 10, options=FAST, rng=1)
        assert len(result.seeds) <= 4

    def test_obvious_best_seed_on_star(self, star10):
        result = imm(star10, 1, options=FAST, rng=2)
        assert result.seeds == [0]
        assert result.estimated_value == pytest.approx(11.0, rel=0.15)

    def test_line_graph_picks_source(self, line4):
        result = imm(line4, 1, options=FAST, rng=3)
        assert result.seeds == [0]

    def test_quality_close_to_greedy_optimum(self):
        """IMM spread is close to the brute-force optimal spread for k=2."""
        graph = weighting.weighted_cascade(
            generators.erdos_renyi(60, 4.0, rng=5))
        result = imm(graph, 2, options=FAST, rng=6)
        imm_spread = estimate_spread(graph, result.seeds, n_samples=800, rng=7)
        best = 0.0
        degrees = np.argsort(-graph.out_degrees())[:8]
        for pair in itertools.combinations(degrees.tolist(), 2):
            best = max(best, estimate_spread(graph, pair, n_samples=300,
                                             rng=8))
        assert imm_spread >= 0.6 * best

    def test_prefix_accessors(self, small_er_graph):
        result = imm(small_er_graph, 6, options=FAST, rng=9)
        assert result.prefix(3) == result.seeds[:3]
        assert result.prefix_value(3) <= result.prefix_value(6) + 1e-9
        assert result.prefix_value(0) == 0.0

    def test_estimated_value_close_to_simulation(self, medium_graph):
        result = imm(medium_graph, 5, options=FAST, rng=10)
        simulated = estimate_spread(medium_graph, result.seeds,
                                    n_samples=600, rng=11)
        assert result.estimated_value == pytest.approx(simulated, rel=0.3)

    def test_deterministic_given_seed(self, small_er_graph):
        r1 = imm(small_er_graph, 4, options=FAST, rng=42)
        r2 = imm(small_er_graph, 4, options=FAST, rng=42)
        assert r1.seeds == r2.seeds


class TestMarginalIMM:
    def test_avoids_region_covered_by_fixed_seeds(self):
        # two disjoint deterministic paths: 0 -> 1 and 2 -> 3 -> 4.
        # with node 0 fixed, only the second path offers marginal spread,
        # so the best marginal seed is its source (node 2).
        graph = DirectedGraph.from_edges(
            5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        result = marginal_imm(graph, 1, {0}, options=FAST, rng=1)
        assert result.seeds == [2]
        assert result.estimated_value == pytest.approx(3.0, rel=0.25)

    def test_empty_fixed_set_equals_standard(self, small_er_graph):
        standard = imm(small_er_graph, 3, options=FAST, rng=5)
        marginal = marginal_imm(small_er_graph, 3, set(), options=FAST, rng=5)
        assert standard.seeds == marginal.seeds

    def test_marginal_value_below_total(self, medium_graph):
        fixed = set(imm(medium_graph, 5, options=FAST, rng=1).seeds)
        marginal = marginal_imm(medium_graph, 5, fixed, options=FAST, rng=2)
        total = imm(medium_graph, 5, options=FAST, rng=2)
        assert marginal.estimated_value <= total.estimated_value + 5.0


class TestEngine:
    def test_weighted_sampler(self, star10):
        # weight 2 per RR set: the estimate should be ~2x the spread
        rng = np.random.default_rng(3)

        def sample(count):
            return [(random_rr_set(star10, rng), 2.0) for _ in range(count)]

        result = run_imm_engine(star10.num_nodes, 1, sample,
                                max_value=2.0 * star10.num_nodes,
                                options=FAST)
        assert result.seeds == [0]
        assert result.estimated_value == pytest.approx(22.0, rel=0.2)

    def test_invalid_inputs(self):
        def sample(count):
            return [(np.array([0]), 1.0)] * count

        with pytest.raises(AlgorithmError):
            run_imm_engine(0, 1, sample, max_value=10.0)
        with pytest.raises(AlgorithmError):
            run_imm_engine(5, 1, sample, max_value=0.0)

    def test_max_rr_sets_cap_respected(self, small_er_graph):
        options = IMMOptions(max_rr_sets=500, min_rr_sets=10)
        result = imm(small_er_graph, 3, options=options, rng=1)
        assert result.num_rr_sets <= 500

    def test_min_rr_sets_floor(self, line4):
        options = IMMOptions(max_rr_sets=5_000, min_rr_sets=100)
        result = imm(line4, 1, options=options, rng=1)
        assert result.num_rr_sets >= 100

    def test_result_metadata(self, small_er_graph):
        result = imm(small_er_graph, 2, options=FAST, rng=1)
        assert result.lower_bound >= 1.0
        assert result.sampling_rounds >= 1
        assert result.num_rr_sets > 0
