"""Dynamic-graph subsystem: deltas, keyed repair, warm re-allocation.

The contract under test is the one the manifest's ``staleness`` block
rides on: a repaired index is **array-identical to a from-scratch keyed
rebuild on the edited graph** — not an approximation — and a zero-op
delta leaves the index bit-identical (equal fingerprint).  On top of
that sit the serving integrations: the legacy ``apply-delta`` op
through service, registry and server; staleness surfaced by
``stats()`` and the manifest; and the replay-trace generator.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dynamic import (
    GraphDelta,
    OnlineAllocator,
    RRRepairEngine,
    build_repairable_index,
    keyed_roots,
    keyed_rr_sets,
    replace_sets,
    replay_deltas,
    save_repaired,
    touched_set_ids,
)
from repro.dynamic.replay import make_replay_trace, random_edge_delta
from repro.exceptions import GraphError, IndexStoreError, ReproError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.coverage import node_selection

RR_SETS = 1200
BASE_SEED = 99


def rebuild(graph, **kwargs):
    """From-scratch keyed build, the ground truth repair must match."""
    kwargs.setdefault("rr_sets", RR_SETS)
    kwargs.setdefault("base_seed", BASE_SEED)
    return build_repairable_index(graph, **kwargs)


def assert_index_equal(left, right):
    lo, ln, lw = left._packed()
    ro, rn, rw = right._packed()
    np.testing.assert_array_equal(lo, ro)
    np.testing.assert_array_equal(ln, rn)
    np.testing.assert_array_equal(lw, rw)
    np.testing.assert_array_equal(left.roots, right.roots)
    assert left.num_nodes == right.num_nodes
    assert left.fingerprint == right.fingerprint


# ----------------------------------------------------------------------
# GraphDelta
# ----------------------------------------------------------------------
class TestGraphDelta:
    def test_apply_edits_the_graph(self, small_er_graph):
        graph = small_er_graph
        src, dst, probs = graph.edge_arrays()
        delta = GraphDelta(remove_edges=((int(src[0]), int(dst[0])),),
                           update_edges=((int(src[1]), int(dst[1]), 0.77),),
                           add_nodes=1)
        edited = delta.apply(graph)
        assert edited.num_nodes == graph.num_nodes + 1
        assert edited.num_edges == graph.num_edges - 1
        es, ed, ep = edited.edge_arrays()
        keys = es.astype(np.int64) * edited.num_nodes + ed
        assert int(src[0]) * edited.num_nodes + int(dst[0]) not in set(
            keys.tolist())
        where = np.flatnonzero((es == src[1]) & (ed == dst[1]))
        assert ep[where[0]] == pytest.approx(0.77)

    def test_validation_errors(self, small_er_graph):
        graph = small_er_graph
        src, dst, _ = graph.edge_arrays()
        u, v = int(src[0]), int(dst[0])
        with pytest.raises(GraphError):
            GraphDelta(add_nodes=-1)
        with pytest.raises(GraphError):
            GraphDelta(remove_edges=((u, v), (u, v)))
        with pytest.raises(GraphError):  # remove an absent edge
            GraphDelta(remove_edges=((graph.num_nodes + 5, 0),)).apply(graph)
        absent = _absent_edge(graph)
        with pytest.raises(GraphError):  # update an absent edge
            GraphDelta(update_edges=(absent + (0.5,),)).apply(graph)
        with pytest.raises(GraphError):  # add an existing edge
            GraphDelta(add_edges=((u, v, 0.5),)).apply(graph)
        with pytest.raises(GraphError):  # probability out of range
            GraphDelta(update_edges=((u, v, 1.5),)).apply(graph)
        with pytest.raises(GraphError):  # remove + update overlap
            GraphDelta(remove_edges=((u, v),),
                       update_edges=((u, v, 0.5),)).apply(graph)

    def test_json_round_trip(self):
        delta = GraphDelta(add_nodes=2, remove_nodes=(3,),
                           add_edges=((1, 2, 0.5),),
                           remove_edges=((4, 5),),
                           update_edges=((6, 7, 0.25),))
        payload = json.loads(json.dumps(delta.to_dict()))
        assert GraphDelta.from_dict(payload) == delta
        assert delta.num_ops == 6
        with pytest.raises(ReproError):
            GraphDelta.from_dict({"bogus_field": 1})

    def test_touched_targets(self, line4):
        # removing edge 1->2 can only change reachability *to* target 2
        delta = GraphDelta(remove_edges=((1, 2),))
        assert delta.touched_targets(line4).tolist() == [2]
        # removing node 1 touches node 1 and its out-neighbor 2
        delta = GraphDelta(remove_nodes=(1,))
        assert delta.touched_targets(line4).tolist() == [1, 2]


def _absent_edge(graph):
    src, dst, _ = graph.edge_arrays()
    present = set(zip(src.tolist(), dst.tolist()))
    for u in range(graph.num_nodes):
        for v in range(graph.num_nodes):
            if u != v and (u, v) not in present:
                return (u, v)
    raise AssertionError("complete graph")


# ----------------------------------------------------------------------
# Keyed sampling
# ----------------------------------------------------------------------
class TestKeyedSampling:
    def test_batch_independence(self, small_er_graph):
        """Unchanged sets replay bit-for-bit regardless of batching."""
        graph = small_er_graph
        indices = np.arange(64, dtype=np.int64)
        roots = keyed_roots(BASE_SEED, indices, graph.num_nodes)
        together = keyed_rr_sets(graph, indices, roots, BASE_SEED,
                                 kind="standard")
        for i in indices:
            alone = keyed_rr_sets(graph, indices[i:i + 1],
                                  roots[i:i + 1], BASE_SEED,
                                  kind="standard")
            np.testing.assert_array_equal(alone[0][0], together[i][0])

    def test_roots_are_deterministic_and_in_range(self):
        roots = keyed_roots(7, np.arange(5000), 321)
        np.testing.assert_array_equal(
            roots, keyed_roots(7, np.arange(5000), 321))
        assert roots.min() >= 0 and roots.max() < 321
        # roughly uniform: every node hit at least once at 5000 draws
        assert len(np.unique(roots)) > 250


# ----------------------------------------------------------------------
# Repair == rebuild (the ground-truth contract)
# ----------------------------------------------------------------------
class TestRepairExactness:
    def test_zero_delta_is_bit_identical(self, small_er_graph):
        index = rebuild(small_er_graph)
        fingerprint = index.fingerprint
        engine = RRRepairEngine(index, small_er_graph)
        outcome = engine.repair(GraphDelta())
        assert outcome.report.zero_delta
        assert outcome.index is index  # untouched, not merely equal
        assert outcome.index.fingerprint == fingerprint
        assert outcome.index.meta["dynamic"]["epoch"] == 0

    def test_edge_delta_matches_rebuild(self, small_er_graph):
        graph = small_er_graph
        index = rebuild(graph)
        delta = random_edge_delta(graph, 0.02, seed=5)
        outcome = RRRepairEngine(index, graph).repair(delta)
        assert outcome.report.repaired_sets > 0
        assert_index_equal(outcome.index, rebuild(outcome.graph))

    def test_repaired_index_selects_like_its_files(self, small_er_graph,
                                                   tmp_path):
        from repro.index import FrozenRRIndex

        graph = small_er_graph
        index = rebuild(graph)
        node_selection(index, 10)  # the pristine index's own order
        outcome = RRRepairEngine(index, graph).repair(
            random_edge_delta(graph, 0.02, seed=5))
        assert outcome.report.repaired_sets > 0
        save_repaired(outcome.index, tmp_path / "dyn")
        loaded = FrozenRRIndex.load(tmp_path / "dyn")
        for k, mode in ((10, "pad"), (4, "stop"), (30, "pad"), (1, "stop"),
                        (30, "stop"), (10, "pad")):
            got = node_selection(outcome.index, k, on_saturation=mode)
            want = node_selection(loaded, k, on_saturation=mode)
            assert got.seeds == want.seeds
            assert got.prefix_weights == want.prefix_weights
            assert got.covered_weight == want.covered_weight
            assert got.saturated_at == want.saturated_at

    def test_node_insertions_match_full_resample(self, small_er_graph):
        """Growth re-roots minimally; the repaired sets must equal a
        full keyed resample of *every* set at the repaired roots (a
        fresh build would draw fresh roots, so roots are held fixed)."""
        graph = small_er_graph
        index = rebuild(graph)
        n = graph.num_nodes
        delta = GraphDelta(add_nodes=20,
                           add_edges=((n, 0, 0.3), (1, n + 5, 0.4)))
        outcome = RRRepairEngine(index, graph).repair(delta)
        assert outcome.graph.num_nodes == n + 20
        moved = outcome.report.rerooted_sets / index.num_sets
        # the keep-probability coupling moves ~ 20/170 of the roots
        assert 0.04 < moved < 0.25
        all_ids = np.arange(index.num_sets, dtype=np.int64)
        truth = keyed_rr_sets(outcome.graph, all_ids,
                              np.asarray(outcome.index.roots), BASE_SEED,
                              kind="standard")
        offsets, nodes, weights = outcome.index._packed()
        for i, (members, weight) in enumerate(truth):
            np.testing.assert_array_equal(
                nodes[offsets[i]:offsets[i + 1]], members)
            assert weights[i] == weight

    def test_node_removals_match_rebuild(self, small_er_graph):
        graph = small_er_graph
        index = rebuild(graph)
        delta = GraphDelta(remove_nodes=(3, 10, 42))
        outcome = RRRepairEngine(index, graph).repair(delta)
        assert outcome.graph.num_nodes == graph.num_nodes  # tombstones
        assert_index_equal(outcome.index, rebuild(outcome.graph))

    def test_sequential_repairs_compose(self, small_er_graph):
        graph = small_er_graph
        engine = RRRepairEngine(rebuild(graph), graph)
        rng = np.random.default_rng(17)
        for _ in range(3):
            outcome = engine.repair(
                random_edge_delta(engine.graph, 0.01, seed=rng))
        assert outcome.index.meta["dynamic"]["epoch"] == 3
        assert len(outcome.index.meta["dynamic"]["deltas"]) == 3
        assert_index_equal(outcome.index, rebuild(outcome.graph))

    def test_repair_leaves_its_input_meta_unchanged(self, small_er_graph):
        """Repairs share the recorded history with their input instead of
        deep-copying it, so neither the input's epoch, nor its delta
        list, nor its staleness block may move."""
        import copy

        graph = small_er_graph
        engine = RRRepairEngine(rebuild(graph), graph)
        rng = np.random.default_rng(5)
        engine.repair(random_edge_delta(engine.graph, 0.01, seed=rng))
        first = engine.index
        before = copy.deepcopy(first.meta)
        second = engine.repair(
            random_edge_delta(engine.graph, 0.01, seed=rng)).index
        assert first.meta == before
        assert first.meta["dynamic"]["epoch"] == 1
        assert len(first.meta["dynamic"]["deltas"]) == 1
        assert first.meta["dynamic"]["staleness"] == \
            before["dynamic"]["staleness"]
        assert second.meta["dynamic"]["epoch"] == 2
        assert second.meta["dynamic"]["deltas"][0] == \
            first.meta["dynamic"]["deltas"][0]
        assert len(second.meta["dynamic"]["deltas"]) == 2

    @pytest.mark.parametrize("kind,kwargs", [
        ("marginal", {"blocked": [2, 5, 9]}),
        ("weighted", {"superior_utility": 1.0,
                      "node_block_utility": {2: 0.4, 7: 0.9}}),
    ])
    def test_marginal_and_weighted_kinds(self, small_er_graph, kind,
                                         kwargs):
        graph = small_er_graph
        index = rebuild(graph, sampler=kind, **kwargs)
        delta = random_edge_delta(graph, 0.02, seed=3)
        outcome = RRRepairEngine(index, graph).repair(delta)
        assert_index_equal(outcome.index,
                           rebuild(outcome.graph, sampler=kind, **kwargs))

    def test_small_delta_repairs_small_fraction(self, medium_graph):
        """A 1% edge delta must resample well under 20% of the sets."""
        graph = medium_graph
        index = rebuild(graph, rr_sets=2000)
        delta = random_edge_delta(graph, 0.01, seed=11)
        outcome = RRRepairEngine(index, graph).repair(delta)
        assert 0 < outcome.report.repaired_fraction < 0.20
        staleness = outcome.index.meta["dynamic"]["staleness"]
        assert staleness["repaired_fraction"] == \
            outcome.report.repaired_fraction

    def test_repaired_welfare_within_sampler_bound(self, small_er_graph):
        """Allocating off the repaired index == off a rebuild (exact),
        and within the sampling tolerance of an independent resample."""
        graph = small_er_graph
        index = rebuild(graph, rr_sets=2000)
        delta = random_edge_delta(graph, 0.02, seed=23)
        outcome = RRRepairEngine(index, graph).repair(delta)
        repaired = node_selection(outcome.index, 10)
        scratch = node_selection(rebuild(outcome.graph, rr_sets=2000), 10)
        assert list(repaired.seeds) == list(scratch.seeds)
        assert repaired.covered_weight == scratch.covered_weight
        # independent keyed resample (different seed): the coverage
        # estimate of the spread must agree within sampling noise
        other = node_selection(
            rebuild(outcome.graph, rr_sets=2000, base_seed=BASE_SEED + 1),
            10)
        spread = repaired.covered_weight / 2000
        spread_other = other.covered_weight / 2000
        assert spread == pytest.approx(spread_other, rel=0.15)

    def test_requires_repairable_index(self, small_er_graph):
        index = rebuild(small_er_graph)
        index.meta.pop("dynamic")
        with pytest.raises(IndexStoreError):
            RRRepairEngine(index, small_er_graph)


# ----------------------------------------------------------------------
# replace_sets
# ----------------------------------------------------------------------
def _replace_sets_loop(offsets, nodes, weights, replacements, num_nodes):
    """Reference oracle: the per-set copy loop replace_sets replaced."""
    from repro.rrsets.coverage import min_id_dtype

    num_sets = len(offsets) - 1
    replaced = np.asarray(sorted(replacements), dtype=np.int64)
    lengths = np.diff(offsets).astype(np.int64)
    for idx in replacements:
        lengths[idx] = len(replacements[idx][0])
    new_offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_offsets[1:])
    dtype = np.promote_types(nodes.dtype, min_id_dtype(num_nodes))
    new_nodes = np.empty(int(new_offsets[-1]), dtype=dtype)
    new_weights = np.asarray(weights, dtype=np.float64).copy()
    bounds = np.concatenate([[-1], replaced, [num_sets]])
    for left, right in zip(bounds[:-1], bounds[1:]):
        lo, hi = int(left) + 1, int(right)
        if lo < hi:
            new_nodes[new_offsets[lo]:new_offsets[hi]] = \
                nodes[offsets[lo]:offsets[hi]]
    for idx in replacements:
        members, weight = replacements[idx]
        new_nodes[new_offsets[idx]:new_offsets[idx + 1]] = \
            np.asarray(members, dtype=np.int64).astype(dtype, copy=False)
        new_weights[idx] = float(weight)
    return new_offsets, new_nodes, new_weights


class TestReplaceSets:
    def test_zero_replacements_return_original_objects(self):
        offsets = np.array([0, 2, 3], dtype=np.int64)
        nodes = np.array([1, 2, 0], dtype=np.int32)
        weights = np.ones(2)
        out = replace_sets(offsets, nodes, weights, {}, 3)
        assert out[0] is offsets and out[1] is nodes and out[2] is weights

    def test_widens_member_dtype_across_int32_boundary(self):
        offsets = np.array([0, 1, 2], dtype=np.int64)
        nodes = np.array([5, 6], dtype=np.int32)
        weights = np.ones(2)
        big = 2 ** 31 + 7
        out_offsets, out_nodes, _ = replace_sets(
            offsets, nodes, weights,
            {1: (np.array([big], dtype=np.int64), 1.0)}, big + 1)
        assert out_nodes.dtype == np.int64
        assert int(out_nodes[1]) == big  # no wraparound
        assert out_offsets.tolist() == [0, 1, 2]

    def test_bounds_check(self):
        offsets = np.array([0, 1], dtype=np.int64)
        nodes = np.array([0], dtype=np.int32)
        with pytest.raises(IndexStoreError):
            replace_sets(offsets, nodes, np.ones(1),
                         {0: (np.array([9]), 1.0)}, 5)

    def test_set_id_out_of_range(self):
        offsets = np.array([0, 1, 2], dtype=np.int64)
        nodes = np.array([0, 1], dtype=np.int32)
        for bad in (-1, 2):
            with pytest.raises(IndexStoreError, match=r"set ids"):
                replace_sets(offsets, nodes, np.ones(2),
                             {bad: (np.array([0]), 1.0)}, 3)

    def test_member_error_names_the_set(self):
        offsets = np.array([0, 2, 3, 5, 6], dtype=np.int64)
        nodes = np.array([0, 1, 2, 3, 4, 0], dtype=np.int32)
        replacements = {0: (np.array([1, 2]), 1.0),
                        3: (np.array([], dtype=np.int64), 0.0),
                        2: (np.array([4, 7]), 1.0)}
        with pytest.raises(IndexStoreError, match=r"replacement set 2 "):
            replace_sets(offsets, nodes, np.ones(4), replacements, 5)
        with pytest.raises(IndexStoreError, match=r"replacement set 0 "):
            replace_sets(offsets, nodes, np.ones(4),
                         {0: (np.array([-1]), 1.0)}, 5)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_set_loop(self, seed):
        rng = np.random.default_rng(seed)
        num_sets = int(rng.integers(1, 40))
        num_nodes = int(rng.integers(1, 60))
        lengths = rng.integers(0, 6, size=num_sets)
        offsets = np.zeros(num_sets + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        store = np.int64 if seed % 3 == 0 else np.int32
        nodes = rng.integers(0, num_nodes, size=int(offsets[-1])) \
            .astype(store)
        weights = rng.random(num_sets)
        # node growth on every other case: replacements may name new ids
        grown = num_nodes + (int(rng.integers(1, 5)) if seed % 2 else 0)
        # always the first and the last set, plus an adjacent run and a
        # random scatter; some replacements are empty
        ids = {0, num_sets - 1}
        start = int(rng.integers(0, num_sets))
        ids.update(range(start, min(num_sets, start + 3)))
        ids.update(rng.integers(0, num_sets, size=num_sets // 4).tolist())
        replacements = {}
        for idx in rng.permutation(sorted(ids)).tolist():
            size = int(rng.integers(0, 7))
            replacements[idx] = (
                np.sort(rng.choice(grown, size=min(size, grown),
                                   replace=False)).astype(np.int64),
                float(rng.random()))
        got = replace_sets(offsets, nodes, weights, replacements, grown)
        want = _replace_sets_loop(offsets, nodes, weights, replacements,
                                  grown)
        for left, right in zip(got, want):
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right)
        assert got[1].dtype == np.promote_types(store, np.int32)

    def test_touched_set_ids_sees_zero_weight_sets(self, small_er_graph):
        index = rebuild(small_er_graph, sampler="marginal",
                        blocked=[0, 1, 2, 3])
        _, _, weights = index._packed()
        assert np.any(weights == 0.0)  # dead walks are stored
        touched = touched_set_ids(
            index, np.arange(small_er_graph.num_nodes))
        assert len(touched) > 0


# ----------------------------------------------------------------------
# Warm-started allocation
# ----------------------------------------------------------------------
class TestOnlineAllocator:
    def test_warm_equals_cold(self, small_er_graph):
        graph = small_er_graph
        allocator = OnlineAllocator(rebuild(graph), graph)
        allocator.allocate(8)
        rng = np.random.default_rng(31)
        for _ in range(3):
            allocator.apply(random_edge_delta(allocator.graph, 0.02,
                                              seed=rng))
            warm = allocator.allocate(8)
            cold = node_selection(rebuild(allocator.graph), 8)
            assert list(warm.seeds) == list(cold.seeds)
            assert warm.covered_weight == cold.covered_weight
        assert allocator.stats["gains_carried"] >= 3

    def test_zero_delta_reuses_selection(self, small_er_graph):
        graph = small_er_graph
        allocator = OnlineAllocator(rebuild(graph), graph)
        first = allocator.allocate(5)
        allocator.apply(GraphDelta())
        assert allocator.allocate(5) is first
        assert allocator.stats["warm_reuses"] == 1

    def test_zero_repair_delta_keeps_the_order(self, small_er_graph,
                                               selection_extensions):
        graph = small_er_graph
        index = rebuild(graph, rr_sets=20)
        members = set(index._packed()[1].tolist())
        target = next(v for v in range(graph.num_nodes) if v not in members)
        source = next(u for u in range(graph.num_nodes)
                      if u != target and not graph.has_edge(u, target))
        allocator = OnlineAllocator(index, graph)
        allocator.allocate(8)
        outcome = allocator.apply(
            GraphDelta(add_edges=((source, target, 0.5),)))
        assert outcome.report.repaired_sets == 0
        assert outcome.index is not index
        before = selection_extensions()
        warm = allocator.allocate(3)  # a prefix of the carried order
        assert selection_extensions() == before
        cold = node_selection(rebuild(allocator.graph, rr_sets=20), 3)
        assert warm.seeds == cold.seeds
        assert warm.prefix_weights == cold.prefix_weights

    def test_non_unit_weights_fall_back(self, small_er_graph):
        graph = small_er_graph
        index = rebuild(graph, sampler="weighted", superior_utility=1.0,
                        node_block_utility={2: 0.5})
        allocator = OnlineAllocator(index, graph)
        allocator.allocate(5)
        allocator.apply(random_edge_delta(graph, 0.02, seed=2))
        warm = allocator.allocate(5)
        cold = node_selection(
            rebuild(allocator.graph, sampler="weighted",
                    superior_utility=1.0, node_block_utility={2: 0.5}), 5)
        assert list(warm.seeds) == list(cold.seeds)


# ----------------------------------------------------------------------
# Persistence: roots survive save/load, staleness round-trips
# ----------------------------------------------------------------------
class TestPersistence:
    def test_save_load_round_trip(self, small_er_graph, tmp_path):
        from repro.index import FrozenRRIndex

        index = rebuild(small_er_graph)
        engine = RRRepairEngine(index, small_er_graph)
        outcome = engine.repair(random_edge_delta(small_er_graph, 0.02,
                                                  seed=9))
        save_repaired(outcome.index, tmp_path / "dyn")
        for mmap_mode in (False, True):
            loaded = FrozenRRIndex.load(tmp_path / "dyn", mmap=mmap_mode)
            assert_index_equal(loaded, outcome.index)
            assert loaded.meta["dynamic"]["epoch"] == 1

    def test_manifest_staleness_round_trip(self, small_er_graph,
                                           tmp_path):
        from repro.index import FrozenRRIndex

        index = rebuild(small_er_graph)
        outcome = RRRepairEngine(index, small_er_graph).repair(
            random_edge_delta(small_er_graph, 0.05, seed=13))
        save_repaired(outcome.index, tmp_path / "dyn")
        manifest = FrozenRRIndex.peek_manifest(tmp_path / "dyn")
        staleness = manifest["meta"]["dynamic"]["staleness"]
        assert staleness == outcome.index.meta["dynamic"]["staleness"]
        assert staleness["epoch"] == 1
        assert staleness["repaired_sets"] == outcome.report.repaired_sets
        # the recorded delta history reconstructs the drifted graph
        replayed = replay_deltas(small_er_graph, manifest["meta"])
        assert replayed.num_edges == outcome.graph.num_edges

    def test_replay_graph_matches_engine_graph(self, small_er_graph):
        engine = RRRepairEngine(rebuild(small_er_graph), small_er_graph)
        engine.repair(random_edge_delta(small_er_graph, 0.02, seed=4))
        engine.repair(random_edge_delta(engine.graph, 0.02, seed=5))
        replayed = replay_deltas(small_er_graph, engine.index.meta)
        for got, expected in zip(replayed.edge_arrays(),
                                 engine.graph.edge_arrays()):
            np.testing.assert_array_equal(got, expected)


# ----------------------------------------------------------------------
# Protocol guard
# ----------------------------------------------------------------------
def test_v1_specs_never_route_to_keyed_indexes(small_er_graph):
    from repro.api import EngineConfig, RunSpec, WorkloadSpec
    from repro.api.protocol import index_mismatch

    index = rebuild(small_er_graph)
    spec = RunSpec(algorithm="SeqGRD-NM",
                   workload=WorkloadSpec(network="nethept", scale=0.01,
                                         configuration="C1",
                                         budgets={"i": 2, "j": 2}),
                   engine=EngineConfig(seed=BASE_SEED))
    assert index_mismatch(spec, index.meta) is not None


# ----------------------------------------------------------------------
# Replay traces
# ----------------------------------------------------------------------
class TestReplayTrace:
    def test_trace_is_deterministic_and_applicable(self, small_er_graph):
        graph = small_er_graph
        kwargs = dict(num_queries=30, num_deltas=4, fraction=0.02,
                      seed=8, budgets=(3, 7))
        events = make_replay_trace(graph, **kwargs)
        assert events == make_replay_trace(graph, **kwargs)
        kinds = [event["kind"] for event in events]
        assert kinds.count("query") == 30 and kinds.count("delta") == 4
        current = graph
        for event in events:
            if event["kind"] == "delta":
                current = GraphDelta.from_dict(event["delta"]).apply(
                    current)
            else:
                assert event["budget"] in (3, 7)

    def test_random_edge_delta_respects_fraction(self, medium_graph):
        delta = random_edge_delta(medium_graph, 0.05, seed=1)
        assert delta.num_ops == round(0.05 * medium_graph.num_edges)
        with pytest.raises(GraphError):
            random_edge_delta(medium_graph, 0.0, seed=1)
