"""Tests for the persistent RR-set index store and the serving layer."""

import json

import numpy as np
import pytest

from repro.allocation import Allocation
from repro.core import seqgrd_nm, supgrd
from repro.exceptions import AlgorithmError, IndexStoreError
from repro.graphs import generators, weighting
from repro.index import (
    AllocationService,
    FrozenRRIndex,
    ParallelRRSampler,
    ShardSpec,
    build_index,
    expected_index_fingerprint,
    graph_fingerprint,
    index_fingerprint,
    index_paths,
    model_fingerprint,
)
from repro.rrsets.coverage import RRCollection, node_selection
from repro.rrsets.imm import IMMOptions, imm, marginal_imm
from repro.utility.configs import two_item_config

OPTIONS = IMMOptions(max_rr_sets=2000)


@pytest.fixture(scope="module")
def graph():
    g = generators.erdos_renyi(120, avg_degree=4.0, rng=3, directed=True,
                               name="er120")
    return weighting.weighted_cascade(g)


@pytest.fixture(scope="module")
def model():
    return two_item_config("C1")


@pytest.fixture(scope="module")
def bounded_model():
    return two_item_config("C6", bounded_noise=True)


def small_collection(num_nodes=10, rng_seed=5, num_sets=40, weighted=False):
    rng = np.random.default_rng(rng_seed)
    collection = RRCollection(num_nodes)
    for _ in range(num_sets):
        size = int(rng.integers(0, 5))
        nodes = rng.choice(num_nodes, size=size, replace=False)
        weight = float(rng.random()) if weighted else 1.0
        collection.add(nodes.astype(np.int64), weight)
    return collection


class TestFrozenRRIndex:
    def test_freeze_preserves_counts_and_weights(self):
        collection = small_collection(weighted=True)
        frozen = FrozenRRIndex.from_collection(collection)
        assert frozen.num_sets == collection.num_sets
        assert frozen.num_nodes == collection.num_nodes
        assert frozen.total_weight == pytest.approx(collection.total_weight)
        np.testing.assert_array_equal(frozen.weights(),
                                      collection.weights())

    def test_selection_matches_collection_bitwise(self):
        collection = small_collection(num_nodes=30, num_sets=200,
                                      weighted=True)
        frozen = FrozenRRIndex.from_collection(collection)
        for k in (1, 3, 7, 30):
            a = node_selection(collection, k)
            b = node_selection(frozen, k)
            assert a.seeds == b.seeds
            assert a.covered_weight == b.covered_weight
            assert a.prefix_weights == b.prefix_weights

    def test_covered_weight_matches_collection(self):
        collection = small_collection(num_nodes=20, num_sets=100)
        frozen = FrozenRRIndex.from_collection(collection)
        seeds = [0, 3, 7]
        assert frozen.covered_weight(seeds) == pytest.approx(
            collection.covered_weight(seeds))
        assert frozen.coverage_fraction(seeds) == pytest.approx(
            collection.coverage_fraction(seeds))

    def test_save_load_round_trip_is_bit_identical(self, tmp_path):
        collection = small_collection(weighted=True)
        frozen = FrozenRRIndex.from_collection(
            collection, meta={"fingerprint": "abc", "sampler": "standard"})
        frozen.save(tmp_path / "idx")
        loaded = FrozenRRIndex.load(tmp_path / "idx",
                                    expected_fingerprint="abc")
        np.testing.assert_array_equal(loaded._offsets, frozen._offsets)
        np.testing.assert_array_equal(loaded._nodes, frozen._nodes)
        np.testing.assert_array_equal(loaded._weights, frozen._weights)
        np.testing.assert_array_equal(loaded._inv_offsets,
                                      frozen._inv_offsets)
        np.testing.assert_array_equal(loaded._inv_sets, frozen._inv_sets)
        assert loaded.meta["sampler"] == "standard"

    def test_load_rejects_fingerprint_mismatch(self, tmp_path):
        frozen = FrozenRRIndex.from_collection(
            small_collection(), meta={"fingerprint": "abc"})
        frozen.save(tmp_path / "idx")
        with pytest.raises(IndexStoreError, match="stale"):
            FrozenRRIndex.load(tmp_path / "idx",
                               expected_fingerprint="different")

    def test_load_rejects_missing_files(self, tmp_path):
        with pytest.raises(IndexStoreError, match="no index"):
            FrozenRRIndex.load(tmp_path / "nope")

    def test_load_rejects_unknown_format_version(self, tmp_path):
        frozen = FrozenRRIndex.from_collection(small_collection())
        _, manifest = frozen.save(tmp_path / "idx")
        data = json.loads(manifest.read_text())
        data["format_version"] = 999
        manifest.write_text(json.dumps(data))
        with pytest.raises(IndexStoreError, match="format version"):
            FrozenRRIndex.load(tmp_path / "idx")

    def test_index_paths_accept_all_spellings(self, tmp_path):
        stem = tmp_path / "my-index"
        for spelling in (stem, stem.with_name("my-index.npz"),
                         stem.with_name("my-index.manifest.json")):
            npz, manifest = index_paths(spelling)
            assert npz.name == "my-index.npz"
            assert manifest.name == "my-index.manifest.json"

    def test_to_collection_round_trip(self):
        collection = small_collection(weighted=True)
        thawed = FrozenRRIndex.from_collection(collection).to_collection()
        assert thawed.num_sets == collection.num_sets
        for k in (2, 5):
            assert node_selection(thawed, k).seeds == \
                node_selection(collection, k).seeds


class TestFingerprints:
    def test_graph_fingerprint_changes_with_edges(self, graph):
        other = generators.erdos_renyi(120, avg_degree=4.0, rng=4,
                                       directed=True)
        other = weighting.weighted_cascade(other)
        assert graph_fingerprint(graph) != graph_fingerprint(other)
        assert graph_fingerprint(graph) == graph_fingerprint(graph)

    def test_model_fingerprint_distinguishes_configs(self, model):
        assert model_fingerprint(model) == model_fingerprint(
            two_item_config("C1"))
        assert model_fingerprint(model) != model_fingerprint(
            two_item_config("C2"))

    def test_index_fingerprint_covers_every_component(self, graph, model):
        base = dict(sampler="marginal", engine="vectorized", seed=1,
                    extra={"k": 3})
        reference = index_fingerprint(graph, model, **base)
        assert index_fingerprint(graph, model, **base) == reference
        assert index_fingerprint(
            graph, model, **dict(base, sampler="weighted")) != reference
        assert index_fingerprint(
            graph, model, **dict(base, engine="python")) != reference
        assert index_fingerprint(
            graph, model, **dict(base, seed=2)) != reference
        assert index_fingerprint(
            graph, model, **dict(base, extra={"k": 4})) != reference
        assert index_fingerprint(graph, None, **base) != reference

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_index_fails_verification(self, tmp_path,
                                                    monkeypatch, version):
        """Version 2 changed what a serial marginal build samples, and
        version 3 made every build sample the shard stream, so an index
        fingerprinted under an older version is rejected as stale."""
        from repro.graphs.datasets import load_network
        from repro.index import fingerprint
        from repro.serve import load_service
        from repro.utility.configs import configuration_model

        def build(path):
            build_index(load_network("nethept", scale=0.01, rng=4),
                        configuration_model("C1"), sampler="marginal",
                        budgets={"i": 2, "j": 2}, options=OPTIONS, seed=4,
                        meta_extra={"network": "nethept", "scale": 0.01,
                                    "configuration": "C1",
                                    "graph_seed": 4}).save(path)

        with monkeypatch.context() as patch:
            patch.setattr(fingerprint, "FINGERPRINT_VERSION", version)
            build(tmp_path / "old")
        with pytest.raises(IndexStoreError, match="stale index"):
            load_service(tmp_path / "old")
        build(tmp_path / "current")
        assert load_service(tmp_path / "current").service is not None


#: ``None`` samples the shard stream in process; integers use worker pools
WORKER_COUNTS = (None, 1, 4)


def assert_same_collections(collections):
    first = collections[0]._packed()
    for collection in collections[1:]:
        for got, want in zip(collection._packed(), first):
            np.testing.assert_array_equal(got, want)


class TestParallelDeterminism:
    """Every ``workers`` value, ``None`` included, samples one stream."""

    def test_sharded_sampler_worker_count_invariant(self, graph):
        spec = ShardSpec(kind="standard", graph=graph)
        batches = []
        for workers in WORKER_COUNTS:
            with ParallelRRSampler(spec, seed=42, workers=workers,
                                   shard_sets=64) as sampler:
                batches.append(sampler.generate(300))
        for batch in batches:
            assert len(batch) == 300
            for (nodes_a, w_a), (nodes_b, w_b) in zip(batches[0], batch):
                np.testing.assert_array_equal(nodes_a, nodes_b)
                assert w_a == w_b

    def test_imm_workers_1_vs_4_identical_selection(self, graph):
        runs = [imm(graph, 4, options=OPTIONS, rng=9, workers=workers,
                    keep_collection=True) for workers in WORKER_COUNTS]
        for run in runs[1:]:
            assert run.seeds == runs[0].seeds
            assert run.num_rr_sets == runs[0].num_rr_sets
            assert run.estimated_value == runs[0].estimated_value
        assert_same_collections([run.collection for run in runs])

    def test_marginal_imm_workers_identical(self, graph):
        fixed = {0, 1, 2}
        runs = [marginal_imm(graph, 3, fixed, options=OPTIONS, rng=9,
                             workers=workers, keep_collection=True)
                for workers in WORKER_COUNTS]
        for run in runs[1:]:
            assert run.seeds == runs[0].seeds
        assert_same_collections([run.collection for run in runs])

    def test_seqgrd_nm_workers_identical(self, graph, model):
        runs = [seqgrd_nm(graph, model, {"i": 3, "j": 2}, options=OPTIONS,
                          rng=11, workers=workers, keep_rr_collection=True)
                for workers in WORKER_COUNTS]
        for run in runs[1:]:
            assert run.allocation.as_dict() == runs[0].allocation.as_dict()
            assert run.details["num_rr_sets"] == \
                runs[0].details["num_rr_sets"]
        assert_same_collections([run.details["rr_collection"]
                                 for run in runs])

    def test_build_index_workers_identical_contents(self, graph, model,
                                                    bounded_model):
        builds = {
            "standard": (model, dict(budgets={"i": 3})),
            "marginal": (model, dict(budgets={"i": 3, "j": 2})),
            "weighted": (bounded_model, dict(
                budgets={"i": 3}, superior_item="i",
                fixed_allocation=Allocation({"j": [0, 1]}))),
        }
        for sampler, (instance_model, kwargs) in builds.items():
            indexes = [build_index(graph, instance_model, sampler=sampler,
                                   options=OPTIONS, seed=17,
                                   workers=workers, **kwargs)
                       for workers in WORKER_COUNTS]
            for index in indexes[1:]:
                np.testing.assert_array_equal(index._offsets,
                                              indexes[0]._offsets)
                np.testing.assert_array_equal(index._nodes,
                                              indexes[0]._nodes)
                np.testing.assert_array_equal(index._weights,
                                              indexes[0]._weights)
                assert index.fingerprint == indexes[0].fingerprint

    def test_supgrd_workers_identical(self, graph, bounded_model):
        fixed = Allocation({"j": [0, 1]})
        kwargs = dict(superior_item="i", enforce_preconditions=False,
                      options=OPTIONS, rng=23, keep_rr_collection=True)
        runs = [supgrd(graph, bounded_model, 3, fixed, workers=workers,
                       **kwargs) for workers in WORKER_COUNTS]
        for run in runs[1:]:
            assert run.allocation.as_dict() == runs[0].allocation.as_dict()
        assert_same_collections([run.details["rr_collection"]
                                 for run in runs])


class TestBuildAndServe:
    def test_seqgrd_index_reproduces_direct_run(self, graph, model):
        budgets = {"i": 3, "j": 2}
        direct = seqgrd_nm(graph, model, budgets, options=OPTIONS, rng=7,
                           workers=1)
        index = build_index(graph, model, sampler="marginal",
                            budgets=budgets, options=OPTIONS, seed=7,
                            workers=1)
        served = seqgrd_nm(graph, model, budgets, index=index, rng=7)
        assert served.allocation.as_dict() == direct.allocation.as_dict()
        assert served.details["served_from_index"] is True

    def test_supgrd_index_reproduces_direct_run(self, graph, bounded_model):
        fixed = Allocation({"j": [0, 5]})
        direct = supgrd(graph, bounded_model, 3, fixed, superior_item="i",
                        enforce_preconditions=False, options=OPTIONS,
                        rng=13, workers=1)
        index = build_index(graph, bounded_model, sampler="weighted",
                            budgets={"i": 3}, fixed_allocation=fixed,
                            superior_item="i", options=OPTIONS, seed=13,
                            workers=1)
        served = supgrd(graph, bounded_model, 3, fixed, superior_item="i",
                        enforce_preconditions=False, index=index, rng=13)
        assert served.allocation.as_dict() == direct.allocation.as_dict()
        # smaller budgets are greedy prefixes of the same index
        smaller = supgrd(graph, bounded_model, 2, fixed, superior_item="i",
                         enforce_preconditions=False, index=index, rng=13)
        full = direct.allocation.seeds_for("i")
        assert smaller.allocation.seeds_for("i") == full[:2]

    def test_wrong_kind_index_is_rejected(self, graph, model,
                                          bounded_model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=3)
        with pytest.raises(AlgorithmError, match="weighted"):
            supgrd(graph, bounded_model, 2, Allocation({"j": [0]}),
                   superior_item="i", enforce_preconditions=False,
                   index=index)

    def test_wrong_graph_size_is_rejected(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=3)
        small = generators.line_graph(4)
        with pytest.raises(AlgorithmError, match="rebuild"):
            seqgrd_nm(small, model, {"i": 1, "j": 1}, index=index)

    def test_expected_fingerprint_detects_graph_change(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=3)
        assert expected_index_fingerprint(graph, model, index.meta) \
            == index.fingerprint
        other = weighting.weighted_cascade(
            generators.erdos_renyi(120, avg_degree=4.0, rng=99,
                                   directed=True))
        assert expected_index_fingerprint(other, model, index.meta) \
            != index.fingerprint


class TestAllocationService:
    @pytest.fixture(scope="class")
    def service(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 3, "j": 2}, options=OPTIONS,
                            seed=7)
        return AllocationService(index, graph=graph, model=model,
                                 cache_size=4)

    def test_cache_miss_then_hit(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=5)
        service = AllocationService(index, graph=graph, model=model)
        first = service.query("SeqGRD-NM", budgets={"i": 2, "j": 1})
        second = service.query("SeqGRD-NM", budgets={"i": 2, "j": 1})
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["allocation"] == second["allocation"]
        stats = service.cache_stats
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_eviction_respects_capacity(self, service):
        for k in range(1, 7):
            service.query("select", k=k)
        assert service.cache_stats["size"] <= 4

    def test_query_cache_entry_cap_and_eviction_counter(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=5)
        service = AllocationService(index, graph=graph, model=model,
                                    cache_size=3)
        for k in range(1, 9):
            service.query("select", k=k)
        stats = service.cache_stats
        assert stats["capacity"] == 3
        assert stats["size"] == 3
        assert stats["evictions"] == 5
        # the three newest keys survive; the oldest were evicted
        cached = service.query("select", k=8)
        assert cached["cached"] is True
        evicted = service.query("select", k=1)
        assert evicted["cached"] is False

    def test_zero_capacity_disables_both_caches(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=5)
        service = AllocationService(index, graph=graph, model=model,
                                    cache_size=0)
        first = service.query("SeqGRD-NM", budgets={"i": 1, "j": 1})
        second = service.query("SeqGRD-NM", budgets={"i": 1, "j": 1})
        assert first["cached"] is False and second["cached"] is False
        assert first["allocation"] == second["allocation"]
        assert service.cache_stats["size"] == 0

    def test_select_budgets_are_greedy_prefixes(self, service):
        big = service.query("select", k=6)["allocation"]["seeds"]
        small = service.query("select", k=2)["allocation"]["seeds"]
        assert small == big[:2]

    def test_batch_query(self, service):
        responses = [service.query("select", k=k) for k in (1, 2, 3)]
        assert [len(r["allocation"]["seeds"]) for r in responses] == [1, 2, 3]

    def test_handle_request_dialect(self, tmp_path):
        from repro.graphs.datasets import load_network
        from repro.serve import AllocationServer, IndexRegistry
        from repro.utility.configs import configuration_model

        build_index(load_network("nethept", scale=0.01, rng=4),
                    configuration_model("C1"), sampler="marginal",
                    budgets={"i": 2, "j": 2}, options=OPTIONS, seed=4,
                    meta_extra={"network": "nethept", "scale": 0.01,
                                "configuration": "C1", "graph_seed": 4}
                    ).save(tmp_path / "dialect-idx")
        server = AllocationServer(
            IndexRegistry(paths=[tmp_path / "dialect-idx"]))
        # loaded up front: `stats` then carries the one-index shape
        server.registry.get("dialect-idx")

        def handle(request):
            return server.dispatch_line(json.dumps(request))

        assert handle({"op": "ping"})["pong"] is True
        stats = handle({"id": "x", "op": "stats"})
        assert stats["id"] == "x" and "stats" in stats
        bad = handle({"op": "query", "algorithm": "nope"})
        assert bad["ok"] is False and "nope" in bad["error"]
        good = handle({"op": "query", "algorithm": "select", "k": 2})
        assert good["ok"] is True and len(good["allocation"]["seeds"]) == 2

    def test_missing_instance_is_reported(self, graph, model):
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=OPTIONS,
                            seed=5)
        service = AllocationService(index)
        with pytest.raises(AlgorithmError, match="graph and utility model"):
            service.query("SeqGRD-NM", budgets={"i": 1, "j": 1})


class TestCapHitMetadata:
    def test_cap_hit_warns_and_is_recorded(self, graph):
        tight = IMMOptions(max_rr_sets=300, min_rr_sets=16)
        with pytest.warns(RuntimeWarning, match="max_rr_sets"):
            result = imm(graph, 4, options=tight, rng=1)
        assert result.cap_hit is True
        assert result.num_rr_sets <= 300

    def test_no_warning_when_cap_not_hit(self, two_node_graph):
        import warnings as warnings_module

        options = IMMOptions(max_rr_sets=500_000, min_rr_sets=16)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            result = imm(two_node_graph, 1, options=options, rng=1)
        assert result.cap_hit is False

    def test_marginal_build_records_cap_hit(self, graph, model,
                                            bounded_model):
        tiny = IMMOptions(max_rr_sets=300, min_rr_sets=16)
        index = build_index(graph, model, sampler="marginal",
                            budgets={"i": 2, "j": 2}, options=tiny, seed=5)
        assert index.meta["cap_hit"] is True
        # an index-served run reports the cap its build hit
        served = seqgrd_nm(graph, model, {"i": 2, "j": 2}, index=index,
                           rng=0)
        assert served.details["cap_hit"] is True
        # the weighted sampler records it too, and SupGRD reports it
        fixed = Allocation({"j": [0, 1]})
        with pytest.warns(RuntimeWarning, match="max_rr_sets"):
            weighted = build_index(graph, bounded_model, sampler="weighted",
                                   budgets={"i": 2}, superior_item="i",
                                   fixed_allocation=fixed, options=tiny,
                                   seed=5)
        assert weighted.meta["cap_hit"] is True
        served = supgrd(graph, bounded_model, 2, fixed, superior_item="i",
                        enforce_preconditions=False, index=weighted, rng=0)
        assert served.details["cap_hit"] is True
        ample = build_index(graph, bounded_model, sampler="weighted",
                            budgets={"i": 2}, superior_item="i",
                            fixed_allocation=fixed, seed=5,
                            options=IMMOptions(max_rr_sets=500_000,
                                               min_rr_sets=16))
        assert ample.meta["cap_hit"] is False
        served = supgrd(graph, bounded_model, 2, fixed, superior_item="i",
                        enforce_preconditions=False, index=ample, rng=0)
        assert served.details["cap_hit"] is False


class TestRRCollectionExtend:
    def test_extend_matches_repeated_add(self):
        rng = np.random.default_rng(2)
        pairs = []
        for _ in range(60):
            size = int(rng.integers(0, 6))
            nodes = rng.choice(25, size=size, replace=False).astype(np.int64)
            pairs.append((nodes, float(rng.random())))
        one = RRCollection(25)
        for nodes, weight in pairs:
            one.add(nodes, weight)
        bulk = RRCollection(25)
        bulk.extend(pairs)
        assert bulk.num_sets == one.num_sets
        assert bulk.total_weight == pytest.approx(one.total_weight)
        for bulk_arr, one_arr in zip(bulk._inverted(), one._inverted()):
            np.testing.assert_array_equal(bulk_arr, one_arr)
        for k in (1, 5, 10):
            assert node_selection(bulk, k).seeds == \
                node_selection(one, k).seeds

    def test_extend_empty_iterable(self):
        collection = RRCollection(5)
        collection.extend([])
        assert collection.num_sets == 0

    def test_extend_keeps_zero_weight_sets_out_of_inverted(self):
        collection = RRCollection(5)
        collection.extend([(np.array([1, 2]), 0.0), (np.array([2]), 1.0)])
        assert collection.num_sets == 2
        assert list(collection.sets_covered_by(2)) == [1]
        assert list(collection.sets_covered_by(1)) == []
