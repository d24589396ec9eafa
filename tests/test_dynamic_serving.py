"""apply-delta through the serving stack: service, registry, server, CLI.

A hosted repairable index must be repairable without a restart: the
legacy ``{"op": "apply-delta"}`` request repairs it, persists the new
artifact atomically, and rescans the registry (the same hot-swap path a
SIGHUP takes).  Staleness must be auditable end to end — in the
manifest, in ``IndexRegistry.stats()`` (with the stale-beyond-bound
flag) and in ``repro index info``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import WorkloadSpec
from repro.api.runner import load_graph
from repro.cli import main
from repro.dynamic import GraphDelta, build_repairable_index
from repro.dynamic.replay import random_edge_delta
from repro.serve import AllocationServer, IndexRegistry, load_service
from repro.utility.configs import configuration_model

NETWORK, SCALE, CONFIGURATION, SEED = "nethept", 0.01, "C1", 2020
RR_SETS = 1500


def build_hosted_index(directory, name="dyn-idx"):
    workload = WorkloadSpec(network=NETWORK, scale=SCALE,
                            configuration=CONFIGURATION, budgets={"i": 5})
    graph = load_graph(workload, SEED)
    model = configuration_model(CONFIGURATION)
    index = build_repairable_index(
        graph, model, rr_sets=RR_SETS, base_seed=SEED,
        meta_extra={"network": NETWORK, "scale": SCALE,
                    "configuration": CONFIGURATION, "graph_seed": SEED})
    index.save(directory / name)
    return graph, model, index


@pytest.fixture
def hosted(tmp_path):
    graph, model, index = build_hosted_index(tmp_path)
    return tmp_path, graph, model, index


def serve(server, request):
    return server.dispatch_line(json.dumps(request))


class TestServiceOp:
    def test_apply_delta_repairs_in_memory(self, hosted):
        directory, graph, _, _ = hosted
        server = AllocationServer(IndexRegistry(paths=[directory / "dyn-idx"]))
        before = load_service(directory / "dyn-idx").service.index.num_sets
        delta = random_edge_delta(graph, 0.01, seed=3)
        response = serve(server,
                         {"op": "apply-delta", "delta": delta.to_dict()})
        assert response["ok"]
        assert response["repair"]["epoch"] == 1
        assert 0 < response["repair"]["repaired_fraction"] < 0.5
        repaired = server.registry.get("dyn-idx").service.index
        assert repaired.num_sets == before
        assert repaired.meta["dynamic"]["epoch"] == 1
        # the swapped index serves queries immediately
        query = serve(server, {"op": "query", "algorithm": "select", "k": 5})
        assert query["ok"] and len(query["allocation"]) >= 1

    def test_malformed_delta_is_a_typed_error(self, hosted):
        directory, _, _, _ = hosted
        server = AllocationServer(IndexRegistry(paths=[directory / "dyn-idx"]))
        response = serve(server,
                         {"op": "apply-delta", "delta": {"bogus": 1}})
        assert response["ok"] is False
        assert "bogus" in response["error"]


class TestRegistryOp:
    def test_apply_delta_persists_and_rescans(self, hosted):
        directory, graph, _, index = hosted
        registry = IndexRegistry(directory=directory, capacity=2)
        delta = random_edge_delta(graph, 0.01, seed=7)
        summary = registry.apply_delta("dyn-idx", delta.to_dict())
        assert summary["repair"]["epoch"] == 1
        assert "scan" in summary
        # the on-disk artifact advanced (a cold registry sees epoch 1
        # and its fingerprint verification passes on the drifted graph)
        fresh = IndexRegistry(directory=directory, capacity=2)
        loaded = fresh.get("dyn-idx")
        assert loaded.service.index.meta["dynamic"]["epoch"] == 1
        assert loaded.service.index.fingerprint != index.fingerprint
        row = fresh.stats()["indexes"]["dyn-idx"]
        assert row["staleness"]["epoch"] == 1
        assert row["staleness"]["repaired_fraction"] > 0

    def test_zero_delta_skips_persistence(self, hosted):
        directory, _, _, _ = hosted
        npz = directory / "dyn-idx.npz"
        before = (npz.stat().st_mtime_ns, npz.read_bytes())
        registry = IndexRegistry(directory=directory, capacity=2)
        summary = registry.apply_delta("dyn-idx", {})
        assert summary["repair"]["zero_delta"]
        assert "scan" not in summary
        assert (npz.stat().st_mtime_ns, npz.read_bytes()) == before

    def test_stale_beyond_bound_is_flagged(self, hosted):
        directory, graph, _, _ = hosted
        registry = IndexRegistry(directory=directory, capacity=2,
                                 staleness_bound=0.01)
        delta = random_edge_delta(graph, 0.05, seed=5)
        registry.apply_delta("dyn-idx", delta.to_dict())
        stats = registry.stats()
        assert stats["staleness_bound"] == 0.01
        assert stats["stale"] == ["dyn-idx"]
        assert stats["indexes"]["dyn-idx"]["stale"] is True
        # a lenient registry over the same directory does not flag it
        lenient = IndexRegistry(directory=directory, capacity=2,
                                staleness_bound=0.9)
        assert lenient.stats()["stale"] == []


class TestResidentInstall:
    """apply-delta keeps the repaired build resident: it serves exactly
    what a reload from the manifest would, without one."""

    def test_query_after_delta_needs_no_reload(self, hosted, monkeypatch):
        directory, graph, _, _ = hosted
        server = AllocationServer(IndexRegistry(directory=directory))
        delta = random_edge_delta(graph, 0.01, seed=3)
        response = serve(server, {"op": "apply-delta", "index": "dyn-idx",
                                  "delta": delta.to_dict()})
        assert response["ok"], response

        def no_reload(*args, **kwargs):
            raise AssertionError("load_service ran after apply-delta")

        monkeypatch.setattr("repro.serve.registry.load_service", no_reload)
        query = serve(server, {"op": "query", "index": "dyn-idx",
                               "algorithm": "select", "k": 5})
        assert query["ok"], query
        assert len(query["allocation"]["seeds"]) == 5

    def test_resident_build_equals_a_cold_load(self, hosted):
        directory, _, _, _ = hosted
        registry = IndexRegistry(directory=directory)
        for seed in (11, 12, 13):
            current = registry.get("dyn-idx").graph
            registry.apply_delta(
                "dyn-idx", random_edge_delta(current, 0.01, seed=seed))
        resident = registry.get("dyn-idx")
        cold = load_service(directory / "dyn-idx")
        left, right = resident.service.index, cold.service.index
        assert left.meta["dynamic"]["epoch"] == 3
        arrays = [(left._packed(), right._packed()),
                  (left._inverted(), right._inverted()),
                  ((left.initial_gains(), left.roots),
                   (right.initial_gains(), right.roots)),
                  (resident.graph.edge_arrays(), cold.graph.edge_arrays())]
        for mine, theirs in arrays:
            for a, b in zip(mine, theirs):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
        assert left.meta == right.meta
        assert left.fingerprint == right.fingerprint
        assert left.num_nodes == right.num_nodes
        assert resident.graph.num_nodes == cold.graph.num_nodes
        assert resident.fixed == cold.fixed
        for k in (5, 10, 20, 50):
            assert resident.service.query(algorithm="select", k=k) == \
                cold.service.query(algorithm="select", k=k)

    def test_fingerprint_mismatch_at_install(self, hosted, monkeypatch):
        directory, graph, _, _ = hosted
        registry = IndexRegistry(directory=directory)
        server = AllocationServer(registry)
        assert serve(server, {"op": "query", "index": "dyn-idx",
                              "algorithm": "select", "k": 5})["ok"]
        monkeypatch.setattr(
            "repro.index.builder.expected_index_fingerprint",
            lambda *args, **kwargs: "0" * 64)
        delta = random_edge_delta(graph, 0.01, seed=3)
        response = serve(server, {"op": "apply-delta", "index": "dyn-idx",
                                  "delta": delta.to_dict()})
        assert response["ok"] is False
        assert "stale index" in response["error"]
        assert registry.stats()["indexes"]["dyn-idx"]["loaded"] is False
        # the next query takes the lazy path and is refused the same way
        query = serve(server, {"op": "query", "index": "dyn-idx",
                               "algorithm": "select", "k": 5})
        assert query["ok"] is False
        assert "stale index" in query["error"]

    def test_install_goes_through_the_lru(self, tmp_path):
        graph, _, _ = build_hosted_index(tmp_path, name="first")
        build_hosted_index(tmp_path, name="second")
        registry = IndexRegistry(directory=tmp_path, capacity=1)
        registry.get("first")
        registry.apply_delta("second",
                             random_edge_delta(graph, 0.01, seed=3))
        stats = registry.stats()
        assert stats["loaded"] == ["second"]
        assert stats["eviction_order"] == ["first"]
        assert stats["indexes"]["second"]["loads"] == 2
        assert stats["loads"] == 3


class TestServerOp:
    def test_dispatch_apply_delta_hot_swaps(self, hosted):
        from repro.serve import AllocationServer

        directory, graph, _, _ = hosted
        registry = IndexRegistry(directory=directory, capacity=2)
        server = AllocationServer(registry)
        delta = random_edge_delta(graph, 0.01, seed=9)
        response = server.dispatch_line(json.dumps(
            {"op": "apply-delta", "index": "dyn-idx",
             "delta": delta.to_dict()}))
        assert response["ok"], response
        assert response["repair"]["epoch"] == 1
        assert response["latency_ms"] >= 0
        # served queries continue against the repaired index
        query = server.dispatch_line(json.dumps(
            {"op": "query", "index": "dyn-idx", "algorithm": "select",
             "k": 5}))
        assert query["ok"]
        stats = server.dispatch_line(json.dumps({"op": "stats"}))
        assert stats["registry"]["indexes"]["dyn-idx"][
            "staleness"]["epoch"] == 1

    def test_unknown_index_is_an_error(self, hosted):
        from repro.serve import AllocationServer

        directory, _, _, _ = hosted
        server = AllocationServer(
            IndexRegistry(directory=directory, capacity=2))
        response = server.dispatch_line(json.dumps(
            {"op": "apply-delta", "index": "nope", "delta": {}}))
        assert response["ok"] is False


class TestCli:
    def test_build_repairable_requires_rr_sets(self, tmp_path, capsys):
        code = main(["index", "build", "--out", str(tmp_path / "x"),
                     "--sampler", "standard", "--repairable",
                     "--network", NETWORK, "--scale", str(SCALE),
                     "--configuration", CONFIGURATION,
                     "--budgets", "i=5"])
        assert code == 2
        assert "--rr-sets" in capsys.readouterr().err

    def test_repair_and_info_round_trip(self, tmp_path, capsys):
        assert main(["index", "build", "--out", str(tmp_path / "dyn"),
                     "--sampler", "standard", "--repairable",
                     "--rr-sets", str(RR_SETS),
                     "--network", NETWORK, "--scale", str(SCALE),
                     "--configuration", CONFIGURATION,
                     "--budgets", "i=5", "--json"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert built["repairable"] is True

        workload = WorkloadSpec(network=NETWORK, scale=SCALE,
                                configuration=CONFIGURATION,
                                budgets={"i": 5})
        graph = load_graph(workload, SEED)
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps(
            random_edge_delta(graph, 0.01, seed=4).to_dict()))
        assert main(["index", "repair", "--index", str(tmp_path / "dyn"),
                     "--delta", str(delta_file), "--json"]) == 0
        repaired = json.loads(capsys.readouterr().out)
        assert repaired["epoch"] == 1
        assert repaired["fingerprint"] != built["fingerprint"]
        assert repaired["staleness"]["cumulative_repaired_fraction"] > 0

        assert main(["index", "info", str(tmp_path / "dyn"),
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["repairable"] is True
        assert info["epoch"] == 1
        assert info["staleness"] == repaired["staleness"]

        # zero-op delta: fingerprint (and the artifact) unchanged
        zero = tmp_path / "zero.json"
        zero.write_text("{}")
        assert main(["index", "repair", "--index", str(tmp_path / "dyn"),
                     "--delta", str(zero), "--json"]) == 0
        untouched = json.loads(capsys.readouterr().out)
        assert untouched["zero_delta"] is True
        assert untouched["fingerprint"] == repaired["fingerprint"]

    def test_replay_verb(self, tmp_path, capsys):
        build_hosted_index(tmp_path, name="dyn")
        out = tmp_path / "replay.json"
        assert main(["replay", "--index", str(tmp_path / "dyn"),
                     "--queries", "10", "--deltas", "2",
                     "--fraction", "0.01", "--seed", "1",
                     "--out", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["queries"] == 10 and summary["deltas"] == 2
        assert summary["errors"] == 0
        assert len(summary["staleness_over_time"]) == 2
        assert summary["staleness_over_time"][-1][
            "cumulative_repaired_fraction"] > 0
        assert json.loads(out.read_text()) == summary
        # default replay runs against a scratch copy: source untouched
        manifest = json.loads(
            (tmp_path / "dyn.manifest.json").read_text())
        assert manifest["meta"]["dynamic"]["epoch"] == 0

    @pytest.mark.parametrize("mode", [["--json"], []])
    def test_replay_exits_nonzero_on_errors(self, tmp_path, capsys, mode):
        from repro import faults

        build_hosted_index(tmp_path, name="dyn")
        faults.configure("registry-load:1.0", seed=0)
        try:
            code = main(["replay", "--index", str(tmp_path / "dyn"),
                         "--queries", "4", "--deltas", "1",
                         "--fraction", "0.01", "--seed", "1", *mode])
        finally:
            faults.disarm()
        out = capsys.readouterr().out
        assert code == 1
        if mode:
            assert json.loads(out)["errors"] == 5
        else:
            assert "5 errors" in out
