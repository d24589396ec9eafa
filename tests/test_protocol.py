"""Tests for the versioned serve protocol (:mod:`repro.api.protocol`).

Covers v1 request → response → ``RunSpec.from_dict`` round-trips, the
error envelopes (unknown version, malformed request, invalid spec,
incompatible spec, unsupported algorithm), response caching, the
execution step both dialects share, routing by index sampler kind, and the
acceptance property that a ``repro run`` and an equivalent ``repro
serve`` request produce bit-identical allocations.  Requests go through
the server's pipeline over saved indexes.
"""

import io
import json

import pytest

from repro.api import (
    EngineConfig,
    PROTOCOL_VERSION,
    RunSpec,
    WorkloadSpec,
    make_request,
)
from repro.api.protocol import prepare_request
from repro.cli import main
from repro.exceptions import AlgorithmError, DeadlineExceeded
from repro.index import build_index
from repro.obs.trace import Trace
from repro.serve import AllocationServer, IndexRegistry
from repro.utility.configs import configuration_model


@pytest.fixture(scope="module")
def instance():
    from repro.graphs.datasets import load_network

    graph = load_network("nethept", scale=0.01, rng=4)
    model = configuration_model("C1")
    return graph, model


@pytest.fixture(scope="module")
def spec():
    return RunSpec(
        algorithm="SeqGRD-NM",
        workload=WorkloadSpec(network="nethept", scale=0.01,
                              configuration="C1",
                              budgets={"i": 2, "j": 2}),
        engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))


def save_index(graph, model, spec, path, sampler="marginal"):
    build_index(
        graph, model, sampler=sampler,
        budgets=dict(spec.workload.budgets),
        superior_item=spec.workload.superior_item,
        options=spec.engine.imm_options(), seed=spec.engine.seed,
        meta_extra={"network": "nethept", "scale": 0.01,
                    "configuration": "C1", "graph_seed": 4,
                    "fixed_imm_item": None,
                    "fixed_imm_budget": 50}).save(path)


@pytest.fixture(scope="module")
def server(instance, spec, tmp_path_factory):
    graph, model = instance
    path = tmp_path_factory.mktemp("protocol") / "proto-idx"
    save_index(graph, model, spec, path)
    return AllocationServer(IndexRegistry(paths=[path]))


def serve(server, request):
    return server.dispatch_line(json.dumps(request))


class TestVersionedRequests:
    def test_round_trip_spec_equality(self, server, spec):
        response = serve(server, make_request(spec, request_id=7))
        assert response["ok"] is True
        assert response["v"] == PROTOCOL_VERSION
        assert response["id"] == 7
        assert RunSpec.from_dict(response["spec"]) == spec
        assert response["fingerprint"] == spec.fingerprint()
        assert set(response["allocation"]) == {"i", "j"}
        assert response["welfare"] >= 0
        assert "latency_ms" in response["timings"]

    def test_fingerprint_keyed_cache(self, server, spec):
        first = serve(server, make_request(spec))
        second = serve(server, make_request(spec))
        assert second["cached"] is True
        assert second["allocation"] == first["allocation"]

    def test_unknown_version_envelope(self, server):
        response = serve(server, {"v": 99, "spec": {}})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-version"
        assert "99" in response["error"]["message"]

    def test_missing_spec_envelope(self, server):
        response = serve(server, {"v": 1, "id": "x"})
        assert response["ok"] is False
        assert response["error"]["code"] == "malformed-request"
        assert response["id"] == "x"

    def test_malformed_spec_envelope(self, server):
        response = serve(
            server, {"v": 1, "spec": {"algorithm": "SeqGRD-NM",
                                      "workload": {"bogus": 1}}})
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-spec"
        assert "bogus" in response["error"]["message"]

    def test_removed_selection_strategy_field_envelope(self, server, spec):
        wire = spec.to_dict()
        wire["engine"]["selection_strategy"] = "eager"
        response = serve(server, {"v": 1, "spec": wire})
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-spec"
        assert "selection_strategy" in response["error"]["message"]

    def test_unknown_algorithm_envelope(self, server):
        response = serve(
            server, {"v": 1, "spec": {"algorithm": "Mystery"}})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-algorithm"

    def test_unsupported_algorithm_envelope(self, server, spec):
        request = make_request(RunSpec("TCIM", spec.workload, spec.engine))
        response = serve(server, request)
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-algorithm"

    def test_incompatible_seed_envelope(self, server, spec):
        import dataclasses

        other = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, seed=99))
        response = serve(server, make_request(other))
        assert response["ok"] is False
        assert response["error"]["code"] == "incompatible-spec"
        assert "seed" in response["error"]["message"]

    def test_incompatible_fixed_allocation_envelope(self, server, spec):
        import dataclasses

        other = dataclasses.replace(
            spec, workload=dataclasses.replace(
                spec.workload, budgets={"i": 2},
                fixed_allocation={"j": (5,)}))
        response = serve(server, make_request(other))
        assert response["ok"] is False
        assert response["error"]["code"] == "incompatible-spec"
        assert "fixed_allocation" in response["error"]["message"]

    def test_incompatible_epsilon_envelope(self, server, spec):
        import dataclasses

        other = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, epsilon=0.1))
        response = serve(server, make_request(other))
        assert response["ok"] is False
        assert response["error"]["code"] == "incompatible-spec"

    def test_legacy_dialect_still_served(self, server):
        response = serve(
            server, {"op": "query", "budgets": {"i": 2, "j": 2}})
        assert response["ok"] is True
        assert "allocation" in response


class TestExecution:
    """Single prepared requests through the server's execution step, the
    one v1 requests and legacy queries share."""

    @staticmethod
    def prepared(server, spec):
        service = server.registry.get("proto-idx").service
        key, routed, out = prepare_request(
            make_request(spec, request_id=1),
            lambda _spec: ("proto-idx", service))
        assert (key, routed) == ("proto-idx", service)
        return service, out

    def test_degenerate_query_raises(self, server, spec):
        service, prepared = self.prepared(server, spec)
        with pytest.raises(AlgorithmError):
            server._execute(service, None, Trace(), prepared.algorithm,
                            {"i": -1})

    def test_expired_deadline_raises(self, server, spec):
        service, prepared = self.prepared(server, spec)
        trace = Trace()
        with pytest.raises(DeadlineExceeded):
            server._execute(service, 0.0, trace, prepared.algorithm,
                            prepared.budgets)
        # nothing executed: no execute span
        assert trace.spans() == []

    def test_repeat_comes_back_cached(self, server, spec):
        service, prepared = self.prepared(server, spec)
        trace = Trace()
        first = server._execute(service, None, trace, prepared.algorithm,
                                prepared.budgets)
        second = server._execute(service, None, trace, prepared.algorithm,
                                 prepared.budgets)
        assert second["cached"] is True
        assert second["allocation"] == first["allocation"]
        assert [name for name, _ in trace.spans()] == ["execute"]


class TestSamplerRouting:
    """With a marginal and a weighted index co-hosted for one instance,
    each algorithm is served from the index kind it executes against —
    whichever of the two sorts first."""

    SUPGRD = RunSpec(
        algorithm="SupGRD",
        workload=WorkloadSpec(network="nethept", scale=0.01,
                              configuration="C1", budgets={"i": 2},
                              superior_item="i"),
        engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))

    @pytest.mark.parametrize("marginal, weighted", [
        ("a-marginal", "b-weighted"), ("b-marginal", "a-weighted")])
    def test_each_algorithm_served_by_its_own_index(
            self, instance, spec, tmp_path, marginal, weighted):
        from repro.api import run as run_spec

        graph, model = instance
        save_index(graph, model, spec, tmp_path / marginal)
        save_index(graph, model, self.SUPGRD, tmp_path / weighted,
                   sampler="weighted")
        server = AllocationServer(IndexRegistry(directory=tmp_path))
        for request_spec, expected in ((spec, marginal),
                                       (self.SUPGRD, weighted)):
            response = serve(server, make_request(request_spec))
            assert response["ok"] is True, response
            assert response["server"]["index"] == expected
            direct = run_spec(request_spec, graph=graph, model=model)
            assert response["allocation"] == {
                item: list(nodes) for item, nodes
                in direct.result.allocation.as_dict().items()}

    SUPGRD_J = RunSpec(
        algorithm="SupGRD",
        workload=WorkloadSpec(network="nethept", scale=0.01,
                              configuration="C1", budgets={"j": 2},
                              superior_item="j"),
        engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))

    @pytest.mark.parametrize("sup_i, sup_j", [
        ("a-sup-i", "b-sup-j"), ("b-sup-i", "a-sup-j")])
    def test_supgrd_served_by_its_superior_items_index(
            self, instance, tmp_path, sup_i, sup_j):
        """Two weighted indexes of one instance, sampled for different
        superior items: each SupGRD spec lands on its own item's index."""
        from repro.api import run as run_spec

        graph, model = instance
        save_index(graph, model, self.SUPGRD, tmp_path / sup_i,
                   sampler="weighted")
        save_index(graph, model, self.SUPGRD_J, tmp_path / sup_j,
                   sampler="weighted")
        server = AllocationServer(IndexRegistry(directory=tmp_path))
        for request_spec, expected in ((self.SUPGRD, sup_i),
                                       (self.SUPGRD_J, sup_j)):
            response = serve(server, make_request(request_spec))
            assert response["ok"] is True, response
            assert response["server"]["index"] == expected
            direct = run_spec(request_spec, graph=graph, model=model)
            assert response["allocation"] == {
                item: list(nodes) for item, nodes
                in direct.result.allocation.as_dict().items()}


class TestServeMatchesRun:
    """Acceptance: `repro run` and an equivalent serve request produce
    bit-identical allocations."""

    RUN = ["run", "--network", "nethept", "--scale", "0.01", "--budget", "2",
           "--samples", "10", "--max-rr-sets", "2000", "--seed", "4"]
    BUILD = ["index", "build", "--network", "nethept", "--scale", "0.01",
             "--budget", "2", "--max-rr-sets", "2000", "--seed", "4"]

    def test_serve_request_reproduces_run(self, tmp_path, capsys,
                                          monkeypatch):
        assert main(self.RUN + ["--json"]) == 0
        run_payload = json.loads(capsys.readouterr().out)

        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()

        spec = RunSpec(
            algorithm="SeqGRD-NM",
            workload=WorkloadSpec(network="nethept", scale=0.01,
                                  configuration="C1", budget=2),
            engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))
        requests = json.dumps(make_request(spec, request_id=1)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", "--index", str(out)]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 1
        response = lines[0]
        assert response["ok"] is True, response
        assert response["allocation"] == run_payload["allocation"]
        assert response["fingerprint"] == run_payload["spec_fingerprint"]

    def test_mixed_dialects_in_one_session(self, tmp_path, capsys,
                                           monkeypatch):
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        spec = RunSpec(
            algorithm="SeqGRD-NM",
            workload=WorkloadSpec(network="nethept", scale=0.01,
                                  configuration="C1", budget=2),
            engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))
        requests = "\n".join([
            '{"op": "ping"}',
            json.dumps(make_request(spec)),
            '{"v": 2, "spec": {}}',
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", "--index", str(out)]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert lines[0]["pong"] is True
        assert lines[1]["ok"] is True
        assert lines[2]["error"]["code"] == "unsupported-version"
