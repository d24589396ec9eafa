"""Property-based serve ⇔ run equivalence on randomized RunSpecs.

A seeded generator (plain ``random.Random`` — no hypothesis dependency)
draws RunSpecs across algorithms, budgets and seeds; each spec is served
through the full serving stack (registry → server pipeline → protocol →
AllocationService over a freshly built, saved index) and compared against
a direct :func:`repro.api.run` of the same spec:

* allocations must be **bit-identical**,
* the response fingerprint must equal :meth:`RunSpec.fingerprint` and
  survive a ``to_dict`` → JSON → ``from_dict`` round trip,
* serving the same spec twice (fresh service vs. cached) must agree.

One spec additionally round-trips through a real TCP connection, so the
wire path (framing, coalescer, worker thread) is covered by the same
bit-identity property.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
from typing import List, Tuple

import pytest

from repro.api import (
    EngineConfig,
    RunSpec,
    WorkloadSpec,
    make_request,
    run as run_spec,
)
from repro.index import build_index
from repro.serve import AllocationServer, IndexRegistry
from repro.utility.configs import configuration_model

NETWORK, SCALE, CONFIGURATION = "nethept", 0.01, "C1"


def generate_specs(seed: int, count: int) -> List[RunSpec]:
    """Seeded random RunSpecs servable from a matching index."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        algorithm = rng.choice(["SeqGRD-NM", "SeqGRD-NM", "SupGRD"])
        engine = EngineConfig(seed=rng.choice([3, 4]),
                              samples=rng.choice([5, 10]),
                              max_rr_sets=rng.choice([1500, 2000]),
                              epsilon=rng.choice([0.5, 0.6]))
        if algorithm == "SupGRD":
            workload = WorkloadSpec(
                network=NETWORK, scale=SCALE, configuration=CONFIGURATION,
                budgets={"i": rng.randint(1, 3)}, superior_item="i")
        else:
            workload = WorkloadSpec(
                network=NETWORK, scale=SCALE, configuration=CONFIGURATION,
                budgets={"i": rng.randint(1, 3), "j": rng.randint(1, 3)})
        specs.append(RunSpec(algorithm=algorithm, workload=workload,
                             engine=engine))
    return specs


def build_matching_index(graph, model, spec: RunSpec):
    """Build the index a direct run of ``spec`` would have sampled."""
    sampler = "weighted" if spec.algorithm == "SupGRD" else "marginal"
    return build_index(
        graph, model, sampler=sampler,
        budgets=dict(spec.workload.budgets),
        superior_item=spec.workload.superior_item,
        options=spec.engine.imm_options(), seed=spec.engine.seed,
        workers=spec.engine.workers,
        meta_extra={"network": NETWORK, "scale": SCALE,
                    "configuration": CONFIGURATION,
                    "graph_seed": spec.engine.seed,
                    "fixed_imm_item": None, "fixed_imm_budget": 50})


@pytest.fixture(scope="module")
def instances():
    from repro.graphs.datasets import load_network

    model = configuration_model(CONFIGURATION)
    return {seed: load_network(NETWORK, scale=SCALE, rng=seed)
            for seed in (3, 4)}, model


def serve_from_saved_index(index, path, request):
    """Answer ``request`` through a server hosting ``index`` saved at
    ``path``."""
    index.save(path)
    server = AllocationServer(IndexRegistry(paths=[path]))
    return server.dispatch_line(json.dumps(request))


@pytest.fixture(scope="module")
def served_and_direct(instances, tmp_path_factory
                      ) -> List[Tuple[RunSpec, dict, dict]]:
    """Each random spec served through the stack + run directly."""
    graphs, model = instances
    tmp = tmp_path_factory.mktemp("equivalence")
    rows = []
    for n, spec in enumerate(generate_specs(seed=2020, count=6)):
        graph = graphs[spec.engine.seed]
        index = build_matching_index(graph, model, spec)
        response = serve_from_saved_index(
            index, tmp / f"spec-{n}", make_request(spec, request_id=1))
        record = run_spec(spec, graph=graph, model=model)
        direct = {item: list(nodes) for item, nodes
                  in record.result.allocation.as_dict().items()}
        rows.append((spec, response, direct))
    return rows


class TestServeMatchesRun:
    def test_all_specs_served_ok(self, served_and_direct):
        for spec, response, _direct in served_and_direct:
            assert response["ok"] is True, (spec.algorithm, response)

    def test_allocations_bit_identical(self, served_and_direct):
        for spec, response, direct in served_and_direct:
            assert response["allocation"] == direct, spec.algorithm

    def test_fingerprints_match_spec(self, served_and_direct):
        for spec, response, _direct in served_and_direct:
            assert response["fingerprint"] == spec.fingerprint()

    def test_fingerprints_survive_json_round_trip(self, served_and_direct):
        for spec, _response, _direct in served_and_direct:
            round_tripped = RunSpec.from_dict(
                json.loads(json.dumps(spec.to_dict())))
            assert round_tripped.fingerprint() == spec.fingerprint()
            assert round_tripped == spec

    def test_generator_is_deterministic(self):
        first = [s.fingerprint() for s in generate_specs(seed=99, count=8)]
        second = [s.fingerprint() for s in generate_specs(seed=99, count=8)]
        assert first == second
        # different seeds explore different specs
        other = [s.fingerprint() for s in generate_specs(seed=100, count=8)]
        assert first != other

    def test_superior_item_without_budget(self, instances, tmp_path):
        """A SupGRD spec whose superior_item has no budget allocates the
        budgeted item, served and direct alike."""
        graphs, model = instances
        spec = RunSpec(
            algorithm="SupGRD",
            workload=WorkloadSpec(
                network=NETWORK, scale=SCALE, configuration=CONFIGURATION,
                budgets={"i": 2}, superior_item="j"),
            engine=EngineConfig(seed=3, samples=5, max_rr_sets=1500))
        graph = graphs[3]
        # the served route resolves the item narrow_single_item_budgets
        # keeps, so it lands on the index sampled for "i"
        routed = dataclasses.replace(
            spec, workload=dataclasses.replace(spec.workload,
                                               superior_item="i"))
        response = serve_from_saved_index(
            build_matching_index(graph, model, routed),
            tmp_path / "sup-i", make_request(spec))
        assert response["ok"] is True, response
        record = run_spec(spec, graph=graph, model=model)
        direct = {item: list(nodes) for item, nodes
                  in record.result.allocation.as_dict().items()}
        assert list(direct) == ["i"]
        assert response["allocation"] == direct

    @pytest.mark.parametrize("built_with, asked_with", [(2, None), (None, 2)])
    def test_worker_count_does_not_split_indexes(self, instances, tmp_path,
                                                 built_with, asked_with):
        """A spec is answered from an index built with another worker
        count (``None`` included): every count samples one stream."""
        graphs, model = instances
        spec = generate_specs(seed=2020, count=1)[0]
        graph = graphs[spec.engine.seed]

        def with_workers(workers):
            return dataclasses.replace(spec, engine=dataclasses.replace(
                spec.engine, workers=workers))

        asked = with_workers(asked_with)
        response = serve_from_saved_index(
            build_matching_index(graph, model, with_workers(built_with)),
            tmp_path / "workers", make_request(asked))
        assert response["ok"] is True, response
        record = run_spec(asked, graph=graph, model=model)
        direct = {item: list(nodes) for item, nodes
                  in record.result.allocation.as_dict().items()}
        assert response["allocation"] == direct

    def test_fresh_service_reserves_identically(self, instances, tmp_path,
                                                served_and_direct):
        graphs, model = instances
        spec, response, _direct = served_and_direct[0]
        graph = graphs[spec.engine.seed]
        index = build_matching_index(graph, model, spec)
        again = serve_from_saved_index(index, tmp_path / "fresh-idx",
                                       make_request(spec))
        assert again["allocation"] == response["allocation"]
        assert again["fingerprint"] == response["fingerprint"]


class TestWirePathEquivalence:
    def test_tcp_round_trip_bit_identical(self, tmp_path, instances,
                                          served_and_direct):
        graphs, model = instances
        spec, _response, direct = served_and_direct[0]
        graph = graphs[spec.engine.seed]
        index = build_matching_index(graph, model, spec)
        index.save(tmp_path / "wire-idx")
        registry = IndexRegistry(directory=tmp_path)
        server = AllocationServer(registry)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(make_request(spec, request_id=7))
                         .encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 60))
            writer.close()
            await server.shutdown(drain=True)
            return response

        response = asyncio.run(asyncio.wait_for(scenario(), 120))
        assert response["ok"] is True, response
        assert response["allocation"] == direct
        assert response["fingerprint"] == spec.fingerprint()
        assert response["server"]["index"] == "wire-idx"

    def test_stdio_dispatch_matches_direct_service(self, tmp_path,
                                                   instances,
                                                   served_and_direct):
        graphs, model = instances
        spec, response, _direct = served_and_direct[1]
        graph = graphs[spec.engine.seed]
        index = build_matching_index(graph, model, spec)
        index.save(tmp_path / "stdio-idx")
        registry = IndexRegistry(paths=[tmp_path / "stdio-idx"])
        server = AllocationServer(registry)
        via_core = server.dispatch_line(json.dumps(make_request(spec)))
        assert via_core["ok"] is True
        assert via_core["allocation"] == response["allocation"]


def _key_paths(obj, prefix=""):
    """Sorted dotted key paths of a nested dict (leaves included)."""
    if not isinstance(obj, dict) or not obj:
        return [prefix] if prefix else []
    paths = []
    for key, value in obj.items():
        paths.extend(_key_paths(value, f"{prefix}.{key}" if prefix else key))
    return sorted(paths)


def _stable(response):
    """A response without its timing fields (latency, spans, trace id)."""
    return {key: value for key, value in response.items()
            if key not in ("timings", "latency_ms")}


class TestTransportEquivalence:
    """One pipeline: the same frames answer alike over every transport."""

    SPEC = RunSpec(
        algorithm="SeqGRD-NM",
        workload=WorkloadSpec(network=NETWORK, scale=SCALE,
                              configuration=CONFIGURATION,
                              budgets={"i": 2, "j": 2}),
        engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))

    FRAMES = [
        json.dumps(make_request(SPEC, request_id=1)),
        '{"id": 2, "op": "query", "budgets": {"i": 1, "j": 2}}',
        '{"id": 3, "op": "ping"}',
        "garbage",
        '{"id": 4, "op": "stats"}',
    ]

    def test_mixed_frames_equal_over_every_transport(
            self, tmp_path, instances, capsys, monkeypatch):
        import io

        from repro.cli import main

        graphs, model = instances
        path = tmp_path / "transport-idx"
        build_matching_index(graphs[4], model, self.SPEC).save(path)

        def server():
            return AllocationServer(IndexRegistry(paths=[path]))

        direct = server()
        via_dispatch = [direct.dispatch_line(f) for f in self.FRAMES]
        dispatch_stats = _key_paths(direct.stats_payload())

        monkeypatch.setattr("sys.stdin",
                            io.StringIO("\n".join(self.FRAMES) + "\n"))
        assert main(["serve", "--index", str(path)]) == 0
        via_stdio = [json.loads(line) for line
                     in capsys.readouterr().out.splitlines() if line]

        tcp = server()

        async def scenario():
            host, port = await tcp.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            for frame in self.FRAMES:
                writer.write(frame.encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await asyncio.wait_for(
                    reader.readline(), 60)))
            writer.close()
            stats = _key_paths(tcp.stats_payload())
            await tcp.shutdown(drain=True)
            return responses, stats

        via_tcp, tcp_stats = asyncio.run(asyncio.wait_for(scenario(), 120))
        assert via_dispatch[0]["ok"] is True and via_dispatch[1]["ok"]
        for transport in (via_stdio, via_tcp):
            assert len(transport) == len(self.FRAMES)
            for ours, theirs in zip(via_dispatch[:-1], transport[:-1]):
                assert _stable(theirs) == _stable(ours)
            assert _key_paths(transport[-1]) == _key_paths(via_dispatch[-1])
        assert tcp_stats == dispatch_stats


class TestIncompatibleSpecsRejected:
    def test_randomized_incompatible_specs_get_envelopes(self, tmp_path,
                                                         instances):
        graphs, model = instances
        base = generate_specs(seed=5, count=1)[0]
        graph = graphs[base.engine.seed]
        index = build_matching_index(graph, model, base)
        index.save(tmp_path / "strict-idx")
        registry = IndexRegistry(directory=tmp_path)
        server = AllocationServer(registry)
        rng = random.Random(5)
        rejected = 0
        for _ in range(10):
            mutated = dataclasses.replace(
                base, engine=dataclasses.replace(
                    base.engine,
                    seed=rng.randint(50, 99),
                    epsilon=rng.choice([0.1, 0.2, 0.9])))
            response = server.dispatch_line(
                json.dumps(make_request(mutated)))
            assert response["ok"] is False
            assert response["error"]["code"] == "incompatible-spec"
            rejected += 1
        assert rejected == 10
