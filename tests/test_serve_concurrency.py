"""Concurrency soak: 32 async clients against a multi-index registry.

Covers the acceptance properties of the concurrent server:

* 32 concurrent TCP clients with mixed spec fingerprints against a
  2-index registry all receive allocations **bit-identical** to a direct
  ``repro run`` of their spec;
* every request crosses to the worker thread exactly once;
* LRU eviction order of loaded indexes under a capacity-1 registry;
* graceful shutdown drains in-flight requests (the response of a request
  admitted before ``shutdown`` is still delivered).

Marked ``slow`` but tier-1 runnable (a few seconds at smoke scale).
"""

from __future__ import annotations

import asyncio
import json

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

pytestmark = pytest.mark.slow

NETWORK, SCALE, CONFIGURATION = "nethept", 0.01, "C1"
SEED = 4

SPEC_A = RunSpec(
    algorithm="SeqGRD-NM",
    workload=WorkloadSpec(network=NETWORK, scale=SCALE,
                          configuration=CONFIGURATION,
                          budgets={"i": 2, "j": 2}),
    engine=EngineConfig(seed=SEED, samples=10, max_rr_sets=2000))
#: same workload shape, different accuracy knob -> different index
SPEC_B = RunSpec(
    algorithm="SeqGRD-NM",
    workload=WorkloadSpec(network=NETWORK, scale=SCALE,
                          configuration=CONFIGURATION,
                          budgets={"i": 3, "j": 1}),
    engine=EngineConfig(seed=SEED, samples=10, max_rr_sets=1500))


@pytest.fixture(scope="module")
def instance():
    from repro.graphs.datasets import load_network

    return load_network(NETWORK, scale=SCALE, rng=SEED), \
        configuration_model(CONFIGURATION)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, instance):
    graph, model = instance
    tmp = tmp_path_factory.mktemp("soak-indexes")
    for name, spec in (("idx-a", SPEC_A), ("idx-b", SPEC_B)):
        index = build_index(
            graph, model, sampler="marginal",
            budgets=dict(spec.workload.budgets),
            options=spec.engine.imm_options(), seed=spec.engine.seed,
            meta_extra={"network": NETWORK, "scale": SCALE,
                        "configuration": CONFIGURATION, "graph_seed": SEED,
                        "fixed_imm_item": None, "fixed_imm_budget": 50})
        index.save(tmp / name)
    return tmp


@pytest.fixture(scope="module")
def direct_allocations(instance):
    graph, model = instance
    out = {}
    for spec in (SPEC_A, SPEC_B):
        record = run_spec(spec, graph=graph, model=model)
        out[spec.fingerprint()] = {
            item: list(nodes) for item, nodes
            in record.result.allocation.as_dict().items()}
    return out


def _run(coro, timeout=300):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestThirtyTwoClientSoak:
    def test_soak_mixed_fingerprints(self, index_dir, direct_allocations):
        registry = IndexRegistry(directory=index_dir, capacity=2,
                                 cache_size=0)
        server = AllocationServer(registry)

        async def client(host, port, client_id):
            spec = SPEC_A if client_id % 2 == 0 else SPEC_B
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            for round_no in range(3):
                writer.write(json.dumps(
                    make_request(spec, request_id=f"{client_id}-{round_no}")
                ).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await asyncio.wait_for(
                    reader.readline(), 120)))
            writer.close()
            return spec, responses

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            results = await asyncio.gather(
                *[client(host, port, i) for i in range(32)])
            stats = server.stats_payload()
            await server.shutdown(drain=True)
            return results, stats

        results, stats = _run(scenario())
        assert len(results) == 32
        for spec, responses in results:
            expected = direct_allocations[spec.fingerprint()]
            for response in responses:
                assert response["ok"] is True, response
                assert response["allocation"] == expected
                assert response["fingerprint"] == spec.fingerprint()
                assert response["server"]["index"] in ("idx-a", "idx-b")
        assert stats["server"]["requests"] == 96
        assert stats["server"]["errors"] == 0
        assert stats["registry"]["entries"] == 2
        assert stats["registry"]["evictions"] == 0

    def test_incompatible_specs_only_reach_their_index(self, index_dir):
        registry = IndexRegistry(directory=index_dir, capacity=2)
        server = AllocationServer(registry)
        response_a = server.dispatch_line(json.dumps(make_request(SPEC_A)))
        response_b = server.dispatch_line(json.dumps(make_request(SPEC_B)))
        assert response_a["server"]["index"] == "idx-a"
        assert response_b["server"]["index"] == "idx-b"


class TestOneCrossing:
    """Routing, validation and execution share one worker-thread
    crossing, in either dialect."""

    @staticmethod
    def submits(server, frame):
        calls = []
        submit = server._executor.submit

        def counting(fn, *args, **kwargs):
            calls.append(fn)
            return submit(fn, *args, **kwargs)

        server._executor.submit = counting
        try:
            response = server.dispatch_line(json.dumps(frame))
        finally:
            server._executor.submit = submit
        return response, len(calls)

    def test_v1_request_crosses_once(self, index_dir):
        server = AllocationServer(IndexRegistry(directory=index_dir,
                                                capacity=2))
        for _ in range(2):  # cold (index load), then warm
            response, crossings = self.submits(
                server, make_request(SPEC_A))
            assert response["ok"] is True, response
            assert crossings == 1
        _run(server.shutdown())

    def test_legacy_query_crosses_once(self, index_dir):
        server = AllocationServer(IndexRegistry(directory=index_dir,
                                                capacity=2))
        response, crossings = self.submits(
            server, {"op": "query", "index": "idx-a",
                     "budgets": {"i": 1, "j": 1}})
        assert response["ok"] is True, response
        assert crossings == 1
        _run(server.shutdown())


class TestLegacyDialectRouting:
    def test_legacy_query_needs_index_name_with_two_indexes(self,
                                                            index_dir):
        registry = IndexRegistry(directory=index_dir, capacity=2)
        server = AllocationServer(registry)
        ambiguous = server.dispatch_line(
            '{"op": "query", "budgets": {"i": 1, "j": 1}}')
        assert ambiguous["ok"] is False
        assert "index" in ambiguous["error"]
        named = server.dispatch_line(
            '{"op": "query", "index": "idx-a", '
            '"budgets": {"i": 1, "j": 1}}')
        assert named["ok"] is True
        assert named["server"]["index"] == "idx-a"
        unknown = server.dispatch_line(
            '{"op": "query", "index": "nope", "budgets": {"i": 1}}')
        assert unknown["ok"] is False


class TestRegistryLRU:
    def test_eviction_order_capacity_one(self, index_dir,
                                         direct_allocations):
        registry = IndexRegistry(directory=index_dir, capacity=1)
        server = AllocationServer(registry)
        sequence = [SPEC_A, SPEC_B, SPEC_A, SPEC_B]
        for spec in sequence:
            response = server.dispatch_line(json.dumps(make_request(spec)))
            assert response["ok"] is True
            assert response["allocation"] == \
                direct_allocations[spec.fingerprint()]
        stats = registry.stats()
        # each switch evicts the other index: a, b, a evicted in order
        assert stats["eviction_order"] == ["idx-a", "idx-b", "idx-a"]
        assert stats["evictions"] == 3
        assert stats["loaded"] == ["idx-b"]
        assert stats["indexes"]["idx-a"]["loads"] == 2
        assert stats["indexes"]["idx-b"]["loads"] == 2

    def test_reload_drops_changed_manifest(self, index_dir, instance):
        graph, model = instance
        registry = IndexRegistry(directory=index_dir, capacity=2)
        registry.get("idx-a")
        assert registry.entry("idx-a").loaded is not None
        # rebuild idx-a with different budgets: manifest changes on disk
        index = build_index(
            graph, model, sampler="marginal", budgets={"i": 1, "j": 1},
            options=SPEC_A.engine.imm_options(), seed=SEED,
            meta_extra={"network": NETWORK, "scale": SCALE,
                        "configuration": CONFIGURATION, "graph_seed": SEED,
                        "fixed_imm_item": None, "fixed_imm_budget": 50})
        index.save(index_dir / "idx-a")
        summary = registry.reload()
        assert "idx-a" in summary["changed"]
        assert registry.entry("idx-a").loaded is None
        # restore for the other tests (module-scoped fixture directory)
        restore = build_index(
            graph, model, sampler="marginal",
            budgets=dict(SPEC_A.workload.budgets),
            options=SPEC_A.engine.imm_options(), seed=SEED,
            meta_extra={"network": NETWORK, "scale": SCALE,
                        "configuration": CONFIGURATION, "graph_seed": SEED,
                        "fixed_imm_item": None, "fixed_imm_budget": 50})
        restore.save(index_dir / "idx-a")
        registry.reload()


class TestUnixSocketEndpoint:
    def test_unix_round_trip_and_cleanup(self, index_dir, tmp_path,
                                         direct_allocations):
        registry = IndexRegistry(directory=index_dir, capacity=2)
        server = AllocationServer(registry)
        socket_path = tmp_path / "serve.sock"

        async def scenario():
            await server.start_unix(socket_path)
            assert socket_path.exists()
            reader, writer = await asyncio.open_unix_connection(
                str(socket_path))
            writer.write(json.dumps(make_request(SPEC_A, request_id=1))
                         .encode() + b"\n")
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            first = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            second = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            writer.close()
            await server.shutdown(drain=True)
            return first, second

        first, second = _run(scenario())
        assert first["ok"] is True
        assert first["allocation"] == direct_allocations[SPEC_A.fingerprint()]
        assert second["ok"] is True and "registry" in second
        # the socket file is removed on shutdown
        assert not socket_path.exists()


class TestServeForeverSignals:
    def test_sighup_reloads_and_sigterm_drains(self, index_dir, tmp_path):
        import os
        import signal

        registry = IndexRegistry(directory=index_dir, capacity=2)
        server = AllocationServer(registry)
        socket_path = tmp_path / "forever.sock"
        endpoints = []

        async def scenario():
            forever = asyncio.create_task(server.serve_forever(
                tcp=("127.0.0.1", 0), unix=socket_path,
                ready=endpoints.extend))
            while not endpoints:
                await asyncio.sleep(0.01)
            host, port = endpoints[0].rsplit("://", 1)[1].rsplit(":", 1)
            reader, writer = await asyncio.open_connection(host, int(port))
            reloads_before = registry.stats()["reloads"]
            os.kill(os.getpid(), signal.SIGHUP)
            await asyncio.sleep(0.05)
            assert registry.stats()["reloads"] == reloads_before + 1
            writer.write(json.dumps(make_request(SPEC_A)).encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(forever, 60)
            return response

        response = _run(scenario())
        assert response["ok"] is True
        assert len(endpoints) == 2
        assert not socket_path.exists()


class TestGracefulDrain:
    def test_shutdown_drains_in_flight_requests(self, index_dir,
                                                direct_allocations):
        # cache off so the request really computes while we shut down
        registry = IndexRegistry(directory=index_dir, capacity=2,
                                 cache_size=0)
        server = AllocationServer(registry)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(make_request(SPEC_A, request_id=1))
                         .encode() + b"\n")
            await writer.drain()
            # give the server a tick to admit the request, then drain
            await asyncio.sleep(0.05)
            shutdown = asyncio.create_task(
                server.shutdown(drain=True, timeout=60))
            line = await asyncio.wait_for(reader.readline(), 120)
            await shutdown
            # the connection is closed afterwards
            rest = await asyncio.wait_for(reader.read(), 30)
            return line, rest

        line, rest = _run(scenario())
        assert line, "draining shutdown dropped an in-flight response"
        response = json.loads(line)
        assert response["ok"] is True
        assert response["allocation"] == \
            direct_allocations[SPEC_A.fingerprint()]
        assert rest == b""

    def test_new_connections_refused_after_shutdown(self, index_dir):
        registry = IndexRegistry(directory=index_dir, capacity=2)
        server = AllocationServer(registry)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            await server.shutdown(drain=True)
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), 5)
            except (ConnectionRefusedError, OSError, asyncio.TimeoutError):
                return True
            # some platforms accept then immediately close
            data = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return data == b""

        assert _run(scenario()) is True
