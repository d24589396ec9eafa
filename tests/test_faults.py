"""Overload hardening: fault injection, admission control, deadlines,
drain semantics, and the resilient client.

The chaos tests arm :mod:`repro.faults` against a real TCP server and pin
the resilience invariants from the serving contract:

* no crash and no hung connection under injected registry-load failures,
  slow selection, stalled writes, and mid-frame disconnects;
* every admitted request gets exactly one response (typed envelope or
  allocation), and allocations stay bit-identical with faults disabled;
* shed requests carry ``overloaded`` envelopes with ``queue_depth`` and
  ``retry_after_ms``; draining connections get ``shutting-down``;
* the queue bound counts queries of both dialects from admission to
  answer, and that count returns to zero on every exit path;
* SIGHUP-style hot reload racing in-flight requests is safe;
* an aborted (cancelled) ``serve_forever`` still unlinks its unix socket.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os

import pytest

from repro import faults
from repro.api import (
    EngineConfig,
    RunSpec,
    WorkloadSpec,
    make_request,
    run as run_spec,
)
from repro.api.protocol import RETRYABLE_ERROR_CODES
from repro.index import build_index
from repro.serve import AllocationServer, IndexRegistry
from repro.serve.client import (
    ResilientClient,
    RetriesExhausted,
    RetryPolicy,
    retryable_code,
)
from repro.serve.server import _TokenBucket
from repro.utility.configs import configuration_model

NETWORK, SCALE, CONFIGURATION = "nethept", 0.01, "C1"
SEED = 11

SPEC = RunSpec(
    algorithm="SeqGRD-NM",
    workload=WorkloadSpec(network=NETWORK, scale=SCALE,
                          configuration=CONFIGURATION,
                          budgets={"i": 2, "j": 2}),
    engine=EngineConfig(seed=SEED, samples=10, max_rr_sets=2000))


def _variants(budgets_list):
    return [dataclasses.replace(
        SPEC, workload=dataclasses.replace(SPEC.workload, budgets=b))
        for b in budgets_list]


@pytest.fixture(autouse=True)
def _always_disarm():
    """No fault spec may leak across tests (or into other modules)."""
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def instance():
    from repro.graphs.datasets import load_network

    return load_network(NETWORK, scale=SCALE, rng=SEED), \
        configuration_model(CONFIGURATION)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, instance):
    graph, model = instance
    tmp = tmp_path_factory.mktemp("fault-indexes")
    index = build_index(
        graph, model, sampler="marginal",
        budgets=dict(SPEC.workload.budgets),
        options=SPEC.engine.imm_options(), seed=SPEC.engine.seed,
        meta_extra={"network": NETWORK, "scale": SCALE,
                    "configuration": CONFIGURATION, "graph_seed": SEED,
                    "fixed_imm_item": None, "fixed_imm_budget": 50})
    index.save(tmp / "chaos-idx")
    return tmp


@pytest.fixture(scope="module")
def direct_allocation(instance):
    graph, model = instance
    record = run_spec(SPEC, graph=graph, model=model)
    return {item: list(nodes) for item, nodes
            in record.result.allocation.as_dict().items()}


def _run(coro, timeout=300):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def _server(index_dir, **kwargs):
    registry = IndexRegistry(directory=index_dir, capacity=2,
                             cache_size=0)
    return AllocationServer(registry, **kwargs)


# ----------------------------------------------------------------------
# the injector itself
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_rejects_unknown_site(self):
        with pytest.raises(faults.FaultSpecError, match="unknown fault"):
            faults.FaultInjector("warp-core-breach:0.5")

    def test_rejects_bad_rate(self):
        with pytest.raises(faults.FaultSpecError, match=r"\[0, 1\]"):
            faults.FaultInjector("disconnect:1.5")
        with pytest.raises(faults.FaultSpecError):
            faults.FaultInjector("disconnect:lots")

    def test_rejects_bad_shape(self):
        with pytest.raises(faults.FaultSpecError, match="expected site"):
            faults.FaultInjector("disconnect")
        with pytest.raises(faults.FaultSpecError, match="no sites"):
            faults.FaultInjector("")
        with pytest.raises(faults.FaultSpecError, match=">= 0"):
            faults.FaultInjector("stall-write:0.5:-10")

    def test_same_seed_same_fire_pattern(self):
        a = faults.FaultInjector("disconnect:0.5", seed=42)
        b = faults.FaultInjector("disconnect:0.5", seed=42)
        assert [a.fires("disconnect") for _ in range(64)] \
            == [b.fires("disconnect") for _ in range(64)]
        c = faults.FaultInjector("disconnect:0.5", seed=43)
        assert [a.fires("disconnect") for _ in range(64)] \
            != [c.fires("disconnect") for _ in range(64)]

    def test_sites_draw_independent_streams(self):
        injector = faults.FaultInjector(
            "disconnect:0.5,stall-write:0.5:10", seed=1)
        solo = faults.FaultInjector("disconnect:0.5", seed=1)
        interleaved = []
        for _ in range(32):
            interleaved.append(injector.fires("disconnect"))
            injector.fires("stall-write")  # must not perturb disconnect
        assert interleaved == [solo.fires("disconnect")
                               for _ in range(32)]

    def test_rate_extremes(self):
        never = faults.FaultInjector("slow-selection:0.0:50", seed=0)
        always = faults.FaultInjector("slow-selection:1.0:50", seed=0)
        assert not any(never.fires("slow-selection") for _ in range(50))
        assert all(always.fires("slow-selection") for _ in range(50))
        assert always.delay("slow-selection") == pytest.approx(0.05)
        assert never.delay("slow-selection") == 0.0

    def test_stats_counters(self):
        injector = faults.FaultInjector("registry-load:1.0", seed=0)
        for _ in range(3):
            injector.fires("registry-load")
        stats = injector.stats()
        assert stats == {"registry-load": {
            "rate": 1.0, "delay_ms": 0.0, "checked": 3, "fired": 3}}

    def test_disarmed_hooks_are_noops(self):
        assert faults.active() is None
        assert faults.fires("disconnect") is False
        assert faults.delay("stall-write") == 0.0
        assert faults.stats() is None
        # unknown sites never fire even when armed
        faults.configure("disconnect:1.0")
        assert faults.fires("not-a-site") is False
        assert faults.fires("disconnect") is True

    def test_configure_from_env(self):
        env = {faults.ENV_SPEC: "stall-write:1.0:25",
               faults.ENV_SEED: "9"}
        injector = faults.configure_from_env(env)
        assert injector is faults.active()
        assert injector.seed == 9
        assert faults.delay("stall-write") == pytest.approx(0.025)
        assert faults.configure_from_env({}) is None

    def test_mapping_spec(self):
        injector = faults.FaultInjector(
            {"disconnect": 1.0, "stall-write": (0.5, 40)}, seed=0)
        assert injector.fires("disconnect")
        stats = injector.stats()
        assert stats["stall-write"]["delay_ms"] == pytest.approx(40.0)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_admits_then_throttles(self):
        bucket = _TokenBucket(rate=1000.0, burst=2.0)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        wait = bucket.try_acquire()
        assert 0.0 < wait <= 1.0 / 1000.0 + 1e-6

    def test_refills_over_time(self):
        bucket = _TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        bucket.last -= 0.2  # simulate 200ms of elapsed refill
        assert bucket.try_acquire() == 0.0


@pytest.mark.slow
class TestAdmissionControl:
    def test_queue_full_sheds_with_typed_envelope(self, index_dir):
        server = _server(index_dir, max_queue_depth=1)
        variants = _variants([{"i": 1, "j": 1}, {"i": 2, "j": 1},
                              {"i": 1, "j": 2}, {"i": 2, "j": 2}])
        # warm the index synchronously so the stalled request below
        # reaches the worker quickly (load time is not part of the
        # scenario)
        warm = server.dispatch_line(json.dumps(make_request(variants[0])))
        assert warm["ok"] is True
        # now every selection stalls ~500ms on the worker thread: once
        # one spec is in flight, the queue bound of 1 sheds the rest
        faults.configure("slow-selection:1.0:500", seed=0)

        async def one(host, port, spec):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(make_request(spec)).encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            writer.close()
            return response

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            first = asyncio.create_task(one(host, port, variants[1]))
            deadline = asyncio.get_running_loop().time() + 30
            while server.queue_depth < 1:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            rest = await asyncio.gather(
                *[one(host, port, spec) for spec in variants[2:]])
            responses = [await first] + list(rest)
            stats = server.stats_payload()
            await server.shutdown(drain=True)
            return responses, stats

        responses, stats = _run(scenario())
        shed = [r for r in responses if not r.get("ok", True)]
        served = [r for r in responses if r.get("ok")]
        assert served, "at least one request must be admitted"
        assert shed, "a queue bound of 1 must shed concurrent specs"
        for response in shed:
            error = response["error"]
            assert error["code"] == "overloaded"
            assert error["queue_depth"] >= 1
            assert error["retry_after_ms"] >= 50
        assert stats["server"]["shed"]["by_reason"]["queue-full"] \
            == len(shed)
        assert stats["server"]["shed"]["total"] == len(shed)
        assert stats["faults"]["slow-selection"]["fired"] >= 1

    @pytest.mark.parametrize("dialect", ["v1", "legacy"])
    def test_burst_beyond_queue_bound_is_shed(self, index_dir, dialect):
        # four connections send four distinct queries in one burst while
        # the first one admitted stalls on the worker: the bound of 1
        # admits exactly one, whichever dialect the queries speak
        server = _server(index_dir, max_queue_depth=1)
        budgets = [{"i": 1, "j": 1}, {"i": 2, "j": 1},
                   {"i": 1, "j": 2}, {"i": 2, "j": 2}]
        if dialect == "v1":
            frames = [make_request(spec) for spec in _variants(budgets)]
        else:
            frames = [{"op": "query", "budgets": b} for b in budgets]
        assert server.dispatch_line(json.dumps(frames[0]))["ok"] is True
        faults.configure("slow-selection:1.0:300", seed=0)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            connections = [await asyncio.open_connection(host, port)
                           for _ in frames]
            for (_, writer), frame in zip(connections, frames):
                writer.write(json.dumps(frame).encode() + b"\n")
            await asyncio.gather(*[writer.drain()
                                   for _, writer in connections])
            responses = [json.loads(await asyncio.wait_for(
                reader.readline(), 120)) for reader, _ in connections]
            for _, writer in connections:
                writer.close()
            stats = server.stats_payload()
            await server.shutdown(drain=True)
            return responses, stats

        responses, stats = _run(scenario())
        served = [r for r in responses if r.get("ok")]
        shed = [r for r in responses if not r.get("ok", True)]
        assert len(served) == 1, responses
        assert len(shed) == 3, responses
        for response in shed:
            assert response["error"]["code"] == "overloaded"
            assert response["error"]["queue_depth"] == 1
        assert served[0]["server"]["queue_depth"] == 0
        assert stats["server"]["shed"]["by_reason"]["queue-full"] == 3
        assert stats["server"]["queue_depth"] == 0

    def test_queue_depth_returns_to_zero_on_every_exit(self, index_dir):
        import dataclasses

        server = _server(index_dir, max_queue_depth=1)
        assert server.dispatch_line(
            json.dumps(make_request(SPEC)))["ok"] is True
        wrong_seed = dataclasses.replace(
            SPEC, engine=dataclasses.replace(SPEC.engine, seed=99))
        max_grd = make_request(RunSpec("MaxGRD", SPEC.workload,
                                       SPEC.engine))

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            loop = asyncio.get_running_loop()

            async def ask(frame):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps(frame).encode() + b"\n")
                await writer.drain()
                response = json.loads(await asyncio.wait_for(
                    reader.readline(), 120))
                writer.close()
                return response

            async def settle(requests):
                deadline = loop.time() + 30
                while server.stats_payload()["server"]["requests"] \
                        < requests or server.stats_payload()[
                            "server"]["in_flight"]:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.01)

            codes = []
            # a shed request: one query stalls in flight, the next is shed
            faults.configure("slow-selection:1.0:300", seed=0)
            stalled = asyncio.create_task(ask(make_request(SPEC)))
            while server.queue_depth < 1:
                await asyncio.sleep(0.01)
            codes.append((await ask({"op": "query",
                                     "budgets": {"i": 1, "j": 1}})
                          )["error"]["code"])
            assert (await stalled)["ok"] is True
            faults.disarm()
            codes.append((await ask(max_grd))["error"]["code"])
            codes.append((await ask(make_request(wrong_seed)))
                         ["error"]["code"])
            codes.append((await ask(dict(make_request(SPEC),
                                         deadline_ms=1e-6)))
                         ["error"]["code"])
            codes.append((await ask({"op": "query", "deadline_ms": 1e-6,
                                     "budgets": {"i": 2, "j": 2}}))
                         ["error"]["code"])
            negative = await ask({"op": "query", "budgets": {"i": -1}})
            assert negative["ok"] is False and "budget" in negative["error"]
            # a client that disconnects while its query is on the worker
            faults.configure("slow-selection:1.0:200", seed=0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(make_request(SPEC)).encode() + b"\n")
            await writer.drain()
            while server.queue_depth < 1:
                await asyncio.sleep(0.01)
            writer.close()
            await settle(requests=9)
            depth = server.queue_depth
            stats = server.stats_payload()
            await server.shutdown(drain=True)
            return codes, depth, stats

        codes, depth, stats = _run(scenario())
        assert codes == ["overloaded", "unsupported-algorithm",
                         "incompatible-spec", "deadline-exceeded",
                         "deadline-exceeded"]
        assert depth == 0
        assert stats["server"]["queue_depth"] == 0
        assert stats["metrics"]["gauges"]["repro_queue_depth"][""] == 0.0

    def test_slow_selection_stalls_legacy_queries(self, index_dir):
        server = _server(index_dir)
        faults.configure("slow-selection:1.0:20", seed=0)
        response = server.dispatch_line(
            '{"op": "query", "budgets": {"i": 2, "j": 2}}')
        assert response["ok"] is True
        assert server.stats_payload()["faults"]["slow-selection"] == {
            "rate": 1.0, "delay_ms": 20.0, "checked": 1, "fired": 1}
        _run(server.shutdown())

    def test_rate_limit_sheds_per_connection(self, index_dir):
        server = _server(index_dir, rate_limit=0.5, rate_burst=2)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            responses = []
            for i in range(5):
                writer.write(json.dumps(
                    make_request(SPEC, request_id=f"r{i}")
                ).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await asyncio.wait_for(
                    reader.readline(), 120)))
            # the exempt ops surface keeps answering while throttled
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            stats_response = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            writer.close()
            await server.shutdown(drain=True)
            return responses, stats_response

        responses, stats_response = _run(scenario())
        served = [r for r in responses if r.get("ok")]
        shed = [r for r in responses if not r.get("ok", True)]
        assert len(served) == 2, "burst of 2 admits exactly 2"
        assert len(shed) == 3
        for response in shed:
            assert response["error"]["code"] == "overloaded"
            assert response["error"]["retry_after_ms"] > 0
        assert stats_response["ok"] is True
        assert stats_response["server"]["shed"]["by_reason"][
            "rate-limit"] == 3

    def test_stdio_frames_get_admission_control(self, index_dir, capsys,
                                                monkeypatch):
        import io

        from repro.cli import main

        query = '{"op": "query", "budgets": {"i": 2, "j": 2}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "\n".join([query, query, '{"op": "ping"}']) + "\n"))
        assert main(["serve", "--index", str(index_dir / "chaos-idx"),
                     "--rate-limit", "0.5", "--rate-burst", "1"]) == 0
        served, shed, ping = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line]
        assert served["ok"] is True
        assert shed["error"]["code"] == "overloaded"
        assert shed["error"]["retry_after_ms"] > 0
        assert ping["pong"] is True

    def test_health_degrades_on_sheds(self, index_dir):
        server = _server(index_dir, rate_limit=0.5, rate_burst=1)
        assert server.health_state() == "ok"
        assert server.health()["ok"] is True
        server._note_shed("rate-limit")
        assert server.health_state() == "degraded"
        health = server.health()
        assert health["ok"] is False
        assert health["recent_sheds"] == 1
        server._draining = True
        assert server.health_state() == "draining"


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDeadlines:
    def test_generous_deadline_still_bit_identical(self, index_dir,
                                                   direct_allocation):
        server = _server(index_dir)
        request = dict(make_request(SPEC), deadline_ms=60_000)
        response = server.dispatch_line(json.dumps(request))
        assert response["ok"] is True
        assert response["allocation"] == direct_allocation

    def test_expired_deadline_answers_typed_envelope(self, index_dir):
        server = _server(index_dir)
        request = dict(make_request(SPEC, request_id="late"),
                       deadline_ms=1e-6)
        response = server.dispatch_line(json.dumps(request))
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline-exceeded"
        assert response["id"] == "late"
        stats = server.stats_payload()
        assert stats["server"]["deadline_expired"] == 1

    def test_malformed_deadline_rejected(self, index_dir):
        server = _server(index_dir)
        for bad in ("soon", True, -5, 0, float("nan"), float("inf")):
            request = dict(make_request(SPEC))
            request["deadline_ms"] = bad
            response = server.dispatch_line(json.dumps(request))
            assert response["ok"] is False, bad
            assert response["error"]["code"] == "malformed-request", bad

    def test_server_default_deadline_applies(self, index_dir):
        server = _server(index_dir, default_deadline_ms=1e-6)
        response = server.dispatch_line(json.dumps(make_request(SPEC)))
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline-exceeded"

    def test_max_deadline_clamps_client_value(self, index_dir):
        server = _server(index_dir, max_deadline_ms=1e-6)
        request = dict(make_request(SPEC), deadline_ms=60_000)
        response = server.dispatch_line(json.dumps(request))
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline-exceeded"

    def test_legacy_query_deadline_answers_typed_envelope(self, index_dir):
        server = _server(index_dir)
        response = server.dispatch_line(json.dumps(
            {"op": "query", "id": "late", "budgets": {"i": 2, "j": 2},
             "deadline_ms": 1e-6}))
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline-exceeded"
        assert response["id"] == "late"
        assert server.stats_payload()["server"]["deadline_expired"] == 1

    def test_ops_are_exempt_from_deadlines(self, index_dir):
        server = _server(index_dir, default_deadline_ms=1e-6)
        legacy = server.dispatch_line(
            '{"op": "query", "budgets": {"i": 2, "j": 2}}')
        assert legacy["error"]["code"] == "deadline-exceeded"
        assert server.dispatch_line(
            '{"op": "ping", "deadline_ms": 1e-6}')["pong"] is True
        assert server.dispatch_line('{"op": "stats"}')["ok"] is True

    def test_expired_deadline_behind_a_slow_selection(self, index_dir):
        # the slow-selection stall burns the whole deadline on the worker
        # thread, so expiry is detected when execution starts
        faults.configure("slow-selection:1.0:150", seed=0)
        server = _server(index_dir)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            request = dict(make_request(SPEC, request_id="queued"),
                           deadline_ms=50)
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            writer.close()
            await server.shutdown(drain=True)
            return response

        response = _run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline-exceeded"
        assert response["id"] == "queued"


# ----------------------------------------------------------------------
# drain semantics
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDrain:
    def test_frames_during_drain_get_shutting_down(self, index_dir):
        server = _server(index_dir)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            server._draining = True  # as if shutdown had just begun
            writer.write(json.dumps(
                make_request(SPEC, request_id="too-late")
            ).encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            eof = await asyncio.wait_for(reader.readline(), 120)
            writer.close()
            server._draining = False
            await server.shutdown(drain=True)
            return response, eof

        response, eof = _run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting-down"
        assert response["id"] == "too-late"
        assert eof == b"", "the draining connection must be closed"

    def test_drain_timeout_answers_stragglers(self, index_dir):
        # the in-flight request stalls for ~2s but the drain budget is
        # 100ms: the connection must get a shutting-down envelope, not
        # silence
        faults.configure("slow-selection:1.0:2000", seed=0)
        server = _server(index_dir, drain_timeout=0.1)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(
                make_request(SPEC, request_id="straggler")
            ).encode() + b"\n")
            await writer.drain()
            await asyncio.sleep(0.2)  # let it reach the worker thread
            shutdown = asyncio.create_task(server.shutdown(drain=True))
            line = await asyncio.wait_for(reader.readline(), 120)
            await shutdown
            writer.close()
            return json.loads(line)

        response = _run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting-down"
        stats = server.stats_payload()
        assert stats["server"]["shed"]["by_reason"]["shutting-down"] >= 1


# ----------------------------------------------------------------------
# satellite regressions: reload race + unix-socket cleanup
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestLifecycleRegressions:
    def test_hot_reload_races_inflight_requests(
            self, index_dir, direct_allocation):
        # a SIGHUP handler calls registry.reload() on the event-loop
        # thread while requests execute on the worker thread; every
        # in-flight request must still answer correctly
        faults.configure("slow-selection:1.0:200", seed=0)
        server = _server(index_dir)

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)

            async def one(i):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(json.dumps(
                    make_request(SPEC, request_id=f"c{i}")
                ).encode() + b"\n")
                await writer.drain()
                response = json.loads(await asyncio.wait_for(
                    reader.readline(), 120))
                writer.close()
                return response

            clients = [asyncio.create_task(one(i)) for i in range(4)]
            await asyncio.sleep(0.05)  # the first is now on the worker
            reload_stats = server.registry.reload()  # the SIGHUP body
            responses = await asyncio.gather(*clients)
            await server.shutdown(drain=True)
            return responses, reload_stats

        responses, reload_stats = _run(scenario())
        for response in responses:
            assert response["ok"] is True, response
            assert response["allocation"] == direct_allocation
        assert reload_stats["indexes"] == ["chaos-idx"]
        assert reload_stats["reloads"] == 1

    def test_aborted_serve_unlinks_unix_socket(self, index_dir, tmp_path):
        # the serve loop dying mid-flight (here: cancellation while a
        # faulted request is being answered) must still clean up the
        # socket file, or the next start fails with EADDRINUSE
        faults.configure("registry-load:1.0", seed=0)
        socket_path = tmp_path / "chaos.sock"

        async def scenario():
            server = _server(index_dir)
            ready = asyncio.Event()
            task = asyncio.create_task(server.serve_forever(
                unix=socket_path, ready=lambda endpoints: ready.set()))
            await asyncio.wait_for(ready.wait(), 60)
            assert socket_path.exists()
            reader, writer = await asyncio.open_unix_connection(
                str(socket_path))
            writer.write(json.dumps(make_request(SPEC)).encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 120))
            writer.close()
            task.cancel()  # abort the serve loop outright
            with pytest.raises(asyncio.CancelledError):
                await task
            return response

        response = _run(scenario())
        # the injected load failure was answered, not crashed on
        assert response["ok"] is False
        assert not socket_path.exists(), \
            "aborted serve must unlink its unix socket"


# ----------------------------------------------------------------------
# the resilient client
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_and_capped(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        assert [a.delay(i) for i in range(8)] \
            == [b.delay(i) for i in range(8)]
        policy = RetryPolicy(seed=1, base_delay_s=0.05, max_delay_s=0.4)
        for attempt in range(20):
            assert 0.0 <= policy.delay(attempt) <= 0.4

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(seed=3, base_delay_s=0.001,
                             max_delay_s=10.0)
        assert policy.delay(0, retry_after_ms=500) >= 0.5

    def test_retryable_code_extraction(self):
        assert retryable_code({"ok": True}) is None
        assert retryable_code({"ok": False, "error": "legacy"}) is None
        assert retryable_code(
            {"ok": False, "error": {"code": "invalid-spec"}}) is None
        for code in RETRYABLE_ERROR_CODES:
            assert retryable_code(
                {"ok": False, "error": {"code": code}}) == code


class TestResilientClient:
    """Against a scripted fake server — behavior is fully deterministic."""

    @staticmethod
    async def _fake_server(script):
        """Serve canned responses; ``script`` is a list of per-request
        actions: a dict (respond), "close" (drop before answering), or
        "truncate" (half a frame then close)."""
        state = {"i": 0, "requests": []}

        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                state["requests"].append(json.loads(line))
                action = script[min(state["i"], len(script) - 1)]
                state["i"] += 1
                if action == "close":
                    break
                if action == "truncate":
                    data = (json.dumps({"ok": True}) + "\n").encode()
                    writer.write(data[:4])
                    break
                writer.write((json.dumps(action) + "\n").encode())
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        return server, (host, port), state

    def test_honors_retry_after_then_succeeds(self):
        async def scenario():
            overloaded = {"ok": False, "error": {
                "code": "overloaded", "retry_after_ms": 10,
                "queue_depth": 3}}
            server, addr, state = await self._fake_server(
                [overloaded, overloaded, {"ok": True, "answer": 42}])
            async with ResilientClient(tcp=addr, seed=5) as client:
                response = await client.request({"v": 1, "id": "x"})
            server.close()
            await server.wait_closed()
            return response, client.stats, state

        response, stats, state = _run(scenario(), timeout=60)
        assert response == {"ok": True, "answer": 42}
        assert stats["retries"] == 2
        assert stats["overloaded"] == 2
        assert len(state["requests"]) == 3

    def test_reconnects_after_truncated_frame(self):
        async def scenario():
            server, addr, state = await self._fake_server(
                ["truncate", "close", {"ok": True}])
            async with ResilientClient(tcp=addr, seed=5) as client:
                response = await client.request({"v": 1})
            server.close()
            await server.wait_closed()
            return response, client.stats

        response, stats = _run(scenario(), timeout=60)
        assert response == {"ok": True}
        assert stats["conn_failures"] == 2
        assert stats["reconnects"] == 2

    def test_shutting_down_triggers_reconnect(self):
        async def scenario():
            server, addr, state = await self._fake_server(
                [{"ok": False, "error": {"code": "shutting-down"}},
                 {"ok": True, "survivor": True}])
            async with ResilientClient(tcp=addr, seed=5) as client:
                response = await client.request({"v": 1})
            server.close()
            await server.wait_closed()
            return response, client.stats

        response, stats = _run(scenario(), timeout=60)
        assert response == {"ok": True, "survivor": True}
        assert stats["shutting_down"] == 1
        assert stats["reconnects"] == 1

    def test_non_retryable_errors_return_immediately(self):
        async def scenario():
            envelope = {"ok": False, "error": {"code": "invalid-spec",
                                               "message": "no"}}
            server, addr, state = await self._fake_server([envelope])
            async with ResilientClient(tcp=addr, seed=5) as client:
                response = await client.request({"v": 1})
            server.close()
            await server.wait_closed()
            return response, client.stats, state

        response, stats, state = _run(scenario(), timeout=60)
        assert response["error"]["code"] == "invalid-spec"
        assert stats["retries"] == 0
        assert len(state["requests"]) == 1

    def test_retries_exhausted_raises_with_last_envelope(self):
        async def scenario():
            overloaded = {"ok": False, "error": {"code": "overloaded",
                                                 "retry_after_ms": 1}}
            server, addr, state = await self._fake_server([overloaded])
            policy = RetryPolicy(max_attempts=3, seed=5,
                                 base_delay_s=0.001, max_delay_s=0.01)
            client = ResilientClient(tcp=addr, policy=policy)
            try:
                with pytest.raises(RetriesExhausted) as excinfo:
                    await client.request({"v": 1})
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return excinfo.value, client.stats

        error, stats = _run(scenario(), timeout=60)
        assert error.last_response["error"]["code"] == "overloaded"
        assert stats["attempts"] == 3


# ----------------------------------------------------------------------
# chaos: everything armed at once against a real server
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestChaos:
    def test_server_survives_all_fault_sites(self, index_dir,
                                             direct_allocation):
        faults.configure(
            "registry-load:0.08,slow-selection:0.25:40,"
            "stall-write:0.2:20,disconnect:0.15", seed=1234)
        server = _server(index_dir, max_queue_depth=64)

        async def client(host, port, client_id):
            results = []
            async with ResilientClient(
                    tcp=(host, port), seed=client_id,
                    request_timeout_s=60) as rc:
                for round_no in range(4):
                    request = make_request(
                        SPEC, request_id=f"{client_id}-{round_no}")
                    try:
                        results.append(await rc.request(request))
                    except RetriesExhausted as error:
                        results.append(
                            {"exhausted": True,
                             "last": error.last_response})
            return results, rc.stats

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            outcomes = await asyncio.gather(
                *[client(host, port, i) for i in range(10)])
            stats = server.stats_payload()
            await server.shutdown(drain=True)
            return outcomes, stats

        outcomes, stats = _run(scenario())
        answered = 0
        ok_count = 0
        for results, client_stats in outcomes:
            assert len(results) == 4, "every request resolves (no hangs)"
            for result in results:
                answered += 1
                if result.get("ok"):
                    ok_count += 1
                    # correctness survives the chaos: a served
                    # allocation is the direct-run allocation
                    assert result["allocation"] == direct_allocation
                elif result.get("exhausted"):
                    continue
                else:
                    error = result["error"]
                    assert isinstance(error, dict) and "code" in error
        assert answered == 40
        assert ok_count >= 20, "most requests should eventually succeed"
        fault_stats = stats["faults"]
        assert sum(site["fired"] for site in fault_stats.values()) > 0

    def test_disarmed_allocations_bit_identical(self, index_dir,
                                                direct_allocation):
        # same server path with the injector disarmed: exact equality
        # with the direct `repro run` result (the serving invariant)
        assert faults.active() is None
        server = _server(index_dir)
        response = server.dispatch_line(json.dumps(make_request(SPEC)))
        assert response["ok"] is True
        assert response["allocation"] == direct_allocation

    def test_stats_report_armed_faults(self, index_dir):
        server = _server(index_dir)
        assert "faults" not in server.stats_payload()
        faults.configure("disconnect:0.5", seed=2)
        payload = server.stats_payload()
        assert payload["faults"]["disconnect"]["rate"] == 0.5
