"""Observability subsystem tests.

Covers the metrics primitives (counters, gauges, fixed-bucket log-scale
histograms and their quantiles), per-request tracing, structured JSON
logging, both exposition formats (JSON summary and Prometheus text
0.0.4), the asyncio HTTP exporter, and the serve-layer integration:

* a **golden schema test** pins the key paths of the ``stats`` op
  payload to ``tests/data/golden_stats_schema.json`` — regenerate with
  ``REPRO_REGEN_GOLDEN=1`` after intentional schema changes;
* a **bit-identity test** pins the hard invariant that instrumentation
  observes but never participates: allocations are identical with
  metrics enabled and disabled;
* a regression test for the ``default=str`` serialization fallback
  (counter + structured warning + the client still gets a frame).
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import os
import re
from pathlib import Path

import pytest

from repro.api import EngineConfig, RunSpec, WorkloadSpec, make_request
from repro.graphs.datasets import load_network
from repro.index import build_index
from repro.obs import (
    MetricsRegistry,
    Trace,
    get_logger,
    log_event,
    new_trace_id,
    set_global_metrics_enabled,
)
from repro.obs.httpexp import MetricsExporter
from repro.obs.logging import JsonFormatter, KeyValueFormatter, configure_logging
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.serve import AllocationServer, IndexRegistry
from repro.utility.configs import configuration_model

GOLDEN_SCHEMA = Path(__file__).parent / "data" / "golden_stats_schema.json"

SPEC = RunSpec(
    algorithm="SeqGRD-NM",
    workload=WorkloadSpec(network="nethept", scale=0.01,
                          configuration="C1", budgets={"i": 2, "j": 2}),
    engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("obs-indexes")
    graph = load_network("nethept", scale=0.01, rng=4)
    model = configuration_model("C1")
    index = build_index(
        graph, model, sampler="marginal",
        budgets=dict(SPEC.workload.budgets),
        options=SPEC.engine.imm_options(), seed=SPEC.engine.seed,
        meta_extra={"network": "nethept", "scale": 0.01,
                    "configuration": "C1", "graph_seed": 4,
                    "fixed_imm_item": None, "fixed_imm_budget": 50})
    index.save(tmp / "obs-idx")
    return tmp


def make_server(index_dir, enabled: bool = True) -> AllocationServer:
    registry = IndexRegistry(directory=index_dir, capacity=2)
    return AllocationServer(registry,
                            metrics=MetricsRegistry(enabled=enabled))


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("x_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_labeled_instruments_are_distinct_and_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", kind="a")
        b = reg.counter("x_total", kind="b")
        assert a is not b
        a.inc()
        assert reg.counter("x_total", kind="a") is a
        assert reg.counter("x_total", kind="a").value == 1.0
        assert b.value == 0.0

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5.0

    def test_gauge_fn_reads_callback(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        gauge = reg.gauge_fn("dyn", lambda: state["v"])
        assert gauge.value == 1.0
        state["v"] = 9.0
        assert gauge.value == 9.0

    def test_broken_gauge_callback_reports_nan(self):
        reg = MetricsRegistry()
        gauge = reg.gauge_fn("boom", lambda: 1 / 0)
        assert math.isnan(gauge.value)
        # the scrape survives too
        assert "boom" in reg.render_prometheus()


class TestHistogram:
    def test_percentiles_from_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in [0.5] * 50 + [3.0] * 45 + [7.0] * 5:
            hist.observe(value)
        # nearest-rank over bucket upper bounds
        assert hist.percentile(50) == 1.0
        assert hist.percentile(95) == 4.0
        assert hist.percentile(99) == 8.0
        assert hist.count == 100
        assert hist.sum == pytest.approx(0.5 * 50 + 3.0 * 45 + 7.0 * 5)

    def test_overflow_bucket_reports_observed_max(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0,))
        hist.observe(40.0)
        assert hist.percentile(99) == 40.0

    def test_empty_percentile_is_nan(self):
        reg = MetricsRegistry()
        assert math.isnan(reg.histogram("lat").percentile(50))
        assert reg.histogram("lat").summary() == {"count": 0, "sum": 0.0}

    def test_summary_fields(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0))
        hist.observe(0.25)
        hist.observe(1.75)
        summary = hist.summary()
        assert summary["count"] == 2
        assert summary["min"] == 0.25
        assert summary["max"] == 1.75
        assert summary["mean"] == pytest.approx(1.0)
        assert set(summary) == {"count", "sum", "min", "max", "mean",
                                "p50", "p95", "p99"}

    def test_default_buckets_are_ascending_log_scale(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        ratios = [b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="ascending"):
            reg.histogram("bad", buckets=(2.0, 1.0))


class TestDisabledRegistry:
    def test_disabled_instruments_do_not_record(self):
        reg = MetricsRegistry(enabled=False)
        counter, gauge = reg.counter("c_total"), reg.gauge("g")
        hist = reg.histogram("h")
        counter.inc()
        gauge.set(5)
        hist.observe(1.0)
        assert counter.value == 0.0
        assert gauge.value == 0.0
        assert hist.count == 0

    def test_enable_toggles_existing_handles(self):
        reg = MetricsRegistry(enabled=False)
        counter = reg.counter("c_total")
        counter.inc()
        reg.enable(True)
        counter.inc()
        reg.enable(False)
        counter.inc()
        assert counter.value == 1.0

    def test_disabled_registry_still_renders(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c_total", "help text")
        text = reg.render_prometheus()
        assert "c_total 0" in text


# ----------------------------------------------------------------------
# exposition formats
# ----------------------------------------------------------------------
#: a Prometheus sample line: name{labels} value
_SAMPLE_RE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$')


class TestExposition:
    def build_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", "Requests", dialect="v1").inc(3)
        reg.counter("repro_requests_total", dialect="legacy").inc()
        reg.gauge("repro_queue_depth", "Depth").set(2)
        hist = reg.histogram("repro_latency_seconds", "Latency",
                             buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.5):
            hist.observe(value)
        return reg

    def test_summary_shape(self):
        summary = self.build_registry().summary()
        assert summary["counters"]["repro_requests_total"][
            '{dialect="v1"}'] == 3.0
        assert summary["gauges"]["repro_queue_depth"][""] == 2.0
        latency = summary["histograms"]["repro_latency_seconds"][""]
        assert latency["count"] == 4
        assert latency["p50"] == 0.01
        assert json.loads(json.dumps(summary))  # JSON-able end to end

    def test_prometheus_render_is_valid(self):
        text = self.build_registry().render_prometheus()
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            match = _SAMPLE_RE.match(line)
            assert match, line
            float(match.group(3))  # every sample value parses as a float
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{dialect="v1"} 3' in text

    def test_prometheus_buckets_are_cumulative(self):
        text = self.build_registry().render_prometheus()
        buckets = {}
        for line in text.splitlines():
            match = re.match(
                r'repro_latency_seconds_bucket\{le="([^"]+)"\} (\d+)', line)
            if match:
                buckets[match.group(1)] = int(match.group(2))
        assert buckets == {"0.001": 1, "0.01": 3, "0.1": 3, "+Inf": 4}
        assert "repro_latency_seconds_count 4" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", path='a"b\\c\nd').inc()
        line = [l for l in reg.render_prometheus().splitlines()
                if l.startswith("c_total{")][0]
        assert line == 'c_total{path="a\\"b\\\\c\\nd"} 1'

    def test_collector_families_merge_into_both_formats(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda: [
            ("repro_index_loaded", "gauge", "Residency",
             [({"index": "idx"}, 1.0)])])
        reg.register_collector(lambda: 1 / 0)  # broken: must be skipped
        assert reg.summary()["gauges"]["repro_index_loaded"][
            '{index="idx"}'] == 1.0
        assert 'repro_index_loaded{index="idx"} 1' in reg.render_prometheus()


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_trace_ids_are_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", t) for t in ids)

    def test_spans_accumulate_in_first_seen_order(self):
        trace = Trace()
        trace.add("parse", 0.001)
        trace.add("queue", 0.002)
        trace.add("queue", 0.003)
        assert trace.spans() == [("parse", 0.001), ("queue", 0.005)]
        assert trace.timings_ms() == {"parse": 1.0, "queue": 5.0}

    def test_span_context_manager_times_block(self):
        trace = Trace()
        with trace.span("work"):
            pass
        [(name, seconds)] = trace.spans()
        assert name == "work" and 0.0 <= seconds < 1.0
        assert trace.elapsed() >= seconds


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestStructuredLogging:
    def record_for(self, formatter, **fields):
        logger = logging.getLogger("repro.test-obs")
        logger.setLevel(logging.DEBUG)
        captured = []
        handler = logging.Handler()
        handler.emit = captured.append
        logger.addHandler(handler)
        try:
            log_event(logger, logging.INFO, "unit-test-event",
                      "hello", **fields)
        finally:
            logger.removeHandler(handler)
        [record] = captured
        return formatter.format(record)

    def test_json_formatter_round_trips(self):
        payload = json.loads(self.record_for(JsonFormatter(), index="idx",
                                             count=3))
        assert payload["event"] == "unit-test-event"
        assert payload["message"] == "hello"
        assert payload["index"] == "idx" and payload["count"] == 3
        assert payload["level"] == "info"

    def test_json_formatter_coerces_unserializable_fields(self):
        payload = json.loads(self.record_for(JsonFormatter(),
                                             bad={1, 2, 3}))
        assert "bad" in str(payload)  # stringified, not dropped

    def test_key_value_formatter(self):
        text = self.record_for(KeyValueFormatter(), index="idx")
        assert "unit-test-event" in text and "index=idx" in text

    def test_get_logger_prefixes_namespace(self):
        assert get_logger("serve").name == "repro.serve"
        assert get_logger("repro.serve").name == "repro.serve"

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(level="chatty")


# ----------------------------------------------------------------------
# serve-layer integration
# ----------------------------------------------------------------------
def _key_paths(obj, prefix=""):
    """Sorted dotted key paths of a nested dict (leaves included)."""
    if not isinstance(obj, dict) or not obj:
        return [prefix] if prefix else []
    paths = []
    for key, value in obj.items():
        paths.extend(_key_paths(value, f"{prefix}.{key}" if prefix else key))
    return sorted(paths)


class TestServerObservability:
    def exercise(self, server):
        assert server.dispatch_line('{"op": "ping"}')["pong"] is True
        response = server.dispatch_line(
            json.dumps(make_request(SPEC, request_id=1)))
        assert response["ok"] is True
        bad = server.dispatch_line("garbage")
        assert bad["ok"] is False
        return response

    def test_stats_schema_matches_golden(self, index_dir):
        server = make_server(index_dir)
        self.exercise(server)
        paths = _key_paths(server.stats_payload())
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_SCHEMA.write_text(json.dumps(paths, indent=2) + "\n")
        golden = json.loads(GOLDEN_SCHEMA.read_text())
        assert paths == golden, (
            "stats payload schema drifted; if intentional, regenerate "
            "with REPRO_REGEN_GOLDEN=1 pytest tests/test_obs.py")

    def test_stats_exposes_serving_signals(self, index_dir):
        server = make_server(index_dir)
        self.exercise(server)
        stats = server.stats_payload()
        assert stats["server"]["metrics_enabled"] is True
        metrics = stats["metrics"]
        requests = metrics["counters"]["repro_requests_total"]
        assert requests['{dialect="v1",outcome="ok"}'] == 1.0
        assert requests['{dialect="legacy",outcome="ok"}'] == 1.0
        assert requests['{dialect="invalid",outcome="error"}'] == 1.0
        latency = metrics["histograms"]["repro_request_latency_seconds"][""]
        assert latency["count"] == 3
        assert {"p50", "p95", "p99"} <= set(latency)
        hit_rate = metrics["gauges"]["repro_index_cache_hit_rate"]
        assert '{index="obs-idx"}' in hit_rate
        # spans recorded on the sync path
        spans = metrics["histograms"]["repro_span_seconds"]
        assert {'{stage="parse"}', '{stage="validate"}',
                '{stage="execute"}'} <= set(spans)

    def test_legacy_query_records_validate_and_execute_spans(self,
                                                             index_dir):
        server = make_server(index_dir)
        response = server.dispatch_line(
            '{"op": "query", "budgets": {"i": 2, "j": 2}}')
        assert response["ok"] is True
        spans = server.metrics.summary()["histograms"]["repro_span_seconds"]
        for stage in ("parse", "queue", "validate", "execute", "respond"):
            assert spans[f'{{stage="{stage}"}}']["count"] == 1, stage

    def test_metrics_op(self, index_dir):
        server = make_server(index_dir)
        self.exercise(server)
        response = server.dispatch_line('{"op": "metrics", "id": 7}')
        assert response["ok"] is True and response["id"] == 7
        assert set(response["metrics"]) == {"server", "process"}
        assert "repro_requests_total" in response["metrics"]["server"][
            "counters"]

    def test_trace_in_response_timings(self, index_dir):
        server = make_server(index_dir)
        response = server.dispatch_line(
            json.dumps(make_request(SPEC, request_id=2)))
        timings = response["timings"]
        assert re.fullmatch(r"[0-9a-f]{16}", timings["trace_id"])
        assert {"parse", "validate", "execute"} <= set(timings["spans"])
        assert all(isinstance(v, float) and v >= 0
                   for v in timings["spans"].values())

    def test_resync_counter_labels_oversized_and_malformed(self, index_dir):
        server = make_server(index_dir)
        server.dispatch_line("not json")
        server.dispatch_line("z" * (server.max_line_bytes + 1))
        resync = server.metrics.summary()["counters"]["repro_resync_total"]
        assert resync['{reason="malformed"}'] == 1.0
        assert resync['{reason="oversized"}'] == 1.0

    def test_unserializable_response_fallback(self, index_dir):
        server = make_server(index_dir)
        logger = logging.getLogger("repro.serve.server")
        captured = []
        handler = logging.Handler()
        handler.emit = captured.append
        logger.addHandler(handler)
        try:
            frame = server.encode_response(
                {"ok": True, "id": 5, "weird": {1, 2}})
        finally:
            logger.removeHandler(handler)
        # the client still gets a frame ...
        payload = json.loads(frame)
        assert payload["ok"] is True and payload["id"] == 5
        # ... the event is counted ...
        counters = server.metrics.summary()["counters"]
        assert counters["repro_unserializable_responses_total"][""] == 1.0
        # ... and a structured warning names the offending response
        [record] = [r for r in captured
                    if getattr(r, "repro_event", "")
                    == "response-unserializable"]
        assert record.levelno == logging.WARNING
        assert record.repro_fields["id"] == 5

    def test_plain_responses_do_not_count_as_unserializable(self, index_dir):
        server = make_server(index_dir)
        server.encode_response({"ok": True})
        counters = server.metrics.summary()["counters"]
        assert "repro_unserializable_responses_total" not in counters or \
            counters["repro_unserializable_responses_total"][""] == 0.0


class TestBitIdentity:
    """Instrumentation observes — it never participates.

    Allocations must be bit-identical with metrics enabled and disabled
    (trace ids come from ``os.urandom``, not any seeded RNG stream).
    """

    STABLE_KEYS = ("allocation", "welfare", "fingerprint", "budgets",
                   "algorithm", "spec")

    def allocate(self, index_dir, enabled):
        set_global_metrics_enabled(enabled)
        try:
            server = make_server(index_dir, enabled=enabled)
            response = server.dispatch_line(
                json.dumps(make_request(SPEC, request_id=1)))
        finally:
            set_global_metrics_enabled(True)
        assert response["ok"] is True, response
        return {key: response[key] for key in self.STABLE_KEYS}

    def test_allocations_identical_with_and_without_metrics(self, index_dir):
        on = self.allocate(index_dir, enabled=True)
        off = self.allocate(index_dir, enabled=False)
        assert json.dumps(on, sort_keys=True) == \
            json.dumps(off, sort_keys=True)

    def test_node_selection_identical_with_and_without_metrics(self):
        import numpy as np

        from repro.rrsets import RRCollection, node_selection

        def build():
            rng = np.random.default_rng(11)
            collection = RRCollection(60)
            for _ in range(300):
                size = int(rng.integers(1, 6))
                members = rng.choice(60, size=size, replace=False)
                collection.add(members.astype(np.int64),
                               float(rng.random()) + 0.1)
            return collection

        set_global_metrics_enabled(True)
        on = node_selection(build(), k=5)
        set_global_metrics_enabled(False)
        try:
            off = node_selection(build(), k=5)
        finally:
            set_global_metrics_enabled(True)
        assert on.seeds == off.seeds
        assert on.covered_weight == off.covered_weight
        assert on.prefix_weights == off.prefix_weights


# ----------------------------------------------------------------------
# HTTP exporter
# ----------------------------------------------------------------------
async def _http_get(host, port, raw: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    body = await asyncio.wait_for(reader.read(), 30)
    writer.close()
    return body


class TestMetricsExporter:
    def run(self, scenario):
        async def wrapper():
            reg = MetricsRegistry()
            reg.counter("obs_test_total", "A counter").inc(5)
            exporter = MetricsExporter([reg], health=lambda: {"uptime": 1})
            await exporter.start("127.0.0.1", 0)
            host, port = exporter.addresses[0]
            try:
                return await asyncio.wait_for(scenario(host, port), 60)
            finally:
                await exporter.close()
        return asyncio.run(wrapper())

    def test_metrics_route(self):
        body = self.run(lambda host, port: _http_get(
            host, port, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"))
        head, _, payload = body.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"text/plain; version=0.0.4" in head
        assert b"obs_test_total 5" in payload

    def test_healthz_route(self):
        body = self.run(lambda host, port: _http_get(
            host, port, b"GET /healthz HTTP/1.0\r\n\r\n"))
        assert body.startswith(b"HTTP/1.1 200 OK")
        payload = json.loads(body.partition(b"\r\n\r\n")[2])
        assert payload == {"ok": True, "uptime": 1}

    def _healthz_with(self, health):
        async def wrapper():
            exporter = MetricsExporter([MetricsRegistry()], health=health)
            await exporter.start("127.0.0.1", 0)
            host, port = exporter.addresses[0]
            try:
                return await asyncio.wait_for(_http_get(
                    host, port, b"GET /healthz HTTP/1.0\r\n\r\n"), 60)
            finally:
                await exporter.close()
        return asyncio.run(wrapper())

    def test_healthz_ok_state_is_200(self):
        body = self._healthz_with(lambda: {"state": "ok", "ok": True})
        assert body.startswith(b"HTTP/1.1 200 OK")

    def test_healthz_degraded_is_503(self):
        body = self._healthz_with(
            lambda: {"state": "degraded", "ok": False})
        assert body.startswith(b"HTTP/1.1 503 Service Unavailable")
        payload = json.loads(body.partition(b"\r\n\r\n")[2])
        assert payload["state"] == "degraded"

    def test_healthz_draining_is_503(self):
        body = self._healthz_with(
            lambda: {"state": "draining", "ok": False})
        assert body.startswith(b"HTTP/1.1 503 Service Unavailable")

    def test_healthz_failing_callback_is_503(self):
        def boom():
            raise RuntimeError("health probe exploded")
        body = self._healthz_with(boom)
        assert body.startswith(b"HTTP/1.1 503 Service Unavailable")
        payload = json.loads(body.partition(b"\r\n\r\n")[2])
        assert payload == {"ok": False, "state": "error"}

    def test_unknown_route_is_404(self):
        body = self.run(lambda host, port: _http_get(
            host, port, b"GET /nope HTTP/1.1\r\n\r\n"))
        assert body.startswith(b"HTTP/1.1 404")

    def test_post_is_405(self):
        body = self.run(lambda host, port: _http_get(
            host, port, b"POST /metrics HTTP/1.1\r\n\r\n"))
        assert body.startswith(b"HTTP/1.1 405")

    def test_garbage_request_line_is_400(self):
        body = self.run(lambda host, port: _http_get(
            host, port, b"\xff\xfe not http at all\r\n\r\n"))
        assert body.startswith(b"HTTP/1.1 400")

    def test_render_concatenates_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("a_total").inc()
        b.counter("b_total").inc()
        text = MetricsExporter([a, b]).render()
        assert "a_total 1" in text and "b_total 1" in text
