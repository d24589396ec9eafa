"""Protocol fuzzing: malformed frames must never crash or hang serving.

Feeds adversarial JSON-lines input — truncated/malformed JSON, random
binary garbage, invalid UTF-8, oversized (> max_line_bytes) frames,
interleaved and split frames — to both the synchronous stdio dispatch
core and the concurrent TCP endpoint.  Every frame must be answered with
a typed error envelope (``error.code`` in
:data:`repro.api.protocol.ERROR_CODES`) or served, the connection must
stay usable afterwards, and nothing may raise or deadlock (every await
is bounded by ``asyncio.wait_for``).

The generator is seeded (no hypothesis dependency): the same corpus is
replayed on every run.
"""

from __future__ import annotations

import asyncio
import io
import json
import random
import string

import pytest

from repro.api import EngineConfig, RunSpec, WorkloadSpec, make_request
from repro.api.protocol import ERROR_CODES
from repro.cli import main
from repro.index import build_index
from repro.serve import AllocationServer, IndexRegistry
from repro.utility.configs import configuration_model

#: frame cap used by the fuzz servers — small enough that the oversized
#: corpus stays fast, still large enough for real requests
MAX_LINE = 64 * 1024

SPEC = RunSpec(
    algorithm="SeqGRD-NM",
    workload=WorkloadSpec(network="nethept", scale=0.01,
                          configuration="C1", budgets={"i": 2, "j": 2}),
    engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    from repro.graphs.datasets import load_network

    tmp = tmp_path_factory.mktemp("fuzz-indexes")
    graph = load_network("nethept", scale=0.01, rng=4)
    model = configuration_model("C1")
    index = build_index(
        graph, model, sampler="marginal",
        budgets=dict(SPEC.workload.budgets),
        options=SPEC.engine.imm_options(), seed=SPEC.engine.seed,
        meta_extra={"network": "nethept", "scale": 0.01,
                    "configuration": "C1", "graph_seed": 4,
                    "fixed_imm_item": None, "fixed_imm_budget": 50})
    index.save(tmp / "fuzz-idx")
    return tmp


@pytest.fixture()
def server(index_dir):
    registry = IndexRegistry(directory=index_dir, capacity=2)
    return AllocationServer(registry, max_line_bytes=MAX_LINE)


#: legacy queries whose payloads fail validation inside the service
MALFORMED_LEGACY_QUERIES = [
    ("legacy-k-not-int", b'{"op": "query", "k": "abc"}'),
    ("legacy-budgets-list", b'{"op": "query", "budgets": [1, 2]}'),
    ("legacy-budget-not-int", b'{"op": "query", "budgets": {"i": "x"}}'),
    ("legacy-budget-negative", b'{"op": "query", "budgets": {"i": -1}}'),
    ("legacy-algorithm-number", b'{"op": "query", "algorithm": 7}'),
]


def fuzz_corpus(seed: int, count: int = 120):
    """Seeded adversarial frames: ``(label, bytes)`` pairs."""
    rng = random.Random(seed)
    valid = json.dumps(make_request(SPEC)).encode()
    corpus = [
        ("empty", b""),
        ("whitespace", b"   \t  "),
        ("null", b"null"),
        ("number", b"42"),
        ("array", b"[1, 2, 3]"),
        ("string", b'"just a string"'),
        ("truncated-object", b'{"v": 1, "spec": {"algorithm": "SeqG'),
        ("unterminated-string", b'{"v": 1, "x": "never closed'),
        ("trailing-comma", b'{"v": 1,}'),
        ("two-objects-one-line", b'{"op": "ping"} {"op": "ping"}'),
        ("invalid-utf8", b"\xff\xfe\x00\x80 not utf-8"),
        ("utf8-continuation", b"\x80\x80\x80"),
        ("nul-bytes", b"\x00\x00\x00"),
        ("wrong-version", b'{"v": 999, "spec": {}}'),
        ("spec-not-object", b'{"v": 1, "spec": 17}'),
        ("bogus-spec-fields", b'{"v": 1, "spec": {"algorithm": '
                              b'"SeqGRD-NM", "workload": {"bogus": 1}}}'),
        ("unknown-algorithm", b'{"v": 1, "spec": {"algorithm": "Nope"}}'),
        ("unknown-op", b'{"op": "explode"}'),
        ("op-wrong-type", b'{"op": [1, 2]}'),
        ("metrics-op", b'{"op": "metrics"}'),
        ("metrics-op-with-id", b'{"op": "metrics", "id": 1}'),
        ("metrics-op-weird-id", b'{"op": "metrics", "id": [1, {"a": 2}]}'),
        ("metrics-op-extra-keys", b'{"op": "metrics", "spec": 7, "x": null}'),
        ("oversized", b"x" * (MAX_LINE + 1024)),
        ("oversized-json", b'{"pad": "' + b"y" * (MAX_LINE + 64)
                           + b'"}'),
        ("deep-nesting", b'{"v": ' + b'[' * 40 + b']' * 40 + b"}"),
    ] + MALFORMED_LEGACY_QUERIES
    yield from corpus
    for i in range(count - len(corpus)):
        kind = rng.randrange(4)
        if kind == 0:  # random binary garbage
            frame = bytes(rng.randrange(256)
                          for _ in range(rng.randrange(1, 200)))
            # keep it one frame
            frame = frame.replace(b"\n", b"?")
        elif kind == 1:  # truncated valid request
            cut = rng.randrange(1, len(valid))
            frame = valid[:cut]
        elif kind == 2:  # valid JSON, adversarial shape
            frame = json.dumps({
                "v": rng.choice([0, 1, 2, "1", None]),
                "id": rng.choice([1, "x", None, [1]]),
                "spec": rng.choice([{}, [], 7, "spec", None]),
            }).encode()
        else:  # printable noise
            frame = "".join(rng.choice(string.printable.replace("\n", ""))
                            for _ in range(rng.randrange(1, 120))).encode()
        yield f"generated-{i}", frame


def assert_envelope_or_served(label, response):
    """A fuzz response is a typed envelope or a legitimate answer."""
    assert isinstance(response, dict), label
    if response.get("ok"):
        return
    error = response.get("error")
    assert error is not None, (label, response)
    if isinstance(error, dict):  # typed v1 envelope
        assert error.get("code") in ERROR_CODES, (label, response)
        assert error.get("message"), (label, response)
    else:  # legacy dialect answers with a message string
        assert isinstance(error, str) and error, (label, response)


class TestStdioCoreFuzz:
    def test_corpus_never_raises(self, server):
        served = 0
        for label, frame in fuzz_corpus(seed=2020):
            response = server.dispatch_line(frame)
            if response is None:  # blank line
                continue
            served += 1
            assert_envelope_or_served(label, response)
        assert served > 90

    def test_text_frames_match_bytes_frames(self, server):
        for label, frame in fuzz_corpus(seed=7, count=60):
            try:
                text = frame.decode("utf-8")
            except UnicodeDecodeError:
                continue
            from_text = server.dispatch_line(text)
            from_bytes = server.dispatch_line(frame)
            if from_text is None or from_bytes is None:
                assert from_text == from_bytes, label
                continue
            # responses may differ in volatile fields (latency, counters);
            # the verdict and error code must agree
            assert from_text.get("ok") == from_bytes.get("ok"), label
            error_t, error_b = from_text.get("error"), from_bytes.get("error")
            if isinstance(error_t, dict) or isinstance(error_b, dict):
                assert error_t["code"] == error_b["code"], label

    def test_malformed_legacy_queries_answered(self, server):
        for label, frame in MALFORMED_LEGACY_QUERIES:
            response = server.dispatch_line(frame)
            assert response["ok"] is False, (label, response)
            assert isinstance(response["error"], str), (label, response)

    def test_unknown_op_lists_the_answered_ops(self, server):
        response = server.dispatch_line('{"op": "bogus"}')
        assert response["ok"] is False
        for op in ("query", "ping", "stats", "metrics", "reload",
                   "apply-delta"):
            assert op in response["error"], response

    def test_oversized_text_line_enveloped(self, server):
        response = server.dispatch_line("z" * (MAX_LINE + 5))
        assert response["ok"] is False
        assert response["error"]["code"] == "oversized-request"

    def test_valid_request_after_garbage(self, server):
        for _label, frame in fuzz_corpus(seed=11, count=40):
            server.dispatch_line(frame)
        response = server.dispatch_line(json.dumps(make_request(SPEC)))
        assert response["ok"] is True
        assert set(response["allocation"]) == {"i", "j"}


class TestStdioLoopFuzz:
    def test_cli_stdin_loop_survives_garbage(self, index_dir, capsys,
                                             monkeypatch):
        frames = ['{"op": "ping"}', "garbage", '{"v": 1}', "[1,2]",
                  "x" * 2048, json.dumps(make_request(SPEC, request_id=9))]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(frames) + "\n"))
        assert main(["serve", "--index", str(index_dir / "fuzz-idx")]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == len(frames)
        assert lines[0]["pong"] is True
        for response in lines[1:-1]:
            assert response["ok"] is False
            assert response["error"]["code"] in ERROR_CODES
        assert lines[-1]["ok"] is True and lines[-1]["id"] == 9


class TestTcpFuzz:
    def _run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=120))

    def test_tcp_corpus_then_valid_request(self, server):
        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            sent = 0
            for label, frame in fuzz_corpus(seed=2021, count=80):
                if not frame.strip():
                    continue
                writer.write(frame + b"\n")
                await writer.drain()
                sent += 1
                line = await asyncio.wait_for(reader.readline(), 30)
                assert line, f"{label}: connection died"
                assert_envelope_or_served(label, json.loads(line))
            assert sent > 50
            # the same connection still serves a real request
            writer.write(json.dumps(make_request(SPEC, request_id=1))
                         .encode() + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 60))
            assert response["ok"] is True, response
            writer.close()
            await server.shutdown(drain=True)
            return response

        response = self._run(scenario())
        assert response["server"]["index"] == "fuzz-idx"

    def test_malformed_legacy_queries_spare_concurrent_requests(self,
                                                                server):
        async def one(host, port, frame):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(frame + b"\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 60))
            writer.close()
            return response

        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            valid = json.dumps(make_request(SPEC)).encode()
            frames = [frame for _label, frame in MALFORMED_LEGACY_QUERIES]
            responses = await asyncio.gather(
                *[one(host, port, frame)
                  for frame in frames + [valid] * len(frames)])
            await server.shutdown(drain=True)
            return responses

        responses = self._run(scenario())
        half = len(MALFORMED_LEGACY_QUERIES)
        assert all(r["ok"] is False for r in responses[:half]), responses
        assert all(r["ok"] is True for r in responses[half:]), responses

    def test_oversized_frame_resynchronizes(self, server):
        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            # a 3x-oversized frame streamed in chunks, then a ping on the
            # same connection: the server must discard + resync
            writer.write(b"a" * (3 * MAX_LINE) + b"\n" + b'{"op": "ping"}\n')
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), 30))
            second = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await server.shutdown(drain=True)
            return first, second

        first, second = self._run(scenario())
        assert first["error"]["code"] == "oversized-request"
        assert second["pong"] is True

    def test_interleaved_and_split_frames(self, server):
        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            # one write carrying: a complete ping, an interleaved double
            # object (malformed), and the first half of a split request
            request = json.dumps(make_request(SPEC, request_id=3)).encode()
            writer.write(b'{"op": "ping"}\n'
                         b'{"op": "ping"} {"op": "ping"}\n' + request[:20])
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(request[20:] + b"\n")
            await writer.drain()
            responses = []
            for _ in range(3):
                responses.append(json.loads(await asyncio.wait_for(
                    reader.readline(), 60)))
            writer.close()
            await server.shutdown(drain=True)
            return responses

        ping, interleaved, split = self._run(scenario())
        assert ping["pong"] is True
        assert interleaved["ok"] is False
        assert interleaved["error"]["code"] == "malformed-request"
        assert split["ok"] is True and split["id"] == 3

    def test_truncated_frame_then_disconnect(self, server):
        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "pi')  # no newline, then vanish
            await writer.drain()
            writer.close()
            # the server must survive and accept a new client
            reader2, writer2 = await asyncio.open_connection(host, port)
            writer2.write(b'{"op": "ping"}\n')
            await writer2.drain()
            response = json.loads(await asyncio.wait_for(
                reader2.readline(), 30))
            writer2.close()
            await server.shutdown(drain=True)
            return response

        assert self._run(scenario())["pong"] is True

    def test_invalid_utf8_on_tcp(self, server):
        async def scenario():
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\xff\xfe\xfd{\x80}\n")
            await writer.drain()
            response = json.loads(await asyncio.wait_for(
                reader.readline(), 30))
            writer.close()
            await server.shutdown(drain=True)
            return response

        response = self._run(scenario())
        assert response["error"]["code"] == "malformed-request"
        assert "UTF-8" in response["error"]["message"]


def http_fuzz_corpus(seed: int, count: int = 40):
    """Seeded adversarial HTTP requests for the metrics exporter."""
    rng = random.Random(seed)
    corpus = [
        ("empty-line", b"\r\n"),
        ("bare-newline", b"\n"),
        ("no-version", b"GET /metrics\r\n\r\n"),
        ("bad-version", b"GET /metrics JUNK/9\r\n\r\n"),
        ("post", b"POST /metrics HTTP/1.1\r\n\r\n"),
        ("put", b"PUT / HTTP/1.0\r\n\r\n"),
        ("unknown-path", b"GET /secrets HTTP/1.1\r\n\r\n"),
        ("query-string", b"GET /metrics?x=1 HTTP/1.1\r\n\r\n"),
        ("extra-tokens", b"GET /metrics HTTP/1.1 junk\r\n\r\n"),
        ("binary", b"\xff\xfe\x80\x00garbage\r\n\r\n"),
        ("long-uri", b"GET /" + b"a" * 4096 + b" HTTP/1.1\r\n\r\n"),
        ("many-headers", b"GET /metrics HTTP/1.1\r\n"
                         + b"X-Pad: y\r\n" * 64 + b"\r\n"),
    ]
    yield from corpus
    for i in range(count - len(corpus)):
        frame = bytes(rng.randrange(256)
                      for _ in range(rng.randrange(1, 120)))
        yield f"http-generated-{i}", frame.replace(b"\n", b"?") + b"\r\n\r\n"


class TestMetricsHttpFuzz:
    """The Prometheus exporter must answer garbage with an HTTP status
    and keep scraping after every adversarial connection."""

    def _run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=120))

    async def _request(self, host, port, raw):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        body = await asyncio.wait_for(reader.read(), 30)
        writer.close()
        return body

    def test_exporter_survives_http_garbage(self, server):
        from repro.obs.httpexp import MetricsExporter

        # a serve request so the scrape has nonzero counters
        server.dispatch_line('{"op": "ping"}')

        async def scenario():
            exporter = MetricsExporter([server.metrics])
            await exporter.start("127.0.0.1", 0)
            host, port = exporter.addresses[0]
            try:
                for label, frame in http_fuzz_corpus(seed=2022):
                    body = await self._request(host, port, frame)
                    assert body.startswith(b"HTTP/1.1 "), (label, body[:60])
                    status = int(body.split(b" ", 2)[1])
                    assert status in (200, 400, 404, 405, 408), (label, status)
                # the exporter still serves a clean scrape afterwards
                scrape = await self._request(
                    host, port, b"GET /metrics HTTP/1.1\r\n\r\n")
                assert scrape.startswith(b"HTTP/1.1 200 OK"), scrape[:60]
                assert b"repro_requests_total" in scrape
            finally:
                await exporter.close()

        self._run(scenario())
