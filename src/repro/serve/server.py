"""Concurrent JSON-lines allocation serving (TCP, unix socket, stdio).

:class:`AllocationServer` serves the indexes of an
:class:`~repro.serve.registry.IndexRegistry` through one request
pipeline, whichever transport carried the frame — TCP, a unix socket,
or stdio, which is one more reader on the same event loop — and
whichever dialect it speaks:

1. **frame and parse** — one JSON request per line, one JSON response
   per line; bad JSON, invalid UTF-8, oversized (> 1 MiB by default) or
   truncated frames get a typed error envelope and never crash or hang
   the loop;
2. **drain, rate-limit and admission** — while draining, frames are
   answered ``shutting-down``; a per-connection token bucket
   (``rate_limit`` requests/s, ``rate_burst`` burst) and a bound of
   ``max_queue_depth`` queries admitted and not yet answered shed work
   with a typed ``overloaded`` envelope carrying ``queue_depth`` and a
   ``retry_after_ms`` hint;
3. **deadline** — ``deadline_ms`` (from frame receipt; clamped to
   ``max_deadline_ms``, defaulted from ``default_deadline_ms``) is
   checked when execution starts: an expired request is answered
   ``deadline-exceeded`` *before* burning worker time;
4. **route and validate** on the single worker thread, so lazy index
   loads never block the loop — :func:`~repro.api.protocol.prepare_request`
   for a v1 request, :meth:`AllocationServer._legacy_target` for a
   legacy op;
5. **execute** — one step both dialects share, on the same worker
   thread in the same crossing: the deadline check, the
   ``slow-selection`` fault site and
   :meth:`~repro.index.service.AllocationService.query`; a v1 answer is
   bit-identical to a direct ``repro run`` of the same spec;
6. one mapping from errors to envelopes;
7. the dialect's response builder: :func:`~repro.api.protocol.build_response`
   for ``{"v": 1, ...}``, the legacy shape for ``{"op": ...}`` (``query``,
   ``ping``, ``stats``, ``metrics``, ``reload`` — also on ``SIGHUP`` —
   and ``apply-delta``);
8. one span and metrics record per frame.

A frame that passes stages 1–3 crosses to the worker thread once, for
stages 4, 5 and 7.  Queries of both dialects get admission control and
deadlines; the ops are exempt from both, so the ops surface works
*during* overload.
**Health** is derived — ``ok`` → ``degraded`` (queue near capacity or
recent sheds) → ``draining`` — and surfaced by
:meth:`AllocationServer.health` (``/healthz`` answers 503 unless ``ok``),
the ``stats`` op and the ``repro_health_state`` gauge.  Served queries
carry a ``"server"`` object (``index``, ``queue_depth``, ``in_flight``).
:meth:`AllocationServer.shutdown` drains: accepting stops, in-flight
requests finish and flush, then connections close; those still busy
when ``drain_timeout`` expires get a typed ``shutting-down`` envelope
first.  The :mod:`repro.faults` sites ``stall-write`` and
``disconnect`` hook the response write.

:meth:`AllocationServer.dispatch_line` drives the same pipeline
synchronously for one frame (tests, benchmarks, embedding).
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro import faults
from repro.api.protocol import (
    build_response,
    error_response,
    prepare_request,
)
from repro.exceptions import (
    AlgorithmError,
    DeadlineExceeded,
    IndexStoreError,
    ReproError,
)
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Trace
from repro.serve.registry import IndexRegistry, LoadedService, cache_hit_rate
from repro.serve.stdio import StdinReader, StdoutWriter

_LOG = get_logger("repro.serve.server")

#: default cap on one JSON-lines frame (1 MiB)
DEFAULT_MAX_LINE_BYTES = 1_048_576

#: chunk size for the connection read loop
_READ_CHUNK = 65536

#: default bound on admitted, unanswered queries before new work is shed
DEFAULT_MAX_QUEUE_DEPTH = 256

#: default drain budget (seconds) for a graceful shutdown
DEFAULT_DRAIN_TIMEOUT = 10.0

#: sliding window (seconds) over which recent sheds mark health degraded
_HEALTH_WINDOW_S = 10.0

#: every legacy op the server answers
_LEGACY_OPS = ("query", "ping", "stats", "metrics", "reload", "apply-delta")

#: legacy ops exempt from admission control and deadlines — the ops
#: surface must keep answering while the serving path is shedding
_OPS_EXEMPT = frozenset(_LEGACY_OPS[1:])

#: what a failed request may raise on the worker thread: library
#: errors, and the type/value errors of malformed legacy payloads
#: (budgets of the wrong shape, non-integer k, ...) — answered, never
#: fatal to the connection
_REQUEST_ERRORS = (ReproError, TypeError, ValueError, AttributeError,
                   KeyError)

#: health states in severity order (gauge value = index)
HEALTH_STATES = ("ok", "degraded", "draining")


class _TokenBucket:
    """Per-connection request rate limiter (tokens/s with a burst cap)."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = max(1.0, float(burst))
        self.tokens = self.burst
        self.last = time.monotonic()

    def try_acquire(self) -> float:
        """Admit one request: 0.0, or seconds until a token frees up."""
        now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AllocationServer:
    """Serve the v1 + legacy dialects for many concurrent clients.

    Parameters
    ----------
    registry:
        The :class:`IndexRegistry` hosting the servable indexes.
    max_line_bytes:
        Frames longer than this are answered with an
        ``oversized-request`` envelope (the oversized input is discarded
        up to its newline, so the connection resynchronizes).
    metrics:
        The :class:`MetricsRegistry` this server records into (a fresh
        enabled one by default).  Pass a disabled registry
        (``MetricsRegistry(enabled=False)``) to reduce all recording to
        no-ops; responses stay bit-identical either way.
    max_queue_depth:
        Bound on :attr:`queue_depth` — queries of either dialect admitted
        and not yet answered — before new serving work is shed with an
        ``overloaded`` envelope (``None`` disables admission control).
    rate_limit, rate_burst:
        Per-connection token-bucket admission (requests/second and burst
        size; ``rate_limit=None`` disables).  Shed requests get an
        ``overloaded`` envelope whose ``retry_after_ms`` is the time
        until the next token.
    default_deadline_ms, max_deadline_ms:
        Server-side deadline defaults: requests without ``deadline_ms``
        get the default (when set); client deadlines are clamped to the
        ceiling (when set).
    drain_timeout:
        Seconds a graceful :meth:`shutdown` waits for in-flight requests
        before answering the stragglers' connections with a
        ``shutting-down`` envelope and closing them.
    """

    def __init__(self, registry: IndexRegistry, *,
                 max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
                 metrics: Optional[MetricsRegistry] = None,
                 max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 default_deadline_ms: Optional[float] = None,
                 max_deadline_ms: Optional[float] = None,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        self._registry = registry
        self._max_line_bytes = int(max_line_bytes)
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        #: queries admitted and not yet answered (event-loop owned)
        self._queue_depth = 0
        self._max_queue_depth = (None if max_queue_depth is None
                                 else max(1, int(max_queue_depth)))
        self._rate_limit = (None if rate_limit is None
                            else max(0.001, float(rate_limit)))
        self._rate_burst = (float(rate_burst) if rate_burst is not None
                            else (self._rate_limit * 2
                                  if self._rate_limit else 1.0))
        self._default_deadline_ms = (
            None if default_deadline_ms is None
            else max(0.0, float(default_deadline_ms)))
        self._max_deadline_ms = (None if max_deadline_ms is None
                                 else max(0.0, float(max_deadline_ms)))
        self._drain_timeout = max(0.0, float(drain_timeout))
        self._servers: list = []
        self._unix_paths: list = []
        self._conn_tasks: set = set()
        self._conn_writers: Dict[Any, asyncio.StreamWriter] = {}
        self._draining = False
        self._busy = 0
        self._idle: Optional[asyncio.Event] = None
        #: event loop dispatch_line drives the pipeline on (lazily made)
        self._sync_loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = time.time()
        self._requests = 0
        self._errors = 0
        self._connections = 0
        #: plain (metrics-independent) admission bookkeeping
        self._shed_counts = {"queue-full": 0, "rate-limit": 0,
                             "shutting-down": 0}
        self._shed_recent: deque = deque(maxlen=256)
        self._deadline_expired = 0
        #: EWMA of worker-thread execution seconds — the retry_after hint
        self._avg_exec_s = 0.05
        self._register_instruments()

    def _register_instruments(self) -> None:
        m = self._metrics
        # hot-path handles, bound once (span stages on first use)
        self._m_latency = m.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (frame receipt to response)")
        self._m_spans: Dict[str, Any] = {}
        self._m_unserializable = m.counter(
            "repro_unserializable_responses_total",
            "Responses that needed the default=str JSON fallback")
        self._m_connections = m.counter(
            "repro_connections_total", "Accepted client connections")
        # admission-control instruments, pre-registered so the metric
        # families exist (at zero) before the first shed — the golden
        # stats-schema test depends on a deterministic family set
        self._m_shed = {
            reason: m.counter(
                "repro_shed_total",
                "Requests shed by admission control, by reason",
                reason=reason)
            for reason in ("queue-full", "rate-limit", "shutting-down")}
        self._m_deadline = m.counter(
            "repro_deadline_expired_total",
            "Requests answered deadline-exceeded without executing")
        m.gauge_fn("repro_health_state",
                   lambda: float(HEALTH_STATES.index(self.health_state())),
                   "Derived health (0=ok, 1=degraded, 2=draining)")
        # live state as callback gauges: zero cost on the request path
        m.gauge_fn("repro_queue_depth", lambda: self._queue_depth,
                   "Queries admitted and not yet answered")
        m.gauge_fn("repro_in_flight_requests", lambda: self._busy,
                   "Requests being handled (including response write)")
        m.gauge_fn("repro_active_connections",
                   lambda: len(self._conn_tasks),
                   "Open client connections")
        m.gauge_fn("repro_uptime_seconds",
                   lambda: time.time() - self._started,
                   "Seconds since the server object was created")
        m.register_collector(self._registry_families)

    def _registry_families(self):
        """Render-time metric families for registry/per-index state."""
        stats = self._registry.stats()
        totals = [
            ("repro_registry_loads_total", "counter",
             "Index loads since start", [({}, stats["loads"])]),
            ("repro_registry_evictions_total", "counter",
             "LRU/memory-budget evictions", [({}, stats["evictions"])]),
            ("repro_registry_reloads_total", "counter",
             "Hot reloads (SIGHUP or reload op)", [({}, stats["reloads"])]),
            ("repro_registry_resident_bytes", "gauge",
             "Resident (non-mmap) index array bytes",
             [({}, stats["resident_bytes"])]),
        ]
        requests_rows: List[Tuple[Dict[str, str], float]] = []
        loaded_rows: List[Tuple[Dict[str, str], float]] = []
        hit_rows: List[Tuple[Dict[str, str], float]] = []
        miss_rows: List[Tuple[Dict[str, str], float]] = []
        rate_rows: List[Tuple[Dict[str, str], float]] = []
        for key, row in stats["indexes"].items():
            labels = {"index": key}
            requests_rows.append((labels, row["requests"]))
            loaded_rows.append((labels, 1.0 if row["loaded"] else 0.0))
            cache = row.get("cache")
            if cache:
                hit_rows.append((labels, cache.get("hits", 0)))
                miss_rows.append((labels, cache.get("misses", 0)))
                rate_rows.append((labels, cache_hit_rate(cache)))
        return totals + [
            ("repro_index_requests_total", "counter",
             "Requests routed per index", requests_rows),
            ("repro_index_loaded", "gauge",
             "Whether the index is resident (1) or manifest-only (0)",
             loaded_rows),
            ("repro_index_cache_hits_total", "counter",
             "Allocation-cache hits per index", hit_rows),
            ("repro_index_cache_misses_total", "counter",
             "Allocation-cache misses per index", miss_rows),
            ("repro_index_cache_hit_rate", "gauge",
             "Allocation-cache hit fraction per index", rate_rows),
        ]

    # ------------------------------------------------------------------
    @property
    def registry(self) -> IndexRegistry:
        return self._registry

    @property
    def queue_depth(self) -> int:
        """Queries of either dialect admitted and not yet answered."""
        return self._queue_depth

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def max_line_bytes(self) -> int:
        return self._max_line_bytes

    # ------------------------------------------------------------------
    # recording (stage 8: the one funnel every answered frame goes through)
    # ------------------------------------------------------------------
    def _record_response(self, dialect: str, response: Mapping[str, Any],
                         trace: Trace) -> None:
        if not self._metrics.enabled:
            return
        outcome = "ok" if response.get("ok", True) else "error"
        self._metrics.counter(
            "repro_requests_total", "Requests answered, by dialect/outcome",
            dialect=dialect, outcome=outcome).inc()
        self._m_latency.observe(trace.elapsed())
        for name, seconds in trace.spans():
            span = self._m_spans.get(name)
            if span is None:
                span = self._m_spans[name] = self._metrics.histogram(
                    "repro_span_seconds", "Per-stage request span timings",
                    stage=name)
            span.observe(seconds)

    def _record_resync(self, envelope: Mapping[str, Any]) -> None:
        """Count + log one malformed/oversized frame resynchronization."""
        error = envelope.get("error") or {}
        code = str(error.get("code", "")) if isinstance(error, Mapping) \
            else str(error)
        reason = "oversized" if code == "oversized-request" else "malformed"
        if self._metrics.enabled:
            self._metrics.counter(
                "repro_resync_total",
                "Frames discarded to resynchronize the stream",
                reason=reason).inc()
        log_event(_LOG, logging.WARNING, "frame-resync", reason=reason,
                  code=code)

    def encode_response(self, response: Mapping[str, Any]) -> str:
        """Serialize one response frame.

        A well-formed response is plain JSON; if serialization fails the
        event is recorded (``repro_unserializable_responses_total`` + a
        structured warning — this masks a type bug somewhere upstream)
        and the frame falls back to ``default=str`` so the client still
        gets an answer.
        """
        try:
            return json.dumps(response)
        except (TypeError, ValueError):
            self._m_unserializable.inc()
            log_event(_LOG, logging.WARNING, "response-unserializable",
                      "response payload needed default=str serialization",
                      id=response.get("id"), keys=sorted(response))
            return json.dumps(response, default=str)

    # ------------------------------------------------------------------
    # stage 1: framing / parsing
    # ------------------------------------------------------------------
    def parse_line(self, raw: Union[str, bytes]
                   ) -> Tuple[Optional[Dict[str, Any]],
                              Optional[Dict[str, Any]]]:
        """Parse one frame into ``(request, error_envelope)``.

        At most one of the two is non-``None``; both are ``None`` for
        blank lines (skip).  Never raises.
        """
        if isinstance(raw, bytes):
            if len(raw) > self._max_line_bytes:
                return None, self._oversized_envelope(len(raw))
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                return None, error_response(
                    "malformed-request",
                    f"request line is not valid UTF-8: {error}")
        else:
            text = raw
            # cheap pre-check first: a str frame can only exceed the byte
            # cap if it has at least max/4 characters (UTF-8 is <= 4B/char)
            if len(text) * 4 > self._max_line_bytes:
                encoded_size = len(text.encode("utf-8", errors="replace"))
                if encoded_size > self._max_line_bytes:
                    return None, self._oversized_envelope(encoded_size)
        text = text.strip()
        if not text:
            return None, None
        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            return None, error_response("malformed-request",
                                        f"bad JSON: {error}")
        if not isinstance(request, dict):
            return None, error_response(
                "malformed-request",
                f"requests must be JSON objects, got "
                f"{type(request).__name__}")
        return request, None

    def _oversized_envelope(self, size: Optional[int] = None
                            ) -> Dict[str, Any]:
        detail = f"request line is {size} bytes; " if size else \
            "request line "
        return error_response(
            "oversized-request",
            f"{detail}the server caps frames at "
            f"{self._max_line_bytes} bytes")

    # ------------------------------------------------------------------
    # the request pipeline: every transport, both dialects
    # ------------------------------------------------------------------
    def dispatch_line(self, raw: Union[str, bytes]
                      ) -> Optional[Dict[str, Any]]:
        """Answer one frame synchronously; ``None`` for blank lines.

        Drives the pipeline every transport uses to completion on a
        private event loop, for callers that have none (tests,
        benchmarks, embedding) — it cannot run inside a running loop.
        """
        answered: List[Dict[str, Any]] = []

        async def capture(response: Dict[str, Any]) -> bool:
            answered.append(response)
            return True

        if self._sync_loop is None:
            self._sync_loop = asyncio.new_event_loop()
        self._sync_loop.run_until_complete(self._serve_frame(raw, capture))
        return answered[0] if answered else None

    async def _serve_frame(self, frame: Union[str, bytes, None], write,
                           bucket: Optional[_TokenBucket] = None) -> bool:
        """Answer one frame through every stage of the pipeline.

        ``frame`` is ``None`` for an oversized frame the framer already
        discarded; ``await write(response)`` delivers the answer and
        returns ``False`` once the connection is gone.  Returns whether
        the connection should keep reading.
        """
        trace = Trace()  # minted at frame receipt
        if frame is None:
            request, response = None, self._oversized_envelope()
        else:
            with trace.span("parse"):
                request, response = self.parse_line(frame)
        if request is None:
            if response is None:
                return True  # blank line
            self._requests += 1
            self._errors += 1
            self._record_resync(response)
            dialect = "invalid"
        else:
            dialect = "v1" if "v" in request else "legacy"
        # a request arriving while draining is answered, then the
        # connection closes
        closing = self._draining and request is not None
        # busy covers handling AND the response write, so a draining
        # shutdown never drops a computed response
        self._busy += 1
        if self._idle is not None:
            self._idle.clear()
        try:
            if request is not None:
                response = await self._answer(request, trace, bucket)
            with trace.span("respond"):
                alive = await write(response)
            self._record_response(dialect, response, trace)
        finally:
            self._busy -= 1
            if self._busy == 0 and self._idle is not None:
                self._idle.set()
        return alive and not closing

    async def _answer(self, request: Mapping[str, Any], trace: Trace,
                      bucket: Optional[_TokenBucket]) -> Dict[str, Any]:
        """Stages 2–7 for one parsed request of either dialect."""
        self._requests += 1
        request_id = request.get("id")
        op = None if "v" in request else \
            str(request.get("op", "query")).strip().lower()
        # 2. drain, rate-limit and admission checks
        if self._draining:
            # answer, don't abandon: a typed envelope tells the client to
            # retry against another replica
            self._note_shed("shutting-down")
            return self._shutting_down_envelope(request_id)
        deadline = None
        depth = self._queue_depth
        query = op not in _OPS_EXEMPT
        if query:
            shed = self._admission_shed(request_id, bucket)
            if shed is not None:
                return shed
            # 3. deadline (checked again when execution starts)
            deadline, envelope = self._resolve_deadline(request, trace)
            if envelope is not None:
                self._errors += 1
                return envelope
            # admitted: counted until answered, whichever way it exits
            self._queue_depth += 1
        started = time.perf_counter()
        try:
            # 4.+5. the request's one worker-thread crossing: route,
            # validate and execute (lazy index loads never block the loop)
            key, response = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._run, request, op, deadline, trace,
                started)
        except _REQUEST_ERRORS as error:
            return self._error_envelope(error, request, started)
        finally:
            if query:
                self._queue_depth -= 1
        if key is not None:
            response["server"] = self._server_meta(key, depth)
        elif response["ok"] is False:
            self._errors += 1  # a v1 request refused by validation
        return response

    def _run(self, request: Mapping[str, Any], op: Optional[str],
             deadline: Optional[float], trace: Trace, submitted: float
             ) -> Tuple[Optional[str], Dict[str, Any]]:
        """Stages 4, 5 and 7 on the worker thread: a request's one crossing.

        Returns ``(key, response)`` — the index that served a query (for
        the ``server`` object; ``None`` for the ops and for a v1 request
        refused by validation, whose response is its error envelope) and
        the dialect's response; raises what failed the request.
        """
        started = time.perf_counter()
        # the wait behind other work on the one worker thread
        trace.add("queue", started - submitted)
        if op is not None:
            key, body = self._run_legacy(request, op, deadline, trace,
                                         started)
            return key, self._legacy_response(request, body)
        outcome = prepare_request(request, self._registry.resolve_spec)
        trace.add("validate", time.perf_counter() - started)
        if isinstance(outcome, dict):
            return None, outcome
        key, service, prepared = outcome
        payload = self._execute(service, deadline, trace,
                                prepared.algorithm, prepared.budgets)
        # 7. the v1 response builder
        return key, build_response(prepared, payload, submitted,
                                   trace=trace)

    def _run_legacy(self, request: Mapping[str, Any], op: str,
                    deadline: Optional[float], trace: Trace,
                    started: float) -> Tuple[Optional[str],
                                             Dict[str, Any]]:
        """Stages 4–5 of a legacy op: ``(key, body)`` — the index that
        served a query and the op's response body."""
        if op == "ping":
            return None, {"ok": True, "pong": True, "latency_ms": 0.0}
        if op == "stats":
            return None, self._stats_body()
        if op == "metrics":
            return None, {"ok": True, "metrics": self.metrics_payload()}
        if op == "reload":
            return None, {"ok": True, "reload": self._registry.reload()}
        if op not in _LEGACY_OPS:
            raise AlgorithmError(f"unknown op {op!r}; expected one of "
                                 f"{', '.join(_LEGACY_OPS)}")
        key, loaded = self._legacy_target(request)
        trace.add("validate", time.perf_counter() - started)
        if op == "apply-delta":
            # repair → atomic rewrite → rescan → install: the repaired
            # build stays resident, verified against the graph it was
            # repaired on, so the next query neither rebuilds nor
            # replays; in-flight queries keep their (still-mapped) old
            # arrays
            body = dict(ok=True, **self._registry.apply_delta(
                key, request.get("delta") or {}))
            served: Optional[str] = None
        else:
            service = loaded.service
            body = dict(ok=True, **self._execute(
                service, deadline, trace,
                request.get("algorithm",
                            service.index.meta.get("algorithm", "select")),
                request.get("budgets"),
                request.get("k", request.get("budget"))))
            served = key
        body["latency_ms"] = round((time.perf_counter() - started) * 1e3, 3)
        return served, body

    def _execute(self, service, deadline: Optional[float], trace: Trace,
                 algorithm: str,
                 budgets: Optional[Mapping[str, int]] = None,
                 k: Optional[int] = None) -> Dict[str, Any]:
        """Stage 5, the execution step both dialects share.

        Runs on the worker thread: the service's query LRU is not
        thread-safe (the index's greedy order, which every answer slices,
        is locked).  The ``slow-selection`` fault site stalls first, as a
        cold or contended selection would; a request whose deadline has
        passed then raises :class:`DeadlineExceeded` without costing
        selection time; :meth:`AllocationService.query` answers the rest.
        The step's worker time is the ``execute`` span and feeds the
        ``retry_after_ms`` EWMA.
        """
        begun = time.perf_counter()
        stall = faults.delay("slow-selection")
        if stall > 0.0:
            time.sleep(stall)
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineExceeded(
                "deadline expired before execution started")
        payload = service.query(algorithm, budgets=budgets, k=k)
        elapsed = time.perf_counter() - begun
        trace.add("execute", elapsed)
        self._avg_exec_s += 0.2 * (elapsed - self._avg_exec_s)
        return payload

    def _legacy_target(self, request: Mapping[str, Any]
                       ) -> Tuple[str, LoadedService]:
        """The index a legacy op runs against.

        A multi-index registry needs the request to name its index
        (``{"op": "query", "index": "nethept-c1", ...}``); with a single
        hosted index the request routes there implicitly, preserving the
        original one-index dialect.
        """
        named = request.get("index")
        key = str(named) if named is not None else self._registry.default_key
        if key is None:
            hosted = list(self._registry.keys())
            raise IndexStoreError(
                f"the registry hosts {len(hosted)} indexes; name one with "
                f'{{"index": ...}} (hosted: {hosted})')
        return key, self._registry.get(key)

    def _error_envelope(self, error: Exception, request: Mapping[str, Any],
                        started: float) -> Dict[str, Any]:
        """Stage 6: the one mapping from a failed request to its answer.

        An expired deadline is ``deadline-exceeded`` in either dialect; a
        failed v1 request is ``invalid-spec``; a failed legacy op keeps
        the legacy ``{"ok": false, "error": "<message>"}`` form.
        """
        request_id = request.get("id")
        if isinstance(error, DeadlineExceeded):
            self._note_deadline_expired()
            return error_response("deadline-exceeded", str(error),
                                  request_id)
        self._errors += 1
        if "v" in request:
            return error_response("invalid-spec", str(error), request_id)
        message = str(error) if isinstance(error, ReproError) \
            else f"malformed request: {error}"
        return self._legacy_response(request, {
            "ok": False, "error": message,
            "latency_ms": round((time.perf_counter() - started) * 1e3, 3)})

    def _legacy_response(self, request: Mapping[str, Any],
                         body: Mapping[str, Any]) -> Dict[str, Any]:
        """Stage 7 for the legacy dialect: the request ``id`` and the
        op's body."""
        response: Dict[str, Any] = {}
        if "id" in request:
            response["id"] = request["id"]
        response.update(body)
        return response

    def _server_meta(self, key: str, queue_depth: int) -> Dict[str, Any]:
        """The ``server`` object of a served query: its index, the
        queries admitted ahead of it and not yet answered, and the
        requests in flight now."""
        return {"index": key, "queue_depth": queue_depth,
                "in_flight": self._busy}

    # ------------------------------------------------------------------
    # ops payloads
    # ------------------------------------------------------------------
    def stats_payload(self) -> Dict[str, Any]:
        """Server + registry + metrics statistics (the ``stats`` op)."""
        payload = {
            "server": {
                "uptime_s": round(time.time() - self._started, 3),
                "requests": self._requests,
                "errors": self._errors,
                "connections": self._connections,
                "active_connections": len(self._conn_tasks),
                "in_flight": self._busy,
                "queue_depth": self._queue_depth,
                "max_line_bytes": self._max_line_bytes,
                "draining": self._draining,
                "metrics_enabled": self._metrics.enabled,
                "health": self.health_state(),
                "shed": {
                    "total": sum(self._shed_counts.values()),
                    "by_reason": dict(self._shed_counts),
                },
                "deadline_expired": self._deadline_expired,
                "admission": {
                    "max_queue_depth": self._max_queue_depth,
                    "rate_limit": self._rate_limit,
                    "rate_burst": (self._rate_burst
                                   if self._rate_limit is not None
                                   else None),
                    "default_deadline_ms": self._default_deadline_ms,
                    "max_deadline_ms": self._max_deadline_ms,
                    "drain_timeout_s": self._drain_timeout,
                },
            },
            "registry": self._registry.stats(),
            "metrics": self._metrics.summary(),
        }
        fault_stats = faults.stats()
        if fault_stats is not None:
            payload["faults"] = fault_stats
        return payload

    def metrics_payload(self) -> Dict[str, Any]:
        """Server + process metric summaries (the ``metrics`` op)."""
        return {
            "server": self._metrics.summary(),
            "process": get_metrics().summary(),
        }

    def _stats_body(self) -> Dict[str, Any]:
        """The ``stats`` op body: :meth:`stats_payload` plus, for a
        single loaded index, the flat shape the original one-index
        ``stats`` op answered with (without forcing a load)."""
        body: Dict[str, Any] = dict(ok=True, **self.stats_payload())
        key = self._registry.default_key
        if key is not None:
            loaded = self._registry.entry(key).loaded
            if loaded is not None:
                body.setdefault("stats", loaded.service.cache_stats)
                body.setdefault("num_rr_sets", loaded.service.index.num_sets)
                body.setdefault("num_nodes", loaded.service.index.num_nodes)
        return body

    # ------------------------------------------------------------------
    # stages 2–3: admission control / deadlines; health
    # ------------------------------------------------------------------
    def _note_shed(self, reason: str) -> None:
        self._errors += 1
        self._shed_counts[reason] = self._shed_counts.get(reason, 0) + 1
        self._shed_recent.append(time.monotonic())
        metric = self._m_shed.get(reason)
        if metric is not None:
            metric.inc()
        log_event(_LOG, logging.WARNING, "request-shed", reason=reason,
                  queue_depth=self._queue_depth)

    def _note_deadline_expired(self) -> None:
        self._errors += 1
        self._deadline_expired += 1
        self._m_deadline.inc()

    def _recent_sheds(self) -> int:
        """Sheds within the last :data:`_HEALTH_WINDOW_S` seconds."""
        cutoff = time.monotonic() - _HEALTH_WINDOW_S
        return sum(1 for stamp in self._shed_recent if stamp >= cutoff)

    def _retry_after_ms(self, depth: int) -> int:
        """Backoff hint for a queue-full shed: roughly how long the
        current backlog needs to clear, clamped to [50 ms, 5 s]."""
        eta = depth * max(self._avg_exec_s, 0.005)
        return int(1000.0 * min(5.0, max(0.05, eta)))

    def _admission_shed(self, request_id: Any,
                        bucket: Optional[_TokenBucket]
                        ) -> Optional[Dict[str, Any]]:
        """The ``overloaded`` envelope when the connection's token bucket
        is empty or the queue is full, else ``None`` (admit)."""
        if bucket is not None:
            wait_s = bucket.try_acquire()
            if wait_s > 0.0:
                self._note_shed("rate-limit")
                return error_response(
                    "overloaded",
                    f"connection exceeded its {self._rate_limit:g} req/s "
                    f"budget", request_id,
                    queue_depth=self._queue_depth,
                    retry_after_ms=int(wait_s * 1000.0) + 1)
        if self._max_queue_depth is None:
            return None
        depth = self._queue_depth
        if depth < self._max_queue_depth:
            return None
        self._note_shed("queue-full")
        return error_response(
            "overloaded",
            f"server is at capacity ({depth} queries in flight); "
            f"retry with backoff", request_id,
            queue_depth=depth,
            retry_after_ms=self._retry_after_ms(depth))

    def _resolve_deadline(self, request: Mapping[str, Any], trace: Trace
                          ) -> Tuple[Optional[float],
                                     Optional[Dict[str, Any]]]:
        """``(absolute deadline, None)`` or ``(None, error envelope)``.

        ``deadline_ms`` counts from frame receipt (the trace's birth), is
        defaulted from ``default_deadline_ms`` and clamped to
        ``max_deadline_ms`` when those are configured.
        """
        raw = request.get("deadline_ms")
        if raw is not None and (isinstance(raw, bool)
                                or not isinstance(raw, (int, float))
                                or not 0.0 < raw < float("inf")):
            return None, error_response(
                "malformed-request",
                f"'deadline_ms' must be a positive finite number of "
                f"milliseconds, got {raw!r}", request.get("id"))
        ms = self._default_deadline_ms if raw is None else float(raw)
        if ms is None:
            return None, None
        if self._max_deadline_ms is not None:
            ms = min(ms, self._max_deadline_ms)
        return trace.started + ms / 1000.0, None

    def health_state(self) -> str:
        """Derived health: ``ok`` | ``degraded`` | ``draining``."""
        if self._draining:
            return "draining"
        if self._max_queue_depth is not None:
            if self._queue_depth >= 0.8 * self._max_queue_depth:
                return "degraded"
        if self._recent_sheds() > 0:
            return "degraded"
        return "ok"

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload (state + the signals behind it)."""
        state = self.health_state()
        return {
            "state": state,
            "ok": state == "ok",
            "uptime_s": round(time.time() - self._started, 3),
            "queue_depth": self._queue_depth,
            "in_flight": self._busy,
            "recent_sheds": self._recent_sheds(),
            "draining": self._draining,
            "indexes": len(self._registry.keys()),
        }

    # ------------------------------------------------------------------
    # connections (TCP, unix socket, stdio)
    # ------------------------------------------------------------------
    async def _frames(self, reader) -> AsyncIterator[Optional[bytes]]:
        """Yield the newline-delimited frames of a byte stream.

        ``reader`` is anything with ``await read(n)``.  An oversized
        frame is discarded as it streams in (bounded memory) and yielded
        once, as ``None``, when its terminating newline arrives; a
        truncated trailing frame (EOF without newline) is still yielded.
        """
        buffer = bytearray()
        discarding = False
        while True:
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                if buffer and not discarding:
                    yield bytes(buffer)
                return
            buffer.extend(chunk)
            while True:
                newline = buffer.find(b"\n")
                if newline == -1:
                    if not discarding \
                            and len(buffer) > self._max_line_bytes:
                        discarding = True
                    if discarding:
                        buffer.clear()
                    break
                frame = bytes(buffer[:newline])
                del buffer[:newline + 1]
                if discarding:
                    # this newline terminates the oversized frame
                    discarding = False
                    yield None
                elif len(frame) > self._max_line_bytes:
                    yield None
                else:
                    yield frame

    async def _write_frame(self, writer: asyncio.StreamWriter,
                           response: Mapping[str, Any]) -> bool:
        """Write one response frame; ``False`` if the connection was torn
        down by the ``disconnect`` fault site.

        The ``stall-write`` site sleeps (async — the event loop keeps
        serving other connections) before the write; the ``disconnect``
        site writes only a prefix of the frame and aborts the transport,
        so chaos tests see a truncated frame + EOF.
        """
        stall = faults.delay("stall-write")
        if stall > 0.0:
            await asyncio.sleep(stall)
        data = (self.encode_response(response) + "\n").encode("utf-8")
        if faults.fires("disconnect"):
            writer.write(data[:max(1, len(data) // 2)])
            writer.transport.abort()
            return False
        writer.write(data)
        await writer.drain()
        return True

    def _shutting_down_envelope(self, request_id: Any = None
                                ) -> Dict[str, Any]:
        return error_response(
            "shutting-down",
            "server is draining and no longer accepts work; reconnect "
            "and retry elsewhere", request_id)

    async def _serve_connection(self, reader, writer) -> None:
        """Answer one connection's frames, in order, until EOF."""
        self._connections += 1
        self._m_connections.inc()
        peer = writer.get_extra_info("peername")
        log_event(_LOG, logging.DEBUG, "connection-opened",
                  peer=str(peer) if peer else None)
        frames = 0
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            self._conn_writers[task] = writer
        bucket = (_TokenBucket(self._rate_limit, self._rate_burst)
                  if self._rate_limit is not None else None)
        write = functools.partial(self._write_frame, writer)
        try:
            async for frame in self._frames(reader):
                frames += 1
                if not await self._serve_frame(frame, write, bucket):
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
                self._conn_writers.pop(task, None)
            log_event(_LOG, logging.DEBUG, "connection-closed",
                      peer=str(peer) if peer else None, frames=frames)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    # ------------------------------------------------------------------
    # endpoints / lifecycle
    # ------------------------------------------------------------------
    def _ensure_idle_event(self) -> None:
        if self._idle is None:
            self._idle = asyncio.Event()
            self._idle.set()

    async def start_tcp(self, host: str, port: int) -> Tuple[str, int]:
        """Start the TCP endpoint; returns the bound ``(host, port)``."""
        self._ensure_idle_event()
        server = await asyncio.start_server(
            self._serve_connection, host, port, limit=_READ_CHUNK)
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def start_unix(self, path: Union[str, Path]) -> Path:
        """Start the unix-socket endpoint; returns the socket path."""
        self._ensure_idle_event()
        path = Path(path)
        server = await asyncio.start_unix_server(
            self._serve_connection, str(path), limit=_READ_CHUNK)
        self._servers.append(server)
        self._unix_paths.append(path)
        return path

    async def shutdown(self, drain: bool = True,
                       timeout: Optional[float] = None) -> None:
        """Stop accepting, optionally drain in-flight requests, close.

        With ``drain=True`` every request already being processed finishes
        and flushes its response before its connection closes; idle
        connections are then closed.  ``timeout`` bounds the drain
        (default: the server's ``drain_timeout``); connections still busy
        when it expires are answered with a ``shutting-down`` envelope
        before being cancelled — never silently abandoned.
        """
        if timeout is None:
            timeout = self._drain_timeout
        self._draining = True
        for server in self._servers:
            server.close()
        drained = True
        if drain and self._busy and self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                drained = False
            # one tick so drained responses reach their transports
            await asyncio.sleep(0)
        if not drained:
            # the drain budget ran out with requests still in flight:
            # tell each lingering connection before cutting it off
            envelope = self._shutting_down_envelope()
            for task, writer in list(self._conn_writers.items()):
                if task.done():
                    continue
                self._note_shed("shutting-down")
                try:
                    writer.write((self.encode_response(envelope) + "\n")
                                 .encode("utf-8"))
                    await asyncio.wait_for(writer.drain(), 1.0)
                except (ConnectionResetError, BrokenPipeError, OSError,
                        asyncio.TimeoutError):
                    pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for server in self._servers:
            try:
                await server.wait_closed()
            except Exception:  # pragma: no cover - close race
                pass
        self._servers.clear()
        for path in self._unix_paths:
            try:
                path.unlink()
            except OSError:
                pass
        self._unix_paths.clear()
        self._executor.shutdown(wait=True)
        if self._sync_loop is not None:
            self._sync_loop.close()
            self._sync_loop = None

    async def serve_forever(self, *, tcp: Optional[Tuple[str, int]] = None,
                            unix: Optional[Union[str, Path]] = None,
                            stdio: bool = False,
                            metrics_tcp: Optional[Tuple[str, int]] = None,
                            ready=None) -> None:
        """Run until SIGINT/SIGTERM; SIGHUP hot-reloads the registry.

        ``stdio`` serves ``sys.stdin``/``sys.stdout`` (as they are at
        call time: pipe, file or in-memory stream) as one more connection
        on this event loop: frames are answered in order, and EOF on
        stdin drains the server and returns.  ``metrics_tcp`` starts the
        Prometheus/healthz HTTP exporter on a separate listener (it
        exposes this server's registry plus the process-global build
        metrics).  ``ready`` (optional callable) receives the endpoint
        descriptions once listening — the CLI prints them to stderr.
        """
        import signal

        from repro.obs.httpexp import MetricsExporter

        endpoints = []
        exporter: Optional[MetricsExporter] = None
        stop = asyncio.Event()
        try:
            if tcp is not None:
                host, port = await self.start_tcp(*tcp)
                endpoints.append(f"tcp://{host}:{port}")
            if unix is not None:
                path = await self.start_unix(unix)
                endpoints.append(f"unix://{path}")
            if stdio:
                self._ensure_idle_event()
                session = asyncio.ensure_future(self._serve_connection(
                    StdinReader(sys.stdin), StdoutWriter(sys.stdout)))
                session.add_done_callback(lambda _session: stop.set())
                endpoints.append("stdio")
            if metrics_tcp is not None:
                exporter = MetricsExporter(
                    [self._metrics, get_metrics()], health=self.health)
                await exporter.start(*metrics_tcp)
                for host, port in exporter.addresses:
                    endpoints.append(f"http://{host}:{port}/metrics")
            if ready is not None:
                ready(endpoints)
            log_event(_LOG, logging.INFO, "server-started",
                      endpoints=endpoints,
                      indexes=list(self._registry.keys()))
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except (NotImplementedError,
                        RuntimeError):  # pragma: no cover
                    pass
            try:
                loop.add_signal_handler(signal.SIGHUP,
                                        lambda: self._registry.reload())
            except (NotImplementedError, RuntimeError,
                    AttributeError):  # pragma: no cover - non-unix
                pass
            await stop.wait()
            if stdio and session.done():
                session.result()  # a failed stdio session fails the serve
        finally:
            # runs on normal stop AND on cancellation/error, so an
            # aborted serve still unlinks its unix socket and closes the
            # exporter instead of leaking them
            if exporter is not None:
                await exporter.close()
            await self.shutdown(drain=True)
            log_event(_LOG, logging.INFO, "server-drained",
                      requests=self._requests, errors=self._errors)


__all__ = [
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_MAX_LINE_BYTES",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "HEALTH_STATES",
    "AllocationServer",
]
