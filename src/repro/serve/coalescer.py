"""In-flight request coalescing and per-index query batching.

Specs are fingerprint-keyed (:meth:`RunSpec.fingerprint` hashes the fully
resolved spec), which makes cross-request sharing *safe*: two requests
with equal fingerprints are guaranteed to produce bit-identical
responses, so N concurrent clients asking about the same workload can —
and should — cost one selection run.  The coalescer exploits that at two
levels:

* **in-flight dedup** — the first request for a fingerprint registers a
  future; every identical request arriving before it completes awaits the
  same future (counted as ``coalesced``) instead of queueing its own
  execution;
* **per-index batching** — distinct fingerprints destined for the same
  index that are pending in the same event-loop tick drain as one batch
  through :func:`repro.api.protocol.execute_prepared_batch`, sharing the
  query LRU in a single executor hop; a request alone in its tick is a
  batch of one.

Every indexed answer is a prefix of the one greedy order its index keeps
(the order lives on the index, not the service), so once the order
reaches the largest budget asked, an uncached request costs a slice, not
a greedy run.  Every v1 request the server answers executes here, on a
single worker thread: the order is locked, but the services' query LRUs
are not thread-safe.
Every counter is exposed per index key via
:meth:`RequestCoalescer.counters` and surfaced by the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.api.protocol import PreparedRequest, execute_prepared_batch
from repro.exceptions import ReproError
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import MetricsRegistry

_LOG = get_logger("repro.serve.coalescer")

#: batch-size histogram buckets (requests per executed batch)
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


def _new_counters() -> Dict[str, int]:
    return {"coalesced": 0, "batches": 0, "batched_requests": 0,
            "executed": 0, "max_batch_size": 0}


def _derived(counters: Dict[str, int]) -> Dict[str, Any]:
    """Counters plus the derived totals the ops surface reports.

    ``requests`` is every admission (deduped + executed); ``efficiency``
    is the fraction of admissions answered without their own execution
    slot (coalesced, or sharing a multi-request batch).
    """
    out: Dict[str, Any] = dict(counters)
    requests = counters["coalesced"] + counters["batched_requests"]
    out["requests"] = requests
    saved = requests - counters["batches"]
    out["efficiency"] = round(saved / requests, 4) if requests else 0.0
    return out


class RequestCoalescer:
    """Deduplicate in-flight identical specs and batch per-index queries.

    Parameters
    ----------
    executor:
        The single-thread executor queries run on (owned by the server).
    max_batch:
        Drain a pending batch early once it reaches this many requests.
    """

    def __init__(self, executor: ThreadPoolExecutor,
                 max_batch: int = 64,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._executor = executor
        self._max_batch = max(1, int(max_batch))
        self._metrics = metrics
        #: fingerprint -> future resolving to
        #: (payload-or-ReproError, batch_size, exec_seconds)
        self._inflight: Dict[str, "asyncio.Future"] = {}
        #: index key -> pending (service, prepared, future) triples
        self._pending: Dict[str, List[Tuple[Any, PreparedRequest,
                                            "asyncio.Future"]]] = {}
        self._drain_handles: Dict[str, "asyncio.Handle"] = {}
        self._counters: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Distinct specs admitted but not yet answered."""
        return len(self._inflight)

    def counters(self, key: Optional[str] = None) -> Dict[str, Any]:
        """Coalescing counters, per index key (or all keys).

        Readable from any thread (the ``stats`` op runs on the worker
        thread while the event loop inserts keys): iteration works over
        atomic snapshots, never live dict views.
        """
        if key is not None:
            return _derived(self._counters.setdefault(key, _new_counters()))
        return {k: _derived(v)
                for k, v in sorted(list(self._counters.items()))}

    def _counters_for(self, key: str) -> Dict[str, int]:
        return self._counters.setdefault(key, _new_counters())

    # ------------------------------------------------------------------
    async def submit(self, key: str, service,
                     prepared: PreparedRequest
                     ) -> Tuple[Any, bool, int, int, float]:
        """Admit one prepared request; returns its execution outcome.

        Returns ``(payload_or_error, coalesced, batch_size, queue_depth,
        exec_seconds)`` where ``payload_or_error`` is the service payload
        dict or the :class:`ReproError` the query raised, ``coalesced``
        says whether this request piggybacked on an identical in-flight
        one, ``queue_depth`` is the number of distinct in-flight specs at
        admission time, and ``exec_seconds`` is the worker-thread time of
        the batch that answered it (shared across its members — the queue
        wait is the caller's elapsed time minus this).
        """
        depth = len(self._inflight)
        existing = self._inflight.get(prepared.fingerprint)
        if existing is not None:
            self._counters_for(key)["coalesced"] += 1
            if self._metrics is not None:
                self._metrics.counter(
                    "repro_coalesced_total",
                    "Requests answered by an identical in-flight spec",
                    index=key).inc()
            payload, batch_size, exec_s = await asyncio.shield(existing)
            return payload, True, batch_size, depth, exec_s
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        self._inflight[prepared.fingerprint] = future
        pending = self._pending.setdefault(key, [])
        pending.append((service, prepared, future))
        if len(pending) >= self._max_batch:
            handle = self._drain_handles.pop(key, None)
            if handle is not None:
                handle.cancel()
            self._drain(key)
        elif key not in self._drain_handles:
            # drain on the next loop tick: everything submitted in this
            # tick (e.g. 32 clients whose reads completed together) forms
            # one batch
            self._drain_handles[key] = loop.call_soon(self._drain, key)
        payload, batch_size, exec_s = await asyncio.shield(future)
        return payload, False, batch_size, depth, exec_s

    # ------------------------------------------------------------------
    def _drain(self, key: str) -> None:
        self._drain_handles.pop(key, None)
        pending = self._pending.pop(key, [])
        if not pending:
            return
        # a hot reload can swap the loaded service for a key between two
        # submissions in the same tick; requests must execute against the
        # exact service they validated on, so batch per service identity
        by_service: Dict[int, List[Tuple[Any, PreparedRequest,
                                         "asyncio.Future"]]] = {}
        for triple in pending:
            by_service.setdefault(id(triple[0]), []).append(triple)
        for batch in by_service.values():
            self._execute_batch(key, batch)

    def _execute_batch(self, key: str,
                       batch: List[Tuple[Any, PreparedRequest,
                                         "asyncio.Future"]]) -> None:
        counters = self._counters_for(key)
        counters["batches"] += 1
        counters["batched_requests"] += len(batch)
        counters["max_batch_size"] = max(counters["max_batch_size"],
                                         len(batch))
        if self._metrics is not None:
            self._metrics.counter(
                "repro_batches_total", "Executed coalescer batches",
                index=key).inc()
            self._metrics.histogram(
                "repro_batch_size", "Requests per executed batch",
                buckets=_BATCH_BUCKETS, index=key).observe(len(batch))
        service = batch[0][0]
        prepared_list = [prepared for _, prepared, _ in batch]
        loop = asyncio.get_running_loop()

        def _timed_execute():
            # timed on the worker thread so batch members can split their
            # end-to-end latency into queue wait vs execution
            start = time.perf_counter()
            results = execute_prepared_batch(service, prepared_list)
            return results, time.perf_counter() - start

        task = loop.run_in_executor(self._executor, _timed_execute)

        def _finish(done: "asyncio.Future") -> None:
            for _, prepared, _future in batch:
                self._inflight.pop(prepared.fingerprint, None)
            try:
                results, exec_s = done.result()
            except BaseException as error:  # executor died / shutdown race
                for _, _prepared, future in batch:
                    if not future.done():
                        future.set_exception(error)
                return
            counters["executed"] += sum(
                1 for r in results if not isinstance(r, ReproError))
            if self._metrics is not None:
                self._metrics.histogram(
                    "repro_batch_exec_seconds",
                    "Worker-thread execution time per batch",
                    index=key).observe(exec_s)
            log_event(_LOG, logging.DEBUG, "batch-executed",
                      index=key, batch_size=len(batch),
                      exec_ms=round(exec_s * 1000.0, 3))
            for (_, _prepared, future), result in zip(batch, results):
                if not future.done():
                    future.set_result((result, len(batch), exec_s))

        task.add_done_callback(_finish)


__all__ = ["RequestCoalescer"]
