"""Concurrent allocation serving: async multi-client JSON-lines service.

``repro serve`` grew from a blocking, single-client, single-index stdin
loop into a serving subsystem:

* :mod:`repro.serve.registry` — :class:`IndexRegistry`, hosting many
  :class:`~repro.index.frozen.FrozenRRIndex`\\ es keyed by their workload
  manifests, with manifest-checked lazy loading from an index directory,
  LRU eviction of loaded services, and hot reload (``SIGHUP`` / the
  ``reload`` op); :func:`load_service` is the single
  index-file → :class:`~repro.index.service.AllocationService` loader.
* :mod:`repro.serve.server` — :class:`AllocationServer`, the asyncio
  JSON-lines server: one request pipeline for every transport (TCP, unix
  socket, and stdio as one more reader on the same event loop) and both
  dialects — the versioned :mod:`repro.api.protocol` and the legacy
  ``{"op": ...}`` one.  Every request crosses to the single worker
  thread once, where it is routed, validated and executed (every
  indexed answer is a slice of the one greedy order its index keeps,
  and repeats hit the per-index result LRU).  Also: typed error
  envelopes for malformed/oversized frames, ``server`` response
  metadata, a ``stats`` op, admission control (a bound on queries
  admitted and not yet answered + per-connection rate limits, shed with
  ``overloaded`` envelopes) and deadlines for the queries of both
  dialects, derived health (``ok``/``degraded``/``draining``) and
  graceful drain on shutdown (stragglers answered ``shutting-down``).
* :mod:`repro.serve.stdio` — the stdin/stdout adapters that let the
  stdio transport share the sockets' connection handler.
* :mod:`repro.serve.client` — :class:`ResilientClient`, the asyncio
  JSON-lines client with capped exponential backoff + full jitter that
  honors ``retry_after_ms`` hints and retries the typed retryable
  envelopes and connection drops.

Serving stays **bit-identical** to ``repro run``: the registry only
routes a spec to an index whose manifest passes
:func:`repro.api.protocol.index_mismatch`, and all selection work runs
with the same RNG discipline as the direct executor.
"""

from repro.serve.client import (
    ResilientClient,
    RetriesExhausted,
    RetryPolicy,
)
from repro.serve.registry import (
    IndexRegistry,
    LoadedService,
    RegistryEntry,
    load_service,
)
from repro.serve.server import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_LINE_BYTES,
    DEFAULT_MAX_QUEUE_DEPTH,
    HEALTH_STATES,
    AllocationServer,
)

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_MAX_LINE_BYTES",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "HEALTH_STATES",
    "AllocationServer",
    "IndexRegistry",
    "LoadedService",
    "RegistryEntry",
    "ResilientClient",
    "RetriesExhausted",
    "RetryPolicy",
    "load_service",
]
