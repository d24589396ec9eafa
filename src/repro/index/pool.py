"""Persistent worker pools with shared-memory graph transport.

The sharded builder's unit of parallel work is tiny (one shard, a few
hundred RR sets), so the transport economics — not the sampling compute —
decide whether parallel builds win.  This module keeps three costs off the
per-call path:

* **process spawn** — one :class:`concurrent.futures.ProcessPoolExecutor`
  per ``(graph, workers, start method)`` lives in a small registry and is
  reused by every sampler built over the same graph (PRIMA+ inside
  SeqGRD-NM creates a sampler per item; all of them share one warm pool).
  Pools are torn down gracefully (``shutdown(wait=True)`` — the
  close-and-join semantics, never ``terminate``) when evicted, when
  :func:`shutdown_worker_pools` is called, or at interpreter exit.
* **graph transport** — with the ``fork`` start method (the Linux fast
  path) workers inherit the graph's CSR arrays copy-on-write through the
  pool initializer: zero pickling, zero copies.  Where only ``spawn`` is
  available the three in-CSR arrays are copied **once** into
  :mod:`multiprocessing.shared_memory` blocks and workers attach a
  :class:`SharedGraphView` — a graph-shaped window over the shared
  buffers.  Either way the graph never rides along with a task.
* **result transport** — tasks return
  :class:`~repro.rrsets.coverage.PackedRRBatch` buffers (see
  :func:`repro.index.builder._sample_shards`): one pickle per task, not
  one per RR set.

A worker process dying mid-map surfaces as
:class:`concurrent.futures.process.BrokenProcessPool` (unlike
``multiprocessing.Pool.map``, which blocks forever); callers mark the pool
broken via :func:`discard_pool` and fall back to in-process sampling with
identical results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import uuid
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: prefix of every shared-memory block this module creates; on Linux the
#: blocks appear as ``/dev/shm/<prefix>-...`` (tests assert cleanup by it)
SHM_PREFIX = "repro-rr"

#: idle pools kept warm before the least-recently-used one is shut down
MAX_IDLE_POOLS = 4


# ----------------------------------------------------------------------
# worker-side state: the graph is installed once per worker process
# ----------------------------------------------------------------------
_WORKER_GRAPH = None
_WORKER_SHM: List = []  # keeps attached shared-memory blocks alive


class SharedGraphView:
    """A graph-shaped window over shared in-CSR buffers.

    Exposes exactly the surface every RR sampler consumes —
    ``num_nodes``, ``name``, ``in_csr()`` and ``in_neighbors()`` — backed
    by arrays living in :mod:`multiprocessing.shared_memory`, so spawn-
    started workers sample without ever holding a private graph copy.
    """

    def __init__(self, num_nodes: int, indptr: np.ndarray,
                 indices: np.ndarray, probs: np.ndarray,
                 name: str = "shared-graph") -> None:
        self._num_nodes = int(num_nodes)
        self._indptr = indptr
        self._indices = indices
        self._probs = probs
        self._name = str(name)

    @property
    def name(self) -> str:
        """Name of the graph the view mirrors."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._num_nodes

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reverse adjacency ``(indptr, indices, probs)`` (shared, read-only)."""
        return self._indptr, self._indices, self._probs

    def in_neighbors(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """In-neighbours of ``node`` and the probabilities of those edges."""
        node = int(node)
        if not 0 <= node < self._num_nodes:
            raise IndexError(
                f"node {node} out of range [0, {self._num_nodes})")
        start, stop = self._indptr[node], self._indptr[node + 1]
        return self._indices[start:stop], self._probs[start:stop]


@dataclass(frozen=True)
class SharedGraphPayload:
    """Picklable handle a spawn-started worker turns back into a graph.

    Carries shared-memory block names plus dtypes/lengths — a few hundred
    bytes regardless of graph size.
    """

    num_nodes: int
    name: str
    blocks: Tuple[Tuple[str, str, int], ...]  # (shm name, dtype, length)

    def attach(self) -> SharedGraphView:
        from multiprocessing import shared_memory

        arrays = []
        for shm_name, dtype, length in self.blocks:
            shm = shared_memory.SharedMemory(name=shm_name)
            _WORKER_SHM.append(shm)  # keep the mapping alive
            arrays.append(np.ndarray((length,), dtype=np.dtype(dtype),
                                     buffer=shm.buf))
        return SharedGraphView(self.num_nodes, *arrays, name=self.name)


def _close_blocks(blocks: List) -> None:
    """Unlink shared-memory blocks (finalizer: runs at gc or exit)."""
    for shm in blocks:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # already unlinked
            pass
        except Exception:  # pragma: no cover - teardown best effort
            pass
    blocks.clear()


class _SharedGraphStore:
    """Parent-side owner of the shared-memory copies of a graph's in-CSR."""

    def __init__(self, graph) -> None:
        from multiprocessing import shared_memory

        self._blocks: List = []
        entries = []
        for array in graph.in_csr():
            array = np.ascontiguousarray(array)
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes),
                name=f"{SHM_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}")
            if array.nbytes:
                np.ndarray(array.shape, dtype=array.dtype,
                           buffer=shm.buf)[:] = array
            self._blocks.append(shm)
            entries.append((shm.name, str(array.dtype), len(array)))
        self.payload = SharedGraphPayload(
            num_nodes=graph.num_nodes, name=getattr(graph, "name", "graph"),
            blocks=tuple(entries))
        # belt and braces: unlink at gc/interpreter exit even if close()
        # is never reached (weakref.finalize runs during shutdown too)
        self._finalizer = weakref.finalize(self, _close_blocks, self._blocks)

    def close(self) -> None:
        self._finalizer()


def _init_fork_worker(graph) -> None:
    """Pool initializer on the fork path: the graph arrives copy-on-write."""
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def _suppress_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting attached blocks.

    The creating (parent) process owns unlinking; attaching workers must
    not register the same names with the shared tracker, or concurrent
    attach/detach cycles race its bookkeeping (spurious KeyErrors at
    worker exit) and the blocks risk an early unlink.
    """
    try:  # pragma: no cover - tracker internals, exercised in workers
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def register(name, rtype):
            if rtype == "shared_memory":
                return
            original(name, rtype)

        resource_tracker.register = register
    except Exception:
        pass


def _init_shm_worker(payload: SharedGraphPayload) -> None:
    """Pool initializer on the spawn path: attach the shared CSR blocks."""
    global _WORKER_GRAPH
    _suppress_shm_tracking()
    _WORKER_GRAPH = payload.attach()


def _run_shard_task(task):
    """Sample one task — a run of consecutive shards — in a worker.

    ``task`` is ``(spec, jobs)`` where ``spec`` is a graph-free
    :class:`~repro.index.builder.ShardSpec` and ``jobs`` a sequence of
    ``(seed_sequence, size)`` shards, sampled through one chunk loop.
    Returns one packed batch per task (shards in order) so transport cost
    scales with task count, not shard count.
    """
    from repro.index.builder import _sample_shards

    spec, jobs = task
    graph = _WORKER_GRAPH if getattr(spec, "graph", None) is None \
        else spec.graph
    assert graph is not None, "worker pool was not initialized"
    return _sample_shards(spec, graph, jobs)


# ----------------------------------------------------------------------
# the pool registry
# ----------------------------------------------------------------------
def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class GraphWorkerPool:
    """One persistent executor bound to one graph.

    Created (and cached) by :func:`acquire_pool`; ``map_tasks`` dispatches
    packed shard tasks.  ``shutdown`` always lets in-flight work finish
    (``wait=True``) — the graceful close-and-join teardown.
    """

    def __init__(self, graph, workers: int,
                 start_method: Optional[str] = None) -> None:
        self.workers = max(1, int(workers))
        self.start_method = start_method or default_start_method()
        self.broken = False
        self.refs = 0
        self._store: Optional[_SharedGraphStore] = None
        context = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            initializer, initargs = _init_fork_worker, (graph,)
        else:
            self._store = _SharedGraphStore(graph)
            initializer, initargs = _init_shm_worker, (self._store.payload,)
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context,
                initializer=initializer, initargs=initargs)
        except Exception:
            if self._store is not None:
                self._store.close()
            raise

    def map_tasks(self, tasks: Sequence) -> List:
        """Run ``_run_shard_task`` over ``tasks``, preserving order."""
        return list(self._executor.map(_run_shard_task, tasks))

    def shutdown(self) -> None:
        """Close and join the workers, then release shared memory."""
        self._executor.shutdown(wait=True, cancel_futures=self.broken)
        if self._store is not None:
            self._store.close()


_POOLS: "OrderedDict[Tuple[int, int, str], GraphWorkerPool]" = OrderedDict()
_POOLS_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def _evict_idle_locked() -> List[GraphWorkerPool]:
    """Pop surplus idle pools (LRU first); caller shuts them down unlocked."""
    victims = []
    idle = [key for key, pool in _POOLS.items() if pool.refs <= 0]
    while len(idle) > MAX_IDLE_POOLS:
        victims.append(_POOLS.pop(idle.pop(0)))
    return victims


def acquire_pool(graph, workers: int,
                 start_method: Optional[str] = None) -> GraphWorkerPool:
    """Get (or create) the warm pool for ``(graph, workers, method)``.

    The caller owns one reference; pair with :func:`release_pool`.  Pools
    whose graph has been garbage-collected are unreachable by keying on
    ``id(graph)`` — the bounded LRU plus the atexit hook reclaim them.
    Raises whatever process creation raises (``OSError`` on fork limits);
    callers degrade to in-process sampling.
    """
    global _ATEXIT_REGISTERED
    method = start_method or default_start_method()
    key = (id(graph), max(1, int(workers)), method)
    victims: List[GraphWorkerPool] = []
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is not None and not pool.broken:
            pool.refs += 1
            _POOLS.move_to_end(key)
            return pool
        if pool is not None:  # broken leftover: replace it
            victims.append(_POOLS.pop(key))
    for victim in victims:
        victim.shutdown()
    pool = GraphWorkerPool(graph, workers, method)
    pool.refs = 1
    with _POOLS_LOCK:
        _POOLS[key] = pool
        victims = _evict_idle_locked()
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_worker_pools)
            _ATEXIT_REGISTERED = True
    for victim in victims:
        victim.shutdown()
    return pool


def release_pool(pool: GraphWorkerPool) -> None:
    """Drop one reference; the pool stays warm (registry-owned) if healthy."""
    victims: List[GraphWorkerPool] = []
    with _POOLS_LOCK:
        pool.refs = max(0, pool.refs - 1)
        if pool.broken:
            for key, candidate in list(_POOLS.items()):
                if candidate is pool:
                    victims.append(_POOLS.pop(key))
        else:
            victims = _evict_idle_locked()
    for victim in victims:
        victim.shutdown()
    if pool.broken and pool not in victims:
        pool.shutdown()


def discard_pool(pool: GraphWorkerPool) -> None:
    """Mark a pool broken and tear it down (close + join, never terminate)."""
    pool.broken = True
    with _POOLS_LOCK:
        for key, candidate in list(_POOLS.items()):
            if candidate is pool:
                del _POOLS[key]
    pool.shutdown()


def shutdown_worker_pools() -> None:
    """Shut every registered pool down gracefully (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        try:
            pool.shutdown()
        except Exception:  # pragma: no cover - teardown best effort
            warnings.warn("worker pool shutdown failed", RuntimeWarning)


def pool_stats() -> Dict[str, int]:
    """Registry introspection for tests and ops surfaces."""
    with _POOLS_LOCK:
        return {"pools": len(_POOLS),
                "busy": sum(1 for pool in _POOLS.values() if pool.refs > 0)}


__all__ = [
    "MAX_IDLE_POOLS",
    "SHM_PREFIX",
    "GraphWorkerPool",
    "SharedGraphPayload",
    "SharedGraphView",
    "acquire_pool",
    "default_start_method",
    "discard_pool",
    "pool_stats",
    "release_pool",
    "shutdown_worker_pools",
]
