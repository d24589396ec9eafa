"""Multi-index hosting: lazy loading, LRU eviction, hot reload.

A serving process rarely answers one workload: the registry hosts many
:class:`~repro.index.frozen.FrozenRRIndex`\\ es — discovered from explicit
paths and/or a directory of ``*.manifest.json`` files — and routes each
versioned request to the index whose manifest is compatible with the
request's spec (the same field-by-field check
:func:`repro.api.protocol.index_mismatch` that guarantees served
allocations stay bit-identical to direct runs).

Memory discipline:

* **manifests are cheap, arrays are not** — :meth:`IndexRegistry.scan`
  reads only manifests (:meth:`FrozenRRIndex.peek_manifest`); the ``.npz``
  arrays and the rebuilt graph/model are loaded lazily on the first
  compatible request;
* **LRU over loaded services** — at most ``capacity`` indexes are resident
  at once; the least-recently-used loaded service is dropped (its manifest
  entry stays, so it can be reloaded on demand) and the eviction order is
  recorded for :meth:`IndexRegistry.stats`;
* **hot reload** — :meth:`IndexRegistry.reload` re-scans: new manifests
  appear, deleted ones disappear, and entries whose manifest changed on
  disk drop their loaded service so the next request loads the new build.
  ``repro serve`` wires this to ``SIGHUP`` and the ``{"op": "reload"}``
  protocol op;
* **repairs stay resident** — :meth:`IndexRegistry.apply_delta` persists
  and rescans like a reload, then installs the repaired build itself
  (re-opened from the files it wrote, verified against the graph it was
  repaired on), so a repair never costs the next request a rebuild of
  the workload graph and a replay of the delta history.

:func:`load_service` is the one cold load; it runs two steps, rebuilding
the instance from the manifest and serving the index over it, and a
repair runs only the second.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import faults
from repro.allocation import Allocation
from repro.api.specs import RunSpec, WorkloadSpec
from repro.exceptions import IndexStoreError
from repro.index.frozen import FrozenRRIndex, index_paths
from repro.index.service import AllocationService
from repro.obs.logging import get_logger, log_event
from repro.utility.configs import CONFIGURATIONS, configuration_model

_LOG = get_logger("repro.serve.registry")


def cache_hit_rate(cache: Mapping[str, Any]) -> float:
    """Hit fraction of a ``{"hits": ..., "misses": ...}`` stats dict."""
    hits = int(cache.get("hits", 0))
    misses = int(cache.get("misses", 0))
    total = hits + misses
    return round(hits / total, 4) if total else 0.0


@dataclass
class LoadedService:
    """One resident index: the service plus its rebuilt live instance."""

    service: AllocationService
    graph: Any
    model: Any
    fixed: Allocation


def load_service(index_path: Union[str, Path], *, verify: bool = True,
                 cache_size: int = 128,
                 selection_strategy: Optional[str] = None,
                 mmap: bool = True) -> LoadedService:
    """Load an index + rebuild its instance into an :class:`AllocationService`.

    The graph and utility model are reconstructed from the manifest and the
    index fingerprint is re-verified against them (unless ``verify`` is
    false), so a stale index — the network file or configuration changed
    since the build — is rejected instead of silently served.

    Loading is mmap-first (``mmap=True``): v2 indexes are served straight
    off the page cache, so a loaded service pins almost no array memory
    until queries fault pages in; v1 (compressed) indexes silently fall
    back to a full in-RAM load.  Served allocations are bit-identical
    either way.
    """
    index = FrozenRRIndex.load(index_path, mmap=mmap)
    graph, model = _rebuild_instance(index.meta)
    return _serve_index(index, graph, model, index_path, verify=verify,
                        cache_size=cache_size,
                        selection_strategy=selection_strategy)


def _rebuild_instance(meta: Mapping[str, Any]) -> Tuple[Any, Any]:
    """The ``(graph, model)`` a manifest's ``meta`` describes.

    A repaired index reflects the workload graph *plus* its recorded
    delta history, so the history is replayed onto the pristine graph.
    """
    from repro.api.runner import load_graph

    network = meta.get("network")
    configuration = meta.get("configuration")
    if network is None or configuration not in CONFIGURATIONS:
        raise IndexStoreError(
            f"the index manifest does not name a network/configuration "
            f"this CLI can rebuild (network={network!r}, "
            f"configuration={configuration!r}); query it in-process via "
            f"repro.index.AllocationService instead")
    graph = load_graph(
        WorkloadSpec(network=str(network), scale=meta.get("scale")),
        seed=int(meta.get("graph_seed", meta.get("seed", 0))))
    if meta.get("dynamic"):
        from repro.dynamic.repair import replay_deltas

        graph = replay_deltas(graph, meta)
    return graph, configuration_model(str(configuration))


def _serve_index(index: FrozenRRIndex, graph: Any, model: Any,
                 index_path: Union[str, Path], *, verify: bool,
                 cache_size: int, selection_strategy: Optional[str]
                 ) -> LoadedService:
    """Serve ``index`` over a given instance.

    With ``verify`` the stored fingerprint must equal the one the
    instance hashes to; a mismatch raises :class:`IndexStoreError`.
    """
    from repro.index.builder import expected_index_fingerprint

    meta = index.meta
    if verify:
        expected = expected_index_fingerprint(graph, model, meta)
        if expected != index.fingerprint:
            raise IndexStoreError(
                f"stale index {index_path}: the rebuilt graph/configuration "
                f"fingerprints to {expected[:12]}… but the index was built "
                f"for {str(index.fingerprint)[:12]}…; rebuild it with "
                f"`repro index build`")
    fixed = Allocation(
        {item: [int(v) for v in nodes] for item, nodes
         in (meta.get("fingerprint_extra", {}).get("fixed") or {}).items()})
    service = AllocationService(index, graph=graph, model=model,
                                fixed_allocation=fixed,
                                cache_size=cache_size,
                                selection_strategy=selection_strategy)
    return LoadedService(service=service, graph=graph, model=model,
                         fixed=fixed)


@dataclass
class RegistryEntry:
    """One discovered index: manifest metadata plus load state."""

    key: str
    stem: Path
    meta: Dict[str, Any]
    mtime: float
    num_sets: int = 0
    num_nodes: int = 0
    loads: int = 0
    requests: int = 0
    loaded: Optional[LoadedService] = field(default=None, repr=False)


class IndexRegistry:
    """Host many frozen RR-set indexes behind one serving process.

    Parameters
    ----------
    paths:
        Explicit index stems (or their ``.npz``/``.manifest.json`` files).
    directory:
        A directory scanned (non-recursively) for ``*.manifest.json``
        files; rescanned on :meth:`reload`.
    capacity:
        Maximum number of *loaded* indexes resident at once (LRU-evicted
        beyond that; manifests always stay registered).
    cache_size, selection_strategy, verify, mmap:
        Forwarded to :func:`load_service` for every lazy load (loads are
        mmap-first by default).
    memory_budget:
        Optional cap, in bytes, on the summed *resident* index memory
        (:meth:`FrozenRRIndex.resident_nbytes` — memory-mapped arrays
        count zero).  When exceeded, least-recently-used services are
        evicted beyond the entry-count LRU until the total fits (the
        most-recent service always stays loaded).
    staleness_bound:
        Repairable indexes whose manifest ``staleness`` block records a
        cumulative repaired fraction above this bound are flagged
        ``stale`` in :meth:`stats` — the operator signal that the drift
        has outgrown repair and the index should be rebuilt (which
        re-derives θ for the current graph).  ``None`` disables the
        flagging.
    """

    def __init__(self, paths: Sequence[Union[str, Path]] = (),
                 directory: Optional[Union[str, Path]] = None,
                 capacity: int = 4,
                 cache_size: int = 128,
                 selection_strategy: Optional[str] = None,
                 verify: bool = True,
                 mmap: bool = True,
                 memory_budget: Optional[int] = None,
                 staleness_bound: Optional[float] = 0.5) -> None:
        self._paths = [Path(p) for p in paths]
        self._directory = Path(directory) if directory is not None else None
        self._capacity = max(1, int(capacity))
        self._cache_size = int(cache_size)
        self._selection_strategy = selection_strategy
        self._verify = bool(verify)
        self._mmap = bool(mmap)
        self._memory_budget = (None if memory_budget is None
                               else max(0, int(memory_budget)))
        self._staleness_bound = (None if staleness_bound is None
                                 else float(staleness_bound))
        self._entries: Dict[str, RegistryEntry] = {}
        #: keys of loaded entries, least-recently-used first
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        self._loads = 0
        self._evictions = 0
        self._eviction_log: List[str] = []
        self._reloads = 0
        self._skipped: List[str] = []
        self.scan()

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def _discover(self) -> Dict[str, Tuple[Path, Dict[str, Any], float]]:
        found: Dict[str, Tuple[Path, Dict[str, Any], float]] = {}
        skipped: List[str] = []
        candidates: List[Tuple[Path, bool]] = [(p, True) for p in self._paths]
        if self._directory is not None and self._directory.is_dir():
            candidates.extend(
                (p, False)
                for p in sorted(self._directory.glob("*.manifest.json")))
        for candidate, explicit in candidates:
            _npz_path, manifest_path = index_paths(candidate)
            stem = manifest_path.with_name(
                manifest_path.name[:-len(".manifest.json")])
            key = stem.name
            if key in found:
                continue
            try:
                manifest = FrozenRRIndex.peek_manifest(stem)
            except IndexStoreError:
                # a broken manifest dropped into the directory must not
                # kill a hot reload; explicitly named indexes fail fast
                if explicit:
                    raise
                skipped.append(key)
                log_event(_LOG, logging.WARNING, "manifest-skipped",
                          index=key, path=str(manifest_path))
                continue
            found[key] = (stem, manifest, manifest_path.stat().st_mtime)
        self._skipped = skipped
        return found

    def scan(self) -> Dict[str, List[str]]:
        """(Re)discover indexes; returns ``{added, removed, changed}`` keys.

        Entries whose manifest changed on disk (mtime or fingerprint) drop
        their loaded service so the next request loads the fresh build.
        """
        found = self._discover()
        with self._lock:
            added, removed, changed = [], [], []
            for key in list(self._entries):
                if key not in found:
                    removed.append(key)
                    self._lru.pop(key, None)
                    del self._entries[key]
            for key, (stem, manifest, mtime) in found.items():
                meta = dict(manifest.get("meta") or {})
                entry = self._entries.get(key)
                if entry is None:
                    self._entries[key] = RegistryEntry(
                        key=key, stem=stem, meta=meta, mtime=mtime,
                        num_sets=int(manifest.get("num_sets", 0)),
                        num_nodes=int(manifest.get("num_nodes", 0)))
                    added.append(key)
                elif (entry.mtime != mtime
                      or entry.meta.get("fingerprint")
                      != meta.get("fingerprint")):
                    entry.meta = meta
                    entry.mtime = mtime
                    entry.num_sets = int(manifest.get("num_sets", 0))
                    entry.num_nodes = int(manifest.get("num_nodes", 0))
                    entry.loaded = None
                    self._lru.pop(key, None)
                    changed.append(key)
            return {"added": added, "removed": removed, "changed": changed}

    def reload(self) -> Dict[str, Any]:
        """Hot reload: rescan the paths/directory (``SIGHUP`` / ``reload``
        op).  Returns a summary of what changed."""
        summary: Dict[str, Any] = dict(self.scan())
        with self._lock:
            self._reloads += 1
            summary["indexes"] = sorted(self._entries)
            summary["reloads"] = self._reloads
        log_event(_LOG, logging.INFO, "registry-reloaded",
                  added=summary["added"], removed=summary["removed"],
                  changed=summary["changed"], reloads=summary["reloads"])
        return summary

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def keys(self) -> Tuple[str, ...]:
        """Registered index keys, sorted."""
        with self._lock:
            return tuple(sorted(self._entries))

    @property
    def default_key(self) -> Optional[str]:
        """The single registered key, when exactly one index is hosted
        (the target of legacy un-versioned queries)."""
        with self._lock:
            if len(self._entries) == 1:
                return next(iter(self._entries))
            return None

    def entry(self, key: str) -> RegistryEntry:
        with self._lock:
            entry = self._entries.get(key)
        if entry is None:
            raise IndexStoreError(
                f"no index {key!r} in the registry; "
                f"hosted: {sorted(self._entries)}")
        return entry

    def get(self, key: str) -> LoadedService:
        """The loaded service for ``key``; lazily loads and LRU-evicts."""
        for _attempt in range(3):
            entry = self.entry(key)
            with self._lock:
                if entry.loaded is not None:
                    self._lru.move_to_end(key)
                    return entry.loaded
                expected = entry.meta.get("fingerprint")
            if faults.fires("registry-load"):
                raise IndexStoreError(
                    f"injected fault: registry load of {key!r} failed "
                    f"(repro.faults site 'registry-load')")
            # load outside the lock (slow: npz + graph rebuild); worst
            # case two threads both load and one result wins — loads are
            # idempotent for an unchanged manifest
            loaded = load_service(
                entry.stem, verify=self._verify,
                cache_size=self._cache_size,
                selection_strategy=self._selection_strategy,
                mmap=self._mmap)
            result = self._publish(key, expected, loaded)
            if result is not None:
                return result
            # the manifest changed while we were loading: what we loaded
            # is a stale build — rescan so the entry reflects the disk
            # state, then retry rather than installing old arrays under
            # new metadata
            self.scan()
        raise IndexStoreError(
            f"index {key!r} kept changing on disk while loading; "
            f"retry once the rebuild settles")

    def _publish(self, key: str, expected: Optional[str],
                 loaded: LoadedService) -> Optional[LoadedService]:
        """Install a build computed outside the lock (compute-then-publish).

        ``loaded`` becomes ``key``'s resident service only while the
        entry's manifest fingerprint still equals ``expected`` and the
        build carries that fingerprint too; a build some other thread
        installed first wins.  Installing counts in ``loads``, logs
        ``index-loaded`` and LRU/memory-budget evicts.  Returns the
        resident service, ``loaded`` itself if the entry is gone, or
        ``None`` when the manifest moved on (``loaded`` is stale).
        """
        result: Optional[LoadedService] = None
        installed = False
        evicted: List[str] = []
        with self._lock:
            current = self._entries.get(key)
            if current is None:  # removed by a concurrent reload
                return loaded
            fresh = current.meta.get("fingerprint")
            if fresh == expected \
                    and loaded.service.index.meta.get("fingerprint") \
                    == fresh:
                if current.loaded is None:
                    current.loaded = loaded
                    current.loads += 1
                    self._loads += 1
                    installed = True
                self._lru[key] = None
                self._lru.move_to_end(key)
                while len(self._lru) > self._capacity or (
                        self._memory_budget is not None
                        and len(self._lru) > 1
                        and self._resident_bytes_locked()
                        > self._memory_budget):
                    victim, _ = self._lru.popitem(last=False)
                    victim_entry = self._entries.get(victim)
                    if victim_entry is not None:
                        victim_entry.loaded = None
                    self._evictions += 1
                    self._eviction_log.append(victim)
                    evicted.append(victim)
                result = current.loaded
        # log outside the lock: handlers may block on I/O
        if installed:
            log_event(_LOG, logging.INFO, "index-loaded", index=key,
                      num_rr_sets=current.num_sets,
                      num_nodes=current.num_nodes)
        for victim in evicted:
            log_event(_LOG, logging.INFO, "index-evicted",
                      index=victim, evicted_by=key)
        return result

    def apply_delta(self, key: str, delta: Any) -> Dict[str, Any]:
        """Repair a hosted index under a graph delta, without restart.

        The ``{"op": "apply-delta"}`` server op lands here: loads the
        index if needed, repairs it against the delta, atomically
        rewrites the on-disk pair and rescans, which retires the old
        service.  The repaired build then stays resident: the files just
        written are re-opened (mmap-first, like every load) and served
        over the graph the repair produced, verified against it like a
        cold load, so the next request neither rebuilds the workload
        graph nor replays the delta history.  The install goes through
        the same publish step as a lazy load; if the manifest moved on
        meanwhile, the entry is left for the lazy path.  A zero-delta
        leaves the files untouched (bit-identical by contract) and skips
        the rescan.

        Raises
        ------
        IndexStoreError
            When the repaired build fails fingerprint verification (the
            persisted files stay; the next load rejects them the same
            way).
        """
        from repro.dynamic.delta import GraphDelta
        from repro.dynamic.repair import RRRepairEngine, save_repaired

        if not isinstance(delta, GraphDelta):
            delta = GraphDelta.from_dict(delta)
        entry = self.entry(key)
        loaded = self.get(key)
        engine = RRRepairEngine(loaded.service.index, loaded.graph,
                                loaded.model)
        outcome = engine.repair(delta)
        summary: Dict[str, Any] = {"index": key,
                                   "repair": outcome.report.to_dict()}
        if not outcome.report.zero_delta:
            save_repaired(outcome.index, entry.stem)
            summary["scan"] = self.scan()
            index = FrozenRRIndex.load(entry.stem, mmap=self._mmap)
            # files another writer replaced meanwhile are not this build:
            # leave them to the lazy path
            if index.fingerprint == outcome.index.fingerprint:
                self._publish(key, index.fingerprint, _serve_index(
                    index, outcome.graph, loaded.model, entry.stem,
                    verify=self._verify, cache_size=self._cache_size,
                    selection_strategy=self._selection_strategy))
        log_event(_LOG, logging.INFO, "index-repaired", index=key,
                  epoch=outcome.report.epoch,
                  repaired_sets=outcome.report.repaired_sets,
                  repaired_fraction=outcome.report.repaired_fraction,
                  zero_delta=outcome.report.zero_delta)
        return summary

    def resolve_spec(self, spec: RunSpec) -> Tuple[str, AllocationService]:
        """Route a spec to a compatible index (loading it if needed);
        returns the index key and its service.

        Raises
        ------
        IndexStoreError
            When no registered manifest is compatible; the message carries
            the per-index mismatch reasons.
        """
        from repro.api.protocol import index_mismatch

        with self._lock:
            candidates = sorted(self._entries.items())
        if not candidates:
            raise IndexStoreError("the registry hosts no indexes; "
                                  "build one with `repro index build`")
        mismatches: List[str] = []
        for key, entry in candidates:
            meta = entry.meta
            reason = index_mismatch(spec, meta)
            if reason is None:
                service = self.get(key).service
                built = service.index.meta
                # a hot reload may have swapped the build since the check
                if built.get("fingerprint") != meta.get("fingerprint"):
                    reason = index_mismatch(spec, built)
                if reason is None:
                    entry.requests += 1
                    return key, service
            mismatches.append(f"[{key}] {reason}")
        raise IndexStoreError("; ".join(mismatches))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def _resident_bytes_locked(self) -> int:
        """Summed resident bytes of all loaded services (lock held)."""
        return sum(entry.loaded.service.index.resident_nbytes()
                   for entry in self._entries.values()
                   if entry.loaded is not None)

    def stats(self) -> Dict[str, Any]:
        """Registry statistics for the ``stats`` op.

        Per-index memory figures come from array ``nbytes`` (int32 and
        int64 stores report their true sizes); ``resident_bytes`` counts
        only non-memory-mapped arrays — a mmap-served index reports (near)
        zero because its pages live in the reclaimable page cache.
        """
        with self._lock:
            per_index = {}
            for key, entry in sorted(self._entries.items()):
                row: Dict[str, Any] = {
                    "loaded": entry.loaded is not None,
                    "loads": entry.loads,
                    "requests": entry.requests,
                    "num_rr_sets": entry.num_sets,
                    "num_nodes": entry.num_nodes,
                    "sampler": entry.meta.get("sampler"),
                    "network": entry.meta.get("network"),
                }
                staleness = (entry.meta.get("dynamic") or {}).get(
                    "staleness")
                if isinstance(staleness, Mapping):
                    row["staleness"] = dict(staleness)
                    row["stale"] = bool(
                        self._staleness_bound is not None
                        and float(staleness.get(
                            "cumulative_repaired_fraction", 0.0))
                        > self._staleness_bound)
                if entry.loaded is not None:
                    service = entry.loaded.service
                    cache = dict(service.cache_stats)
                    cache["hit_rate"] = cache_hit_rate(cache)
                    row["cache"] = cache
                    row.update(service.memory_stats)
                per_index[key] = row
            return {
                "indexes": per_index,
                "stale": sorted(key for key, row in per_index.items()
                                if row.get("stale")),
                "staleness_bound": self._staleness_bound,
                "entries": len(self._entries),
                "loaded": [k for k in self._lru],
                "capacity": self._capacity,
                "loads": self._loads,
                "evictions": self._evictions,
                "eviction_order": list(self._eviction_log),
                "reloads": self._reloads,
                "skipped": list(self._skipped),
                "resident_bytes": self._resident_bytes_locked(),
                "memory_budget": self._memory_budget,
                "mmap": self._mmap,
            }


__all__ = ["LoadedService", "RegistryEntry", "IndexRegistry",
           "cache_hit_rate", "load_service"]
