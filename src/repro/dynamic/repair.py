"""Incremental repair of persisted RR-set indexes under graph deltas.

The expensive artifact in this repo is the sampled
:class:`~repro.index.frozen.FrozenRRIndex`; when the graph drifts, a
full rebuild re-runs every reverse BFS.  :class:`RRRepairEngine`
instead *repairs*: it identifies exactly which RR sets' reverse
reachability a :class:`~repro.dynamic.delta.GraphDelta` could have
changed — the sets whose members intersect the delta's touched targets
(see :meth:`GraphDelta.touched_targets`), plus any sets re-rooted after
node insertions — and resamples only those with the keyed sampler
(:mod:`repro.dynamic.sampling`).

Because every edge coin is a pure function of ``(set, edge)``, the
repaired index is **array-identical to a from-scratch keyed rebuild on
the new graph** (given the same roots), not an approximation: untouched
sets replay bit-for-bit, deleted edges' coins drop out of the walk,
inserted edges draw fresh independent coins, and probability updates
reuse the stored uniform against the new threshold.  A zero-delta
repair is therefore a no-op returning the original arrays and an equal
fingerprint — the auditability contract the manifest's ``staleness``
block rides on.

The manifest's ``meta["dynamic"]`` block carries everything repair
needs and everything a loader needs to reconstruct the current graph:

* ``base_seed`` / ``sampler`` / ``rr_sets`` / ``state`` — the keyed
  sampling parameters (immutable across repairs; hashed into the
  fingerprint via ``fingerprint_extra``);
* ``epoch`` — number of delta batches applied so far;
* ``deltas`` — the full (JSON) delta history, replayed by
  :func:`replay_deltas` so ``load_service`` / fingerprint verification
  reconstruct the drifted graph from the pristine workload graph;
* ``staleness`` — the audit block: ``epoch``, cumulative
  ``deltas_applied`` (individual mutations), last-repair
  ``repaired_sets`` / ``repaired_fraction`` and the cumulative repaired
  fraction serving registries compare against their staleness bound.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.dynamic.sampling import (
    KEYED_ENGINE,
    KEYED_KINDS,
    keyed_roots,
    keyed_rr_sets,
    reroot,
)
from repro.exceptions import IndexStoreError
from repro.graphs.graph import DirectedGraph
from repro.index.fingerprint import index_fingerprint
from repro.index.frozen import FrozenRRIndex, index_paths
from repro.rrsets.coverage import min_id_dtype


def _sampler_kwargs(state: Mapping[str, Any]) -> Dict[str, Any]:
    """Keyed-sampler keyword arguments from a manifest ``state`` block."""
    return {
        "blocked": [int(v) for v in state.get("blocked", ())],
        "node_block_utility": {
            int(node): float(value)
            for node, value in (state.get("node_block_utility")
                                or {}).items()},
        "superior_utility": float(state.get("superior_utility", 0.0)),
    }


def _pack_sets(sets: Sequence[Tuple[np.ndarray, float]], num_nodes: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack ``(members, weight)`` pairs into set-major CSR arrays."""
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    lengths = np.asarray([len(members) for members, _ in sets],
                         dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    dtype = min_id_dtype(num_nodes)
    if sets:
        nodes = np.concatenate(
            [np.asarray(members) for members, _ in sets]).astype(
                dtype, copy=False)
    else:
        nodes = np.empty(0, dtype=dtype)
    weights = np.asarray([weight for _, weight in sets], dtype=np.float64)
    return offsets, nodes, weights


def replace_sets(offsets: np.ndarray, nodes: np.ndarray,
                 weights: np.ndarray,
                 replacements: Mapping[int, Tuple[np.ndarray, float]],
                 num_nodes: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rewrite a packed set-major CSR with the given sets replaced.

    The member dtype is re-derived from ``num_nodes`` and promoted
    against the stored dtype — node insertions that push ``num_nodes``
    across the ``int32`` boundary widen the members to ``int64`` instead
    of silently overflowing (narrowing never happens: an int64 store
    stays int64).  With no replacements the original arrays are returned
    unchanged — same objects, so a zero-delta repair stays bit-identical
    for free.
    """
    if not replacements:
        return offsets, nodes, weights
    num_sets = len(offsets) - 1
    replaced = np.asarray(sorted(replacements), dtype=np.int64)
    if replaced[0] < 0 or replaced[-1] >= num_sets:
        raise IndexStoreError(
            f"replacement set ids must lie in [0, {num_sets})")
    chosen = [replacements[idx] for idx in replaced.tolist()]
    fresh = np.concatenate([members for members, _ in chosen],
                           dtype=np.int64, casting="unsafe")
    fresh_lengths = np.fromiter((len(members) for members, _ in chosen),
                                dtype=np.int64, count=len(chosen))
    outside = (fresh < 0) | (fresh >= num_nodes)
    if outside.any():
        owner = np.searchsorted(np.cumsum(fresh_lengths),
                                np.argmax(outside), side="right")
        raise IndexStoreError(
            f"replacement set {int(replaced[owner])} has members outside "
            f"[0, {num_nodes})")
    lengths = np.diff(offsets).astype(np.int64)
    kept = np.ones(num_sets, dtype=bool)
    kept[replaced] = False
    new_lengths = lengths.copy()
    new_lengths[replaced] = fresh_lengths
    new_offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(new_lengths, out=new_offsets[1:])
    dtype = np.promote_types(nodes.dtype, min_id_dtype(num_nodes))
    new_nodes = np.empty(int(new_offsets[-1]), dtype=dtype)
    # untouched members keep their relative order; the replacements fill
    # the gaps, which ascend with the sorted set ids
    new_kept = np.repeat(kept, new_lengths)
    new_nodes[new_kept] = nodes[np.repeat(kept, lengths)]
    new_nodes[~new_kept] = fresh
    new_weights = np.array(weights, dtype=np.float64)
    new_weights[replaced] = np.fromiter(
        (weight for _, weight in chosen), dtype=np.float64,
        count=len(chosen))
    return new_offsets, new_nodes, new_weights


def touched_set_ids(index: FrozenRRIndex,
                    touched_nodes: np.ndarray) -> np.ndarray:
    """RR sets whose stored members intersect ``touched_nodes``.

    Scans the set-major members directly rather than the index's
    inverted CSR: the inverted CSR drops zero-weight sets (dead marginal
    walks, fully-blocked weighted walks), but those sets' partial
    traversals can still be invalidated by a delta and must be
    repaired.
    """
    touched_nodes = np.asarray(touched_nodes, dtype=np.int64)
    if touched_nodes.size == 0 or index.num_sets == 0:
        return np.empty(0, dtype=np.int64)
    offsets, nodes, _ = index._packed()
    hits = np.flatnonzero(np.isin(nodes, touched_nodes))
    if hits.size == 0:
        return np.empty(0, dtype=np.int64)
    owners = np.searchsorted(offsets, hits, side="right") - 1
    return np.unique(owners).astype(np.int64)


@dataclass(frozen=True)
class RepairReport:
    """Audit record of one :meth:`RRRepairEngine.repair` call."""

    epoch: int
    delta_ops: int
    touched_sets: int
    rerooted_sets: int
    repaired_sets: int
    num_sets: int
    repaired_fraction: float
    num_nodes_before: int
    num_nodes_after: int
    duration_ms: float
    zero_delta: bool

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class RepairOutcome:
    """A repaired index, the post-delta graph, and the audit report.

    ``repaired_ids`` lists the resampled set indices (sorted) — warm
    re-allocation uses it to maintain initial gains incrementally.
    """

    index: FrozenRRIndex
    graph: DirectedGraph
    report: RepairReport
    repaired_ids: np.ndarray


class RRRepairEngine:
    """Repairs one keyed (repairable) index as deltas arrive.

    Parameters
    ----------
    index:
        A repairable :class:`FrozenRRIndex` — built by
        :func:`build_repairable_index` (``meta["dynamic"]`` present,
        per-set roots stored).
    graph:
        The graph the index currently reflects (the workload graph with
        the manifest's recorded delta history already applied — see
        :func:`replay_deltas`).
    model:
        The utility model hashed into the fingerprint, when the index
        was built against one (``None`` for plain standard/IMM builds).
    """

    def __init__(self, index: FrozenRRIndex, graph: DirectedGraph,
                 model: Any = None) -> None:
        dynamic = index.meta.get("dynamic")
        if not isinstance(dynamic, Mapping) or not index.meta.get("keyed"):
            raise IndexStoreError(
                "index is not repairable: no dynamic/keyed metadata "
                "(build it with build_repairable_index or "
                "`repro index build --repairable`)")
        if index.roots is None or len(index.roots) != index.num_sets:
            raise IndexStoreError(
                "repairable index is missing its per-set roots array")
        if graph.num_nodes != index.num_nodes:
            raise IndexStoreError(
                f"graph has {graph.num_nodes} nodes but the index covers "
                f"{index.num_nodes} — apply the manifest's delta history "
                f"first (replay_deltas)")
        self._index = index
        self._graph = graph
        self._model = model

    @property
    def index(self) -> FrozenRRIndex:
        return self._index

    @property
    def graph(self) -> DirectedGraph:
        return self._graph

    def repair(self, delta: GraphDelta) -> RepairOutcome:
        """Apply ``delta`` and resample exactly the affected RR sets.

        Returns a new index (the engine's current index/graph advance to
        it, so repeated calls roll forward).  A zero-delta returns the
        original index object untouched.
        """
        start = time.perf_counter()
        index, graph = self._index, self._graph
        if delta.is_empty:
            report = RepairReport(
                epoch=int(index.meta["dynamic"]["epoch"]), delta_ops=0,
                touched_sets=0, rerooted_sets=0, repaired_sets=0,
                num_sets=index.num_sets, repaired_fraction=0.0,
                num_nodes_before=graph.num_nodes,
                num_nodes_after=graph.num_nodes,
                duration_ms=(time.perf_counter() - start) * 1e3,
                zero_delta=True)
            return RepairOutcome(index=index, graph=graph, report=report,
                                 repaired_ids=np.empty(0, dtype=np.int64))

        # copy only the levels this repair writes: recorded history
        # entries are never mutated, so the new manifest shares them
        meta = dict(index.meta)
        dynamic = meta["dynamic"] = dict(meta["dynamic"])
        base_seed = int(dynamic["base_seed"])
        sampler = str(dynamic["sampler"])
        epoch = int(dynamic["epoch"]) + 1
        new_graph = delta.apply(graph)
        old_n, new_n = graph.num_nodes, new_graph.num_nodes
        num_sets = index.num_sets

        touched = touched_set_ids(index, delta.touched_targets(graph))
        roots = np.asarray(index.roots, dtype=np.int64)
        all_ids = np.arange(num_sets, dtype=np.int64)
        new_roots, moved = reroot(base_seed, all_ids, roots, old_n, new_n,
                                  epoch)
        rerooted = np.flatnonzero(moved)
        repaired_ids = np.union1d(touched, rerooted)

        state = _sampler_kwargs(dynamic.get("state") or {})
        resampled = keyed_rr_sets(
            new_graph, repaired_ids, new_roots[repaired_ids], base_seed,
            kind=sampler, **state)
        replacements = {int(idx): sampled
                        for idx, sampled in zip(repaired_ids, resampled)}
        offsets, nodes, weights = index._packed()
        new_offsets, new_nodes, new_weights = replace_sets(
            offsets, nodes, weights, replacements, new_n)

        fraction = float(len(repaired_ids)) / num_sets if num_sets else 0.0
        staleness = dict(dynamic.get("staleness") or {})
        dynamic["epoch"] = epoch
        dynamic["deltas"] = [*(dynamic.get("deltas") or ()), delta.to_dict()]
        dynamic["staleness"] = {
            "epoch": epoch,
            "deltas_applied":
                int(staleness.get("deltas_applied", 0)) + delta.num_ops,
            "repaired_sets": int(len(repaired_ids)),
            "repaired_fraction": fraction,
            "cumulative_repaired_fraction": min(
                1.0, float(staleness.get("cumulative_repaired_fraction",
                                         0.0)) + fraction),
        }
        meta["fingerprint"] = index_fingerprint(
            new_graph, self._model, sampler=sampler, engine=KEYED_ENGINE,
            seed=base_seed, extra=dict(meta.get("fingerprint_extra") or {}))

        new_index = FrozenRRIndex(new_n, new_offsets, new_nodes,
                                  new_weights, meta=meta)
        new_index.roots = new_roots
        report = RepairReport(
            epoch=epoch, delta_ops=delta.num_ops,
            touched_sets=int(len(touched)),
            rerooted_sets=int(len(rerooted)),
            repaired_sets=int(len(repaired_ids)), num_sets=num_sets,
            repaired_fraction=fraction, num_nodes_before=old_n,
            num_nodes_after=new_n,
            duration_ms=(time.perf_counter() - start) * 1e3,
            zero_delta=False)
        self._index, self._graph = new_index, new_graph
        return RepairOutcome(index=new_index, graph=new_graph,
                             report=report, repaired_ids=repaired_ids)


def build_repairable_index(graph: DirectedGraph, model: Any = None, *,
                           sampler: str = "standard", rr_sets: int,
                           base_seed: int = 2020,
                           blocked: Sequence[int] = (),
                           node_block_utility: Optional[
                               Mapping[int, float]] = None,
                           superior_utility: float = 0.0,
                           meta_extra: Optional[Mapping[str, Any]] = None
                           ) -> FrozenRRIndex:
    """Build a keyed, repairable index with a fixed RR-set count.

    Unlike :func:`repro.index.builder.build_index`, every coin comes
    from the keyed sampler, so the index can later be repaired
    incrementally by :class:`RRRepairEngine`.  The coin stream differs
    from the stream-RNG engines — a repairable index is *not*
    bit-comparable to a ``build_index`` artifact at the same seed, and
    its ``engine="keyed"`` manifest keeps v1 spec routing away from it
    (named legacy queries still serve it).

    ``rr_sets`` is explicit: repairability requires a pinned θ (the
    adaptive IMM stopping rule would re-derive a different count on the
    drifted graph, destroying set identity).
    """
    if sampler not in KEYED_KINDS:
        raise ValueError(f"unknown sampler kind {sampler!r}; "
                         f"expected one of {KEYED_KINDS}")
    rr_sets = int(rr_sets)
    if rr_sets <= 0:
        raise ValueError(f"rr_sets must be positive, got {rr_sets}")
    if graph.num_nodes <= 0:
        raise ValueError("cannot build an index over an empty graph")
    base_seed = int(base_seed)
    state: Dict[str, Any] = {
        "blocked": sorted(int(v) for v in blocked),
        # string node keys: this block round-trips through JSON (where
        # int keys would come back as strings and change the
        # fingerprint's sorted-key hash)
        "node_block_utility": {
            str(int(node)): float(value)
            for node, value in (node_block_utility or {}).items()},
        "superior_utility": float(superior_utility),
    }
    indices = np.arange(rr_sets, dtype=np.int64)
    roots = keyed_roots(base_seed, indices, graph.num_nodes)
    sets = keyed_rr_sets(graph, indices, roots, base_seed, kind=sampler,
                         **_sampler_kwargs(state))
    offsets, nodes, weights = _pack_sets(sets, graph.num_nodes)

    extra = {"rr_sets": rr_sets, "keyed": True, "state": state}
    meta: Dict[str, Any] = {
        "sampler": sampler,
        "engine": KEYED_ENGINE,
        "seed": base_seed,
        "workers": None,
        "keyed": True,
        "algorithm": {"standard": "IMM", "marginal": "SeqGRD-NM",
                      "weighted": "SupGRD"}[sampler],
        "fingerprint": index_fingerprint(
            graph, model, sampler=sampler, engine=KEYED_ENGINE,
            seed=base_seed, extra=extra),
        "fingerprint_extra": extra,
        "dynamic": {
            "base_seed": base_seed,
            "sampler": sampler,
            "rr_sets": rr_sets,
            "state": state,
            "epoch": 0,
            "deltas": [],
            "staleness": {"epoch": 0, "deltas_applied": 0,
                          "repaired_sets": 0, "repaired_fraction": 0.0,
                          "cumulative_repaired_fraction": 0.0},
        },
    }
    meta.update(dict(meta_extra or {}))
    index = FrozenRRIndex(graph.num_nodes, offsets, nodes, weights,
                          meta=meta)
    index.roots = roots
    return index


def replay_deltas(graph: DirectedGraph,
                  meta: Mapping[str, Any]) -> DirectedGraph:
    """Apply a manifest's recorded delta history to the pristine graph.

    Loaders call this after reconstructing the workload graph so
    fingerprint verification and serving run against the graph the
    repaired index actually reflects.
    """
    dynamic = meta.get("dynamic") or {}
    for payload in dynamic.get("deltas") or []:
        graph = GraphDelta.from_dict(payload).apply(graph)
    return graph


def save_repaired(index: FrozenRRIndex, path: Union[str, Path]
                  ) -> Tuple[Path, Path]:
    """Atomically (re)write an index at ``path``.

    Writes to temporary siblings then ``os.replace``s both files, so a
    concurrently mmap-serving process keeps its old inode (POSIX keeps
    mapped pages alive after the rename) instead of faulting on
    truncated pages, and readers never observe a half-written pair.
    """
    npz_path, manifest_path = index_paths(path)
    tmp_npz, tmp_manifest = index.save(
        npz_path.with_name(npz_path.name[:-len(".npz")] + ".repair-tmp"))
    os.replace(tmp_npz, npz_path)
    os.replace(tmp_manifest, manifest_path)
    return npz_path, manifest_path


__all__ = [
    "RRRepairEngine",
    "RepairOutcome",
    "RepairReport",
    "build_repairable_index",
    "replace_sets",
    "replay_deltas",
    "save_repaired",
    "touched_set_ids",
]
