"""Streaming construction of v2 frozen RR-set indexes.

:class:`StreamingIndexWriter` accepts RR sets chunk by chunk, spills the
member buffer to a temporary file as it grows, and finalizes straight into
the v2 on-disk layout (see :mod:`repro.index.frozen`) — set-major CSR,
inverted CSR and precomputed initial gains — without ever materializing
the whole collection in RAM.  Only the per-set arrays (offsets, weights:
16 bytes/set) and one bounded member chunk are resident during the build;
the member-proportional arrays live on disk throughout.

The output is bit-identical to freezing an in-RAM
:class:`~repro.rrsets.coverage.RRCollection` fed the same sets in the same
order:

* offsets/weights accumulate exactly as ``RRCollection.extend`` does;
* the inverted CSR comes from a chunked counting sort — chunks are
  processed in set order and sorted stably within, so each node's posting
  list ascends by set index exactly like the global stable argsort in
  :func:`~repro.rrsets.coverage.build_inverted_csr`;
* unit-weight initial gains are integer member counts (exact and
  associative, so chunked accumulation cannot round differently); the
  general weighted case falls back to the one-shot bincount of
  :meth:`PackedCoverage.initial_gains`, trading a transient member
  materialization for bit-identity.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.exceptions import AlgorithmError, IndexStoreError
from repro.index.frozen import FORMAT_VERSION, index_paths, write_manifest
from repro.obs.logging import get_logger, log_event
from repro.obs.metrics import get_metrics
from repro.rrsets.coverage import PackedRRBatch, min_id_dtype, min_set_dtype

_LOG = get_logger("repro.index.stream")

#: default member-chunk budget (elements, not bytes) for spills and the
#: inverted-CSR passes; ~16 MB of int32 ids per chunk
DEFAULT_CHUNK_MEMBERS = 1 << 22

#: initial per-set buffer capacity before doubling kicks in
_INITIAL_SETS = 1024


class StreamingIndexWriter:
    """Incrementally write a v2 frozen index with a bounded working set.

    Parameters
    ----------
    path:
        Index stem (as accepted by :func:`repro.index.frozen.index_paths`);
        temporaries are created next to the final ``.npz``.
    num_nodes:
        Number of graph nodes; fixes the member dtype via
        :func:`~repro.rrsets.coverage.min_id_dtype` unless overridden.
    id_dtype:
        Optional member dtype override (must address ``num_nodes``).
    chunk_members:
        Member-element budget per buffered chunk; bounds the working set of
        both the append path and the finalize passes.
    """

    def __init__(self, path: Union[str, Path], num_nodes: int,
                 id_dtype=None,
                 chunk_members: int = DEFAULT_CHUNK_MEMBERS) -> None:
        self._npz_path, self._manifest_path = index_paths(path)
        self._num_nodes = int(num_nodes)
        if id_dtype is None:
            id_dtype = min_id_dtype(self._num_nodes)
        self._id_dtype = np.dtype(id_dtype)
        if self._id_dtype.kind != "i" \
                or self._num_nodes > np.iinfo(self._id_dtype).max:
            raise AlgorithmError(
                f"id_dtype {self._id_dtype} cannot address "
                f"{self._num_nodes} nodes")
        self._chunk_members = max(1, int(chunk_members))
        self._npz_path.parent.mkdir(parents=True, exist_ok=True)
        self._members_tmp = self._npz_path.with_name(
            self._npz_path.name + ".members.tmp")
        self._members_file = open(self._members_tmp, "wb")
        self._num_sets = 0
        self._num_members = 0
        self._offsets = np.zeros(_INITIAL_SETS + 1, dtype=np.int64)
        self._weights = np.empty(_INITIAL_SETS, dtype=np.float64)
        self._buffer: list = []
        self._buffered = 0
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """RR sets appended so far."""
        return self._num_sets

    @property
    def num_members(self) -> int:
        """Total member entries appended so far."""
        return self._num_members

    @property
    def id_dtype(self) -> np.dtype:
        """Member (node-id) dtype of the index being written."""
        return self._id_dtype

    # ------------------------------------------------------------------
    def _reserve_sets(self, extra: int) -> None:
        need = self._num_sets + extra
        capacity = len(self._weights)
        if need <= capacity:
            return
        while capacity < need:
            capacity *= 2
        offsets = np.zeros(capacity + 1, dtype=np.int64)
        offsets[:self._num_sets + 1] = self._offsets[:self._num_sets + 1]
        self._offsets = offsets
        weights = np.empty(capacity, dtype=np.float64)
        weights[:self._num_sets] = self._weights[:self._num_sets]
        self._weights = weights

    def _as_members(self, nodes) -> np.ndarray:
        # bounds-check at full width before narrowing (see RRCollection)
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            raise AlgorithmError(
                f"RR-set members must be node ids in [0, {self._num_nodes})")
        return nodes.astype(self._id_dtype, copy=False)

    def _flush(self) -> None:
        if not self._buffer:
            return
        started = time.perf_counter()
        chunk = np.concatenate(self._buffer) if len(self._buffer) > 1 \
            else self._buffer[0]
        self._members_file.write(
            np.ascontiguousarray(chunk, dtype=self._id_dtype).tobytes())
        get_metrics().histogram(
            "repro_build_spill_seconds",
            "Member-chunk spill time in the streaming writer"
        ).observe(time.perf_counter() - started)
        self._buffer = []
        self._buffered = 0

    def append(self, sets: Iterable[Tuple[np.ndarray, float]]) -> None:
        """Append ``(nodes, weight)`` pairs, spilling members as needed.

        A :class:`~repro.rrsets.coverage.PackedRRBatch` takes the bulk
        path of :meth:`append_packed` instead of the per-pair loop.
        """
        if isinstance(sets, PackedRRBatch):
            self.append_packed(sets)
            return
        if self._finalized:
            raise IndexStoreError("the index writer is already finalized")
        for nodes, weight in sets:
            nodes = self._as_members(nodes)
            self._reserve_sets(1)
            self._weights[self._num_sets] = float(weight)
            self._num_sets += 1
            self._num_members += len(nodes)
            self._offsets[self._num_sets] = self._num_members
            if len(nodes):
                self._buffer.append(nodes)
                self._buffered += len(nodes)
                if self._buffered >= self._chunk_members:
                    self._flush()

    def append_packed(self, batch: PackedRRBatch) -> None:
        """Append a packed batch with one offsets/weights splice.

        The written file is bit-identical to feeding :meth:`append` the
        batch's pairs: offsets and weights accumulate in the same order
        and the member bytes hit the spill file in the same sequence —
        only the spill-flush boundaries (an implementation detail of the
        temporary file) may differ.
        """
        if self._finalized:
            raise IndexStoreError("the index writer is already finalized")
        new_sets = batch.num_sets
        if new_sets == 0:
            return
        nodes = batch.nodes
        # bounds-check at full width before narrowing (see RRCollection)
        if len(nodes) and (int(nodes.min()) < 0
                           or int(nodes.max()) >= self._num_nodes):
            raise AlgorithmError(
                f"RR-set members must be node ids in [0, {self._num_nodes})")
        nodes = nodes.astype(self._id_dtype, copy=False)
        self._reserve_sets(new_sets)
        self._weights[self._num_sets:self._num_sets + new_sets] \
            = batch.weights
        self._offsets[self._num_sets + 1:self._num_sets + 1 + new_sets] \
            = self._num_members + batch.offsets[1:]
        self._num_sets += new_sets
        self._num_members += batch.num_members
        if batch.num_members:
            self._buffer.append(nodes)
            self._buffered += len(nodes)
            if self._buffered >= self._chunk_members:
                self._flush()

    # ------------------------------------------------------------------
    def _set_chunks(self, offsets: np.ndarray) -> Iterator[Tuple[int, int]]:
        """Yield ``(first_set, last_set)`` ranges of bounded member width."""
        num_sets = len(offsets) - 1
        first = 0
        while first < num_sets:
            limit = offsets[first] + self._chunk_members
            last = int(np.searchsorted(offsets, limit, side="right")) - 1
            last = min(max(last, first + 1), num_sets)
            yield first, last
            first = last

    def finalize(self, meta: Optional[Dict[str, Any]] = None
                 ) -> Tuple[Path, Path]:
        """Derive the inverted CSR and gains, write the v2 npz + manifest.

        Returns the ``(npz_path, manifest_path)`` pair.  The written files
        are bit-identical to ``RRCollection(...).freeze(...).save(...)``
        over the same sets.
        """
        if self._finalized:
            raise IndexStoreError("the index writer is already finalized")
        self._flush()
        self._members_file.close()
        self._finalized = True
        offsets = self._offsets[:self._num_sets + 1].copy()
        weights = self._weights[:self._num_sets].copy()
        if self._num_members:
            members = np.memmap(self._members_tmp, dtype=self._id_dtype,
                                mode="r", shape=(self._num_members,))
        else:
            members = np.empty(0, dtype=self._id_dtype)
        all_positive = bool((weights > 0.0).all()) if len(weights) else True
        uniform = bool((weights == 1.0).all()) if len(weights) else False

        # pass 1: per-node posting counts (members of positive-weight sets)
        pass1_started = time.perf_counter()
        counts = np.zeros(self._num_nodes, dtype=np.int64)
        for first, last in self._set_chunks(offsets):
            chunk = members[offsets[first]:offsets[last]]
            if not all_positive:
                keep = np.repeat(weights[first:last] > 0.0,
                                 np.diff(offsets[first:last + 1]))
                chunk = chunk[keep]
            if len(chunk):
                counts += np.bincount(chunk, minlength=self._num_nodes)
        inv_offsets = np.zeros(self._num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=inv_offsets[1:])
        kept = int(inv_offsets[-1])
        get_metrics().histogram(
            "repro_build_invert_seconds",
            "Inverted-CSR derivation time, by pass",
            **{"pass": "count"}).observe(time.perf_counter() - pass1_started)

        # pass 2: chunked stable counting sort into the inverted postings —
        # chunks arrive in set order and sort stably within, reproducing
        # the global stable argsort of build_inverted_csr exactly
        pass2_started = time.perf_counter()
        set_dtype = min_set_dtype(self._num_sets)
        inv_tmp = self._npz_path.with_name(self._npz_path.name + ".inv.tmp")
        if kept:
            inv_sets = np.lib.format.open_memmap(
                inv_tmp, mode="w+", dtype=set_dtype, shape=(kept,))
            cursors = inv_offsets[:-1].copy()
            for first, last in self._set_chunks(offsets):
                chunk = members[offsets[first]:offsets[last]]
                lengths = np.diff(offsets[first:last + 1])
                chunk_sets = np.repeat(
                    np.arange(first, last, dtype=set_dtype), lengths)
                if not all_positive:
                    keep = np.repeat(weights[first:last] > 0.0, lengths)
                    chunk = chunk[keep]
                    chunk_sets = chunk_sets[keep]
                if not len(chunk):
                    continue
                order = np.argsort(chunk, kind="stable")
                sorted_nodes = chunk[order]
                run_starts = np.flatnonzero(np.concatenate(
                    ([True], sorted_nodes[1:] != sorted_nodes[:-1])))
                run_lengths = np.diff(np.concatenate(
                    (run_starts, [len(sorted_nodes)])))
                within = np.arange(len(sorted_nodes), dtype=np.int64) \
                    - np.repeat(run_starts, run_lengths)
                inv_sets[cursors[sorted_nodes] + within] = chunk_sets[order]
                cursors += np.bincount(sorted_nodes,
                                       minlength=self._num_nodes)
            inv_sets.flush()
        else:
            inv_sets = np.empty(0, dtype=set_dtype)
        get_metrics().histogram(
            "repro_build_invert_seconds",
            "Inverted-CSR derivation time, by pass",
            **{"pass": "scatter"}).observe(time.perf_counter()
                                           - pass2_started)

        # initial gains: exact integer counts for the unit-weight case;
        # the general case defers to the one-shot weighted bincount so the
        # result stays bit-identical to PackedCoverage.initial_gains
        if uniform:
            gains0 = counts.astype(np.float64)
        else:
            lengths = np.diff(offsets)
            keep = np.repeat(weights > 0.0, lengths)
            gains0 = np.bincount(
                np.asarray(members)[keep],
                weights=np.repeat(weights, lengths)[keep],
                minlength=self._num_nodes).astype(np.float64, copy=False)

        np.savez(self._npz_path, offsets=offsets, nodes=members,
                 weights=weights, inv_offsets=inv_offsets, inv_sets=inv_sets,
                 gains0=gains0)
        array_bytes = int(offsets.nbytes + members.nbytes + weights.nbytes
                          + inv_offsets.nbytes + inv_sets.nbytes
                          + gains0.nbytes)
        manifest = {
            "format_version": FORMAT_VERSION,
            "num_nodes": self._num_nodes,
            "num_sets": self._num_sets,
            "total_weight": float(weights.sum()),
            "dtypes": {"offsets": str(offsets.dtype),
                       "nodes": str(members.dtype),
                       "weights": str(weights.dtype),
                       "inv_offsets": str(inv_offsets.dtype),
                       "inv_sets": str(inv_sets.dtype),
                       "gains0": str(gains0.dtype)},
            "array_bytes": array_bytes,
            "meta": dict(meta or {}),
        }
        write_manifest(self._manifest_path, manifest)
        del members, inv_sets
        for tmp in (self._members_tmp, inv_tmp):
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass
        log_event(_LOG, logging.INFO, "index-finalized",
                  path=str(self._npz_path), num_sets=self._num_sets,
                  num_members=self._num_members, array_bytes=array_bytes)
        return self._npz_path, self._manifest_path

    def abort(self) -> None:
        """Drop temporaries after a failed build (idempotent)."""
        if not self._members_file.closed:
            self._members_file.close()
        self._finalized = True
        for tmp in (self._members_tmp,
                    self._npz_path.with_name(self._npz_path.name
                                             + ".inv.tmp")):
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "StreamingIndexWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()


__all__ = ["DEFAULT_CHUNK_MEMBERS", "StreamingIndexWriter"]
