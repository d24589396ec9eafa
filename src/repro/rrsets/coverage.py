"""CSR-native RR-set coverage store and the greedy selection engine.

The node-selection phase of IMM, PRIMA+ and SupGRD is a weighted maximum
coverage problem over the sampled RR sets: pick ``k`` nodes maximizing the
total weight of the RR sets they hit.  This module keeps the whole phase
array-native:

* :class:`RRCollection` stores the sets in growable flat buffers — a
  set-major CSR of member node ids (``offsets``/``members``) plus per-set
  ``weights``, grown by amortized doubling — and derives the node-major
  inverted CSR (node → covering sets) lazily with one stable argsort.
  :meth:`RRCollection.freeze` hands the packed buffers to
  :class:`~repro.index.frozen.FrozenRRIndex` without copying, so the
  growable collection, the frozen index and the sharded builder's merge
  path all share one representation and one accessor protocol
  (:class:`PackedCoverage`).
* :func:`node_selection` (Algorithm 5 in the paper) runs over that packed
  representation: one eager greedy loop with exact gains, whose state
  (:class:`GreedyOrder`) can stop after any pick and resume.

The greedy loop
---------------
Gains are maintained exactly, so each pick is one vectorized ``argmax``
over the working gains array (the lowest node id wins ties).  A picked
node is excluded by writing ``-inf`` into that working copy, and
committing a pick updates gains with one ``np.subtract.at`` over the
concatenated members of the newly covered sets.  Lazy (CELF) evaluation
would only pay off if each gain were an expensive oracle call.  Gains and
totals go through the same sequence of IEEE-754 operations as the
pure-Python reference loop the tests keep as an oracle (same
addition/subtraction order), so seeds, ``prefix_weights`` and
``covered_weight`` agree with it bit for bit.

One order, resumed
------------------
The loop's state after ``j`` picks — working gains, covered mask,
running total, seeds, prefix weights, ``saturated_at`` — does not depend
on the target ``k``, so every selection of ``k`` seeds is the first ``k``
picks of one greedy order (the prefix property PRIMA+'s Algorithm 4
relies on to serve a whole budget vector from one run).  A growable
:class:`RRCollection` runs a fresh state to ``k`` on every call, since
it may grow in between.  A :class:`~repro.index.frozen.FrozenRRIndex` is
immutable, so it keeps one state for its lifetime: a call extends it
(under the state's lock) only when ``k`` reaches past every earlier
call, and otherwise costs a slice.  Resuming runs the same operations in
the same order as one uninterrupted run, so both are bit-identical.
``repro_selection_seconds{phase}`` records one observation per phase per
extension, not per call.

Saturation (the stop-or-pad rule)
---------------------------------
Once every remaining candidate has zero marginal gain the greedy is
*saturated*: further picks cannot cover anything.  Saturation is detected
when the picked candidate covers **no new set** — a criterion that is
robust to the ~1-ulp residue incremental float updates can leave on the
gains of fully covered nodes (a ``gain <= 0`` test would miss those).
``on_saturation="pad"`` (the default) keeps selecting zero-gain nodes
until ``k`` seeds are returned — PRIMA+ and SeqGRD rely on always
receiving ``k`` seeds so budgets are exhausted and greedy prefixes keep
serving every smaller budget.  ``on_saturation="stop"`` truncates the
selection at the first zero-gain pick instead.  Either way
:attr:`SelectionResult.saturated_at` records where saturation set in.
The kept order is always the padded one; a ``"stop"`` answer is its
prefix cut at ``saturated_at``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AlgorithmError


def _observe_selection(phase: str, seconds: float) -> None:
    """Fold one selection-phase timing into the global metrics registry.

    Imported lazily so this low-level module never drags the obs stack in
    at import time; a disabled registry makes the call a near no-op.
    """
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    if metrics.enabled:
        metrics.histogram(
            "repro_selection_seconds",
            "Greedy node-selection time, by phase",
            phase=phase).observe(seconds)


#: keep padding zero-gain seeds until ``k`` are selected (the default)
SATURATION_PAD = "pad"
#: truncate the selection at the first zero-gain pick
SATURATION_STOP = "stop"
_SATURATION_MODES = (SATURATION_PAD, SATURATION_STOP)


def min_id_dtype(num_nodes: int) -> np.dtype:
    """Narrowest member dtype that can address ``num_nodes`` node ids.

    ``int32`` holds every id below ``2**31``; graphs at or beyond that
    (not reachable in practice, but the contract matters) fall back to
    ``int64``.  Offsets always stay ``int64`` — member *counts* overflow
    ``int32`` long before node ids do.
    """
    return np.dtype(np.int32 if int(num_nodes) < 2 ** 31 else np.int64)


def min_set_dtype(num_sets: int) -> np.dtype:
    """Narrowest dtype for RR-set indices in the inverted CSR."""
    return np.dtype(np.int32 if int(num_sets) < 2 ** 31 else np.int64)


def build_inverted_csr(offsets: np.ndarray, members: np.ndarray,
                       weights: np.ndarray, num_nodes: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Invert a set-major members CSR into a node-major sets CSR.

    Only positive-weight sets are indexed (zero-weight sets can never
    contribute coverage), and each node's posting list comes out in
    ascending set order — exactly the order incremental per-set appends
    would produce, which is what keeps frozen and growable selections
    bit-identical.
    """
    lengths = np.diff(offsets)
    keep = np.repeat(weights > 0.0, lengths)
    member_nodes = members[keep]
    member_sets = np.repeat(
        np.arange(len(weights), dtype=min_set_dtype(len(weights))),
        lengths)[keep]
    order = np.argsort(member_nodes, kind="stable")
    sorted_nodes = member_nodes[order]
    inv_sets = member_sets[order]
    counts = np.bincount(sorted_nodes, minlength=num_nodes)
    inv_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=inv_offsets[1:])
    return inv_offsets, inv_sets


class PackedCoverage:
    """Accessor protocol shared by every packed coverage representation.

    Subclasses (:class:`RRCollection` and
    :class:`~repro.index.frozen.FrozenRRIndex`) expose ``num_nodes``,
    ``num_sets``, ``_packed()`` — the ``(offsets, members, weights)``
    set-major CSR triple — and ``_inverted()`` — the
    ``(inv_offsets, inv_sets)`` node-major CSR pair.  Everything the greedy
    selection and the estimators consume is derived here, once, so both
    representations behave identically down to float addition order.
    """

    # subclasses provide: num_nodes, num_sets, _packed(), _inverted()

    @property
    def id_dtype(self) -> np.dtype:
        """Dtype of the member (node-id) buffer."""
        return self._packed()[1].dtype

    @property
    def set_dtype(self) -> np.dtype:
        """Dtype of the inverted-CSR set-index buffer."""
        return self._inverted()[1].dtype

    def array_nbytes(self) -> int:
        """Total bytes of the packed CSR arrays (plus the inverted CSR and
        cached initial gains, when materialized).

        This is the *logical* array footprint — what the data occupies in
        RAM when fully materialized, and (for the uncompressed v2 index
        format) what it occupies on disk.  Memory-mapped indexes may be
        resident well below this figure.
        """
        offsets, members, weights = self._packed()
        total = offsets.nbytes + members.nbytes + weights.nbytes
        inv = getattr(self, "_inv", None)
        if inv is not None:
            total += inv[0].nbytes + inv[1].nbytes
        gains0 = getattr(self, "_gains0", None)
        if gains0 is not None:
            total += gains0.nbytes
        return int(total)

    def weights(self) -> np.ndarray:
        """Weights of all RR sets (a view of the packed buffer; do not
        mutate)."""
        return self._packed()[2]

    def set_members(self, set_index: int) -> np.ndarray:
        """Node ids of the RR set ``set_index`` (in stored order)."""
        offsets, members, _ = self._packed()
        return members[offsets[set_index]:offsets[set_index + 1]]

    def sets_covered_by(self, node: int) -> np.ndarray:
        """Indices of the positive-weight RR sets containing ``node``."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            return np.empty(0, dtype=np.int64)
        inv_offsets, inv_sets = self._inverted()
        return inv_sets[inv_offsets[node]:inv_offsets[node + 1]]

    def initial_gains(self) -> np.ndarray:
        """Per-node coverage gain of an empty selection (``M_R({v})``).

        One weighted ``np.bincount`` over the set-major members, so entry
        ``v`` accumulates its posting weights in ascending set order — the
        same sequential left-fold every other implementation of this
        protocol has used, keeping greedy selections bit-identical.

        The result is cached until the collection changes (it is the
        dominant cost of a warm selection) and returned as a copy, since
        the greedy mutates its gains in place.

        Unit-weight collections (every RR set weighing exactly 1.0 — the
        standard IMM case) take a chunked integer-counting path: int64
        counts are exact and associative, so accumulating per chunk is
        bit-identical to the one-shot weighted bincount while keeping the
        working set bounded (no ``num_members``-sized float temporaries).
        """
        cached = getattr(self, "_gains0", None)
        if cached is None:
            offsets, members, weights = self._packed()
            if len(weights) and bool((weights == 1.0).all()):
                counts = np.zeros(self.num_nodes, dtype=np.int64)
                step = 1 << 22
                for start in range(0, len(members), step):
                    counts += np.bincount(members[start:start + step],
                                          minlength=self.num_nodes)
                cached = counts.astype(np.float64)
            else:
                lengths = np.diff(offsets)
                keep = np.repeat(weights > 0.0, lengths)
                cached = np.bincount(
                    members[keep],
                    weights=np.repeat(weights, lengths)[keep],
                    minlength=self.num_nodes)
                cached = cached.astype(np.float64, copy=False)
            self._gains0 = cached
        return cached.copy()

    def covered_weight(self, seeds: Iterable[int]) -> float:
        """Total weight of RR sets hit by ``seeds`` (``M_R(S)``)."""
        weights = self._packed()[2]
        covered = np.zeros(self.num_sets, dtype=bool)
        inv_offsets, inv_sets = self._inverted()
        for node in seeds:
            node = int(node)
            if 0 <= node < self.num_nodes:
                covered[inv_sets[inv_offsets[node]:inv_offsets[node + 1]]] \
                    = True
        return float(weights[covered].sum())

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        """``F_R(S)``: covered weight divided by the number of RR sets."""
        if self.num_sets == 0:
            return 0.0
        return self.covered_weight(seeds) / self.num_sets

    def _greedy_order(self) -> "GreedyOrder":
        """The greedy state :func:`node_selection` resumes: a fresh one
        here, since a growable collection may change between calls."""
        return GreedyOrder()


@dataclass
class PackedRRBatch:
    """A batch of RR sets packed as one contiguous set-major CSR triple.

    This is the transport format of the sharded parallel builder: a worker
    packs every RR set of a shard into ``(offsets, nodes, weights)`` and
    ships three buffers — one pickle per shard instead of one per set —
    and the consumer splices them into an :class:`RRCollection` or a
    :class:`~repro.index.stream.StreamingIndexWriter` with a single bulk
    copy.  Iterating a batch yields the classic ``(nodes, weight)`` pairs,
    so any sink written against the pair protocol keeps working.

    Layout invariants (validated on construction): ``offsets`` is int64 of
    shape ``(num_sets + 1,)`` starting at 0 and non-decreasing,
    ``offsets[-1] == len(nodes)``, and ``weights`` is float64 of shape
    ``(num_sets,)``.  ``nodes`` keeps whatever (signed integer) id dtype
    the producer packed — workers narrow to
    :func:`min_id_dtype` to halve transport bytes.
    """

    offsets: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.nodes = np.ascontiguousarray(self.nodes)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if self.nodes.dtype.kind != "i":
            raise AlgorithmError(
                f"packed RR nodes must be a signed integer array, "
                f"got {self.nodes.dtype}")
        if len(self.offsets) != len(self.weights) + 1:
            raise AlgorithmError(
                f"packed RR offsets must have num_sets + 1 entries "
                f"({len(self.offsets)} offsets for {len(self.weights)} sets)")
        if len(self.offsets) == 0 or self.offsets[0] != 0 \
                or self.offsets[-1] != len(self.nodes) \
                or (len(self.offsets) > 1
                    and bool((np.diff(self.offsets) < 0).any())):
            raise AlgorithmError(
                "packed RR offsets must be non-decreasing, start at 0 and "
                "end at len(nodes)")

    @property
    def num_sets(self) -> int:
        """Number of RR sets in the batch (including empty ones)."""
        return len(self.weights)

    @property
    def num_members(self) -> int:
        """Total member entries across all sets."""
        return len(self.nodes)

    def __len__(self) -> int:
        return self.num_sets

    def __iter__(self):
        """Yield ``(nodes, weight)`` pairs (views into the packed buffers)."""
        offsets = self.offsets
        for index, weight in enumerate(self.weights.tolist()):
            yield self.nodes[offsets[index]:offsets[index + 1]], weight

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, id_dtype=np.int64) -> "PackedRRBatch":
        """A batch with zero sets."""
        return cls(np.zeros(1, dtype=np.int64),
                   np.empty(0, dtype=id_dtype),
                   np.empty(0, dtype=np.float64))

    @classmethod
    def from_arrays(cls, offsets, nodes, weights, *,
                    num_nodes: Optional[int] = None,
                    id_dtype=None) -> "PackedRRBatch":
        """Build a batch, optionally bounds-checking and narrowing ids.

        The bounds check runs at the incoming integer width *before* any
        narrowing to ``id_dtype``, so an out-of-range id can never wrap
        around an int32 cast into a valid-looking one (the same contract as
        ``RRCollection._as_members``).
        """
        nodes = np.asarray(nodes)
        if num_nodes is not None and len(nodes) \
                and (int(nodes.min()) < 0
                     or int(nodes.max()) >= int(num_nodes)):
            raise AlgorithmError(
                f"RR-set members must be node ids in [0, {int(num_nodes)})")
        if id_dtype is not None:
            nodes = nodes.astype(np.dtype(id_dtype), copy=False)
        return cls(np.asarray(offsets), nodes, np.asarray(weights))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[np.ndarray, float]], *,
                   num_nodes: Optional[int] = None,
                   id_dtype=None) -> "PackedRRBatch":
        """Pack ``(nodes, weight)`` pairs into one contiguous batch."""
        arrays = []
        weights = []
        for nodes, weight in pairs:
            arrays.append(np.asarray(nodes, dtype=np.int64).ravel())
            weights.append(float(weight))
        lengths = np.array([len(nodes) for nodes in arrays], dtype=np.int64)
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        nodes = np.concatenate(arrays) if arrays \
            else np.empty(0, dtype=np.int64)
        return cls.from_arrays(offsets, nodes,
                               np.array(weights, dtype=np.float64),
                               num_nodes=num_nodes, id_dtype=id_dtype)

    @classmethod
    def concat(cls, batches: Sequence["PackedRRBatch"]) -> "PackedRRBatch":
        """Concatenate batches in order (shard order → set order)."""
        batches = [batch for batch in batches if batch is not None]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        total_sets = sum(batch.num_sets for batch in batches)
        offsets = np.zeros(total_sets + 1, dtype=np.int64)
        position = 0
        base = 0
        for batch in batches:
            offsets[position + 1:position + 1 + batch.num_sets] = \
                base + batch.offsets[1:]
            position += batch.num_sets
            base += batch.num_members
        nodes = np.concatenate([batch.nodes for batch in batches])
        weights = np.concatenate([batch.weights for batch in batches])
        return cls(offsets, nodes, weights)


#: initial buffer capacities (sets / member entries) before doubling kicks in
_INITIAL_SETS = 16
_INITIAL_MEMBERS = 64


class RRCollection(PackedCoverage):
    """A growable, CSR-packed collection of (possibly weighted) RR sets.

    Members live in flat integer/float64 buffers grown by amortized
    doubling: ``add`` and ``extend`` are O(amortized size of the appended
    sets), and the node → sets inverted index is rebuilt lazily (one stable
    argsort) the first time it is needed after an append.

    The member dtype adapts to the node count (``id_dtype=None`` picks
    :func:`min_id_dtype` — ``int32`` below ``2**31`` nodes) which halves
    the member buffer at every realistic scale; pass ``id_dtype=np.int64``
    to force the historical wide layout.  Offsets and weights stay
    ``int64``/``float64`` regardless.

    Empty RR sets (as produced by marginal sampling when the reverse BFS
    hits the fixed seed set) still count towards :attr:`num_sets` — they can
    never be covered, which is exactly what makes coverage estimates
    marginal.
    """

    def __init__(self, num_nodes: int, id_dtype=None) -> None:
        self._num_nodes = int(num_nodes)
        if id_dtype is None:
            id_dtype = min_id_dtype(self._num_nodes)
        id_dtype = np.dtype(id_dtype)
        if id_dtype.kind != "i":
            raise AlgorithmError(
                f"id_dtype must be a signed integer dtype, got {id_dtype}")
        if self._num_nodes > np.iinfo(id_dtype).max:
            raise AlgorithmError(
                f"id_dtype {id_dtype} cannot address {self._num_nodes} nodes")
        self._id_dtype = id_dtype
        self._num_sets = 0
        self._num_members = 0
        self._offsets = np.zeros(_INITIAL_SETS + 1, dtype=np.int64)
        self._members = np.empty(_INITIAL_MEMBERS, dtype=id_dtype)
        self._weights = np.empty(_INITIAL_SETS, dtype=np.float64)
        self._total_weight = 0.0
        self._inv: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._gains0: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of graph nodes the collection refers to."""
        return self._num_nodes

    @property
    def num_sets(self) -> int:
        """Number of RR sets generated so far (including empty ones)."""
        return self._num_sets

    @property
    def total_weight(self) -> float:
        """Sum of the weights of all (non-empty and empty) RR sets."""
        return self._total_weight

    # ------------------------------------------------------------------
    # the packed-coverage protocol
    # ------------------------------------------------------------------
    def _packed(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self._offsets[:self._num_sets + 1],
                self._members[:self._num_members],
                self._weights[:self._num_sets])

    def _inverted(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._inv is None:
            offsets, members, weights = self._packed()
            self._inv = build_inverted_csr(offsets, members, weights,
                                           self._num_nodes)
        return self._inv

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _reserve_sets(self, extra: int) -> None:
        need = self._num_sets + extra
        capacity = len(self._weights)
        if need <= capacity:
            return
        capacity = max(capacity, 1)  # _from_packed may install empty buffers
        while capacity < need:
            capacity *= 2
        offsets = np.zeros(capacity + 1, dtype=np.int64)
        offsets[:self._num_sets + 1] = self._offsets[:self._num_sets + 1]
        self._offsets = offsets
        weights = np.empty(capacity, dtype=np.float64)
        weights[:self._num_sets] = self._weights[:self._num_sets]
        self._weights = weights

    def _reserve_members(self, extra: int) -> None:
        need = self._num_members + extra
        capacity = len(self._members)
        if need <= capacity:
            return
        capacity = max(capacity, 1)  # _from_packed may install empty buffers
        while capacity < need:
            capacity *= 2
        members = np.empty(capacity, dtype=self._id_dtype)
        members[:self._num_members] = self._members[:self._num_members]
        self._members = members

    def _as_members(self, nodes) -> np.ndarray:
        # bounds-check at full width BEFORE narrowing, so an out-of-range
        # id can never wrap around an int32 cast into a valid-looking one
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self._num_nodes):
            raise AlgorithmError(
                f"RR-set members must be node ids in [0, {self._num_nodes})")
        return nodes.astype(self._id_dtype, copy=False)

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def add(self, nodes: np.ndarray, weight: float = 1.0) -> None:
        """Append one RR set with the given weight."""
        nodes = self._as_members(nodes)
        weight = float(weight)
        self._reserve_sets(1)
        self._reserve_members(len(nodes))
        start = self._num_members
        self._members[start:start + len(nodes)] = nodes
        self._num_members += len(nodes)
        self._weights[self._num_sets] = weight
        self._num_sets += 1
        self._offsets[self._num_sets] = self._num_members
        self._total_weight += weight
        if weight > 0.0 and len(nodes):
            # empty/zero-weight sets are never indexed and never gain
            self._inv = None
            self._gains0 = None

    def extend(self, sets: Iterable[Tuple[np.ndarray, float]]) -> None:
        """Append many ``(nodes, weight)`` pairs in one batch.

        Equivalent to calling :meth:`add` per pair but the member buffer is
        filled with one concatenate.  A :class:`PackedRRBatch` takes the
        zero-copy splice of :meth:`extend_packed` — the merge path of the
        sharded parallel builder.
        """
        if isinstance(sets, PackedRRBatch):
            self.extend_packed(sets)
            return
        pairs = [(self._as_members(nodes), float(weight))
                 for nodes, weight in sets]
        if not pairs:
            return
        lengths = np.array([len(nodes) for nodes, _ in pairs],
                           dtype=np.int64)
        width = int(lengths.sum())
        self._reserve_sets(len(pairs))
        self._reserve_members(width)
        start = self._num_members
        if width:
            chunks = [nodes for nodes, _ in pairs if len(nodes)]
            self._members[start:start + width] = np.concatenate(chunks)
        self._offsets[self._num_sets + 1:self._num_sets + 1 + len(pairs)] \
            = start + np.cumsum(lengths)
        new_weights = np.array([weight for _, weight in pairs],
                               dtype=np.float64)
        self._weights[self._num_sets:self._num_sets + len(pairs)] \
            = new_weights
        self._num_sets += len(pairs)
        self._num_members += width
        # sequential accumulation: bit-identical to repeated add() calls
        # (tolist() keeps the running total a Python float, like add does)
        for weight in new_weights.tolist():
            self._total_weight += weight
        if np.any((new_weights > 0.0) & (lengths > 0)):
            self._inv = None
            self._gains0 = None

    def extend_packed(self, batch: PackedRRBatch) -> None:
        """Splice a :class:`PackedRRBatch` with one bulk CSR copy.

        Bit-identical to :meth:`extend` over the batch's ``(nodes,
        weight)`` pairs — offsets, members, weights and the sequentially
        accumulated total land byte for byte the same — but the member
        buffer is written with a single slice assignment and the offsets
        with one shifted copy, no per-set Python loop.
        """
        new_sets = batch.num_sets
        if new_sets == 0:
            return
        nodes = batch.nodes
        # bounds-check at the batch's full width BEFORE narrowing (the
        # same wrap-around guard as _as_members)
        if len(nodes) and (int(nodes.min()) < 0
                           or int(nodes.max()) >= self._num_nodes):
            raise AlgorithmError(
                f"RR-set members must be node ids in [0, {self._num_nodes})")
        nodes = nodes.astype(self._id_dtype, copy=False)
        width = batch.num_members
        self._reserve_sets(new_sets)
        self._reserve_members(width)
        start = self._num_members
        if width:
            self._members[start:start + width] = nodes
        self._offsets[self._num_sets + 1:self._num_sets + 1 + new_sets] \
            = start + batch.offsets[1:]
        self._weights[self._num_sets:self._num_sets + new_sets] \
            = batch.weights
        self._num_sets += new_sets
        self._num_members += width
        # sequential accumulation: bit-identical to repeated add() calls
        for weight in batch.weights.tolist():
            self._total_weight += weight
        if np.any((batch.weights > 0.0) & (np.diff(batch.offsets) > 0)):
            self._inv = None
            self._gains0 = None

    # ------------------------------------------------------------------
    def average_set_size(self) -> float:
        """Mean number of nodes per RR set (empty sets included).

        O(1): the member and set counters are maintained by ``add`` and
        ``extend`` rather than re-scanned per call.
        """
        if self._num_sets == 0:
            return 0.0
        return self._num_members / self._num_sets

    def freeze(self, meta=None, compact: bool = False) -> "FrozenRRIndex":
        """Freeze into an immutable :class:`FrozenRRIndex`, zero-copy.

        The frozen index receives trimmed *views* of the packed buffers
        (and the cached inverted CSR, when built), so freezing costs O(1)
        beyond any pending inverted-index build.  Later appends to this
        collection never mutate existing entries — doubling reallocates and
        in-place appends only write past the frozen views — so the handoff
        is safe.

        The views pin the doubling-grown backing buffers (up to ~2x the
        live data).  Pass ``compact=True`` to copy-trim instead — the
        right call when the collection is discarded after freezing and the
        index is long-lived (the ``build_index`` → ``AllocationService``
        path).
        """
        from repro.index.frozen import FrozenRRIndex

        offsets, members, weights = self._packed()
        if compact:
            offsets, members, weights = (offsets.copy(), members.copy(),
                                         weights.copy())
        frozen = FrozenRRIndex(self._num_nodes, offsets, members, weights,
                               meta=meta, inverted=self._inv)
        if self._gains0 is not None:
            frozen._gains0 = self._gains0  # read-only cache, safe to share
        return frozen

    @classmethod
    def _from_packed(cls, num_nodes: int, offsets: np.ndarray,
                     members: np.ndarray,
                     weights: np.ndarray) -> "RRCollection":
        """Rebuild a growable collection around copies of packed arrays.

        The member dtype of the source arrays is preserved when it is a
        valid id dtype for ``num_nodes`` (so an int64 v1 index round-trips
        as int64); anything else is normalized to :func:`min_id_dtype`.
        """
        members = np.asarray(members)
        id_dtype = members.dtype
        if id_dtype.kind != "i" or \
                int(num_nodes) > np.iinfo(id_dtype).max:
            id_dtype = min_id_dtype(num_nodes)
        collection = cls(int(num_nodes), id_dtype=id_dtype)
        collection._offsets = np.array(offsets, dtype=np.int64)
        collection._members = np.array(members, dtype=id_dtype)
        collection._weights = np.array(weights, dtype=np.float64)
        collection._num_sets = len(collection._weights)
        collection._num_members = len(collection._members)
        total = 0.0
        for weight in collection._weights:
            total += weight
        collection._total_weight = float(total)
        return collection


@dataclass
class SelectionResult:
    """Greedy node-selection outcome.

    ``seeds`` is ordered by selection, so its length-``k'`` prefixes are the
    greedy solutions for every smaller budget — the property PRIMA+'s prefix
    preservation relies on.  ``covered_weight`` is ``M_R(S)`` for the full
    seed list, and ``prefix_weights[i]`` the coverage of the first ``i + 1``
    seeds.

    ``saturated_at`` is the number of seeds that had positive marginal
    gain: ``seeds[saturated_at:]`` (present only under the default
    ``on_saturation="pad"``) cover nothing, and under
    ``on_saturation="stop"`` the selection was truncated there
    (``saturated_at == len(seeds)``).  ``None`` means the selection never
    saturated within its budget.
    """

    seeds: List[int]
    covered_weight: float
    prefix_weights: List[float]
    saturated_at: Optional[int] = None

    def prefix(self, k: int) -> List[int]:
        """First ``k`` selected seeds."""
        return self.seeds[:k]


class GreedyOrder:
    """The greedy loop's state after ``len(seeds)`` picks.

    Nothing in it depends on the target ``k`` — the working gains (picked
    nodes hold ``-inf``), the covered-set mask, the running covered
    weight, the picks in order, their prefix weights and ``saturated_at``
    — so the loop can stop after any pick and resume later, and every
    :class:`SelectionResult` is a prefix of one order.  The state follows
    the padded order: the first pick that covers nothing is recorded even
    under ``on_saturation="stop"``, which only cuts answers there.

    A growable :class:`RRCollection` hands every :func:`node_selection`
    call a fresh order (the collection may grow between calls); a
    :class:`~repro.index.frozen.FrozenRRIndex` keeps one order for its
    lifetime and extends it under :attr:`lock`.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._clear()

    def _clear(self) -> None:
        #: working gains and covered mask, allocated by the first extension
        self.gains: Optional[np.ndarray] = None
        self.covered: Optional[np.ndarray] = None
        self.seeds: List[int] = []
        self.prefix_weights: List[float] = []
        self.total = 0.0
        self.saturated_at: Optional[int] = None

    def extend(self, coverage: PackedCoverage, k: int, stop: bool) -> None:
        """Run the greedy loop until the order holds ``k`` picks — or,
        with ``stop``, until a pick covers nothing.  A no-op when it
        already does; otherwise one ``repro_selection_seconds``
        observation per phase."""
        if len(self.seeds) >= k or (stop and self.saturated_at is not None):
            return
        started = time.perf_counter()
        offsets, members, weights = coverage._packed()
        inv_offsets, inv_sets = coverage._inverted()
        if self.gains is None:
            # a fresh copy: the loop excludes picked nodes by writing -inf
            # into it, never into the collection's cached initial gains
            self.gains = coverage.initial_gains()
            self.covered = np.zeros(coverage.num_sets, dtype=bool)
        gains, covered = self.gains, self.covered
        selected, prefix_weights = self.seeds, self.prefix_weights
        total, saturated_at = self.total, self.saturated_at
        loop_started = time.perf_counter()
        _observe_selection("gains_init", loop_started - started)
        try:
            while len(selected) < k:
                candidate = int(np.argmax(gains))
                gains[candidate] = -np.inf
                postings = inv_sets[inv_offsets[candidate]:
                                    inv_offsets[candidate + 1]]
                new = postings[~covered[postings]]
                if len(new) > 1:
                    # a duplicated member would duplicate its posting;
                    # postings are ascending, so dropping adjacent repeats
                    # counts each newly covered set exactly once
                    keep = np.ones(len(new), dtype=bool)
                    np.not_equal(new[1:], new[:-1], out=keep[1:])
                    new = new[keep]
                if len(new):
                    covered[new] = True
                    starts = offsets[new]
                    lengths = offsets[new + 1] - starts
                    width = int(lengths.sum())
                    # gather the concatenated members of the newly covered
                    # sets: for each set a contiguous member range,
                    # expanded CSR-style
                    positions = np.arange(width, dtype=np.int64) \
                        + np.repeat(starts - (np.cumsum(lengths) - lengths),
                                    lengths)
                    np.subtract.at(gains, members[positions],
                                   np.repeat(weights[new], lengths))
                    # per-set sequential accumulation (np.sum's pairwise
                    # reduction would round differently from the reference
                    # loop)
                    for weight in weights[new]:
                        total += weight
                elif saturated_at is None:
                    saturated_at = len(selected)
                selected.append(candidate)
                prefix_weights.append(total)
                if stop and saturated_at is not None:
                    break
        except BaseException:
            # a half-committed pick would corrupt every later answer
            self._clear()
            raise
        self.total, self.saturated_at = total, saturated_at
        finished = time.perf_counter()
        _observe_selection("select_loop", finished - loop_started)
        _observe_selection("total", finished - started)

    def result(self, k: int, stop: bool) -> SelectionResult:
        """The selection of ``k`` seeds, in fresh lists: the order's first
        ``k`` picks, cut at ``saturated_at`` under ``stop``.  The order
        must already hold them (see :meth:`extend`)."""
        saturated_at = self.saturated_at
        if saturated_at is not None and saturated_at >= k:
            saturated_at = None  # saturation set in past this budget
        end = saturated_at if stop and saturated_at is not None else k
        prefix_weights = self.prefix_weights[:end]
        return SelectionResult(
            seeds=self.seeds[:end],
            covered_weight=prefix_weights[-1] if prefix_weights else 0.0,
            prefix_weights=prefix_weights, saturated_at=saturated_at)


def node_selection(collection, k: int,
                   on_saturation: str = SATURATION_PAD) -> SelectionResult:
    """Greedy weighted maximum coverage (Algorithm 5, ``NodeSelection``).

    Selects ``k`` nodes one at a time, each maximizing the additional
    weight of newly covered RR sets, with exact gains throughout (the
    loop is described in the module docstring).

    Parameters
    ----------
    collection:
        A growable :class:`RRCollection` or a frozen
        :class:`~repro.index.frozen.FrozenRRIndex` — any
        :class:`PackedCoverage` — so selections over a frozen index are
        bit-identical to selections over the collection it was built from.
        A growable collection runs a fresh :class:`GreedyOrder` to ``k``;
        a frozen index answers from the one order it keeps, extending it
        only when ``k`` reaches past it.
    on_saturation:
        The stop-or-pad rule (see the module docstring): ``"pad"`` (the
        default, preserving PRIMA+'s always-``k``-seeds prefix semantics)
        or ``"stop"``.
    """
    if k < 0:
        raise AlgorithmError("k must be >= 0")
    if on_saturation not in _SATURATION_MODES:
        raise AlgorithmError(
            f"unknown on_saturation mode {on_saturation!r}; "
            f"expected one of {list(_SATURATION_MODES)}")
    k = min(int(k), collection.num_nodes)
    stop = on_saturation == SATURATION_STOP
    order = collection._greedy_order()
    with order.lock:
        order.extend(collection, k, stop)
        return order.result(k, stop)


__all__ = [
    "SATURATION_PAD",
    "SATURATION_STOP",
    "min_id_dtype",
    "min_set_dtype",
    "build_inverted_csr",
    "PackedCoverage",
    "PackedRRBatch",
    "RRCollection",
    "SelectionResult",
    "GreedyOrder",
    "node_selection",
]
