"""Warm-started rolling re-allocation over a repairable index.

:class:`OnlineAllocator` couples an :class:`~repro.dynamic.repair.
RRRepairEngine` with the greedy :func:`~repro.rrsets.coverage.
node_selection` so a rolling campaign can re-allocate after every delta
batch without paying a cold selection each time.  Two warm-start levers,
both **exact** (the warm result is bit-identical to a cold selection
over the repaired index):

* **Zero-repair reuse** — when a delta repairs no RR sets (nothing
  touched, nothing re-rooted), the previous
  :class:`~repro.rrsets.coverage.SelectionResult` is still the answer
  and is returned without re-running the greedy, and the repaired index
  takes over the old index's greedy order: a selection over a frozen
  index is a prefix of the one order it keeps, so any other budget
  costs a slice or an extension, not a fresh greedy run.
* **Incremental initial gains** — the greedy loop starts from the
  per-node initial gains, whose one-pass bincount over all members is
  the dominant cost of a warm selection.  For unit-weight indexes
  (every set weighing 1.0 — the standard/IMM case) the allocator
  maintains those gains incrementally: subtract the repaired sets' old
  members, add their new ones, in exact int64 counts, which equals the
  fresh bincount bit-for-bit.  Non-unit weights fall back to a fresh
  lazy computation (still correct, just not pre-seeded).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.dynamic.delta import GraphDelta
from repro.dynamic.repair import RepairOutcome, RRRepairEngine
from repro.graphs.graph import DirectedGraph
from repro.index.frozen import FrozenRRIndex
from repro.rrsets.coverage import SelectionResult, node_selection


def _unit_weights(weights: np.ndarray) -> bool:
    return bool(np.all(weights == 1.0))


class OnlineAllocator:
    """Rolling (repair → re-allocate) loop over one repairable index.

    Parameters mirror :class:`RRRepairEngine`.
    """

    def __init__(self, index: FrozenRRIndex, graph: DirectedGraph,
                 model: Any = None) -> None:
        self._engine = RRRepairEngine(index, graph, model)
        self._gains0: Optional[np.ndarray] = None
        self._selection: Optional[SelectionResult] = None
        self._selection_k: Optional[int] = None
        #: observable warm-start accounting
        self.stats = {"allocations": 0, "warm_reuses": 0,
                      "gains_carried": 0, "repairs": 0}

    # ------------------------------------------------------------------
    @property
    def index(self) -> FrozenRRIndex:
        return self._engine.index

    @property
    def graph(self) -> DirectedGraph:
        return self._engine.graph

    # ------------------------------------------------------------------
    def allocate(self, k: int) -> SelectionResult:
        """Greedy selection of ``k`` seeds over the current index.

        Returns the cached result when nothing changed since the last
        call with the same budget; otherwise :func:`node_selection`
        slices the index's greedy order, whose first extension starts
        from the maintained initial gains.
        """
        k = int(k)
        if self._selection is not None and self._selection_k == k:
            self.stats["warm_reuses"] += 1
            return self._selection
        index = self._engine.index
        if self._gains0 is not None:
            # hand the maintained gains to the index's lazy cache: the
            # order's first extension starts from a copy of
            # initial_gains()
            index._gains0 = self._gains0
            self.stats["gains_carried"] += 1
        result = node_selection(index, k)
        self._gains0 = index._gains0  # computed (or reused) by the greedy
        self._selection, self._selection_k = result, k
        self.stats["allocations"] += 1
        return result

    def apply(self, delta: GraphDelta) -> RepairOutcome:
        """Repair the index under ``delta`` and update the warm state."""
        old_index = self._engine.index
        old_offsets, old_nodes, old_weights = old_index._packed()
        old_n = old_index.num_nodes
        outcome = self._engine.repair(delta)
        self.stats["repairs"] += 1
        if outcome.report.zero_delta:
            return outcome
        new_index = outcome.index
        if outcome.report.repaired_sets == 0 \
                and new_index.num_nodes == old_n:
            # same arrays, same graph size: selection, greedy order and
            # gains survive
            new_index._order = old_index._order
            if self._gains0 is not None:
                new_index._gains0 = self._gains0
            return outcome
        self._selection, self._selection_k = None, None
        self._gains0 = self._maintain_gains(
            old_offsets, old_nodes, old_weights, outcome)
        if self._gains0 is not None:
            new_index._gains0 = self._gains0
        return outcome

    # ------------------------------------------------------------------
    def _maintain_gains(self, old_offsets: np.ndarray,
                        old_nodes: np.ndarray, old_weights: np.ndarray,
                        outcome: RepairOutcome) -> Optional[np.ndarray]:
        """Exact incremental update of the initial-gains vector.

        Only for unit-weight collections (int64 counts are exact and
        associative, so subtract-old/add-new equals a fresh bincount
        bit-for-bit).  Returns ``None`` when no gains were being
        carried or the weights are not unit — the next selection
        recomputes lazily.
        """
        if self._gains0 is None:
            return None
        new_index = outcome.index
        new_offsets, new_nodes, new_weights = new_index._packed()
        if not (_unit_weights(old_weights) and _unit_weights(new_weights)):
            return None
        counts = np.zeros(new_index.num_nodes, dtype=np.int64)
        counts[:len(self._gains0)] = self._gains0.astype(np.int64)
        removed = [old_nodes[old_offsets[idx]:old_offsets[idx + 1]]
                   for idx in outcome.repaired_ids]
        added = [new_nodes[new_offsets[idx]:new_offsets[idx + 1]]
                 for idx in outcome.repaired_ids]
        if removed:
            counts -= np.bincount(
                np.concatenate(removed).astype(np.int64),
                minlength=len(counts)).astype(np.int64)
        if added:
            counts += np.bincount(
                np.concatenate(added).astype(np.int64),
                minlength=len(counts)).astype(np.int64)
        return counts.astype(np.float64)


__all__ = ["OnlineAllocator"]
