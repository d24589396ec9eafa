"""Allocation-query serving against a shared, prebuilt RR-set index.

Once a :class:`~repro.index.frozen.FrozenRRIndex` is built (minutes of
sampling), every allocation query against it is a greedy maximum-coverage
selection (milliseconds).  :class:`AllocationService` is the serving layer:

* it answers ``(algorithm, budgets)`` queries via the existing
  :func:`~repro.rrsets.coverage.node_selection` greedy — through
  ``seqgrd``/``supgrd`` with the prebuilt index, so served allocations are
  identical to direct runs;
* every answer is a prefix of the one greedy order the index keeps (the
  greedy's prefix property makes any smaller budget a prefix of a larger
  one): the order lives on the index, not the service, so direct runs
  over the same index object share it, and it is extended only when a
  budget reaches past it;
* repeated queries hit an LRU result cache, which is not thread-safe:
  ``query`` runs on the service's execution thread.

The JSON-lines dialects of ``repro serve`` live in
:class:`repro.serve.AllocationServer`, whose one execution step answers
both of them from :meth:`AllocationService.query` on its worker thread.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.allocation import Allocation
from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.index.frozen import FrozenRRIndex
from repro.rrsets.coverage import node_selection
from repro.utility.model import UtilityModel

#: algorithms the service can answer (aliases normalized by _normalize)
SERVICE_ALGORITHMS = ("select", "SeqGRD-NM", "SupGRD")

_ALIASES = {
    "select": "select",
    "topk": "select",
    "imm": "select",
    "seqgrd-nm": "SeqGRD-NM",
    "seqgrdnm": "SeqGRD-NM",
    "supgrd": "SupGRD",
}

QueryKey = Tuple[str, Tuple[Tuple[str, int], ...]]


class AllocationService:
    """Serve repeated allocation queries from one loaded RR-set index.

    Parameters
    ----------
    index:
        The shared :class:`FrozenRRIndex` (typically ``FrozenRRIndex.load``
        output, fingerprint-verified by the caller).
    graph, model:
        The live CWelMax instance; required for the ``SeqGRD-NM`` and
        ``SupGRD`` algorithms (item ordering and result assembly), optional
        for plain ``select`` queries.
    fixed_allocation:
        The fixed allocation ``S_P`` the index was built against.
    cache_size:
        Maximum number of distinct query results kept in the LRU cache.
    """

    def __init__(self, index: FrozenRRIndex,
                 graph: Optional[DirectedGraph] = None,
                 model: Optional[UtilityModel] = None,
                 fixed_allocation: Optional[Allocation] = None,
                 cache_size: int = 128) -> None:
        if graph is not None and graph.num_nodes != index.num_nodes:
            raise AlgorithmError(
                f"index covers {index.num_nodes} nodes but the graph has "
                f"{graph.num_nodes}; rebuild the index")
        self._index = index
        self._graph = graph
        self._model = model
        self._fixed = fixed_allocation or Allocation.empty()
        self._cache: "OrderedDict[QueryKey, Dict[str, Any]]" = OrderedDict()
        self._cache_size = max(0, int(cache_size))
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    @property
    def index(self) -> FrozenRRIndex:
        """The shared index queries are answered from."""
        return self._index

    @property
    def graph(self) -> Optional[DirectedGraph]:
        """The live graph (None for index-only services)."""
        return self._graph

    @property
    def model(self) -> Optional[UtilityModel]:
        """The live utility model (None for index-only services)."""
        return self._model

    @property
    def cache_stats(self) -> Dict[str, Any]:
        """Query-LRU statistics; the cache is bounded by ``cache_size``
        *entries* (the eviction counter is the regression surface for
        that cap)."""
        return {"hits": self._hits, "misses": self._misses,
                "size": len(self._cache), "capacity": self._cache_size,
                "evictions": self._evictions}

    @property
    def memory_stats(self) -> Dict[str, Any]:
        """Index memory accounting, measured from the arrays themselves.

        ``array_bytes`` sums ``nbytes`` over every index array (so int32
        stores report half the member bytes of int64 ones — nothing here
        assumes 8-byte ids); ``resident_bytes`` excludes memory-mapped
        arrays, whose pages live in the reclaimable page cache.
        """
        return {"array_bytes": self._index.array_nbytes(),
                "resident_bytes": self._index.resident_nbytes(),
                "mmapped": self._index.mmapped}

    # ------------------------------------------------------------------
    def query(self, algorithm: str = "select",
              budgets: Optional[Mapping[str, int]] = None,
              k: Optional[int] = None) -> Dict[str, Any]:
        """Answer one allocation query.

        Returns a JSON-serializable payload with the allocation, the
        coverage-based objective estimate and cache provenance
        (``cached=True`` when the result came from the LRU).
        """
        algorithm = self._normalize(algorithm)
        budgets = self._normalize_budgets(algorithm, budgets, k)
        key: QueryKey = (algorithm, tuple(sorted(budgets.items())))
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            self._cache.move_to_end(key)
            return dict(cached, cached=True)
        self._misses += 1
        payload = self._answer(algorithm, budgets)
        if self._cache_size:
            self._cache[key] = payload
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self._evictions += 1
        return dict(payload, cached=False)

    # ------------------------------------------------------------------
    def _normalize(self, algorithm: str) -> str:
        normalized = _ALIASES.get(str(algorithm).strip().lower())
        if normalized is None:
            raise AlgorithmError(
                f"unknown service algorithm {algorithm!r}; "
                f"expected one of {list(SERVICE_ALGORITHMS)}")
        return normalized

    def _normalize_budgets(self, algorithm: str,
                           budgets: Optional[Mapping[str, int]],
                           k: Optional[int]) -> Dict[str, int]:
        if budgets:
            out = {str(item): int(b) for item, b in budgets.items()}
        elif k is not None:
            if algorithm == "select":
                out = {"seeds": int(k)}
            elif algorithm == "SupGRD":
                item = self._index.meta.get("superior_item")
                if item is None:
                    raise AlgorithmError(
                        "a SupGRD query without budgets needs the index "
                        "manifest to record the superior item")
                out = {str(item): int(k)}
            else:
                raise AlgorithmError(
                    f"{algorithm} queries need per-item budgets")
        else:
            out = {str(item): int(b) for item, b
                   in (self._index.meta.get("budgets") or {}).items()}
        if not out or any(b < 0 for b in out.values()):
            raise AlgorithmError(
                "queries need a positive budget (per item or k)")
        return out

    def _answer(self, algorithm: str,
                budgets: Dict[str, int]) -> Dict[str, Any]:
        index = self._index
        scale = index.num_nodes / max(index.num_sets, 1)
        if algorithm == "select":
            k = max(budgets.values())
            selection = node_selection(index, k)
            item = next(iter(budgets))
            allocation = {item: list(selection.seeds)}
            value = selection.covered_weight * scale
            extra: Dict[str, Any] = {}
        elif algorithm == "SupGRD":
            from repro.core.supgrd import supgrd

            self._require_instance(algorithm)
            if len(budgets) != 1:
                raise AlgorithmError("SupGRD allocates exactly one item")
            ((item, budget),) = budgets.items()
            result = supgrd(self._graph, self._model, budget, self._fixed,
                            superior_item=item, enforce_preconditions=False,
                            index=index, rng=0)
            allocation = {name: list(nodes) for name, nodes
                          in result.allocation.as_dict().items()}
            value = result.details.get("estimated_marginal_welfare", 0.0)
            extra = {"superior_item": item}
        else:  # SeqGRD-NM
            from repro.core.seqgrd import seqgrd_nm

            self._require_instance(algorithm)
            result = seqgrd_nm(self._graph, self._model, budgets,
                               self._fixed, index=index, rng=0)
            allocation = {name: list(nodes) for name, nodes
                          in result.allocation.as_dict().items()}
            value = result.details.get("pool_marginal_spread", 0.0)
            extra = {"item_order": result.details.get("item_order")}
        payload: Dict[str, Any] = {
            "algorithm": algorithm,
            "budgets": budgets,
            "allocation": allocation,
            "estimated_value": float(value),
            "num_rr_sets": index.num_sets,
        }
        payload.update(extra)
        return payload

    def _require_instance(self, algorithm: str) -> None:
        if self._graph is None or self._model is None:
            raise AlgorithmError(
                f"{algorithm} queries need the graph and utility model; "
                f"construct the AllocationService with both (repro serve "
                f"rebuilds them from the index manifest)")


__all__ = ["SERVICE_ALGORITHMS", "AllocationService"]
