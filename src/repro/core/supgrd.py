"""SupGRD (paper §5.3) — constant-factor welfare maximization for the
superior-item special case.

SupGRD applies when (i) the item universe has a *superior item* ``i_m``
whose utility beats every other item under any noise realisation, (ii) the
seeds of all inferior items are already fixed (``I_2 = {i_m}``), and (iii)
items are in pure competition.  Under these conditions the welfare is
monotone and submodular in the superior item's seed set (Lemmas 4 and 5),
so an IMM-style algorithm over *weighted RR sets* (Definition 2) achieves a
``(1 - 1/e - ε)``-approximation (Theorem 5).

A weighted RR set's weight is the welfare gained if its root switches from
the best fixed item reaching it to ``i_m``; covering the sampled sets with
``b_{i_m}`` seeds therefore estimates the marginal welfare directly
(Lemma 6), and the sampling bounds of IMM apply with the search upper bound
``UB = n · U⁺(i_m)``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.allocation import Allocation
from repro.core.results import AllocationResult, degenerate_result
from repro.diffusion.estimators import estimate_welfare
from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.coverage import node_selection
from repro.rrsets.imm import IMMOptions, rr_stream, run_imm_engine
from repro.rrsets.rrset import WeightedRRSampler
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, ensure_rng

#: index sampler kinds a prebuilt-index SupGRD run accepts (``None``:
#: indexes whose manifest predates the sampler field)
INDEX_SAMPLERS = (None, "weighted")


def supgrd(graph: DirectedGraph, model: UtilityModel,
           budget: int,
           fixed_allocation: Allocation,
           superior_item: Optional[str] = None,
           enforce_preconditions: bool = True,
           options: Optional[IMMOptions] = None,
           evaluate_welfare: bool = False,
           n_evaluation_samples: int = 500,
           rng: RngLike = None,
           engine: Optional[str] = None,
           workers: Optional[int] = None,
           index: Optional["FrozenRRIndex"] = None,
           keep_rr_collection: bool = False) -> AllocationResult:
    """Select ``budget`` seeds for the superior item on top of ``S_P``.

    Parameters
    ----------
    graph, model:
        The CWelMax instance.
    budget:
        Budget ``b_{i_m}`` of the superior item.
    fixed_allocation:
        Fixed allocation of the inferior items (``S_P``).
    superior_item:
        Name of the superior item; inferred from the model's noise bounds
        when omitted.
    enforce_preconditions:
        When ``True`` (default) the preconditions of Theorem 5 are checked
        and violations raise :class:`AlgorithmError`; ``False`` lets callers
        run SupGRD as a heuristic outside its guaranteed regime.
    workers:
        Worker processes sampling the weighted RR sets of
        :func:`~repro.rrsets.imm.rr_stream`'s SeedSequence shards;
        ``None`` samples the same shards in process, so the results are
        identical for every worker count at a fixed seed.
    index:
        A prebuilt weighted :class:`~repro.index.frozen.FrozenRRIndex`.
        Sampling is skipped entirely — seeds come from one greedy coverage
        selection over the index, reproducing the allocation of the build
        run in milliseconds.
    keep_rr_collection:
        Record the final RR collection in
        ``result.details["rr_collection"]`` so it can be frozen into a
        persistent index.
    """
    rng = ensure_rng(rng)
    options = options or IMMOptions()
    if budget < 0:
        raise AlgorithmError("budget must be >= 0")

    if superior_item is None:
        superior_item = model.superior_item()
        if superior_item is None:
            raise AlgorithmError(
                "the utility model has no certifiable superior item; pass "
                "superior_item explicitly or use SeqGRD/MaxGRD")
    else:
        model.catalog.index(superior_item)

    if enforce_preconditions:
        _check_preconditions(model, superior_item, fixed_allocation)

    if graph.num_nodes == 0 or budget == 0:
        # degenerate inputs: nothing to seed — mirror the budget == 0
        # behaviour instead of letting the samplers crash on an empty graph
        return degenerate_result(
            graph, model, fixed_allocation, "SupGRD",
            evaluate_welfare, n_evaluation_samples, rng, engine,
            details={"superior_item": superior_item, "num_rr_sets": 0,
                     "zero_budget": budget == 0,
                     "empty_graph": graph.num_nodes == 0})

    if index is not None:
        return _serve_from_index(graph, model, budget, fixed_allocation,
                                 superior_item, index, evaluate_welfare,
                                 n_evaluation_samples, rng, engine)

    start = time.perf_counter()
    sampler_state = WeightedRRSampler(graph, model, superior_item,
                                      fixed_allocation, rng=rng)
    superior_utility = sampler_state.superior_utility
    if superior_utility <= 0.0:
        # the superior item can never be adopted with positive utility
        allocation = Allocation.empty()
        runtime = time.perf_counter() - start
        return AllocationResult(allocation, fixed_allocation, "SupGRD",
                                runtime_seconds=runtime,
                                details={"superior_item": superior_item,
                                         "num_rr_sets": 0})

    # the context manager releases the (registry-warm) worker pool even
    # when the IMM engine raises
    with rr_stream(graph, "weighted", rng, engine, workers,
                   node_block_utility=sampler_state.node_block_utility,
                   superior_utility=superior_utility) as sample:
        imm_result = run_imm_engine(
            graph.num_nodes, budget, sample,
            max_value=float(graph.num_nodes) * superior_utility,
            options=options, keep_collection=keep_rr_collection)
    allocation = Allocation({superior_item: imm_result.seeds}) \
        if imm_result.seeds else Allocation.empty()
    runtime = time.perf_counter() - start

    estimated = None
    if evaluate_welfare:
        estimated = estimate_welfare(graph, model,
                                     allocation.union(fixed_allocation),
                                     n_samples=n_evaluation_samples,
                                     rng=rng, engine=engine).mean
    details = {
        "superior_item": superior_item,
        "superior_truncated_utility": superior_utility,
        "estimated_marginal_welfare": imm_result.estimated_value,
        "num_rr_sets": imm_result.num_rr_sets,
        "lower_bound": imm_result.lower_bound,
        "cap_hit": imm_result.cap_hit,
    }
    if keep_rr_collection:
        details["rr_collection"] = imm_result.collection
    return AllocationResult(
        allocation=allocation,
        fixed_allocation=fixed_allocation,
        algorithm="SupGRD",
        estimated_welfare=estimated,
        runtime_seconds=runtime,
        details=details,
    )


def _serve_from_index(graph: DirectedGraph, model: UtilityModel, budget: int,
                      fixed_allocation: Allocation, superior_item: str,
                      index, evaluate_welfare: bool,
                      n_evaluation_samples: int, rng, engine: Optional[str]
                      ) -> AllocationResult:
    """Answer a SupGRD query from a prebuilt weighted RR-set index.

    One greedy coverage selection over the frozen collection — the same
    ``node_selection`` the build ran — so the served seeds are bit-identical
    to the build-time allocation (for the built budget) or its greedy
    prefix (for smaller budgets).  ``cap_hit`` is the one the build
    recorded in the manifest.
    """
    if index.num_nodes != graph.num_nodes:
        raise AlgorithmError(
            f"the index covers {index.num_nodes} nodes but the graph has "
            f"{graph.num_nodes}; rebuild the index")
    kind = index.meta.get("sampler")
    if kind not in INDEX_SAMPLERS:
        raise AlgorithmError(
            f"SupGRD needs a weighted RR-set index, got {kind!r}")
    start = time.perf_counter()
    selection = node_selection(index, budget)
    allocation = Allocation({superior_item: selection.seeds}) \
        if selection.seeds else Allocation.empty()
    scale = graph.num_nodes / max(index.num_sets, 1)
    runtime = time.perf_counter() - start
    estimated = None
    if evaluate_welfare:
        estimated = estimate_welfare(graph, model,
                                     allocation.union(fixed_allocation),
                                     n_samples=n_evaluation_samples,
                                     rng=rng, engine=engine).mean
    return AllocationResult(
        allocation=allocation,
        fixed_allocation=fixed_allocation,
        algorithm="SupGRD",
        estimated_welfare=estimated,
        runtime_seconds=runtime,
        details={
            "superior_item": superior_item,
            "superior_truncated_utility": index.meta.get("superior_utility"),
            "estimated_marginal_welfare": selection.covered_weight * scale,
            "num_rr_sets": index.num_sets,
            "cap_hit": bool(index.meta.get("cap_hit", False)),
            "served_from_index": True,
        },
    )


def _check_preconditions(model: UtilityModel, superior_item: str,
                         fixed_allocation: Allocation) -> None:
    """Validate the three conditions required by Theorem 5."""
    certified = model.superior_item()
    if certified is None:
        raise AlgorithmError(
            "SupGRD requires bounded noise and a superior item; the model "
            "cannot certify one (set enforce_preconditions=False to run "
            "SupGRD as a heuristic)")
    if certified != superior_item:
        raise AlgorithmError(
            f"item {superior_item!r} is not the superior item; the model "
            f"certifies {certified!r}")
    inferior = [name for name in model.items if name != superior_item]
    missing = [item for item in inferior
               if not fixed_allocation.seeds_for(item)]
    if missing and inferior:
        # all inferior items must have fixed seeds (I2 = {i_m}); items with
        # zero budget everywhere are tolerated only if explicitly absent
        raise AlgorithmError(
            f"SupGRD requires the seeds of every inferior item to be fixed; "
            f"missing allocations for {missing}")
    if superior_item in fixed_allocation.items:
        raise AlgorithmError(
            "the superior item must not already be allocated in S_P")
    if not model.is_pure_competition():
        raise AlgorithmError(
            "SupGRD requires pure competition between all items "
            "(every multi-item bundle must have negative utility)")


from repro.api.registry import RunContext, register_algorithm  # noqa: E402


@register_algorithm("SupGRD", order=3, supports_index=True,
                    supports_workers=True, single_item=True)
def _run_supgrd(ctx: RunContext):
    if len(ctx.budgets) != 1:
        raise AlgorithmError("SupGRD allocates exactly one item")
    # the one item narrow_single_item_budgets kept: the item the served
    # route allocates too, even when the spec's superior_item has no budget
    ((item, budget),) = ctx.budgets.items()
    return supgrd(ctx.graph, ctx.model, budget, ctx.fixed_allocation,
                  superior_item=item,
                  enforce_preconditions=False,
                  options=ctx.options, rng=ctx.rng, engine=ctx.engine,
                  workers=ctx.workers, index=ctx.index)


__all__ = ["supgrd"]
