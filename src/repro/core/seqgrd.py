"""SeqGRD and SeqGRD-NM (paper Algorithm 1).

SeqGRD selects one pool of ``Σ b_i`` seed nodes with PRIMA+ (approximately
optimal *marginal* spread on top of the fixed allocation ``S_P``), sorts the
unallocated items by expected truncated utility, and hands the highest-
utility items the top seeds.  An optional *marginal check* simulates whether
adding an item's allocation actually increases welfare — skipping (for now)
items that would block higher-utility items — and afterwards appends every
skipped item so all budgets are exhausted, which is what the
``u_min/u_max · (1 - 1/e - ε)`` guarantee of Theorem 3 relies on.

SeqGRD-NM ("no marginal") is the same algorithm without the marginal check:
same approximation guarantee, much faster (no Monte-Carlo simulations), but
it can suffer from item blocking in configurations like Table 4
(Figure 6(c)).
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.allocation import Allocation, validate_budgets
from repro.core.prima import PrimaResult, prima_plus
from repro.core.results import AllocationResult
from repro.rrsets.coverage import node_selection
from repro.diffusion.estimators import estimate_marginal_welfare, estimate_welfare
from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.imm import IMMOptions
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, ensure_rng

#: index sampler kinds a prebuilt-index SeqGRD run accepts (``None``:
#: indexes whose manifest predates the sampler field)
INDEX_SAMPLERS = (None, "marginal", "standard")


def seqgrd(graph: DirectedGraph, model: UtilityModel,
           budgets: Mapping[str, int],
           fixed_allocation: Optional[Allocation] = None,
           marginal_check: bool = True,
           n_marginal_samples: int = 200,
           options: Optional[IMMOptions] = None,
           evaluate_welfare: bool = False,
           n_evaluation_samples: int = 500,
           rng: RngLike = None,
           engine: Optional[str] = None,
           workers: Optional[int] = None,
           index: Optional["FrozenRRIndex"] = None,
           keep_rr_collection: bool = False) -> AllocationResult:
    """Run SeqGRD (or SeqGRD-NM when ``marginal_check=False``).

    Parameters
    ----------
    graph, model:
        The CWelMax instance.
    budgets:
        Budget ``b_i`` for every item in ``I_2`` (the items to allocate).
        Items present in ``fixed_allocation`` must not appear here.
    fixed_allocation:
        The existing allocation ``S_P`` (defaults to empty).
    marginal_check:
        Whether to perform the Monte-Carlo marginal-welfare check of
        Algorithm 1 line 8.  ``False`` gives SeqGRD-NM.
    n_marginal_samples:
        Monte-Carlo samples per marginal check (the paper uses 5000; the
        default here is smaller so pure-Python runs stay fast — raise it for
        higher fidelity).
    options:
        IMM/PRIMA+ accuracy options (ε, ℓ, sampling caps).
    evaluate_welfare:
        When true, the returned result carries a Monte-Carlo estimate of
        ``ρ(S ∪ S_P)``.
    workers:
        Worker processes sampling PRIMA+'s marginal RR sets from the
        SeedSequence shards; ``None`` samples the same shards in process,
        so the results are identical for every worker count at a fixed
        seed.
    index:
        A prebuilt marginal :class:`~repro.index.frozen.FrozenRRIndex`:
        PRIMA+'s sampling is skipped and the ordered seed pool comes from
        one greedy coverage selection over the index (bit-identical to the
        pool of the build run).
    keep_rr_collection:
        Record PRIMA+'s final RR collection in
        ``result.details["rr_collection"]`` so it can be frozen into a
        persistent index.
    """
    rng = ensure_rng(rng)
    options = options or IMMOptions()
    fixed_allocation = fixed_allocation or Allocation.empty()
    budgets = validate_budgets(budgets, model.catalog)
    _check_item_split(budgets, fixed_allocation)

    start = time.perf_counter()
    items = [item for item, budget in budgets.items() if budget > 0]
    fixed_seeds = fixed_allocation.all_seeds()
    total_budget = sum(budgets[item] for item in items)

    if index is not None:
        prima = _pool_from_index(graph, index, total_budget)
    else:
        prima = prima_plus(graph, fixed_seeds, [budgets[i] for i in items],
                           total_budget, options=options, rng=rng,
                           workers=workers,
                           keep_collection=keep_rr_collection,
                           engine=engine)
    available: List[int] = list(prima.seeds)

    # sort items by expected truncated utility, highest first (line 4)
    utilities = {item: model.expected_truncated_utility(item, rng=rng)
                 for item in items}
    ordered_items = sorted(items, key=lambda it: utilities[it], reverse=True)

    allocation = Allocation.empty()
    added: List[str] = []
    skipped: List[str] = []
    marginals: Dict[str, float] = {}
    for item in ordered_items:
        budget = budgets[item]
        candidate_nodes = available[:budget]
        if not candidate_nodes:
            skipped.append(item)
            continue
        candidate = Allocation({item: candidate_nodes})
        if marginal_check:
            base = allocation.union(fixed_allocation)
            marginal = estimate_marginal_welfare(
                graph, model, base, candidate,
                n_samples=n_marginal_samples, rng=rng, engine=engine)
            marginals[item] = marginal
            if marginal <= 0.0:
                skipped.append(item)
                continue
        allocation = allocation.union(candidate)
        added.append(item)
        del available[:budget]

    # append the skipped items in arbitrary order to exhaust budgets
    # (Algorithm 1 lines 14-18) — required for the approximation guarantee.
    for item in skipped:
        budget = budgets[item]
        candidate_nodes = available[:budget]
        if not candidate_nodes:
            continue
        allocation = allocation.union(Allocation({item: candidate_nodes}))
        del available[:budget]

    runtime = time.perf_counter() - start
    algorithm = "SeqGRD" if marginal_check else "SeqGRD-NM"
    estimated = None
    if evaluate_welfare:
        estimated = estimate_welfare(graph, model,
                                     allocation.union(fixed_allocation),
                                     n_samples=n_evaluation_samples,
                                     rng=rng, engine=engine).mean
    details = {
        "item_order": ordered_items,
        "item_utilities": utilities,
        "added_in_first_pass": added,
        "appended_items": skipped,
        "marginal_estimates": marginals,
        "num_rr_sets": prima.num_rr_sets,
        "cap_hit": prima.cap_hit,
        "prima_prefix_spreads": prima.prefix_marginal_spreads,
        "pool_marginal_spread": (prima.prefix_marginal_spreads[-1]
                                 if prima.prefix_marginal_spreads else 0.0),
    }
    if index is not None:
        details["served_from_index"] = True
    if keep_rr_collection:
        details["rr_collection"] = prima.collection
    return AllocationResult(
        allocation=allocation,
        fixed_allocation=fixed_allocation,
        algorithm=algorithm,
        estimated_welfare=estimated,
        runtime_seconds=runtime,
        details=details,
    )


def seqgrd_nm(graph: DirectedGraph, model: UtilityModel,
              budgets: Mapping[str, int],
              fixed_allocation: Optional[Allocation] = None,
              options: Optional[IMMOptions] = None,
              evaluate_welfare: bool = False,
              n_evaluation_samples: int = 500,
              rng: RngLike = None,
              engine: Optional[str] = None,
              workers: Optional[int] = None,
              index: Optional["FrozenRRIndex"] = None,
              keep_rr_collection: bool = False) -> AllocationResult:
    """SeqGRD-NM: SeqGRD without the Monte-Carlo marginal check."""
    return seqgrd(graph, model, budgets, fixed_allocation,
                  marginal_check=False, options=options,
                  evaluate_welfare=evaluate_welfare,
                  n_evaluation_samples=n_evaluation_samples, rng=rng,
                  engine=engine, workers=workers, index=index,
                  keep_rr_collection=keep_rr_collection)


def _pool_from_index(graph: DirectedGraph, index,
                     num_seeds: int) -> PrimaResult:
    """Recover PRIMA+'s ordered seed pool from a frozen marginal index.

    The greedy order over the frozen collection is bit-identical to the
    order PRIMA+ computed when the index was built, so its prefixes keep
    serving every budget in the build's budget vector.  ``cap_hit`` is the
    one the build recorded in the manifest.
    """
    if index.num_nodes != graph.num_nodes:
        raise AlgorithmError(
            f"the index covers {index.num_nodes} nodes but the graph has "
            f"{graph.num_nodes}; rebuild the index")
    kind = index.meta.get("sampler")
    if kind not in INDEX_SAMPLERS:
        raise AlgorithmError(
            f"SeqGRD needs a marginal (or standard) RR-set index, "
            f"got {kind!r}")
    selection = node_selection(index, num_seeds)
    scale = graph.num_nodes / max(index.num_sets, 1)
    return PrimaResult(
        seeds=selection.seeds,
        prefix_marginal_spreads=[w * scale
                                 for w in selection.prefix_weights],
        num_rr_sets=index.num_sets,
        cap_hit=bool(index.meta.get("cap_hit", False)),
    )


def _check_item_split(budgets: Mapping[str, int],
                      fixed_allocation: Allocation) -> None:
    """``I_1`` (fixed) and ``I_2`` (to allocate) must be disjoint."""
    overlap = set(budgets) & set(fixed_allocation.items)
    if overlap:
        raise AlgorithmError(
            f"items {sorted(overlap)} appear both in the budget vector and "
            f"in the fixed allocation; I1 and I2 must be disjoint")


from repro.api.registry import RunContext, register_algorithm  # noqa: E402


@register_algorithm("SeqGRD", order=0, supports_index=True,
                    supports_workers=True)
def _run_seqgrd(ctx: RunContext):
    return seqgrd(ctx.graph, ctx.model, ctx.budgets, ctx.fixed_allocation,
                  marginal_check=True,
                  n_marginal_samples=ctx.marginal_samples,
                  options=ctx.options, rng=ctx.rng, engine=ctx.engine,
                  workers=ctx.workers, index=ctx.index)


@register_algorithm("SeqGRD-NM", order=1, supports_index=True,
                    supports_workers=True)
def _run_seqgrd_nm(ctx: RunContext):
    return seqgrd_nm(ctx.graph, ctx.model, ctx.budgets, ctx.fixed_allocation,
                     options=ctx.options, rng=ctx.rng, engine=ctx.engine,
                     workers=ctx.workers, index=ctx.index)


__all__ = ["seqgrd", "seqgrd_nm"]
