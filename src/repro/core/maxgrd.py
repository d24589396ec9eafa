"""MaxGRD (paper Algorithm 2).

MaxGRD selects a pool of ``max_i b_i`` seeds with PRIMA+ and then allocates
*one single item*: the item whose allocation of the top ``b_i`` pool nodes
yields the largest (estimated) marginal social welfare.  When there is no
prior allocation (``S_P = ∅``) it guarantees a ``(1/m)(1 - 1/e - ε)``
approximation (Theorem 4); combined with SeqGRD via
:func:`repro.core.combined.best_of` the bound becomes
``max(u_min/u_max, 1/m)(1 - 1/e - ε)``.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional

from repro.allocation import Allocation, validate_budgets
from repro.core.prima import prima_plus
from repro.core.results import AllocationResult
from repro.diffusion.estimators import estimate_marginal_welfare, estimate_welfare
from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.imm import IMMOptions
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, ensure_rng


def maxgrd(graph: DirectedGraph, model: UtilityModel,
           budgets: Mapping[str, int],
           fixed_allocation: Optional[Allocation] = None,
           n_marginal_samples: int = 200,
           use_simulation: bool = True,
           options: Optional[IMMOptions] = None,
           evaluate_welfare: bool = False,
           n_evaluation_samples: int = 500,
           rng: RngLike = None,
           engine: Optional[str] = None,
           selection_strategy: Optional[str] = None) -> AllocationResult:
    """Run MaxGRD and return the chosen single-item allocation.

    Parameters
    ----------
    use_simulation:
        When ``True`` (default) the welfare of each candidate single-item
        allocation is estimated by Monte-Carlo simulation (faithful to
        Algorithm 2 line 3).  When ``False`` — useful when ``S_P = ∅`` — the
        candidates are scored analytically as
        ``E[U⁺(i)] · σ̂(S_i)`` using PRIMA+'s prefix spread estimates, which
        is exact for that case and much faster.
    """
    rng = ensure_rng(rng)
    options = options or IMMOptions()
    fixed_allocation = fixed_allocation or Allocation.empty()
    budgets = validate_budgets(budgets, model.catalog)
    overlap = set(budgets) & set(fixed_allocation.items)
    if overlap:
        raise AlgorithmError(
            f"items {sorted(overlap)} appear both in the budget vector and "
            f"in the fixed allocation; I1 and I2 must be disjoint")

    start = time.perf_counter()
    items = [item for item, budget in budgets.items() if budget > 0]
    if not items:
        raise AlgorithmError("at least one item must have a positive budget")
    fixed_seeds = fixed_allocation.all_seeds()
    max_budget = max(budgets[item] for item in items)

    prima = prima_plus(graph, fixed_seeds, [budgets[i] for i in items],
                       max_budget, options=options, rng=rng,
                       selection_strategy=selection_strategy, engine=engine)

    scores: Dict[str, float] = {}
    candidates: Dict[str, Allocation] = {}
    for item in items:
        nodes = prima.prefix(budgets[item])
        candidate = Allocation({item: nodes}) if nodes else Allocation.empty()
        candidates[item] = candidate
        if candidate.is_empty():
            scores[item] = 0.0
        elif use_simulation:
            scores[item] = estimate_marginal_welfare(
                graph, model, fixed_allocation, candidate,
                n_samples=n_marginal_samples, rng=rng, engine=engine)
        else:
            utility = model.expected_truncated_utility(item, rng=rng)
            scores[item] = utility * prima.prefix_spread(budgets[item])

    best_item = max(scores, key=scores.get)
    allocation = candidates[best_item]
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
        algorithm="MaxGRD",
        estimated_welfare=estimated,
        runtime_seconds=runtime,
        details={
            "chosen_item": best_item,
            "candidate_scores": scores,
            "num_rr_sets": prima.num_rr_sets,
        },
    )


from repro.api.registry import RunContext, register_algorithm  # noqa: E402


@register_algorithm("MaxGRD", order=2, supports_selection_strategy=True)
def _run_maxgrd(ctx: RunContext):
    return maxgrd(ctx.graph, ctx.model, ctx.budgets, ctx.fixed_allocation,
                  n_marginal_samples=ctx.marginal_samples,
                  options=ctx.options, rng=ctx.rng, engine=ctx.engine,
                  selection_strategy=ctx.selection_strategy)


__all__ = ["maxgrd"]
