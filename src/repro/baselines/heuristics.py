"""Allocation heuristics: Round-robin, Snake, degree and random seeding.

Round-robin and Snake are the baselines of the adoption-vs-welfare study
(paper §6.4.3, Table 6): both take the *same* ordered seed pool that
SeqGRD-NM would use (the PRIMA+/IMM greedy order) and differ only in how
the items are mapped onto those seeds:

* ``SeqGRD-NM`` assigns items in contiguous blocks following the item
  utility order: ``s1:i, s2:i, s3:j, s4:j``;
* ``Round-robin`` interleaves the items: ``s1:i, s2:j, s3:i, s4:j``;
* ``Snake`` interleaves but flips the order on every pass
  (boustrophedon): ``s1:i, s2:j, s3:j, s4:i``.

Degree and random seeding are simple sanity-check heuristics used in tests
and examples.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.allocation import Allocation, validate_budgets
from repro.core.prima import prima_plus
from repro.core.results import AllocationResult, degenerate_result
from repro.diffusion.estimators import estimate_welfare
from repro.graphs.graph import DirectedGraph
from repro.rrsets.imm import IMMOptions
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, ensure_rng


def _ordered_items(model: UtilityModel, budgets: Mapping[str, int],
                   rng: RngLike) -> List[str]:
    """Items with positive budget, by decreasing expected truncated utility."""
    items = [item for item, budget in budgets.items() if budget > 0]
    utilities = {item: model.expected_truncated_utility(item, rng=rng)
                 for item in items}
    return sorted(items, key=lambda it: utilities[it], reverse=True)


def _seed_pool(graph: DirectedGraph, budgets: Mapping[str, int],
               fixed_allocation: Allocation, options: Optional[IMMOptions],
               rng: RngLike, pool: Optional[Sequence[int]],
               engine: Optional[str]) -> List[int]:
    """The shared ordered seed pool (PRIMA+ order unless given explicitly)."""
    total = sum(b for b in budgets.values() if b > 0)
    if pool is not None:
        return list(int(v) for v in pool)[:total]
    result = prima_plus(graph, fixed_allocation.all_seeds(),
                        [b for b in budgets.values() if b > 0], total,
                        options=options, rng=rng, engine=engine)
    return result.seeds


def round_robin(graph: DirectedGraph, model: UtilityModel,
                budgets: Mapping[str, int],
                fixed_allocation: Optional[Allocation] = None,
                seed_pool: Optional[Sequence[int]] = None,
                options: Optional[IMMOptions] = None,
                evaluate_welfare: bool = False,
                n_evaluation_samples: int = 500,
                rng: RngLike = None,
                engine: Optional[str] = None) -> AllocationResult:
    """Round-robin item assignment over the ordered seed pool."""
    return _interleaved(graph, model, budgets, fixed_allocation, seed_pool,
                        options, evaluate_welfare, n_evaluation_samples, rng,
                        snake=False, engine=engine)


def snake(graph: DirectedGraph, model: UtilityModel,
          budgets: Mapping[str, int],
          fixed_allocation: Optional[Allocation] = None,
          seed_pool: Optional[Sequence[int]] = None,
          options: Optional[IMMOptions] = None,
          evaluate_welfare: bool = False,
          n_evaluation_samples: int = 500,
          rng: RngLike = None,
          engine: Optional[str] = None) -> AllocationResult:
    """Snake (boustrophedon) item assignment over the ordered seed pool."""
    return _interleaved(graph, model, budgets, fixed_allocation, seed_pool,
                        options, evaluate_welfare, n_evaluation_samples, rng,
                        snake=True, engine=engine)


def _interleaved(graph: DirectedGraph, model: UtilityModel,
                 budgets: Mapping[str, int],
                 fixed_allocation: Optional[Allocation],
                 seed_pool: Optional[Sequence[int]],
                 options: Optional[IMMOptions],
                 evaluate_welfare: bool, n_evaluation_samples: int,
                 rng: RngLike, snake: bool,
                 engine: Optional[str] = None) -> AllocationResult:
    rng = ensure_rng(rng)
    fixed_allocation = fixed_allocation or Allocation.empty()
    budgets = validate_budgets(budgets, model.catalog)
    items = _ordered_items(model, budgets, rng)
    if not items:
        # all budgets are zero: nothing to assign (consistent with SupGRD
        # and the greedy baselines, which also return an empty allocation)
        return degenerate_result(
            graph, model, fixed_allocation,
            "Snake" if snake else "Round-robin",
            evaluate_welfare, n_evaluation_samples, rng, engine,
            details={"seed_pool": [], "item_order": []})

    start = time.perf_counter()
    pool = _seed_pool(graph, budgets, fixed_allocation, options, rng,
                      seed_pool, engine)
    remaining = {item: budgets[item] for item in items}
    assignment: Dict[str, List[int]] = {item: [] for item in items}
    order = list(items)
    cursor = 0
    pass_index = 0
    while cursor < len(pool) and any(b > 0 for b in remaining.values()):
        sweep = order if (not snake or pass_index % 2 == 0) else list(reversed(order))
        for item in sweep:
            if cursor >= len(pool):
                break
            if remaining[item] <= 0:
                continue
            assignment[item].append(pool[cursor])
            remaining[item] -= 1
            cursor += 1
        pass_index += 1

    allocation = Allocation({item: nodes for item, nodes in assignment.items()
                             if nodes})
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
        algorithm="Snake" if snake else "Round-robin",
        estimated_welfare=estimated,
        runtime_seconds=runtime,
        details={"seed_pool": pool, "item_order": items},
    )


def degree_allocation(graph: DirectedGraph, model: UtilityModel,
                      budgets: Mapping[str, int],
                      rng: RngLike = None) -> AllocationResult:
    """Allocate the highest out-degree nodes, items in utility order."""
    rng = ensure_rng(rng)
    budgets = validate_budgets(budgets, model.catalog)
    items = _ordered_items(model, budgets, rng)
    start = time.perf_counter()
    order = list(np.argsort(-graph.out_degrees(), kind="stable"))
    assignment: Dict[str, List[int]] = {}
    cursor = 0
    for item in items:
        take = budgets[item]
        assignment[item] = [int(v) for v in order[cursor:cursor + take]]
        cursor += take
    allocation = Allocation({k: v for k, v in assignment.items() if v})
    return AllocationResult(allocation, Allocation.empty(), "HighDegree",
                            runtime_seconds=time.perf_counter() - start)


def random_allocation(graph: DirectedGraph, model: UtilityModel,
                      budgets: Mapping[str, int],
                      rng: RngLike = None) -> AllocationResult:
    """Allocate uniformly random (distinct) seed nodes to each item."""
    rng = ensure_rng(rng)
    budgets = validate_budgets(budgets, model.catalog)
    items = _ordered_items(model, budgets, rng)
    start = time.perf_counter()
    total = sum(budgets[item] for item in items)
    total = min(total, graph.num_nodes)
    chosen = rng.choice(graph.num_nodes, size=total, replace=False)
    assignment: Dict[str, List[int]] = {}
    cursor = 0
    for item in items:
        take = min(budgets[item], total - cursor)
        assignment[item] = [int(v) for v in chosen[cursor:cursor + take]]
        cursor += take
    allocation = Allocation({k: v for k, v in assignment.items() if v})
    return AllocationResult(allocation, Allocation.empty(), "Random",
                            runtime_seconds=time.perf_counter() - start)


from repro.api.registry import RunContext, register_algorithm  # noqa: E402


@register_algorithm("Round-robin", order=7)
def _run_round_robin(ctx: RunContext):
    return round_robin(ctx.graph, ctx.model, ctx.budgets,
                       ctx.fixed_allocation, options=ctx.options,
                       rng=ctx.rng, engine=ctx.engine)


@register_algorithm("Snake", order=8)
def _run_snake(ctx: RunContext):
    return snake(ctx.graph, ctx.model, ctx.budgets, ctx.fixed_allocation,
                 options=ctx.options, rng=ctx.rng, engine=ctx.engine)


__all__ = ["round_robin", "snake", "degree_allocation", "random_allocation"]
