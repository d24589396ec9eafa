"""PRIMA+ — prefix-preserving seed selection on marginal RR sets.

PRIMA+ (paper §5.2.1, Algorithm 4) is the seed selector inside SeqGRD and
MaxGRD.  Given a fixed seed set ``S_P`` and a budget vector ``b⃗``, it returns
an *ordered* set of ``b`` seed nodes such that, with probability at least
``1 - 1/n^ℓ``:

* the whole set is a ``(1 - 1/e - ε)``-approximation of the optimal marginal
  spread ``OPT_{b | S_P}``, and
* every prefix of length ``b_i`` (for each budget ``b_i`` in ``b⃗``) is a
  ``(1 - 1/e - ε)``-approximation of ``OPT_{b_i | S_P}``
  (Definition 1, "prefix preservation on marginals").

Marginality is obtained by sampling *marginal RR sets* (Algorithm 3): RR
sets that touch ``S_P`` are discarded, so covering the surviving sets
estimates the additional spread on top of ``S_P``.  Prefix preservation
follows from returning the greedy order computed on a single RR collection
that is large enough for *every* budget in the vector: the sampling phase
below runs the IMM lower-bound search once per distinct budget and keeps the
most demanding sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.bounds import adjusted_ell, lambda_prime, lambda_star
from repro.rrsets.coverage import RRCollection, node_selection
from repro.rrsets.imm import IMMOptions, rr_stream
# kept as a module attribute: perfbench's traced run-cold wraps
# repro.core.prima.marginal_rr_set
from repro.rrsets.rrset import marginal_rr_set  # noqa: F401
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class PrimaResult:
    """Ordered seeds returned by PRIMA+ together with diagnostics.

    ``cap_hit`` is true when sampling stopped at ``max_rr_sets``: a round
    or the final θ asked for more sets, or a lower-bound search ran into
    the cap.  The approximation guarantee then does not hold.
    """

    seeds: List[int]
    prefix_marginal_spreads: List[float]
    num_rr_sets: int
    lower_bounds: Dict[int, float] = field(default_factory=dict)
    cap_hit: bool = False
    collection: Optional[RRCollection] = field(default=None, repr=False,
                                               compare=False)

    def prefix(self, k: int) -> List[int]:
        """First ``k`` seeds of the ordered seed set."""
        return self.seeds[:k]

    def prefix_spread(self, k: int) -> float:
        """Estimated marginal spread of the first ``k`` seeds."""
        if k <= 0 or not self.prefix_marginal_spreads:
            return 0.0
        index = min(k, len(self.prefix_marginal_spreads)) - 1
        return self.prefix_marginal_spreads[index]


def prima_plus(graph: DirectedGraph, fixed_seeds: Iterable[int],
               budgets: Sequence[int], num_seeds: int,
               options: Optional[IMMOptions] = None,
               rng: RngLike = None,
               workers: Optional[int] = None,
               keep_collection: bool = False,
               engine: Optional[str] = None) -> PrimaResult:
    """Select ``num_seeds`` ordered seeds maximizing marginal spread.

    Parameters
    ----------
    graph:
        The social network.
    fixed_seeds:
        The seed nodes of the existing allocation ``S_P`` (may be empty).
    budgets:
        The budget vector ``b⃗`` whose prefixes must be preserved (SeqGRD
        passes the per-item budgets, MaxGRD the same).
    num_seeds:
        Total number of seeds ``b`` to return (``Σ b_i`` for SeqGRD,
        ``max b_i`` for MaxGRD).
    options:
        IMM accuracy options (ε, ℓ, sampling caps).
    workers:
        Worker processes sampling the marginal RR sets of
        :func:`~repro.rrsets.imm.rr_stream`'s SeedSequence shards;
        ``None`` samples the same shards in process, so the results are
        identical for every worker count at a fixed seed.
    keep_collection:
        Return the final RR collection on ``PrimaResult.collection`` so it
        can be frozen into a persistent index.
    engine:
        ``"vectorized"`` samples each round's missing sets through one
        batched chunk loop; ``"python"`` samples the same shard streams
        with the scalar :func:`marginal_rr_set` (the reference oracle).
        The two draw different sets with the same distribution.
    """
    options = options or IMMOptions()
    rng = ensure_rng(rng)
    n = graph.num_nodes
    if n == 0:
        raise AlgorithmError("the graph must contain at least one node")
    blocked: Set[int] = set(int(v) for v in fixed_seeds)
    num_seeds = max(0, min(int(num_seeds), n - len(blocked)))
    if num_seeds == 0:
        return PrimaResult(seeds=[], prefix_marginal_spreads=[],
                           num_rr_sets=0)
    budget_list = sorted({int(b) for b in budgets if int(b) > 0} | {num_seeds})

    epsilon = options.epsilon
    epsilon_prime = math.sqrt(2.0) * epsilon
    ell_adj = adjusted_ell(n, options.ell, num_budgets=len(budget_list))

    # the context manager releases the (registry-warm) worker pool even
    # when the sampling phase raises
    cap_hit = False
    with rr_stream(graph, "marginal", rng, engine, workers,
                   blocked=blocked) as sample:
        def sample_into(collection: RRCollection, target: float) -> None:
            nonlocal cap_hit
            requested = int(math.ceil(target))
            if requested > options.max_rr_sets:
                cap_hit = True
            missing = min(requested, options.max_rr_sets) \
                - collection.num_sets
            if missing > 0:
                collection.extend(sample(missing))

        # --------------------------------------------------------------
        # sampling phase: one lower-bound search per distinct budget,
        # sharing the same growing RR collection (Algorithm 4's outer
        # while loop).
        # --------------------------------------------------------------
        collection = RRCollection(n)
        lower_bounds: Dict[int, float] = {}
        required_theta = float(options.min_rr_sets)
        for k in budget_list:
            lam_prime = lambda_prime(n, k, epsilon_prime, ell_adj)
            lam_star = lambda_star(n, k, epsilon, ell_adj)
            lower_bound = 1.0
            max_rounds = max(1, int(math.ceil(math.log2(max(n, 2)))) - 1)
            for i in range(1, max_rounds + 1):
                x = n / (2.0 ** i)
                sample_into(collection, lam_prime / x)
                selection = node_selection(collection, k)
                estimate = n * selection.covered_weight / max(collection.num_sets, 1)
                if estimate >= (1.0 + epsilon_prime) * x:
                    lower_bound = estimate / (1.0 + epsilon_prime)
                    break
                if collection.num_sets >= options.max_rr_sets:
                    cap_hit = True
                    lower_bound = max(lower_bound, estimate)
                    break
            lower_bounds[k] = lower_bound
            required_theta = max(required_theta,
                                 lam_star / max(lower_bound, 1e-12))

        # --------------------------------------------------------------
        # final phase: fresh RR sets (Chen's fix) and one greedy selection
        # whose prefixes serve every budget in the vector.
        # --------------------------------------------------------------
        final_collection = RRCollection(n) if options.fresh_final_sampling \
            else collection
        sample_into(final_collection, required_theta)
    selection = node_selection(final_collection, num_seeds)
    scale = n / max(final_collection.num_sets, 1)
    return PrimaResult(
        seeds=selection.seeds,
        prefix_marginal_spreads=[w * scale for w in selection.prefix_weights],
        num_rr_sets=final_collection.num_sets,
        lower_bounds=lower_bounds,
        cap_hit=cap_hit,
        collection=final_collection if keep_collection else None,
    )


__all__ = ["PrimaResult", "prima_plus"]
