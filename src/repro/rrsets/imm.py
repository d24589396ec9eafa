"""The IMM algorithm (Tang et al., SIGMOD 2015) and its generic engine.

IMM alternates a *sampling* phase — which searches for a lower bound on the
optimum via a statistical test with exponentially decreasing guesses — and a
*node-selection* phase (greedy maximum coverage over the sampled RR sets).
The paper reuses exactly this skeleton three times:

* plain IMM on standard RR sets (the single-item seed selector used to fix
  the inferior item's seeds in §6.2.3 and inside the TCIM baseline);
* PRIMA+ on *marginal* RR sets (the seed selector inside SeqGRD/MaxGRD);
* SupGRD on *weighted* RR sets (welfare units instead of spread units).

:func:`run_imm_engine` implements the shared skeleton generically over a
sampler callback; :func:`imm` is the classic single-item instantiation.
The engine regenerates a fresh RR collection for the final node selection,
following the fix of Chen (arXiv:1808.09363) cited by the paper.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.config import ENGINE_VECTORIZED, resolve_engine
from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.bounds import adjusted_ell, lambda_prime, lambda_star
from repro.rrsets.coverage import (
    PackedRRBatch,
    RRCollection,
    SelectionResult,
    node_selection,
)
from repro.rrsets.rrset import marginal_rr_set, random_rr_set
from repro.utils.rng import RngLike, derive_seed, ensure_rng

#: A sampler returns one RR set as ``(nodes, weight)``.
Sampler = Callable[[np.random.Generator], Tuple[np.ndarray, float]]

#: A batch sampler returns ``count`` RR sets as ``(nodes, weight)`` pairs
#: or as one :class:`~repro.rrsets.coverage.PackedRRBatch`, which
#: collections splice in bulk.
BatchSampler = Callable[[np.random.Generator, int],
                        Sequence[Tuple[np.ndarray, float]]]

#: A parallel sampler returns ``count`` fresh RR sets; it owns its own
#: deterministic seeding (see :class:`repro.index.builder.ParallelRRSampler`).
ParallelSampler = Callable[[int], Sequence[Tuple[np.ndarray, float]]]


@dataclass
class IMMOptions:
    """Tunable parameters of the IMM engine.

    ``epsilon`` and ``ell`` are the accuracy/confidence parameters of the
    paper (defaults ε = 0.5, ℓ = 1 as in §6.1.3).  ``max_rr_sets`` caps the
    number of sampled RR sets so pure-Python runs stay tractable on large
    inputs; the theoretical guarantees assume the cap is not hit.
    """

    epsilon: float = 0.5
    ell: float = 1.0
    max_rr_sets: int = 200_000
    min_rr_sets: int = 256
    fresh_final_sampling: bool = True


@dataclass
class IMMResult:
    """Result of one IMM-engine run.

    ``seeds`` is in greedy selection order (its prefixes are the greedy
    solutions for smaller budgets).  ``estimated_value`` is
    ``n · M_R(S) / θ`` — an estimate of the objective (spread for plain IMM,
    marginal spread for PRIMA+, marginal welfare for SupGRD).

    ``cap_hit`` records whether sampling was truncated at
    ``IMMOptions.max_rr_sets``: when true the theoretical guarantees do not
    hold and downstream welfare estimates should not be trusted blindly.
    ``collection`` carries the final RR collection when the engine was run
    with ``keep_collection=True`` (used to freeze persistent indexes).
    """

    seeds: List[int]
    estimated_value: float
    prefix_values: List[float]
    num_rr_sets: int
    lower_bound: float
    sampling_rounds: int
    cap_hit: bool = False
    collection: Optional[RRCollection] = field(default=None, repr=False,
                                               compare=False)

    def prefix(self, k: int) -> List[int]:
        """First ``k`` seeds (greedy prefix)."""
        return self.seeds[:k]

    def prefix_value(self, k: int) -> float:
        """Estimated objective value of the first ``k`` seeds."""
        if k <= 0 or not self.prefix_values:
            return 0.0
        return self.prefix_values[min(k, len(self.prefix_values)) - 1]


def run_imm_engine(num_nodes: int, k: int, sampler: Sampler,
                   max_value: float,
                   options: Optional[IMMOptions] = None,
                   num_budgets: int = 1,
                   rng: RngLike = None,
                   batch_sampler: Optional[BatchSampler] = None,
                   parallel_sampler: Optional[ParallelSampler] = None,
                   keep_collection: bool = False,
                   selection_strategy: Optional[str] = None,
                   final_sink=None,
                   final_chunk_sets: int = 65_536) -> IMMResult:
    """Run the IMM sampling + node-selection skeleton.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n`` of the underlying graph.
    k:
        Number of seeds to select (the budget).
    sampler:
        Callable producing one RR set ``(nodes, weight)`` per call.
    max_value:
        Upper bound on the optimum in the objective's units (``n`` for
        spread, ``n · u_max`` for welfare) — the binary search for the lower
        bound starts here.
    options:
        :class:`IMMOptions`; defaults to the paper's ε = 0.5, ℓ = 1.
    num_budgets:
        Number of budgets sharing the confidence budget (PRIMA+ passes the
        length of its budget vector so the union bound still holds).
    batch_sampler:
        Optional callable producing ``count`` RR sets per call; when given,
        the sampling phases request whole batches from it (the vectorized
        engine) instead of calling ``sampler`` once per set.
    parallel_sampler:
        Optional callable producing ``count`` fresh RR sets with its own
        deterministic seeding (the sharded multiprocessing builder); takes
        precedence over ``batch_sampler`` and ``sampler``.  May return a
        sequence of ``(nodes, weight)`` pairs or a packed
        :class:`~repro.rrsets.coverage.PackedRRBatch` — collections and
        streaming sinks splice packed batches without a per-pair loop.
    keep_collection:
        When true, the final RR collection is returned on
        ``IMMResult.collection`` so callers can freeze it into a persistent
        index.
    selection_strategy:
        Greedy-selection strategy for the node-selection phases
        (:data:`repro.rrsets.coverage.SELECTION_STRATEGIES`); all
        strategies return bit-identical selections, so this only trades
        selection speed.
    final_sink:
        Optional streaming sink (an object with ``append(pairs)``, e.g.
        :class:`repro.index.stream.StreamingIndexWriter`) receiving the
        final sampling phase in bounded chunks instead of an in-RAM
        collection.  Requires ``parallel_sampler`` (the sharded sampler's
        SeedSequence layout is what keeps chunked generation bit-identical
        to one-shot generation) and ``fresh_final_sampling``.  The engine
        then performs **no final node selection** — the returned result
        carries empty ``seeds`` and the θ bookkeeping; the caller runs
        selection over the finalized index, which is bit-identical by the
        packed-coverage protocol.
    final_chunk_sets:
        RR sets per streamed chunk; rounded up to a multiple of the
        sampler's shard size by callers so chunk boundaries never change
        the shard layout.
    """
    options = options or IMMOptions()
    rng = ensure_rng(rng)
    if num_nodes <= 0:
        raise AlgorithmError("the graph must contain at least one node")
    k = max(0, min(int(k), num_nodes))
    if k == 0:
        return IMMResult(seeds=[], estimated_value=0.0, prefix_values=[],
                         num_rr_sets=0, lower_bound=0.0, sampling_rounds=0)
    if max_value <= 0:
        raise AlgorithmError("max_value must be > 0")

    epsilon = options.epsilon
    epsilon_prime = math.sqrt(2.0) * epsilon
    ell_adj = adjusted_ell(num_nodes, options.ell, num_budgets)
    lam_prime = lambda_prime(num_nodes, k, epsilon_prime, ell_adj)
    lam_star = lambda_star(num_nodes, k, epsilon, ell_adj)

    collection = RRCollection(num_nodes)
    cap_hit = False

    def ensure_samples(target: float, into: RRCollection) -> None:
        nonlocal cap_hit
        requested = int(math.ceil(target))
        if requested > options.max_rr_sets:
            cap_hit = True
        target = min(requested, options.max_rr_sets)
        if parallel_sampler is not None:
            missing = target - into.num_sets
            if missing > 0:
                into.extend(parallel_sampler(missing))
            return
        if batch_sampler is not None:
            while into.num_sets < target:
                into.extend(batch_sampler(rng, target - into.num_sets))
            return
        while into.num_sets < target:
            nodes, weight = sampler(rng)
            into.add(nodes, weight)

    # --- sampling phase: search for a lower bound on OPT ----------------
    lower_bound = 1.0
    sampling_rounds = 0
    max_rounds = max(1, int(math.ceil(math.log2(max(max_value, 2.0)))) - 1)
    for i in range(1, max_rounds + 1):
        sampling_rounds += 1
        x = max_value / (2.0 ** i)
        if x <= 0:
            break
        ensure_samples(lam_prime / x, collection)
        selection = node_selection(collection, k,
                                   strategy=selection_strategy)
        estimate = (num_nodes * selection.covered_weight
                    / max(collection.num_sets, 1))
        if estimate >= (1.0 + epsilon_prime) * x:
            lower_bound = estimate / (1.0 + epsilon_prime)
            break
        if collection.num_sets >= options.max_rr_sets:
            # the cap was hit: use the best estimate seen so far
            cap_hit = True
            lower_bound = max(lower_bound, estimate)
            break

    # --- final sampling and node selection ------------------------------
    theta = lam_star / max(lower_bound, 1e-12)
    if theta > options.max_rr_sets:
        cap_hit = True
    theta = min(theta, options.max_rr_sets)
    theta = max(theta, options.min_rr_sets)
    if final_sink is not None:
        if parallel_sampler is None:
            raise AlgorithmError(
                "streaming final sampling requires the sharded parallel "
                "sampler (pass workers=)")
        if not options.fresh_final_sampling:
            raise AlgorithmError(
                "streaming final sampling requires fresh_final_sampling")
        # identical to ensure_samples' request arithmetic
        target = min(int(math.ceil(theta)), options.max_rr_sets)
        chunk_sets = max(1, int(final_chunk_sets))
        remaining = target
        while remaining > 0:
            step = min(chunk_sets, remaining)
            final_sink.append(parallel_sampler(step))
            remaining -= step
        if cap_hit:
            warnings.warn(
                f"IMM sampling stopped at the max_rr_sets cap "
                f"({options.max_rr_sets}); the (1 - 1/e - eps) guarantee "
                f"does not hold and the estimated objective may be biased "
                f"— raise IMMOptions.max_rr_sets for trustworthy estimates",
                RuntimeWarning, stacklevel=2)
        return IMMResult(
            seeds=[], estimated_value=0.0, prefix_values=[],
            num_rr_sets=target, lower_bound=lower_bound,
            sampling_rounds=sampling_rounds, cap_hit=cap_hit)
    if options.fresh_final_sampling:
        final_collection = RRCollection(num_nodes)
    else:
        final_collection = collection
    ensure_samples(theta, final_collection)
    selection = node_selection(final_collection, k,
                               strategy=selection_strategy)
    scale = num_nodes / max(final_collection.num_sets, 1)
    if cap_hit:
        warnings.warn(
            f"IMM sampling stopped at the max_rr_sets cap "
            f"({options.max_rr_sets}); the (1 - 1/e - eps) guarantee does "
            f"not hold and the estimated objective may be biased — raise "
            f"IMMOptions.max_rr_sets for trustworthy estimates",
            RuntimeWarning, stacklevel=2)
    return IMMResult(
        seeds=selection.seeds,
        estimated_value=selection.covered_weight * scale,
        prefix_values=[w * scale for w in selection.prefix_weights],
        num_rr_sets=final_collection.num_sets,
        lower_bound=lower_bound,
        sampling_rounds=sampling_rounds,
        cap_hit=cap_hit,
        collection=final_collection if keep_collection else None,
    )


def imm(graph: DirectedGraph, k: int,
        options: Optional[IMMOptions] = None,
        rng: RngLike = None,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
        keep_collection: bool = False,
        selection_strategy: Optional[str] = None) -> IMMResult:
    """Classic single-item IMM: ``(1 - 1/e - ε)``-approximate IM seeds.

    ``workers`` switches sampling to the deterministic sharded builder
    (``workers`` processes; results are identical for every worker count at
    a fixed seed, but differ from the ``workers=None`` serial stream).
    """
    def sampler(generator: np.random.Generator) -> Tuple[np.ndarray, float]:
        return random_rr_set(graph, generator), 1.0

    batch_sampler: Optional[BatchSampler] = None
    if resolve_engine(engine) == ENGINE_VECTORIZED:
        from repro.engine.reverse import random_rr_sets_packed

        def batch_sampler(generator: np.random.Generator, count: int):
            offsets, nodes = random_rr_sets_packed(graph, count, generator)
            return PackedRRBatch(offsets, nodes, np.ones(count))

    rng = ensure_rng(rng)
    with _parallel_sampler(graph, "standard", engine, rng,
                           workers) as parallel_sampler:
        return run_imm_engine(graph.num_nodes, k, sampler,
                              max_value=float(graph.num_nodes),
                              options=options, rng=rng,
                              batch_sampler=batch_sampler,
                              parallel_sampler=parallel_sampler,
                              keep_collection=keep_collection,
                              selection_strategy=selection_strategy)


def marginal_imm(graph: DirectedGraph, k: int, fixed_seeds: Set[int],
                 options: Optional[IMMOptions] = None,
                 rng: RngLike = None,
                 engine: Optional[str] = None,
                 workers: Optional[int] = None,
                 keep_collection: bool = False,
                 selection_strategy: Optional[str] = None) -> IMMResult:
    """IMM on *marginal* RR sets: maximizes spread on top of ``fixed_seeds``."""
    blocked = set(int(v) for v in fixed_seeds)

    def sampler(generator: np.random.Generator) -> Tuple[np.ndarray, float]:
        return marginal_rr_set(graph, blocked, generator), 1.0

    batch_sampler: Optional[BatchSampler] = None
    if resolve_engine(engine) == ENGINE_VECTORIZED:
        from repro.engine.reverse import marginal_rr_sets_packed

        def batch_sampler(generator: np.random.Generator, count: int):
            offsets, nodes = marginal_rr_sets_packed(graph, blocked, count,
                                                     generator)
            return PackedRRBatch(offsets, nodes, np.ones(count))

    rng = ensure_rng(rng)
    with _parallel_sampler(graph, "marginal", engine, rng, workers,
                           blocked=blocked) as parallel_sampler:
        return run_imm_engine(graph.num_nodes, k, sampler,
                              max_value=float(graph.num_nodes),
                              options=options, rng=rng,
                              batch_sampler=batch_sampler,
                              parallel_sampler=parallel_sampler,
                              keep_collection=keep_collection,
                              selection_strategy=selection_strategy)


def _parallel_sampler(graph: DirectedGraph, kind: str, engine: Optional[str],
                      rng: np.random.Generator, workers: Optional[int],
                      **spec_kwargs):
    """Context manager yielding a sharded parallel sampler (or ``None``).

    Imports the index builder lazily so :mod:`repro.rrsets` does not depend
    on :mod:`repro.index` at import time.  Draws one seed from ``rng`` when
    the parallel path is taken, so the derived shard streams are
    reproducible from the caller's seed.
    """
    if workers is None:
        import contextlib
        return contextlib.nullcontext(None)
    from repro.index.builder import ParallelRRSampler, ShardSpec

    spec = ShardSpec(kind=kind, graph=graph,
                     engine=resolve_engine(engine), **spec_kwargs)
    return ParallelRRSampler(spec, seed=derive_seed(rng), workers=workers)


__all__ = ["IMMOptions", "IMMResult", "run_imm_engine", "imm", "marginal_imm",
           "Sampler", "BatchSampler", "ParallelSampler"]
