"""Workload ``run-cold``: the paper's own measurement.

One operation is one ``repro.api.run`` — SeqGRD-NM (b=50/50) and SupGRD
(b=50) alternate on the full-size NetHEPT stand-in, configuration C1,
paper defaults ε=0.5, ℓ=1 and ``EngineConfig`` defaults otherwise.  The
loop runs whole (SeqGRD-NM, SupGRD) rounds, one caller, each run waiting
for the previous one.  Nothing is served; RR sampling does most of the
work, through the scalar marginal sampler and the batched weighted one.
"""

from __future__ import annotations

import time
import warnings

from common import (
    EVAL_SEED,
    GRAPH_SEED,
    Outcome,
    Pacer,
    median,
    per_op,
    selection_layers,
    tail,
    timed,
    trace_overhead_pct,
    vm_hwm_mib,
)
from probe import LayerProbe
# bound at import, before any probe wraps the module attribute: the
# benchmark's own welfare estimate must never count as the program's
from repro.diffusion.estimators import estimate_welfare as own_estimate

SETUP_REPEATS = 5
WELFARE_SAMPLES = 1000


def make_specs(seed: int, tiny: bool):
    from repro.api import EngineConfig, RunSpec, WorkloadSpec

    scale, budget = (0.02, 5) if tiny else (1.0, 50)

    def workload(budgets):
        return WorkloadSpec(network="nethept", scale=scale,
                            configuration="C1", budget=budget,
                            budgets=budgets)

    engine = EngineConfig(seed=seed)
    return [
        ("seqgrd_nm", RunSpec("SeqGRD-NM",
                              workload({"i": budget, "j": budget}), engine),
         {"i": budget, "j": budget}),
        ("supgrd", RunSpec("SupGRD", workload(None), engine),
         {"i": budget}),
    ]


def allocation_matches(allocation, expected) -> bool:
    """Each item got exactly its budget of distinct seeds, no other item
    got any."""
    if set(allocation.items) - set(expected):
        return False
    for item, budget in expected.items():
        seeds = allocation.seeds_for(item)
        if len(seeds) != budget or len(set(seeds)) != budget:
            return False
    return True


class _Op:
    """One timed ``repro.api.run`` and what the benchmark checked."""

    def __init__(self, name, record, seconds, cap_hit, welfare, ok):
        self.name = name
        self.record = record
        self.seconds = seconds
        self.cap_hit = cap_hit
        self.welfare = welfare
        self.ok = ok


def run_op(name, spec, expected, graph, model, tally) -> _Op:
    from repro.api import run

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            record = run(spec, graph=graph, model=model)
        except Exception as error:  # an errored operation is a failure
            tally.record(False, f"{name}: {error!r}")
            return _Op(name, None, time.perf_counter() - start, False,
                       0.0, False)
        seconds = time.perf_counter() - start
    cap_hit = bool(record.result.details.get("cap_hit")) or any(
        "max_rr_sets cap" in str(w.message) for w in caught)
    allocation = record.result.combined_allocation()
    welfare = own_estimate(graph, model, allocation,
                           n_samples=WELFARE_SAMPLES, rng=EVAL_SEED,
                           engine=spec.engine.resolve().engine).mean
    ok = tally.record(
        allocation_matches(record.result.allocation, expected)
        and welfare > 0.0,
        f"{name}: allocation {record.result.allocation.as_dict()} "
        f"does not match budgets {expected}")
    return _Op(name, record, seconds, cap_hit, welfare, ok)


def _probe_layers(probe: LayerProbe) -> LayerProbe:
    import repro.core.prima as prima
    import repro.diffusion.estimators as estimators
    from repro.rrsets.rrset import WeightedRRSampler

    probe.wrap(prima, "marginal_rr_set", "marginal",
               lambda args, kwargs, result: (1, len(result)))
    probe.wrap(WeightedRRSampler, "sample_pairs", "weighted",
               lambda args, kwargs, result: (
                   len(result), sum(len(nodes) for nodes, _ in result)))
    probe.wrap(estimators, "estimate_welfare", "welfare",
               lambda args, kwargs, result: (
                   int(kwargs.get("n_samples", args[3] if len(args) > 3
                                  else 1000)), 0))
    return probe


def load_instance(workload):
    from repro.api.runner import load_graph
    from repro.utility.configs import configuration_model

    return (load_graph(workload, GRAPH_SEED),
            configuration_model(workload.configuration))


def run_workload(ctx) -> Outcome:
    from repro.obs import get_metrics

    out = Outcome()
    specs = make_specs(ctx.seed, ctx.tiny)
    setup = []
    for _ in range(SETUP_REPEATS):
        (graph, model), seconds = timed(
            lambda: load_instance(specs[0][1].workload))
        setup.append(seconds)
    out.e2e["setup_s"] = median(setup)
    out.header.update(graph=graph.name, nodes=graph.num_nodes,
                      edges=graph.num_edges)

    ops = []
    if not ctx.trace:
        pacer = Pacer(ctx.seconds)
        while pacer.more():
            start = time.perf_counter()
            for name, spec, expected in specs:
                ops.append(run_op(name, spec, expected, graph, model,
                                  out.tally))
            pacer.done(time.perf_counter() - start)
        times = [op.seconds for op in ops]
        out.e2e["op_p50_ms"] = median(times) * 1e3
        value, label = tail(times)
        out.e2e["op_tail_ms"] = value * 1e3
        out.notes["op_tail_ms"] = f"{label} of {len(times)} runs"
        out.e2e["ops_per_s"] = sum(op.ok for op in ops) / sum(times)
        out.e2e["peak_rss_mb"] = vm_hwm_mib()
        out.e2e["welfare"] = sum(op.welfare for op in ops) / len(ops)
    else:
        # untraced baseline: the first spec once, for the overhead ratio
        name, spec, expected = specs[0]
        baseline = run_op(name, spec, expected, graph, model, out.tally)
        registry = get_metrics()
        before = registry.summary()
        with _probe_layers(LayerProbe()) as probe:
            for name, spec, expected in specs:
                ops.append(run_op(name, spec, expected, graph, model,
                                  out.tally))
        after = registry.summary()
        out.layers.update(_layers(probe, ops, before, after))
        out.layers["graphs.load_s"] = median(setup)
        out.layers["obs.trace_overhead_pct"] = trace_overhead_pct(
            [ops[0].seconds], [baseline.seconds])

    out.header["rr_sets"] = {
        op.name: op.record.result.details.get("num_rr_sets")
        for op in ops if op.record is not None}
    return out


def _layers(probe, ops, before, after):
    count = len(ops)
    marginal, weighted = probe.get("marginal"), probe.get("weighted")
    welfare = probe.get("welfare")
    sets = marginal.calls + weighted.items
    sample_s = marginal.seconds + weighted.seconds
    layers = selection_layers(before, after, count)
    runtime = sum(op.record.result.runtime_seconds
                  for op in ops if op.record is not None)
    layers.update({
        "engine.sample_s": per_op(sample_s, count),
        "engine.rr_sets": per_op(sets, count),
        "engine.rr_sets_per_s": sets / sample_s if sample_s else 0.0,
        "engine.members_per_set": (
            (marginal.members + weighted.members) / sets if sets else 0.0),
        "diffusion.welfare_s": per_op(welfare.seconds, count),
        "diffusion.worlds": per_op(welfare.items, count),
        "rrsets.cap_hit": float(sum(op.cap_hit for op in ops)),
        "core.self_s": per_op(
            runtime - sample_s - layers["rrsets.select_s"] * count, count),
    })
    for op in ops:
        if op.record is None:
            continue
        layers[f"rrsets.theta.{op.name}"] = float(
            op.record.result.details.get("num_rr_sets") or 0)
        layers[f"api.run_s.{op.name}"] = op.seconds
        layers[f"api.welfare.{op.name}"] = op.welfare
    return layers
