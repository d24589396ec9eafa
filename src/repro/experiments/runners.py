"""Uniform runners: execute one algorithm on one workload, measure time and
welfare.

Every figure in §6 compares the same set of algorithms under different
utility configurations / budgets / networks.  The single dispatch point is
:func:`repro.api.run` over a typed :class:`~repro.api.RunSpec`;
:func:`spec_for` builds the spec of one harness point, so all algorithms
are timed and evaluated identically (same welfare estimator, same sample
counts, same seeds).  :data:`ALGORITHMS` is derived from the algorithm
registry rather than hand-maintained.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.allocation import Allocation
from repro.api.registry import experiment_algorithms
from repro.api.runner import RunRecord
from repro.api.specs import EngineConfig, RunSpec, WorkloadSpec
from repro.experiments.config import ExperimentScale, get_scale

#: algorithms available to the experiment harness (registry-derived)
ALGORITHMS = experiment_algorithms()


def spec_for(algorithm: str, scale: Optional[ExperimentScale] = None,
             network: str = "", configuration: str = "",
             budgets: Optional[Mapping[str, int]] = None,
             fixed_allocation: Optional[Allocation] = None,
             superior_item: Optional[str] = None,
             seed: Optional[int] = None) -> RunSpec:
    """Build the :class:`RunSpec` matching a harness-style invocation.

    The engine knobs mirror the :class:`ExperimentScale` preset exactly
    (sample counts, IMM options, candidate-pool size, seed), so every
    harness point runs with the preset's settings.
    """
    scale = get_scale(scale)
    fixed = None
    if fixed_allocation is not None and not fixed_allocation.is_empty():
        fixed = {item: tuple(nodes)
                 for item, nodes in fixed_allocation.as_dict().items()}
    return RunSpec(
        algorithm=algorithm,
        workload=WorkloadSpec(
            network=network, configuration=configuration,
            budgets=dict(budgets or {}), fixed_allocation=fixed,
            superior_item=superior_item),
        engine=EngineConfig.from_scale(scale, seed=seed),
    )


__all__ = ["ALGORITHMS", "RunRecord", "spec_for"]
