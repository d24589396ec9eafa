"""Public entry layer: typed specs, registry dispatch, spec execution.

This package is the single front door for running anything in the
reproduction.  A request is a value — a :class:`RunSpec` — rather than a
pile of keyword arguments:

>>> from repro.api import RunSpec, WorkloadSpec, EngineConfig, run
>>> spec = RunSpec(
...     algorithm="SeqGRD-NM",
...     workload=WorkloadSpec(network="nethept", scale=0.01,
...                           configuration="C1", budget=5),
...     engine=EngineConfig(seed=7, samples=100))
>>> record = run(spec)                 # loads the instance, dispatches
>>> record.result.allocation.as_dict() # doctest: +SKIP

The pieces:

* :mod:`repro.api.specs` — frozen dataclasses ``WorkloadSpec`` /
  ``EngineConfig`` / ``RunSpec`` with ``to_dict``/``from_dict``,
  validation, centralized env-var resolution
  (:meth:`EngineConfig.resolve`) and a stable :meth:`RunSpec.fingerprint`
  used as a cache key and index-compatibility check.
* :mod:`repro.api.registry` — ``@register_algorithm`` entries (declared
  next to each implementation in ``core/`` and ``baselines/``) with
  capability flags, replacing the old ``if/elif`` dispatch chain.
* :mod:`repro.api.runner` — :func:`run`, the one executor every surface
  (CLI, experiment harness, serve protocol) funnels through; equal specs
  produce bit-identical allocations everywhere.
* :mod:`repro.api.protocol` — the versioned ``repro serve`` JSON
  request/response protocol (``{"v": 1, "spec": {...}}``).
* :mod:`repro.api.cliargs` — argparse argument groups generated from the
  spec dataclass fields, shared by every CLI subcommand.

Direct algorithm calls (``seqgrd(...)`` etc.) remain available for
callers that hold a graph and model and want no spec at all.
"""

from repro.api.specs import (
    SPEC_SCHEMA_VERSION,
    EngineConfig,
    RunSpec,
    WorkloadSpec,
    parse_budgets,
)
from repro.api.registry import (
    AlgorithmEntry,
    RunContext,
    algorithm_entries,
    algorithm_names,
    experiment_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.api.runner import (
    RunRecord,
    load_graph,
    load_workload,
    resolve_workload,
    run,
)
from repro.api.protocol import (
    PROTOCOL_VERSION,
    SERVABLE_ALGORITHMS,
    error_response,
    index_mismatch,
    make_request,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "WorkloadSpec",
    "EngineConfig",
    "RunSpec",
    "parse_budgets",
    "AlgorithmEntry",
    "RunContext",
    "register_algorithm",
    "algorithm_entries",
    "algorithm_names",
    "experiment_algorithms",
    "get_algorithm",
    "RunRecord",
    "run",
    "load_graph",
    "load_workload",
    "resolve_workload",
    "PROTOCOL_VERSION",
    "SERVABLE_ALGORITHMS",
    "make_request",
    "error_response",
    "index_mismatch",
]
