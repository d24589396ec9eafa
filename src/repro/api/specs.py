"""Typed, hashable run specifications.

A run of any algorithm in this repository is fully described by three
values:

* :class:`WorkloadSpec` — *what* instance to solve: the network (catalog
  name or edge-list path), its down-scale fraction, the utility
  configuration, the per-item budget vector, any fixed allocation and the
  superior item.
* :class:`EngineConfig` — *how* to solve it: Monte-Carlo engine, worker
  count, sample counts, IMM accuracy parameters and the master seed.  The
  one environment-variable default (``REPRO_ENGINE``) is resolved exactly
  once, in :meth:`EngineConfig.resolve`, with the precedence *explicit
  argument > environment variable > built-in default*.
* :class:`RunSpec` — the pair plus the algorithm name; the unit the
  registry dispatches on, the CLI parses into, the serve protocol ships
  over the wire, and whose :meth:`RunSpec.fingerprint` keys result caches
  and index-compatibility checks.

All three are frozen dataclasses with ``to_dict``/``from_dict`` and
validation, so a request is a declarative value rather than a pile of
keyword arguments.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.engine.config import resolve_engine
from repro.exceptions import SpecError
from repro.utility.configs import CONFIGURATIONS

#: bump when the spec schema or fingerprint layout changes
SPEC_SCHEMA_VERSION = 2


def _cli(flag: str, help: str, **kwargs: Any) -> Dict[str, Any]:
    """Field metadata describing the argparse argument generated for it."""
    return {"cli": dict(flag=flag, help=help, **kwargs)}


def parse_budgets(value: Any) -> Dict[str, int]:
    """Parse a per-item budget vector from user input.

    Accepts a mapping, a JSON object string (``'{"i": 10, "j": 5}'``) or
    comma-separated ``item=count`` pairs (``'i=10,j=5'``).  Raises
    :class:`~repro.exceptions.SpecError` with the offending pair named
    instead of surfacing a raw ``ValueError``.
    """
    if isinstance(value, Mapping):
        pairs = list(value.items())
    else:
        text = str(value).strip()
        if not text:
            raise SpecError("empty budget vector; expected JSON like "
                            "'{\"i\": 10}' or pairs like 'i=10,j=5'")
        if text.startswith("{"):
            try:
                parsed = json.loads(text)
            except json.JSONDecodeError as error:
                raise SpecError(
                    f"budgets are not valid JSON ({error}); expected an "
                    f"object like '{{\"i\": 10, \"j\": 5}}'") from None
            if not isinstance(parsed, dict):
                raise SpecError(
                    f"budgets must be a JSON object, got {type(parsed).__name__}")
            pairs = list(parsed.items())
        else:
            pairs = []
            for part in text.split(","):
                part = part.strip()
                if not part:
                    continue
                item, sep, count = part.partition("=")
                if not sep or not item.strip():
                    raise SpecError(
                        f"malformed budget pair {part!r}; expected "
                        f"'item=count' (e.g. 'i=10,j=5')")
                pairs.append((item.strip(), count.strip()))
    budgets: Dict[str, int] = {}
    for item, count in pairs:
        try:
            number = int(count)
        except (TypeError, ValueError):
            raise SpecError(
                f"budget for item {item!r} must be an integer, "
                f"got {count!r}") from None
        if number < 0:
            raise SpecError(
                f"budget for item {item!r} must be >= 0, got {number}")
        budgets[str(item)] = number
    if not budgets:
        raise SpecError("empty budget vector")
    return budgets


def _dataclass_to_dict(spec: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, dict):
            value = {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in value.items()}
        out[f.name] = value
    return out


def _dataclass_from_dict(cls, data: Mapping[str, Any], what: str):
    if not isinstance(data, Mapping):
        raise SpecError(f"{what} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(f"unknown {what} field(s) {unknown}; "
                        f"expected a subset of {sorted(known)}")
    try:
        return cls(**dict(data))
    except (TypeError, ValueError) as error:
        raise SpecError(f"invalid {what}: {error}") from None


@dataclass(frozen=True)
class WorkloadSpec:
    """The CWelMax instance one run solves (network x configuration x
    budgets), independent of how it is solved."""

    #: benchmark network name or path to an edge-list file
    network: str = field(default="nethept", metadata=_cli(
        "--network", "benchmark network name or path to an edge list"))
    #: fraction of the published node count (None = dataset default)
    scale: Optional[float] = field(default=None, metadata=_cli(
        "--scale", "fraction of the published node count", type=float))
    #: utility-configuration catalog name (or a free-form label when the
    #: utility model is supplied programmatically)
    configuration: str = field(default="C1", metadata=_cli(
        "--configuration", "utility configuration",
        choices=lambda: sorted(CONFIGURATIONS)))
    #: uniform per-item seed budget, used when ``budgets`` is not given
    budget: int = field(default=10, metadata=_cli(
        "--budget", "seed budget per item", type=int))
    #: explicit per-item budgets (overrides ``budget``)
    budgets: Optional[Dict[str, int]] = field(default=None, metadata=_cli(
        "--budgets", "per-item budgets as JSON ('{\"i\": 10, \"j\": 5}') "
                     "or pairs ('i=10,j=5')", type="budgets"))
    #: item whose seeds are pre-fixed to the top IMM nodes
    fixed_imm_item: Optional[str] = field(default=None, metadata=_cli(
        "--fixed-imm-item",
        "item whose seeds are pre-fixed to the top IMM nodes"))
    fixed_imm_budget: int = field(default=50, metadata=_cli(
        "--fixed-imm-budget", "budget of the pre-fixed IMM item", type=int))
    #: explicit fixed allocation S_P (item -> seed nodes); mutually
    #: exclusive with ``fixed_imm_item``
    fixed_allocation: Optional[Dict[str, Tuple[int, ...]]] = None
    #: SupGRD's superior item (inferred from the budgets when omitted)
    superior_item: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budgets is not None:
            object.__setattr__(self, "budgets", parse_budgets(self.budgets))
        if self.fixed_allocation is not None:
            normalized = {str(item): tuple(int(v) for v in nodes)
                          for item, nodes in dict(self.fixed_allocation).items()}
            object.__setattr__(self, "fixed_allocation", normalized)
        if self.scale is not None:
            object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "budget", int(self.budget))
        object.__setattr__(self, "fixed_imm_budget",
                           int(self.fixed_imm_budget))

    def __hash__(self) -> int:
        # the generated hash would trip over the mapping fields; hash a
        # canonical tuple instead so specs really are dict/set keys
        return hash(tuple(
            tuple(sorted(value.items())) if isinstance(value, dict)
            else value
            for value in (getattr(self, f.name) for f in fields(self))))

    # ------------------------------------------------------------------
    def item_names(self) -> Optional[Tuple[str, ...]]:
        """Items of the named catalog configuration (None when the
        configuration is not a catalog name)."""
        factory = CONFIGURATIONS.get(self.configuration)
        if factory is None:
            return None
        return tuple(factory().items)

    def validate(self, items: Optional[Tuple[str, ...]] = None,
                 catalog: bool = True) -> None:
        """Check internal consistency; items are validated against
        ``items`` (or the catalog configuration's items) when available."""
        if self.scale is not None and not self.scale > 0:
            raise SpecError(f"scale must be > 0, got {self.scale}")
        if self.budget < 0:
            raise SpecError(f"budget must be >= 0, got {self.budget}")
        if self.fixed_imm_budget < 0:
            raise SpecError("fixed_imm_budget must be >= 0, "
                            f"got {self.fixed_imm_budget}")
        if self.fixed_imm_item and self.fixed_allocation:
            raise SpecError("fixed_imm_item and fixed_allocation are "
                            "mutually exclusive; pass one of them")
        if items is None and catalog:
            if self.configuration not in CONFIGURATIONS:
                raise SpecError(
                    f"unknown configuration {self.configuration!r}; "
                    f"choose from {sorted(CONFIGURATIONS)}")
            items = self.item_names()
        if items is None:
            return
        known = set(items)
        for label, value in (("budgets", self.budgets),
                             ("fixed_allocation", self.fixed_allocation)):
            unknown = sorted(set(value or {}) - known)
            if unknown:
                raise SpecError(
                    f"{label} name item(s) {unknown} not in configuration "
                    f"{self.configuration!r} (items: {sorted(known)})")
        for label, item in (("fixed_imm_item", self.fixed_imm_item),
                            ("superior_item", self.superior_item)):
            if item is not None and item not in known:
                raise SpecError(
                    f"{label} {item!r} is not an item of configuration "
                    f"{self.configuration!r} (items: {sorted(known)})")

    def resolved_budgets(self, items) -> Dict[str, int]:
        """The effective per-item budget vector: explicit ``budgets``, or
        the uniform ``budget`` over ``items``, minus the pre-fixed item."""
        budgets = (dict(self.budgets) if self.budgets is not None
                   else {str(item): self.budget for item in items})
        if self.fixed_imm_item:
            budgets.pop(self.fixed_imm_item, None)
        return budgets

    def to_dict(self) -> Dict[str, Any]:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        return _dataclass_from_dict(cls, data, "workload spec")


@dataclass(frozen=True)
class EngineConfig:
    """How a run executes: engines, sample counts, accuracy knobs, seed.

    ``engine`` defaults to ``None`` meaning *resolve against the
    environment*; :meth:`resolve` performs that resolution exactly once
    (explicit argument > ``REPRO_ENGINE`` > built-in default) so no other
    layer needs to consult the environment.
    """

    engine: Optional[str] = field(default=None, metadata=_cli(
        "--engine", "Monte-Carlo engine: the scalar reference ('python') "
                    "or the batched vectorized engine (the default)",
        choices=("python", "vectorized")))
    workers: Optional[int] = field(default=None, metadata=_cli(
        "--workers", "sample RR sets with this many worker processes "
                     "(results are identical for any worker count at a "
                     "fixed seed)", type=int))
    #: Monte-Carlo samples for the final welfare estimate
    samples: int = field(default=300, metadata=_cli(
        "--samples", "Monte-Carlo samples for the final welfare estimate",
        type=int))
    #: Monte-Carlo samples per marginal check
    marginal_samples: int = field(default=100, metadata=_cli(
        "--marginal-samples", "Monte-Carlo samples per marginal check",
        type=int))
    max_rr_sets: int = field(default=100_000, metadata=_cli(
        "--max-rr-sets", "cap on sampled RR sets", type=int))
    epsilon: float = field(default=0.5, metadata=_cli(
        "--epsilon", "IMM accuracy parameter", type=float))
    ell: float = field(default=1.0, metadata=_cli(
        "--ell", "IMM confidence parameter", type=float))
    seed: int = field(default=2020, metadata=_cli(
        "--seed", "master random seed", type=int))
    #: candidate-pool size for the simulation-heavy baselines
    #: (greedyWM/Balance-C); None = every node
    pool_size: Optional[int] = field(default=None, metadata=_cli(
        "--pool-size", "candidate-pool size for the simulation-heavy "
                       "baselines (top out-degree nodes; default: every "
                       "node)", type=int))

    def __post_init__(self) -> None:
        for name in ("samples", "marginal_samples", "max_rr_sets", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("epsilon", "ell"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("workers", "pool_size"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, int(value))

    # ------------------------------------------------------------------
    def resolve(self) -> "EngineConfig":
        """Resolve the environment-variable default, once.

        Precedence for ``engine``: explicit value > environment variable >
        built-in default.  The returned config has it concretized, so
        downstream layers receive an explicit value and never consult the
        environment.
        """
        try:
            engine = resolve_engine(self.engine)
        except ValueError as error:
            raise SpecError(str(error)) from None
        return replace(self, engine=engine)

    def validate(self) -> None:
        self.resolve()
        if self.samples < 0:
            raise SpecError(f"samples must be >= 0, got {self.samples}")
        if self.marginal_samples < 1:
            raise SpecError("marginal_samples must be >= 1, "
                            f"got {self.marginal_samples}")
        if self.max_rr_sets < 1:
            raise SpecError(f"max_rr_sets must be >= 1, got {self.max_rr_sets}")
        if not self.epsilon > 0:
            raise SpecError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.ell > 0:
            raise SpecError(f"ell must be > 0, got {self.ell}")
        if self.workers is not None and self.workers < 1:
            raise SpecError(f"workers must be >= 1, got {self.workers}")
        if self.pool_size is not None and self.pool_size < 1:
            raise SpecError(f"pool_size must be >= 1, got {self.pool_size}")

    def imm_options(self):
        """IMM/PRIMA+ options carrying this config's accuracy knobs."""
        from repro.rrsets.imm import IMMOptions

        return IMMOptions(epsilon=self.epsilon, ell=self.ell,
                          max_rr_sets=self.max_rr_sets)

    @classmethod
    def from_scale(cls, scale, seed: Optional[int] = None) -> "EngineConfig":
        """Engine config matching an :class:`ExperimentScale` preset, so a
        spec-driven run reproduces a harness run bit for bit."""
        return cls(
            samples=scale.evaluation_samples,
            marginal_samples=scale.marginal_samples,
            max_rr_sets=scale.imm_options.max_rr_sets,
            epsilon=scale.imm_options.epsilon,
            ell=scale.imm_options.ell,
            seed=scale.seed if seed is None else seed,
            pool_size=scale.baseline_pool_size,
        )

    def to_dict(self) -> Dict[str, Any]:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineConfig":
        return _dataclass_from_dict(cls, data, "engine config")


@dataclass(frozen=True)
class RunSpec:
    """One algorithm on one workload with one engine configuration."""

    algorithm: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    engine: EngineConfig = field(default_factory=EngineConfig)

    # ------------------------------------------------------------------
    def resolve(self) -> "RunSpec":
        """Spec with the engine's environment defaults concretized."""
        return replace(self, engine=self.engine.resolve())

    def validate(self, items: Optional[Tuple[str, ...]] = None,
                 catalog: bool = True) -> None:
        """Validate the spec as a whole, including capability flags.

        ``items`` supplies the configuration's item catalog when the
        utility model is provided programmatically; ``catalog=False``
        skips the catalog-name check for free-form configuration labels.
        Unsupported knob/algorithm combinations (workers on an algorithm
        without sharded sampling) fail here, uniformly, before any
        sampling starts.
        """
        from repro.api.registry import get_algorithm

        entry = get_algorithm(self.algorithm)
        self.engine.validate()
        self.workload.validate(items=items, catalog=catalog)
        if self.engine.workers is not None and not entry.supports_workers:
            raise SpecError(
                f"{self.algorithm} does not sample RR sets through the "
                f"sharded parallel builder; workers is not supported "
                f"(supported by: {_names_with('supports_workers')})")
        # pool_size is advisory (a default-bearing knob rather than a
        # request): algorithms without a candidate pool simply ignore it,
        # which lets one EngineConfig drive a whole algorithm sweep

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"algorithm": self.algorithm,
                "workload": self.workload.to_dict(),
                "engine": self.engine.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(data, Mapping):
            raise SpecError(
                f"run spec must be a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - {"algorithm", "workload", "engine"})
        if unknown:
            raise SpecError(f"unknown run-spec field(s) {unknown}; "
                            f"expected algorithm/workload/engine")
        algorithm = data.get("algorithm")
        if not algorithm or not isinstance(algorithm, str):
            raise SpecError("run spec needs an 'algorithm' name")
        return cls(
            algorithm=algorithm,
            workload=WorkloadSpec.from_dict(data.get("workload") or {}),
            engine=EngineConfig.from_dict(data.get("engine") or {}),
        )

    def fingerprint(self) -> str:
        """Stable digest of the fully-resolved spec.

        Environment defaults are resolved first, so two specs that would
        execute identically fingerprint identically; the digest is stable
        across processes and interpreter versions (canonical JSON +
        SHA-256) and keys :class:`~repro.index.service.AllocationService`
        response caches and index-compatibility checks.
        """
        payload = {"schema": SPEC_SCHEMA_VERSION, **self.resolve().to_dict()}
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _names_with(flag: str) -> Tuple[str, ...]:
    from repro.api.registry import algorithm_entries

    return tuple(e.name for e in algorithm_entries() if getattr(e, flag))


__all__ = [
    "SPEC_SCHEMA_VERSION",
    "WorkloadSpec",
    "EngineConfig",
    "RunSpec",
    "parse_budgets",
]
