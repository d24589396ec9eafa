"""Engine selection and batch sizing for the vectorized possible-world engine.

Every Monte-Carlo entry point (the welfare/spread estimators, the RR-set
samplers and the greedy evaluators built on them) accepts an ``engine``
argument with two spellings:

* ``"python"`` — the original scalar implementations (one possible world at
  a time, per-node Python loops).  They are kept as the reference oracle:
  slower, but the semantics the tests and the paper define.
* ``"vectorized"`` — the batched engine in :mod:`repro.engine`, which
  advances many possible worlds per call with numpy mask/``indptr``
  operations over the CSR adjacency.

``engine=None`` (the default everywhere) resolves to the ``REPRO_ENGINE``
environment variable when set, and to ``"vectorized"`` otherwise.  Batch
sizes are bounded by a state-cell budget so ``(B, n)`` per-world state never
balloons on large graphs; ``REPRO_ENGINE_BATCH`` caps the batch explicitly.
The reverse samplers touch only the visited cells of their ``(B, n)``
buffer, but their chunk size is still part of the RNG stream: roots are
drawn per chunk.
"""

from __future__ import annotations

import os
from typing import Optional

ENGINE_PYTHON = "python"
ENGINE_VECTORIZED = "vectorized"
_ENGINES = (ENGINE_PYTHON, ENGINE_VECTORIZED)

#: environment variable overriding the default engine
ENGINE_ENV_VAR = "REPRO_ENGINE"
#: environment variable overriding the default greedy selection strategy
#: (consumed by :mod:`repro.rrsets.coverage`; housed here so every
#: environment-variable default of the library resolves through one module)
SELECTION_ENV_VAR = "REPRO_SELECTION"
#: environment variable capping the per-call batch size
BATCH_ENV_VAR = "REPRO_ENGINE_BATCH"

#: default cap on worlds simulated per batch
DEFAULT_MAX_BATCH = 512
#: budget on ``batch x num_nodes`` state cells per batch (~4M int64 ≈ 32 MB
#: for forward worlds; the reverse samplers' visited buffer is bool and is
#: read and cleared only where a walk went)
STATE_CELL_BUDGET = 1 << 22


def env_choice(var: str, valid, default: str, what: str = "value") -> str:
    """Resolve an environment-variable default against a set of choices.

    Shared by every env-var knob of the library (``REPRO_ENGINE`` here,
    ``REPRO_SELECTION`` in :mod:`repro.rrsets.coverage`) so unset/invalid
    values behave identically everywhere; the API layer resolves both
    exactly once in :meth:`repro.api.EngineConfig.resolve`.
    """
    value = os.environ.get(var, "").strip().lower()
    if not value:
        return default
    if value not in valid:
        raise ValueError(
            f"{var}={value!r} is not a valid {what}; "
            f"expected one of {list(valid)}")
    return value


def default_engine() -> str:
    """The engine used when callers pass ``engine=None``."""
    return env_choice(ENGINE_ENV_VAR, _ENGINES, ENGINE_VECTORIZED,
                      what="engine")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize an ``engine=`` argument to ``"python"`` or ``"vectorized"``."""
    if engine is None:
        return default_engine()
    value = str(engine).strip().lower()
    if value not in _ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(_ENGINES)}")
    return value


def batch_size(num_nodes: int, requested: Optional[int] = None) -> int:
    """Number of worlds to simulate per batch for a graph of ``num_nodes``.

    Bounded by the state-cell budget (so ``B x n`` arrays stay small), the
    ``REPRO_ENGINE_BATCH`` cap, and ``requested`` (e.g. samples remaining).
    """
    cap = DEFAULT_MAX_BATCH
    override = os.environ.get(BATCH_ENV_VAR, "").strip()
    if override:
        try:
            cap = int(override)
        except ValueError:
            raise ValueError(
                f"{BATCH_ENV_VAR}={override!r} is not an integer") from None
    by_memory = STATE_CELL_BUDGET // max(1, int(num_nodes))
    size = min(max(1, cap), max(1, by_memory))
    if requested is not None:
        size = min(size, max(1, int(requested)))
    return max(1, size)


__all__ = [
    "ENGINE_PYTHON",
    "ENGINE_VECTORIZED",
    "ENGINE_ENV_VAR",
    "SELECTION_ENV_VAR",
    "BATCH_ENV_VAR",
    "env_choice",
    "default_engine",
    "resolve_engine",
    "batch_size",
]
