"""Deterministic fault injection for the serving stack.

Chaos testing needs failures that are **reproducible**: the same seed and
the same call sequence must fire the same faults, so a failing chaos run
can be replayed.  This module is the single switchboard — production code
calls tiny hook functions at named *sites*, and an armed
:class:`FaultInjector` decides, from a per-site seeded RNG, whether that
call fails, how long it stalls, or whether the connection should be torn
down mid-frame.

Sites wired through the serving stack:

``registry-load``
    :meth:`repro.serve.registry.IndexRegistry.get` raises
    :class:`~repro.exceptions.IndexStoreError` instead of loading — the
    request is answered with a typed envelope, never a crash.
``slow-selection``
    The execution step of :class:`repro.serve.server.AllocationServer`,
    shared by v1 requests and legacy ``query`` ops, sleeps on the worker
    thread before its deadline check and query, simulating a
    cold/contended selection run.
``stall-write``
    :class:`repro.serve.server.AllocationServer` sleeps (async) before
    writing a response frame, simulating a slow/backpressured client
    link.
``disconnect``
    The server writes only a prefix of the response frame and aborts the
    connection — the client sees a truncated frame + EOF.

Arming
------
The injector is **disarmed by default** and the hooks then cost one
module-global read plus a ``None`` check (measured in
``benchmarks/bench_soak.py``; the warm-path overhead budget is <= 1%).
Arm it explicitly::

    from repro import faults
    faults.configure("registry-load:0.3,slow-selection:0.5:80", seed=7)

or from the environment (``repro serve`` honors both)::

    REPRO_FAULTS="disconnect:0.1,stall-write:0.2:50" \\
    REPRO_FAULT_SEED=7 repro serve --index ... --tcp ...

or via ``repro serve --faults SPEC --fault-seed N``.

The spec is a comma-separated list of ``site:rate[:delay_ms]`` tokens:
``rate`` is the per-call fire probability in ``[0, 1]``, ``delay_ms``
(sites that stall) the injected latency.  Determinism: each site draws
from its own ``random.Random(f"{seed}:{site}")`` stream under a lock, so
per-site fire patterns depend only on the seed and that site's call
count — not on thread interleaving across sites.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Mapping, Optional, Tuple, Union

#: the sites production code hooks; configure() rejects unknown names so
#: a typo'd spec fails fast instead of silently never firing
SITES = ("registry-load", "slow-selection", "stall-write", "disconnect")

#: environment variables `repro serve` (and configure_from_env) honor
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULT_SEED"


class FaultSpecError(ValueError):
    """Raised for an unparsable or unknown-site fault spec."""


class _SiteRule:
    """One site's fire probability, injected delay, and counters."""

    __slots__ = ("rate", "delay_s", "checked", "fired", "_rng", "_lock")

    def __init__(self, rate: float, delay_s: float, seed: int,
                 site: str) -> None:
        import random

        self.rate = float(rate)
        self.delay_s = float(delay_s)
        self.checked = 0
        self.fired = 0
        self._rng = random.Random(f"{seed}:{site}")
        self._lock = threading.Lock()

    def fires(self) -> bool:
        with self._lock:
            self.checked += 1
            fired = self._rng.random() < self.rate
            if fired:
                self.fired += 1
            return fired


class FaultInjector:
    """A parsed, seeded fault plan over the known :data:`SITES`."""

    def __init__(self, spec: Union[str, Mapping[str, Any]],
                 seed: int = 0) -> None:
        self.seed = int(seed)
        self.spec = spec if isinstance(spec, str) else dict(spec)
        self._rules: Dict[str, _SiteRule] = {}
        for site, (rate, delay_s) in _parse_spec(spec).items():
            self._rules[site] = _SiteRule(rate, delay_s, self.seed, site)
        if not self._rules:
            raise FaultSpecError("fault spec names no sites")

    def fires(self, site: str) -> bool:
        """Whether this call at ``site`` fails (draws the site's RNG)."""
        rule = self._rules.get(site)
        return rule.fires() if rule is not None else False

    def delay(self, site: str) -> float:
        """Injected delay in seconds for ``site`` (0.0 when not firing)."""
        rule = self._rules.get(site)
        if rule is None or not rule.fires():
            return 0.0
        return rule.delay_s

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-site ``{rate, delay_ms, checked, fired}`` counters."""
        return {site: {"rate": rule.rate,
                       "delay_ms": round(rule.delay_s * 1000.0, 3),
                       "checked": rule.checked,
                       "fired": rule.fired}
                for site, rule in sorted(self._rules.items())}


def _parse_spec(spec: Union[str, Mapping[str, Any]]
                ) -> Dict[str, Tuple[float, float]]:
    """``site:rate[:delay_ms]`` tokens -> ``{site: (rate, delay_s)}``."""
    if isinstance(spec, Mapping):
        tokens = [f"{site}:{value}" if not isinstance(value, (tuple, list))
                  else f"{site}:{value[0]}:{value[1]}"
                  for site, value in spec.items()]
    else:
        tokens = [token for token in str(spec).split(",") if token.strip()]
    rules: Dict[str, Tuple[float, float]] = {}
    for token in tokens:
        parts = [part.strip() for part in token.split(":")]
        if len(parts) not in (2, 3):
            raise FaultSpecError(
                f"bad fault token {token!r}: expected site:rate[:delay_ms]")
        site = parts[0]
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; known sites: {list(SITES)}")
        try:
            rate = float(parts[1])
            delay_ms = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as error:
            raise FaultSpecError(f"bad fault token {token!r}: {error}") \
                from None
        if not 0.0 <= rate <= 1.0:
            raise FaultSpecError(
                f"fault rate for {site!r} must be in [0, 1], got {rate}")
        if delay_ms < 0:
            raise FaultSpecError(
                f"fault delay for {site!r} must be >= 0, got {delay_ms}")
        rules[site] = (rate, delay_ms / 1000.0)
    return rules


# ----------------------------------------------------------------------
# the process-global switchboard (None == disarmed == near-zero cost)
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None


def configure(spec: Union[str, Mapping[str, Any]],
              seed: int = 0) -> FaultInjector:
    """Arm fault injection process-wide; returns the installed injector."""
    global _ACTIVE
    _ACTIVE = FaultInjector(spec, seed=seed)
    return _ACTIVE


def configure_from_env(environ: Optional[Mapping[str, str]] = None
                       ) -> Optional[FaultInjector]:
    """Arm from ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED`` when set."""
    env = environ if environ is not None else os.environ
    spec = env.get(ENV_SPEC)
    if not spec:
        return None
    return configure(spec, seed=int(env.get(ENV_SEED, "0")))


def disarm() -> None:
    """Disarm fault injection (hooks return to their no-op fast path)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The armed injector, or ``None``."""
    return _ACTIVE


# ----------------------------------------------------------------------
# the hooks production code calls (fast path: one read + one branch)
# ----------------------------------------------------------------------
def fires(site: str) -> bool:
    """Whether an armed injector fails this call at ``site``."""
    injector = _ACTIVE
    if injector is None:
        return False
    return injector.fires(site)


def delay(site: str) -> float:
    """Injected delay in seconds at ``site`` (0.0 when disarmed)."""
    injector = _ACTIVE
    if injector is None:
        return 0.0
    return injector.delay(site)


def stats() -> Optional[Dict[str, Dict[str, Any]]]:
    """Armed injector's per-site counters, or ``None`` when disarmed."""
    injector = _ACTIVE
    return injector.stats() if injector is not None else None


__all__ = [
    "ENV_SEED",
    "ENV_SPEC",
    "SITES",
    "FaultInjector",
    "FaultSpecError",
    "active",
    "configure",
    "configure_from_env",
    "delay",
    "disarm",
    "fires",
    "stats",
]
