"""Per-request tracing: a trace id plus named span timings.

A :class:`Trace` is minted when a frame is received and carried through
the protocol stages (``parse`` → ``validate`` → ``queue`` → ``execute``
→ ``respond``).  Span timings are surfaced in the response ``timings``
object (``trace_id`` + ``spans``, milliseconds) and folded into the
server's ``repro_span_seconds`` histograms.

Trace ids come from :func:`os.urandom` — *never* from numpy's RNG, whose
streams are part of the reproducibility contract (allocations must be
bit-identical with tracing on or off).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple


def new_trace_id() -> str:
    """A 16-hex-char request id, independent of every seeded RNG."""
    return os.urandom(8).hex()


class Trace:
    """Named span timings for one request, in recording order.

    Repeated spans with the same name accumulate.
    """

    __slots__ = ("trace_id", "started", "_spans")

    def __init__(self, trace_id: str = "") -> None:
        self.trace_id = trace_id or new_trace_id()
        self.started = time.perf_counter()
        self._spans: List[Tuple[str, float]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the wrapped block as span ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Record ``seconds`` against span ``name``."""
        self._spans.append((name, float(seconds)))

    def spans(self) -> List[Tuple[str, float]]:
        """``(name, seconds)`` pairs in recording order (accumulated by
        name)."""
        merged: Dict[str, float] = {}
        order: List[str] = []
        for name, seconds in self._spans:
            if name not in merged:
                order.append(name)
                merged[name] = 0.0
            merged[name] += seconds
        return [(name, merged[name]) for name in order]

    def elapsed(self) -> float:
        """Seconds since the trace was minted."""
        return time.perf_counter() - self.started

    def timings_ms(self) -> Dict[str, float]:
        """Span timings in milliseconds, keyed by span name."""
        return {name: round(seconds * 1000.0, 3)
                for name, seconds in self.spans()}


__all__ = ["Trace", "new_trace_id"]
