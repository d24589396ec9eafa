"""Benchmark-side spans around calls into a layer's public functions.

:class:`LayerProbe` replaces a module or class attribute with a timing
wrapper for the duration of a ``with`` block and restores it afterwards,
so traced runs see layer timings without any span inside ``src/``.
Untraced runs never install it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``count(args, kwargs, result) -> (items, members)`` for one call
Counter = Callable[[tuple, dict, Any], Tuple[int, int]]


@dataclass
class CallStats:
    calls: int = 0
    seconds: float = 0.0
    items: int = 0
    members: int = 0


class LayerProbe:
    """Times every call to the wrapped entry points."""

    def __init__(self) -> None:
        self.stats: Dict[str, CallStats] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Counter] = None) -> None:
        original = getattr(owner, attr)
        stat = self.stats.setdefault(name, CallStats())

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            stat.seconds += time.perf_counter() - start
            stat.calls += 1
            if count is not None:
                items, members = count(args, kwargs, result)
                stat.items += items
                stat.members += members
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def __enter__(self) -> "LayerProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())
