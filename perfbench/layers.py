"""Per-layer accounting: cProfile call counts and self time by ``src/repro`` layer.

A *layer* is the top-level package under ``src/repro`` a function is
defined in (``uarch``, ``vp``, ``reuse``, ``functional``, ...).  Calls
into builtins (``dict.clear``, ``heapq.heappush``, ...) carry no module
of their own, so they are attributed to the layer of the function that
called them: a builtin called from ``uarch`` code is ``uarch`` work.
Code outside ``src/repro`` (the standard library, this benchmark, and
the methods ``dataclasses`` generates, whose code has no file) falls into
``other``, which the total leaves out: how often a generated ``__eq__``
or ``Enum.__hash__`` runs depends on hash collisions, and that differs
from one interpreter to the next.

The call count is exact: for the same cells in the same process state,
cProfile's count repeats to the call, so it is a work measure a noisy
host cannot move.  Self time is cProfile-inflated and only meaningful
as a share.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter
from typing import Callable, Dict, Tuple

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> str:
    """``src/repro/<layer>/...`` -> ``<layer>``; anything else -> other."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return "other"
    rest = filename[at + len(_MARKER):]
    head = rest.split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


class LayerProfile:
    """Calls and self seconds per layer, accumulated over profiled calls."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()

    def run(self, fn: Callable, *args):
        """Call ``fn(*args)`` under cProfile and add its work by layer."""
        profiler = cProfile.Profile()
        try:
            result = profiler.runcall(fn, *args)
        finally:
            self._add(pstats.Stats(profiler).stats)
        return result

    def _add(self, table: Dict[Tuple, Tuple]) -> None:
        for (filename, _line, _name), (_cc, calls, tottime, _ct,
                                       callers) in table.items():
            if filename != "~":
                layer = layer_of(filename)
                self.calls[layer] += calls
                self.self_s[layer] += tottime
                continue
            # A builtin: split its calls and time over its callers.
            for caller, (_c, ncalls, ttime, _t) in callers.items():
                layer = layer_of(caller[0])
                self.calls[layer] += ncalls
                self.self_s[layer] += ttime

    @property
    def total_calls(self) -> int:
        """Calls in every ``src/repro`` layer."""
        return sum(n for layer, n in self.calls.items() if layer != "other")

    def self_share(self, layer: str) -> float:
        total = sum(self.self_s.values())
        return self.self_s[layer] / total if total else 0.0

    def identity(self) -> Dict[str, int]:
        """The deterministic part: call counts by ``src/repro`` layer."""
        return {layer: n for layer, n in sorted(self.calls.items())
                if layer != "other"}
