"""Span recording for the traced benchmark run.

The benchmark measures evomerge's layers from outside the package: it
replaces the module attributes through which one module calls another (for
example ``evomerge.runner.step_kinematics``) with wrappers that record a span
(name, start, end, parent) around each call.  Spans are kept in memory and
folded into per-layer totals after every benchmark operation, which keeps
memory flat on long runs.  A layer's self time is its span time minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional, Sequence

#: Called after a wrapped call returns: (tracer, call args, result).
Observer = Callable[["Tracer", tuple, object], None]


def self_times(
    names: Sequence[str],
    parents: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> tuple[Counter, dict[str, float]]:
    """Calls and self seconds per span name.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Spans
    of one thread never overlap their siblings, so the part of a span its
    children cover is the sum of the children's durations.
    """
    child = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    calls: Counter = Counter()
    own: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        calls[name] += 1
        own[name] += (ends[i] - starts[i]) - child[i]
    return calls, own


class Tracer:
    """In-memory span recorder plus the counters observers feed."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._parents: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: Counter = Counter()  # (parent name, child name) -> spans
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        index = len(self._starts)
        self._names.append(name)
        self._parents.append(self._current)
        self._ends.append(0.0)
        self._current = index
        self._starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._ends[index] = time.perf_counter()
        self._current = self._parents[index]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self, targets: Iterable[tuple[object, str, str, Optional[Observer]]]) -> None:
        """Replace each ``owner.attr`` with a traced wrapper named ``name``."""
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        if self._current != -1:
            raise RuntimeError("cannot fold while a span is open")
        calls, own = self_times(self._names, self._parents, self._starts, self._ends)
        self.calls.update(calls)
        for name, seconds in own.items():
            self.self_s[name] += seconds
        for name, parent in zip(self._names, self._parents):
            if parent >= 0:
                self.edges[(self._names[parent], name)] += 1
        self._names.clear()
        self._parents.clear()
        self._starts.clear()
        self._ends.clear()
