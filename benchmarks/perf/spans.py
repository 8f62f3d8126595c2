"""In-memory spans, self-time arithmetic and the percentile rule.

Spans are recorded from the benchmark's own files around the calls into each
layer's public functions.  A layer's self time is its span's duration minus
the part of that interval its direct child spans cover (overlapping children
are merged first, so shared coverage is subtracted once).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


class Span:
    __slots__ = ("name", "ident", "start", "end", "parent")

    def __init__(self, name: str, ident: Optional[str], start: float, parent: Optional[int]):
        self.name = name
        self.ident = ident
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "id": self.ident,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }


class Recorder:
    """Collects spans; nesting is tracked per thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(self, name: str, ident: Optional[str] = None) -> Iterator[Span]:
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = self.spans[parent].ident
        with self._lock:
            index = len(self.spans)
            span = Span(name, ident, 0.0, parent)
            self.spans.append(span)
        stack.append(index)
        span.start = span.end = self._clock()
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time per span, in ``spans`` order."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def totals_by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{name: {"self_s", "total_s", "count"}}`` summed over ``spans``."""
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0, "count": 0})
        entry["self_s"] += own
        entry["total_s"] += span.duration
        entry["count"] += 1
    return out


def durations(spans: Sequence[Span], name: str) -> List[float]:
    return [span.duration for span in spans if span.name == name]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def percentile_allowed(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond percentile ``q``."""
    # rounded: 100.0 - 99.9 is not exactly 0.1
    return round(count * (100.0 - q) / 100.0, 6) >= SAMPLES_BEYOND
