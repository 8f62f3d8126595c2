"""Recording of simulation state over time."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..network.edge import NodeId


class TraceError(ValueError):
    """Raised on invalid trace operations."""


@dataclass(frozen=True)
class TraceSample:
    """Snapshot of every node's observable state at one instant."""

    time: float
    logical: Dict[NodeId, float]
    hardware: Dict[NodeId, float]
    multipliers: Dict[NodeId, float]
    modes: Dict[NodeId, str]
    max_estimates: Dict[NodeId, float]
    diameter: Optional[float] = None

    def global_skew(self) -> float:
        """Maximum pairwise logical clock difference in this sample."""
        values = list(self.logical.values())
        if not values:
            return 0.0
        return max(values) - min(values)

    def skew(self, u: NodeId, v: NodeId) -> float:
        """Absolute logical clock difference between two nodes."""
        return abs(self.logical[u] - self.logical[v])


#: Absolute tolerance for ordering checks: a sample more than this much
#: *earlier* than the last recorded time is rejected.
TIME_TOLERANCE = 1e-12


class Trace:
    """Time-ordered sequence of :class:`TraceSample` objects.

    A sample must not be earlier than the last recorded one by more than
    :data:`TIME_TOLERANCE`.  A sample at the same instant as the last one is
    appended: the engines rely on it, since ``run_until`` force-records a
    final sample that can coincide with the last periodic one, and
    summaries deliberately count both.
    """

    def __init__(self, sample_interval: float = 1.0):
        if sample_interval <= 0.0:
            raise TraceError("sample_interval must be positive")
        self.sample_interval = float(sample_interval)
        self._samples: List[TraceSample] = []
        self._times: List[float] = []

    # ------------------------------------------------------------------
    def record(self, sample: TraceSample) -> None:
        if self._times and sample.time < self._times[-1] - TIME_TOLERANCE:
            raise TraceError("samples must be recorded in non-decreasing time order")
        self._samples.append(sample)
        self._times.append(sample.time)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def samples(self) -> List[TraceSample]:
        return list(self._samples)

    @property
    def times(self) -> List[float]:
        return list(self._times)

    def is_empty(self) -> bool:
        return not self._samples

    def first(self) -> TraceSample:
        if not self._samples:
            raise TraceError("the trace is empty")
        return self._samples[0]

    def final(self) -> TraceSample:
        if not self._samples:
            raise TraceError("the trace is empty")
        return self._samples[-1]

    def sample_at(self, t: float) -> TraceSample:
        """The latest sample with time at most ``t`` (or the first sample)."""
        if not self._samples:
            raise TraceError("the trace is empty")
        index = bisect.bisect_right(self._times, t + 1e-12) - 1
        return self._samples[max(0, index)]

    def samples_between(self, start: float, end: float) -> List[TraceSample]:
        """All samples with time in ``[start, end]``."""
        if end < start:
            raise TraceError("end must not precede start")
        lo = bisect.bisect_left(self._times, start - 1e-12)
        hi = bisect.bisect_right(self._times, end + 1e-12)
        return self._samples[lo:hi]

    # ------------------------------------------------------------------
    # Convenience series
    # ------------------------------------------------------------------
    def logical_series(self, node: NodeId) -> List[Tuple[float, float]]:
        return [(s.time, s.logical[node]) for s in self._samples]

    def skew_series(self, u: NodeId, v: NodeId) -> List[Tuple[float, float]]:
        return [(s.time, s.skew(u, v)) for s in self._samples]

    def global_skew_series(self) -> List[Tuple[float, float]]:
        return [(s.time, s.global_skew()) for s in self._samples]

    def max_global_skew(self) -> float:
        if not self._samples:
            return 0.0
        return max(s.global_skew() for s in self._samples)

    def mode_counts(self) -> Dict[str, int]:
        """Total number of (node, sample) pairs per mode (fast/slow)."""
        counts: Dict[str, int] = {}
        for sample in self._samples:
            for mode in sample.modes.values():
                counts[mode] = counts.get(mode, 0) + 1
        return counts
