"""Recording of simulation state over time.

Every engine records the same columnar :class:`TraceSample`: the per-node
values it already holds (lists on ``reference``, ``fast`` and decoded traces,
NumPy slices on ``vec`` and ``jit``) in one node order that the run's samples
share.  The ``{node: value}`` dicts analyses read are built on first access
and kept; :meth:`TraceSample.from_dicts` builds a sample from such dicts.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

from ..core.aopt_step import MODE_CODES, MODE_NAMES
from ..network.edge import NodeId


class TraceError(ValueError):
    """Raised on invalid trace operations."""


#: A sample's columns, in :attr:`TraceSample.columns` order; ``modes`` holds
#: codes into :data:`~repro.core.aopt_step.MODE_NAMES`.
COLUMN_NAMES = ("logical", "hardware", "multipliers", "modes", "max_estimates")
MODE_COLUMN = 3


def values_in_order(mapping: Dict[Any, Any], keys: List[Any]) -> List[Any]:
    """``mapping``'s values in ``keys`` order; a :class:`TraceError` unless
    it holds exactly those keys."""
    if list(mapping) == keys:
        return list(mapping.values())
    if len(mapping) != len(keys) or not all(map(mapping.__contains__, keys)):
        raise TraceError("a sample's columns disagree on its node set")
    return list(map(mapping.__getitem__, keys))


def _column_dict(field: int) -> property:
    return property(lambda sample: sample._as_dict(field))


class TraceSample:
    """Snapshot of every node's observable state at one instant.

    ``columns`` holds one column per :data:`COLUMN_NAMES` entry, each in
    ``ids`` order (``index`` maps a node to its position).  Two samples are
    equal when their times, diameters and per-node values are.
    """

    __slots__ = ("time", "diameter", "ids", "index", "columns", "_dicts")

    def __init__(self, time, ids, index, logical, hardware, multipliers, modes,
                 max_estimates, diameter=None):
        self.time = time
        self.diameter = diameter
        self.ids = ids
        self.index = index
        self.columns = (logical, hardware, multipliers, modes, max_estimates)
        self._dicts: Optional[Dict[int, Dict[NodeId, Any]]] = None

    @classmethod
    def from_dicts(cls, time, logical, hardware, multipliers, modes, max_estimates,
                   diameter=None) -> "TraceSample":
        """A sample from per-node dicts, in ``logical``'s node order."""
        ids = list(logical)
        mappings = (logical, hardware, multipliers, modes, max_estimates)
        columns = [values_in_order(mapping, ids) for mapping in mappings]
        columns[MODE_COLUMN] = list(map(MODE_CODES.__getitem__, columns[MODE_COLUMN]))
        index = {node: i for i, node in enumerate(ids)}
        return cls(time, ids, index, *columns, diameter=diameter)

    def plain_column(self, field: int) -> List[Any]:
        """Column ``field`` as Python numbers, modes by name: the values of
        the per-node dicts and of the cache payload."""
        values = self.columns[field]
        values = values if type(values) is list else values.tolist()
        if field == MODE_COLUMN:
            return list(map(MODE_NAMES.__getitem__, values))
        return values

    def _as_dict(self, field: int) -> Dict[NodeId, Any]:
        if self._dicts is None:
            self._dicts = {}
        mapping = self._dicts.get(field)
        if mapping is None:
            mapping = self._dicts[field] = dict(zip(self.ids, self.plain_column(field)))
        return mapping

    logical = _column_dict(0)
    hardware = _column_dict(1)
    multipliers = _column_dict(2)
    modes = _column_dict(MODE_COLUMN)
    max_estimates = _column_dict(4)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSample):
            return NotImplemented
        return (self.time, self.diameter) == (other.time, other.diameter) and all(
            self._as_dict(field) == other._as_dict(field) for field in range(5)
        )

    __hash__ = None  # type: ignore[assignment]

    def global_skew(self) -> float:
        """Maximum pairwise logical clock difference in this sample."""
        values = self.columns[0]
        if not len(values):
            return 0.0
        if type(values) is list:
            return max(values) - min(values)
        return float(values.max() - values.min())

    def skew(self, u: NodeId, v: NodeId) -> float:
        """Absolute logical clock difference between two nodes."""
        values, index = self.columns[0], self.index
        return float(abs(values[index[u]] - values[index[v]]))


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
