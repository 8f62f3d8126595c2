"""Scalar streaming reducers shared by observers and trace analyses.

Every reducer here is the single-pass counterpart of one trace-walking
computation that used to live in :mod:`repro.analysis`: the *same* float
comparisons and the *same* update expressions, applied to one sample at a
time instead of a materialized :class:`~repro.sim.trace.Trace`.  The
observers of :mod:`repro.metrics.observers` feed them during the run; the
analysis helpers feed them from a finished trace.  Both paths therefore
produce bit-identical results -- the differential suite asserts this on
every named scenario and backend.

The only end-of-run quantity a streaming pass cannot observe is the time of
the final (forced) sample, which the steady-state window depends on.
:func:`predict_final_time` reproduces the engines' time accumulation loop
exactly (same floats, same ``1e-9`` guard), so the window start can be fixed
before the first sample arrives.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def predict_final_time(duration: float, dt: float) -> float:
    """The time of the final forced trace sample of ``run(duration)``.

    Reproduces the engines' ``run_until`` (``EngineBase``) verbatim:
    starting from 0.0, ``dt`` is accumulated while ``t < end - 1e-9``; the
    forced sample is recorded at the accumulated ``t``.  Because this is the
    identical float accumulation, the predicted value is bit-equal to the
    recorded one.
    """
    t = 0.0
    end = 0.0 + float(duration)
    step = float(dt)
    while t < end - 1e-9:
        t += step
    return t


def steady_window_start(start_time: float, end_time: float, fraction: float) -> float:
    """Start of the window covering the last ``fraction`` of a run.

    The expression of :func:`repro.analysis.skew.steady_state_window`,
    verbatim.
    """
    return end_time - fraction * (end_time - start_time)


class PeakTracker:
    """Running maximum of a scalar series from ``start`` onwards.

    Mirrors the ``best = 0.0; if sample.time >= start: best = max(best, v)``
    loops of :func:`repro.analysis.skew.max_global_skew` and friends: the
    peak starts at 0.0 and is only replaced by strictly larger values.
    """

    __slots__ = ("start", "peak")

    def __init__(self, start: float = 0.0):
        self.start = start
        self.peak = 0.0

    def update(self, time: float, value: float) -> None:
        if time >= self.start and value > self.peak:
            self.peak = value


class HighWater:
    """Running maximum without a floor (``None`` until the first value)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None

    def update(self, value: float) -> None:
        if self.value is None or value > self.value:
            self.value = value


class HoldDetector:
    """First time a series drops to/below ``bound`` and stays there.

    Mirrors :func:`repro.analysis.stabilization.global_skew_convergence_time`:
    the candidate time is set when ``value <= bound`` first holds and reset
    whenever the bound is violated again; at the end of the stream the
    surviving candidate (or ``None``) is the answer.
    """

    __slots__ = ("bound", "start", "candidate")

    def __init__(self, bound: float, start: float = 0.0):
        self.bound = bound
        self.start = start
        self.candidate: Optional[float] = None

    def update(self, time: float, value: float) -> None:
        if time < self.start:
            return
        if value <= self.bound:
            if self.candidate is None:
                self.candidate = time
        else:
            self.candidate = None


class StabilizationTracker:
    """Streaming counterpart of :func:`repro.analysis.stabilization.stabilization_time`.

    Feeds on the skew ``|L_u - L_v|`` over the inserted edge; only samples
    with ``time >= event_time`` participate, exactly like the post-hoc
    filter.  ``result()`` returns ``(stabilized, stabilization_time,
    elapsed_since_event, max_skew_after_event, final_skew)``.
    """

    __slots__ = ("bound", "event_time", "dwell", "_max", "_final", "_end", "_candidate", "_seen")

    def __init__(self, bound: float, event_time: float, dwell: Optional[float] = None):
        if bound < 0.0:
            raise ValueError("bound must be non-negative")
        self.bound = bound
        self.event_time = event_time
        self.dwell = dwell
        self._max = HighWater()
        self._final = 0.0
        self._end = 0.0
        self._candidate: Optional[float] = None
        self._seen = False

    def update(self, time: float, skew: float) -> None:
        if time < self.event_time:
            return
        self._seen = True
        self._max.update(skew)
        self._final = skew
        self._end = time
        if skew <= self.bound:
            if self._candidate is None:
                self._candidate = time
        else:
            self._candidate = None

    @property
    def observed(self) -> bool:
        return self._seen

    def result(self) -> Tuple[bool, Optional[float], Optional[float], float, float]:
        if not self._seen:
            raise ValueError("the trace has no samples after the event time")
        max_skew = self._max.value if self._max.value is not None else 0.0
        candidate = self._candidate
        if candidate is None:
            return (False, None, None, max_skew, self._final)
        if self.dwell is not None and self._end - candidate < self.dwell:
            return (False, None, None, max_skew, self._final)
        return (True, candidate, candidate - self.event_time, max_skew, self._final)


class EventSnapshot:
    """Streaming counterpart of ``trace.sample_at(event_time)`` for one scalar.

    ``Trace.sample_at`` picks the latest sample with ``time <= t + 1e-12``
    and falls back to the *first* sample when every sample is later; this
    tracker keeps the corresponding scalar with the identical comparison.
    """

    __slots__ = ("event_time", "_first", "_at_event")

    def __init__(self, event_time: float):
        self.event_time = event_time
        self._first: Optional[float] = None
        self._at_event: Optional[float] = None

    def update(self, time: float, value: float) -> None:
        if self._first is None:
            self._first = value
        if time <= self.event_time + 1e-12:
            self._at_event = value

    @property
    def value(self) -> Optional[float]:
        return self._at_event if self._at_event is not None else self._first


class GradientCounter:
    """Per-sample gradient-bound violation counting over a fixed pair list.

    ``pairs`` is a list of ``(u, v, distance, bound)`` entries; a violation
    is ``skew > bound + tolerance`` -- the comparison of
    :func:`repro.analysis.gradient.check_sample`, verbatim.  With
    ``collect=True`` every violation is kept as ``(time, index, skew)`` so
    :func:`repro.analysis.gradient.check_trace` can rebuild its rich
    violation objects; the observers only keep the count.
    """

    __slots__ = ("pairs", "limits", "tolerance", "count", "collected", "_collect")

    def __init__(self, pairs, *, tolerance: float = 1e-9, collect: bool = False):
        self.pairs = list(pairs)
        self.tolerance = tolerance
        self.limits = [bound + tolerance for (_, _, _, bound) in self.pairs]
        self.count = 0
        self._collect = collect
        self.collected: List[Tuple[float, int, float]] = []

    def update_skews(self, time: float, skews) -> None:
        """Consume one sample's per-pair skews (same order as ``pairs``)."""
        limits = self.limits
        for index, skew in enumerate(skews):
            if skew > limits[index]:
                self.count += 1
                if self._collect:
                    self.collected.append((time, index, skew))


class DistanceGroupMax:
    """Per-distance running maximum skew (dict-path core).

    Mirrors :func:`repro.analysis.skew.max_skew_by_distance`: a distance key
    enters the result only once a strictly positive skew is seen for it, and
    the reported mapping is sorted by distance.  ``keep_zeros=True`` instead
    pre-seeds every key at 0.0 (the behaviour of
    :func:`repro.analysis.gradient.profile`).
    """

    __slots__ = ("maxima", "_keep_zeros")

    def __init__(self, keys=(), *, keep_zeros: bool = False):
        self._keep_zeros = keep_zeros
        self.maxima = {key: 0.0 for key in keys} if keep_zeros else {}

    def update(self, key: float, skew: float) -> None:
        if skew > self.maxima.get(key, 0.0):
            self.maxima[key] = skew
        elif self._keep_zeros and key not in self.maxima:
            self.maxima[key] = 0.0

    def result(self):
        return dict(sorted(self.maxima.items()))
