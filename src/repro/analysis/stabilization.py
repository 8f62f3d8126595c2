"""Stabilization-time measurement (experiments E4, E5 and E7).

After a new edge appears, the algorithm needs some time before the gradient
bound holds on it (Theorem 5.25 shows ``O(G/mu)`` suffices, Theorem 8.1 shows
``Omega(D)`` is necessary).  :func:`stabilization_time` finds the first time
after the insertion at which the skew over the edge drops below a bound *and
stays there* for the remainder of the trace (or a dwell window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..metrics import streaming
from ..network.edge import NodeId
from ..sim.trace import Trace


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of a stabilization measurement."""

    stabilized: bool
    stabilization_time: Optional[float]
    elapsed_since_event: Optional[float]
    max_skew_after_event: float
    final_skew: float


def stabilization_time(
    trace: Trace,
    u: NodeId,
    v: NodeId,
    *,
    bound: float,
    event_time: float,
    dwell: Optional[float] = None,
) -> StabilizationResult:
    """First time after ``event_time`` at which ``|L_u - L_v| <= bound`` holds
    and keeps holding.

    ``dwell`` requires the bound to hold for at least that much time (by
    default it must hold until the end of the trace).

    This is a one-pass replay of the streaming tracker the
    ``stabilization_window`` observer runs during a simulation
    (:class:`repro.metrics.streaming.StabilizationTracker`), so post-hoc and
    in-run measurements are bit-identical.
    """
    tracker = streaming.StabilizationTracker(bound, event_time, dwell)
    for sample in trace:
        tracker.update(sample.time, sample.skew(u, v))
    stabilized, at_time, elapsed, max_skew, final_skew = tracker.result()
    return StabilizationResult(stabilized, at_time, elapsed, max_skew, final_skew)


def global_skew_convergence_time(
    trace: Trace,
    *,
    bound: float,
    start: float = 0.0,
) -> Optional[float]:
    """First time at or after ``start`` when the global skew drops below
    ``bound`` and stays there; ``None`` when it never does."""
    detector = streaming.HoldDetector(bound, start=start)
    for sample in trace:
        detector.update(sample.time, sample.global_skew())
    return detector.candidate


def decrease_rate(
    trace: Trace, *, start: float, end: float
) -> Optional[float]:
    """Average decrease rate of the global skew over ``[start, end]``.

    Positive values mean the skew went down.  Used to verify the
    self-stabilization rate ``mu (1 - rho) - 2 rho`` of Theorem 5.6(II).
    """
    window = trace.samples_between(start, end)
    if len(window) < 2:
        return None
    first, last = window[0], window[-1]
    elapsed = last.time - first.time
    if elapsed <= 0.0:
        return None
    return (first.global_skew() - last.global_skew()) / elapsed
