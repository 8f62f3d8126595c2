"""Watchdog observers: live threshold monitors over the streaming pipeline.

A :class:`Watchdog` is an :class:`~repro.metrics.observers.Observer` that,
in addition to its end-of-run payload, *fires* during the run whenever a
sample crosses its threshold.  Firings go to the pipeline's
:class:`~repro.metrics.observers.TelemetryChannel`: they are tallied there
(the service's ``/healthz`` watchdog counters), emitted as structured
``watchdog_fired`` events when a telemetry sink is attached (the
``--telemetry`` stream), and recorded in the watchdog's own payload so a
cached result can replay them later.  A watchdog can also be *armed* as a
stop trigger (:meth:`Watchdog.arm_stop`): its first firing sets
``channel.stop`` and the engines' shared ``run_until`` loop exits early -- the
``--until-stable`` mechanism.

The four built-ins monitor the paper's claims live:

==========================  ==============================================
``watchdog_gradient_bound``  a sample violates the Corollary 5.26 gradient
                             skew bound (edge-triggered per excursion)
``watchdog_global_skew``     global skew exceeds the configured ceiling
                             (edge-triggered per excursion)
``watchdog_convergence``     global skew first drops to half its initial
                             value (fires once)
``watchdog_stabilization``   after an edge insertion, the skew over the new
                             edge first drops below ``2 kappa_min`` -- the
                             stabilization window closes (fires once)
==========================  ==============================================

Edge-triggered watchdogs fire once per *excursion* (the sample that crosses
the threshold), not once per violating sample, so a long excursion is one
event.  All thresholds reuse the exact float expressions of the passive
observers they mirror, and all firings happen at sample-record instants
only -- which is what makes the ``--until-stable`` truncation bit-identical
to a prefix of the full run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..sim.runner import minimum_kappa
from .observers import OBSERVERS, Observer, ObserverContext
from .views import SampleView

#: Per-watchdog cap on detailed event records kept for the payload; the
#: ``fired`` counter is exact regardless (a misbehaving run could otherwise
#: grow the cached payload without bound).
MAX_EVENT_RECORDS = 50

#: Names of all registered watchdogs (filled by the registrations below).
WATCHDOG_NAMES: Tuple[str, ...] = ()


class Watchdog(Observer):
    """Base class: threshold bookkeeping + the firing side-channel."""

    name = "watchdog"

    def __init__(self, context: ObserverContext):
        super().__init__(context)
        self.applicable = True
        self.threshold: Optional[float] = None
        self.fired = 0
        self.first_fired: Optional[float] = None
        self.events: List[Dict[str, Any]] = []
        self._stop_on_fire = False

    def arm_stop(self) -> None:
        """Make this watchdog's first firing request an engine stop."""
        self._stop_on_fire = True

    def fire(self, time: float, value: float, **extra: Any) -> None:
        self.fired += 1
        if self.first_fired is None:
            self.first_fired = time
        if len(self.events) < MAX_EVENT_RECORDS:
            record = {"time": time, "value": value}
            record.update(extra)
            self.events.append(record)
        channel = self.context.channel
        channel.emit(self.name, time, value, self.threshold, **extra)
        if self._stop_on_fire:
            channel.stop = True

    def finalize(self) -> Dict[str, Any]:
        if not self.applicable:
            return {"applicable": False}
        return {
            "applicable": True,
            "fired": self.fired,
            "first_fired": self.first_fired,
            "threshold": self.threshold,
            "events": list(self.events),
        }


class GradientBoundWatchdog(Watchdog):
    """Fires when a sample violates the Corollary 5.26 gradient skew bound.

    Reads the pair table and class limits of
    :meth:`~repro.metrics.observers.ObserverContext.gradient_limits`: the
    same compact table as ``gradient_bound_check`` (8 bytes per node pair,
    built once per graph and shared by every pipeline over it);
    edge-triggered, so one excursion above the bound is one firing however
    many consecutive samples it spans.  On a correct algorithm under the
    paper's assumptions this watchdog stays silent -- the clean-scenario
    tests pin that down.
    """

    name = "watchdog_gradient_bound"

    def __init__(self, context: ObserverContext, *, tolerance: float = 1e-9):
        super().__init__(context)
        self._table = context.gradient_limits(tolerance)
        self.applicable = self._table is not None
        self._violating = False
        if self.applicable:
            self.threshold = context.global_skew_bound

    def observe(self, view: SampleView) -> None:
        if not self.applicable:
            return
        count = view.count_exceeding(*self._table)
        if count and not self._violating:
            self.fire(view.time, float(count), violating_pairs=int(count))
        self._violating = bool(count)


class GlobalSkewWatchdog(Watchdog):
    """Fires when the global skew exceeds the configured ceiling.

    The ceiling is the scenario's global skew bound (the same value the
    gradient limits are computed from); without one the watchdog is
    inapplicable.  Edge-triggered per excursion above the ceiling.
    """

    name = "watchdog_global_skew"

    def __init__(self, context: ObserverContext):
        super().__init__(context)
        self.applicable = context.global_skew_bound is not None
        self._above = False
        if self.applicable:
            self.threshold = context.global_skew_bound

    def observe(self, view: SampleView) -> None:
        if not self.applicable:
            return
        gskew = view.global_skew()
        if gskew > self.threshold and not self._above:
            self.fire(view.time, gskew)
        self._above = gskew > self.threshold


class ConvergenceWatchdog(Watchdog):
    """Fires once, when the global skew first halves its initial value.

    The live twin of ``convergence_time``'s halving criterion, minus the
    "stays halved" hold (an early-exit trigger cannot see the future); a
    run whose initial skew is zero has nothing to converge, so the watchdog
    never fires there and an armed ``--until-stable`` run falls back to the
    full duration.
    """

    name = "watchdog_convergence"

    def __init__(self, context: ObserverContext):
        super().__init__(context)
        self._initial: Optional[float] = None

    def observe(self, view: SampleView) -> None:
        gskew = view.global_skew()
        if self._initial is None:
            self._initial = gskew
            if gskew > 0.0:
                self.threshold = gskew / 2.0
            return
        if self.threshold is not None and self.fired == 0 and gskew <= self.threshold:
            self.fire(view.time, gskew)


class StabilizationWatchdog(Watchdog):
    """Fires once, when the post-insertion stabilization window closes.

    Insertion scenarios only (``meta`` carries ``insertion_time`` and
    ``new_edge``): after the event, the first sample where the skew across
    the inserted edge drops to ``2 kappa_min`` -- the criterion of
    :class:`~repro.metrics.observers.StabilizationWindowObserver` -- fires
    the watchdog.
    """

    name = "watchdog_stabilization"

    def __init__(self, context: ObserverContext):
        super().__init__(context)
        event = context.event_time
        edge = context.new_edge
        self.applicable = event is not None and edge is not None
        if self.applicable:
            self._event = event
            self._u, self._v = edge
            self.threshold = 2.0 * minimum_kappa(context.graph, context.params)

    def observe(self, view: SampleView) -> None:
        if not self.applicable or self.fired:
            return
        if view.time < self._event:
            return
        skew = view.pair_skew(self._u, self._v)
        if skew <= self.threshold:
            self.fire(view.time, skew)


def _register() -> Tuple[str, ...]:
    names = []
    for cls in (
        GradientBoundWatchdog,
        GlobalSkewWatchdog,
        ConvergenceWatchdog,
        StabilizationWatchdog,
    ):
        OBSERVERS[cls.name] = cls
        names.append(cls.name)
    return tuple(names)


WATCHDOG_NAMES = _register()


def is_watchdog_name(name: str) -> bool:
    return name in WATCHDOG_NAMES
