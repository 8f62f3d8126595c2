"""Built-in streaming observers and their registry.

An observer consumes one :class:`~repro.metrics.views.SampleView` per
recorded sample and produces a plain-JSON payload at the end of the run.
The built-ins cover everything :class:`~repro.experiments.results.RunSummary`
reports (the ``DEFAULT_OBSERVERS`` set) plus opt-in extras:

=====================  =======================================================
``global_skew``        initial / max / final / steady-window global skew
``local_skew``         max / steady / post-event local skew over base edges
``convergence_time``   first time the global skew halves and stays halved
``mode_counts``        (node, sample) tallies per algorithm mode
``stabilization_window``  Listing-1 insertion stabilization measurement
``gradient_bound_check``  Corollary 5.26 gradient-bound violation count
``skew_by_distance``   per-weighted-distance maximum skew profile (opt-in)
``max_estimate_lag``   largest ``max_v L_v - M_u`` over the run (opt-in)
``edge_skew_histogram``  per-base-edge skew histograms (opt-in)
=====================  =======================================================

Every default observer reproduces the float expressions of the post-hoc
trace analysis it replaces (see :mod:`repro.metrics.streaming`), so its
payload is bit-identical to the value the pre-refactor code computed from a
full trace.  Observers that do not apply to a scenario (no insertion event,
churn making distances ambiguous) report ``applicable: False`` instead of
guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.aopt_step import MODE_NAMES
from ..core.parameters import Parameters
from ..network import paths
from ..sim.runner import minimum_kappa
from . import streaming
from .views import SampleView


class MetricsError(ValueError):
    """Raised on invalid observer configuration or lookups."""


class TelemetryChannel:
    """The live side-channel watchdog observers write to.

    One per :class:`ObserverContext` (so one per pipeline).  ``sink`` is an
    optional callable ``sink(event_type, **fields)`` -- when attached (the
    ``--telemetry`` path) every watchdog firing is emitted as a structured
    event *during* the run; when absent the firings are still tallied in
    ``fired`` and in each watchdog's own payload, so a cached result can
    replay them later.  ``stop`` is the early-exit flag: a watchdog armed
    via :meth:`~repro.metrics.pipeline.MetricsPipeline` ``stop_on`` sets it
    and the engines' shared ``run_until`` loop polls it after every iteration.
    """

    __slots__ = ("sink", "stop", "fired")

    def __init__(self):
        self.sink: Optional[Callable[..., None]] = None
        self.stop = False
        self.fired: Dict[str, int] = {}

    def emit(self, watchdog: str, time: float, value, threshold, **extra: Any) -> None:
        self.fired[watchdog] = self.fired.get(watchdog, 0) + 1
        if self.sink is not None:
            self.sink(
                "watchdog_fired",
                watchdog=watchdog,
                sim_time=time,
                value=value,
                threshold=threshold,
                **extra,
            )


@dataclass
class ObserverContext:
    """Everything an observer may need about the scenario being run.

    Built once per run by :func:`repro.metrics.pipeline.build_pipeline`;
    ``steady_start`` is filled in by the pipeline before the first sample
    (predicted for live streaming, measured for trace replays).
    """

    graph: Any = None
    base_edges: Sequence[Tuple[int, int]] = ()
    params: Optional[Parameters] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    global_skew_bound: Optional[float] = None
    has_dynamics: bool = False
    steady_fraction: float = 0.25
    steady_start: Optional[float] = None
    channel: TelemetryChannel = field(default_factory=TelemetryChannel)

    @property
    def event_time(self) -> Optional[float]:
        return self.meta.get("insertion_time")

    @property
    def new_edge(self) -> Optional[Tuple[int, int]]:
        edge = self.meta.get("new_edge")
        return tuple(edge) if edge is not None else None

    @cached_property
    def kappa_table(self) -> paths.PairTable:
        """The pairs at a positive ``kappa`` distance, by distance class:
        the table every all-pairs observer of the pipeline reads.  A
        one-weight graph's index columns are kept per adjacency by
        :func:`paths.pair_table`, so they are built once per graph."""
        return paths.pair_table(self.graph, paths.kappa_weight(self.graph, self.params))

    def gradient_limits(
        self, tolerance: float
    ) -> Optional[Tuple[paths.PairTable, List[float]]]:
        """The pair table with each class's Corollary 5.26 skew limit
        ``+ tolerance``; ``None`` under churn (distances are ambiguous) or
        without a global skew bound."""
        if self.has_dynamics or self.global_skew_bound is None:
            return None
        table, bound = self.kappa_table, self.global_skew_bound
        return table, [
            self.params.gradient_skew_bound(d, bound) + tolerance for d in table.distances
        ]


class Observer:
    """Base class: per-sample hook plus an end-of-run payload."""

    name = "observer"

    def __init__(self, context: ObserverContext):
        self.context = context

    def observe(self, view: SampleView) -> None:
        raise NotImplementedError

    def finalize(self) -> Dict[str, Any]:
        raise NotImplementedError


class GlobalSkewObserver(Observer):
    """Initial, maximum, final and steady-window global skew."""

    name = "global_skew"

    def __init__(self, context):
        super().__init__(context)
        self._initial: Optional[float] = None
        self._final = 0.0
        self._max = streaming.PeakTracker()
        self._steady: Optional[streaming.PeakTracker] = None

    def observe(self, view: SampleView) -> None:
        gskew = view.global_skew()
        if self._initial is None:
            self._initial = gskew
        self._final = gskew
        self._max.update(view.time, gskew)
        if self._steady is None and self.context.steady_start is not None:
            self._steady = streaming.PeakTracker(start=self.context.steady_start)
        if self._steady is not None:
            self._steady.update(view.time, gskew)

    def finalize(self) -> Dict[str, Any]:
        return {
            "initial": self._initial if self._initial is not None else 0.0,
            "max": self._max.peak,
            "final": self._final,
            "steady_max": self._steady.peak if self._steady is not None else 0.0,
        }


class LocalSkewObserver(Observer):
    """Maximum, steady-window and post-event local skew over base edges."""

    name = "local_skew"

    def __init__(self, context):
        super().__init__(context)
        self._edges = [tuple(edge) for edge in context.base_edges]
        self._max = streaming.PeakTracker()
        self._steady: Optional[streaming.PeakTracker] = None
        event = context.event_time
        self._post_event = (
            streaming.PeakTracker(start=event) if event is not None else None
        )

    def observe(self, view: SampleView) -> None:
        lskew = view.max_pair_skew("local_skew/base_edges", self._edges)
        self._max.update(view.time, lskew)
        if self._steady is None and self.context.steady_start is not None:
            self._steady = streaming.PeakTracker(start=self.context.steady_start)
        if self._steady is not None:
            self._steady.update(view.time, lskew)
        if self._post_event is not None:
            self._post_event.update(view.time, lskew)

    def finalize(self) -> Dict[str, Any]:
        return {
            "max": self._max.peak,
            "steady_max": self._steady.peak if self._steady is not None else 0.0,
            "post_event_max": (
                self._post_event.peak if self._post_event is not None else None
            ),
        }


class ConvergenceTimeObserver(Observer):
    """First time the global skew halves its initial value and stays halved."""

    name = "convergence_time"

    def __init__(self, context):
        super().__init__(context)
        self._detector: Optional[streaming.HoldDetector] = None
        self._initial: Optional[float] = None

    def observe(self, view: SampleView) -> None:
        gskew = view.global_skew()
        if self._initial is None:
            self._initial = gskew
            if gskew > 0.0:
                self._detector = streaming.HoldDetector(gskew / 2.0)
        if self._detector is not None:
            self._detector.update(view.time, gskew)

    def finalize(self) -> Dict[str, Any]:
        return {
            "halving_time": (
                self._detector.candidate if self._detector is not None else None
            ),
        }


class ModeCountsObserver(Observer):
    """(node, sample) tallies per algorithm mode (fast / slow / free)."""

    name = "mode_counts"

    def __init__(self, context):
        super().__init__(context)
        self._counts = [0] * len(MODE_NAMES)

    def observe(self, view: SampleView) -> None:
        view.mode_counts_update(self._counts)

    def finalize(self) -> Dict[str, Any]:
        return {
            "counts": {
                MODE_NAMES[code]: count
                for code, count in enumerate(self._counts)
                if count
            }
        }


class StabilizationWindowObserver(Observer):
    """Edge-insertion stabilization: skew at the event, settle time, bound.

    Streaming counterpart of the E4 measurement: the skew over the inserted
    edge must drop below ``2 kappa_min`` and stay there (see
    :func:`repro.analysis.stabilization.stabilization_time`).
    """

    name = "stabilization_window"

    def __init__(self, context):
        super().__init__(context)
        event = context.event_time
        edge = context.new_edge
        self._applicable = event is not None and edge is not None
        if self._applicable:
            self._u, self._v = edge
            criterion = 2.0 * minimum_kappa(context.graph, context.params)
            self._tracker = streaming.StabilizationTracker(criterion, event)
            self._snapshot = streaming.EventSnapshot(event)

    def observe(self, view: SampleView) -> None:
        if not self._applicable:
            return
        skew = view.pair_skew(self._u, self._v)
        self._tracker.update(view.time, skew)
        self._snapshot.update(view.time, skew)

    def finalize(self) -> Dict[str, Any]:
        if not self._applicable:
            return {"applicable": False}
        if not self._tracker.observed:  # no sample at or after the event
            return {"applicable": True, "observed": False}
        stabilized, at_time, elapsed, max_after, final = self._tracker.result()
        return {
            "applicable": True,
            "observed": True,
            "event_time": self.context.event_time,
            "skew_at_event": self._snapshot.value,
            "stabilized": stabilized,
            "stabilization_time": at_time,
            "elapsed_since_event": elapsed,
            "max_skew_after_event": max_after,
            "final_skew": final,
        }


class GradientBoundObserver(Observer):
    """Count of Corollary 5.26 gradient-bound violations over the run.

    Applicable only on static graphs with a configured global skew bound
    (:meth:`ObserverContext.gradient_limits`), exactly the condition the
    post-hoc summary used.
    """

    name = "gradient_bound_check"

    def __init__(self, context, *, tolerance: float = 1e-9):
        super().__init__(context)
        self._table = context.gradient_limits(tolerance)
        self._count = 0

    def observe(self, view: SampleView) -> None:
        if self._table is not None:
            self._count += view.count_exceeding(*self._table)

    def finalize(self) -> Dict[str, Any]:
        if self._table is None:
            return {"applicable": False}
        return {"applicable": True, "violations": self._count}


class SkewByDistanceObserver(Observer):
    """Maximum observed skew per exact weighted distance (opt-in).

    The streaming counterpart of
    :func:`repro.analysis.skew.max_skew_by_distance` (kappa weight): a
    distance enters the profile only once a strictly positive skew is seen.
    """

    name = "skew_by_distance"

    def __init__(self, context):
        super().__init__(context)
        self._table = context.kappa_table
        keys = [round(d, 9) for d in self._table.distances]
        slot: Dict[float, int] = {}
        for key in keys:
            slot.setdefault(key, len(slot))
        self._group = [slot[key] for key in keys]
        self._keys = list(slot)
        self._accumulator = None

    def observe(self, view: SampleView) -> None:
        if not self._group:
            return
        if self._accumulator is None:
            self._accumulator = view.make_group_accumulator(len(self._keys))
        view.group_max_update(self._table, self._group, self._accumulator)

    def finalize(self) -> Dict[str, Any]:
        profile: Dict[float, float] = {}
        if self._accumulator is not None:
            for key, value in zip(self._keys, self._accumulator):
                value = float(value)
                if value > 0.0:
                    profile[key] = value
        items = sorted(profile.items())
        return {
            "distances": [distance for distance, _ in items],
            "max_skew": [skew for _, skew in items],
        }


class MaxEstimateLagObserver(Observer):
    """Largest ``max_v L_v - M_u`` over all nodes and samples (opt-in)."""

    name = "max_estimate_lag"

    def __init__(self, context):
        super().__init__(context)
        self._max = streaming.HighWater()

    def observe(self, view: SampleView) -> None:
        self._max.update(view.max_estimate_lag())

    def finalize(self) -> Dict[str, Any]:
        return {"max": self._max.value}


class EdgeSkewHistogramObserver(Observer):
    """Per-base-edge histograms of the skew across the edge (opt-in).

    Buckets are ``bins`` equal-width intervals over ``[0, upper]`` plus one
    overflow bucket; ``upper`` defaults to the configured global skew bound
    (or 1.0 when no bound is known), so the histogram is deterministic from
    the scenario alone.
    """

    name = "edge_skew_histogram"

    def __init__(self, context, *, bins: int = 16):
        super().__init__(context)
        if bins < 1:
            raise MetricsError(f"edge_skew_histogram needs bins >= 1, got {bins}")
        upper = context.global_skew_bound
        if upper is None or upper <= 0.0:
            upper = 1.0
        self._edges = [tuple(edge) for edge in context.base_edges]
        self._bin_edges = [upper * (i + 1) / bins for i in range(bins)]
        self._counts = None

    def observe(self, view: SampleView) -> None:
        if not self._edges:
            return
        if self._counts is None:
            self._counts = view.make_histogram_counts(
                len(self._edges), len(self._bin_edges) + 1
            )
        view.histogram_update(
            "edge_skew_histogram/edges", self._edges, self._bin_edges, self._counts
        )

    def finalize(self) -> Dict[str, Any]:
        counts: List[List[int]] = []
        if self._counts is not None:
            counts = [[int(c) for c in row] for row in self._counts]
        return {
            "edges": [list(edge) for edge in self._edges],
            "bin_edges": list(self._bin_edges),
            "counts": counts,
        }


#: Observer registry: name -> factory(context) -> Observer.
OBSERVERS: Dict[str, Callable[[ObserverContext], Observer]] = {
    GlobalSkewObserver.name: GlobalSkewObserver,
    LocalSkewObserver.name: LocalSkewObserver,
    ConvergenceTimeObserver.name: ConvergenceTimeObserver,
    ModeCountsObserver.name: ModeCountsObserver,
    StabilizationWindowObserver.name: StabilizationWindowObserver,
    GradientBoundObserver.name: GradientBoundObserver,
    SkewByDistanceObserver.name: SkewByDistanceObserver,
    MaxEstimateLagObserver.name: MaxEstimateLagObserver,
    EdgeSkewHistogramObserver.name: EdgeSkewHistogramObserver,
}

#: The set every run gets unless the spec selects otherwise: exactly what
#: :class:`~repro.experiments.results.RunSummary` needs.
DEFAULT_OBSERVERS: Tuple[str, ...] = (
    "global_skew",
    "local_skew",
    "convergence_time",
    "mode_counts",
    "stabilization_window",
    "gradient_bound_check",
)


def observer_names() -> List[str]:
    return sorted(OBSERVERS)


def make_observer(name: str, context: ObserverContext) -> Observer:
    try:
        factory = OBSERVERS[name]
    except KeyError:
        known = ", ".join(observer_names())
        raise MetricsError(f"unknown observer {name!r}; known: {known}") from None
    return factory(context)
