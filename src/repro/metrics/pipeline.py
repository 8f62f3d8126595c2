"""The streaming pipeline: feeds observers during a run (or from a trace).

A :class:`MetricsPipeline` owns a set of observers and one persistent sample
view.  Every engine feeds it through :meth:`observe_columns`, once per
recorded sample and whether or not a trace is being kept, with three
per-node columns: logical clocks, max estimates and mode codes.  The first
sample picks the view: NumPy columns (vec, jit) are reduced by
:class:`~repro.metrics.views.ArrayView`, any other sequence (reference,
fast) by :class:`~repro.metrics.views.ColumnsView`.  At the end of the run
:meth:`finalize` produces an :class:`ObserverReport` -- the plain-JSON
artifact the experiments executor caches and
:func:`repro.experiments.results.summarize` reads.

:meth:`replay` drives the same observers from a materialized trace, which is
how the post-hoc analysis API and ``results.report_from_trace`` are
implemented; streaming and replay produce bit-identical reports
(the steady-state window start is *predicted* for live streaming -- see
:func:`repro.metrics.streaming.predict_final_time` -- and *measured* for
replays, and the differential suite proves the two agree on every backend).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from ..telemetry.schema import sanitize_json
from . import streaming
from .observers import (
    DEFAULT_OBSERVERS,
    MetricsError,
    Observer,
    ObserverContext,
    make_observer,
)
from .views import ArrayView, ColumnsView, SampleView


@dataclass(frozen=True)
class ObserverReport:
    """Finalized observer payloads plus the sample count (JSON-able)."""

    sample_count: int
    payloads: Dict[str, Any] = field(default_factory=dict)

    def get(self, name: str, default: Any = None) -> Any:
        return self.payloads.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.payloads

    def to_payload(self) -> Dict[str, Any]:
        # Sanitized so the cached JSON is strict (no NaN/Infinity tokens)
        # even if an observer ever produces a non-finite float; finite
        # values pass through bit-exact.
        return sanitize_json(
            {"sample_count": self.sample_count, "observers": dict(self.payloads)}
        )

    @classmethod
    def from_payload(cls, payload: Optional[Dict[str, Any]]) -> Optional["ObserverReport"]:
        if payload is None:
            return None
        return cls(
            sample_count=payload.get("sample_count", 0),
            payloads=dict(payload.get("observers", {})),
        )


class MetricsPipeline:
    """Drives a set of observers over the samples of one run."""

    def __init__(
        self,
        observers: Sequence[Observer],
        context: ObserverContext,
        *,
        predicted_final_time: Optional[float] = None,
        progress_every: Optional[int] = None,
    ):
        self.observers = list(observers)
        self.context = context
        self.sample_count = 0
        #: Whether a watchdog is armed to request a stop (``build_pipeline``
        #: with ``stop_on``): the run may end at any sample.
        self.stop_armed = False
        self._predicted_final_time = predicted_final_time
        self._progress_every = progress_every
        self._started = False
        self._view: Optional[SampleView] = None

    # -- telemetry ------------------------------------------------------
    def attach_sink(self, sink: Optional[Callable[..., None]]) -> None:
        """Attach a live event sink (``sink(event_type, **fields)``).

        Watchdog firings and periodic ``progress`` events flow to it as
        the run executes; detaching (``None``) is always safe.  The sink
        only ever observes -- attaching one cannot change any observer
        value or the stop decision.
        """
        self.context.channel.sink = sink

    @property
    def stop_requested(self) -> bool:
        """Whether an armed watchdog asked the engine to stop.

        Only changes while a sample is being fed, so engines polling it
        after each step see stop decisions at sample-record instants only
        -- the invariant behind the bit-identical-prefix guarantee of
        ``--until-stable``.
        """
        return self.context.channel.stop

    @property
    def watchdogs_fired(self) -> Dict[str, int]:
        """Firing tallies per watchdog name (live, updates as the run goes)."""
        return dict(self.context.channel.fired)

    # -- feeding --------------------------------------------------------
    def _begin(self, first_time: float) -> None:
        """Fix run-level context (the steady window) before the first sample."""
        self._started = True
        if self.context.steady_start is None and self._predicted_final_time is not None:
            self.context.steady_start = streaming.steady_window_start(
                first_time, self._predicted_final_time, self.context.steady_fraction
            )

    def _feed(self, view) -> None:
        if not self._started:
            self._begin(view.time)
        self.sample_count += 1
        for observer in self.observers:
            observer.observe(view)
        every = self._progress_every
        if every and self.sample_count % every == 0:
            sink = self.context.channel.sink
            if sink is not None:
                sink("progress", sim_time=view.time, samples=self.sample_count)

    def observe_columns(self, time, ids, index, logical, max_estimate, mode) -> None:
        """Consume one sample: per-node columns in ``ids`` order (``index``
        maps a node to its position), mode as codes in ``MODE_NAMES`` order.
        Observers read the columns during the call; nothing is copied.  A
        sample whose ``ids`` is another list than the last one's (a hand-built
        trace's) gets a view of its own."""
        view = self._view
        if view is None or view._ids is not ids:
            numpy = sys.modules.get("numpy")
            arrays = numpy is not None and isinstance(logical, numpy.ndarray)
            view = self._view = (ArrayView if arrays else ColumnsView)(ids, index)
        self._feed(view.set_columns(time, logical, max_estimate, mode))

    # -- results --------------------------------------------------------
    def finalize(self) -> ObserverReport:
        return ObserverReport(
            sample_count=self.sample_count,
            payloads={
                observer.name: observer.finalize() for observer in self.observers
            },
        )

    def replay(self, trace: Iterable) -> ObserverReport:
        """Feed a materialized trace through the pipeline and finalize.

        The steady window is measured from the trace itself (first and final
        sample times) with the exact expression of
        :func:`repro.analysis.skew.steady_state_window`.
        """
        samples = list(trace)
        if self.context.steady_start is None and samples:
            self.context.steady_start = streaming.steady_window_start(
                samples[0].time, samples[-1].time, self.context.steady_fraction
            )
        self._started = True
        for sample in samples:
            logical, _, _, modes, max_estimates = sample.columns
            self.observe_columns(
                sample.time, sample.ids, sample.index, logical, max_estimates, modes
            )
        return self.finalize()


def build_pipeline(
    names: Optional[Sequence[str]] = None,
    *,
    graph,
    base_edges: Sequence[Tuple[int, int]] = (),
    params=None,
    meta: Optional[Dict[str, Any]] = None,
    global_skew_bound: Optional[float] = None,
    has_dynamics: bool = False,
    duration: Optional[float] = None,
    dt: Optional[float] = None,
    steady_fraction: float = 0.25,
    sink: Optional[Callable[..., None]] = None,
    stop_on: Optional[str] = None,
    progress_every: Optional[int] = None,
) -> MetricsPipeline:
    """Assemble a pipeline for one run.

    ``names`` defaults to :data:`~repro.metrics.observers.DEFAULT_OBSERVERS`.
    When ``duration`` and ``dt`` are given, the final sample time is
    predicted so steady-window observers can stream with constant memory;
    without them the pipeline still works but only :meth:`MetricsPipeline.replay`
    fills the steady window.

    ``sink`` attaches a live telemetry sink (see
    :meth:`MetricsPipeline.attach_sink`); ``stop_on`` names a watchdog in
    ``names`` to arm as the early-exit trigger (its first firing sets
    ``stop_requested``); ``progress_every`` emits a ``progress`` event to
    the sink every N samples.
    """
    context = ObserverContext(
        graph=graph,
        base_edges=list(base_edges),
        params=params,
        meta=dict(meta or {}),
        global_skew_bound=global_skew_bound,
        has_dynamics=has_dynamics,
        steady_fraction=steady_fraction,
    )
    selected = tuple(names) if names else DEFAULT_OBSERVERS
    seen = set()
    observers = []
    for name in selected:
        if name in seen:
            raise MetricsError(f"duplicate observer {name!r}")
        seen.add(name)
        observers.append(make_observer(name, context))
    if stop_on is not None:
        from .watchdogs import Watchdog

        armed = next((o for o in observers if o.name == stop_on), None)
        if armed is None:
            raise MetricsError(
                f"stop_on observer {stop_on!r} is not in the pipeline "
                f"(selected: {', '.join(selected)})"
            )
        if not isinstance(armed, Watchdog):
            raise MetricsError(f"stop_on observer {stop_on!r} is not a watchdog")
        armed.arm_stop()
    context.channel.sink = sink
    predicted = None
    if duration is not None and dt is not None:
        predicted = streaming.predict_final_time(duration, dt)
    pipeline = MetricsPipeline(
        observers, context, predicted_final_time=predicted, progress_every=progress_every
    )
    pipeline.stop_armed = stop_on is not None
    return pipeline
