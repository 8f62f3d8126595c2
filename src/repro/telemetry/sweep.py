"""Sweep-level telemetry: one event stream for a whole ``run_sweep`` call.

A :class:`SweepTelemetry` turns everything that happens inside
:func:`repro.experiments.executor.run_sweep` into schema-stamped events
(:mod:`repro.telemetry.schema`) pushed through one ``write(record)``
callable -- a :meth:`JsonlLog.write_record <repro.telemetry.events.JsonlLog>`
bound method for the CLI's ``--telemetry FILE``, or the service's fan-out
(log + per-job buffer + counters) for the daemon.

Three event sources are merged:

* **sweep progress** -- ``run_started`` / ``run_finished`` mapped from the
  executor's :class:`SweepEvent` stream (duck-typed: anything with
  ``kind``/``index``/``spec``/``from_cache`` works), plus
  ``sweep_started`` / ``sweep_finished`` brackets;
* **live watchdogs** -- :meth:`run_sink` hands the executor a per-run sink
  to attach to that run's metrics pipeline, so ``watchdog_fired`` and
  ``progress`` events stream out *during* the simulation with the run's
  index/hash/backend stamped on;
* **replayed watchdogs** -- runs that never had a live sink (served from
  cache or executed in a worker process) still carry their firings in the
  cached observer payload;
  :meth:`replay_watchdogs` re-emits them, flagged ``replayed: true``, so
  the stream is complete either way.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set

from .schema import make_event

#: Observer names with this prefix are watchdogs whose payloads carry
#: replayable firing events (kept as a string match so this module stays
#: import-light; :mod:`repro.metrics.watchdogs` is the source of truth).
WATCHDOG_PREFIX = "watchdog_"


class SweepTelemetry:
    """Event emitter for one sweep: maps executor progress onto the schema."""

    def __init__(self, write: Callable[[Dict[str, Any]], None]):
        self._write = write
        self._live: Set[int] = set()

    # -- low-level ------------------------------------------------------
    def emit(self, event_type: str, **fields: Any) -> None:
        """Build one schema-stamped record and push it to the writer."""
        self._write(make_event(event_type, **fields))

    # -- sweep brackets -------------------------------------------------
    def sweep_started(self, total: int) -> None:
        # A reused emitter starts each sweep with a clean live-run slate,
        # so cached results from an earlier sweep still replay.
        self._live.clear()
        self.emit("sweep_started", total=total)

    def sweep_finished(self, stats: Any) -> None:
        """Close the stream from a ``SweepStats``-shaped object."""
        self.emit(
            "sweep_finished",
            total=getattr(stats, "total", None),
            executed=getattr(stats, "executed", None),
            cached=getattr(stats, "cached", None),
            wall_time=getattr(stats, "wall_time", None),
        )

    # -- executor progress ----------------------------------------------
    def on_sweep_event(self, event: Any) -> None:
        """Translate one executor ``SweepEvent`` into schema events."""
        spec = event.spec
        common = {
            "run": event.index,
            "spec_hash": spec.content_hash(),
            "backend": spec.backend,
            "label": spec.label or spec.topology.name,
        }
        if event.kind == "start":
            self.emit("run_started", **common)
        elif event.kind == "cached":
            self.emit("run_finished", state="cached", **common)
        else:  # executed
            self.emit("run_finished", state="done", **common)

    # -- live per-run sinks ---------------------------------------------
    def run_sink(self, index: int, spec: Any) -> Callable[..., None]:
        """A pipeline sink for one run, with run identity stamped on.

        The returned callable has the ``sink(event_type, **fields)`` shape
        :meth:`MetricsPipeline.attach_sink <repro.metrics.pipeline.MetricsPipeline.attach_sink>`
        expects; the run is marked *live* so :meth:`was_live` can tell the
        executor not to also replay its cached watchdog events.
        """
        self._live.add(index)
        spec_hash = spec.content_hash()
        backend = spec.backend

        def sink(event_type: str, **fields: Any) -> None:
            self.emit(
                event_type,
                run=index,
                spec_hash=spec_hash,
                backend=backend,
                **fields,
            )

        return sink

    def was_live(self, index: int) -> bool:
        return index in self._live

    # -- replay from cached payloads -------------------------------------
    def replay_watchdogs(self, index: int, spec: Any, payload: Optional[Dict[str, Any]]) -> None:
        """Re-emit watchdog firings recorded in a cached result payload.

        Used for runs with no live sink: cache hits and worker-pool
        executions (a sink cannot cross the process boundary).  Events come
        out flagged ``replayed: true`` with the original simulation times.
        """
        if self.was_live(index) or not payload:
            return
        observers = (payload.get("observers") or {}).get("observers") or {}
        spec_hash = payload.get("spec_hash") or spec.content_hash()
        backend = payload.get("backend") or spec.backend
        for name, body in observers.items():
            if not name.startswith(WATCHDOG_PREFIX) or not isinstance(body, dict):
                continue
            if not body.get("applicable"):
                continue
            threshold = body.get("threshold")
            for record in body.get("events") or []:
                extra = {
                    key: value
                    for key, value in record.items()
                    if key not in ("time", "value")
                }
                self.emit(
                    "watchdog_fired",
                    run=index,
                    spec_hash=spec_hash,
                    backend=backend,
                    watchdog=name,
                    sim_time=record.get("time"),
                    value=record.get("value"),
                    threshold=threshold,
                    replayed=True,
                    **extra,
                )
