"""Structured run telemetry: schema, JSONL sinks, and sweep event streams.

The observability layer over the whole stack.  Watchdog observers
(:mod:`repro.metrics.watchdogs`) detect threshold crossings *during* a
run; this package defines what those detections look like on the wire
(:mod:`repro.telemetry.schema` -- a versioned JSONL event schema), how
they are written (:mod:`repro.telemetry.events` -- the thread-safe,
strict-JSON, size-capped :class:`JsonlLog`), and how a whole sweep's
progress becomes one coherent stream
(:mod:`repro.telemetry.sweep` -- :class:`SweepTelemetry`, fed by
``run_sweep``'s progress callback and the per-run pipeline sinks).

Consumers: ``repro-experiments run/sweep --telemetry FILE`` writes the
stream to disk, the sweep service daemon tails it per job via
``GET /jobs/{id}/events`` and tallies watchdog firings on ``/healthz``,
and the tests validate every line with :func:`validate_jsonl`.  Everything here is standard library only -- the
no-numpy leg runs it all.
"""

from .events import JsonlLog
from .schema import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    TelemetryError,
    event_types,
    iter_jsonl,
    make_event,
    sanitize_json,
    validate_event,
    validate_jsonl,
    validate_records,
)
from .sweep import SweepTelemetry

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "JsonlLog",
    "SweepTelemetry",
    "TelemetryError",
    "event_types",
    "iter_jsonl",
    "make_event",
    "sanitize_json",
    "validate_event",
    "validate_jsonl",
    "validate_records",
]
