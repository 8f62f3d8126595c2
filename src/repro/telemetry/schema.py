"""The versioned telemetry event schema.

Every JSONL telemetry line -- whether written by a per-run ``--telemetry``
stream, the sweep service's log, or buffered for ``GET /jobs/{id}/events``
-- is one JSON object built by :func:`make_event`:

.. code-block:: json

    {"ts": 1735689600.0, "schema": 1, "event": "watchdog_fired", ...}

``schema`` is the layout version (bumped whenever an event type gains or
loses required fields), ``event`` is one of :data:`EVENT_TYPES`, and each
event type pins a set of required fields.  :func:`validate_event` checks
one decoded record against the schema and :func:`validate_jsonl` checks a
whole file line by line -- the tests run the latter over real
``--telemetry`` streams, so the schema is enforced, not aspirational.

Strict JSON is part of the contract: ``json.dumps`` happily emits
``Infinity``/``NaN`` by default, which is *not* JSON and breaks every
downstream ``jq``/``json.loads`` consumer.  :func:`sanitize_json` replaces
non-finite floats up front (``NaN`` becomes ``null`` -- "not a measurement"
-- and infinities become explicit string sentinels), after which
serialising with ``allow_nan=False`` can never fail.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Tuple, Union


class TelemetryError(ValueError):
    """Raised on malformed telemetry events or streams."""


#: Bumped whenever an event type gains/loses required fields or the
#: envelope (``ts``/``schema``/``event``) changes shape.
EVENT_SCHEMA_VERSION = 1

#: Sentinels :func:`sanitize_json` substitutes for non-finite floats.
#: ``NaN`` maps to ``None`` ("not a measurement"), infinities to these
#: strings so their sign survives the round-trip.
INF_SENTINEL = "Infinity"
NEG_INF_SENTINEL = "-Infinity"

#: Event type -> required fields (beyond the ``ts``/``schema``/``event``
#: envelope every record carries).  Run-scoped events identify their run by
#: ``run`` (the spec's index in its sweep) plus ``spec_hash``; job-scoped
#: service events carry ``job``.
EVENT_TYPES: Dict[str, Tuple[str, ...]] = {
    # -- per-run telemetry (the --telemetry stream) ---------------------
    "sweep_started": ("total",),
    "run_started": ("run", "spec_hash", "backend"),
    "progress": ("run", "sim_time", "samples"),
    "watchdog_fired": ("run", "watchdog", "sim_time", "value", "threshold"),
    "run_finished": ("run", "spec_hash", "state"),
    "sweep_finished": ("total", "executed", "cached"),
    # -- sweep service lifecycle (the daemon's service log) -------------
    "service_start": (),
    "service_stop": (),
    "service_draining": (),
    "service_drained": (),
    "worker_exited": ("pid", "exit", "job"),
    "http": (),
    "job_submitted": ("job",),
    "job_running": ("job",),
    "job_done": ("job",),
    "spec_progress": ("job",),
    "janitor_pruned": (),
    "log_rotated": (),
}


def event_types() -> Tuple[str, ...]:
    return tuple(sorted(EVENT_TYPES))


def sanitize_json(value: Any) -> Any:
    """Recursively replace non-finite floats with strict-JSON stand-ins.

    ``NaN`` becomes ``None``, ``inf``/``-inf`` become the explicit
    :data:`INF_SENTINEL`/:data:`NEG_INF_SENTINEL` strings; finite floats,
    ints, strings, bools and ``None`` pass through untouched (bit-exact),
    so sanitising a payload of ordinary measurements is the identity.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return INF_SENTINEL if value > 0 else NEG_INF_SENTINEL
        return value
    if isinstance(value, dict):
        return {key: sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(item) for item in value]
    return value


def make_event(event: str, **fields: Any) -> Dict[str, Any]:
    """Build one schema-stamped, strict-JSON-safe event record."""
    if event not in EVENT_TYPES:
        known = ", ".join(event_types())
        raise TelemetryError(f"unknown event type {event!r}; known: {known}")
    record: Dict[str, Any] = {
        "ts": round(time.time(), 3),
        "schema": EVENT_SCHEMA_VERSION,
        "event": event,
    }
    for key, value in fields.items():
        record[key] = sanitize_json(value)
    return record


def validate_event(record: Any) -> Dict[str, Any]:
    """Check one decoded record against the schema; returns it unchanged.

    Raises :class:`TelemetryError` on anything malformed: not an object, a
    missing/mistyped envelope, an unknown event type, a schema version
    mismatch, or a missing required field.
    """
    if not isinstance(record, dict):
        raise TelemetryError(f"telemetry record must be a JSON object, got {type(record).__name__}")
    for key in ("ts", "schema", "event"):
        if key not in record:
            raise TelemetryError(f"telemetry record is missing {key!r}: {record}")
    if not isinstance(record["ts"], (int, float)) or isinstance(record["ts"], bool):
        raise TelemetryError(f"'ts' must be a number, got {record['ts']!r}")
    if record["schema"] != EVENT_SCHEMA_VERSION:
        raise TelemetryError(
            f"schema version {record['schema']!r} does not match "
            f"{EVENT_SCHEMA_VERSION} for event {record.get('event')!r}"
        )
    event = record["event"]
    if event not in EVENT_TYPES:
        known = ", ".join(event_types())
        raise TelemetryError(f"unknown event type {event!r}; known: {known}")
    for field in EVENT_TYPES[event]:
        if field not in record:
            raise TelemetryError(f"event {event!r} is missing required field {field!r}: {record}")
    return record


def iter_jsonl(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Decode a JSONL file line by line in strict mode (no NaN/Infinity)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line, parse_constant=_reject_constant)
            except ValueError as exc:
                raise TelemetryError(f"{path}:{number}: not valid strict JSON: {exc}") from None


def _reject_constant(name: str) -> Any:
    raise TelemetryError(f"non-strict JSON constant {name!r} in telemetry stream")


def validate_jsonl(path: Union[str, Path]) -> int:
    """Validate every line of a JSONL telemetry file; returns the line count."""
    count = 0
    for record in iter_jsonl(path):
        validate_event(record)
        count += 1
    return count


def validate_records(records: Iterable[Any]) -> int:
    """Validate an iterable of decoded records; returns how many there were."""
    count = 0
    for record in records:
        validate_event(record)
        count += 1
    return count
