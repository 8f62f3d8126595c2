"""The HTTP/JSON front end of the sweep service (stdlib ``http.server``).

Thin and stateless by design -- every route is a translation between HTTP
and a :class:`~repro.service.core.SweepService` call:

======  ==================  ===================================================
POST    ``/sweeps``         submit specs (or a scenario + grid); returns the
                            job payload (``202``), fully-cached submissions
                            come back already ``done``
GET     ``/jobs/{id}``      job status: state, per-spec progress, sweep stats
GET     ``/jobs/{id}/events``  the job's live telemetry events (schema-stamped
                            JSONL records as a JSON list; ``?since=N`` resumes
                            from a cursor returned as ``next``)
GET     ``/results/{key}``  the raw cache file for a result key, byte-for-byte
                            (the key is the spec content hash plus its
                            ``.{backend}``/``.s{k}``/``.notrace``/
                            ``.obs-{digest}`` suffixes)
GET     ``/healthz``        liveness + version + cache/format info
GET     ``/specs``          registry listing (scenarios, components, backends,
                            observers)
======  ==================  ===================================================

``ThreadingHTTPServer`` gives one thread per connection; submissions enqueue
onto the service's worker pool and return immediately, so slow sweeps never
block the API.  Responses are JSON everywhere, errors are
``{"error": ...}`` with a matching status code -- including anything a
handler did not expect, which becomes a ``500`` (traceback in the service
log) instead of a dropped connection.
"""

from __future__ import annotations

import json
import traceback
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..experiments import executor, registry
from ..experiments.spec import ScenarioSpec, SpecError
from ..fastsim.backend import backend_available, backend_names
from .core import ServiceError, ServiceUnavailableError, SweepService

#: Submissions larger than this are rejected up front (413) -- a grid body
#: has no business being megabytes of JSON.
MAX_BODY_BYTES = 50 * 1024 * 1024


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _specs_payload() -> Dict[str, Any]:
    """The ``GET /specs`` body: everything a client can name in a spec."""
    from ..metrics import DEFAULT_OBSERVERS, observer_names

    scenarios = []
    for name in registry.SCENARIOS.names():
        doc = (registry.SCENARIOS.get(name).__doc__ or "").strip().splitlines()
        scenarios.append({"name": name, "blurb": doc[0] if doc else ""})
    return {
        "scenarios": scenarios,
        "topologies": list(registry.TOPOLOGIES.names()),
        "dynamics": list(registry.DYNAMICS.names()),
        "drifts": list(registry.DRIFTS.names()),
        "delays": list(registry.DELAYS.names()),
        "algorithms": list(registry.ALGORITHMS.names()),
        "backends": [
            {"name": name, "available": backend_available(name)}
            for name in backend_names()
        ],
        "observers": [
            {"name": name, "default": name in DEFAULT_OBSERVERS}
            for name in observer_names()
        ],
    }


def _parse_submission(body: Dict[str, Any]) -> list:
    """Turn a ``POST /sweeps`` body into a spec list.

    Two shapes are accepted: ``{"specs": [<spec dict>, ...]}`` (explicit
    specs, e.g. from :meth:`ScenarioSpec.to_dict`) and ``{"scenario":
    <name>, "grid": {...}, "base": {...}}`` (server-side grid expansion,
    the HTTP twin of ``repro-experiments sweep``).
    """
    if not isinstance(body, dict):
        raise _HttpError(400, "request body must be a JSON object")
    if "specs" in body:
        raw = body["specs"]
        if not isinstance(raw, list) or not raw:
            raise _HttpError(400, "'specs' must be a non-empty list")
        try:
            return [ScenarioSpec.from_dict(item) for item in raw]
        except (SpecError, KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"invalid spec: {exc}")
    if "scenario" in body:
        grid = body.get("grid") or {}
        base = body.get("base") or {}
        if not isinstance(grid, dict) or not isinstance(base, dict):
            raise _HttpError(400, "'grid' and 'base' must be JSON objects")
        try:
            if grid:
                return executor.expand_grid(body["scenario"], grid, base=base)
            return [registry.scenario(body["scenario"], **base)]
        except (
            registry.RegistryError,
            executor.ExecutorError,
            SpecError,
            TypeError,
            ValueError,
        ) as exc:
            raise _HttpError(400, f"invalid scenario submission: {exc}")
    raise _HttpError(400, "body needs either 'specs' or 'scenario'")


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one service via :func:`build_server`."""

    service: SweepService = None  # set on the generated subclass
    server_version = "repro-sweep-service"
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs to the JSONL telemetry instead of stderr.
        self.service.log.write(
            "http", client=self.client_address[0], line=format % args
        )

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(status, body)

    def _send_bytes(
        self, status: int, body: bytes, content_type: str = "application/json"
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length header")
        if length < 0:
            raise _HttpError(400, "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _HttpError(400, "empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")

    def _route(self) -> Tuple[str, Optional[str], Optional[str]]:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [part for part in path.split("/") if part]
        if 1 <= len(parts) <= 3:
            head, tail, sub = (parts + [None, None])[:3]
            return head, tail, sub
        raise _HttpError(404, f"no such endpoint: {path}")

    def _query_int(self, name: str, default: int = 0) -> int:
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
        raw = query.get(name, [None])[-1]
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise _HttpError(400, f"query parameter {name!r} must be an integer")

    def _send_unexpected(self, exc: Exception) -> None:
        """Answer a handler's own failure (call from its ``except`` block).

        This is the boundary that must keep serving: the traceback goes to
        the service log, the client gets a JSON 500, and the connection
        closes because part of a response may already be on the wire.
        """
        self.service.log.write(
            "http",
            client=self.client_address[0],
            line=self.requestline,
            status=500,
            traceback=traceback.format_exc(),
        )
        self.close_connection = True
        message = f"internal server error: {exc.__class__.__name__}: {exc}"
        try:
            self._send_json(500, {"error": message})
        except OSError:
            pass  # the client is gone; nothing left to tell it

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            head, tail, sub = self._route()
            if head == "healthz" and tail is None:
                self._send_json(200, self.service.describe())
            elif head == "specs" and tail is None:
                self._send_json(200, _specs_payload())
            elif head == "jobs" and tail:
                job = self.service.jobs.get(tail)
                if job is None:
                    raise _HttpError(404, f"unknown job {tail!r}")
                if sub is None:
                    self._send_json(200, job.to_payload())
                elif sub == "events":
                    since = self._query_int("since", 0)
                    self._send_json(200, job.events_payload(since))
                else:
                    raise _HttpError(404, f"no such endpoint: {self.path}")
            elif head == "results" and tail and sub is None:
                self._send_result(tail)
            else:
                raise _HttpError(404, f"no such endpoint: {self.path}")
        except _HttpError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except Exception as exc:
            self._send_unexpected(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            head, tail, sub = self._route()
            if head != "sweeps" or tail is not None or sub is not None:
                raise _HttpError(404, f"no such endpoint: {self.path}")
            specs = _parse_submission(self._read_body())
            try:
                job = self.service.submit(specs)
            except ServiceUnavailableError as exc:
                # Draining for shutdown: tell clients to go elsewhere.
                raise _HttpError(503, str(exc))
            except ServiceError as exc:
                raise _HttpError(400, str(exc))
            self._send_json(202, job.to_payload())
        except _HttpError as exc:
            self._send_json(exc.status, {"error": exc.message})
        except Exception as exc:
            self._send_unexpected(exc)

    def _send_result(self, key: str) -> None:
        # The cache IS the result API: the response body is the cache file,
        # byte-for-byte, so clients and on-disk consumers agree exactly.
        try:
            path = self.service.cache.path_for_key(key)
        except executor.ExecutorError as exc:
            raise _HttpError(400, str(exc))
        try:
            body = path.read_bytes()
        except OSError:
            raise _HttpError(404, f"no cached result for key {key!r}")
        self._send_bytes(200, body)


def build_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 8765
) -> ThreadingHTTPServer:
    """An HTTP server wired to ``service`` (not yet serving; port 0 works)."""
    handler = type("BoundSweepHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


class SweepServer:
    """Convenience bundle: one service + one HTTP server, started together.

    ``serve_forever()`` blocks (the CLI path); ``start_background()`` runs
    the listener in a daemon thread and returns the base URL (the tests'
    path).  Either way ``shutdown()`` stops the listener and the service's
    worker pool.
    """

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = 8765,
    ):
        self.service = service
        self.httpd = build_server(service, host, port)
        self._thread = None
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self, drain_timeout: Optional[float] = None) -> None:
        self.service.start()
        try:
            self.httpd.serve_forever()
        finally:
            self.shutdown(drain_timeout=drain_timeout)

    def start_background(self) -> str:
        import threading

        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="sweep-http", daemon=True
        )
        self._thread.start()
        return self.url

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Stop the listener, then the service.

        With ``drain_timeout`` set, the service drains gracefully
        (:meth:`SweepService.drain`): in-flight jobs finish within the
        bound, queued jobs fail with a clear status.  Without it, the
        worker pool stops abruptly (the original behaviour).
        """
        if self._closed:
            return
        self._closed = True
        if drain_timeout is not None:
            # Refuse new submissions *before* closing the listener so any
            # request already in a handler thread gets a clean 503 instead
            # of a reset connection.
            self.service.drain(drain_timeout)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()
