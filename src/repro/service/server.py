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
                            (the key is ``{result_hash}.{backend}``: the
                            hash of the whole spec and its backend)
GET     ``/healthz``        liveness + version + cache/format info, and under
                            ``http`` the connections accepted and requests
                            answered so far
GET     ``/specs``          registry listing (scenarios, components, backends,
                            observers)
======  ==================  ===================================================

``ThreadingHTTPServer`` gives one thread per connection; submissions enqueue
onto the service's worker pool and return immediately, so slow sweeps never
block the API.  Responses are JSON everywhere, errors are
``{"error": ...}`` with a matching status code -- including anything a
handler did not expect, which becomes a ``500`` (traceback in the service
log) instead of a dropped connection.

Connections are HTTP/1.1 keep-alive: a client that holds its connection
(:class:`~repro.service.client.ServiceClient` does) is served by one thread
for as long as it stays, so a request costs neither an ``accept`` nor a
thread start.  A connection ends when the client closes it, when it sits
idle for :data:`IDLE_TIMEOUT`, after the first response sent while the
service is draining (``Connection: close``), or at :meth:`SweepServer.shutdown`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import traceback
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..experiments import executor, registry
from ..experiments.spec import ScenarioSpec, SpecError
from ..fastsim.backend import AUTO, backend_available, backend_names
from .core import ServiceError, ServiceUnavailableError, SweepService

#: Submissions larger than this are rejected up front (413) -- a grid body
#: has no business being megabytes of JSON.
MAX_BODY_BYTES = 50 * 1024 * 1024

#: Seconds a connection may sit between requests (or stall mid-request)
#: before its handler thread gives up on it, so an abandoned client cannot
#: pin a thread forever.  A client that comes back later notices the close
#: and reconnects before it writes.
IDLE_TIMEOUT = 30.0

#: How long :meth:`SweepServer.shutdown` waits for handler threads to notice
#: that their connections were closed under them.
_HANDLER_GRACE = 2.0


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
        "backends": [{"name": AUTO, "available": True}]
        + [{"name": name, "available": backend_available(name)} for name in backend_names()],
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
            specs = [ScenarioSpec.from_dict(item) for item in raw]
        except (SpecError, KeyError, TypeError, ValueError) as exc:
            raise _HttpError(400, f"invalid spec: {exc}")
    elif "scenario" in body:
        grid = body.get("grid") or {}
        base = body.get("base") or {}
        if not isinstance(grid, dict) or not isinstance(base, dict):
            raise _HttpError(400, "'grid' and 'base' must be JSON objects")
        try:
            if grid:
                specs = executor.expand_grid(body["scenario"], grid, base=base)
            else:
                specs = [registry.scenario(body["scenario"], **base)]
        except (
            registry.RegistryError,
            executor.ExecutorError,
            SpecError,
            TypeError,
            ValueError,
        ) as exc:
            raise _HttpError(400, f"invalid scenario submission: {exc}")
    else:
        raise _HttpError(400, "body needs either 'specs' or 'scenario'")
    return specs


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one service via :func:`build_server`."""

    service: SweepService = None  # set on the generated subclass
    server_version = "repro-sweep-service"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT
    # Headers and body leave in two writes; on a kept-alive connection
    # Nagle holds the second until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

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
        self.server.count_request()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection or self.service.draining:
            # Tell the client, so it reconnects (elsewhere, once the
            # listener is gone) instead of finding out on its next write.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length header")
        if length < 0:
            raise _HttpError(400, "invalid Content-Length header")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b""

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
                self._send_json(
                    200, dict(self.service.describe(), http=self.server.http_stats())
                )
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
            try:
                head, tail, sub = self._route()
                if head != "sweeps" or tail is not None or sub is not None:
                    raise _HttpError(404, f"no such endpoint: {self.path}")
                raw = self._read_body()
            except _HttpError:
                # Refused with its body unread: on a kept connection those
                # bytes would be parsed as the next request.
                self.close_connection = True
                raise
            if not raw:
                raise _HttpError(400, "empty request body")
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise _HttpError(400, f"request body is not valid JSON: {exc}")
            specs = _parse_submission(body)
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


class _HttpServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that counts what it serves and knows its open
    connections, so a shutdown can end the ones that only sit there."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()
        #: Accepted socket -> its handler thread, while the connection lives.
        self._open: Dict[socket.socket, threading.Thread] = {}
        self._connections = 0
        self._requests = 0

    def process_request(self, request, client_address) -> None:
        # Registered here, on the accepting thread, so that once
        # ``shutdown()`` has returned no connection is unaccounted for.
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="sweep-http-handler",
            daemon=True,
        )
        with self._lock:
            self._connections += 1
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._lock:
            self._open.pop(request, None)

    def count_request(self) -> None:
        with self._lock:
            self._requests += 1

    def http_stats(self) -> Dict[str, int]:
        """The ``/healthz`` ``http`` block: connections accepted and
        requests answered since start."""
        with self._lock:
            return {"connections": self._connections, "requests": self._requests}

    def close_connections(self, grace: float) -> None:
        """End every open connection and join its handler thread.

        Only the read side is shut: a handler blocked between requests wakes
        on EOF and closes its socket, one in the middle of a response
        finishes writing it first.
        """
        with self._lock:
            live = list(self._open.items())
        for request, _ in live:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # its handler closed it in the meantime
        deadline = time.monotonic() + grace
        for _, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))


def build_server(
    service: SweepService, host: str = "127.0.0.1", port: int = 8765
) -> _HttpServer:
    """An HTTP server wired to ``service`` (not yet serving; port 0 works)."""
    handler = type("BoundSweepHandler", (_Handler,), {"service": service})
    return _HttpServer((host, port), handler)


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
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="sweep-http", daemon=True
        )
        self._thread.start()
        return self.url

    def shutdown(self, drain_timeout: Optional[float] = None) -> None:
        """Stop the listener, end the open connections, then the service.

        With ``drain_timeout`` set, the service drains gracefully
        (:meth:`SweepService.drain`): in-flight jobs finish within the
        bound, queued jobs fail with a clear status.  Without it, the
        worker pool stops abruptly (the original behaviour).  Either way a
        client that merely holds a connection open delays nothing: no
        handler thread or accepted socket is left behind.
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
        self.httpd.close_connections(_HANDLER_GRACE)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()
