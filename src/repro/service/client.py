"""A small stdlib-only client for the sweep service HTTP API.

Used by the test suite, the CI smoke job and the docs; kept deliberately
free of anything beyond the standard library so it runs wherever the daemon
does (including the no-numpy CI leg)::

    from repro.experiments import scenario
    from repro.service.client import ServiceClient

    with ServiceClient("http://127.0.0.1:8765") as client:
        job = client.submit([scenario("quickstart_line", n=4)])
        job = client.wait(job["id"])
        for entry in job["specs"]:
            payload = client.result(entry["result_key"])
            print(entry["label"], payload["summary"]["max_global_skew"])

A client is a connection: each thread that calls into it keeps one HTTP/1.1
socket open and sends every request down it, so a poll or a result fetch
costs a round trip, not a TCP handshake and a server thread.  ``close()``
(or leaving the ``with`` block) closes the sockets of every thread.

The client is hardened against a flaky daemon:

* every request carries separate **connect** and **read** timeouts;
* a kept connection the daemon closed while it sat idle (idle timeout,
  restart) is noticed *before* the next request is written and replaced,
  so the caller never sees it;
* transient failures retry with bounded, deterministic exponential backoff
  -- idempotent ``GET``\\ s on connection-refused, connection-reset and HTTP
  503 (a broken connection is never reused); ``POST /sweeps`` only when no
  byte of it left this process (so a submission can never be duplicated);
* when the retry budget runs out, :class:`RetryExhaustedError` carries the
  full attempt log for diagnosis.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import time
import urllib.parse
import weakref
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from ..experiments.spec import ScenarioSpec


class ClientError(RuntimeError):
    """An HTTP-level failure talking to the sweep service.

    ``status`` is the HTTP status code (``None`` for transport failures,
    e.g. connection refused); ``payload`` is the decoded JSON error body
    when the server sent one.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class RetryExhaustedError(ClientError):
    """Every attempt of a retryable request failed.

    ``attempts`` is the log: one ``{"attempt", "error", "status",
    "backoff"}`` dict per try, in order (``backoff`` is the sleep applied
    *after* that failure; the final entry has ``backoff: None``).
    ``status``/``payload`` reflect the last failure.
    """

    def __init__(
        self,
        message: str,
        attempts: List[Dict[str, Any]],
        status: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message, status=status, payload=payload)
        self.attempts = attempts


class JobFailed(ClientError):
    """Raised by :meth:`ServiceClient.wait` when the job ends ``failed``."""

    def __init__(self, job: Dict[str, Any]):
        super().__init__(f"job {job.get('id')} failed: {job.get('error')}")
        self.job = job


class _TransportFailure(Exception):
    """Internal: a socket-level failure, tagged with whether any byte of the
    request could have reached the server."""

    def __init__(self, cause: Exception, before_send: bool):
        super().__init__(str(cause))
        self.cause = cause
        self.before_send = before_send


class _HttpFailure(Exception):
    """Internal: a non-2xx response (the request *was* processed or
    deliberately rejected)."""

    def __init__(self, message: str, status: int, payload: Dict[str, Any]):
        super().__init__(message)
        self.status = status
        self.payload = payload


#: HTTP statuses that signal "try again later" (the drain path returns 503).
RETRYABLE_STATUSES = (503,)


def _peer_closed(sock: Optional[socket.socket]) -> bool:
    """Has the peer closed (or reset) this idle kept-alive connection?

    Between requests the server owes us nothing, so a socket that polls
    readable holds an EOF, a reset or junk -- in every case it cannot carry
    a request.  One zero-timeout ``select``, no byte read.
    """
    if sock is None:  # closed on our side, by ``ServiceClient.close()``
        return True
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):  # closed descriptor, or one select cannot watch
        return True
    return bool(readable)


class ServiceClient:
    """Talk to a running sweep service daemon.

    ``timeout`` is the legacy single knob; ``connect_timeout`` and
    ``read_timeout`` override it per phase.  ``retries`` bounds the number
    of *re*-tries after the first attempt; backoff after failure ``i`` is
    ``min(backoff_base * 2**i, backoff_max)`` seconds -- deterministic, no
    jitter, so tests and incident timelines can reason about it.  ``sleep``
    is injectable for tests.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retries: int = 3,
        backoff_base: float = 0.2,
        backoff_max: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ClientError(f"base_url must be http(s)://host[:port], got {base_url!r}")
        self._scheme = split.scheme
        self._host = split.hostname
        self._port = split.port or (443 if split.scheme == "https" else 80)
        self._prefix = split.path.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        if retries < 0:
            raise ClientError(f"retries must be >= 0, got {retries}")
        if backoff_base < 0.0 or backoff_max < 0.0:
            raise ClientError("backoff_base and backoff_max must be non-negative")
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self._sleep = sleep
        #: ``_local.conn`` is the calling thread's kept connection;
        #: ``_connections`` is all of them, for :meth:`close` (weak: a thread
        #: that ends takes its connection with it).
        self._local = threading.local()
        self._connections: "weakref.WeakSet" = weakref.WeakSet()
        self._lock = threading.Lock()

    # -- transport ------------------------------------------------------
    def _checkout(self) -> http.client.HTTPConnection:
        """The calling thread's connection, opened (or replaced) if need be.

        Raises ``_TransportFailure(before_send=True)``: whatever goes wrong
        here, no byte of the request has left this process, so even a POST
        is safe to retry.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            if not _peer_closed(conn.sock):
                return conn
            self._drop(conn)
        cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        conn = cls(self._host, self._port, timeout=self.connect_timeout)
        try:
            conn.connect()  # sets TCP_NODELAY itself
        except (OSError, socket.timeout) as exc:
            conn.close()
            raise _TransportFailure(exc, before_send=True)
        conn.sock.settimeout(self.read_timeout)
        self._local.conn = conn
        with self._lock:
            self._connections.add(conn)
        return conn

    def _drop(self, conn: http.client.HTTPConnection) -> None:
        conn.close()
        if getattr(self._local, "conn", None) is conn:
            del self._local.conn
        with self._lock:
            self._connections.discard(conn)

    def _attempt(self, method: str, path: str, data: Optional[bytes]) -> bytes:
        """One request attempt; raises _TransportFailure or _HttpFailure."""
        conn = self._checkout()
        headers = {"Content-Type": "application/json"} if data else {}
        reusable = False
        try:
            conn.request(method, self._prefix + path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()  # drained whatever the status: next request's turn
            status = response.status
            reusable = not response.will_close
        except (OSError, socket.timeout, http.client.HTTPException) as exc:
            # The request may have reached (and been processed by) the
            # server; only idempotent methods may retry from here.
            raise _TransportFailure(exc, before_send=False)
        finally:
            if not reusable:
                # Also on KeyboardInterrupt & co.: a connection abandoned
                # mid-exchange must not carry the next request.
                self._drop(conn)
        if 200 <= status < 300:
            return raw
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            payload = {}
        message = payload.get("error") or f"HTTP {status} on {method} {path}"
        raise _HttpFailure(message, status, payload)

    def close(self) -> None:
        """Close the kept connections of every thread.  The client stays
        usable: the next request opens a new one."""
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _retryable(self, method: str, failure: Exception) -> bool:
        if isinstance(failure, _TransportFailure):
            if failure.before_send:
                return True
            return method == "GET"
        if isinstance(failure, _HttpFailure):
            # A status line was read, so the server saw the request: only
            # idempotent methods retry, even on 503.
            return method == "GET" and failure.status in RETRYABLE_STATUSES
        return False

    def _backoff(self, failure_index: int) -> float:
        return min(self.backoff_base * (2 ** failure_index), self.backoff_max)

    def _raise(self, method: str, path: str, failure: Exception) -> None:
        if isinstance(failure, _HttpFailure):
            raise ClientError(
                str(failure), status=failure.status, payload=failure.payload
            ) from failure
        assert isinstance(failure, _TransportFailure)
        raise ClientError(
            f"cannot reach sweep service at {self.base_url}: {failure.cause}"
        ) from failure.cause

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        retries: Optional[int] = None,
    ) -> bytes:
        """``retries`` overrides the client's budget for this one request."""
        if retries is None:
            retries = self.retries
        data = json.dumps(body).encode("utf-8") if body is not None else None
        attempts: List[Dict[str, Any]] = []
        for attempt in range(retries + 1):
            try:
                return self._attempt(method, path, data)
            except (_TransportFailure, _HttpFailure) as failure:
                status = getattr(failure, "status", None)
                entry: Dict[str, Any] = {
                    "attempt": attempt + 1,
                    "error": str(failure),
                    "status": status,
                    "backoff": None,
                }
                attempts.append(entry)
                if not self._retryable(method, failure):
                    self._raise(method, path, failure)
                if attempt >= retries:
                    payload = getattr(failure, "payload", None)
                    raise RetryExhaustedError(
                        f"{method} {path} failed after {len(attempts)} attempt(s) "
                        f"against {self.base_url}: {failure}",
                        attempts,
                        status=status,
                        payload=payload,
                    ) from failure
                backoff = self._backoff(attempt)
                entry["backoff"] = backoff
                if backoff > 0.0:
                    self._sleep(backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    def _json(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        return json.loads(self._request(method, path, body).decode("utf-8"))

    # -- endpoints ------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def specs(self) -> Dict[str, Any]:
        return self._json("GET", "/specs")

    def submit(
        self, specs: Iterable[Union[ScenarioSpec, Mapping[str, Any]]]
    ) -> Dict[str, Any]:
        """Submit explicit specs; returns the job payload (maybe done)."""
        serialised: List[Dict[str, Any]] = []
        for spec in specs:
            serialised.append(
                spec.to_dict() if isinstance(spec, ScenarioSpec) else dict(spec)
            )
        return self._json("POST", "/sweeps", {"specs": serialised})

    def submit_grid(
        self,
        scenario: str,
        grid: Optional[Mapping[str, Any]] = None,
        base: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit a named scenario + grid; the server expands the product."""
        return self._json(
            "POST",
            "/sweeps",
            {"scenario": scenario, "grid": dict(grid or {}), "base": dict(base or {})},
        )

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def job_events(self, job_id: str, since: int = 0) -> Dict[str, Any]:
        """Telemetry events for a job; pass the returned ``next`` as the
        following ``since`` to read only new events."""
        return self._json("GET", f"/jobs/{job_id}/events?since={int(since)}")

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll_interval: float = 0.1,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; raises :class:`JobFailed` on
        failure and :class:`ClientError` on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["state"] == "done":
                return payload
            if payload["state"] == "failed":
                raise JobFailed(payload)
            if time.monotonic() >= deadline:
                raise ClientError(
                    f"job {job_id} still {payload['state']} after {timeout}s"
                )
            time.sleep(poll_interval)

    def result_bytes(self, result_key: str) -> bytes:
        """The raw cache payload for a result key, byte-for-byte."""
        return self._request("GET", f"/results/{result_key}")

    def result(self, result_key: str) -> Dict[str, Any]:
        return json.loads(self.result_bytes(result_key).decode("utf-8"))

    # -- conveniences ---------------------------------------------------
    def run(
        self,
        specs: Iterable[Union[ScenarioSpec, Mapping[str, Any]]],
        *,
        timeout: float = 300.0,
    ) -> List[Dict[str, Any]]:
        """Submit, wait and fetch: one result payload per spec, in order."""
        job = self.submit(specs)
        if job["state"] not in ("done", "failed"):
            job = self.wait(job["id"], timeout=timeout)
        if job["state"] == "failed":
            raise JobFailed(job)
        return [self.result(entry["result_key"]) for entry in job["specs"]]

    def wait_until_ready(self, *, timeout: float = 30.0, poll_interval: float = 0.2):
        """Block until ``/healthz`` answers (daemon startup helper).

        Each probe is a single attempt -- this loop *is* the retry, paced by
        ``poll_interval``, so the backoff ladder would only make it overshoot
        ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                return json.loads(self._request("GET", "/healthz", retries=0))
            except ClientError:
                if time.monotonic() >= deadline:
                    raise
            self._sleep(poll_interval)
