"""Retry/backoff behaviour of the hardened :class:`ServiceClient`.

Driven against scripted stub servers on ephemeral localhost ports: an HTTP
server whose response sequence per path is programmable (503-then-ok), and
a raw socket server that accepts connections and drops them mid-request
(the "response never arrived" transport failure).  No real daemon, no real
sleeping -- the backoff sleep is injected and recorded.
"""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service.client import ClientError, RetryExhaustedError, ServiceClient


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves scripted status codes; records every request it sees."""

    protocol_version = "HTTP/1.1"
    script = None  # list of int status codes, consumed per request
    seen = None  # list of (method, path)
    lock = None

    def log_message(self, *args):
        pass

    def _serve(self):
        with self.lock:
            self.seen.append((self.command, self.path))
            status = self.script.pop(0) if self.script else 200
        body = json.dumps(
            {"ok": True} if status < 400 else {"error": f"scripted {status}"}
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _serve
    do_POST = _serve


def scripted_server(script):
    handler = type(
        "Scripted",
        (_ScriptedHandler,),
        {"script": list(script), "seen": [], "lock": threading.Lock()},
    )
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, handler


@pytest.fixture
def sleeps():
    return []


def make_client(httpd, sleeps, **kwargs):
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("backoff_base", 0.2)
    return ServiceClient(
        f"http://127.0.0.1:{httpd.server_port}", sleep=sleeps.append, **kwargs
    )


class TestHttpRetry:
    def test_get_retries_through_503_and_succeeds(self, sleeps):
        httpd, handler = scripted_server([503, 503, 200])
        try:
            client = make_client(httpd, sleeps)
            assert client.healthz() == {"ok": True}
        finally:
            httpd.shutdown()
        assert [m for m, _ in handler.seen] == ["GET", "GET", "GET"]
        # Deterministic exponential backoff: 0.2, then 0.4.
        assert sleeps == [pytest.approx(0.2), pytest.approx(0.4)]

    def test_retry_budget_exhausts_with_full_attempt_log(self, sleeps):
        httpd, handler = scripted_server([503] * 10)
        try:
            client = make_client(httpd, sleeps, retries=2)
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.healthz()
        finally:
            httpd.shutdown()
        err = excinfo.value
        assert err.status == 503
        assert len(err.attempts) == 3  # 1 try + 2 retries
        assert [a["attempt"] for a in err.attempts] == [1, 2, 3]
        assert err.attempts[0]["backoff"] == pytest.approx(0.2)
        assert err.attempts[1]["backoff"] == pytest.approx(0.4)
        assert err.attempts[-1]["backoff"] is None  # no sleep after the last
        assert len(handler.seen) == 3

    def test_backoff_is_capped_at_backoff_max(self, sleeps):
        httpd, _ = scripted_server([503] * 10)
        try:
            client = make_client(httpd, sleeps, retries=4, backoff_max=0.5)
            with pytest.raises(RetryExhaustedError):
                client.healthz()
        finally:
            httpd.shutdown()
        assert sleeps == [
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.5),
            pytest.approx(0.5),
        ]

    def test_post_does_not_retry_503(self, sleeps):
        """A 503 means the server *saw* the POST; replaying it could
        duplicate the submission, so it surfaces immediately."""
        httpd, handler = scripted_server([503, 200])
        try:
            client = make_client(httpd, sleeps)
            with pytest.raises(ClientError) as excinfo:
                client._json("POST", "/sweeps", {"specs": []})
        finally:
            httpd.shutdown()
        assert not isinstance(excinfo.value, RetryExhaustedError)
        assert excinfo.value.status == 503
        assert handler.seen == [("POST", "/sweeps")]
        assert sleeps == []

    def test_non_retryable_statuses_surface_immediately(self, sleeps):
        httpd, handler = scripted_server([404])
        try:
            client = make_client(httpd, sleeps)
            with pytest.raises(ClientError) as excinfo:
                client.healthz()
        finally:
            httpd.shutdown()
        assert excinfo.value.status == 404
        assert excinfo.value.payload == {"error": "scripted 404"}
        assert len(handler.seen) == 1
        assert sleeps == []


class TestTransportRetry:
    def _dead_port(self):
        # Bind-then-close: the kernel won't reuse it immediately, so
        # connecting gets ECONNREFUSED deterministically.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_connection_refused_retries_even_post_then_exhausts(self, sleeps):
        port = self._dead_port()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", retries=2, backoff_base=0.1,
            sleep=sleeps.append,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            client._json("POST", "/sweeps", {"specs": []})
        # Connect never succeeded: no byte left the process, so the POST
        # was safe to retry -- and every attempt is in the log.
        assert len(excinfo.value.attempts) == 3
        assert excinfo.value.status is None
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_retry_exhausted_is_a_clienterror(self):
        port = self._dead_port()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", retries=0, sleep=lambda s: None
        )
        with pytest.raises(ClientError):
            client.healthz()

    def test_wait_until_ready_probes_once_per_poll_interval(self, sleeps):
        """Against a daemon that is not listening yet, each probe is a single
        attempt paced by ``poll_interval`` -- not the 0.2 + 0.4 + 0.8 s retry
        ladder, which made ``timeout=0.3`` return after 1.4 s."""

        def sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        client = ServiceClient(f"http://127.0.0.1:{self._dead_port()}", sleep=sleep)
        started = time.monotonic()
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.wait_until_ready(timeout=0.3, poll_interval=0.01)
        elapsed = time.monotonic() - started
        assert len(excinfo.value.attempts) == 1
        assert len(sleeps) > 5 and set(sleeps) == {0.01}
        # Overshoot: at most one poll interval and one (refused) connect.
        assert 0.3 <= elapsed < 0.3 + 0.01 + 0.25

    def test_mid_request_drop_retries_get_but_not_post(self, sleeps):
        """A server that reads the request then drops the connection: the
        request *may* have been processed, so only GET retries."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        accepted = []
        stop = threading.Event()

        def loop():
            listener.settimeout(0.2)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(1)
                try:
                    conn.recv(65536)
                finally:
                    conn.close()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{port}",
                retries=2,
                backoff_base=0.0,
                timeout=5.0,
                sleep=sleeps.append,
            )
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.healthz()
            assert len(excinfo.value.attempts) == 3
            get_connections = len(accepted)
            assert get_connections == 3

            with pytest.raises(ClientError) as post_exc:
                client._json("POST", "/sweeps", {"specs": []})
            assert not isinstance(post_exc.value, RetryExhaustedError)
            # The POST connected exactly once: no replay after bytes left.
            assert len(accepted) == get_connections + 1
        finally:
            stop.set()
            thread.join(timeout=2.0)
            listener.close()


class TestClientConfiguration:
    def test_timeout_knobs_default_and_override(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=7.0)
        assert client.connect_timeout == 7.0
        assert client.read_timeout == 7.0
        client = ServiceClient(
            "http://127.0.0.1:1", timeout=7.0, connect_timeout=1.0, read_timeout=30.0
        )
        assert client.connect_timeout == 1.0
        assert client.read_timeout == 30.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ClientError):
            ServiceClient("ftp://example.com")
        with pytest.raises(ClientError):
            ServiceClient("not a url")
        with pytest.raises(ClientError):
            ServiceClient("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ClientError):
            ServiceClient("http://127.0.0.1:1", backoff_base=-0.1)
