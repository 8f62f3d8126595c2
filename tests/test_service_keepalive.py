"""A client is a connection: keep-alive between ``ServiceClient`` and the daemon.

Counted, not timed: how many connections the daemon accepted and how many
requests it answered (``/healthz`` ``http``), how many times a scripted
fake server saw a request, which sockets are still open.  Standard library
only -- this file runs on the no-numpy leg -- and clean under
``-W error::ResourceWarning``.
"""

import socket
import threading
import time

import pytest

from repro.experiments import scenario
from repro.service import ServiceConfig, SweepServer, SweepService
from repro.service.client import ClientError, RetryExhaustedError, ServiceClient

TINY_SIM = {"duration": 4.0, "dt": 0.1}
HANDLER_THREAD = "sweep-http-handler"


def tiny_spec(n=4):
    return scenario("quickstart_line", n=n, sim=dict(TINY_SIM))


def start_server(cache_dir, port=0):
    service = SweepService(cache_dir, config=ServiceConfig(workers=1))
    server = SweepServer(service, "127.0.0.1", port)
    server.start_background()
    return server


@pytest.fixture
def server(tmp_path):
    srv = start_server(tmp_path / "cache")
    yield srv
    srv.shutdown()


@pytest.fixture
def sleeps():
    return []


@pytest.fixture
def client(server, sleeps):
    with ServiceClient(server.url, timeout=30.0, sleep=sleeps.append) as clnt:
        yield clnt


def kept_socket(client):
    """The calling thread's kept connection's socket."""
    return client._local.conn.sock


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestOneConnection:
    def test_fifty_mixed_requests_open_exactly_one_connection(self, server, client):
        job = client.wait(client.submit([tiny_spec()])["id"], timeout=60.0)
        key = job["specs"][0]["result_key"]
        client.close()  # the counted stretch starts from no connection at all
        before = server.httpd.http_stats()
        for _ in range(16):
            assert client.healthz()["status"] == "ok"
            assert client.submit([tiny_spec()])["state"] == "done"
            assert client.result_bytes(key)
        client.healthz()
        last = client.healthz()["http"]  # the 50th; built before it is counted
        after = server.httpd.http_stats()
        assert after["connections"] - before["connections"] == 1
        assert after["requests"] - before["requests"] == 50
        assert last == {"connections": after["connections"], "requests": after["requests"] - 1}

    def test_http_block_is_not_a_counter(self, client):
        # The benchmark differences ``counters`` key by key as integers.
        health = client.healthz()
        assert set(health["http"]) == {"connections", "requests"}
        assert "http" not in health["counters"]
        assert all(isinstance(value, int) for value in health["counters"].values())

    def test_error_bodies_are_drained_and_the_connection_reused(self, server, client, sleeps):
        client.healthz()
        sock = kept_socket(client)
        before = server.httpd.http_stats()["connections"]
        with pytest.raises(ClientError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        with pytest.raises(ClientError) as excinfo:
            client.submit([{"not": "a spec"}])
        assert excinfo.value.status == 400
        assert client.healthz()["status"] == "ok"
        assert kept_socket(client) is sock
        assert server.httpd.http_stats()["connections"] == before
        assert sleeps == []

    def test_post_refused_with_its_body_unread_closes_the_connection(self, server, client):
        # The unread body must never be parsed as the next request.
        with pytest.raises(ClientError) as excinfo:
            client._json("POST", "/nowhere", {"specs": ["x" * 4096]})
        assert excinfo.value.status == 404
        assert not hasattr(client._local, "conn")
        assert client.healthz()["status"] == "ok"

    def test_will_close_responses_are_not_reused(self, server, client):
        client.healthz()
        first = kept_socket(client)
        server.service.drain(timeout=5.0)  # every response now says Connection: close
        before = server.httpd.http_stats()["connections"]
        assert client.healthz()["status"] == "ok"  # on the kept connection, its last
        assert first.fileno() == -1 and not hasattr(client._local, "conn")
        for _ in range(3):
            assert client.healthz()["status"] == "ok"
            assert not hasattr(client._local, "conn")
        assert server.httpd.http_stats()["connections"] - before == 3

    def test_both_ends_have_nodelay(self, server, client):
        # The deterministic guard against the Nagle x delayed-ACK stall
        # (44.8 ms per kept-alive POST when the daemon's end lacks it).
        others = [ServiceClient(server.url) for _ in range(3)]
        try:
            for each in [client, *others]:
                each.healthz()
                assert kept_socket(each).getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            accepted = list(server.httpd._open)
            assert len(accepted) == 4
            for sock in accepted:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            for each in others:
                each.close()


class TestStaleConnection:
    """The daemon closed the kept connection while it sat idle: the caller
    must never see it, and no submission may be duplicated."""

    @pytest.mark.parametrize("first", ["GET", "POST"])
    def test_server_closed_the_idle_connection(self, server, client, sleeps, first):
        client.healthz()
        stale = kept_socket(client)
        server.httpd.close_connections(grace=5.0)
        submitted = server.service.counters["jobs_submitted"]
        connections = server.httpd.http_stats()["connections"]
        if first == "POST":
            assert client.submit([tiny_spec()])["id"]
            assert client.healthz()["status"] == "ok"
        else:
            assert client.healthz()["status"] == "ok"
            assert client.submit([tiny_spec()])["id"]
        assert server.service.counters["jobs_submitted"] == submitted + 1
        assert server.httpd.http_stats()["connections"] == connections + 1
        assert stale.fileno() == -1
        assert sleeps == []  # replaced before the write, not retried after it

    def test_idle_timeout_ends_an_abandoned_connection(self, server, client, sleeps):
        server.httpd.RequestHandlerClass.timeout = 0.1
        client.healthz()
        assert wait_until(lambda: not server.httpd._open)
        assert not any(t.name == HANDLER_THREAD for t in threading.enumerate())
        assert client.submit([tiny_spec()])["id"]
        assert server.httpd.http_stats()["connections"] == 2
        assert sleeps == []

    def test_daemon_restarted_on_the_same_port(self, tmp_path, sleeps):
        first = start_server(tmp_path / "cache")
        port = first.address[1]
        with ServiceClient(first.url, timeout=30.0, sleep=sleeps.append) as client:
            try:
                client.healthz()
            finally:
                first.shutdown()
            second = start_server(tmp_path / "cache", port)
            try:
                assert client.submit([tiny_spec()])["id"]
                assert client.healthz()["counters"]["jobs_submitted"] == 1
                assert second.httpd.http_stats()["connections"] == 1
            finally:
                second.shutdown()
        assert sleeps == []


class _FakeDaemon:
    """Raw-socket HTTP/1.1 server following a script, one step per request:
    ``"ok"`` answers ``{}`` and keeps the connection, ``"drop"`` reads the
    whole request and then closes without a byte of response."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []  # (connection number, method)
        self.connections = 0
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._listener.settimeout(0.1)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            conn.settimeout(5.0)
            with conn, conn.makefile("rb") as reader:
                while True:
                    try:
                        request_line = reader.readline()
                    except socket.timeout:
                        break
                    if not request_line:
                        break  # the client closed
                    length = 0
                    for line in iter(reader.readline, b"\r\n"):
                        name, _, value = line.decode("latin-1").partition(":")
                        if name.lower() == "content-length":
                            length = int(value)
                    reader.read(length)
                    self.requests.append((self.connections, request_line.split()[0].decode()))
                    if self.script.pop(0) == "drop":
                        break
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 2\r\n\r\n{}"
                    )

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()
        assert not self._thread.is_alive()


class TestRetryContractOnAKeptConnection:
    def test_post_that_was_read_is_never_sent_twice(self, sleeps):
        fake = _FakeDaemon(["ok", "drop", "ok"])
        try:
            with ServiceClient(fake.url, timeout=5.0, sleep=sleeps.append) as client:
                assert client.healthz() == {}
                with pytest.raises(ClientError) as excinfo:
                    client.submit([tiny_spec()])
                assert not isinstance(excinfo.value, RetryExhaustedError)
                assert excinfo.value.status is None
                # The broken connection is gone; the next call gets a new one.
                assert not hasattr(client._local, "conn")
                assert client.healthz() == {}
        finally:
            fake.stop()
        assert fake.requests == [(1, "GET"), (1, "POST"), (2, "GET")]
        assert sleeps == []

    def test_get_that_was_dropped_retries_on_a_new_connection(self, sleeps):
        fake = _FakeDaemon(["ok", "drop", "drop", "ok"])
        try:
            with ServiceClient(
                fake.url, timeout=5.0, backoff_base=0.2, sleep=sleeps.append
            ) as client:
                assert client.healthz() == {}
                assert client.healthz() == {}
        finally:
            fake.stop()
        assert fake.requests == [(1, "GET"), (1, "GET"), (2, "GET"), (3, "GET")]
        assert sleeps == [pytest.approx(0.2), pytest.approx(0.4)]

    def test_exhausted_retries_still_carry_the_full_attempt_log(self, sleeps):
        fake = _FakeDaemon(["ok"] + ["drop"] * 3)
        try:
            with ServiceClient(
                fake.url, timeout=5.0, retries=2, sleep=sleeps.append
            ) as client:
                client.healthz()
                with pytest.raises(RetryExhaustedError) as excinfo:
                    client.healthz()
        finally:
            fake.stop()
        assert [entry["attempt"] for entry in excinfo.value.attempts] == [1, 2, 3]
        assert [entry["backoff"] for entry in excinfo.value.attempts][-1] is None
        assert fake.connections == 3


class TestSharedClient:
    def test_eight_threads_get_eight_connections_and_their_own_bytes(self, server):
        specs = [tiny_spec(n) for n in (4, 5, 6, 7)]
        with ServiceClient(server.url, timeout=30.0) as client:
            job = client.wait(client.submit(specs)["id"], timeout=120.0)
            disk = {
                entry["result_key"]: server.service.cache.path_for_key(
                    entry["result_key"]
                ).read_bytes()
                for entry in job["specs"]
            }
            assert len(set(disk.values())) == 4
            client.close()
            before = server.httpd.http_stats()["connections"]
            keys = sorted(disk)
            wrong = []
            sockets = []
            barrier = threading.Barrier(8)
            parked = threading.Barrier(9)
            release = threading.Event()

            def loop(index):
                barrier.wait(10.0)
                for turn in range(24):
                    key = keys[(index + turn) % 4]
                    # Responses of different sizes and kinds, interleaved
                    # across threads: any cross-talk shows as wrong bytes.
                    if client.result_bytes(key) != disk[key]:
                        wrong.append((index, turn, "bytes"))
                    if client.job(job["id"])["id"] != job["id"]:
                        wrong.append((index, turn, "job"))
                sockets.append(kept_socket(client))
                parked.wait(60.0)
                release.wait(10.0)

            threads = [threading.Thread(target=loop, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            try:
                parked.wait(60.0)
                assert wrong == []
                assert len({id(sock) for sock in sockets}) == 8
                assert server.httpd.http_stats()["connections"] - before == 8
                # From this thread, while the eight still hold theirs.
                client.close()
                assert [sock.fileno() for sock in sockets] == [-1] * 8
            finally:
                release.set()
                for thread in threads:
                    thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)


class TestClose:
    def test_close_and_with_leave_no_open_socket(self, server):
        client = ServiceClient(server.url)
        client.healthz()
        sock = kept_socket(client)
        client.close()
        assert sock.fileno() == -1
        assert wait_until(lambda: not server.httpd._open)
        # Not a terminal state: the next request simply reconnects.
        assert client.healthz()["status"] == "ok"
        client.close()
        with ServiceClient(server.url) as scoped:
            scoped.healthz()
            sock = kept_socket(scoped)
        assert sock.fileno() == -1

    def test_shutdown_ends_idle_connections_and_their_threads(self, tmp_path):
        srv = start_server(tmp_path / "cache")
        clients = [ServiceClient(srv.url) for _ in range(3)]
        try:
            for each in clients:
                each.healthz()
            handlers = [t for t in threading.enumerate() if t.name == HANDLER_THREAD]
            assert len(handlers) == 3 and len(srv.httpd._open) == 3
            srv.shutdown()
            assert not any(thread.is_alive() for thread in handlers)
            assert srv.httpd._open == {}
            for each in clients:  # each reads EOF: the accepted sockets are closed
                assert kept_socket(each).recv(1) == b""
        finally:
            srv.shutdown()
            for each in clients:
                each.close()
