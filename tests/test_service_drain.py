"""Graceful shutdown of the sweep service: drain semantics end to end.

Direct :meth:`SweepService.drain` calls, the HTTP 503 surface during a
drain, :meth:`SweepServer.shutdown` with a drain timeout, and the real
daemon under SIGTERM with ``--drain-timeout`` (the systemd/docker-stop
path).
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import scenario
from repro.service import (
    JsonlLog,
    ServiceConfig,
    ServiceUnavailableError,
    SweepServer,
    SweepService,
)
from repro.service.client import ClientError, ServiceClient

TINY_SIM = {"duration": 4.0, "dt": 0.1}


def tiny_spec(n=4, **overrides):
    return scenario("quickstart_line", n=n, sim=dict(TINY_SIM), **overrides)


class TestDrainDirect:
    def test_drain_fails_queued_jobs_with_clear_status(self, tmp_path):
        # Never started: submissions stay queued, so the drain must fail
        # them all -- deterministically, no worker race.
        service = SweepService(tmp_path / "cache")
        job_a = service.submit([tiny_spec()])
        job_b = service.submit([tiny_spec(n=5)])
        summary = service.drain(timeout=5.0)
        assert summary == {
            "failed_queued_jobs": 2,
            "stuck_workers": 0,
            "clean": True,
        }
        for job in (job_a, job_b):
            assert job.state == "failed"
            assert "shutting down" in job.error
            assert all(entry["state"] == "failed" for entry in job.progress)

    def test_submit_during_drain_is_rejected(self, tmp_path):
        service = SweepService(tmp_path / "cache")
        service.drain(timeout=1.0)
        with pytest.raises(ServiceUnavailableError):
            service.submit([tiny_spec()])

    def test_drain_is_idempotent_and_stop_is_a_noop_after(self, tmp_path):
        service = SweepService(tmp_path / "cache").start()
        first = service.drain(timeout=5.0)
        assert first["clean"]
        second = service.drain(timeout=1.0)
        assert second["failed_queued_jobs"] == 0
        service.stop()  # must not raise or hang

    def test_inflight_jobs_finish_within_the_drain_bound(self, tmp_path):
        service = SweepService(
            tmp_path / "cache", config=ServiceConfig(workers=2)
        ).start()
        job = service.submit([tiny_spec()])
        job.wait(timeout=60.0)
        assert job.state == "done"
        summary = service.drain(timeout=10.0)
        assert summary["clean"]
        assert summary["stuck_workers"] == 0

    def test_drain_writes_lifecycle_events_and_flushes_the_log(self, tmp_path):
        log_path = tmp_path / "svc.jsonl"
        service = SweepService(tmp_path / "cache", log=JsonlLog(log_path)).start()
        service.submit([tiny_spec()])
        service.drain(timeout=10.0)
        events = [
            json.loads(line)["event"]
            for line in log_path.read_text().splitlines()
        ]
        assert "service_draining" in events
        assert "service_drained" in events
        drained = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if json.loads(line)["event"] == "service_drained"
        ]
        assert drained[0]["clean"] is True

    def test_restart_after_drain_accepts_submissions_again(self, tmp_path):
        service = SweepService(tmp_path / "cache").start()
        service.drain(timeout=5.0)
        service.start()
        job = service.submit([tiny_spec()])
        job.wait(timeout=60.0)
        assert job.state == "done"
        service.stop()


class TestDrainOverHttp:
    def test_post_during_drain_returns_503(self, tmp_path):
        service = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        server = SweepServer(service, "127.0.0.1", 0)
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=10.0, retries=0)
            service.drain(timeout=5.0)
            with pytest.raises(ClientError) as excinfo:
                client.submit([tiny_spec()])
            assert excinfo.value.status == 503
            assert "draining" in str(excinfo.value)
            # Reads stay up while draining: health and results still serve.
            assert client.healthz()["status"] == "ok"
        finally:
            server.shutdown()

    def test_responses_sent_while_draining_close_the_connection(self, tmp_path):
        service = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        server = SweepServer(service, "127.0.0.1", 0)
        server.start_background()
        conn = http.client.HTTPConnection(*server.address, timeout=10.0)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.getheader("Connection") is None and not response.will_close
            service.drain(timeout=5.0)
            body = json.dumps({"specs": [tiny_spec().to_dict()]})
            conn.request("POST", "/sweeps", body=body)  # on the kept connection
            response = conn.getresponse()
            assert response.status == 503
            assert "draining" in json.loads(response.read())["error"]
            assert response.getheader("Connection") == "close" and response.will_close
            conn.request("GET", "/healthz")  # http.client reconnects
            response = conn.getresponse()
            response.read()
            assert response.status == 200 and response.will_close
        finally:
            conn.close()
            server.shutdown()

    def test_shutdown_with_idle_clients_leaves_no_handler_thread(self, tmp_path):
        service = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        server = SweepServer(service, "127.0.0.1", 0)
        server.start_background()
        clients = [ServiceClient(server.url, timeout=10.0) for _ in range(3)]
        try:
            for client in clients:
                client.healthz()
            handlers = [
                t for t in threading.enumerate() if t.name == "sweep-http-handler"
            ]
            assert len(handlers) == 3
            server.shutdown(drain_timeout=10.0)
            assert not any(thread.is_alive() for thread in handlers)
            assert server.httpd._open == {}
        finally:
            server.shutdown()
            for client in clients:
                client.close()

    def test_server_shutdown_with_drain_timeout(self, tmp_path):
        service = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        server = SweepServer(service, "127.0.0.1", 0)
        server.start_background()
        client = ServiceClient(server.url, timeout=10.0)
        job = client.submit([tiny_spec()])
        client.wait(job["id"], timeout=60.0)
        server.shutdown(drain_timeout=10.0)
        assert not service._running
        # Shutdown is idempotent.
        server.shutdown(drain_timeout=1.0)


class TestServeSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        log_file = tmp_path / "svc.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--log-file",
                str(log_file),
                "--drain-timeout",
                "10",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        idle = []
        try:
            line = proc.stderr.readline()
            assert "sweep service on" in line, line
            url = line.strip().rsplit(" ", 1)[-1]
            client = ServiceClient(url, timeout=10.0)
            client.wait_until_ready(timeout=20.0)
            job = client.submit([tiny_spec()])
            client.wait(job["id"], timeout=60.0)
            # Three clients that hold their connections and say nothing
            # more: an idle connection must never delay the shutdown.
            idle = [client, ServiceClient(url), ServiceClient(url)]
            for each in idle:
                each.healthz()
            assert idle[-1].healthz()["http"]["connections"] == 3
            proc.send_signal(signal.SIGTERM)
            started = time.monotonic()
            stdout, stderr = proc.communicate(timeout=20)
            assert time.monotonic() - started < 10.0  # --drain-timeout
            for each in idle:  # the daemon's end is closed: EOF, not a hang
                assert each._local.conn.sock.recv(1) == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            for each in idle:
                each.close()
        assert proc.returncode == 0, stderr
        assert "SIGTERM" in stderr
        assert "draining" in stderr
        events = [
            json.loads(line)["event"] for line in log_file.read_text().splitlines()
        ]
        assert "service_draining" in events
        assert "service_drained" in events
