"""What the process boundary adds to the sweep service.

Each daemon worker is a child process fed over a pipe.  These tests pin the
contract of that boundary: a dead worker costs exactly its job, shutting
down leaves no process behind, telemetry stays live, and only small
messages -- never a payload -- cross the pipe.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import scenario
from repro.service import ServiceConfig, SweepService
from repro.service import core
from repro.service.client import ServiceClient

TINY_SIM = {"duration": 4.0, "dt": 0.1}


def tiny_spec(n=4):
    return scenario("quickstart_line", n=n, sim=dict(TINY_SIM))


def slow_spec():
    """Minutes of reference-engine work: every test below ends it early."""
    return scenario("quickstart_line", n=24, sim={"duration": 50000.0, "dt": 0.1})


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # a zombie nobody has reaped yet is not a survivor
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def submit_and_wait_running(svc, spec):
    job = svc.submit([spec])
    assert wait_until(lambda: job.progress[0]["state"] == "running")
    (worker,) = [w for w in svc._workers if w.job is job]
    return job, worker.process.pid


def serve(tmp_path, *extra, **popen_kwargs):
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments", "serve",
            "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--log-file", str(tmp_path / "svc.jsonl"),
            *extra,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kwargs,
    )
    line = proc.stderr.readline()
    assert "sweep service on" in line, line
    client = ServiceClient(line.strip().rsplit(" ", 1)[-1], timeout=10.0)
    client.wait_until_ready(timeout=20.0)
    return proc, client


class TestWorkerDeath:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigkill_mid_job_fails_that_job_only(self, tmp_path, workers):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=workers))
        svc.start()
        try:
            before = svc.describe()["workers"]
            assert before["alive"] == before["configured"] == workers
            assert before["restarts"] == 0
            spec = slow_spec()
            owner, pid = submit_and_wait_running(svc, spec)
            follower = svc.submit([spec])
            assert follower.progress[0]["state"] == "coalesced"
            os.kill(pid, signal.SIGKILL)
            assert owner.wait(30.0) and follower.wait(30.0)
            reason = f"worker process {pid} exited with signal SIGKILL"
            assert owner.state == "failed" and owner.error == reason
            assert follower.state == "failed"
            assert follower.progress[0]["error"] == reason
            assert svc._inflight == {}
            # The pool is whole again before the next job, on a fresh pid.
            after = svc.describe()["workers"]
            assert after["alive"] == workers and after["restarts"] == 1
            assert pid not in after["pids"] and len(after["pids"]) == workers
            retry = svc.submit([tiny_spec()])
            assert retry.wait(60.0) and retry.state == "done"
        finally:
            svc.stop()

    def test_worker_that_died_idle_costs_no_job(self, tmp_path):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            (pid,) = svc.describe()["workers"]["pids"]
            os.kill(pid, signal.SIGKILL)
            assert wait_until(lambda: svc.describe()["workers"]["alive"] == 0)
            job = svc.submit([tiny_spec()])
            assert job.wait(60.0) and job.state == "done"
            workers = svc.describe()["workers"]
            assert workers["restarts"] == 1 and workers["pids"] != [pid]
        finally:
            svc.stop()

    def test_worker_that_still_looks_alive_after_sigkill_costs_no_job(
        self, tmp_path, monkeypatch
    ):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            (worker,) = svc._workers
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(30.0)
            # Just after the signal ``is_alive`` can still answer True: the
            # job then goes down a dead pipe before any spec starts.
            lies = [True]
            real_is_alive = worker.process.is_alive
            monkeypatch.setattr(
                worker.process, "is_alive", lambda: lies.pop() if lies else real_is_alive()
            )
            job = svc.submit([tiny_spec()])
            assert job.wait(60.0) and job.state == "done", job.error
            assert lies == []
            health = svc.describe()
            assert health["workers"]["restarts"] == 1
            assert health["counters"]["specs_executed"] == 1
        finally:
            svc.stop()

    def test_worker_exit_is_logged_with_a_schema_valid_event(self, tmp_path):
        from repro.service import JsonlLog
        from repro.telemetry import validate_jsonl

        log_path = tmp_path / "svc.jsonl"
        log = JsonlLog(log_path)
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1), log=log)
        svc.start()
        try:
            job, pid = submit_and_wait_running(svc, slow_spec())
            os.kill(pid, signal.SIGKILL)
            assert job.wait(30.0)
        finally:
            svc.stop()
            log.close()
        validate_jsonl(log_path)
        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        (started,) = [r for r in records if r["event"] == "service_start"]
        assert started["pids"] == [pid]
        (exited,) = [r for r in records if r["event"] == "worker_exited"]
        assert (exited["pid"], exited["exit"], exited["job"]) == (
            pid, "signal SIGKILL", job.id
        )

    def test_workers_ignore_sigint_and_keep_serving(self, tmp_path):
        # A terminal ^C goes to the whole process group; only the daemon
        # may act on it.
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            (pid,) = svc.describe()["workers"]["pids"]
            os.kill(pid, signal.SIGINT)
            job = svc.submit([tiny_spec()])
            assert job.wait(60.0) and job.state == "done"
            workers = svc.describe()["workers"]
            assert workers["restarts"] == 0 and workers["pids"] == [pid]
        finally:
            svc.stop()


class TestKeptConnectionAcrossWorkerDeath:
    def test_replacement_worker_serves_the_same_connection_and_lets_go_of_it(
        self, tmp_path
    ):
        proc, client = serve(tmp_path, "--workers", "1")
        pids = []
        try:
            (pid,) = client.healthz()["workers"]["pids"]
            pids.append(pid)
            sock = client._local.conn.sock
            os.kill(pid, signal.SIGKILL)
            # The replacement is forked while our connection is open, so it
            # inherits the accepted socket -- and must close its copy.
            client.run([tiny_spec()], timeout=60.0)
            health = client.healthz()
            assert health["workers"]["restarts"] == 1
            assert health["http"]["connections"] == 1
            assert client._local.conn.sock is sock
            pids.extend(health["workers"]["pids"])
            # Keep the replacement busy: an idle worker would exit on its
            # pipe's EOF and release a leaked descriptor by dying.
            job = client.submit([slow_spec()])
            assert wait_until(
                lambda: client.job(job["id"])["specs"][0]["state"] == "running"
            )
            proc.kill()
            proc.wait(timeout=10)
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # EOF: no process holds the daemon's end
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
            client.close()
            for orphan in pids:
                try:
                    os.kill(orphan, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert wait_until(lambda: not any(pid_alive(p) for p in pids))


class TestLiveTelemetry:
    def test_watchdog_events_cross_the_pipe_live_and_in_order(self, tmp_path):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            job = svc.submit([scenario("line_scaling", n=5, until_stable=True)])
            assert job.wait(60.0) and job.state == "done"
            events = job.events_payload()["events"]
            kinds = [event["event"] for event in events]
            assert kinds[0] == "sweep_started" and kinds[-1] == "sweep_finished"
            assert kinds.index("run_started") < kinds.index("watchdog_fired")
            assert kinds.index("watchdog_fired") < kinds.index("run_finished")
            fired = [e for e in events if e["event"] == "watchdog_fired"]
            assert fired and not any(e.get("replayed") for e in fired)
            assert svc.describe()["watchdogs"] == {"watchdog_convergence": len(fired)}
        finally:
            svc.stop()


class TestPipeTraffic:
    def test_heads_are_adopted_and_payloads_never_cross(self, tmp_path, monkeypatch):
        # Counted, not timed.
        tags = []  # of every message the relay receives

        def loads(data):
            message = pickle.loads(data)
            tags.append(message[0])
            return message

        monkeypatch.setattr(core, "pickle", SimpleNamespace(loads=loads))
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            specs = [
                scenario("line_scaling", n=n, backend="fast", sim={"duration": 200.0})
                for n in (12, 14, 16)
            ]
            job = svc.submit(specs)
            assert job.wait(120.0) and job.state == "done"
            assert job.stats["executed"] == 3
            # One message per telemetry record the job keeps, then "done":
            # progress and index entries ride on the records.
            assert len(tags) == len(job.events) + 1
            assert tags == ["record"] * len(job.events) + ["done"]
            for spec in specs:
                assert svc.cache.path_for(spec).stat().st_size > 100_000
            assert 0 < job.pipe_bytes < 16_000
            # The daemon stored nothing itself, yet its index holds all
            # three heads and a resubmission parses nothing.
            probe = svc.cache.probe_stats()
            assert (probe["entries"], probe["parses"]) == (3, 0)
            again = svc.submit(specs)
            assert again.state == "done"
            assert again.spec_counts()["cached"] == 3
            probe = svc.cache.probe_stats()
            assert (probe["hits"], probe["parses"]) == (3, 0)
        finally:
            svc.stop()


class TestNoProcessSurvives:
    def test_drain_terminates_a_worker_that_outlasts_the_bound(self, tmp_path):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=2))
        svc.start()
        pids = svc.describe()["workers"]["pids"]
        job, pid = submit_and_wait_running(svc, slow_spec())
        summary = svc.drain(timeout=0.3)
        assert summary == {"failed_queued_jobs": 0, "stuck_workers": 1, "clean": False}
        assert job.state == "failed"
        assert "drain timed out after 0.3s" in job.error
        assert f"worker process {pid} terminated" in job.error
        assert svc._inflight == {}
        assert not any(pid_alive(p) for p in pids)

    def test_stop_leaves_no_worker_behind(self, tmp_path):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=2))
        svc.start()
        pids = svc.describe()["workers"]["pids"]
        job, _ = submit_and_wait_running(svc, slow_spec())
        svc.stop(timeout=0.3)
        assert job.state == "failed" and "service stopped" in job.error
        assert not any(pid_alive(p) for p in pids)
        assert svc.describe()["workers"]["pids"] == []

    def test_clean_drain_leaves_no_worker_behind(self, tmp_path):
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=2))
        svc.start()
        pids = svc.describe()["workers"]["pids"]
        job = svc.submit([tiny_spec()])
        assert job.wait(60.0)
        assert svc.drain(timeout=10.0)["clean"]
        assert not any(pid_alive(p) for p in pids)

    def test_workers_exit_when_the_daemon_is_killed(self, tmp_path):
        proc, client = serve(tmp_path, "--workers", "2")
        try:
            workers = client.healthz()["workers"]
            assert workers["alive"] == workers["configured"] == 2
            client.run([tiny_spec()], timeout=60.0)
            proc.kill()
            proc.wait(timeout=10)
            # Nobody told them: they read EOF on their pipes.
            assert wait_until(lambda: not any(pid_alive(p) for p in workers["pids"]))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()

    def test_ctrl_c_on_the_process_group_is_the_daemons_decision(self, tmp_path):
        proc, client = serve(
            tmp_path, "--workers", "2", "--drain-timeout", "10", start_new_session=True
        )
        try:
            pids = client.healthz()["workers"]["pids"]
            client.run([tiny_spec()], timeout=60.0)
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
        assert proc.returncode == 0, stderr
        assert "SIGINT: draining" in stderr
        assert "Traceback" not in stderr
        assert not any(pid_alive(p) for p in pids)
        drained = [
            json.loads(line)
            for line in (tmp_path / "svc.jsonl").read_text().splitlines()
            if json.loads(line)["event"] == "service_drained"
        ]
        assert drained[0]["clean"] is True
