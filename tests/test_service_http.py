"""End-to-end tests of the sweep service HTTP API and the stdlib client.

A real ``ThreadingHTTPServer`` on an ephemeral localhost port, driven
through :class:`repro.service.client.ServiceClient` -- the same path the
CI smoke job and the docs walkthrough use.
"""

import json
import threading

import pytest

import repro.experiments.executor as executor_mod
from repro.experiments import scenario
from repro.experiments.spec import ScenarioSpec
from repro.fastsim import backend as backend_mod
from repro.fastsim.backend import backend_available
from repro.service import ServiceConfig, SweepServer, SweepService
from repro.service.client import ClientError, JobFailed, ServiceClient

TINY_SIM = {"duration": 4.0, "dt": 0.1}


def tiny_spec(n=4, **overrides):
    return scenario("quickstart_line", n=n, sim=dict(TINY_SIM), **overrides)


@pytest.fixture
def server(tmp_path):
    service = SweepService(tmp_path / "cache", config=ServiceConfig(workers=4))
    srv = SweepServer(service, "127.0.0.1", 0)
    srv.start_background()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    with ServiceClient(server.url, timeout=30.0) as clnt:
        yield clnt


class TestHealthAndSpecs:
    def test_healthz_reports_version_and_cache_format(self, client):
        from repro import __version__
        from repro.experiments.executor import CACHE_FORMAT_VERSION

        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        assert payload["cache_format_version"] == CACHE_FORMAT_VERSION
        assert "cache" in payload and "jobs" in payload

    def test_specs_lists_registry(self, client):
        payload = client.specs()
        names = {entry["name"] for entry in payload["scenarios"]}
        assert "quickstart_line" in names
        assert "line" in payload["topologies"]
        backends = {entry["name"] for entry in payload["backends"]}
        assert {"auto", "reference", "fast", "vec"} <= backends
        observers = {entry["name"] for entry in payload["observers"]}
        assert "global_skew" in observers


class TestSubmitPollFetch:
    def test_full_submit_poll_fetch_cycle(self, server, client):
        spec = tiny_spec()
        job = client.submit([spec])
        assert job["state"] in ("queued", "running", "done")
        job = client.wait(job["id"])
        assert job["state"] == "done"
        (entry,) = job["specs"]
        assert entry["state"] == "done"
        assert entry["spec_hash"] == spec.content_hash()
        payload = client.result(entry["result_key"])
        assert payload["spec_hash"] == spec.content_hash()
        assert payload["summary"]["node_count"] == 4

    def test_auto_is_resolved_at_submit(self, server, client):
        fastest = "jit" if backend_available("jit") else "fast"
        auto = tiny_spec(backend="auto")
        job = client.wait(client.submit([auto])["id"])
        (entry,) = job["specs"]
        assert entry["backend"] == fastest
        assert entry["result_key"] == server.service.cache.key_for(auto.with_backend(fastest))
        assert client.result(entry["result_key"])["backend"] == fastest
        # The resolved twin is the same key: answered at submit.
        again = client.submit([auto.with_backend(fastest)])
        assert again["state"] == "done" and again["counts"]["cached"] == 1

    def test_result_bytes_equal_on_disk_cache_payload(self, server, client):
        job = client.wait(client.submit([tiny_spec()])["id"])
        key = job["specs"][0]["result_key"]
        disk = server.service.cache.path_for_key(key).read_bytes()
        assert client.result_bytes(key) == disk

    def test_resubmit_is_served_from_cache_without_executing(
        self, server, client, monkeypatch
    ):
        spec = tiny_spec()
        client.wait(client.submit([spec])["id"])

        def boom(_spec):
            raise AssertionError("resubmission must not execute")

        monkeypatch.setattr(executor_mod, "execute_spec", boom)
        job = client.submit([spec])
        assert job["state"] == "done"
        assert job["counts"]["cached"] == 1

    def test_resubmit_is_answered_from_the_header_index(self, server, client):
        spec = tiny_spec()
        client.wait(client.submit([spec])["id"])
        before = client.healthz()["cache"]["probe"]
        assert before["entries"] == 1  # the daemon indexed what it stored
        assert client.submit([spec])["counts"]["cached"] == 1
        after = client.healthz()["cache"]["probe"]
        assert after["hits"] == before["hits"] + 1
        assert after["parses"] == before["parses"]

    def test_entry_written_by_another_process_costs_one_parse(self, server, client):
        spec = tiny_spec()
        writer = executor_mod.ResultCache(server.service.cache.cache_dir)
        writer.store(spec, executor_mod.execute_spec(spec))
        for _ in range(3):
            assert client.submit([spec])["counts"]["cached"] == 1
        probe = client.healthz()["cache"]["probe"]
        assert (probe["parses"], probe["hits"]) == (1, 2)

    def test_grid_submission_expands_server_side(self, client):
        job = client.submit_grid(
            "quickstart_line", grid={"n": [4, 5]}, base={"sim": dict(TINY_SIM)}
        )
        job = client.wait(job["id"])
        assert job["total"] == 2
        labels = {entry["label"] for entry in job["specs"]}
        assert len(labels) == 2

    def test_a_dotted_axis_merges_into_the_base(self, client):
        # The HTTP twin of `sweep --set sim.duration=4 --grid sim.dt=0.1,0.05`.
        job = client.submit_grid(
            "quickstart_line",
            grid={"sim.dt": [0.1, 0.05]},
            base={"n": 4, "sim.duration": 4.0},
        )
        job = client.wait(job["id"])
        expected = [
            scenario("quickstart_line", n=4, sim={"duration": 4.0, "dt": dt})
            for dt in (0.1, 0.05)
        ]
        assert [entry["spec_hash"] for entry in job["specs"]] == [
            spec.content_hash() for spec in expected
        ]

    def test_client_run_convenience_returns_payloads_in_order(self, client):
        specs = [tiny_spec(n=4), tiny_spec(n=5)]
        payloads = client.run(specs)
        assert [p["summary"]["node_count"] for p in payloads] == [4, 5]

    def test_eight_concurrent_http_clients_coalesce_to_one_execution(
        self, server, client
    ):
        spec = tiny_spec(n=6)
        results = []
        barrier = threading.Barrier(8)

        def one_client():
            own = ServiceClient(server.url, timeout=30.0)
            barrier.wait()
            job = own.submit([spec])
            if job["state"] not in ("done", "failed"):
                job = own.wait(job["id"])
            results.append(job)

        threads = [threading.Thread(target=one_client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        assert all(job["state"] == "done" for job in results)
        assert sum(job["stats"]["executed"] for job in results if job["stats"]) == 1
        assert client.healthz()["counters"]["specs_executed"] == 1
        assert server.service.counters["specs_executed"] == 1


class TestErrorHandling:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ClientError) as err:
            client.job("deadbeef")
        assert err.value.status == 404

    def test_malformed_result_key_is_400(self, client):
        with pytest.raises(ClientError) as err:
            client.result_bytes("..%2Fetc%2Fpasswd")
        assert err.value.status == 400

    def test_unknown_result_key_is_404(self, client):
        with pytest.raises(ClientError) as err:
            client.result_bytes("ab" * 32 + ".reference")
        assert err.value.status == 404

    def test_invalid_spec_body_is_400(self, client):
        with pytest.raises(ClientError) as err:
            client._json("POST", "/sweeps", {"specs": [{"nonsense": True}]})
        assert err.value.status == 400

    @pytest.mark.parametrize("backend", ["a/b", "no_such_backend", "jit", "fast"])
    def test_a_spec_no_backend_can_run_is_400_and_nothing_is_queued(
        self, client, monkeypatch, backend
    ):
        extra = {}
        if backend == "jit":  # installed, but it cannot run here
            monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        if backend == "fast":  # it runs here, but declines the spec
            extra = {"algorithm": "MaxPropagation"}
        spec = tiny_spec(**extra).to_dict()
        spec["backend"] = backend
        bodies = [
            {"specs": [spec]},
            {"scenario": "quickstart_line", "base": {"n": 4, "backend": backend, **extra}},
            {
                "scenario": "quickstart_line",
                "base": {"n": 4, **extra},
                "grid": {"backend": ["reference", backend]},
            },
        ]
        for body in bodies:
            with pytest.raises(ClientError) as err:
                client._json("POST", "/sweeps", body)
            assert err.value.status == 400
            assert repr(backend) in str(err.value)
            if backend == "no_such_backend":  # a name, but not a registered one
                assert "registered: auto, " in str(err.value)
                assert "reference" in str(err.value)
            if backend == "jit":
                assert "repro[jit]" in str(err.value)
            if backend == "fast":
                assert "backend=auto runs it on 'reference'" in str(err.value)
        assert client.healthz()["counters"]["jobs_submitted"] == 0

    def test_an_unknown_builder_argument_is_400_and_nothing_is_queued(self, client):
        bodies = [
            {"scenario": "quickstart_line", "base": {"n": 4, "dt": 0.05}},
            {"scenario": "quickstart_line", "grid": {"n": [4], "dt": [0.05, 0.1]}},
            {"scenario": "quickstart_line", "grid": {"topology.n": [2, 4]}},
        ]
        for body in bodies:
            with pytest.raises(ClientError) as err:
                client._json("POST", "/sweeps", body)
            assert err.value.status == 400
            assert "scenario 'quickstart_line' has no argument" in str(err.value)
            assert "it takes n, algorithm, duration, sim" in str(err.value)
        assert client.healthz()["counters"]["jobs_submitted"] == 0

    def test_unknown_scenario_is_400(self, client):
        with pytest.raises(ClientError) as err:
            client.submit_grid("no_such_scenario", grid={"n": [4]})
        assert err.value.status == 400
        assert "no_such_scenario" in str(err.value)

    def test_malformed_content_length_is_400(self, server):
        # A bogus Content-Length must come back as a JSON 400, not a
        # dropped connection from an unhandled ValueError in the handler.
        import http.client

        host, port = server.address
        for bogus in ("not-a-number", "-5"):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.putrequest("POST", "/sweeps")
                conn.putheader("Content-Length", bogus)
                conn.putheader("Content-Type", "application/json")
                conn.endheaders()
                resp = conn.getresponse()
                assert resp.status == 400
                assert "Content-Length" in json.loads(resp.read())["error"]
            finally:
                conn.close()

    def test_handler_exception_is_a_json_500_and_the_server_keeps_serving(
        self, server, client
    ):
        # A cache entry that is valid by every field but whose watchdog
        # body is garbage: the submit-time replay raises inside the handler.
        spec = tiny_spec()
        planted = executor_mod.execute_spec(spec)
        planted["observers"]["observers"]["watchdog_planted"] = {
            "applicable": True,
            "events": [3],
        }
        server.service.cache.store(spec, planted)
        with pytest.raises(ClientError) as err:
            client.submit([spec])
        assert err.value.status == 500
        assert "internal server error" in str(err.value)
        # Same listener, next request: still answering, nothing left queued.
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["queued"] == 0
        job = client.wait(client.submit([tiny_spec(n=5)])["id"])
        assert job["state"] == "done"

    def test_get_handler_exception_is_a_json_500(self, server, client, monkeypatch):
        def boom():
            raise RuntimeError("describe exploded")

        monkeypatch.setattr(server.service, "describe", boom)
        with pytest.raises(ClientError) as err:
            client._json("GET", "/healthz")
        assert err.value.status == 500
        assert "describe exploded" in str(err.value)
        monkeypatch.undo()
        assert client.healthz()["status"] == "ok"

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ClientError) as err:
            client._json("GET", "/nope")
        assert err.value.status == 404

    def test_failed_job_raises_jobfailed_with_payload(self, server, client):
        # Parses at the HTTP layer, really fails in the worker process.
        payload = tiny_spec(n=7).to_dict()
        payload["topology"]["name"] = "exploding_topology"
        job = client.submit([ScenarioSpec.from_dict(payload)])
        with pytest.raises(JobFailed) as err:
            client.wait(job["id"])
        assert "exploding_topology" in err.value.job["error"]

    def test_connection_refused_is_clienterror(self):
        dead = ServiceClient("http://127.0.0.1:9", timeout=1.0)
        with pytest.raises(ClientError) as err:
            dead.healthz()
        assert err.value.status is None


class TestServeCli:
    def test_serve_subcommand_runs_a_real_daemon(self, tmp_path):
        import os
        import subprocess
        import sys

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
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # The daemon prints its bound address (port 0 = ephemeral).
            line = proc.stderr.readline()
            assert "sweep service on" in line, line
            url = line.strip().rsplit(" ", 1)[-1]
            client = ServiceClient(url, timeout=10.0)
            client.wait_until_ready(timeout=20.0)
            payloads = client.run([tiny_spec()], timeout=60.0)
            assert payloads[0]["summary"]["node_count"] == 4
            assert log_file.is_file()
            events = [
                json.loads(l)["event"] for l in log_file.read_text().splitlines()
            ]
            assert "job_submitted" in events
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestJobEvents:
    def test_events_endpoint_streams_schema_valid_records(self, server, client):
        from repro.telemetry import validate_records

        spec = scenario("line_scaling", n=5, until_stable=True)
        job = client.wait(client.submit([spec])["id"])
        payload = client.job_events(job["id"])
        assert payload["job"] == job["id"]
        assert payload["events"], "a live execution must buffer events"
        validate_records(payload["events"])
        kinds = {e["event"] for e in payload["events"]}
        assert {"sweep_started", "run_started", "run_finished",
                "watchdog_fired", "sweep_finished"} <= kinds
        fired = [e for e in payload["events"] if e["event"] == "watchdog_fired"]
        assert fired[0]["watchdog"] == "watchdog_convergence"
        assert not fired[0].get("replayed")

    def test_since_cursor_resumes_without_rereading(self, server, client):
        job = client.wait(client.submit([tiny_spec()])["id"])
        first = client.job_events(job["id"])
        assert first["next"] == len(first["events"])
        second = client.job_events(job["id"], since=first["next"])
        assert second["events"] == []
        assert second["next"] == first["next"]
        # A cursor mid-stream returns exactly the suffix.
        middle = client.job_events(job["id"], since=1)
        assert middle["events"] == first["events"][1:]

    def test_cached_submission_replays_watchdog_events(self, server, client):
        from repro.telemetry import validate_records

        spec = scenario("line_scaling", n=5, until_stable=True)
        client.wait(client.submit([spec])["id"])
        cached_job = client.submit([spec])
        assert cached_job["state"] == "done"
        payload = client.job_events(cached_job["id"])
        validate_records(payload["events"])
        fired = [e for e in payload["events"] if e["event"] == "watchdog_fired"]
        assert fired and all(e["replayed"] is True for e in fired)

    def test_healthz_exposes_watchdog_counters(self, server, client):
        spec = scenario("line_scaling", n=5, until_stable=True)
        before = client.healthz()
        assert "watchdogs_fired" in before["counters"]
        client.wait(client.submit([spec])["id"])
        after = client.healthz()
        assert after["counters"]["watchdogs_fired"] == 1
        assert after["watchdogs"] == {"watchdog_convergence": 1}
        # A cache-served resubmission must not inflate the live counters.
        client.submit([spec])
        again = client.healthz()
        assert again["counters"]["watchdogs_fired"] == 1

    def test_events_for_unknown_job_is_404(self, client):
        with pytest.raises(ClientError) as err:
            client.job_events("nope")
        assert err.value.status == 404

    def test_bad_since_is_400(self, server, client):
        job = client.wait(client.submit([tiny_spec()])["id"])
        with pytest.raises(ClientError) as err:
            client._json("GET", f"/jobs/{job['id']}/events?since=abc")
        assert err.value.status == 400

    def test_unknown_job_subresource_is_404(self, server, client):
        job = client.wait(client.submit([tiny_spec()])["id"])
        with pytest.raises(ClientError) as err:
            client._json("GET", f"/jobs/{job['id']}/nope")
        assert err.value.status == 404
