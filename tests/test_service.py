"""Tests for repro.service core: jobs, coalescing, concurrency, janitor.

The HTTP layer has its own suite (test_service_http.py); everything here
talks to :class:`SweepService` directly so failures point at the queue /
single-flight machinery rather than at sockets.
"""

import json
import threading
import time

import pytest

from repro.experiments import ResultCache, scenario
from repro.experiments.spec import ScenarioSpec
from repro.service import JsonlLog, ServiceConfig, SweepService
from repro.service.core import ServiceError

TINY_SIM = {"duration": 4.0, "dt": 0.1}


def tiny_spec(n=4, **overrides):
    return scenario("quickstart_line", n=n, sim=dict(TINY_SIM), **overrides)


@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=4))
    svc.start()
    yield svc
    svc.stop()


def exploding_spec(n=4):
    """A spec that parses but really fails in ``registry.build_scenario``,
    inside the worker process."""
    payload = tiny_spec(n=n).to_dict()
    payload["topology"]["name"] = "exploding_topology"
    return ScenarioSpec.from_dict(payload)


def executions(svc):
    """Actual simulations so far (cache hits and coalesced waits don't
    count) -- counted where a client can see it, on ``/healthz``."""
    return svc.describe()["counters"]["specs_executed"]


def wait_done(job, timeout=60):
    assert job.wait(timeout), f"job {job.id} did not finish (state={job.state})"
    return job


class TestSubmission:
    def test_submit_executes_and_completes(self, service):
        job = wait_done(service.submit([tiny_spec()]))
        assert job.state == "done"
        assert job.progress[0]["state"] == "done"
        assert not job.progress[0]["from_cache"]
        assert executions(service) == 1
        assert job.stats["executed"] == 1

    def test_completed_spec_is_served_from_cache_without_enqueuing(self, service):
        spec = tiny_spec()
        wait_done(service.submit([spec]))
        job = service.submit([spec])
        # Fully cached submissions are finished before submit() returns --
        # they never touch the queue or the worker pool.
        assert job.state == "done"
        assert job.progress[0]["state"] == "cached"
        assert job.progress[0]["from_cache"]
        assert executions(service) == 1
        assert service.counters["specs_cached_at_submit"] == 1

    def test_result_key_matches_cache_file(self, service):
        spec = tiny_spec()
        job = wait_done(service.submit([spec]))
        key = job.progress[0]["result_key"]
        assert key == service.cache.key_for(spec)
        path = service.cache.path_for_key(key)
        assert path.is_file()
        assert json.loads(path.read_text())["spec_hash"] == spec.content_hash()

    def test_empty_submission_rejected(self, service):
        with pytest.raises(ServiceError):
            service.submit([])

    def test_per_job_spec_cap(self, tmp_path):
        svc = SweepService(
            tmp_path / "cache", config=ServiceConfig(max_specs_per_job=2)
        )
        with pytest.raises(ServiceError):
            svc.submit([tiny_spec(n=n) for n in (4, 5, 6)])

    def test_duplicate_specs_in_one_submission_execute_once(self, service):
        spec = tiny_spec()
        job = wait_done(service.submit([spec, spec, spec]))
        assert job.state == "done"
        assert executions(service) == 1
        assert job.stats["executed"] == 1
        states = [entry["state"] for entry in job.progress]
        assert states.count("done") == 3
        assert sum(1 for e in job.progress if e.get("coalesced")) == 2


class TestCoalescing:
    def test_eight_concurrent_identical_submissions_execute_once(self, service):
        spec = tiny_spec()
        jobs = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            jobs.append(service.submit([spec]))

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for job in jobs:
            wait_done(job)
        assert all(job.state == "done" for job in jobs)
        # The acceptance criterion: one simulation total, everyone served.
        assert sum(job.stats["executed"] for job in jobs if job.stats) == 1
        assert service.counters["specs_executed"] == 1
        # A submit thread scheduled after the owner finished counts as a
        # cache hit instead of a coalesce; either way nothing re-executed.
        assert (
            service.counters["specs_coalesced"]
            + service.counters["specs_cached_at_submit"]
            == 7
        )

    def test_concurrent_distinct_submissions_all_complete(self, service):
        specs = [tiny_spec(n=n) for n in range(4, 12)]
        jobs = []

        def submit(spec):
            jobs.append(service.submit([spec]))

        threads = [threading.Thread(target=submit, args=(spec,)) for spec in specs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for job in jobs:
            wait_done(job)
        assert all(job.state == "done" for job in jobs)
        assert executions(service) == len(specs)
        assert [job.stats["executed"] for job in jobs] == [1] * len(specs)
        hashes = {job.progress[0]["spec_hash"] for job in jobs}
        assert len(hashes) == len(specs)

    def test_single_worker_concurrent_identical_submissions_complete(self, tmp_path):
        # Regression: leases were created under the service lock but the
        # queue put happened after releasing it, so a follower job could be
        # enqueued ahead of its owner.  With workers=1 that parks the only
        # worker in _await_followed on an event whose owner is still behind
        # it in the FIFO -- a permanent deadlock.
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            spec = tiny_spec()
            jobs = []
            barrier = threading.Barrier(8)

            def submit():
                barrier.wait()
                jobs.append(svc.submit([spec]))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for job in jobs:
                wait_done(job)
            assert all(job.state == "done" for job in jobs)
            assert sum(job.stats["executed"] for job in jobs if job.stats) == 1
            assert svc.counters["specs_executed"] == 1
        finally:
            svc.stop()

    def test_enqueue_is_ordered_with_lease_creation(self, tmp_path):
        # White-box guard for the same regression: the queue put must
        # happen inside the critical section that created the job's
        # leases, so FIFO order always matches lease-creation order.
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        locked_at_put = []
        real_put = svc._queue.put

        def recording_put(item):
            locked_at_put.append(svc._lock.locked())
            real_put(item)

        svc._queue.put = recording_put
        svc.submit([tiny_spec()])  # service not started: nothing drains
        assert locked_at_put == [True]

    def test_coalesced_follower_reads_owner_result(self, service):
        spec = tiny_spec()
        jobs = [service.submit([spec]) for _ in range(3)]
        for job in jobs:
            wait_done(job)
        keys = {job.progress[0]["result_key"] for job in jobs}
        assert len(keys) == 1
        payload = json.loads(service.cache.path_for_key(keys.pop()).read_text())
        assert payload["spec_hash"] == spec.content_hash()


class TestFailurePaths:
    def test_failing_spec_fails_job_and_releases_lease(self, service):
        job = wait_done(service.submit([exploding_spec()]))
        assert job.state == "failed"
        assert "exploding_topology" in job.error
        assert job.progress[0]["state"] == "failed"
        # The lease must be released, and the worker that met the failure
        # must still take work: a healthy spec goes through the same lease
        # path and completes.
        assert service._inflight == {}
        retry = wait_done(service.submit([tiny_spec()]))
        assert retry.state == "done"
        assert service.describe()["workers"]["restarts"] == 0

    def test_failed_key_is_reexecutable_once_the_cause_is_gone(self, service):
        # Same spec, same cache key: a directory squatting on the entry's
        # path makes the worker's store fail; remove it and the retry runs.
        spec = tiny_spec()
        squatter = service.cache.path_for(spec)
        squatter.mkdir(parents=True)
        job = wait_done(service.submit([spec]))
        assert job.state == "failed"
        assert squatter.name in job.error
        assert service._inflight == {}
        squatter.rmdir()
        retry = wait_done(service.submit([spec]))
        assert retry.state == "done"
        assert retry.progress[0]["result_key"] == service.cache.key_for(spec)

    def test_follower_of_failed_owner_fails_too(self, tmp_path):
        # One worker: the follower job queues behind the owner job.
        svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        svc.start()
        try:
            spec = exploding_spec()
            owner = svc.submit([spec])
            follower = svc.submit([spec])
            wait_done(owner)
            wait_done(follower)
            assert owner.state == "failed"
            assert follower.state == "failed"
            assert "exploding_topology" in follower.progress[0]["error"]
        finally:
            svc.stop()


class TestJobStore:
    def test_unknown_job_is_none(self, service):
        assert service.jobs.get("nope") is None

    def test_finished_job_retention_is_bounded(self, tmp_path):
        svc = SweepService(
            tmp_path / "cache",
            config=ServiceConfig(workers=1, max_finished_jobs=2),
        )
        svc.start()
        try:
            spec = tiny_spec()
            wait_done(svc.submit([spec]))
            jobs = [svc.submit([spec]) for _ in range(4)]  # all cached, done
            assert svc.jobs.get(jobs[-1].id) is not None
            counts = svc.jobs.counts()
            assert counts["total"] <= 3  # 2 retained finished + newest
        finally:
            svc.stop()

    def test_describe_reports_version_and_cache_format(self, service):
        from repro import __version__
        from repro.experiments.executor import CACHE_FORMAT_VERSION

        payload = service.describe()
        assert payload["version"] == __version__
        assert payload["cache_format_version"] == CACHE_FORMAT_VERSION
        assert payload["jobs"]["total"] == 0
        assert "by_backend" in payload["cache"]


class TestTelemetry:
    def test_jsonl_log_records_job_lifecycle(self, tmp_path):
        log_path = tmp_path / "svc.log.jsonl"
        svc = SweepService(
            tmp_path / "cache",
            config=ServiceConfig(workers=1),
            log=JsonlLog(log_path),
        )
        svc.start()
        try:
            wait_done(svc.submit([tiny_spec()]))
        finally:
            svc.stop()
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        events = [line["event"] for line in lines]
        assert "service_start" in events
        assert "job_submitted" in events
        assert "spec_progress" in events
        assert "job_done" in events
        assert "service_stop" in events
        done = [l for l in lines if l["event"] == "job_done"][-1]
        assert done["state"] == "done"

    def test_disabled_log_is_a_noop(self):
        log = JsonlLog(None)
        assert not log.enabled
        log.write("anything", detail=1)  # must not raise


class TestJanitor:
    def test_run_janitor_once_applies_prune_policy(self, tmp_path):
        svc = SweepService(
            tmp_path / "cache",
            config=ServiceConfig(workers=1, max_cache_bytes=0),
        )
        svc.start()
        try:
            wait_done(svc.submit([tiny_spec()]))
            assert svc.cache.stats()["entries"] == 1
            removed, freed = svc.run_janitor_once()
            assert removed == 1
            assert freed > 0
            assert svc.cache.stats()["entries"] == 0
        finally:
            svc.stop()

    def test_janitor_thread_runs_periodically(self, tmp_path):
        svc = SweepService(
            tmp_path / "cache",
            config=ServiceConfig(
                workers=1, max_cache_bytes=0, janitor_interval=0.05
            ),
        )
        svc.start()
        try:
            wait_done(svc.submit([tiny_spec()]))
            deadline = time.monotonic() + 10
            while svc.cache.stats()["entries"] and time.monotonic() < deadline:
                time.sleep(0.05)
            assert svc.cache.stats()["entries"] == 0
        finally:
            svc.stop()


class TestResultCacheLifecycle:
    def test_stats_breakdown_by_backend(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        from repro.experiments import run_sweep

        run_sweep([tiny_spec()], cache=cache)
        run_sweep([tiny_spec().with_backend("fast")], cache=cache)
        run_sweep([tiny_spec().with_trace("none")], cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        # A traceless run is still a reference entry; .fast is the backend.
        assert stats["by_backend"] == {"fast": 1, "reference": 2}

    def test_prune_older_than(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache")
        from repro.experiments import run_sweep

        run_sweep([tiny_spec()], cache=cache)
        (entry,) = cache.entries()
        old = time.time() - 1000
        os.utime(entry, (old, old))
        removed, freed = cache.prune(older_than=500)
        assert (removed, freed > 0) == (1, True)
        assert cache.entries() == []

    @pytest.mark.parametrize(
        "bounds", [{"older_than": -1.0}, {"max_bytes": -5}], ids=["older_than", "max_bytes"]
    )
    def test_a_negative_prune_bound_raises_before_touching_a_file(self, tmp_path, bounds):
        from repro.experiments import run_sweep
        from repro.experiments.executor import ExecutorError

        cache = ResultCache(tmp_path / "cache")
        (run,), _ = run_sweep([tiny_spec()], cache=cache)
        with pytest.raises(ExecutorError, match="must be >= 0"):
            cache.prune(**bounds)
        assert cache.stats()["entries"] == 1
        assert len(run.trace) > 0  # an executed run's trace lives in that file

    @pytest.mark.parametrize(
        "bounds", [{"prune_older_than": -1.0}, {"max_cache_bytes": -5}],
        ids=["prune_older_than", "max_cache_bytes"],
    )
    def test_the_service_refuses_a_negative_prune_bound(self, bounds):
        with pytest.raises(ServiceError, match="must be >= 0"):
            ServiceConfig(**bounds)

    def test_prune_max_bytes_evicts_lru_by_mtime(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "cache")
        from repro.experiments import run_sweep

        run_sweep([tiny_spec(n=4), tiny_spec(n=5), tiny_spec(n=6)], cache=cache)
        entries = cache.entries()
        sizes = {entry: entry.stat().st_size for entry in entries}
        # Force a deterministic age order: entries[0] oldest.
        for offset, entry in enumerate(entries):
            stamp = time.time() - 100 + offset
            os.utime(entry, (stamp, stamp))
        keep = sizes[entries[-1]] + sizes[entries[-2]]
        removed, _ = cache.prune(max_bytes=keep)
        assert removed == 1
        survivors = cache.entries()
        assert entries[0] not in survivors
        assert set(survivors) == {entries[1], entries[2]}

    def test_backend_of_key(self):
        h = "a" * 64
        for backend in ("reference", "fast", "vec", "jit", "my_backend-2"):
            assert ResultCache.backend_of_key(f"{h}.{backend}") == backend
        # Every observation of a spec keeps its backend readable in the key.
        spec = tiny_spec().with_trace("none").with_trace_stride(4).with_observers(
            "global_skew"
        )
        for backend in ("reference", "vec"):
            key = ResultCache.key_for(spec.with_backend(backend).with_until_stable())
            assert ResultCache.backend_of_key(key) == backend

    def test_path_for_key_rejects_escapes(self, tmp_path):
        from repro.experiments.executor import ExecutorError

        cache = ResultCache(tmp_path / "cache")
        good = cache.path_for_key("ab" * 32 + ".fast.json")
        assert good.name == "ab" * 32 + ".fast.json"
        for bad in ("../evil", "a/b", "..", "%2e%2e", "A" * 64, "ab" * 32 + ".bad!"):
            with pytest.raises(ExecutorError):
                cache.path_for_key(bad)
