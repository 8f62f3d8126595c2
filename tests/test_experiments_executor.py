"""Tests for repro.experiments.executor: caching, parallelism, grids."""

import json

import pytest

from repro.experiments import (
    ExperimentRunner,
    execute_spec,
    expand_grid,
    scenario,
)
from repro.experiments.executor import ExecutorError
from repro.experiments.results import trace_from_payload, trace_to_payload
from repro.fastsim.backend import backend_available

BACKEND_NAMES = ("reference", "fast", "vec", "jit")

TINY_SIM = {"duration": 5.0, "dt": 0.1}


def tiny_spec(n=4, algorithm="AOPT"):
    return scenario("line_scaling", n=n, algorithm=algorithm, sim=dict(TINY_SIM))


@pytest.fixture
def runner(tmp_path):
    return ExperimentRunner(tmp_path / "cache")


class TestCache:
    def test_miss_then_hit(self, runner):
        spec = tiny_spec()
        first = runner.run(spec)
        assert not first.from_cache
        assert runner.cache.path_for(spec).is_file()
        second = runner.run(spec)
        assert second.from_cache
        assert second.summary == first.summary
        assert second.meta == first.meta
        assert [s.time for s in second.trace] == [s.time for s in first.trace]
        assert runner.stats.executed == 1
        assert runner.stats.cached == 1

    def test_cache_file_is_keyed_by_content_hash_and_backend(self, runner):
        spec = tiny_spec()
        runner.run(spec)
        # One hash of the whole spec, and the backend as the one suffix.
        assert runner.cache.path_for(spec).name == f"{spec.result_hash()}.reference.json"
        fast = spec.with_backend("fast")
        assert fast.content_hash() == spec.content_hash()
        assert fast.result_hash() != spec.result_hash()
        assert runner.cache.path_for(fast).name == f"{fast.result_hash()}.fast.json"
        assert runner.cache.path_for(fast) != runner.cache.path_for(spec)

    def test_corrupt_cache_entry_is_a_miss(self, runner):
        spec = tiny_spec()
        runner.run(spec)
        runner.cache.path_for(spec).write_text("not json{")
        run = runner.run(spec)
        assert not run.from_cache

    def test_format_version_mismatch_is_a_miss(self, runner):
        spec = tiny_spec()
        runner.run(spec)
        payload = json.loads(runner.cache.path_for(spec).read_text())
        payload["format"] = -1
        runner.cache.path_for(spec).write_text(json.dumps(payload))
        assert not runner.run(spec).from_cache

    def test_use_cache_false_always_executes(self, tmp_path):
        runner = ExperimentRunner(tmp_path / "cache", use_cache=False)
        spec = tiny_spec()
        runner.run(spec)
        assert not runner.cache.path_for(spec).exists()
        assert not runner.run(spec).from_cache
        assert runner.stats.executed == 2

    def test_clear_cache_sweeps_interrupted_writes(self, runner):
        runner.run(tiny_spec())
        # Leftover from a write interrupted between tmp and os.replace.
        (runner.cache.cache_dir / "deadbeef.tmp.12345").write_text("{}")
        assert runner.cache.clear() == 2
        assert runner.cache.clear() == 0

    def test_workers_must_be_positive(self, tmp_path):
        with pytest.raises(ExecutorError):
            ExperimentRunner(tmp_path, workers=0)


class TestSweeps:
    def grid_specs(self):
        return expand_grid(
            "line_scaling",
            {"n": [4, 5, 6, 7], "algorithm": ["AOPT", "MaxPropagation"]},
            base={"sim": dict(TINY_SIM)},
        )

    def test_expand_grid_is_the_cartesian_product(self):
        specs = self.grid_specs()
        assert len(specs) == 8
        labels = [spec.label for spec in specs]
        assert len(set(labels)) == 8
        assert labels[0] == "line_scaling/n=4/AOPT"
        assert labels[-1] == "line_scaling/n=7/MaxPropagation"

    def test_expand_grid_rejects_empty_axis(self):
        with pytest.raises(ExecutorError):
            expand_grid("line_scaling", {"n": []})

    def test_parallel_equals_serial_equals_cached(self, tmp_path):
        """The acceptance sweep: >= 8 specs, workers 1 vs 4, then cache-only."""
        specs = self.grid_specs()
        serial = ExperimentRunner(tmp_path / "serial")
        serial_runs, serial_stats = serial.run_all(specs)
        assert serial_stats.executed == 8

        parallel = ExperimentRunner(tmp_path / "parallel", workers=4)
        parallel_runs, parallel_stats = parallel.run_all(specs)
        assert parallel_stats.executed == 8
        for left, right in zip(serial_runs, parallel_runs):
            assert left.summary == right.summary

        rerun_runs, rerun_stats = parallel.run_all(specs)
        assert rerun_stats.executed == 0
        assert rerun_stats.cached == 8
        for left, right in zip(parallel_runs, rerun_runs):
            assert left.summary == right.summary

    def test_order_is_preserved_with_mixed_hits_and_misses(self, runner):
        specs = self.grid_specs()
        runner.run_all(specs[::2])  # warm every other entry
        runs, stats = runner.run_all(specs)
        assert stats.cached == 4 and stats.executed == 4
        assert [run.spec.label for run in runs] == [spec.label for spec in specs]


class TestRunPayloads:
    def test_trace_round_trip(self):
        payload = execute_spec(tiny_spec())
        trace = trace_from_payload(payload["trace"])
        assert trace_to_payload(trace) == payload["trace"]
        assert trace.final().time == pytest.approx(5.0)

    def test_insertion_meta_survives_cache(self, runner):
        spec = scenario(
            "end_to_end_insertion", n=4, insertion_time=1.0, sim=dict(TINY_SIM)
        )
        fresh = runner.run(spec)
        cached = runner.run(spec)
        assert cached.from_cache
        assert cached.meta["new_edge"] == (0, 3)
        assert cached.meta["new_edge"] == fresh.meta["new_edge"]
        assert cached.summary.skew_at_event is not None

    def test_run_graph_property_rebuilds(self, runner):
        run = runner.run(tiny_spec(n=5))
        graph = run.graph
        assert graph.node_count == 5
        assert graph.has_edge(0, 1)

    def test_summary_excludes_engine_state(self, runner):
        run = runner.run(tiny_spec())
        assert "engine" not in run.summary.to_dict()
        assert run.summary.broken_level_chains == 0

    @pytest.mark.parametrize(
        "spec",
        [
            tiny_spec(n=6),
            scenario("end_to_end_insertion", n=4, insertion_time=1.0, sim=dict(TINY_SIM)),
        ],
        ids=["static", "insertion"],
    )
    def test_broken_level_chains_reads_the_same_on_every_backend(self, spec):
        """Lemma 5.1 is checked on each engine's own level state, mid-insertion
        levels included; the count must not depend on who kept them."""
        backends = [name for name in BACKEND_NAMES if backend_available(name)]
        assert backends[:2] == ["reference", "fast"]
        counts = {
            name: execute_spec(spec.with_backend(name))["summary"]["broken_level_chains"]
            for name in backends
        }
        assert counts == dict.fromkeys(backends, 0)


class TestTraceNoneRuns:
    """trace: none runs cache only the streaming observer report (PR 5)."""

    def test_traceless_run_has_report_but_no_trace(self, runner):
        run = runner.run(tiny_spec().with_trace("none"))
        assert run.trace is None
        assert run.report is not None
        assert run.report.sample_count == run.summary.sample_count > 0

    def test_traceless_cache_entry_is_distinct_and_round_trips(self, runner):
        spec = tiny_spec()
        traceless = spec.with_trace("none")
        assert traceless.content_hash() == spec.content_hash()
        assert runner.cache.path_for(traceless).name == (
            f"{traceless.result_hash()}.reference.json"
        )
        assert runner.cache.path_for(traceless) != runner.cache.path_for(spec)
        first = runner.run(traceless)
        second = runner.run(traceless)
        assert second.from_cache
        assert second.summary == first.summary
        assert second.report == first.report
        assert second.trace is None

    def test_traceless_summary_equals_full_trace_summary(self, runner):
        spec = tiny_spec()
        full = runner.run(spec)
        none = runner.run(spec.with_trace("none"))
        assert none.summary == full.summary
        assert none.report == full.report

    def test_full_run_also_carries_the_report(self, runner):
        run = runner.run(tiny_spec())
        assert run.report is not None
        assert "global_skew" in run.report

    def test_custom_observer_selection_is_cached_separately(self, runner):
        spec = tiny_spec()
        custom = spec.with_observers("global_skew", "mode_counts")
        # Same scenario identity (same seeds) -- but a distinct cache entry,
        # because the cached payload contains different observer results.
        assert custom.content_hash() == spec.content_hash()
        assert runner.cache.key_for(custom) == f"{custom.result_hash()}.reference"
        assert runner.cache.path_for(custom) != runner.cache.path_for(spec)
        run = runner.run(custom)
        assert set(run.report.payloads) == {"global_skew", "mode_counts"}
        # Fields backed by unselected observers read "not measured", never
        # a fabricated measurement.
        assert run.summary.gradient_violations is None
        assert run.summary.max_local_skew is None
        assert run.summary.max_global_skew is not None

    def test_spec_trace_fields_survive_serialisation(self):
        spec = tiny_spec().with_trace("none").with_observers("global_skew")
        from repro.experiments import ScenarioSpec

        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored.trace == "none"
        assert restored.observers == ("global_skew",)
        assert restored.content_hash() == spec.content_hash()


def _store_hammer(cache_dir, spec_payload, iterations):
    """Cross-process stress worker: repeatedly rewrite one cache entry."""
    from repro.experiments import ExperimentRunner, ScenarioSpec

    runner = ExperimentRunner(cache_dir)
    spec = ScenarioSpec.from_dict(spec_payload)
    payload = runner.cache.load(spec)
    for _ in range(iterations):
        runner.cache.store(spec, payload)


class TestCacheConcurrency:
    """Satellite coverage: the cache must survive concurrent writers --
    threads sharing one daemon process and independent processes sharing
    one directory -- without torn or corrupt JSON."""

    def test_tmp_names_are_unique_per_write_and_sweepable(self, runner):
        from repro.experiments import ResultCache

        cache = ResultCache(runner.cache.cache_dir)
        spec = tiny_spec()
        path = cache.path_for(spec)
        names = {cache._tmp_path(path).name for _ in range(50)}
        # A pid-only suffix gave every write in one process the SAME temp
        # file; per-write tokens are what make two daemon threads storing
        # the same spec safe.
        assert len(names) == 50
        import fnmatch

        assert all(fnmatch.fnmatch(name, "*.tmp.*") for name in names)

    def test_threaded_same_spec_stores_never_tear(self, runner):
        import threading

        spec = tiny_spec()
        run = runner.run(spec)
        payload = runner.cache.load(spec)
        errors = []

        def hammer():
            try:
                for _ in range(30):
                    runner.cache.store(spec, payload)
            except OSError as exc:  # the pre-fix failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # The entry is intact and still a cache hit.
        assert runner.cache.load(spec) == payload
        # No leaked temp files.
        assert list(runner.cache.cache_dir.glob("*.tmp.*")) == []

    def test_cross_process_runners_sharing_a_cache_dir(self, runner):
        import multiprocessing

        spec = tiny_spec()
        runner.run(spec)  # seed the entry so workers have a payload
        path = runner.cache.path_for(spec)
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(
                target=_store_hammer,
                args=(str(runner.cache.cache_dir), spec.to_dict(), 25),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        # Read concurrently with both writers: every observation must be
        # complete, valid JSON (os.replace is atomic) -- never a torn file.
        deadline_reads = 0
        while any(worker.is_alive() for worker in workers) or deadline_reads < 5:
            text = path.read_text()
            parsed = json.loads(text)  # raises on torn/corrupt JSON
            assert parsed["spec_hash"] == spec.content_hash()
            if not any(worker.is_alive() for worker in workers):
                deadline_reads += 1
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        assert runner.cache.load(spec) is not None
        assert list(runner.cache.cache_dir.glob("*.tmp.*")) == []
