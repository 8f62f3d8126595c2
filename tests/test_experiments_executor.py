"""Tests for repro.experiments.executor: caching, parallelism, grids."""

import json

import pytest

from repro.experiments import (
    ResultCache,
    execute_spec,
    expand_grid,
    run_sweep,
    scenario,
)
from repro.experiments.executor import ExecutorError
from repro.experiments.results import trace_from_payload, trace_to_payload
from repro.fastsim.backend import backend_available

BACKEND_NAMES = ("reference", "fast", "vec", "jit")

TINY_SIM = {"duration": 5.0, "dt": 0.1}


def tiny_spec(n=4, algorithm="AOPT"):
    return scenario("line_scaling", n=n, algorithm=algorithm, sim=dict(TINY_SIM))


def run_one(result_cache, spec, **settings):
    """``spec``'s run, from a one-spec ``run_sweep``."""
    return run_sweep([spec], cache=result_cache, **settings)[0][0]


@pytest.fixture
def result_cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCache:
    def test_miss_then_hit(self, result_cache):
        spec = tiny_spec()
        (first,), stats = run_sweep([spec], cache=result_cache)
        assert not first.from_cache
        assert (stats.executed, stats.cached) == (1, 0)
        assert result_cache.path_for(spec).is_file()
        (second,), stats = run_sweep([spec], cache=result_cache)
        assert second.from_cache
        assert (stats.executed, stats.cached) == (0, 1)
        assert second.summary == first.summary
        assert second.meta == first.meta
        assert [s.time for s in second.trace] == [s.time for s in first.trace]

    def test_cache_file_is_keyed_by_content_hash_and_backend(self, result_cache):
        spec = tiny_spec()
        run_one(result_cache, spec)
        # One hash of the whole spec, and the backend as the one suffix.
        assert result_cache.path_for(spec).name == f"{spec.result_hash()}.reference.json"
        fast = spec.with_backend("fast")
        assert fast.content_hash() == spec.content_hash()
        assert fast.result_hash() != spec.result_hash()
        assert result_cache.path_for(fast).name == f"{fast.result_hash()}.fast.json"
        assert result_cache.path_for(fast) != result_cache.path_for(spec)

    def test_corrupt_cache_entry_is_a_miss(self, result_cache):
        spec = tiny_spec()
        run_one(result_cache, spec)
        result_cache.path_for(spec).write_text("not json{")
        run = run_one(result_cache, spec)
        assert not run.from_cache

    def test_format_version_mismatch_is_a_miss(self, result_cache):
        spec = tiny_spec()
        run_one(result_cache, spec)
        payload = json.loads(result_cache.path_for(spec).read_text())
        payload["format"] = -1
        result_cache.path_for(spec).write_text(json.dumps(payload))
        assert not run_one(result_cache, spec).from_cache

    def test_use_cache_false_always_executes(self, result_cache):
        spec = tiny_spec()
        for _ in range(2):
            (run,), stats = run_sweep([spec], cache=result_cache, use_cache=False)
            assert not run.from_cache
            assert stats.executed == 1
            assert not result_cache.path_for(spec).exists()

    def test_clear_cache_sweeps_interrupted_writes(self, result_cache):
        run_one(result_cache, tiny_spec())
        # Leftover from a write interrupted between tmp and os.replace.
        (result_cache.cache_dir / "deadbeef.tmp.12345").write_text("{}")
        assert result_cache.clear() == 2
        assert result_cache.clear() == 0

    def test_workers_must_be_positive(self, result_cache):
        with pytest.raises(ExecutorError):
            run_sweep([tiny_spec()], cache=result_cache, workers=0)


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

    def test_expand_grid_merges_a_mapping_axis_into_the_base(self):
        base = {"n": 4, "sim": {"duration": 4.0}}
        grid = {"sim": [{"dt": 0.1}, {"dt": 0.05}]}
        specs = expand_grid("quickstart_line", grid, base=base)
        expected = [
            scenario("quickstart_line", n=4, sim={"duration": 4.0, "dt": dt})
            for dt in (0.1, 0.05)
        ]
        assert specs == expected
        assert [spec.sim["duration"] for spec in specs] == [4.0, 4.0]
        assert base == {"n": 4, "sim": {"duration": 4.0}}  # not written into
        # A dotted key is the same path, in the base and on an axis.
        dotted = {"n": 4, "sim.duration": 4.0}
        assert expand_grid("quickstart_line", {"sim.dt": [0.1, 0.05]}, base=dotted) == expected

    def test_expand_grid_refuses_to_nest_into_a_value(self):
        with pytest.raises(ExecutorError, match="non-mapping setting 'n'"):
            expand_grid("quickstart_line", {"n.x": [1]}, base={"n": 4})

    def test_parallel_equals_serial_equals_cached(self, tmp_path):
        """The acceptance sweep: >= 8 specs, workers 1 vs 4, then cache-only."""
        specs = self.grid_specs()
        serial = ResultCache(tmp_path / "serial")
        serial_runs, serial_stats = run_sweep(specs, cache=serial)
        assert serial_stats.executed == 8

        parallel = ResultCache(tmp_path / "parallel")
        parallel_runs, parallel_stats = run_sweep(specs, cache=parallel, workers=4)
        assert parallel_stats.executed == 8
        for left, right in zip(serial_runs, parallel_runs):
            assert left.summary == right.summary

        rerun_runs, rerun_stats = run_sweep(specs, cache=parallel, workers=4)
        assert rerun_stats.executed == 0
        assert rerun_stats.cached == 8
        for left, right in zip(parallel_runs, rerun_runs):
            assert left.summary == right.summary

    def test_order_is_preserved_with_mixed_hits_and_misses(self, result_cache):
        specs = self.grid_specs()
        run_sweep(specs[::2], cache=result_cache)  # warm every other entry
        runs, stats = run_sweep(specs, cache=result_cache)
        assert stats.cached == 4 and stats.executed == 4
        assert [run.spec.label for run in runs] == [spec.label for spec in specs]


class TestRunPayloads:
    def test_trace_round_trip(self):
        payload = execute_spec(tiny_spec())
        trace = trace_from_payload(payload["trace"])
        assert trace_to_payload(trace) == payload["trace"]
        assert trace.final().time == pytest.approx(5.0)

    def test_insertion_meta_survives_cache(self, result_cache):
        spec = scenario(
            "end_to_end_insertion", n=4, insertion_time=1.0, sim=dict(TINY_SIM)
        )
        fresh = run_one(result_cache, spec)
        cached = run_one(result_cache, spec)
        assert cached.from_cache
        assert cached.meta["new_edge"] == (0, 3)
        assert cached.meta["new_edge"] == fresh.meta["new_edge"]
        assert cached.summary.skew_at_event is not None

    def test_a_run_that_ends_before_its_event_reports_no_stabilization(self):
        payload = execute_spec(scenario("end_to_end_insertion", sim={"duration": 20.0}))
        assert payload["meta"]["insertion_time"] > 20.0
        observed = payload["observers"]["observers"]["stabilization_window"]
        assert observed == {"applicable": True, "observed": False}
        assert payload["summary"]["stabilized"] is None
        assert payload["summary"]["stabilization_time"] is None

    def test_run_graph_property_rebuilds(self, result_cache):
        run = run_one(result_cache, tiny_spec(n=5))
        graph = run.graph
        assert graph.node_count == 5
        assert graph.has_edge(0, 1)

    def test_summary_excludes_engine_state(self, result_cache):
        run = run_one(result_cache, tiny_spec())
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

    def test_traceless_run_has_report_but_no_trace(self, result_cache):
        run = run_one(result_cache, tiny_spec().with_trace("none"))
        assert run.trace is None
        assert run.report is not None
        assert run.report.sample_count == run.summary.sample_count > 0

    def test_traceless_cache_entry_is_distinct_and_round_trips(self, result_cache):
        spec = tiny_spec()
        traceless = spec.with_trace("none")
        assert traceless.content_hash() == spec.content_hash()
        assert result_cache.path_for(traceless).name == (
            f"{traceless.result_hash()}.reference.json"
        )
        assert result_cache.path_for(traceless) != result_cache.path_for(spec)
        first = run_one(result_cache, traceless)
        second = run_one(result_cache, traceless)
        assert second.from_cache
        assert second.summary == first.summary
        assert second.report == first.report
        assert second.trace is None

    def test_traceless_summary_equals_full_trace_summary(self, result_cache):
        spec = tiny_spec()
        full = run_one(result_cache, spec)
        none = run_one(result_cache, spec.with_trace("none"))
        assert none.summary == full.summary
        assert none.report == full.report

    def test_full_run_also_carries_the_report(self, result_cache):
        run = run_one(result_cache, tiny_spec())
        assert run.report is not None
        assert "global_skew" in run.report

    def test_custom_observer_selection_is_cached_separately(self, result_cache):
        spec = tiny_spec()
        custom = spec.with_observers("global_skew", "mode_counts")
        # Same scenario identity (same seeds) -- but a distinct cache entry,
        # because the cached payload contains different observer results.
        assert custom.content_hash() == spec.content_hash()
        assert result_cache.key_for(custom) == f"{custom.result_hash()}.reference"
        assert result_cache.path_for(custom) != result_cache.path_for(spec)
        run = run_one(result_cache, custom)
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
    from repro.experiments import ResultCache, ScenarioSpec

    cache = ResultCache(cache_dir)
    spec = ScenarioSpec.from_dict(spec_payload)
    payload = cache.load(spec)
    for _ in range(iterations):
        cache.store(spec, payload)


class TestCacheConcurrency:
    """Satellite coverage: the cache must survive concurrent writers --
    threads sharing one daemon process and independent processes sharing
    one directory -- without torn or corrupt JSON."""

    def test_tmp_names_are_unique_per_write_and_sweepable(self, result_cache):
        cache = ResultCache(result_cache.cache_dir)
        spec = tiny_spec()
        path = cache.path_for(spec)
        names = {cache._tmp_path(path).name for _ in range(50)}
        # A pid-only suffix gave every write in one process the SAME temp
        # file; per-write tokens are what make two daemon threads storing
        # the same spec safe.
        assert len(names) == 50
        import fnmatch

        assert all(fnmatch.fnmatch(name, "*.tmp.*") for name in names)

    def test_threaded_same_spec_stores_never_tear(self, result_cache):
        import threading

        spec = tiny_spec()
        run = run_one(result_cache, spec)
        payload = result_cache.load(spec)
        errors = []

        def hammer():
            try:
                for _ in range(30):
                    result_cache.store(spec, payload)
            except OSError as exc:  # the pre-fix failure mode
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # The entry is intact and still a cache hit.
        assert result_cache.load(spec) == payload
        # No leaked temp files.
        assert list(result_cache.cache_dir.glob("*.tmp.*")) == []

    def test_cross_process_runners_sharing_a_cache_dir(self, result_cache):
        import multiprocessing

        spec = tiny_spec()
        run_one(result_cache, spec)  # seed the entry so workers have a payload
        path = result_cache.path_for(spec)
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(
                target=_store_hammer,
                args=(str(result_cache.cache_dir), spec.to_dict(), 25),
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
        assert result_cache.load(spec) is not None
        assert list(result_cache.cache_dir.glob("*.tmp.*")) == []
