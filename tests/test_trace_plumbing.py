"""Counted gates for the trace's way from the engine to the cache and back.

Nothing here is timed.  What is counted: ``TraceSample`` constructions per
sweep (a cache hit builds none until ``run.trace`` is read; a cold run builds
the engine's and no second set), bytes of cache file handed to ``json.loads``
(a warm sweep parses each entry's head, the same few kB whatever the trace
length; the trace line is parsed once, when ``run.trace`` is first read),
result payloads alive inside a cold sweep, the memory a cold sweep's runs
retain (an executed run holds its entry's trace line, as a hit does, so 16
runs keep about what 4 keep), and executions of a spec that occurs more than
once in one sweep.

The per-key encoder / decoder this file starts with are the oracles the
production pair in ``repro.experiments.results`` is held to (here and in
``tests/test_properties.py``).
"""

import gc
import hashlib
import json
import re
import shutil
import tracemalloc
from dataclasses import replace

import pytest

from repro.experiments import executor, results, scenario
from conftest import needs_jit, needs_vec
from repro.experiments.executor import ExecutorError, ResultCache, execute_spec, run_sweep
from repro.sim.trace import Trace, TraceSample
from repro.telemetry import SweepTelemetry
from repro.telemetry.schema import sanitize_json

#: Warnings are errors here: a file handle leaked on a read path, or any other
#: ResourceWarning, fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings("error")

TINY_SIM = {"duration": 5.0, "dt": 0.1}
STDLIB_BACKENDS = ("reference", "fast")
#: The stdlib backends, and ``jit`` where it is installed.
TRACED_BACKENDS = (*STDLIB_BACKENDS, pytest.param("jit", marks=needs_jit))
#: Every backend, each of ``vec`` and ``jit`` where it is installed.
ALL_BACKENDS = (
    *STDLIB_BACKENDS,
    pytest.param("vec", marks=needs_vec),
    pytest.param("jit", marks=needs_jit),
)


def tiny_spec(n=4, backend="reference", trace="full"):
    spec = scenario("line_scaling", n=n, sim=dict(TINY_SIM))
    return spec.with_backend(backend).with_trace(trace)


def tiny_specs(backend, sizes=(3, 4, 5)):
    return [tiny_spec(n, backend) for n in sizes]


# ----------------------------------------------------------------------
# The oracles: one dict comprehension per column and sample
# ----------------------------------------------------------------------
def oracle_trace_to_payload(trace):
    if trace is None:
        return None
    return {
        "sample_interval": trace.sample_interval,
        "samples": [
            {
                "time": sample.time,
                "logical": {str(k): v for k, v in sample.logical.items()},
                "hardware": {str(k): v for k, v in sample.hardware.items()},
                "multipliers": {str(k): v for k, v in sample.multipliers.items()},
                "modes": {str(k): v for k, v in sample.modes.items()},
                "max_estimates": {
                    str(k): v for k, v in sample.max_estimates.items()
                },
                "diameter": sample.diameter,
            }
            for sample in trace
        ],
    }


def oracle_trace_from_payload(payload):
    if payload is None:
        return None
    trace = Trace(sample_interval=payload.get("sample_interval", 1.0))
    for entry in payload.get("samples", []):
        trace.record(
            TraceSample.from_dicts(
                time=entry["time"],
                logical={int(k): v for k, v in entry["logical"].items()},
                hardware={int(k): v for k, v in entry["hardware"].items()},
                multipliers={int(k): v for k, v in entry["multipliers"].items()},
                modes={int(k): v for k, v in entry["modes"].items()},
                max_estimates={
                    int(k): v for k, v in entry["max_estimates"].items()
                },
                diameter=entry.get("diameter"),
            )
        )
    return trace


def same_samples(left, right):
    """Sample-for-sample equality, node order included."""
    if left.sample_interval != right.sample_interval or len(left) != len(right):
        return False
    columns = ("logical", "hardware", "multipliers", "modes", "max_estimates")
    return all(
        a == b and all(list(getattr(a, c)) == list(getattr(b, c)) for c in columns)
        for a, b in zip(left, right)
    )


# ----------------------------------------------------------------------
# TraceSample constructions per sweep
# ----------------------------------------------------------------------
@pytest.fixture
def constructed(monkeypatch):
    """``constructed[0]`` counts every ``TraceSample`` built, whoever builds it."""
    count = [0]
    original = TraceSample.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(TraceSample, "__init__", counting)
    return count


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestSampleConstructions:
    def test_a_cold_run_builds_the_engines_samples_and_no_second_set(
        self, tmp_path, constructed, backend
    ):
        specs = tiny_specs(backend)
        for spec in specs:
            execute_spec(spec)
        by_the_engines = constructed[0]
        assert by_the_engines > 0
        constructed[0] = 0
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path), workers=1)
        assert stats.executed == len(specs)
        assert constructed[0] == by_the_engines
        assert by_the_engines == sum(run.summary.sample_count for run in runs)

    def test_a_warm_sweep_builds_none_until_a_trace_is_read(
        self, tmp_path, constructed, backend
    ):
        specs = tiny_specs(backend)
        cache = ResultCache(tmp_path)
        run_sweep(specs, cache=cache, workers=1)
        constructed[0] = 0
        runs, stats = run_sweep(specs, cache=cache, workers=1)
        assert stats.cached == len(specs)
        assert constructed[0] == 0
        first = runs[0].trace
        assert constructed[0] == len(first) == runs[0].summary.sample_count
        assert runs[0].trace is first  # decoded once, then kept
        assert constructed[0] == len(first)

    def test_an_executed_runs_trace_is_decoded_once_too(
        self, tmp_path, constructed, backend
    ):
        (run,), _ = run_sweep([tiny_spec(4, backend)], cache=ResultCache(tmp_path))
        constructed[0] = 0
        trace = run.trace
        assert constructed[0] == len(trace) > 0
        assert run.trace is trace
        assert constructed[0] == len(trace)

    def test_trace_none_adds_none_to_the_engines(self, tmp_path, constructed, backend):
        # (``reference`` feeds its observers through transient samples;
        # ``fast`` builds none at all.)
        spec = tiny_spec(4, backend, trace="none")
        execute_spec(spec)
        by_the_engine = constructed[0]
        assert by_the_engine == 0 or backend == "reference"
        cache = ResultCache(tmp_path)
        for from_cache in (False, True):
            constructed[0] = 0
            (run,), _ = run_sweep([spec], cache=cache)
            assert run.from_cache is from_cache
            assert run.trace is None
            assert constructed[0] == (0 if from_cache else by_the_engine)


# ----------------------------------------------------------------------
# Bytes parsed per warm spec
# ----------------------------------------------------------------------
def _parsed(cache):
    return cache.probe_stats()["parsed_bytes"]


def trace_text(path):
    """The trace value of a three-line entry, as it sits in the file."""
    _, line, _ = path.read_bytes().split(b"\n")
    assert line.startswith(b'"trace": ')
    return line[len(b'"trace": ') :]


def head_bytes(path):
    """What a reader of a three-line entry parses when it skips the trace:
    the file less the trace value and the two newlines, plus a ``null``."""
    return path.stat().st_size - len(trace_text(path)) - 2 + len(b"null")


@pytest.mark.parametrize("backend", STDLIB_BACKENDS)
class TestParsedBytes:
    def test_a_warm_sweep_parses_heads_only(self, tmp_path, backend):
        long = tiny_spec(6, backend).with_sim(duration=40.0)
        specs = tiny_specs(backend) + [long]
        run_sweep(specs, cache=ResultCache(tmp_path), workers=1)
        cache = ResultCache(tmp_path)  # has indexed nothing, parsed nothing
        runs, stats = run_sweep(specs, cache=cache, workers=1)
        assert stats.cached == len(specs)
        assert _parsed(cache) < 8 * 1024 * len(specs)
        assert _parsed(cache) == sum(head_bytes(cache.path_for(spec)) for spec in specs)
        # A second warm pass costs the same again: heads are not trusted
        # from memory, they are what makes the run.
        run_sweep(specs, cache=cache, workers=1)
        assert _parsed(cache) < 2 * 8 * 1024 * len(specs)

    def test_the_bytes_do_not_depend_on_the_trace_length(self, tmp_path, backend):
        spec = tiny_spec(4, backend)
        payload = execute_spec(spec)
        longer = dict(payload)
        # Every sample four times over: times stay non-decreasing.
        quadrupled = [s for s in payload["trace"]["samples"] for _ in range(4)]
        longer["trace"] = dict(payload["trace"], samples=quadrupled)
        parsed = []
        for index, stored in enumerate((payload, longer)):
            ResultCache(tmp_path / str(index)).store(spec, stored)
            cache = ResultCache(tmp_path / str(index))
            (run,), stats = run_sweep([spec], cache=cache)
            assert stats.cached == 1
            parsed.append(_parsed(cache))
            assert len(run.trace) == len(stored["trace"]["samples"])
        short, long = (
            len(trace_text(ResultCache(tmp_path / str(index)).path_for(spec)))
            for index in (0, 1)
        )
        assert long > 3.9 * short
        assert parsed[0] == parsed[1] < 8 * 1024

    def test_the_trace_line_is_parsed_once_when_the_trace_is_first_read(
        self, tmp_path, constructed, backend
    ):
        spec = tiny_spec(5, backend)
        run_sweep([spec], cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        (run,), _ = run_sweep([spec], cache=cache)
        before = _parsed(cache)
        constructed[0] = 0
        first = run.trace
        assert _parsed(cache) - before == len(trace_text(cache.path_for(spec)))
        assert constructed[0] == len(first) > 0
        assert run.trace is first
        assert _parsed(cache) - before == len(trace_text(cache.path_for(spec)))
        assert constructed[0] == len(first)

    def test_printing_a_warm_run_parses_and_decodes_nothing(
        self, tmp_path, constructed, backend
    ):
        spec = tiny_spec(4, backend)
        run_sweep([spec], cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        (run,), _ = run_sweep([spec], cache=cache)
        (other,), _ = run_sweep([spec], cache=cache)
        before = _parsed(cache)
        constructed[0] = 0
        text = repr(run)
        assert text.startswith("ExperimentRun(spec=") and "summary=" in text
        assert "trace=" not in text.replace("trace='full'", "")
        assert (_parsed(cache), constructed[0]) == (before, 0)
        # Equality still reads both traces (a ``Trace`` is equal to itself
        # only): two decodes of one file are two runs ...
        assert run != other
        assert constructed[0] == len(run.trace) + len(other.trace)
        # ... and a run is equal to a run holding its very trace.
        twin = executor.ExperimentRun(
            **{name: getattr(run, name) for name in run.__dataclass_fields__}
        )
        assert twin == run and twin.trace is run.trace


def test_a_trace_handed_over_decoded_is_returned_as_is():
    (run,), _ = run_sweep([tiny_spec()], use_cache=False)
    trace = run.trace
    again = executor.ExperimentRun(
        spec=run.spec, summary=run.summary, trace=trace, meta=run.meta
    )
    assert again.trace is trace


# ----------------------------------------------------------------------
# Payloads alive inside a cold sweep
# ----------------------------------------------------------------------
def _live_payloads():
    return sum(
        1
        for obj in gc.get_objects()
        if type(obj) is dict and "trace" in obj and "summary" in obj and "format" in obj
    )


@pytest.mark.parametrize("backend", STDLIB_BACKENDS)
def test_a_cold_sweep_holds_one_payload_beside_its_runs(tmp_path, backend):
    specs = tiny_specs(backend, sizes=(3, 4, 5, 6))
    seen = []

    def write(record):
        if record["event"] == "run_finished":
            seen.append((record["state"], _live_payloads()))

    runs, stats = run_sweep(
        specs, cache=ResultCache(tmp_path), workers=1, telemetry=SweepTelemetry(write)
    )
    assert stats.executed == len(specs)
    assert [state for state, _ in seen] == ["done"] * len(specs)
    assert max(alive for _, alive in seen) <= 1
    assert _live_payloads() == 0  # the runs hold trace lines, not payloads
    assert all(len(run.trace) > 0 for run in runs)


# ----------------------------------------------------------------------
# What a cold sweep retains: its runs, not their traces
# ----------------------------------------------------------------------
def copies(backend, indices):
    """One traced spec under distinct cache keys (the copies differ in a note)."""
    spec = tiny_spec(4, backend).with_sim(duration=40.0)
    return [replace(spec, notes={"copy": index}) for index in indices]


def retained_bytes(specs, cache):
    """``tracemalloc``'s current after a cold sweep, its runs still held."""
    gc.collect()
    tracemalloc.start()
    try:
        runs, stats = run_sweep(specs, cache=cache)
        assert stats.executed == len(runs) == len(specs)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backend", TRACED_BACKENDS)
def test_a_cold_sweeps_retained_memory_is_flat_in_its_length(tmp_path, backend):
    # A run holding its trace keeps about 64 kB here; holding the entry's
    # trace line, the few kB of its summary and report.
    cache = ResultCache(tmp_path)
    run_sweep(copies(backend, [-1]), cache=cache)  # first-use allocations
    four = retained_bytes(copies(backend, range(4)), cache)
    sixteen = retained_bytes(copies(backend, range(100, 116)), cache)
    assert sixteen <= 1.25 * four + 256 * 1024


# ----------------------------------------------------------------------
# An executed run holds its entry's trace line, as a hit does
# ----------------------------------------------------------------------
def trace_digest(run):
    encoded = json.dumps(results.trace_to_payload(run.trace)).encode("ascii")
    return hashlib.sha256(encoded).hexdigest()


class TestAnExecutedRunsTraceLine:
    @pytest.mark.parametrize("backend", TRACED_BACKENDS)
    def test_it_reads_what_the_warm_hit_and_an_uncached_run_read(
        self, tmp_path, backend
    ):
        spec = tiny_spec(5, backend)
        cache = ResultCache(tmp_path)
        (cold,), _ = run_sweep([spec], cache=cache)
        (warm,), _ = run_sweep([spec], cache=cache)
        (bare,), _ = run_sweep([spec], use_cache=False)
        assert (cold.from_cache, warm.from_cache, bare.from_cache) == (False, True, False)
        assert isinstance(cold._trace, executor._TraceLine)
        assert trace_digest(cold) == trace_digest(warm) == trace_digest(bare)

    def test_without_a_cache_the_run_keeps_its_trace(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        spec = tiny_spec()
        (run,), _ = run_sweep([spec], cache=ResultCache(cache_dir), use_cache=False)
        shutil.rmtree(cache_dir)
        assert len(run.trace) == run.summary.sample_count > 0

    def test_an_entry_removed_before_the_trace_is_read_has_none(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        (run,), _ = run_sweep([spec], cache=cache)
        path = cache.path_for(spec)
        path.unlink()
        assert run.summary.sample_count > 0
        with pytest.raises(ExecutorError, match=re.escape(str(path))):
            run.trace

    def test_a_trace_line_that_parses_but_does_not_decode_names_its_entry(
        self, tmp_path
    ):
        spec = tiny_spec()
        run_sweep([spec], cache=ResultCache(tmp_path))
        path = ResultCache(tmp_path).path_for(spec)
        head, line, tail = path.read_bytes().split(b"\n", 2)
        assert b'"0":' in line
        path.write_bytes(b"\n".join((head, line.replace(b'"0":', b'"zero":', 1), tail)))
        (run,), stats = run_sweep([spec], cache=ResultCache(tmp_path))
        assert stats.cached == 1
        with pytest.raises(ExecutorError, match=re.escape(str(path))):
            run.trace

    def test_a_pool_sweeps_runs_hold_trace_lines(self, tmp_path):
        specs = tiny_specs("reference")
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path), workers=2)
        assert stats.executed == len(specs)
        assert all(isinstance(run._trace, executor._TraceLine) for run in runs)
        assert [len(run.trace) for run in runs] == [
            run.summary.sample_count for run in runs
        ]


# ----------------------------------------------------------------------
# A spec that occurs more than once in one sweep executes once
# ----------------------------------------------------------------------
class TestDuplicateSpecs:
    @staticmethod
    def _sweep(specs, tmp_path, **kwargs):
        cache = ResultCache(tmp_path)
        stores = []
        original = cache.store

        def counting_store(spec, payload):
            stores.append(cache.key_for(spec))
            return original(spec, payload)

        cache.store = counting_store
        events = []  # (start | done | cached, index), from the telemetry records

        def write(record):
            if record["event"] == "run_started":
                events.append(("start", record["run"]))
            elif record["event"] == "run_finished":
                events.append((record["state"], record["run"]))

        runs, stats = run_sweep(
            specs, cache=cache, telemetry=SweepTelemetry(write), **kwargs
        )
        return runs, stats, events, stores

    def _check_triple(self, runs, stats, events, stores):
        assert (stats.total, stats.executed, stats.cached) == (3, 1, 2)
        assert len(stores) == 1
        assert [run.from_cache for run in runs] == [False, True, True]
        assert runs[1].summary == runs[0].summary == runs[2].summary
        assert same_samples(runs[1].trace, runs[0].trace)
        assert runs[1].trace is not runs[0].trace
        finished = [event for event in events if event[0] != "start"]
        assert finished == [("done", 0), ("cached", 1), ("cached", 2)]
        assert [event for event in events if event[0] == "start"] == [("start", 0)]

    @pytest.mark.parametrize("backend", STDLIB_BACKENDS)
    def test_inline(self, tmp_path, monkeypatch, backend):
        calls = []
        original = executor.execute_spec
        monkeypatch.setattr(
            executor,
            "execute_spec",
            lambda spec, sink=None: calls.append(spec) or original(spec, sink),
        )
        spec = tiny_spec(4, backend)
        self._check_triple(*self._sweep([spec, spec, spec], tmp_path, workers=1))
        assert len(calls) == 1

    @needs_vec
    def test_two_vec_specs_interleaved(self, tmp_path):
        a, b = tiny_spec(4, "vec"), tiny_spec(5, "vec")
        runs, stats, events, stores = self._sweep([a, b, a, b, a], tmp_path, workers=1)
        assert (stats.total, stats.executed, stats.cached) == (5, 2, 3)
        assert len(stores) == 2
        assert [run.spec for run in runs] == [a, b, a, b, a]
        assert [run.from_cache for run in runs] == [False, False, True, True, True]
        for index in (2, 4):
            assert runs[index].summary == runs[0].summary
            assert same_samples(runs[index].trace, runs[0].trace)
        assert runs[3].summary == runs[1].summary
        finished = [event for event in events if event[0] != "start"]
        assert finished == [
            ("done", 0), ("cached", 2), ("cached", 4), ("done", 1), ("cached", 3),
        ]

    def test_pool(self, tmp_path):
        a, b = tiny_spec(4), tiny_spec(5)
        runs, stats, events, stores = self._sweep([a, a, b, b], tmp_path, workers=2)
        assert (stats.total, stats.executed, stats.cached) == (4, 2, 2)
        assert len(stores) == 2
        assert [run.spec for run in runs] == [a, a, b, b]
        assert [run.from_cache for run in runs] == [False, True, False, True]
        assert runs[1].summary == runs[0].summary != runs[2].summary == runs[3].summary
        finished = [event for event in events if event[0] != "start"]
        assert finished == [("done", 0), ("cached", 1), ("done", 2), ("cached", 3)]

    def test_an_auto_spec_and_its_resolved_twin_are_one_execution(self, tmp_path):
        twin = scenario(
            "line_scaling", n=4, algorithm="MaxPropagation", sim=dict(TINY_SIM)
        )
        auto = twin.with_backend("auto")
        runs, stats, events, stores = self._sweep([auto, twin], tmp_path, workers=1)
        assert (stats.executed, stats.cached) == (1, 1)
        assert len(stores) == 1
        assert [run.spec for run in runs] == [twin, twin]
        assert [event for event in events if event[0] != "start"] == [
            ("done", 0), ("cached", 1),
        ]

    def test_without_a_cache_every_repeat_executes(self, tmp_path):
        spec = tiny_spec()
        runs, stats = run_sweep([spec, spec], use_cache=False)
        assert (stats.executed, stats.cached) == (2, 0)
        assert runs[0].summary == runs[1].summary


# ----------------------------------------------------------------------
# The file: same layout, strict JSON
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", STDLIB_BACKENDS)
def test_the_cached_trace_is_the_per_key_encoding_of_the_engines(tmp_path, backend):
    spec = tiny_spec(5, backend)
    cache = ResultCache(tmp_path)
    (run,), _ = run_sweep([spec], cache=cache)
    stored = json.loads(cache.path_for(spec).read_text())
    expected = oracle_trace_to_payload(run.trace)
    assert stored["trace"] == expected
    assert json.dumps(stored["trace"]) == json.dumps(expected)  # key order too
    assert list(stored) == [
        "format", "library_version", "spec", "spec_hash", "backend", "summary",
        "meta", "observers", "trace", "wall_time", "stopped_early", "semantics",
    ]


class TestNonFiniteTraceValues:
    @pytest.fixture
    def poisoned(self, monkeypatch):
        """Every encoded trace gets an ``inf`` clock and a ``nan`` diameter."""
        original = results.trace_to_payload

        def poisoning(trace):
            payload = original(trace)
            sample = payload["samples"][1]
            sample["logical"][next(iter(sample["logical"]))] = float("inf")
            sample["diameter"] = float("nan")
            return payload

        monkeypatch.setattr(results, "trace_to_payload", poisoning)

    def test_the_payload_is_the_sanitised_one_and_the_file_strict_json(
        self, tmp_path, poisoned
    ):
        spec = tiny_spec()
        payload = execute_spec(spec)
        sample = payload["trace"]["samples"][1]
        assert "Infinity" in sample["logical"].values()
        assert sample["diameter"] is None
        assert payload == sanitize_json(payload)
        cache = ResultCache(tmp_path)
        (run,), _ = run_sweep([spec], cache=cache)
        text = cache.path_for(spec).read_text()
        assert "NaN" not in text
        stored = json.loads(text)
        assert stored["trace"] == payload["trace"]
        assert "Infinity" in run.trace.samples[1].logical.values()

    def test_bypassing_the_check_fails_the_store_loudly(
        self, tmp_path, poisoned, monkeypatch
    ):
        monkeypatch.setattr(results, "trace_payload_is_finite", lambda payload: True)
        with pytest.raises(ValueError):
            run_sweep([tiny_spec()], cache=ResultCache(tmp_path))
        assert not list(tmp_path.glob("*.json"))
