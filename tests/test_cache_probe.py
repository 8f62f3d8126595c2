"""``ResultCache.probe`` and the stat-validated header index behind it.

The contract under test: ``probe(spec) is not None`` exactly when
``load(spec) is not None``; the index remembers what a file *says* under
the file's ``(inode, size, mtime)`` and never a verdict, so a replaced,
rewritten or deleted file is re-read (or missed), and ``_matches`` judges
every answer against the spec that was asked for.  Standard library only:
this file runs on the no-numpy CI leg.
"""

import copy
import json
import os
import shutil
import sys
import threading

import pytest

import repro.experiments.executor as executor_mod
from repro import __version__
from repro.experiments import scenario
from repro.experiments.executor import (
    CACHE_FORMAT_VERSION,
    ExecutorError,
    ResultCache,
    execute_spec,
    run_sweep,
)
from repro.experiments.results import trace_to_payload
from repro.service import ServiceConfig, SweepServer, SweepService
from repro.service.client import ServiceClient
from repro.telemetry import SweepTelemetry
from test_trace_plumbing import head_bytes

#: Warnings are errors here: a file handle leaked on a read path, or any other
#: ResourceWarning, fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings("error")

TINY_SIM = {"duration": 4.0, "dt": 0.1}

SPEC = scenario("quickstart_line", n=4, sim=dict(TINY_SIM))

#: ``SPEC`` with one observation detail changed each: same content hash,
#: another cache key, another payload.
OBSERVATION_VARIANTS = {
    "backend": SPEC.with_backend("fast"),
    "trace_stride": scenario("quickstart_line", n=4, sim=dict(TINY_SIM), trace_stride=2),
    "trace": scenario("quickstart_line", n=4, sim=dict(TINY_SIM), trace="none"),
    "observers": SPEC.with_observers("global_skew"),
    "until_stable": scenario("quickstart_line", n=4, sim=dict(TINY_SIM), until_stable=True),
}


@pytest.fixture(scope="module")
def payload():
    return execute_spec(SPEC)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _count_parses(monkeypatch):
    """Count ``json.loads`` calls made from here on."""
    calls = []
    real = json.loads

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _drop(*path):
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]

    return mutate


#: (name, mutation of a valid payload, still valid for SPEC?)
PAYLOAD_CASES = [
    ("untouched", lambda payload: None, True),
    ("format + 1", _set("format", CACHE_FORMAT_VERSION + 1), False),
    ("format - 1", _set("format", CACHE_FORMAT_VERSION - 1), False),
    ("format missing", _drop("format"), False),
    ("other library_version", _set("library_version", __version__ + ".post1"), False),
    ("library_version missing", _drop("library_version"), False),
    ("other spec_hash", _set("spec_hash", "0" * 64), False),
    ("other backend", _set("backend", "fast"), False),
    ("backend missing means reference", _drop("backend"), True),
    ("trace_stride + 1", _set("spec", "trace_stride", 2), False),
    ("other trace mode", _set("spec", "trace", "none"), False),
    ("other observers", _set("spec", "observers", ["global_skew"]), False),
    ("observers null", _set("spec", "observers", None), False),
    ("until_stable flipped", _set("spec", "until_stable", True), False),
    ("spec missing means defaults", _drop("spec"), True),
    ("spec is a list", _set("spec", []), False),
    ("spec is null", _set("spec", None), False),
]

#: Raw file contents that are no result payload at all.
RAW_CASES = [
    ("empty file", ""),
    ("not JSON", "this is not json"),
    ("a list", "[]"),
    ("null", "null"),
    ("a number", "3"),
    ("a string", '"payload"'),
]


class TestProbeAgreesWithLoad:
    @pytest.mark.parametrize(
        "mutate,valid",
        [case[1:] for case in PAYLOAD_CASES],
        ids=[case[0] for case in PAYLOAD_CASES],
    )
    def test_payload_table(self, cache, payload, mutate, valid):
        stored = copy.deepcopy(payload)
        mutate(stored)
        cache.cache_dir.mkdir(parents=True)
        cache.path_for(SPEC).write_text(json.dumps(stored))
        # First sight (a parse), from the index, and through a fresh
        # instance that loads: one answer.
        assert (cache.probe(SPEC) is not None) is valid
        assert (cache.probe(SPEC) is not None) is valid
        assert (cache.load(SPEC) is not None) is valid
        assert (ResultCache(cache.cache_dir).load(SPEC) is not None) is valid

    @pytest.mark.parametrize(
        "text", [case[1] for case in RAW_CASES], ids=[case[0] for case in RAW_CASES]
    )
    def test_files_that_are_no_payload_are_misses(self, cache, payload, text):
        cache.cache_dir.mkdir(parents=True)
        cache.path_for(SPEC).write_text(text)
        assert cache.probe(SPEC) is None
        assert cache.load(SPEC) is None
        assert cache.probe_stats()["entries"] == 0
        # ... and the next store overwrites them.
        cache.store(SPEC, payload)
        assert cache.probe(SPEC) is not None
        assert cache.load(SPEC) == payload

    def test_truncated_file_is_a_miss(self, cache, payload):
        path = cache.store(SPEC, payload)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.probe(SPEC) is None
        assert cache.load(SPEC) is None

    def test_missing_file_is_a_miss(self, cache):
        assert cache.probe(SPEC) is None
        assert cache.load(SPEC) is None
        assert cache.probe_stats() == {
            "entries": 0, "hits": 0, "parses": 0, "parsed_bytes": 0,
        }

    def test_stored_tuples_match_like_the_file_they_became(self, cache, payload):
        # An in-memory payload may hold tuples where the file holds lists;
        # the head remembered by store() is the file's, not the object's.
        spec = OBSERVATION_VARIANTS["observers"]
        stored = copy.deepcopy(payload)
        stored["spec"]["observers"] = ("global_skew",)
        cache.store(spec, stored)
        assert cache.probe(spec) is not None
        assert ResultCache(cache.cache_dir).probe(spec) == cache.probe(spec)


class TestStaleness:
    def _other_version(self, payload):
        other = copy.deepcopy(payload)
        other["library_version"] = __version__ + ".post1"
        return other

    def test_overwrite_by_another_writer_is_seen(self, cache, payload):
        writer = ResultCache(cache.cache_dir)  # another process's instance
        cache.store(SPEC, payload)
        assert cache.probe(SPEC) is not None
        writer.store(SPEC, self._other_version(payload))
        assert cache.probe(SPEC) is None
        assert cache.load(SPEC) is None
        writer.store(SPEC, payload)
        assert cache.probe(SPEC) is not None

    def test_rewrite_in_place_is_seen(self, cache, payload):
        path = cache.store(SPEC, payload)
        assert cache.probe(SPEC) is not None
        inode = path.stat().st_ino
        path.write_text(json.dumps(self._other_version(payload)))
        assert path.stat().st_ino == inode  # really in place; the size moved
        assert cache.probe(SPEC) is None

    def test_unlinked_entry_is_a_miss_and_forgotten(self, cache, payload):
        path = cache.store(SPEC, payload)
        assert cache.probe(SPEC) is not None
        path.unlink()
        assert cache.probe(SPEC) is None
        assert cache.probe_stats()["entries"] == 0

    def test_clear_empties_the_index(self, cache, payload):
        cache.store(SPEC, payload)
        assert cache.probe_stats()["entries"] == 1
        cache.clear()
        assert cache.probe_stats()["entries"] == 0
        assert cache.probe(SPEC) is None

    def test_prune_forgets_what_it_removes(self, cache, payload):
        other = OBSERVATION_VARIANTS["trace"]
        cache.store(SPEC, payload)
        cache.store(other, execute_spec(other))
        assert cache.probe_stats()["entries"] == 2
        removed, _ = cache.prune(max_bytes=cache.path_for(other).stat().st_size)
        assert removed == 1
        assert cache.probe_stats()["entries"] == 1
        assert cache.probe(SPEC) is None
        assert cache.probe(other) is not None

    def test_a_deleted_entry_stored_again_is_a_hit_again(self, cache, payload):
        cache.store(SPEC, payload).unlink()
        assert cache.probe(SPEC) is None
        cache.store(SPEC, payload)
        assert cache.probe(SPEC) is not None


class TestNoParseWhenIndexed:
    def test_probe_after_store_parses_nothing(self, cache, payload, monkeypatch):
        cache.store(SPEC, payload)
        parses = _count_parses(monkeypatch)
        assert cache.probe(SPEC) is not None
        assert cache.probe(SPEC) is not None
        assert parses == []
        assert cache.probe_stats() == {
            "entries": 1, "hits": 2, "parses": 0, "parsed_bytes": 0,
        }

    def test_second_probe_of_a_foreign_entry_parses_nothing(
        self, cache, payload, monkeypatch
    ):
        ResultCache(cache.cache_dir).store(SPEC, payload)
        parses = _count_parses(monkeypatch)
        assert cache.probe(SPEC) is not None
        assert len(parses) == 1  # first sight of another writer's entry
        assert cache.probe(SPEC) is not None
        assert len(parses) == 1
        assert cache.probe_stats() == {
            "entries": 1, "hits": 1, "parses": 1,
            "parsed_bytes": head_bytes(cache.path_for(SPEC)),
        }

    def test_adopting_another_writers_entry_parses_nothing(
        self, cache, payload, monkeypatch
    ):
        # What the sweep service does with the (stat, head) a worker sends.
        writer = ResultCache(cache.cache_dir)
        path = writer.store(SPEC, payload)
        cache.adopt(cache.key_for(SPEC), os.stat(path), writer.probe(SPEC))
        parses = _count_parses(monkeypatch)
        assert cache.probe(SPEC) is not None
        assert parses == []
        assert cache.probe_stats() == {
            "entries": 1, "hits": 1, "parses": 0, "parsed_bytes": 0,
        }

    def test_an_adopted_entry_is_not_trusted_past_a_rewrite(
        self, cache, payload, monkeypatch
    ):
        writer = ResultCache(cache.cache_dir)
        stale = os.stat(writer.store(SPEC, payload))
        head = writer.probe(SPEC)
        writer.store(SPEC, payload)  # a new file: new inode, new mtime
        cache.adopt(cache.key_for(SPEC), stale, head)
        parses = _count_parses(monkeypatch)
        assert cache.probe(SPEC) is not None
        assert len(parses) == 1

    def test_load_fills_the_index_for_later_probes(self, cache, payload, monkeypatch):
        ResultCache(cache.cache_dir).store(SPEC, payload)
        assert cache.load(SPEC) == payload
        parses = _count_parses(monkeypatch)
        assert cache.probe(SPEC) is not None
        assert parses == []

    def test_load_still_returns_the_whole_payload(self, cache, payload):
        cache.store(SPEC, payload)
        cache.probe(SPEC)
        assert cache.load(SPEC) == payload
        assert "trace" not in cache.probe(SPEC) and "summary" not in cache.probe(SPEC)


class TestTheTraceLine:
    """A traced entry is three lines; whoever reads it parses lines 1 + 3,
    and line 2 -- the trace -- only when the trace itself is asked for."""

    def test_first_sight_of_a_foreign_1_mb_entry_parses_its_head_only(
        self, cache, payload
    ):
        path = ResultCache(cache.cache_dir).store(SPEC, _big(payload))
        assert path.stat().st_size > 1 << 20
        assert cache.probe(SPEC) is not None
        stats = cache.probe_stats()
        assert (stats["hits"], stats["parses"]) == (0, 1)
        assert stats["parsed_bytes"] == head_bytes(path) < 8 * 1024
        # The head is the small entry's, so the bytes are too.
        small = ResultCache(cache.cache_dir / "small")
        small.store(SPEC, payload)
        assert head_bytes(small.path_for(SPEC)) == stats["parsed_bytes"]

    def test_load_returns_what_a_parse_of_the_file_returns(self, cache, payload):
        path = ResultCache(cache.cache_dir).store(SPEC, payload)
        whole = json.loads(path.read_text())
        loaded = cache.load(SPEC)
        assert loaded == whole == payload
        assert json.dumps(loaded) == json.dumps(whole)  # key order too
        # Every byte once: the file less its two newlines, plus the head's "null".
        assert cache.probe_stats()["parsed_bytes"] == path.stat().st_size - 2 + len("null")

    def test_an_entry_without_a_trace_is_the_parent_commits_bytes(self, cache):
        spec = OBSERVATION_VARIANTS["trace"]
        untraced = execute_spec(spec)
        text = cache.store(spec, untraced).read_text()
        assert text == json.dumps(untraced, allow_nan=False)
        assert "\n" not in text
        assert cache.load(spec) == untraced

    def test_a_traced_entry_is_the_parent_commits_bytes_and_two_newlines(
        self, cache, payload
    ):
        text = cache.store(SPEC, payload).read_text()
        assert text.count("\n") == 2
        assert text.replace("\n", "") == json.dumps(payload, allow_nan=False)


def _big(payload):
    """``payload`` with its samples repeated, each round later than the one
    before (a trace's times never decrease), until the trace passes 1 MB."""
    big = copy.deepcopy(payload)
    samples = big["trace"]["samples"]
    span = samples[-1]["time"] + 1.0
    big["trace"]["samples"] = [
        dict(sample, time=sample["time"] + span * round_)
        for round_ in range(1 + (1 << 20) // len(json.dumps(samples)))
        for sample in samples
    ]
    return big


def _count_read_bytes(monkeypatch):
    """Count the bytes ``executor`` reads from files it opens from here on."""
    read = []

    class Counting:
        def __init__(self, handle):
            self._handle = handle

        def __enter__(self):
            self._handle.__enter__()
            return self

        def __exit__(self, *exc):
            return self._handle.__exit__(*exc)

        def __getattr__(self, name):
            return getattr(self._handle, name)

        def read(self, *args):
            data = self._handle.read(*args)
            read.append(len(data))
            return data

    monkeypatch.setattr(
        executor_mod, "open", lambda *args, **kwargs: Counting(open(*args, **kwargs)),
        raising=False,
    )
    return read


class TestTheTraceStaysInTheFile:
    """An entry larger than two ``_END_BYTES`` is read at its ends: a fetch
    (a warm sweep) neither reads nor keeps the trace line, so it allocates
    nothing of the trace's size; ``run.trace`` reads the file then."""

    @pytest.fixture
    def big(self, payload):
        return _big(payload)

    def test_a_warm_sweep_reads_the_ends_and_allocates_nothing_of_the_traces_size(
        self, cache, big, monkeypatch
    ):
        import tracemalloc

        path = ResultCache(cache.cache_dir).store(SPEC, big)
        assert path.stat().st_size > 1 << 20
        run_sweep([SPEC], cache=cache)  # imports, interned keys: not this sweep's
        read = _count_read_bytes(monkeypatch)
        tracemalloc.start()
        try:
            (run,), stats = run_sweep([SPEC], cache=cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.cached == 1
        assert sum(read) <= 2 * executor_mod._END_BYTES
        assert peak < 4 * executor_mod._END_BYTES < path.stat().st_size // 4
        assert cache.probe_stats()["parsed_bytes"] == 2 * head_bytes(path)
        # The trace is read when it is asked for, and is the file's.
        assert json.dumps(trace_to_payload(run.trace)) == json.dumps(big["trace"])

    def test_fetch_is_load_without_the_trace(self, cache, big):
        cache.store(SPEC, big)
        reader = ResultCache(cache.cache_dir)
        fetched, loaded = reader.fetch(SPEC), reader.load(SPEC)
        assert loaded == big and json.dumps(loaded) == json.dumps(big)
        assert list(fetched) == list(loaded)
        assert {k: v for k, v in fetched.items() if k != "trace"} == {
            k: v for k, v in big.items() if k != "trace"
        }
        assert fetched["trace"].parse() == big["trace"]

    def test_an_entry_removed_before_its_trace_is_read_has_none(self, cache, big):
        path = cache.store(SPEC, big)
        (run,), _ = run_sweep([SPEC], cache=ResultCache(cache.cache_dir))
        path.unlink()
        assert run.summary.to_dict() == big["summary"]
        with pytest.raises(ExecutorError, match=str(path)):
            run.trace

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda cache, big: cache.store(SPEC, dict(big, wall_time=123.0)),
            lambda cache, big: cache.path_for(SPEC).write_text(json.dumps(big, indent=2)),
        ],
        ids=["stored again", "another layout"],
    )
    def test_an_entry_rewritten_before_its_trace_is_read_has_the_same_one(
        self, cache, big, rewrite
    ):
        cache.store(SPEC, big)
        (run,), _ = run_sweep([SPEC], cache=ResultCache(cache.cache_dir))
        rewrite(cache, big)
        assert json.dumps(trace_to_payload(run.trace)) == json.dumps(big["trace"])

    @pytest.mark.parametrize("tenths", range(11))
    def test_a_truncated_big_entry_is_a_miss_for_everyone(self, cache, big, tenths):
        path = cache.store(SPEC, big)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) * tenths // 10] if tenths < 10 else data[:-1])
        for reader in (cache, ResultCache(cache.cache_dir)):
            assert reader.probe(SPEC) is None
            assert reader.fetch(SPEC) is None
            assert reader.load(SPEC) is None

    @pytest.mark.parametrize(
        "relayout",
        [
            lambda data: data + b"\n",
            lambda data: data.replace(b'"samples": [', b'"samples": [\n', 1),
            lambda data: data.replace(b"\n", b"", 1),
            lambda data: b"\n" + data,
        ],
        ids=["a newline at the end", "one inside the trace", "none before it", "one first"],
    )
    def test_ends_that_only_look_framed_are_the_same_hit(self, cache, big, relayout):
        """The ends are a guess at the layout; what they yield must parse, and
        the trace is located again, by the whole file, when it is read."""
        path = cache.store(SPEC, big)
        path.write_bytes(relayout(path.read_bytes()))
        assert json.loads(path.read_bytes()) == big
        reader = ResultCache(cache.cache_dir)
        assert reader.probe(SPEC) is not None
        assert reader.load(SPEC) == big
        (run,), stats = run_sweep([SPEC], cache=reader)
        assert stats.cached == 1
        assert json.dumps(trace_to_payload(run.trace)) == json.dumps(big["trace"])


def _assert_same_run(run, other):
    fields = ("spec", "summary", "meta", "report", "wall_time", "stopped_early")
    for name in fields:
        assert getattr(run, name) == getattr(other, name), name
    assert json.dumps(trace_to_payload(run.trace)) == json.dumps(
        trace_to_payload(other.trace)
    )


class TestEntryLayouts:
    """Whitespace is never validity: a file that is not laid out by this
    commit's ``store`` is parsed whole and judged like any other."""

    @pytest.fixture
    def framed_run(self, tmp_path, payload):
        cache = ResultCache(tmp_path / "framed")
        cache.store(SPEC, payload)
        (run,), stats = run_sweep([SPEC], cache=ResultCache(cache.cache_dir))
        assert stats.cached == 1
        return run

    @pytest.mark.parametrize("tenths", range(11))
    def test_a_truncated_entry_is_a_miss_for_everyone(self, cache, payload, tenths):
        path = cache.store(SPEC, payload)
        data = path.read_bytes()
        # 0/10 .. 9/10 of the file, then all of it but the closing brace.
        cut = data[: len(data) * tenths // 10] if tenths < 10 else data[:-1]
        for reader in (cache, ResultCache(cache.cache_dir)):
            path.write_bytes(cut)
            assert reader.probe(SPEC) is None
            assert reader.load(SPEC) is None
            assert reader.fetch(SPEC) is None
            (run,), stats = run_sweep([SPEC], cache=reader)
            assert (stats.cached, stats.executed) == (0, 1)
            assert not run.from_cache
            assert path.read_bytes() != cut  # overwritten by the re-run

    @pytest.mark.parametrize(
        "dumps",
        [
            lambda payload: json.dumps(payload, allow_nan=False),
            lambda payload: json.dumps(payload, indent=2),
            lambda payload: json.dumps(payload, separators=(",", ":")),
        ],
        ids=["the parent commit's single line", "indent=2", "compact separators"],
    )
    def test_any_other_layout_of_the_same_document_is_the_same_hit(
        self, cache, payload, framed_run, dumps
    ):
        cache.cache_dir.mkdir(parents=True)
        path = cache.path_for(SPEC)
        path.write_text(dumps(payload))
        assert cache.probe(SPEC) is not None
        assert cache.load(SPEC) == payload
        (run,), stats = run_sweep([SPEC], cache=ResultCache(cache.cache_dir))
        assert stats.cached == 1
        _assert_same_run(run, framed_run)

    def test_garbage_inside_an_intact_trace_line_surfaces_when_the_trace_is_read(
        self, cache, payload
    ):
        path = cache.store(SPEC, payload)
        first, trace, last = path.read_bytes().split(b"\n")
        middle = len(trace) // 2
        # No JSON inside a string (it closes it) nor outside one (a raw NUL).
        garbage = b'"}\x00{"'
        path.write_bytes(
            b"\n".join((first, trace[:middle] + garbage + trace[middle:], last))
        )
        reader = ResultCache(cache.cache_dir)
        assert reader.load(SPEC) is None
        (run,), stats = run_sweep([SPEC], cache=reader)
        assert stats.cached == 1 and run.from_cache
        assert run.summary.to_dict() == payload["summary"]
        for _ in range(2):  # not remembered as anything else in between
            with pytest.raises(ExecutorError, match=str(path)):
                run.trace


class TestObservationDetails:
    @pytest.mark.parametrize("detail", sorted(OBSERVATION_VARIANTS))
    def test_a_head_never_validates_for_a_spec_differing_in(
        self, cache, payload, detail, monkeypatch
    ):
        other = OBSERVATION_VARIANTS[detail]
        assert other.content_hash() == SPEC.content_hash()
        assert cache.key_for(other) != cache.key_for(SPEC)
        # SPEC's payload under the other spec's key, on disk and -- through
        # store() -- in the index: the remembered head is judged against
        # the spec asked for, so it is a miss both ways.
        cache.store(other, payload)
        parses = _count_parses(monkeypatch)
        assert cache.probe(other) is None
        assert parses == []
        assert cache.load(other) is None
        assert ResultCache(cache.cache_dir).probe(other) is None
        # ... and the reverse: the other spec's file copied over SPEC's.
        cache.store(SPEC, payload)
        foreign = copy.deepcopy(payload)
        foreign["backend"] = other.backend
        foreign["spec"] = other.to_dict()
        ResultCache(cache.cache_dir).store(other, foreign)
        shutil.copy(cache.path_for(other), cache.path_for(SPEC))
        assert cache.probe(SPEC) is None
        assert cache.probe(other) is not None


class TestConcurrencyAndBound:
    def test_eight_threads_store_and_probe_one_key(self, cache, payload):
        rounds = 40
        failures = []

        def worker(index):
            try:
                for turn in range(rounds):
                    if (turn + index) % 4 == 0:
                        cache.store(SPEC, payload)
                    if cache.probe(SPEC) is None:
                        failures.append(f"thread {index} turn {turn}: probe missed")
            except Exception as exc:  # surfaced below
                failures.append(repr(exc))

        cache.store(SPEC, payload)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = cache.probe_stats()
        # Every probe found the file, so each was a hit or a parse: a lost
        # counter update would break the sum.
        assert stats["hits"] + stats["parses"] == 8 * rounds
        assert stats["entries"] == 1
        assert list(cache.cache_dir.glob("*.tmp.*")) == []

    def test_index_never_exceeds_its_bound(self, cache, payload, monkeypatch):
        monkeypatch.setattr(executor_mod, "HEADER_INDEX_CAPACITY", 3)
        specs = [SPEC] + [OBSERVATION_VARIANTS[name] for name in sorted(OBSERVATION_VARIANTS)]
        for spec in specs:
            stored = copy.deepcopy(payload)
            stored["backend"] = spec.backend
            stored["spec"] = spec.to_dict()
            cache.store(spec, stored)
            assert cache.probe_stats()["entries"] <= 3
        # Least recently used goes first: the last three are still indexed,
        # the first ones cost one parse and are valid all the same.
        before = cache.probe_stats()
        assert all(cache.probe(spec) is not None for spec in specs[-3:])
        assert cache.probe_stats()["hits"] == before["hits"] + 3
        assert cache.probe(specs[0]) is not None
        after = cache.probe_stats()
        assert after["parses"] == before["parses"] + 1
        assert after["entries"] == 3


def _replayed(spec, stored):
    records = []
    SweepTelemetry(records.append).replay_watchdogs(0, spec, stored)
    for record in records:
        record.pop("ts")
    return records


class TestWatchdogReplayFromHeads:
    SPEC = scenario("line_scaling", n=5, until_stable=True)

    def test_head_replays_what_the_payload_replays(self, cache):
        cache.store(self.SPEC, execute_spec(self.SPEC))
        from_payload = _replayed(self.SPEC, cache.load(self.SPEC))
        assert [r["watchdog"] for r in from_payload] == ["watchdog_convergence"]
        assert _replayed(self.SPEC, cache.probe(self.SPEC)) == from_payload
        # A head parsed from another writer's file is the same head.
        reader = ResultCache(cache.cache_dir)
        assert reader.probe(self.SPEC) == cache.probe(self.SPEC)
        assert _replayed(self.SPEC, reader.probe(self.SPEC)) == from_payload

    def test_cached_resubmission_events_are_the_full_payload_replay(self, tmp_path):
        service = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1))
        server = SweepServer(service, "127.0.0.1", 0)
        try:
            # Closed on the way out: this file also runs under ``-W error``.
            with ServiceClient(server.start_background(), timeout=30.0) as client:
                client.wait(client.submit([self.SPEC])["id"])
                job = client.submit([self.SPEC])
                assert job["state"] == "done" and job["counts"]["cached"] == 1
                events = client.job_events(job["id"])["events"]
        finally:
            server.shutdown()
        for event in events:
            event.pop("ts")
        # What the parent commit put in the ring: the replay of the whole
        # parsed payload, nothing else (a cached job never enters a sweep).
        assert events == _replayed(self.SPEC, service.cache.load(self.SPEC))
        assert events and all(event["replayed"] is True for event in events)
