"""Sweep-level telemetry: run_sweep event streams on every execution path.

A sweep can satisfy a spec three ways -- inline execution, worker pool,
cache hit -- and the telemetry contract is the same for all of them: every
record validates against the schema, every run gets its
``run_started``/``run_finished`` bracket, and watchdog firings appear either
live or replayed (``replayed: true``) from the cached payload.
"""

from __future__ import annotations

import pytest

from repro.experiments import ResultCache, run_sweep, scenario
from repro.telemetry import JsonlLog, SweepTelemetry, validate_jsonl, validate_records


def collect_telemetry():
    records = []
    return records, SweepTelemetry(records.append)


def kinds(records):
    counts = {}
    for record in records:
        counts[record["event"]] = counts.get(record["event"], 0) + 1
    return counts


def stable_specs(backend="reference"):
    return [
        scenario("line_scaling", n=n, until_stable=True, backend=backend)
        for n in (5, 6)
    ]


class TestInlineExecution:
    def test_stream_brackets_and_live_watchdogs(self, tmp_path):
        records, telemetry = collect_telemetry()
        specs = stable_specs()
        runs, stats = run_sweep(
            specs, cache=ResultCache(tmp_path), telemetry=telemetry
        )
        assert stats.executed == 2
        validate_records(records)
        counts = kinds(records)
        assert counts["sweep_started"] == 1
        assert counts["run_started"] == 2
        assert counts["run_finished"] == 2
        assert counts["sweep_finished"] == 1
        assert counts["progress"] >= 2
        live = [r for r in records if r["event"] == "watchdog_fired"]
        assert len(live) == 2  # one convergence firing per run
        assert not any(r.get("replayed") for r in live)
        for record in live:
            assert record["watchdog"] == "watchdog_convergence"
            assert record["spec_hash"] == specs[record["run"]].content_hash()
        # Envelope ordering: the stream opens and closes the sweep.
        assert records[0]["event"] == "sweep_started"
        assert records[-1]["event"] == "sweep_finished"

    def test_cache_hits_replay_watchdogs(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = stable_specs()
        run_sweep(specs, cache=cache)  # populate
        records, telemetry = collect_telemetry()
        runs, stats = run_sweep(specs, cache=cache, telemetry=telemetry)
        assert stats.cached == 2
        validate_records(records)
        replayed = [r for r in records if r["event"] == "watchdog_fired"]
        assert len(replayed) == 2
        assert all(r["replayed"] is True for r in replayed)
        assert all(r["state"] == "cached"
                   for r in records if r["event"] == "run_finished")

    def test_progress_events_are_ordered_per_run(self, tmp_path):
        records, telemetry = collect_telemetry()
        run_sweep(
            [scenario("line_scaling", n=5, sim={"duration": 60.0})],
            cache=ResultCache(tmp_path),
            telemetry=telemetry,
        )
        progress = [r for r in records if r["event"] == "progress"]
        assert progress, "long runs must emit progress events"
        times = [r["sim_time"] for r in progress]
        samples = [r["samples"] for r in progress]
        assert times == sorted(times)
        assert samples == sorted(samples)

    def test_vec_runs_stream_live(self, tmp_path):
        pytest.importorskip("numpy")
        records, telemetry = collect_telemetry()
        runs, stats = run_sweep(
            stable_specs("vec"), cache=ResultCache(tmp_path), telemetry=telemetry
        )
        assert stats.executed == 2
        assert stats.batched == 0
        validate_records(records)
        fired = [r for r in records if r["event"] == "watchdog_fired"]
        assert len(fired) == 2
        assert not any(r.get("replayed") for r in fired)
        done = [r for r in records if r["event"] == "run_finished"]
        assert [r["state"] for r in done] == ["done", "done"]


class TestPoolExecution:
    def test_worker_pool_replays_watchdogs(self, tmp_path):
        records, telemetry = collect_telemetry()
        specs = stable_specs()
        runs, stats = run_sweep(
            specs, cache=ResultCache(tmp_path), workers=2, telemetry=telemetry
        )
        assert stats.executed == 2
        validate_records(records)
        fired = [r for r in records if r["event"] == "watchdog_fired"]
        # A sink cannot cross the process boundary: pool firings arrive
        # replayed from the returned payloads instead of live.
        assert len(fired) == 2
        assert all(r["replayed"] is True for r in fired)


class TestRunnerAndJsonl:
    def test_runner_passthrough_writes_valid_jsonl(self, tmp_path):
        log = JsonlLog(tmp_path / "sweep.jsonl")
        run_sweep(
            [scenario("line_scaling", n=5, until_stable=True)],
            cache=ResultCache(tmp_path / "cache"),
            telemetry=SweepTelemetry(log.write_record),
        )
        log.close()
        assert validate_jsonl(tmp_path / "sweep.jsonl") >= 4

    def test_reused_emitter_replays_for_second_sweep(self, tmp_path):
        # One emitter across sweeps (the service's usage): runs marked live
        # in sweep 1 must not suppress replay in sweep 2.
        log = []
        telemetry = SweepTelemetry(log.append)
        cache = ResultCache(tmp_path)
        spec = scenario("line_scaling", n=6, until_stable=True)
        run_sweep([spec], cache=cache, telemetry=telemetry)
        live = [r for r in log if r["event"] == "watchdog_fired"]
        assert len(live) == 1 and not live[0].get("replayed")
        del log[:]
        run_sweep([spec], cache=cache, telemetry=telemetry)
        replayed = [r for r in log if r["event"] == "watchdog_fired"]
        assert len(replayed) == 1 and replayed[0]["replayed"] is True
