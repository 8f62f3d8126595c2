"""Smoke tests for the python -m repro.experiments command line."""

import json

from repro.experiments import cli


def run_cli(*argv):
    return cli.main(list(argv))


class TestList:
    def test_lists_scenarios_and_components(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        for required in (
            "grid_periodic_churn",
            "random_connected_sliding_window",
            "star_hub_failover",
            "ring_sinusoidal_drift",
            "line_scaling",
            "end_to_end_insertion",
        ):
            assert required in out
        assert "topologies:" in out
        assert "algorithms:" in out


class TestRun:
    def test_run_executes_then_serves_from_cache(self, tmp_path, capsys):
        args = (
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
        )
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert "quickstart_line/n=4/AOPT" in first
        assert "0 from cache, 1 executed" in first
        assert run_cli(*args) == 0
        second = capsys.readouterr().out
        assert "1 from cache, 0 executed" in second

    def test_run_json_output(self, tmp_path, capsys):
        assert (
            run_cli(
                "run",
                "quickstart_line",
                "--set",
                "n=4",
                "--set",
                "sim.duration=4.0",
                "--cache-dir",
                str(tmp_path),
                "--json",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["total"] == 1
        (run,) = payload["runs"]
        assert run["summary"]["node_count"] == 4
        assert run["spec"]["topology"]["args"] == {"n": 4}

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        assert run_cli("run", "nope", "--cache-dir", str(tmp_path)) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweep:
    def sweep_args(self, tmp_path, *extra):
        return (
            "sweep",
            "line_scaling",
            "--grid",
            "n=4,5",
            "--grid",
            "algorithm=AOPT,MaxPropagation",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
            *extra,
        )

    def test_sweep_then_full_cache_hit(self, tmp_path, capsys):
        assert run_cli(*self.sweep_args(tmp_path)) == 0
        first = capsys.readouterr().out
        assert "4 spec(s): 0 from cache, 4 executed" in first
        assert run_cli(*self.sweep_args(tmp_path, "--workers", "2")) == 0
        second = capsys.readouterr().out
        assert "4 spec(s): 4 from cache, 0 executed" in second

    def test_sweep_requires_a_grid(self, tmp_path, capsys):
        assert run_cli("sweep", "line_scaling", "--cache-dir", str(tmp_path)) == 2
        assert "--grid" in capsys.readouterr().err

    def test_malformed_set_rejected(self, tmp_path, capsys):
        assert (
            run_cli("run", "quickstart_line", "--set", "oops", "--cache-dir", str(tmp_path))
            == 2
        )
        assert "key=value" in capsys.readouterr().err


class TestBackendSelection:
    def test_run_with_fast_backend_executes_and_caches_separately(
        self, tmp_path, capsys
    ):
        base = (
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
        )
        assert run_cli(*base, "--set", "backend=fast") == 0
        first = capsys.readouterr().out
        assert "0 from cache, 1 executed" in first
        # The reference run of the same scenario is a distinct cache entry.
        assert run_cli(*base) == 0
        assert "0 from cache, 1 executed" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.fast.json"))) == 1
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_unknown_backend_fails_cleanly(self, tmp_path, capsys):
        assert (
            run_cli(
                "run",
                "quickstart_line",
                "--set",
                "backend=warp",
                "--cache-dir",
                str(tmp_path),
            )
            == 2
        )
        assert "unknown backend" in capsys.readouterr().err

    def test_unsupported_fast_scenario_falls_back_to_reference(self, tmp_path, capsys):
        assert (
            run_cli(
                "run",
                "quickstart_line",
                "--set",
                "n=4",
                "--set",
                "sim.duration=2.0",
                "--set",
                "algorithm='MaxPropagation'",
                "--set",
                "backend=fast",
                "--cache-dir",
                str(tmp_path),
            )
            == 0
        )
        assert "fell back to reference" in capsys.readouterr().out

    def test_unsupported_fast_scenario_fails_cleanly_when_strict(self, tmp_path, capsys):
        assert (
            run_cli(
                "run",
                "quickstart_line",
                "--set",
                "n=4",
                "--set",
                "sim.duration=2.0",
                "--set",
                "algorithm='MaxPropagation'",
                "--set",
                "backend=fast",
                "--strict-backend",
                "--cache-dir",
                str(tmp_path),
            )
            == 2
        )
        assert "AOPT" in capsys.readouterr().err

    def test_list_mentions_backends(self, capsys):
        assert run_cli("list") == 0
        assert "backends:" in capsys.readouterr().out


class TestBench:
    def bench_args(self, *extra):
        return (
            "bench",
            "--sizes",
            "6",
            "--topologies",
            "line",
            "--duration",
            "2.0",
            *extra,
        )

    def test_bench_smoke_writes_json(self, tmp_path, capsys):
        output = tmp_path / "BENCH_fastsim.json"
        assert run_cli(*self.bench_args("--output", str(output))) == 0
        table = capsys.readouterr().out
        assert "speedup" in table
        assert "identical" in table
        payload = json.loads(output.read_text())
        (entry,) = payload["results"]
        assert entry["topology"] == "line"
        assert entry["n"] == 6
        assert entry["reference_seconds"] > 0
        assert entry["fast_seconds"] > 0
        assert entry["traces_identical"] is True
        assert payload["backends"] == ["reference", "fast"]

    def test_bench_json_stdout(self, tmp_path, capsys):
        output = tmp_path / "bench.json"
        assert run_cli(*self.bench_args("--output", str(output), "--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "backend_speed"
        assert payload["results"][0]["speedup"] > 0

    def test_bench_rejects_bad_topology(self, capsys):
        assert (
            run_cli("bench", "--sizes", "6", "--topologies", "mobius", "--output", "")
            == 2
        )
        assert "unknown bench topology" in capsys.readouterr().err

    def test_bench_broadcast_estimate_mode(self, tmp_path, capsys):
        output = tmp_path / "BENCH_msgsim.json"
        assert (
            run_cli(
                *self.bench_args(
                    "--estimate-mode", "broadcast", "--output", str(output)
                )
            )
            == 0
        )
        assert "(broadcast estimates)" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["config"]["estimate_mode"] == "broadcast"
        (entry,) = payload["results"]
        assert entry["estimate_mode"] == "broadcast"
        assert entry["traces_identical"] is True


class TestCacheCommand:
    def test_cache_listing_and_clear(self, tmp_path, capsys):
        run_cli(
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
        )
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", str(tmp_path)) == 0
        assert "1 cache entries" in capsys.readouterr().out
        assert run_cli("cache", "--cache-dir", str(tmp_path), "--clear") == 0
        assert "removed 1" in capsys.readouterr().out

    def test_cache_stats_line_includes_bytes_and_backend_breakdown(
        self, tmp_path, capsys
    ):
        for backend in ("reference", "fast"):
            run_cli(
                "run",
                "quickstart_line",
                "--set",
                "n=4",
                "--set",
                "sim.duration=4.0",
                "--set",
                f"backend={backend}",
                "--cache-dir",
                str(tmp_path),
            )
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "2 cache entries" in out
        assert "bytes" in out
        assert "fast: 1" in out and "reference: 1" in out

    def test_cache_prune_older_than_and_max_bytes(self, tmp_path, capsys):
        import os
        import time as time_mod

        run_cli(
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
        )
        capsys.readouterr()
        # Fresh entry survives an age-based prune ...
        assert run_cli(
            "cache", "--cache-dir", str(tmp_path), "--prune-older-than", "3600"
        ) == 0
        assert "pruned 0" in capsys.readouterr().out
        # ... an aged one does not.
        (entry,) = list(tmp_path.glob("*.json"))
        old = time_mod.time() - 7200
        os.utime(entry, (old, old))
        assert run_cli(
            "cache", "--cache-dir", str(tmp_path), "--prune-older-than", "3600"
        ) == 0
        assert "pruned 1" in capsys.readouterr().out
        # --max-bytes evicts down to the budget (0 = everything).
        run_cli(
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
        )
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", str(tmp_path), "--max-bytes", "0") == 0
        out = capsys.readouterr().out
        assert "pruned 1" in out
        assert "0 cache entries" in out


class TestObserversAndTrace:
    """--observers / --trace flags of the streaming metrics pipeline (PR 5)."""

    def test_run_with_trace_none_and_observers(self, tmp_path, capsys):
        status = run_cli(
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--trace",
            "none",
            "--observers",
            "global_skew,local_skew,mode_counts",
            "--json",
            "--cache-dir",
            str(tmp_path),
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["spec"]["trace"] == "none"
        assert run["spec"]["observers"] == ["global_skew", "local_skew", "mode_counts"]

    def test_unknown_observer_fails_cleanly(self, tmp_path, capsys):
        status = run_cli(
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--observers",
            "does_not_exist",
            "--cache-dir",
            str(tmp_path),
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "unknown observer" in err
        assert "global_skew" in err  # the known names are listed

    def test_set_trace_pseudo_override_also_works(self, tmp_path, capsys):
        status = run_cli(
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--set",
            "trace=none",
            "--json",
            "--cache-dir",
            str(tmp_path),
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["spec"]["trace"] == "none"

    def test_list_mentions_observers(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        assert "observers:" in out
        assert "gradient_bound_check" in out

    def test_bench_trace_none_checks_reports(self, tmp_path, capsys):
        status = run_cli(
            "bench",
            "--sizes",
            "8",
            "--topologies",
            "line",
            "--duration",
            "4",
            "--backends",
            "reference,fast",
            "--trace",
            "none",
            "--json",
            "--output",
            "",
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["results"]
        assert entry["trace_mode"] == "none"
        assert entry["reports_identical"] is True

    def test_bench_memory_flag_records_peaks(self, tmp_path, capsys):
        status = run_cli(
            "bench",
            "--sizes",
            "8",
            "--topologies",
            "line",
            "--duration",
            "4",
            "--backends",
            "fast",
            "--memory",
            "--no-check",
            "--json",
            "--output",
            "",
        )
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["results"]
        assert entry["fast_peak_tracemalloc_bytes"] > 0


class TestTelemetryFlags:
    def test_run_until_stable_with_telemetry_stream(self, tmp_path, capsys):
        from repro.telemetry import iter_jsonl, validate_jsonl

        stream = tmp_path / "events.jsonl"
        assert run_cli(
            "run", "line_scaling", "--set", "n=5",
            "--until-stable",
            "--telemetry", str(stream),
            "--cache-dir", str(tmp_path / "cache"),
            "--json",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["spec"]["until_stable"] is True
        assert validate_jsonl(stream) >= 4
        kinds = [r["event"] for r in iter_jsonl(stream)]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert "watchdog_fired" in kinds

    def test_sweep_telemetry_covers_cache_hits(self, tmp_path, capsys):
        from repro.telemetry import iter_jsonl

        cache = tmp_path / "cache"
        assert run_cli(
            "sweep", "line_scaling", "--grid", "n=4,5",
            "--until-stable", "--cache-dir", str(cache),
        ) == 0
        capsys.readouterr()
        stream = tmp_path / "cached.jsonl"
        assert run_cli(
            "sweep", "line_scaling", "--grid", "n=4,5",
            "--until-stable", "--cache-dir", str(cache),
            "--telemetry", str(stream),
        ) == 0
        assert "2 from cache" in capsys.readouterr().out
        records = list(iter_jsonl(stream))
        cached = [r for r in records if r["event"] == "run_finished"]
        assert all(r["state"] == "cached" for r in cached)

    def test_telemetry_creates_missing_parent_directories(
        self, tmp_path, capsys
    ):
        from repro.telemetry import validate_jsonl

        stream = tmp_path / "no" / "such" / "dir" / "x.jsonl"
        assert run_cli(
            "run", "quickstart_line", "--set", "n=4",
            "--telemetry", str(stream),
            "--cache-dir", str(tmp_path / "cache"),
        ) == 0
        capsys.readouterr()
        assert validate_jsonl(stream) >= 4

    def test_until_stable_caches_separately_from_full_runs(
        self, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        args = ("run", "line_scaling", "--set", "n=4",
                "--cache-dir", str(cache))
        assert run_cli(*args) == 0
        capsys.readouterr()
        assert run_cli(*args, "--until-stable") == 0
        assert "1 executed" in capsys.readouterr().out
        assert run_cli(*args, "--until-stable") == 0
        assert "1 from cache" in capsys.readouterr().out
