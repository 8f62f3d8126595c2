"""Smoke tests for the python -m repro.experiments command line."""

import json

import pytest

from repro.experiments import cli
from repro.fastsim.backend import backend_available


def run_cli(*argv):
    return cli.main(list(argv))


def backends(*names):
    """Parametrize over ``names``; a backend that is not installed skips."""
    return pytest.mark.parametrize(
        "backend",
        [
            pytest.param(
                name,
                marks=pytest.mark.skipif(
                    not backend_available(name), reason=f"backend {name!r} is not installed"
                ),
            )
            for name in names
        ],
    )


columnar = backends("fast", "vec", "jit")
#: What ``auto`` runs an AOPT spec on, on this machine.
FASTEST = "jit" if backend_available("jit") else "fast"


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

    def test_a_run_that_ends_before_its_event_is_not_stabilized(self, capsys):
        argv = ("run", "end_to_end_insertion", "--set", "sim.duration=20", "--no-cache")
        assert run_cli(*argv) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if "stab time" in line)
        column = lines[at].index("stab time")
        assert lines[at + 2][column:].split()[0] == "-"
        assert run_cli(*argv, "--json") == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert run["summary"]["stabilized"] is None
        assert run["summary"]["stabilization_time"] is None

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        assert run_cli("run", "nope", "--cache-dir", str(tmp_path)) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSweep:
    def sweep_args(self, tmp_path, *extra, algorithms="AOPT,MaxPropagation"):
        return (
            "sweep",
            "line_scaling",
            "--grid",
            "n=4,5",
            "--grid",
            f"algorithm={algorithms}",
            "--set",
            "sim.duration=4.0",
            "--cache-dir",
            str(tmp_path),
            *extra,
        )

    @pytest.mark.parametrize("backend", ["reference", "auto"])
    def test_sweep_then_full_cache_hit(self, tmp_path, capsys, backend):
        backend_args = ("--set", f"backend={backend}")
        assert run_cli(*self.sweep_args(tmp_path, *backend_args)) == 0
        first = capsys.readouterr().out
        assert "4 spec(s): 0 from cache, 4 executed" in first
        assert run_cli(*self.sweep_args(tmp_path, *backend_args, "--workers", "2")) == 0
        second = capsys.readouterr().out
        assert "4 spec(s): 4 from cache, 0 executed" in second

    @columnar
    def test_explicit_backend_sweep_then_full_cache_hit(self, tmp_path, capsys, backend):
        # No baselines: a columnar backend declines them.
        args = ("--set", f"backend={backend}")
        algorithms = "AOPT,ImmediateInsertion"
        assert run_cli(*self.sweep_args(tmp_path, *args, algorithms=algorithms)) == 0
        assert "4 spec(s): 0 from cache, 4 executed" in capsys.readouterr().out
        args += ("--workers", "2")
        assert run_cli(*self.sweep_args(tmp_path, *args, algorithms=algorithms)) == 0
        assert "4 spec(s): 4 from cache, 0 executed" in capsys.readouterr().out
        assert len(list(tmp_path.glob(f"*.{backend}.json"))) == 4

    def test_a_dotted_axis_keeps_the_dotted_set(self, tmp_path, capsys):
        argv = (
            "sweep", "quickstart_line", "--set", "n=4", "--set", "sim.duration=4",
            "--grid", "sim.dt=0.1,0.05", "--cache-dir", str(tmp_path), "--json",
        )
        assert run_cli(*argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["executed"] == 2
        sims = [run["spec"]["sim"] for run in payload["runs"]]
        assert [(sim["duration"], sim["dt"]) for sim in sims] == [(4, 0.1), (4, 0.05)]

    def test_sweep_requires_a_grid(self, tmp_path, capsys):
        assert run_cli("sweep", "line_scaling", "--cache-dir", str(tmp_path)) == 2
        assert "--grid" in capsys.readouterr().err

    def test_a_repeated_grid_axis_is_refused(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ("sweep", "quickstart_line", "--grid", "n=3", "--grid", "n=4")
        assert run_cli(*argv, "--cache-dir", str(cache)) == 2
        captured = capsys.readouterr()
        assert "error: --grid axis 'n' is given twice" in captured.err
        assert captured.out == ""
        assert not cache.exists() or not any(cache.iterdir())

    def test_malformed_set_rejected(self, tmp_path, capsys):
        assert (
            run_cli("run", "quickstart_line", "--set", "oops", "--cache-dir", str(tmp_path))
            == 2
        )
        assert "key=value" in capsys.readouterr().err


class TestBuilderArguments:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("run", "line_scaling", "--set", "foo=1"),
                "scenario 'line_scaling' has no argument 'foo'; it takes n, "
                "algorithm, swap_period, ramp_fraction, duration, sim",
            ),
            (
                ("run", "line_scaling", "--set", "dt=0.05"),
                "scenario 'line_scaling' has no argument 'dt'",
            ),
            (
                ("sweep", "quickstart_line", "--grid", "topology.n=2,4"),
                "scenario 'quickstart_line' has no argument 'topology'; "
                "it takes n, algorithm, duration, sim",
            ),
        ],
    )
    def test_an_unknown_argument_names_the_scenario(self, tmp_path, capsys, argv, message):
        cache = tmp_path / "cache"
        assert run_cli(*argv, "--cache-dir", str(cache)) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "sim.dt=0.05" in captured.err
        assert "_scenario()" not in captured.err
        assert captured.out == ""
        assert not cache.exists() or not any(cache.iterdir())


class TestBackendSelection:
    @columnar
    def test_run_with_fast_backend_executes_and_caches_separately(
        self, tmp_path, capsys, backend
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
        assert run_cli(*base, "--set", f"backend={backend}") == 0
        first = capsys.readouterr().out
        assert "0 from cache, 1 executed" in first
        # The reference run of the same scenario is a distinct cache entry.
        assert run_cli(*base) == 0
        assert "0 from cache, 1 executed" in capsys.readouterr().out
        assert len(list(tmp_path.glob(f"*.{backend}.json"))) == 1
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

    def test_auto_sweep_prints_the_engine_of_each_row(self, tmp_path, capsys):
        assert (
            run_cli(
                "sweep",
                "quickstart_line",
                "--grid",
                "algorithm=AOPT,MaxPropagation",
                "--set",
                "backend=auto",
                "--set",
                "sim.duration=2.0",
                "--cache-dir",
                str(tmp_path),
            )
            == 0
        )
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("quickstart_line/")
        ]
        # label, hash, backend, ...
        assert [(row[0].split("/")[-1], row[2]) for row in rows] == [
            ("AOPT", FASTEST),
            ("MaxPropagation", "reference"),
        ]

    @columnar
    def test_unsupported_fast_scenario_is_refused_naming_auto(self, tmp_path, capsys, backend):
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
                f"backend={backend}",
                "--cache-dir",
                str(tmp_path),
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "AOPT" in err and "backend=auto runs it on 'reference'" in err
        assert list(tmp_path.iterdir()) == []

    def test_list_mentions_backends(self, capsys):
        assert run_cli("list") == 0
        assert "backends:" in capsys.readouterr().out


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

    @columnar
    def test_cache_stats_line_includes_bytes_and_backend_breakdown(
        self, tmp_path, capsys, backend
    ):
        for name in ("reference", backend):
            run_cli(
                "run",
                "quickstart_line",
                "--set",
                "n=4",
                "--set",
                "sim.duration=4.0",
                "--set",
                f"backend={name}",
                "--cache-dir",
                str(tmp_path),
            )
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "2 cache entries" in out
        assert "bytes" in out
        assert f"{backend}: 1" in out and "reference: 1" in out

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

    @pytest.mark.parametrize(
        "flag, value", [("--max-bytes", "-5"), ("--prune-older-than", "-1")]
    )
    def test_a_negative_prune_bound_is_refused_and_removes_nothing(
        self, tmp_path, capsys, flag, value
    ):
        run_cli(
            "sweep", "quickstart_line", "--grid", "n=3,4",
            "--set", "sim.duration=2.0", "--cache-dir", str(tmp_path),
        )
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 2
        capsys.readouterr()
        assert run_cli("cache", "--cache-dir", str(tmp_path), flag, value) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert sorted(tmp_path.glob("*.json")) == entries


class TestObserversAndTrace:
    """--observers / --trace flags of the streaming metrics pipeline (PR 5)."""

    @backends("reference", "fast", "vec", "jit")
    def test_run_with_trace_none_and_observers(self, tmp_path, capsys, backend):
        args = (
            "run",
            "quickstart_line",
            "--set",
            "n=4",
            "--set",
            "sim.duration=4.0",
            "--set",
            f"backend={backend}",
            "--trace",
            "none",
            "--observers",
            "global_skew,local_skew,mode_counts",
            "--json",
            "--cache-dir",
            str(tmp_path),
        )
        assert run_cli(*args) == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["spec"]["trace"] == "none"
        assert run["spec"]["observers"] == ["global_skew", "local_skew", "mode_counts"]
        # Only the observer report is cached, and the repeat is served from it.
        assert run_cli(*args) == 0
        (again,) = json.loads(capsys.readouterr().out)["runs"]
        assert again["from_cache"] is True
        assert again["summary"] == run["summary"]

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

    def test_refused_run_leaves_no_telemetry_file(self, tmp_path, capsys):
        stream = tmp_path / "t.jsonl"
        assert run_cli(
            "run", "quickstart_line",
            "--set", "algorithm=MaxPropagation", "--set", "backend=fast",
            "--telemetry", str(stream),
            "--cache-dir", str(tmp_path / "cache"),
        ) == 2
        assert "AOPT family" in capsys.readouterr().err
        assert not stream.exists()

    def test_refused_sweep_leaves_no_telemetry_file(self, tmp_path, capsys):
        stream = tmp_path / "t.jsonl"
        assert run_cli(
            "sweep", "quickstart_line", "--grid", "n=3,4", "--workers", "0",
            "--telemetry", str(stream),
            "--cache-dir", str(tmp_path / "cache"),
        ) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not stream.exists()

    def test_unopenable_telemetry_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert run_cli(
            "run", "quickstart_line", "--set", "n=3",
            "--telemetry", str(blocker / "t.jsonl"),
            "--cache-dir", str(tmp_path / "cache"),
        ) == 2
        assert "cannot open --telemetry file" in capsys.readouterr().err

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
