"""Which backend runs a spec is decided once, from the spec.

``declines`` on the backend object is the gate ``run_sweep`` and the sweep
service consult before anything is probed or built.  These tests hold it in
agreement with the engine constructors' guards over every registered
scenario, count what a sweep materialises (counted, never timed), pin the
daemon's one-key-per-spec contract, and run a fourth backend registered from
here through ``run_sweep`` untouched.
"""

import dataclasses
import logging

import pytest

from repro.experiments import ResultCache, expand_grid, registry, run_sweep, scenario
from repro.experiments import cli
from repro.experiments.spec import ComponentSpec, ScenarioSpec
from repro.fastsim import backend as backend_mod
from repro.fastsim.backend import (
    BACKENDS,
    BackendUnavailableError,
    backend_available,
    declined_reason,
    get_backend,
    register_backend,
)
from repro.fastsim.engine import UnsupportedScenarioError
from repro.service import ServiceConfig, SweepService
from repro.sim.runner import build_engine

COLUMNAR = [name for name in ("fast", "vec", "jit") if backend_available(name)]
needs_vec = pytest.mark.skipif(not backend_available("vec"), reason="needs numpy")

SHORT = {"duration": 4.0}


def declined_spec(backend="fast", **overrides):
    """Runs on every CI leg: ``fast`` is stdlib-only, and the diameter
    tracker is declined without changing what the run computes."""
    return scenario(
        "quickstart_line",
        n=4,
        sim={"duration": 4.0, "dt": 0.1, "track_diameter": True},
        backend=backend,
        **overrides,
    )


@pytest.fixture
def materialisations(monkeypatch):
    """``registry.build_scenario`` wrapped by a counter."""
    calls = []
    build = registry.build_scenario

    def counting(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(registry, "build_scenario", counting)
    return calls


# ----------------------------------------------------------------------
# declines == the constructors' guards, generated over the registries
# ----------------------------------------------------------------------
def _cells():
    for name in registry.SCENARIOS.names():
        base = scenario(name)
        for algorithm in registry.ALGORITHMS.names():
            # A builder's arguments fit its own algorithm only.
            args = dict(base.algorithm.args) if algorithm == base.algorithm.name else {}
            for track in (False, True):
                yield dataclasses.replace(
                    base, algorithm=ComponentSpec(algorithm, args)
                ).with_sim(track_diameter=track)


class TestDeclinesAgreesWithTheEngineGuards:
    def test_every_scenario_algorithm_tracker_backend_cell(self):
        declined = 0
        for spec in _cells():
            materialised = registry.build_scenario(spec)
            for backend in COLUMNAR:
                reason = declined_reason(spec.with_backend(backend))
                try:
                    get_backend(backend).build(
                        materialised.graph,
                        materialised.algorithm_factory,
                        materialised.config,
                    )
                    refused = False
                except UnsupportedScenarioError:
                    refused = True
                assert (reason is not None) == refused, (spec.label, backend, reason)
                if reason is None:
                    continue
                declined += 1
                # The reason names the requested backend and a feature the
                # spec really has.
                assert repr(backend) in reason
                if "AOPT" in reason:
                    assert spec.algorithm.name not in ("aopt", "immediate_insertion")
                elif "resets" in reason:
                    assert spec.dynamics.name == "crash_restart"
                else:
                    assert "diameter" in reason and spec.sim["track_diameter"]
        scenarios = len(registry.SCENARIOS.names())
        algorithms = len(registry.ALGORITHMS.names())
        # Three of five algorithms are baselines, and every tracker cell of
        # the other two is declined too.
        assert declined >= scenarios * (algorithms - 1) * len(COLUMNAR)

    def test_reference_and_unknown_backends_decline_nothing(self):
        spec = declined_spec("reference")
        assert declined_reason(spec) is None
        # Materialising reports an unknown name; it is not this gate's call.
        assert declined_reason(spec.with_backend("warp")) is None

    def test_list_renders_what_each_backend_declines_from_declines(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for backend in ("fast", "vec", "jit"):
            (line,) = [l for l in out.splitlines() if l.startswith(f"  {backend} declines")]
            assert "algorithm max_propagation" in line
            assert "dynamics crash_restart" in line
            assert "sim.track_diameter" in line
            assert "aopt" not in line and "partition_then_heal" not in line
        assert "reference declines" not in out


# ----------------------------------------------------------------------
# Counted sweeps: one materialisation per executed spec, none otherwise
# ----------------------------------------------------------------------
class TestResolveBeforeProbe:
    @needs_vec
    def test_e1_grid_materialises_each_spec_once_and_batches_the_rest(
        self, tmp_path, materialisations
    ):
        specs = expand_grid(
            "line_scaling",
            {"n": [8, 16, 24, 32], "algorithm": ["AOPT", "MaxPropagation"]},
            base={"backend": "vec", "sim": SHORT},
        )
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path))
        assert len(materialisations) == 8
        assert (stats.executed, stats.batched, stats.fallbacks) == (8, 4, 4)
        assert [run.requested_backend for run in runs] == [None, "vec"] * 4

    @needs_vec
    def test_one_declined_member_does_not_cost_its_mates_their_batch(
        self, tmp_path, materialisations
    ):
        names = [
            "chaos_mass_churn_line",
            "chaos_mass_churn_grid",
            "chaos_partition_line_half",
            "chaos_partition_ring",
            "chaos_delay_storm_line",
            "chaos_delay_storm_grid",
            "chaos_crash_restart_line",
        ]
        specs = [
            scenario(name, sim={"duration": 6.0, "dt": 0.1}, backend="vec")
            for name in names
        ]
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path))
        assert len(materialisations) == 7
        assert (stats.batched, stats.fallbacks) == (6, 1)
        assert runs[-1].spec.backend == "reference"

    def test_strict_backend_raises_before_anything_is_built_or_stored(
        self, tmp_path, materialisations
    ):
        ok = [scenario("quickstart_line", n=n, sim=SHORT, backend="fast") for n in (4, 5)]
        with pytest.raises(UnsupportedScenarioError, match="'fast' backend .* diameter"):
            run_sweep(
                ok + [declined_spec()], cache=ResultCache(tmp_path), strict_backend=True
            )
        assert materialisations == []
        assert list(tmp_path.iterdir()) == []

    def test_repeat_of_a_declined_spec_is_a_cached_fallback(
        self, tmp_path, materialisations, caplog
    ):
        cache = ResultCache(tmp_path)
        spec = declined_spec()
        run_sweep([spec], cache=cache)
        del materialisations[:]
        events = []
        with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
            runs, stats = run_sweep([spec], cache=cache, on_event=events.append)
        assert materialisations == []
        assert (stats.cached, stats.executed, stats.fallbacks) == (1, 0, 1)
        assert [(e.kind, e.from_cache, e.spec.backend) for e in events] == [
            ("fallback", True, "reference")
        ]
        assert runs[0].from_cache and runs[0].requested_backend == "fast"
        assert "falling back to 'reference'" in caplog.text

    def test_declined_spec_on_an_unavailable_backend_is_an_error_not_a_fallback(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        spec = declined_spec("vec")
        assert declined_reason(spec) is None
        with pytest.raises(BackendUnavailableError, match=r"repro\[vec\]"):
            run_sweep([spec], cache=ResultCache(tmp_path))
        argv = ["run", "quickstart_line", "--set", "backend=vec", "--set",
                "sim.track_diameter=true", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "repro[vec]" in capsys.readouterr().err

    def test_strict_backend_cli_names_the_requested_backend(self, tmp_path, capsys):
        argv = ["run", "quickstart_line", "--set", "backend=fast", "--set",
                "algorithm=MaxPropagation", "--strict-backend",
                "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "the 'fast' backend runs the AOPT family only" in err


# ----------------------------------------------------------------------
# A guard that disagrees with declines fails the run; nothing re-routes it
# ----------------------------------------------------------------------
@pytest.fixture
def sneaky_scenario(monkeypatch):
    """A dynamics registered from outside that schedules a node reset --
    ``declines`` accepts the spec, the engine guard does not."""

    def sneaky_reset(graph, edge):
        graph.schedule_node_reset(1.0, graph.nodes[0])
        return graph, {}

    def sneaky(**overrides):
        return dataclasses.replace(
            scenario("quickstart_line", n=4, sim=SHORT), dynamics="sneaky_reset"
        )

    monkeypatch.setitem(registry.DYNAMICS._items, "sneaky_reset", sneaky_reset)
    monkeypatch.setitem(registry.SCENARIOS._items, "sneaky", sneaky)
    return scenario("sneaky", backend="fast")


class TestGuardsAreLoud:
    def test_sweep_and_cli_fail_with_the_guards_message(
        self, sneaky_scenario, tmp_path, capsys
    ):
        assert declined_reason(sneaky_scenario) is None
        with pytest.raises(UnsupportedScenarioError, match="columnar engines"):
            run_sweep([sneaky_scenario], cache=ResultCache(tmp_path))
        assert list(tmp_path.iterdir()) == []
        argv = ["run", "sneaky", "--set", "backend=fast", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "node crash/restart resets" in capsys.readouterr().err

    def test_daemon_job_fails_with_the_guards_message(self, sneaky_scenario, tmp_path):
        svc = SweepService(tmp_path, config=ServiceConfig(workers=1)).start()
        try:
            job = svc.submit([sneaky_scenario])
            assert job.wait(60.0) and job.state == "failed"
            assert "node crash/restart resets" in job.error
            assert "fallback_backend" not in job.progress[0]
        finally:
            svc.stop()


# ----------------------------------------------------------------------
# The daemon: one key per spec, from submit on
# ----------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    svc = SweepService(tmp_path / "cache", config=ServiceConfig(workers=1)).start()
    yield svc
    svc.stop()


def finished(job):
    assert job.wait(60.0), f"job {job.id} did not finish (state={job.state})"
    return job


class TestDaemonResolvesAtSubmit:
    def test_resubmitting_a_declined_spec_is_terminal_at_submit(self, service):
        spec = declined_spec()
        twin_key = service.cache.key_for(spec.with_backend("reference"))
        first = finished(service.submit([spec]))
        assert first.state == "done" and first.stats["fallbacks"] == 1
        probe = service.cache.probe_stats()
        cached_before = service.counters["specs_cached_at_submit"]

        again = service.submit([spec])
        assert again.state == "done"  # no wait: nothing was enqueued
        assert again.spec_counts()["cached"] == 1
        assert not again.leased and not again.followed
        assert service.counters["specs_cached_at_submit"] == cached_before + 1
        assert service.cache.probe_stats()["parses"] == probe["parses"]
        assert service.counters["specs_executed"] == 1
        for job in (first, again):
            (entry,) = job.progress
            assert entry["backend"] == "fast"
            assert entry["result_key"] == twin_key
            assert entry["fallback_backend"] == "reference"

    @pytest.mark.parametrize("declined_first", [True, False])
    def test_declined_spec_and_its_reference_twin_run_once(self, service, declined_first):
        spec = declined_spec()
        pair = [spec, spec.with_backend("reference")]
        job = finished(service.submit(pair if declined_first else pair[::-1]))
        assert job.state == "done"
        assert service.counters["specs_executed"] == 1
        assert len({entry["result_key"] for entry in job.progress}) == 1
        assert [bool(e.get("coalesced")) for e in job.progress] == [False, True]

    def test_strict_backend_still_fails_the_job_with_the_reason(self, tmp_path):
        svc = SweepService(
            tmp_path, config=ServiceConfig(workers=1, strict_backend=True)
        ).start()
        try:
            job = finished(svc.submit([declined_spec()]))
            assert job.state == "failed"
            assert "'fast' backend does not implement the diameter tracker" in job.error
            assert "fallback_backend" not in job.progress[0]
        finally:
            svc.stop()

    def test_declined_runs_stream_their_watchdogs_live_then_replay(self, tmp_path):
        """A declined run is an ordinary inline run: its firings reach
        ``GET /jobs/{id}/events`` live and count on ``/healthz``; the cached
        repeat replays them, flagged."""
        from repro.service import SweepServer
        from repro.service.client import ServiceClient
        from repro.telemetry import validate_records

        server = SweepServer(
            SweepService(tmp_path, config=ServiceConfig(workers=1)), "127.0.0.1", 0
        )
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=30.0)
            spec = scenario(
                "line_scaling", n=5, until_stable=True, backend="fast",
                sim={"track_diameter": True},
            )
            job = client.wait(client.submit([spec])["id"])
            assert job["specs"][0]["fallback_backend"] == "reference"
            events = client.job_events(job["id"])["events"]
            validate_records(events)
            fired = [e for e in events if e["event"] == "watchdog_fired"]
            assert fired and not any(e.get("replayed") for e in fired)
            assert all(e["backend"] == "reference" for e in fired)
            assert client.healthz()["watchdogs"] == {"watchdog_convergence": len(fired)}

            again = client.submit([spec])
            assert again["state"] == "done"
            replayed = [
                e
                for e in client.job_events(again["id"])["events"]
                if e["event"] == "watchdog_fired"
            ]
            assert len(replayed) == len(fired)
            assert all(e["replayed"] is True for e in replayed)
            assert client.healthz()["counters"]["watchdogs_fired"] == len(fired)
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# The seam: a fourth backend, registered from here, public names only
# ----------------------------------------------------------------------
class EchoBackend:
    """The reference engine under another name, for lines of at most five."""

    name = "echo"

    def build(self, graph, algorithm_factory, config):
        return build_engine(graph, algorithm_factory, config)

    def declines(self, spec: ScenarioSpec):
        if spec.topology.args["n"] > 5:
            return "echo only hears lines of at most five nodes"
        return None


class TestAFourthBackendNeedsNoExecutorChange:
    def test_echo_runs_what_it_accepts_and_has_the_rest_routed(self, tmp_path, caplog):
        register_backend(EchoBackend())
        try:
            specs = [
                scenario("quickstart_line", n=n, sim=SHORT, backend="echo") for n in (4, 8)
            ]
            cache = ResultCache(tmp_path)
            with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
                runs, stats = run_sweep(specs, cache=cache)
            assert [run.spec.backend for run in runs] == ["echo", "reference"]
            assert [run.requested_backend for run in runs] == [None, "echo"]
            assert (stats.executed, stats.batched, stats.fallbacks) == (2, 0, 1)
            assert "1 from echo" in stats.describe()
            assert "echo only hears lines of at most five nodes" in caplog.text
            assert cache.load(specs[0])["backend"] == "echo"
            # The same bits as the reference engine, under its own key.
            (reference,), _ = run_sweep(
                [specs[0].with_backend("reference")], cache=cache
            )
            assert not reference.from_cache
            assert reference.summary == runs[0].summary

            again, stats = run_sweep(specs, cache=cache)
            assert (stats.cached, stats.executed) == (2, 0)
            assert "1 from echo" in stats.describe()
            assert [run.summary for run in again] == [run.summary for run in runs]
        finally:
            del BACKENDS["echo"]
