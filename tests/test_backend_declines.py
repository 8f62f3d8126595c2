"""Which backend runs a spec is decided once, from the spec.

``resolve_backend`` -- over each backend's ``declines`` -- is the gate
``run_sweep``, ``execute_spec`` and the sweep service pass before anything
is probed or built: ``auto`` becomes the engine that runs the spec, and a
spec its named backend will not run is refused.  These tests hold
``declines`` in agreement with the engine constructors' guards over every
registered scenario, pin what ``auto`` picks for every named scenario,
count what a sweep materialises (counted, never timed), pin the daemon's
one-key-per-spec contract, and run a fourth backend registered from here
through ``run_sweep`` untouched.
"""

import dataclasses

import pytest

from repro.experiments import ResultCache, expand_grid, registry, run_sweep, scenario
from repro.experiments import cli
from repro.experiments.spec import ComponentSpec, ScenarioSpec
from repro.fastsim import backend as backend_mod
from repro.experiments.results import execute_spec
from repro.fastsim.backend import (
    AUTO_ORDER,
    BACKENDS,
    BackendError,
    BackendUnavailableError,
    backend_available,
    declined_reason,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.fastsim.engine import UnsupportedScenarioError
from repro.service import ServiceConfig, SweepService
from repro.service.core import ServiceError
from repro.sim.runner import build_engine

COLUMNAR = [name for name in ("fast", "vec", "jit") if backend_available(name)]
#: What ``auto`` runs a spec no backend declines on, on this machine.
FASTEST = "jit" if backend_available("jit") else "fast"

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
        # An unknown name declines nothing: the gate refuses it first.
        assert declined_reason(spec.with_backend("warp")) is None
        with pytest.raises(BackendError, match="unknown backend 'warp'; registered: auto, "):
            resolve_backend(spec.with_backend("warp"))

    def test_list_renders_what_each_backend_declines_from_declines(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for backend in ("fast", "vec", "jit"):
            (line,) = [l for l in out.splitlines() if l.startswith(f"  {backend} declines")]
            assert "algorithm max_propagation" in line
            assert "dynamics crash_restart" in line
            assert "sim.track_diameter" in line
            assert "aopt" not in line and "partition_then_heal" not in line
            assert line.endswith("(refused; auto picks another)")
        assert "reference declines" not in out
        order = ", ".join(name for name in AUTO_ORDER if backend_available(name))
        assert f"auto (first of {order} that runs the spec)" in out


# ----------------------------------------------------------------------
# auto: the first of AUTO_ORDER that is installed and does not decline
# ----------------------------------------------------------------------
#: The named scenarios every columnar backend declines at their defaults.
REFERENCE_ONLY = {
    "chaos_crash_restart_grid",
    "chaos_crash_restart_hub",
    "chaos_crash_restart_line",
    "chaos_crash_restart_ring",
    "chaos_shifting_accumulate_n6",
    "chaos_shifting_accumulate_n10",
}


class TestAuto:
    def test_what_auto_picks_for_every_named_scenario(self):
        picked = {
            name: resolve_backend(scenario(name, backend="auto")).backend
            for name in registry.SCENARIOS.names()
        }
        assert len(picked) == 34
        assert {name for name, b in picked.items() if b == "reference"} == REFERENCE_ONLY
        assert {b for name, b in picked.items() if name not in REFERENCE_ONLY} == {FASTEST}

    def test_without_numpy_auto_picks_fast(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        assert resolve_backend(scenario("quickstart_line", backend="auto")).backend == "fast"
        assert resolve_backend(declined_spec("auto")).backend == "reference"

    def test_a_concrete_spec_resolves_to_itself(self):
        spec = scenario("quickstart_line", backend="fast")
        assert resolve_backend(spec) is spec

    def test_an_auto_spec_and_its_resolved_twin_share_one_cache_file(self, tmp_path):
        spec = scenario("quickstart_line", n=4, sim=SHORT, backend="auto")
        cache = ResultCache(tmp_path)
        (first,), stats = run_sweep([spec], cache=cache)
        assert first.spec.backend == FASTEST and stats.executed == 1
        (again,), stats = run_sweep([spec.with_backend(FASTEST)], cache=cache)
        assert again.from_cache and (stats.cached, stats.executed) == (1, 0)
        (entry,) = [path.name for path in tmp_path.iterdir()]
        assert entry == cache.key_for(spec.with_backend(FASTEST)) + ".json"

    def test_execute_spec_stores_the_backend_that_ran(self):
        payload = execute_spec(declined_spec("auto"))
        assert payload["spec"]["backend"] == payload["backend"] == "reference"
        assert ScenarioSpec.from_dict(payload["spec"]) == declined_spec("reference")


# ----------------------------------------------------------------------
# Counted sweeps: one materialisation per executed spec, none otherwise
# ----------------------------------------------------------------------
class TestResolveBeforeProbe:
    def test_e1_grid_materialises_each_spec_once(
        self, tmp_path, materialisations
    ):
        specs = expand_grid(
            "line_scaling",
            {"n": [8, 16, 24, 32], "algorithm": ["AOPT", "MaxPropagation"]},
            base={"backend": "auto", "sim": SHORT},
        )
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path))
        assert len(materialisations) == 8
        assert stats.executed == 8
        assert [run.spec.backend for run in runs] == [FASTEST, "reference"] * 4
        assert [spec.backend for spec in materialisations] == [FASTEST, "reference"] * 4

    def test_one_declined_member_runs_on_reference_alone(
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
            scenario(name, sim={"duration": 6.0, "dt": 0.1}, backend="auto")
            for name in names
        ]
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path))
        assert len(materialisations) == 7
        assert stats.executed == 7
        assert [run.spec.backend for run in runs] == [FASTEST] * 6 + ["reference"]

    def test_declined_spec_raises_before_anything_is_built_or_stored(
        self, tmp_path, materialisations
    ):
        ok = [scenario("quickstart_line", n=n, sim=SHORT, backend="fast") for n in (4, 5)]
        with pytest.raises(
            UnsupportedScenarioError,
            match="'fast' backend .* diameter .*; backend=auto runs it on 'reference'",
        ):
            run_sweep(ok + [declined_spec()], cache=ResultCache(tmp_path))
        assert materialisations == []
        assert list(tmp_path.iterdir()) == []

    def test_repeat_of_an_auto_spec_is_a_cache_hit(self, tmp_path, materialisations):
        cache = ResultCache(tmp_path)
        spec = declined_spec("auto")
        run_sweep([spec], cache=cache)
        assert len(materialisations) == 1
        del materialisations[:]
        events = []
        runs, stats = run_sweep([spec], cache=cache, on_event=events.append)
        assert materialisations == []
        assert (stats.cached, stats.executed, stats.fallbacks) == (1, 0, 0)
        assert [(e.kind, e.from_cache, e.spec.backend) for e in events] == [
            ("cached", True, "reference")
        ]
        assert runs[0].from_cache and runs[0].requested_backend is None

    @pytest.mark.parametrize("backend", ["vec", "jit"])
    def test_an_unavailable_backend_is_an_error_before_its_declines(
        self, tmp_path, monkeypatch, capsys, materialisations, backend
    ):
        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        for spec in (declined_spec(backend), scenario("quickstart_line", backend=backend)):
            with pytest.raises(BackendUnavailableError, match=rf"repro\[{backend}\]"):
                resolve_backend(spec)
            with pytest.raises(BackendUnavailableError, match=rf"repro\[{backend}\]"):
                run_sweep([spec], cache=ResultCache(tmp_path))
        assert materialisations == []
        argv = ["run", "quickstart_line", "--set", f"backend={backend}", "--set",
                "sim.track_diameter=true", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert f"repro[{backend}]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_declined_backend_cli_names_the_reason_and_auto(self, tmp_path, capsys):
        argv = ["run", "quickstart_line", "--set", "backend=fast", "--set",
                "algorithm=MaxPropagation", "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "the 'fast' backend runs the AOPT family only" in err
        assert "backend=auto runs it on 'reference'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entry", ["run_sweep", "execute_spec"])
    def test_an_unknown_backend_is_refused_before_anything_is_built(
        self, tmp_path, materialisations, entry
    ):
        spec = scenario("quickstart_line", n=4, backend="warp")
        with pytest.raises(BackendError, match="unknown backend 'warp'; registered: auto"):
            if entry == "run_sweep":
                run_sweep([spec], cache=ResultCache(tmp_path))
            else:
                execute_spec(spec)
        assert materialisations == []
        assert list(tmp_path.iterdir()) == []


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
            assert job.progress[0]["backend"] == "fast"
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
    def test_resubmitting_an_auto_spec_is_terminal_at_submit(self, service):
        spec = declined_spec("auto")
        twin_key = service.cache.key_for(spec.with_backend("reference"))
        first = finished(service.submit([spec]))
        assert first.state == "done" and first.stats["executed"] == 1
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
            assert entry["backend"] == "reference"
            assert entry["result_key"] == twin_key

    @pytest.mark.parametrize("auto_first", [True, False])
    def test_auto_spec_and_its_resolved_twin_run_once(self, service, auto_first):
        spec = declined_spec("auto")
        pair = [spec, spec.with_backend("reference")]
        job = finished(service.submit(pair if auto_first else pair[::-1]))
        assert job.state == "done"
        assert service.counters["specs_executed"] == 1
        assert len({entry["result_key"] for entry in job.progress}) == 1
        assert [bool(e.get("coalesced")) for e in job.progress] == [False, True]

    def test_a_declined_spec_is_refused_at_submit_and_nothing_is_queued(self, service):
        with pytest.raises(ServiceError) as err:
            service.submit([scenario("quickstart_line", n=4, sim=SHORT), declined_spec()])
        assert "'fast' backend does not implement the diameter tracker" in str(err.value)
        assert "backend=auto runs it on 'reference'" in str(err.value)
        assert service.counters["jobs_submitted"] == 0
        assert service.counters["specs_submitted"] == 0

    def test_auto_runs_stream_their_watchdogs_live_then_replay(self, tmp_path):
        """An ``auto`` run is an ordinary inline run: its firings reach
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
                "line_scaling", n=5, until_stable=True, backend="auto",
                sim={"track_diameter": True},
            )
            job = client.wait(client.submit([spec])["id"])
            assert job["specs"][0]["backend"] == "reference"
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
    def test_echo_runs_what_it_accepts_and_refuses_the_rest(self, tmp_path):
        register_backend(EchoBackend())
        try:
            small, large = (
                scenario("quickstart_line", n=n, sim=SHORT, backend="echo") for n in (4, 8)
            )
            cache = ResultCache(tmp_path)
            with pytest.raises(
                UnsupportedScenarioError,
                match=f"echo only hears lines of at most five nodes; "
                f"backend=auto runs it on '{FASTEST}'",
            ):
                run_sweep([small, large], cache=cache)
            assert list(tmp_path.iterdir()) == []
            # auto never picks a backend outside AUTO_ORDER.
            assert resolve_backend(small.with_backend("auto")).backend == FASTEST

            (run,), stats = run_sweep([small], cache=cache)
            assert run.spec.backend == "echo"
            assert (stats.executed, stats.batched, stats.fallbacks) == (1, 0, 0)
            assert cache.load(small)["backend"] == "echo"
            # The same bits as the reference engine, under its own key.
            (reference,), _ = run_sweep([small.with_backend("reference")], cache=cache)
            assert not reference.from_cache
            assert reference.summary == run.summary

            (again,), stats = run_sweep([small], cache=cache)
            assert (stats.cached, stats.executed) == (1, 0)
            assert again.summary == run.summary
        finally:
            del BACKENDS["echo"]
