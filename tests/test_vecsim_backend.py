"""Unit tests for the vecsim subsystem: backend plumbing, kernels, the CSR
view, graceful degradation without numpy, trace striding and ``auto`` in
the executor."""

import itertools

import pytest

from conftest import needs_jit, staged_insertion_spec
from repro.core.aopt_step import MODE_FREE, evaluate_mode_flat
from repro.experiments import (
    execute_spec,
    executor,
    registry,
    results,
    scenario,
)
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.experiments.executor import ResultCache, run_sweep
from repro.experiments.spec import ScenarioSpec, SpecError
from repro.fastsim import backend as backend_mod
from repro.fastsim import (
    BackendUnavailableError,
    UnsupportedScenarioError,
    backend_available,
    get_backend,
)
from repro.sim.trace import TraceSample

np = pytest.importorskip("numpy")

from repro.vecsim import VecEngine, kernels  # noqa: E402
from repro.vecsim.engine import _mt_transplant_supported  # noqa: E402
from repro.vecsim.kernels import _firing_levels  # noqa: E402


BACKENDS = ["vec", pytest.param("jit", marks=needs_jit)]


def quick_spec(**overrides):
    defaults = dict(n=5, sim={"duration": 6.0})
    defaults.update(overrides)
    return scenario("quickstart_line", **defaults)


class TestVecBackendRegistration:
    def test_vec_backend_is_registered_and_available(self):
        assert backend_available("vec") is True
        backend = get_backend("vec")
        assert backend.name == "vec"

    def test_build_returns_a_vec_engine(self):
        materialised = registry.build_scenario(quick_spec(backend="vec"))
        engine = get_backend("vec").build(
            materialised.graph, materialised.algorithm_factory, materialised.config
        )
        assert isinstance(engine, VecEngine)

    def test_reference_and_fast_report_available(self):
        assert backend_available("reference") is True
        assert backend_available("fast") is True


class TestNumpyMissingDegradation:
    def test_build_raises_backend_unavailable(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        materialised = registry.build_scenario(quick_spec())
        with pytest.raises(BackendUnavailableError) as excinfo:
            get_backend("vec").build(
                materialised.graph, materialised.algorithm_factory, materialised.config
            )
        message = str(excinfo.value)
        assert "numpy" in message
        # The error lists the backends that can actually run.
        assert "fast" in message and "reference" in message

    def test_backend_stays_registered_but_unavailable(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        assert "vec" in backend_mod.backend_names()
        assert backend_available("vec") is False
        assert backend_mod.available_backend_names() == ["fast", "reference"]

    def test_cli_list_marks_unavailable_backend(self, monkeypatch, capsys):
        from repro.experiments import cli

        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vec [unavailable" in out

    def test_cli_list_shows_plain_names_when_available(self, capsys):
        from repro.experiments import cli

        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vec" in out
        assert "unavailable" not in out

    def test_runner_surfaces_unavailable_backend(self, monkeypatch, tmp_path):
        monkeypatch.setattr(backend_mod, "_numpy_available", lambda: False)
        specs = [quick_spec(backend="vec"), quick_spec(n=6, backend="vec")]
        with pytest.raises(BackendUnavailableError, match="numpy"):
            run_sweep(specs, cache=ResultCache(tmp_path))


class TestVecEngineSurface:
    def build(self):
        materialised = registry.build_scenario(quick_spec())
        return VecEngine(
            materialised.graph, materialised.algorithm_factory, materialised.config
        )

    def test_snapshots_and_skew(self):
        engine = self.build()
        engine.run(5.0)
        logical = engine.logical_snapshot()
        assert sorted(logical) == [0, 1, 2, 3, 4]
        assert engine.global_skew() == pytest.approx(
            max(logical.values()) - min(logical.values()), abs=0.0
        )
        assert engine.logical_value(0) == logical[0]
        assert engine.hardware_value(0) == engine.hardware_snapshot()[0]
        assert engine.current_diameter() is None

    def test_algorithm_view_exposes_levels_and_mode(self):
        engine = self.build()
        engine.run(2.0)
        view = engine.algorithm(1)
        assert view.mode() in ("slow", "fast")
        assert view.levels.subset_chain_holds()
        assert view.neighbor_level(0) is not None

    def test_unsupported_configurations_raise(self):
        from repro.baselines.max_algorithm import max_propagation_factory

        materialised = registry.build_scenario(quick_spec())
        with pytest.raises(UnsupportedScenarioError, match="AOPT"):
            VecEngine(
                materialised.graph,
                max_propagation_factory(materialised.config.params.rho),
                materialised.config,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_running_backwards_raises(self, backend):
        from repro.sim.engine import EngineError

        engine = get_backend(backend).build(*materialise(quick_spec()))
        engine.run(1.0)
        with pytest.raises(EngineError):
            engine.run_until(0.5)
        with pytest.raises(EngineError):
            engine.run(-1.0)

    @pytest.mark.parametrize("backend", ["reference", "fast"] + BACKENDS)
    def test_a_stopped_engine_is_frozen(self, backend):
        """After an armed watchdog trips, a later ``run_until`` records, feeds
        and steps nothing, on every backend."""
        spec = scenario("line_scaling", n=6, until_stable=True)
        built = registry.build_scenario(spec)
        engine = get_backend(backend).build(
            built.graph, built.algorithm_factory, built.config
        )
        pipeline = results.build_run_pipeline(
            spec,
            graph=built.graph,
            base_edges=built.base_edges,
            config=built.config,
            meta=built.meta,
            global_skew_bound=built.global_skew_bound,
        )
        engine.configure_recording(pipeline)
        engine.run(built.config.duration)
        assert engine.stopped_early is True
        frozen = (len(engine.trace), pipeline.sample_count, engine.time)
        for end_time in (engine.time, built.config.duration):
            engine.run_until(end_time)
            assert (len(engine.trace), pipeline.sample_count, engine.time) == frozen
            assert engine.stopped_early is True

    def test_step_advances_one_dt(self):
        engine = self.build()
        dt = engine.dt
        engine.step()
        assert engine.time == pytest.approx(dt, abs=0.0)


class TestArraySamples:
    def test_materializes_identical_dicts(self):
        materialised = registry.build_scenario(quick_spec())
        vec = VecEngine(
            materialised.graph, materialised.algorithm_factory, materialised.config
        )
        trace = vec.run(materialised.config.duration)
        sample = trace.final()
        assert isinstance(sample, TraceSample)
        assert all(isinstance(column, np.ndarray) for column in sample.columns)
        # Dicts materialize lazily and are cached.
        logical = sample.logical
        assert sample.logical is logical
        assert sorted(logical) == sorted(vec.nodes)
        assert set(sample.modes.values()) <= {"slow", "fast", "free"}
        # The sample methods agree with the dict contents.
        values = list(logical.values())
        assert sample.global_skew() == max(values) - min(values)
        assert sample.skew(0, 1) == abs(logical[0] - logical[1])


class TestMersenneTransplant:
    def test_numpy_stream_matches_python_stream(self):
        assert _mt_transplant_supported() is True

    def test_uniform_plan_consumes_the_python_stream(self):
        import random

        from repro.sim.delay import UniformRandomDelay
        from repro.vecsim.engine import _UniformDelayPlan

        model = UniformRandomDelay(0.2, 0.8, seed=99)
        shadow = random.Random(99)
        plan = _UniformDelayPlan(model)
        bounds = np.full(64, 2.0)
        delays = plan.delays(bounds)
        expected = [
            min(shadow.uniform(0.2, 0.8) * 2.0, 2.0) for _ in range(64)
        ]
        assert delays.tolist() == expected
        # The stream hands over exactly where the batch stopped.
        plan.sync_python_rng()
        assert model._rng.random() == shadow.random()


class TestFiringLevels:
    def test_matches_bruteforce_prefix_counts(self):
        rng = np.random.RandomState(7)
        tables = np.sort(rng.rand(3, 4, 6), axis=2)
        table_id = rng.randint(0, 3, size=40)
        values = rng.rand(40) * 1.2
        for row in range(4):
            for side, op in (("right", np.greater_equal), ("left", np.greater)):
                counts = _firing_levels(values, tables, table_id, 3, row, side)
                for k in range(len(values)):
                    brute = int(op(values[k], tables[table_id[k], row]).sum())
                    assert counts[k] == brute


class TestOneEnginePerRun:
    @needs_jit
    def test_every_swept_spec_runs_through_execute_spec(self, tmp_path, monkeypatch):
        """Equal-duration vec and jit misses execute one spec at a time."""
        calls = []
        original = results.execute_spec

        def counted(spec, sink=None):
            calls.append(spec.backend)
            return original(spec, sink)

        # ``run_sweep`` calls the executor's re-export of the same function.
        monkeypatch.setattr(results, "execute_spec", counted)
        monkeypatch.setattr(executor, "execute_spec", counted)
        specs = [
            scenario("line_scaling", n=n, sim={"duration": 12.0}, backend=backend)
            for backend in ("vec", "jit")
            for n in (4, 5, 6)
        ]
        _, stats = run_sweep(specs, cache=ResultCache(tmp_path))
        assert calls == ["vec"] * 3 + ["jit"] * 3
        assert stats.executed == 6


def materialise(spec):
    sc = registry.build_scenario(spec)
    return sc.graph, sc.algorithm_factory, sc.config


def extremum_path(engine) -> bool:
    """Whether the engine's current CSR view takes the extremum trigger path."""
    return engine._view.row_thresholds is not None


class TestCSRView:
    def test_insertion_leaves_the_extremum_path_and_returns(self):
        engine = VecEngine(*materialise(staged_insertion_spec()))
        history = []
        while engine.time < 45.0 - 1e-9:
            engine.step()
            history.append(extremum_path(engine))
        # Static before the edge appears, general while it climbs the
        # levels, extremum again once it reached the top level.
        assert [key for key, _ in itertools.groupby(history)] == [True, False, True]

    def test_churn_rebuilds_the_view_with_the_csr(self):
        spec = scenario(
            "grid_periodic_churn", rows=3, cols=3, churn_period=6.0, duration=45.0
        )
        engine = VecEngine(*materialise(spec))
        view = None
        rebuilds = 0
        while engine.time < 45.0 - 1e-9:
            engine.step()
            if engine._view is not view:
                view = engine._view
                rebuilds += 1
        assert rebuilds == engine._csr_generation > 2

    @pytest.mark.parametrize(
        "spec, width",
        [
            (bench_spec("grid", 16), 4),
            (scenario("star_hub_failover", n=12, failover_time=8.0, duration=20.0), None),
            (bench_spec("line", 10), 2),
        ],
        ids=["grid", "star", "line"],
    )
    def test_a_grid_is_dense_and_a_star_is_reduceat(self, spec, width):
        """Dense rows pad to the maximum degree; a hub graph keeps reduceat."""
        engine = VecEngine(*materialise(spec))
        engine._refresh_structure()
        view = engine._view
        assert (None if view._pad is None else len(view._pad)) == width
        values = np.random.RandomState(5).rand(view.edge_count)
        got = view.row_max_values(values)
        indptr = engine._csr.indptr
        for i in range(engine.n):
            row = values[indptr[i] : indptr[i + 1]]
            assert got[i] == (row.max() if len(row) else -np.inf)


class TestExtremumBranchUnit:
    """``evaluate_modes_vec`` on a two-table view == the scalar kernel per node."""

    def build(self):
        """Line 80 cut into an empty row, 9 nodes on narrow edges, 70 on wide ones."""
        graph, factory, config = materialise(bench_spec("line", 80))
        graph.remove_edge(0, 1)
        graph.remove_edge(9, 10)
        narrow = graph.edge_params(1, 2).scaled(0.5)
        for u in range(1, 9):
            graph.set_edge_params(u, u + 1, narrow)
        engine = VecEngine(graph, factory, config)
        engine._refresh_structure()
        return engine, engine._view

    def scalar_modes(self, engine, ahead, logical, max_estimate, mode):
        csr = engine._csr
        iota = engine.aopt_params.iota
        expected = []
        for i in range(engine.n):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            code = evaluate_mode_flat(
                logical[i],
                max_estimate[i],
                iota,
                hi - lo,
                ahead[lo:hi].tolist(),
                csr.level[lo:hi],
                csr.tables[lo:hi],
            )
            expected.append(mode[i] if code == MODE_FREE else code)
        return expected

    def test_two_tables_and_an_empty_row(self):
        engine, view = self.build()
        n = engine.n
        iota = engine.aopt_params.iota
        assert len(view.thresholds) == 2
        assert view.row_thresholds.shape == (4, engine.max_level, n)
        assert view.empty.sum() == 1
        rng = np.random.RandomState(11)
        finite = view.thresholds[np.isfinite(view.thresholds)]
        seen = set()
        for _ in range(40):
            # Exact threshold values (the >= / > boundary), their negations
            # and values in between.
            ahead = rng.choice(finite, size=view.edge_count) * rng.choice(
                [-1.0, 1.0, 0.5, -0.5, 1.5], size=view.edge_count
            )
            logical = rng.rand(n) * 50.0
            max_estimate = logical + rng.choice([0.0, 1e-10, 0.3, 5.0], size=n)
            mode = rng.randint(0, 2, size=n)
            expected = self.scalar_modes(engine, ahead, logical, max_estimate, mode)
            got = kernels.evaluate_modes_vec(
                view, ahead.copy(), logical, max_estimate, iota, mode
            )
            assert got.tolist() == expected
            seen.update(expected)
            # The general path agrees on the same inputs.
            thresholds, view.row_thresholds = view.row_thresholds, None
            try:
                general = kernels.evaluate_modes_vec(
                    view, ahead.copy(), logical, max_estimate, iota, mode
                )
            finally:
                view.row_thresholds = thresholds
            assert general.tolist() == expected
        assert seen == {0, 1}


def static_trio(duration=12.0, dt=0.05):
    """Grid 8x8 + line 80 + random 8: three tables, ``max_level`` 6 / 7 / 5."""
    return [
        bench_spec(kind, n, duration=duration, dt=dt)
        for kind, n in (("grid", 64), ("line", 80), ("random", 8))
    ]


def churn_spec(duration=45.0):
    return scenario(
        "grid_periodic_churn", rows=3, cols=3, churn_period=6.0, duration=duration
    )


def static_grid(duration=45.0):
    return bench_spec("grid", 16, duration=duration, dt=0.1)


def dynamic_trio():
    """An insertion, a hub failover and a drifting ring: three dynamic views."""
    return [
        scenario("end_to_end_insertion", n=5, insertion_time=5.0, sim={"duration": 30.0}),
        scenario("star_hub_failover", n=6, failover_time=8.0, duration=30.0),
        scenario("ring_sinusoidal_drift", n=7, duration=30.0),
    ]


def broadcast_trio():
    """Broadcast estimates: two intervals, and a delay storm on churning edges."""
    return [
        scenario("line_broadcast", n=5, sim={"duration": 25.0}),
        scenario("line_broadcast", n=7, sim={"broadcast_interval": 0.5, "duration": 25.0}),
        scenario("random_broadcast_delay_storm", n=6, duration=25.0),
    ]


PAYLOAD_KEYS = ("summary", "observers", "trace", "meta")


def assert_runs_equal_reference(specs, backend):
    """Runs executed one after another in one process == each on ``reference``.

    The specs differ in threshold tables, ``max_level`` and dynamics, so
    any state a run leaves behind (kernel scratch, rng, CSR views) would
    show up in the run after it.
    """
    specs = [spec.with_backend(backend) for spec in specs]
    payloads = [execute_spec(spec) for spec in specs]
    for spec, payload in zip(specs, payloads):
        reference = execute_spec(spec.with_backend("reference"))
        for key in PAYLOAD_KEYS:
            assert payload[key] == reference[key], (spec.label, key)


class TestRunsOneAfterAnother:
    def test_the_static_trio_really_is_mixed(self):
        views = []
        for spec in static_trio():
            engine = VecEngine(*materialise(spec))
            engine._refresh_structure()
            views.append((engine, engine._view))
        assert [engine.max_level for engine, _ in views] == [6, 7, 5]
        assert len({view.thresholds.tobytes() for _, view in views}) == 3
        for engine, view in views:
            assert len(view.thresholds) == 1
            assert view.row_thresholds.shape == (4, engine.max_level)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trace", ["full", "none"])
    def test_static_trio(self, backend, trace):
        specs = static_trio()
        if trace == "none":
            specs = [
                spec.with_trace("none").with_observers(*BENCH_OBSERVERS)
                for spec in specs
            ]
        assert_runs_equal_reference(specs, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("trio", [dynamic_trio, broadcast_trio])
    def test_dynamic_and_broadcast_trios(self, backend, trio):
        assert_runs_equal_reference(trio(), backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dynamic", [staged_insertion_spec, churn_spec])
    def test_static_grid_with_a_dynamic_run(self, backend, dynamic):
        assert_runs_equal_reference([static_grid(), dynamic()], backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("make_spec", [static_grid, staged_insertion_spec, churn_spec])
    def test_messages_are_counted_per_run(self, backend, make_spec):
        """Sent and delivered counts equal the scalar engine's."""
        spec = make_spec()
        engine = get_backend(backend).build(*materialise(spec))
        engine.run(45.0)
        scalar = get_backend("fast").build(*materialise(spec))
        scalar.run(45.0)
        assert scalar.delivered_count > 0
        assert (engine.sent_count, engine.delivered_count) == (
            scalar.sent_count,
            scalar.delivered_count,
        )


class TestExtremumEligibility:
    """The extremum trigger path is taken iff every row is on one table at the top level."""

    @pytest.mark.parametrize(
        "spec, outcomes",
        [
            *[(spec, {True}) for spec in static_trio()],
            (staged_insertion_spec(), {True, False}),
            (churn_spec(), {True, False}),
            (
                scenario("star_hub_failover", n=12, failover_time=8.0, duration=20.0),
                {True, False},
            ),
        ],
        ids=["grid", "line", "random", "insertion", "churn", "star"],
    )
    def test_eligible_iff_every_row_is_on_one_table_at_the_top(self, spec, outcomes):
        """Static runs stay on the extremum path; dynamic ones also leave it."""
        engine = VecEngine(*materialise(spec))
        seen = set()
        while engine.time < spec.sim["duration"] - 1e-9:
            engine.step()
            engine._refresh_structure()
            engine._refresh_levels()
            csr = engine._csr
            rows = [
                csr.tables[csr.indptr[i] : csr.indptr[i + 1]] for i in range(engine.n)
            ]
            expected = all(len(set(row)) <= 1 for row in rows) and all(
                level == engine.max_level for level in csr.level
            )
            assert extremum_path(engine) == expected
            seen.add(expected)
        assert seen == outcomes


class TestExecutorAuto:
    def unsupported_spec(self, backend):
        return scenario(
            "quickstart_line",
            n=4,
            algorithm="MaxPropagation",
            sim={"duration": 2.0},
            backend=backend,
        )

    @pytest.mark.parametrize("backend", ["fast", "vec"])
    def test_declined_is_refused_and_auto_runs_it_on_reference(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        with pytest.raises(UnsupportedScenarioError, match="backend=auto runs it on"):
            run_sweep([self.unsupported_spec(backend)], cache=cache)
        spec = self.unsupported_spec("auto")
        runs, stats = run_sweep([spec], cache=cache)
        assert stats.executed == 1
        (run,) = runs
        assert run.spec.backend == "reference"
        # The result is the reference result.
        expected = execute_spec(spec.with_backend("reference"))
        assert run.summary.to_dict() == expected["summary"]
        # A repeated sweep serves it from the reference entry and reports it
        # as cached, not executed.
        runs2, stats2 = run_sweep([spec], cache=cache)
        assert stats2.cached == 1
        assert stats2.executed == 0
        assert runs2[0].from_cache is True

    def test_declined_raises_before_anything_is_stored(self, tmp_path):
        with pytest.raises(UnsupportedScenarioError):
            run_sweep([self.unsupported_spec("vec")], cache=ResultCache(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_auto_works_through_the_worker_pool(self, tmp_path):
        specs = [self.unsupported_spec("auto"), quick_spec(backend="auto")]
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path), workers=2)
        assert stats.executed == 2
        fastest = "jit" if backend_available("jit") else "fast"
        assert [run.spec.backend for run in runs] == ["reference", fastest]


class TestTraceStride:
    def strided(self, stride, backend="reference"):
        return scenario(
            "quickstart_line",
            n=5,
            sim={"duration": 12.0},
            trace_stride=stride,
            backend=backend,
        )

    def test_stride_is_excluded_from_the_content_hash(self):
        base = self.strided(1)
        strided = self.strided(5)
        assert strided.trace_stride == 5
        assert strided.content_hash() == base.content_hash()
        assert strided.base_seed() == base.base_seed()
        assert strided != base

    def test_stride_round_trips_and_validates(self):
        spec = self.strided(4)
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored.trace_stride == 4
        assert restored == spec
        with pytest.raises(SpecError):
            self.strided(0)
        with pytest.raises(SpecError):
            self.strided(1).with_trace_stride(2.5)

    def test_strided_trace_records_every_kth_sample(self):
        full = execute_spec(self.strided(1))
        strided = execute_spec(self.strided(3))
        full_times = [s["time"] for s in full["trace"]["samples"]]
        strided_times = [s["time"] for s in strided["trace"]["samples"]]
        assert len(strided_times) < len(full_times)
        # Every strided sample (except the forced final one) appears in the
        # full run at the same time with identical state.
        full_by_time = {s["time"]: s for s in full["trace"]["samples"]}
        for sample in strided["trace"]["samples"]:
            assert sample == full_by_time[sample["time"]]

    def test_strided_summaries_agree_across_backends(self):
        reference = execute_spec(self.strided(3, backend="reference"))
        vec = execute_spec(self.strided(3, backend="vec"))
        fast = execute_spec(self.strided(3, backend="fast"))
        assert reference["trace"] == vec["trace"] == fast["trace"]
        assert reference["summary"] == vec["summary"] == fast["summary"]

    def test_stride_gets_its_own_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        plain = self.strided(1)
        strided = self.strided(4)
        assert plain.content_hash() == strided.content_hash()
        assert cache.path_for(plain) != cache.path_for(strided)
        assert cache.key_for(strided) == f"{strided.result_hash()}.reference"
        run_sweep([plain, strided], cache=cache)
        _, stats = run_sweep([plain, strided], cache=cache)
        assert stats.cached == 2

    def test_cli_accepts_trace_stride_override(self, tmp_path, capsys):
        from repro.experiments import cli

        assert (
            cli.main(
                [
                    "run",
                    "quickstart_line",
                    "--set",
                    "n=4",
                    "--set",
                    "sim.duration=2.0",
                    "--set",
                    "trace_stride=2",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
