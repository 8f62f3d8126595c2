"""Unit tests for the vecsim subsystem: backend plumbing, kernels, batching,
graceful degradation without numpy, trace striding and executor fallback."""

import logging

import pytest

from repro.experiments import (
    ExperimentRunner,
    batch_key,
    execute_spec,
    execute_specs_batched,
    registry,
    scenario,
)
from repro.experiments.spec import ComponentSpec, ScenarioSpec, SpecError
from repro.fastsim import backend as backend_mod
from repro.fastsim import (
    BackendUnavailableError,
    UnsupportedScenarioError,
    backend_available,
    get_backend,
)

np = pytest.importorskip("numpy")

from repro.vecsim import VecContext, VecEngine, build_batch  # noqa: E402
from repro.vecsim.engine import LazyTraceSample, _mt_transplant_supported  # noqa: E402
from repro.vecsim.kernels import _firing_levels  # noqa: E402


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
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        specs = [quick_spec(backend="vec"), quick_spec(n=6, backend="vec")]
        with pytest.raises(BackendUnavailableError, match="numpy"):
            runner.run_all(specs)


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

    def test_running_backwards_raises(self):
        from repro.sim.engine import EngineError

        engine = self.build()
        engine.run(1.0)
        with pytest.raises(EngineError):
            engine.run_until(0.5)
        with pytest.raises(EngineError):
            engine.run(-1.0)

    def test_step_advances_one_dt(self):
        engine = self.build()
        dt = engine.dt
        engine.step()
        assert engine.time == pytest.approx(dt, abs=0.0)


class TestLazyTraceSample:
    def test_materializes_identical_dicts(self):
        materialised = registry.build_scenario(quick_spec())
        vec = VecEngine(
            materialised.graph, materialised.algorithm_factory, materialised.config
        )
        trace = vec.run(materialised.config.duration)
        sample = trace.final()
        assert isinstance(sample, LazyTraceSample)
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
        delays = plan.delays(None, 0.0, bounds, None, None)
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


class TestRunBatching:
    def batch_specs(self):
        return [
            scenario("line_scaling", n=n, sim={"duration": 12.0}, backend="vec")
            for n in (4, 5, 6)
        ]

    def test_batched_runs_are_bit_identical_to_single_runs(self):
        specs = self.batch_specs()
        singles = [execute_spec(spec) for spec in specs]
        batched = execute_specs_batched(specs)
        for single, batch in zip(singles, batched):
            assert single["trace"] == batch["trace"]
            assert single["summary"] == batch["summary"]
            assert single["meta"] == batch["meta"]

    def test_build_batch_rejects_mixed_dt(self):
        from repro.fastsim.engine import FastsimError

        a = registry.build_scenario(quick_spec())
        b = registry.build_scenario(quick_spec(dt=0.1))
        with pytest.raises(FastsimError, match="dt"):
            build_batch(
                [
                    (a.graph, a.algorithm_factory, a.config),
                    (b.graph, b.algorithm_factory, b.config),
                ]
            )

    def test_batched_engine_cannot_run_alone(self):
        from repro.fastsim.engine import FastsimError

        a = registry.build_scenario(quick_spec())
        b = registry.build_scenario(quick_spec(n=6))
        context = build_batch(
            [
                (a.graph, a.algorithm_factory, a.config),
                (b.graph, b.algorithm_factory, b.config),
            ]
        )
        with pytest.raises(FastsimError, match="batched"):
            context.engines[0].run(1.0)

    def test_batch_key_groups_compatible_vec_specs(self):
        specs = self.batch_specs()
        keys = {batch_key(spec) for spec in specs}
        assert len(keys) == 1
        assert batch_key(specs[0].with_backend("fast")) is None
        different = scenario(
            "line_scaling", n=4, sim={"duration": 99.0}, backend="vec"
        )
        assert batch_key(different) != batch_key(specs[0])

    def test_runner_batches_vec_misses(self, tmp_path):
        specs = self.batch_specs()
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        runs, stats = runner.run_all(specs)
        assert stats.executed == 3
        assert stats.batched == 3
        # Batched executor results equal per-run execution, bit for bit.
        for spec, run in zip(specs, runs):
            expected = execute_spec(spec)
            assert run.summary.to_dict() == expected["summary"]
        # The second sweep is served from cache.
        runs2, stats2 = runner.run_all(specs)
        assert stats2.cached == 3
        assert [r.summary for r in runs2] == [r.summary for r in runs]

    def test_a_one_spec_sweep_never_batches(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        for spec in self.batch_specs():
            runner.run(spec)
        assert runner.stats.executed == 3
        assert runner.stats.batched == 0


class TestExecutorFallback:
    def unsupported_spec(self, backend):
        return scenario(
            "quickstart_line",
            n=4,
            algorithm="MaxPropagation",
            sim={"duration": 2.0},
            backend=backend,
        )

    @pytest.mark.parametrize("backend", ["fast", "vec"])
    def test_falls_back_to_reference_with_warning(self, tmp_path, caplog, backend):
        spec = self.unsupported_spec(backend)
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
            runs, stats = runner.run_all([spec])
        assert stats.fallbacks == 1
        (run,) = runs
        assert run.spec.backend == "reference"
        assert run.requested_backend == backend
        assert any("falling back" in record.message for record in caplog.records)
        # The result is the reference result.
        expected = execute_spec(spec.with_backend("reference"))
        assert run.summary.to_dict() == expected["summary"]
        # A repeated sweep serves the fallback from the reference cache and
        # reports it as cached, not executed.
        runs2, stats2 = runner.run_all([spec])
        assert stats2.cached == 1
        assert stats2.executed == 0
        assert runs2[0].from_cache is True

    def test_strict_backend_raises_instead(self, tmp_path):
        spec = self.unsupported_spec("vec")
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1, strict_backend=True)
        with pytest.raises(UnsupportedScenarioError):
            runner.run_all([spec])

    def test_fallback_works_through_the_worker_pool(self, tmp_path, caplog):
        specs = [self.unsupported_spec("vec"), self.unsupported_spec("fast")]
        runner = ExperimentRunner(cache_dir=tmp_path, workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.executor"):
            runs, stats = runner.run_all(specs)
        assert stats.fallbacks == 2
        assert all(run.spec.backend == "reference" for run in runs)


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
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        plain = self.strided(1)
        strided = self.strided(4)
        assert runner.cache.path_for(plain) != runner.cache.path_for(strided)
        assert ".s4" in runner.cache.path_for(strided).name
        runner.run_all([plain, strided])
        _, stats = runner.run_all([plain, strided])
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
