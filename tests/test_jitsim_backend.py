"""Unit tests for the jitsim subsystem: backend plumbing, provider
resolution, graceful degradation without a compiler, the compiled-library
cache, the cache key, the one-run context builder and executor fallback
accounting."""

import logging

import pytest

from repro.experiments import (
    ExperimentRunner,
    execute_spec,
    registry,
    scenario,
)
from repro.experiments.executor import ResultCache, SweepStats, run_sweep
from repro.fastsim import backend as backend_mod
from repro.fastsim import (
    BackendUnavailableError,
    backend_available,
    get_backend,
)

np = pytest.importorskip("numpy")

from repro.jitsim import providers  # noqa: E402
from repro.jitsim import (  # noqa: E402
    JitEngine,
    ProviderUnavailableError,
    provider_available,
    reset_provider_cache,
)

#: Warnings are errors here: a file handle leaked on a read path, or any other
#: ResourceWarning, fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings("error")


def quick_spec(**overrides):
    defaults = dict(n=5, sim={"duration": 6.0})
    defaults.update(overrides)
    return scenario("quickstart_line", **defaults)


@pytest.fixture
def fresh_providers(monkeypatch):
    """Reset the resolved-provider cache around a test that monkeypatches
    availability probes, and again afterwards so later tests see reality."""
    reset_provider_cache()
    yield monkeypatch
    reset_provider_cache()


class TestJitBackendRegistration:
    def test_jit_backend_is_registered(self):
        backend = get_backend("jit")
        assert backend.name == "jit"

    @pytest.mark.skipif(not provider_available(), reason="no jit provider here")
    def test_build_returns_a_jit_engine(self):
        materialised = registry.build_scenario(quick_spec(backend="jit"))
        engine = get_backend("jit").build(
            materialised.graph, materialised.algorithm_factory, materialised.config
        )
        assert isinstance(engine, JitEngine)


class TestProviderResolution:
    def test_unavailable_without_compiler(self, fresh_providers):
        fresh_providers.setattr(providers, "_cc_usable", lambda: False)
        assert provider_available() is False
        assert backend_available("jit") is False

    def test_build_raises_backend_unavailable(self, fresh_providers):
        fresh_providers.setattr(providers, "_cc_usable", lambda: False)
        materialised = registry.build_scenario(quick_spec(backend="jit"))
        with pytest.raises(BackendUnavailableError) as excinfo:
            get_backend("jit").build(
                materialised.graph,
                materialised.algorithm_factory,
                materialised.config,
            )
        message = str(excinfo.value)
        assert "C compiler" in message
        # The error lists the backends that can actually run.
        assert "fast" in message and "reference" in message

    def test_unavailable_without_numpy(self, fresh_providers):
        fresh_providers.setattr(backend_mod, "_numpy_available", lambda: False)
        assert backend_available("jit") is False

    def test_cli_list_marks_jit_unavailable(self, fresh_providers, capsys):
        from repro.experiments import cli

        fresh_providers.setattr(providers, "_cc_usable", lambda: False)
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "jit [unavailable" in out

    @pytest.mark.skipif(not provider_available(), reason="no jit provider here")
    def test_cli_list_names_the_provider_that_runs(self, capsys):
        from repro.experiments import cli

        assert cli.main(["list"]) == 0
        assert "jit (provider: cc)" in capsys.readouterr().out

    def test_uncreatable_cache_dir_declines_jit(
        self, fresh_providers, tmp_path, capsys
    ):
        """A cache directory under a regular file makes the C provider
        unusable; availability answers ``False`` instead of raising."""
        from repro.experiments import cli
        from repro.service.core import ServiceConfig, SweepService

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        fresh_providers.setenv(providers.CACHE_DIR_ENV, str(blocker / "cache"))
        if providers._find_compiler() is not None:
            with pytest.raises(ProviderUnavailableError):
                providers._compiled_library(providers._find_compiler())
        assert providers._cc_usable() is False
        assert provider_available() is False
        assert backend_available("jit") is False
        service = SweepService(tmp_path / "results", config=ServiceConfig(workers=1))
        assert service.describe()["backends"]["jit"] is False
        assert cli.main(["list"]) == 0
        assert "jit [unavailable" in capsys.readouterr().out

    def test_healthz_reports_backend_availability(self, tmp_path):
        from repro.service.core import ServiceConfig, SweepService

        service = SweepService(
            tmp_path / "cache", config=ServiceConfig(workers=1)
        )
        payload = service.describe()
        assert set(payload["backends"]) == {"fast", "jit", "reference", "vec"}
        assert payload["backends"]["reference"] is True
        assert payload["backends"]["jit"] == backend_available("jit")


@pytest.mark.skipif(
    providers._find_compiler() is None, reason="no C compiler here"
)
class TestCompiledLibraryCache:
    """The C kernel compiles once per source into ``REPRO_JIT_CACHE_DIR``."""

    @pytest.fixture
    def fresh_cache(self, fresh_providers, tmp_path):
        """A fresh cache directory and the list of compiler invocations."""
        cache = tmp_path / "jit-cache"
        fresh_providers.setenv(providers.CACHE_DIR_ENV, str(cache))
        compiles = []
        real_run = providers.subprocess.run

        def counting_run(cmd, *args, **kwargs):
            compiles.append(cmd)
            return real_run(cmd, *args, **kwargs)

        fresh_providers.setattr(providers.subprocess, "run", counting_run)
        return cache, compiles

    def test_compiles_once_then_reuses_the_library(self, fresh_cache):
        cache, compiles = fresh_cache
        assert providers.get_provider().name == "cc"
        assert len(compiles) == 1
        reset_provider_cache()
        assert providers.get_provider().name == "cc"
        assert len(compiles) == 1
        (library,) = cache.iterdir()
        assert library.name.startswith("fused_loop_")
        assert library.suffix == ".so"

    def test_a_run_loads_the_library_it_resolved(self, fresh_cache):
        cache, compiles = fresh_cache
        spec = quick_spec(backend="jit")
        payload = execute_spec(spec)
        assert len(compiles) == 1
        expected = execute_spec(spec.with_backend("reference"))
        assert payload["trace"] == expected["trace"]
        assert payload["summary"] == expected["summary"]

    def test_failing_compiler_leaves_nothing_behind(self, fresh_cache, monkeypatch):
        cache, compiles = fresh_cache
        monkeypatch.setenv("CC", "false")
        assert providers._find_compiler() == "false"
        assert providers._cc_usable() is False
        assert len(compiles) == 1
        assert not cache.exists() or list(cache.iterdir()) == []

    def test_edited_source_gets_its_own_library(self, fresh_cache, tmp_path):
        cache, compiles = fresh_cache
        compiler = providers._find_compiler()
        original = providers._compiled_library(compiler)
        edited = tmp_path / "_fused_loop.c"
        edited.write_bytes(
            providers._source_path().read_bytes() + b"/* edited */\n"
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(providers, "_source_path", lambda: edited)
            rebuilt = providers._compiled_library(compiler)
        assert rebuilt != original
        assert len(compiles) == 2
        assert sorted(cache.iterdir()) == sorted([original, rebuilt])


class TestCacheKey:
    def test_jit_results_get_their_own_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        jit = spec.with_backend("jit")
        assert jit.content_hash() == spec.content_hash()
        assert cache.key_for(jit) != cache.key_for(spec)
        assert cache.key_for(jit) == f"{jit.result_hash()}.jit"
        assert ResultCache.backend_of_key(cache.key_for(jit)) == "jit"

    def test_backend_is_excluded_from_the_content_hash(self):
        spec = quick_spec()
        assert spec.with_backend("jit").content_hash() == spec.content_hash()


@pytest.mark.skipif(not provider_available(), reason="no jit provider here")
class TestOneRunContext:
    def test_build_batch_takes_exactly_one_run(self):
        from repro.fastsim.engine import FastsimError
        from repro.jitsim.engine import build_batch

        sc = registry.build_scenario(quick_spec(backend="jit"))
        run = (sc.graph, sc.algorithm_factory, sc.config)
        engine = build_batch([run])
        assert isinstance(engine, JitEngine)
        assert engine.engines == [engine]
        engine.run(sc.config.duration)
        steps = round(sc.config.duration / sc.config.dt)
        assert engine.fused_steps + engine.stepped_steps == steps
        for runs in ([], [run, run]):
            with pytest.raises(FastsimError, match="exactly one run"):
                build_batch(runs)

    def test_mixed_backend_list_runs_each_on_its_engine(self, tmp_path):
        specs = [quick_spec(backend="jit"), quick_spec(n=6, backend="vec")]
        runs, stats = run_sweep(specs, cache=ResultCache(tmp_path / "mixed"))
        assert stats.executed == 2
        assert [run.spec.backend for run in runs] == ["jit", "vec"]
        assert all(run.requested_backend is None for run in runs)
        expected, _ = run_sweep(
            [spec.with_backend("reference") for spec in specs],
            cache=ResultCache(tmp_path / "reference"),
        )
        for run, reference in zip(runs, expected):
            assert run.summary == reference.summary
            assert run.trace.samples == reference.trace.samples


class TestFallbackAccounting:
    def unsupported_spec(self):
        return scenario(
            "quickstart_line",
            n=4,
            algorithm="MaxPropagation",
            sim={"duration": 2.0},
            backend="jit",
        )

    def test_sweep_stats_tracks_fallback_origin_backends(self):
        stats = SweepStats(total=4)
        stats.count_fallback("jit")
        stats.count_fallback("jit")
        stats.count_fallback("vec")
        assert stats.fallbacks == 3
        assert stats.fallback_backends == {"jit": 2, "vec": 1}
        description = stats.describe()
        assert "3 fell back to reference" in description
        assert "2 from jit" in description
        assert "1 from vec" in description

    @pytest.mark.skipif(not provider_available(), reason="no jit provider here")
    def test_jit_fallback_is_counted_per_backend(self, tmp_path, caplog):
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.executor"
        ):
            runs, stats = runner.run_all([self.unsupported_spec()])
        assert stats.fallbacks == 1
        assert stats.fallback_backends == {"jit": 1}
        (run,) = runs
        assert run.spec.backend == "reference"
        assert run.requested_backend == "jit"
        assert runner.stats.fallback_backends == {"jit": 1}

    def test_sweep_stats_attributes_broadcast_fallbacks(self):
        stats = SweepStats(total=3)
        stats.count_fallback("fast", estimate_mode="broadcast")
        stats.count_fallback("jit")
        assert stats.fallbacks == 2
        assert stats.fallback_backends == {"fast": 1, "jit": 1}
        assert stats.broadcast_fallbacks == {"fast": 1}
        description = stats.describe()
        assert "broadcast-mode fallbacks: 1 from fast" in description

    def test_broadcast_fallback_is_attributed_per_backend(self, tmp_path, caplog):
        """A broadcast spec with a feature the fast engine refuses (the
        diameter tracker) falls back to reference and shows up in the
        broadcast-specific accounting."""
        spec = scenario(
            "line_broadcast",
            n=4,
            sim={"duration": 4.0, "track_diameter": True},
            backend="fast",
        )
        runner = ExperimentRunner(cache_dir=tmp_path, workers=1)
        with caplog.at_level(
            logging.WARNING, logger="repro.experiments.executor"
        ):
            runs, stats = runner.run_all([spec])
        assert stats.fallbacks == 1
        assert stats.fallback_backends == {"fast": 1}
        assert stats.broadcast_fallbacks == {"fast": 1}
        (run,) = runs
        assert run.spec.backend == "reference"
        assert run.requested_backend == "fast"
        assert runner.stats.broadcast_fallbacks == {"fast": 1}
        assert "broadcast-mode fallbacks: 1 from fast" in stats.describe()


class TestUniformConfigMarker:
    def test_aopt_factory_declares_uniform_config(self):
        materialised = registry.build_scenario(quick_spec())
        assert getattr(materialised.algorithm_factory, "uniform_config", False)
