"""Unit tests for the jitsim subsystem: backend plumbing, provider
resolution, graceful degradation without a compiler, the compiled-library
cache, the cache key, the one-run context builder and the fused kernel's
buffer bounds at their extremes."""

from dataclasses import replace

import pytest

from repro.experiments import (
    execute_spec,
    registry,
    scenario,
)
from repro.experiments.executor import ResultCache, run_sweep
from repro.experiments.spec import ComponentSpec
from repro.fastsim import backend as backend_mod
from repro.fastsim import (
    BackendUnavailableError,
    backend_available,
    get_backend,
)

np = pytest.importorskip("numpy")

from repro.jitsim import engine as jit_engine  # noqa: E402
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
        expected, _ = run_sweep(
            [spec.with_backend("reference") for spec in specs],
            cache=ResultCache(tmp_path / "reference"),
        )
        for run, reference in zip(runs, expected):
            assert run.summary == reference.summary
            assert run.trace.samples == reference.trace.samples


def bound_spec(delay, interval, edge_delay, trace="full"):
    """A 12-node line without drift, so every step is fusible."""
    spec = scenario(
        "quickstart_line",
        n=12,
        sim={"duration": 40.0, "broadcast_interval": interval},
    )
    return replace(
        spec,
        drift=ComponentSpec("none"),
        delay=ComponentSpec(*delay),
        edge={**spec.edge, "delay": edge_delay},
    ).with_trace(trace)


@pytest.fixture
def fast_and_jit(monkeypatch):
    """Runs a spec on ``fast`` and ``jit``, holds the two payloads equal and
    returns how many samples each fused segment recorded."""
    recorded = []
    run_segment = JitEngine._run_segment

    def spy(self, steps, snaps, next_sample):
        recorded.append(len(snaps))
        return run_segment(self, steps, snaps, next_sample)

    monkeypatch.setattr(JitEngine, "_run_segment", spy)

    def run_both(spec):
        recorded.clear()
        fast = execute_spec(spec.with_backend("fast"))
        jit = execute_spec(spec.with_backend("jit"))
        for key in ("summary", "observers", "trace", "meta"):
            assert jit[key] == fast[key], key
        assert recorded, "no step ran fused"
        return list(recorded)

    return run_both


@pytest.mark.skipif(not provider_available(), reason="no jit provider here")
class TestBufferBoundsAtTheirExtremes:
    """The message slots are sized from the in-flight window (longest delay
    over dt, and one send per broadcast interval); a wrong bound fails the
    run with a buffer overflow.  An interval of 0.05 (= dt) fires every
    sender every step; a delay of 5.0 keeps 100 steps of sends in flight;
    ``zero`` delivers every send at the next step."""

    @pytest.mark.parametrize(
        "delay",
        [("uniform", {}), ("fixed_fraction", {"fraction": 1.0}), ("zero", {})],
        ids=lambda delay: delay[0],
    )
    @pytest.mark.parametrize(
        "interval, edge_delay", [(0.05, 5.0), (1.0, 0.3)], ids=["dense", "sparse"]
    )
    def test_jit_equals_fast(self, fast_and_jit, delay, interval, edge_delay):
        fast_and_jit(bound_spec(delay, interval, edge_delay))

    @pytest.mark.parametrize("trace", ["full", "none"])
    def test_snapshot_cap_splits_segments_without_changing_a_bit(
        self, fast_and_jit, monkeypatch, trace
    ):
        monkeypatch.setattr(jit_engine, "_MAX_SEGMENT_SNAPSHOT", 40)
        samples = fast_and_jit(bound_spec(("uniform", {}), 0.05, 5.0, trace))
        assert max(samples) == 40 // 12
        assert len(samples) > 10


class TestUniformConfigMarker:
    def test_aopt_factory_declares_uniform_config(self):
        materialised = registry.build_scenario(quick_spec())
        assert getattr(materialised.algorithm_factory, "uniform_config", False)
