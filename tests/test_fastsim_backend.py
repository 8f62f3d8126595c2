"""Unit tests for the fastsim subsystem: backends, spec field, flat kernels."""

import random

import pytest

from repro.core.aopt_step import (
    MODE_FAST,
    MODE_FREE,
    MODE_NAMES,
    MODE_SLOW,
    edge_threshold_table,
    evaluate_mode_flat,
)
from repro.core.parameters import Parameters
from repro.core.triggers import NeighborView, evaluate_triggers
from repro.experiments import scenario
from repro.experiments.spec import ScenarioSpec, SpecError
from repro.fastsim import (
    BackendError,
    FastEngine,
    UnsupportedScenarioError,
    backend_names,
    get_backend,
    register_backend,
)
from repro.network import topology
from repro.network.edge import EdgeParams
from repro.sim.engine import EngineError
from repro.sim.runner import SimulationConfig


class TestBackendRegistry:
    def test_builtin_backends_are_registered(self):
        assert backend_names() == ["fast", "jit", "reference", "vec"]
        assert get_backend("fast").name == "fast"
        assert get_backend("jit").name == "jit"
        assert get_backend("reference").name == "reference"
        assert get_backend("vec").name == "vec"

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(BackendError, match="fast, jit, reference"):
            get_backend("warp")

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(BackendError):
            register_backend(get_backend("fast"))


class TestSpecBackendField:
    def test_default_backend_is_reference(self):
        spec = scenario("quickstart_line", n=4)
        assert spec.backend == "reference"

    def test_backend_is_excluded_from_the_content_hash(self):
        spec = scenario("quickstart_line", n=4)
        fast = spec.with_backend("fast")
        assert fast.backend == "fast"
        assert fast.content_hash() == spec.content_hash()
        assert fast.base_seed() == spec.base_seed()
        assert fast != spec  # still distinct specs

    def test_backend_round_trips_through_dict(self):
        spec = scenario("quickstart_line", n=4, backend="fast")
        assert spec.backend == "fast"
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored.backend == "fast"
        assert restored == spec

    def test_scenario_builder_accepts_backend_override(self):
        spec = scenario("line_scaling", n=4, backend="fast")
        assert spec.backend == "fast"
        # The override must not leak into the builder arguments.
        assert "backend" not in spec.topology.args

    def test_empty_backend_is_rejected(self):
        with pytest.raises(SpecError):
            scenario("quickstart_line", n=4).with_backend("")

    def test_execute_spec_and_run_sweep_reject_unknown_backend(self, tmp_path):
        from repro.experiments import ResultCache, execute_spec, run_sweep

        spec = scenario("quickstart_line", n=4, backend="warp")
        with pytest.raises(BackendError, match="unknown backend 'warp'; registered: auto"):
            execute_spec(spec)
        with pytest.raises(BackendError, match="unknown backend 'warp'; registered: auto"):
            run_sweep([spec], cache=ResultCache(tmp_path))
        assert list(tmp_path.iterdir()) == []


def small_config(**overrides):
    defaults = dict(
        params=Parameters(rho=0.015, mu=0.1),
        dt=0.1,
        duration=5.0,
        estimate_strategy="toward_observer",
        delay_seed=7,
        estimate_seed=8,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestUnsupportedConfigurations:
    def graph(self):
        return topology.line(4, EdgeParams(epsilon=1.0, tau=0.5, delay=2.0))

    def aopt_factory(self, config=None, graph=None):
        from repro.sim.runner import default_aopt_config
        from repro.core.algorithm import aopt_factory

        graph = graph or self.graph()
        config = config or small_config()
        return aopt_factory(default_aopt_config(graph, config))

    def test_broadcast_estimates_are_supported(self):
        # Broadcast estimate mode runs on the fast path (the equivalence
        # suite asserts bit-identity; here we just assert it builds and runs).
        config = small_config(estimate_mode="broadcast", estimate_strategy="zero")
        engine = FastEngine(self.graph(), self.aopt_factory(config), config)
        trace = engine.run(config.duration)
        assert len(trace.samples) > 0
        assert engine.sent_count > 0

    def test_diameter_tracker_is_unsupported(self):
        config = small_config(track_diameter=True)
        with pytest.raises(UnsupportedScenarioError, match="diameter"):
            FastEngine(self.graph(), self.aopt_factory(), config)

    def test_non_aopt_algorithms_are_unsupported(self):
        from repro.baselines.max_algorithm import max_propagation_factory

        config = small_config()
        with pytest.raises(UnsupportedScenarioError, match="AOPT"):
            FastEngine(self.graph(), max_propagation_factory(config.params.rho), config)

    def test_executor_surfaces_unsupported_configs(self):
        spec = scenario(
            "line_scaling",
            n=4,
            algorithm="MaxPropagation",
            sim={"duration": 2.0},
            backend="fast",
        )
        from repro.experiments import execute_spec

        with pytest.raises(UnsupportedScenarioError):
            execute_spec(spec)


class TestFastEngineSurface:
    def build(self):
        graph = topology.line(4, EdgeParams(epsilon=1.0, tau=0.5, delay=2.0))
        from repro.sim.runner import default_aopt_config
        from repro.core.algorithm import aopt_factory

        config = small_config()
        return FastEngine(graph, aopt_factory(default_aopt_config(graph, config)), config)

    def test_snapshots_and_skew(self):
        engine = self.build()
        engine.run(5.0)
        logical = engine.logical_snapshot()
        assert sorted(logical) == [0, 1, 2, 3]
        assert engine.global_skew() == max(logical.values()) - min(logical.values())
        assert engine.logical_value(0) == logical[0]
        assert engine.hardware_value(0) == engine.hardware_snapshot()[0]
        assert engine.current_diameter() is None

    def test_algorithm_view_exposes_levels_and_mode(self):
        engine = self.build()
        engine.run(2.0)
        view = engine.algorithm(1)
        assert view.mode() in ("slow", "fast")
        assert view.max_estimate() >= 0.0
        assert view.levels.subset_chain_holds()
        assert view.neighbor_level(0) is not None

    def test_unknown_node_raises(self):
        engine = self.build()
        with pytest.raises(EngineError):
            engine.logical_value(99)

    def test_running_backwards_raises(self):
        engine = self.build()
        engine.run(1.0)
        with pytest.raises(EngineError):
            engine.run_until(0.5)
        with pytest.raises(EngineError):
            engine.run(-1.0)


class TestFlatKernelAgainstReferenceTriggers:
    """evaluate_mode_flat must reproduce evaluate_triggers bit for bit."""

    MODE_TO_CODE = {"slow": MODE_SLOW, "fast": MODE_FAST, "free": MODE_FREE}

    def random_case(self, rng, params, max_level):
        logical = rng.uniform(0.0, 50.0)
        max_estimate = logical + rng.uniform(0.0, 5.0)
        views = []
        tables = []
        for neighbor in range(rng.randint(0, 5)):
            epsilon = rng.choice([0.0, 0.3, 1.0])
            tau = rng.choice([0.0, 0.5])
            kappa = params.kappa_for(epsilon, tau)
            delta = params.delta_for(kappa, epsilon, tau)
            level = rng.randint(1, max_level)
            estimate = max(0.0, logical + rng.uniform(-4.0, 4.0) * kappa)
            views.append(
                NeighborView(
                    neighbor=neighbor,
                    estimate=estimate,
                    kappa=kappa,
                    epsilon=epsilon,
                    tau=tau,
                    delta=delta,
                    level=level,
                )
            )
            tables.append(edge_threshold_table(params, epsilon, tau, max_level))
        return logical, max_estimate, views, tables

    def test_randomized_cross_check(self):
        params = Parameters(rho=0.015, mu=0.1)
        max_level = 4
        rng = random.Random(1234)
        for _ in range(500):
            logical, max_estimate, views, tables = self.random_case(
                rng, params, max_level
            )
            reference = evaluate_triggers(
                logical, max_estimate, views, params, max_level
            )
            aheads = [view.estimate - logical for view in views]
            levels = [view.level for view in views]
            flat = evaluate_mode_flat(
                logical,
                max_estimate,
                params.iota,
                len(views),
                aheads,
                levels,
                tables,
            )
            assert MODE_NAMES[flat] == reference.mode, (
                f"mismatch: flat={MODE_NAMES[flat]} reference={reference.mode} "
                f"logical={logical} views={views}"
            )

    def test_empty_views_fall_through_to_max_estimate_triggers(self):
        params = Parameters(rho=0.015, mu=0.1)
        # L == M: slow.
        assert evaluate_mode_flat(5.0, 5.0, params.iota, 0, [], [], []) == MODE_SLOW
        # L <= M - iota: fast.
        assert (
            evaluate_mode_flat(5.0, 5.0 + params.iota, params.iota, 0, [], [], [])
            == MODE_FAST
        )
        # In between: free.
        assert (
            evaluate_mode_flat(5.0, 5.0 + params.iota / 2.0, params.iota, 0, [], [], [])
            == MODE_FREE
        )

    def test_threshold_tables_match_trigger_expressions(self):
        params = Parameters(rho=0.015, mu=0.1)
        epsilon, tau = 1.0, 0.5
        kappa = params.kappa_for(epsilon, tau)
        delta = params.delta_for(kappa, epsilon, tau)
        table = edge_threshold_table(params, epsilon, tau, 3)
        for level in (1, 2, 3):
            idx = level - 1
            assert table[0][idx] == level * kappa - epsilon
            assert table[1][idx] == level * kappa + 2.0 * params.mu * tau + epsilon
            assert table[2][idx] == (level + 0.5) * kappa - delta - epsilon
            assert table[3][idx] == (
                (level + 0.5) * kappa
                + delta
                + epsilon
                + params.mu * (1.0 + params.rho) * tau
            )
