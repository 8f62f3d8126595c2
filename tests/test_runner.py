"""Tests for repro.sim.runner."""

import pytest

from repro.baselines.hardware_only import hardware_only_factory
from repro.core.algorithm import AOPT
from repro.core import insertion as insertion_mod
from repro.network import topology
from repro.network.edge import EdgeParams
from repro.sim.drift import ConstantDrift
from repro.sim.engine import Engine
from repro.sim.runner import (
    RunnerError,
    SimulationConfig,
    default_aopt_config,
    minimum_kappa,
    run_aopt,
    run_simulation,
)


class TestSimulationConfig:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.dt > 0
        assert config.estimate_mode == "oracle"

    def test_validation(self):
        with pytest.raises(RunnerError):
            SimulationConfig(dt=0.0)
        with pytest.raises(RunnerError):
            SimulationConfig(duration=-1.0)
        with pytest.raises(RunnerError):
            SimulationConfig(sample_interval=0.0)
        with pytest.raises(RunnerError):
            SimulationConfig(broadcast_interval=0.0)
        with pytest.raises(RunnerError):
            SimulationConfig(estimate_mode="telepathy")


class TestHelpers:
    def test_minimum_kappa_uses_edge_params(self, params):
        graph = topology.line(4, EdgeParams(epsilon=2.0, tau=0.5))
        graph.set_edge_params(0, 1, EdgeParams(epsilon=0.5, tau=0.1))
        value = minimum_kappa(graph, params)
        assert value == pytest.approx(params.kappa_for(0.5, 0.1))

    def test_default_aopt_config_derives_bound_and_levels(self, params):
        graph = topology.line(6)
        config = SimulationConfig(params=params)
        aopt_config = default_aopt_config(graph, config)
        assert aopt_config.max_level >= 1
        assert aopt_config.global_skew.value(0.0) > 0

    def test_default_aopt_config_accepts_overrides(self, params):
        graph = topology.line(6)
        config = SimulationConfig(params=params)
        aopt_config = default_aopt_config(
            graph,
            config,
            global_skew_bound=123.0,
            insertion_duration=insertion_mod.scaled_insertion_duration(0.1),
            immediate_insertion=True,
        )
        assert aopt_config.global_skew.value(0.0) == 123.0
        assert aopt_config.immediate_insertion


class TestRunning:
    def test_build_engine_oracle_mode(self, params):
        graph = topology.line(3)
        config = SimulationConfig(params=params, dt=0.1, duration=5.0)
        engine = Engine(graph, hardware_only_factory(), config)
        engine.run(1.0)
        assert engine.time == pytest.approx(1.0)

    def test_run_simulation_returns_trace_and_engine(self, params):
        graph = topology.line(3)
        config = SimulationConfig(params=params, dt=0.1, duration=5.0)
        result = run_simulation(graph, hardware_only_factory(), config)
        assert result.trace.final().time == pytest.approx(5.0)
        assert result.engine.time == pytest.approx(5.0)

    def test_run_aopt_oracle(self, params):
        graph = topology.line(4)
        config = SimulationConfig(params=params, dt=0.1, duration=5.0)
        result = run_aopt(graph, config)
        assert isinstance(result.engine.algorithm(0), AOPT)
        assert result.trace.max_global_skew() < 1.0

    def test_run_aopt_broadcast_mode(self, params):
        graph = topology.line(3)
        config = SimulationConfig(
            params=params, dt=0.1, duration=5.0, estimate_mode="broadcast"
        )
        result = run_aopt(graph, config)
        assert result.engine.transport.sent_count > 0

    def test_deterministic_with_seeds(self, params):
        graph = topology.line(4)

        def run_once():
            config = SimulationConfig(
                params=params,
                dt=0.1,
                duration=10.0,
                estimate_strategy="uniform",
                estimate_seed=7,
                delay_seed=11,
            )
            return run_aopt(graph, config).trace.final().logical

        assert run_once() == run_once()

    @pytest.mark.parametrize(
        "settings", [{"estimate_mode": "broadcast"}, {"estimate_strategy": "uniform"}]
    )
    def test_default_seeds_make_equal_traces(self, params, settings):
        """The config's own seeds are fixed: no run draws from an unseeded rng
        (the broadcast case is delayed by the default uniform delay)."""
        graph = topology.line(6)
        rates = ConstantDrift(params.rho, {u: params.rho * (-1) ** u for u in graph.nodes})

        def run_once():
            config = SimulationConfig(
                params=params, dt=0.1, duration=30.0, drift=rates, **settings
            )
            trace = run_aopt(graph, config).trace  # one run_simulation call
            return [(s.time, s.logical, s.max_estimates) for s in trace]

        assert run_once() == run_once()
