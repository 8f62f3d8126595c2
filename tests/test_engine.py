"""Tests for the simulation engine."""

import pytest

from repro.baselines.hardware_only import hardware_only_factory
from repro.baselines.max_algorithm import max_propagation_factory
from repro.core.interfaces import ClockSyncAlgorithm, ControlDecision
from repro.core.parameters import Parameters
from repro.network import topology
from repro.network.edge import EdgeParams
from repro.sim.delay import ZeroDelay
from repro.sim.drift import ConstantDrift, TwoGroupAdversary
from repro.sim.engine import Engine, EngineError
from repro.sim.runner import RunnerError, SimulationConfig


def make_engine(graph, algorithm_factory, params, **kwargs):
    kwargs.setdefault("dt", 0.1)
    kwargs.setdefault("delay", ZeroDelay())
    return Engine(graph, algorithm_factory, SimulationConfig(params=params, **kwargs))


class RecordingAlgorithm(ClockSyncAlgorithm):
    """Minimal algorithm that records every callback it receives."""

    name = "Recording"

    def __init__(self):
        super().__init__()
        self.events = []

    def on_start(self, t, initial_neighbors):
        self.events.append(("start", t, sorted(initial_neighbors)))

    def on_edge_discovered(self, t, neighbor):
        self.events.append(("up", t, neighbor))

    def on_edge_lost(self, t, neighbor):
        self.events.append(("down", t, neighbor))

    def on_message(self, t, sender, payload):
        self.events.append(("msg", t, sender))

    def control(self, t):
        return ControlDecision(multiplier=1.0)


class TestEngineBasics:
    def test_rejects_nonpositive_dt(self, params):
        with pytest.raises(RunnerError):
            make_engine(topology.line(3), hardware_only_factory(), params, dt=0.0)

    def test_clocks_advance_with_time(self, params):
        engine = make_engine(topology.line(3), hardware_only_factory(), params)
        engine.run(10.0)
        assert engine.time == pytest.approx(10.0)
        for node in engine.nodes:
            assert engine.logical_value(node) == pytest.approx(10.0)
            assert engine.hardware_value(node) == pytest.approx(10.0)

    def test_run_until_and_negative_duration(self, params):
        engine = make_engine(topology.line(3), hardware_only_factory(), params)
        engine.run_until(5.0)
        assert engine.time == pytest.approx(5.0)
        with pytest.raises(EngineError):
            engine.run(-1.0)
        with pytest.raises(EngineError):
            engine.run_until(1.0)

    def test_drift_applied(self, params):
        drift = ConstantDrift(params.rho, {0: params.rho, 1: -params.rho})
        engine = make_engine(
            topology.line(2), hardware_only_factory(), params, drift=drift
        )
        engine.run(100.0)
        assert engine.hardware_value(0) == pytest.approx(100.0 * (1 + params.rho))
        assert engine.hardware_value(1) == pytest.approx(100.0 * (1 - params.rho))
        assert engine.global_skew() == pytest.approx(2 * params.rho * 100.0)

    def test_initial_logical_values(self, params):
        engine = make_engine(
            topology.line(2),
            hardware_only_factory(),
            params,
            initial_logical={0: 5.0, 1: 0.0},
        )
        assert engine.logical_value(0) == 5.0
        assert engine.global_skew() == pytest.approx(5.0)

    def test_unknown_node_rejected(self, params):
        engine = make_engine(topology.line(2), hardware_only_factory(), params)
        with pytest.raises(EngineError):
            engine.logical_value(17)

    def test_engine_copies_graph(self, params):
        graph = topology.line(3)
        graph.schedule_edge_up(1.0, 0, 2)
        engine = make_engine(graph, hardware_only_factory(), params)
        engine.run(5.0)
        assert engine.graph.has_edge(0, 2)
        assert not graph.has_edge(0, 2)
        assert len(graph.pending_events()) == 2

    def test_trace_sampling(self, params):
        engine = make_engine(topology.line(2), hardware_only_factory(), params, sample_interval=1.0)
        trace = engine.run(10.0)
        assert len(trace) >= 10
        assert trace.final().time == pytest.approx(10.0)

    def test_snapshots(self, params):
        engine = make_engine(topology.line(3), hardware_only_factory(), params)
        engine.run(1.0)
        assert set(engine.logical_snapshot()) == {0, 1, 2}
        assert set(engine.hardware_snapshot()) == {0, 1, 2}


class TestCallbacks:
    def test_on_start_receives_initial_neighbors(self, params):
        algorithms = {}

        def factory(node_id):
            algorithms[node_id] = RecordingAlgorithm()
            return algorithms[node_id]

        engine = make_engine(topology.line(3), factory, params)
        del engine
        assert algorithms[1].events[0] == ("start", 0.0, [0, 2])

    def test_edge_events_reported_to_algorithms(self, params):
        algorithms = {}

        def factory(node_id):
            algorithms[node_id] = RecordingAlgorithm()
            return algorithms[node_id]

        graph = topology.line(3)
        graph.schedule_edge_up(1.0, 0, 2)
        graph.schedule_edge_down(3.0, 0, 1)
        engine = make_engine(graph, factory, params)
        engine.run(5.0)
        ups = [e for e in algorithms[0].events if e[0] == "up"]
        assert any(e[2] == 2 and e[1] == pytest.approx(1.0, abs=0.2) for e in ups)
        assert any(e[0] == "down" and e[2] == 1 for e in algorithms[0].events)
        assert any(e[0] == "down" and e[2] == 0 for e in algorithms[1].events)

    def test_messages_delivered_to_algorithm(self, params):
        engine = make_engine(
            topology.line(2), max_propagation_factory(params.rho), params
        )
        engine.run(3.0)
        assert engine.transport.delivered_count > 0

    def test_jump_decisions_applied(self, params):
        drift = ConstantDrift(params.rho, {0: params.rho, 1: -params.rho})
        engine = make_engine(
            topology.line(2), max_propagation_factory(params.rho), params, drift=drift
        )
        engine.run(50.0)
        # The slower node keeps jumping to the max estimate, so the skew stays
        # far below the 2*rho*t that uncorrected drift would produce.
        assert engine.global_skew() < 0.5 * (2 * params.rho * 50.0)


class TestDiameterTracking:
    def test_tracker_becomes_finite_after_communication(self, params):
        engine = make_engine(
            topology.line(3),
            max_propagation_factory(params.rho),
            params,
            track_diameter=True,
        )
        assert engine.current_diameter() is None
        engine.run(10.0)
        assert engine.current_diameter() is not None
        assert engine.current_diameter() > 0

    def test_trace_records_diameter(self, params):
        engine = make_engine(
            topology.line(3),
            max_propagation_factory(params.rho),
            params,
            track_diameter=True,
        )
        trace = engine.run(10.0)
        assert trace.final().diameter is not None
