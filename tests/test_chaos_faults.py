"""Unit tests for the chaos fault family (``repro.chaos.faults``).

Covers the pure graph transformations, the node-reset event plumbing in
:class:`DynamicGraph` and the reference engine, the ``DelaySpikeStorm``
windowed delay amplifier, and the fast/vec backends' clean rejection of
node resets (which ``auto`` runs on reference).
"""

import pytest

from repro.chaos import faults
from repro.core.algorithm import aopt_factory
from repro.core import insertion as insertion_mod
from repro.core.parameters import Parameters
from repro.fastsim.engine import UnsupportedScenarioError
from repro.network import topology
from repro.network.dynamic_graph import GraphError, NodeResetEvent
from repro.network.edge import EdgeParams
from repro.sim.delay import (
    DelayError,
    DelayModel,
    DelaySpikeStorm,
    FixedFractionDelay,
    ZeroDelay,
)
from repro.sim.runner import SimulationConfig, default_aopt_config, run_simulation

PARAMS = Parameters(rho=0.01, mu=0.1)
EDGE = EdgeParams(epsilon=1.0, tau=0.5, delay=2.0)
FAST_INSERTION = insertion_mod.scaled_insertion_duration(0.02)


def run(graph, *, duration, drift=None):
    config = SimulationConfig(
        params=PARAMS,
        dt=0.05,
        duration=duration,
        drift=drift,
        estimate_strategy="toward_observer",
    )
    aopt_config = default_aopt_config(
        graph, config, insertion_duration=FAST_INSERTION
    )
    return run_simulation(graph, aopt_factory(aopt_config), config)


class TestNodeResetEvents:
    def test_schedule_and_pop_in_time_order(self):
        graph = topology.line(3, EDGE)
        graph.schedule_node_reset(9.0, 2, value=1.5)
        graph.schedule_node_reset(4.0, 0)
        pending = graph.pending_node_resets()
        assert pending == [NodeResetEvent(4.0, 0, 0.0), NodeResetEvent(9.0, 2, 1.5)]
        popped = graph.pop_node_resets_until(5.0)
        assert popped == [NodeResetEvent(4.0, 0, 0.0)]
        assert graph.pending_node_resets() == [NodeResetEvent(9.0, 2, 1.5)]

    def test_unknown_node_rejected(self):
        graph = topology.line(3, EDGE)
        with pytest.raises(GraphError):
            graph.schedule_node_reset(1.0, 99)

    def test_copy_carries_pending_resets(self):
        graph = topology.line(3, EDGE)
        graph.schedule_node_reset(5.0, 1)
        clone = graph.copy()
        assert clone.pending_node_resets() == graph.pending_node_resets()
        clone.pop_node_resets_until(10.0)
        # The copy is independent: draining it leaves the original intact.
        assert graph.pending_node_resets()


class TestEngineNodeReset:
    def test_reset_restarts_clocks_from_value(self):
        graph = topology.line(3, EDGE)
        graph.schedule_node_reset(5.0, 1, value=0.0)
        result = run(graph, duration=10.0)
        # Unit rates (no drift): the reborn node's hardware clock restarts
        # from zero at t=5 and reads ~5 at t=10; survivors read ~10.
        assert result.engine.hardware_value(1) == pytest.approx(5.0, abs=0.2)
        assert result.engine.hardware_value(0) == pytest.approx(10.0, abs=0.2)

    def test_crash_restart_rejoins_and_recovers(self):
        graph = topology.line(4, EDGE)
        scenario, meta = faults.crash_restart(
            graph, EDGE, crash_time=10.0, downtime=5.0, node=2
        )
        result = run(scenario, duration=120.0)
        engine = result.engine
        # Rebirth happened: node 2's hardware clock is younger by ~15.
        assert engine.hardware_value(2) == pytest.approx(105.0, abs=1.0)
        # The reborn node was pulled back up to its neighbors.
        skews = [
            abs(engine.logical_value(2) - engine.logical_value(nbr))
            for nbr in (1, 3)
        ]
        assert max(skews) < 5.0
        assert meta["restart_time"] == 15.0


class TestDelaySpikeStorm:
    def test_storm_windows_repeat(self):
        storm = DelaySpikeStorm(
            ZeroDelay(), period=40.0, width=10.0, start=20.0, factor=4.0
        )
        assert not storm.in_storm(0.0)
        assert not storm.in_storm(19.9)
        assert storm.in_storm(20.0)
        assert storm.in_storm(29.9)
        assert not storm.in_storm(30.0)
        assert storm.in_storm(60.0)  # second window

    def test_amplifies_inside_window_only(self):
        inner = FixedFractionDelay(0.1)
        storm = DelaySpikeStorm(inner, period=40.0, width=10.0, factor=4.0)
        bound = 2.0
        assert storm.delay(0, 1, 5.0, bound) == pytest.approx(0.8)  # 0.2 * 4
        assert storm.delay(0, 1, 15.0, bound) == pytest.approx(0.2)

    def test_amplified_delay_clamps_to_bound(self):
        storm = DelaySpikeStorm(
            FixedFractionDelay(0.9), period=10.0, width=10.0, factor=100.0
        )
        assert storm.delay(0, 1, 0.0, 2.0) == pytest.approx(2.0)

    def test_edge_restriction_is_undirected(self):
        storm = DelaySpikeStorm(
            FixedFractionDelay(0.5),
            period=10.0,
            width=10.0,
            factor=2.0,
            edges=[(3, 2)],
        )
        assert storm.affects(2, 3)
        assert storm.affects(3, 2)
        assert not storm.affects(0, 1)
        assert storm.delay(0, 1, 0.0, 1.0) == pytest.approx(0.5)
        assert storm.delay(2, 3, 0.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period": 0.0, "width": 1.0},
            {"period": 10.0, "width": 0.0},
            {"period": 10.0, "width": 11.0},
            {"period": 10.0, "width": 1.0, "start": -1.0},
            {"period": 10.0, "width": 1.0, "factor": -2.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(DelayError):
            DelaySpikeStorm(ZeroDelay(), **kwargs)

    def test_inner_must_be_a_delay_model(self):
        with pytest.raises(DelayError):
            DelaySpikeStorm(lambda *a: 0.0, period=10.0, width=1.0)
        assert isinstance(DelaySpikeStorm(ZeroDelay(), period=1.0, width=0.5), DelayModel)


class TestCorrelatedMassChurn:
    def test_victims_lose_all_edges_together(self):
        graph = topology.line(6, EDGE)
        scenario, meta = faults.correlated_mass_churn(
            graph,
            EDGE,
            horizon=100.0,
            victims=[2, 3],
            period=60.0,
            outage=10.0,
            start=20.0,
        )
        assert meta["victims"] == [2, 3]
        # Edges incident to 2 or 3 on a line: (1,2), (2,3), (3,4) -- the
        # victim-victim edge is listed exactly once.
        assert sorted(tuple(e) for e in meta["churned_edges"]) == [
            (1, 2), (2, 3), (3, 4),
        ]
        # Two cycles fit before the horizon: [20, 30] and [80, 90].
        assert meta["outage_windows"] == [[20.0, 30.0], [80.0, 90.0]]
        # The transformation is pure: the input graph has no events.
        assert not graph.pending_events()

    def test_sampled_victims_are_deterministic_in_seed(self):
        graph = topology.ring(8, EDGE)
        _, meta_a = faults.correlated_mass_churn(
            graph, EDGE, horizon=50.0, k=3, seed=7
        )
        _, meta_b = faults.correlated_mass_churn(
            graph, EDGE, horizon=50.0, k=3, seed=7
        )
        assert meta_a["victims"] == meta_b["victims"]
        assert len(meta_a["victims"]) == 3

    def test_validation(self):
        graph = topology.line(4, EDGE)
        with pytest.raises(GraphError):
            faults.correlated_mass_churn(graph, EDGE, horizon=50.0, outage=0.0)
        with pytest.raises(GraphError):
            faults.correlated_mass_churn(
                graph, EDGE, horizon=50.0, period=5.0, outage=10.0
            )
        with pytest.raises(GraphError):
            faults.correlated_mass_churn(graph, EDGE, horizon=50.0, k=4)
        with pytest.raises(GraphError):
            faults.correlated_mass_churn(
                graph, EDGE, horizon=50.0, victims=[0, 1, 2, 3]
            )


class TestPartitionThenHeal:
    def test_line_half_split_cuts_exactly_the_middle_edge(self):
        graph = topology.line(6, EDGE)
        scenario, meta = faults.partition_then_heal(
            graph, EDGE, split_time=10.0, heal_time=40.0
        )
        assert meta["cut_edges"] == [[2, 3]]
        assert meta["partition_sizes"] == [3, 3]
        assert scenario.pending_events()

    def test_star_split_isolates_the_leaves_from_the_hub_side(self):
        graph = topology.star(5, EDGE)  # hub 0, leaves 1..4
        _, meta = faults.partition_then_heal(
            graph, EDGE, split_time=5.0, heal_time=15.0, split_fraction=0.4
        )
        # Cut at index 2: {0, 1} vs {2, 3, 4}; the crossing edges are the
        # hub's spokes into the upper set.
        assert sorted(tuple(e) for e in meta["cut_edges"]) == [(0, 2), (0, 3), (0, 4)]

    def test_validation(self):
        graph = topology.line(4, EDGE)
        with pytest.raises(GraphError):
            faults.partition_then_heal(graph, EDGE, split_time=10.0, heal_time=10.0)
        with pytest.raises(GraphError):
            faults.partition_then_heal(
                graph, EDGE, split_time=1.0, heal_time=2.0, split_fraction=1.5
            )


class TestCrashRestart:
    def test_defaults_to_the_middle_node(self):
        graph = topology.line(5, EDGE)
        scenario, meta = faults.crash_restart(graph, EDGE, crash_time=10.0)
        assert meta["crashed_node"] == 2
        assert meta["restart_time"] == 20.0
        assert sorted(tuple(e) for e in meta["dropped_edges"]) == [(1, 2), (2, 3)]
        resets = scenario.pending_node_resets()
        assert len(resets) == 1
        assert resets[0].time == 20.0
        assert resets[0].node == 2

    def test_validation(self):
        graph = topology.line(4, EDGE)
        with pytest.raises(GraphError):
            faults.crash_restart(graph, EDGE, crash_time=1.0, downtime=0.0)
        with pytest.raises(GraphError):
            faults.crash_restart(graph, EDGE, crash_time=1.0, node=99)


class TestBackendGate:
    """Backends without reset support must refuse, not silently ignore."""

    def test_fast_backend_rejects_pending_node_resets(self):
        from repro.fastsim.backend import get_backend

        graph = topology.line(4, EDGE)
        scenario, _ = faults.crash_restart(graph, EDGE, crash_time=5.0, downtime=2.0)
        config = SimulationConfig(params=PARAMS, dt=0.05, duration=10.0)
        aopt_config = default_aopt_config(
            scenario, config, insertion_duration=FAST_INSERTION
        )
        with pytest.raises(UnsupportedScenarioError):
            get_backend("fast").build(
                scenario, aopt_factory(aopt_config), config
            )

    def test_auto_runs_it_on_reference_with_identical_result(self, tmp_path):
        import dataclasses

        from repro.experiments import scenario as named_scenario
        from repro.experiments.executor import ResultCache, run_sweep

        spec = named_scenario(
            "chaos_crash_restart_line", sim={"duration": 12.0}
        )
        ref = dataclasses.replace(spec, backend="reference")
        auto = dataclasses.replace(spec, backend="auto")
        cache = ResultCache(tmp_path / "cache")
        runs, stats = run_sweep([ref, auto], cache=cache, use_cache=False)
        assert stats.executed == 2
        assert runs[1].spec.backend == "reference"
        # auto ran the same materialised scenario: results agree
        # bit-for-bit because seeds derive from the backend-free hash.
        assert (
            runs[0].summary.final_global_skew
            == runs[1].summary.final_global_skew
        )
