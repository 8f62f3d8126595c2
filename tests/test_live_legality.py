"""Tests for repro.analysis.live_legality."""

import pytest

from repro.analysis import live_legality
from repro.baselines.max_algorithm import max_propagation_factory
from repro.core.algorithm import aopt_factory
from repro.core import insertion as insertion_mod
from repro.core.parameters import Parameters
from repro.network import dynamics, topology
from repro.network.edge import EdgeParams
from repro.sim.drift import TwoGroupAdversary, half_split
from repro.sim.engine import Engine
from repro.sim.runner import SimulationConfig, default_aopt_config

PARAMS = Parameters(rho=0.01, mu=0.1)
EDGE = EdgeParams(epsilon=1.0, tau=0.5, delay=2.0)


def make_engine(graph, *, duration=0.0, global_skew_bound=40.0):
    fast, slow = half_split(graph.nodes)
    config = SimulationConfig(
        params=PARAMS,
        dt=0.05,
        duration=duration,
        drift=TwoGroupAdversary(PARAMS.rho, fast, slow),
        estimate_strategy="toward_observer",
    )
    aopt_config = default_aopt_config(
        graph,
        config,
        global_skew_bound=global_skew_bound,
        insertion_duration=insertion_mod.scaled_insertion_duration(0.02),
    )
    engine = Engine(graph, aopt_factory(aopt_config), config)
    if duration > 0:
        engine.run(duration)
    return engine, aopt_config


class TestLevelEdgeSets:
    def test_initial_edges_present_on_every_level(self):
        engine, config = make_engine(topology.line(4, EDGE))
        sets = live_legality.level_edge_sets(engine, config.max_level, PARAMS)
        for level in range(1, config.max_level + 1):
            assert len(sets[level]) == 3

    def test_weights_are_kappa(self):
        engine, config = make_engine(topology.line(3, EDGE))
        sets = live_legality.level_edge_sets(engine, 1, PARAMS)
        kappa = PARAMS.kappa_for(EDGE.epsilon, EDGE.tau)
        assert all(weight == pytest.approx(kappa) for _, _, weight in sets[1])

    def test_new_edge_absent_until_inserted(self):
        scenario = dynamics.line_with_end_to_end_insertion(5, insertion_time=5.0, params=EDGE)
        engine, config = make_engine(scenario.graph, duration=10.0, global_skew_bound=25.0)
        sets = live_legality.level_edge_sets(engine, config.max_level, PARAMS)
        new_edge_pairs = {(u, v) for u, v, _ in sets[1]}
        assert (0, 4) not in new_edge_pairs
        # After running long enough for the (scaled) insertion to finish the
        # edge appears on every level.
        engine.run(600.0)
        sets = live_legality.level_edge_sets(engine, config.max_level, PARAMS)
        assert (0, 4) in {(u, v) for u, v, _ in sets[config.max_level]}

    def test_non_aopt_algorithms_rejected(self):
        config = SimulationConfig(params=PARAMS, dt=0.05, duration=0.0)
        engine = Engine(topology.line(3, EDGE), max_propagation_factory(PARAMS.rho), config)
        with pytest.raises(live_legality.LiveLegalityError):
            live_legality.level_edge_sets(engine, 2, PARAMS)


class TestCheckEngine:
    def test_synchronized_start_is_legal(self):
        engine, config = make_engine(topology.line(5, EDGE))
        report = live_legality.check_engine(engine, 40.0, PARAMS)
        assert report.is_legal
        assert report.worst_excess == 0.0
        assert report.levels_checked >= 1
        assert report.time == 0.0

    def test_stays_legal_during_adversarial_run(self):
        engine, config = make_engine(topology.line(6, EDGE), duration=80.0)
        report = live_legality.check_engine(
            engine, config.global_skew.value(0.0), PARAMS, max_level=config.max_level
        )
        assert report.is_legal

    def test_detects_artificial_violation(self):
        engine, config = make_engine(topology.line(4, EDGE))
        # Force a huge skew by hand: node 3 jumps far ahead of its neighbors.
        engine._nodes[3].logical.jump_to(500.0)
        report = live_legality.check_engine(engine, 40.0, PARAMS)
        assert not report.is_legal
        assert report.worst_excess > 0.0

    def test_default_max_level_derived(self):
        engine, _ = make_engine(topology.line(4, EDGE))
        report = live_legality.check_engine(engine, 40.0, PARAMS)
        expected = PARAMS.levels_for(40.0, PARAMS.kappa_for(EDGE.epsilon, EDGE.tau))
        assert report.levels_checked == expected
