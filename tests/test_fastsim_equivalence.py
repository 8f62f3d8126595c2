"""Differential suite: the fast backend must match the reference engine.

Every named scenario of the registry is executed on both backends (with
shortened durations, everything else untouched) and the full cacheable
payloads -- trace, summary, metadata -- are compared for **exact** equality.
A randomized-spec fuzz case sweeps topologies, drifts, delay models and
estimate strategies; a dedicated staged-insertion case drives the full
leader/follower handshake and level promotion machinery on both engines.

The engines share every seed because the spec content hash (the seed source)
excludes the backend field; any divergence in float-operation order or random
draw order therefore shows up as a hard assertion failure here.
"""

import random

import pytest

from conftest import (
    EQUIVALENCE_SCENARIO_OVERRIDES,
    FUZZ_DELAYS,
    make_delay_sweep_spec,
    make_fuzz_spec,
)
from repro.core.algorithm import aopt_factory
from repro.core.neighbor_sets import FULLY_INSERTED
from repro.core.parameters import Parameters
from repro.experiments import execute_spec, registry, scenario
from repro.experiments.results import trace_to_payload
from repro.experiments.spec import ComponentSpec, ScenarioSpec
from repro.fastsim import FastEngine
from repro.network import topology
from repro.network.edge import EdgeParams
from repro.sim.drift import TwoGroupAdversary
from repro.sim.runner import SimulationConfig, build_engine, default_aopt_config

#: The estimate strategies that draw no random number: their rows are decided
#: on two extreme leads unless they mix levels or tables.
DETERMINISTIC_STRATEGIES = ["zero", "underestimate", "overestimate", "toward_observer"]

#: The seven named scenarios with shortened runs (shared across the
#: differential suites; see tests/conftest.py).
NAMED_SCENARIO_OVERRIDES = EQUIVALENCE_SCENARIO_OVERRIDES


def run_both(spec):
    """Execute one spec on both backends; return the two payloads."""
    reference = execute_spec(spec.with_backend("reference"))
    fast = execute_spec(spec.with_backend("fast"))
    return reference, fast


def assert_equivalent(spec):
    reference, fast = run_both(spec)
    assert reference["trace"] == fast["trace"], (
        f"trace mismatch for {spec.label or spec.topology.name}"
    )
    assert reference["summary"] == fast["summary"]
    assert reference["meta"] == fast["meta"]
    return reference, fast


class TestNamedScenarioEquivalence:
    def test_every_named_scenario_is_covered(self):
        from conftest import builtin_scenario_names

        assert sorted(NAMED_SCENARIO_OVERRIDES) == builtin_scenario_names()

    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIO_OVERRIDES))
    def test_backends_agree(self, name):
        spec = scenario(name, **NAMED_SCENARIO_OVERRIDES[name])
        reference, fast = assert_equivalent(spec)
        # The runs did something non-trivial.
        assert reference["summary"]["sample_count"] > 5
        assert reference["spec_hash"] == fast["spec_hash"]


def staged_insertion_spec(algorithm="aopt", strategy="toward_observer", ramp=None):
    """A line of 5 whose end-to-end edge appears at t = 5 and climbs every level."""
    return ScenarioSpec(
        label=f"fastsim_insertion/{algorithm}/{strategy}",
        topology=ComponentSpec("line", {"n": 5}),
        dynamics=ComponentSpec(
            "end_to_end_insertion", {"insertion_time": 5.0}
        ),
        drift=ComponentSpec("two_group", {"swap_period": 20.0}),
        algorithm=ComponentSpec(
            algorithm,
            # A tiny insertion duration so every level is promoted well
            # within the run (I ~ 3 time units for this bound).
            {"global_skew_bound": 10.0, "insertion_scale": 0.001},
        ),
        params={"rho": 0.015, "mu": 0.1},
        edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
        sim={
            "dt": 0.1,
            "duration": 45.0,
            "sample_interval": 1.0,
            "estimate_strategy": strategy,
        },
        initial_ramp_per_edge=ramp,
    )


class TestStagedInsertionEquivalence:
    """The full Listing 1/2 handshake: discovery, anchor, level promotions."""

    insertion_spec = staticmethod(staged_insertion_spec)

    @pytest.mark.parametrize("strategy", DETERMINISTIC_STRATEGIES)
    def test_row_that_turns_mixed_and_back_matches(self, strategy):
        """Node 0's row: one level, then two while the new edge climbs, then one."""
        # The ramp makes the triggers fire on the inserted edge's leads.
        spec = self.insertion_spec(strategy=strategy, ramp=4.5)
        assert_equivalent(spec)
        materialised = registry.build_scenario(spec)
        fast = FastEngine(
            materialised.graph, materialised.algorithm_factory, materialised.config
        )
        shapes = []
        while fast.time < materialised.config.duration - 1e-9:
            fast.step()
            slots, level, _ = fast._csr.row_shapes()[0]
            if not shapes or shapes[-1] != (len(slots), level):
                shapes.append((len(slots), level))
        top = fast.max_level
        # Edge {0, 4} is discovered at level 0 (no slot in the view), climbs
        # through the levels next to the fully inserted {0, 1} and joins it.
        assert shapes[0] == (1, top) and shapes[-1] == (2, top)
        assert (2, 0) in shapes

    def test_staged_insertion_matches_and_completes(self):
        spec = self.insertion_spec()
        assert_equivalent(spec)
        # Drive the engines directly to inspect the final level state.
        materialised = registry.build_scenario(spec)
        reference = build_engine(
            materialised.graph,
            materialised.algorithm_factory,
            materialised.config,
        )
        reference.run(materialised.config.duration)
        materialised = registry.build_scenario(spec)
        fast = FastEngine(
            materialised.graph,
            materialised.algorithm_factory,
            materialised.config,
        )
        fast.run(materialised.config.duration)
        # The inserted end-to-end edge reached full insertion on both sides.
        for engine in (reference, fast):
            assert engine.algorithm(0).levels.level_of(4) == FULLY_INSERTED
            assert engine.algorithm(4).levels.level_of(0) == FULLY_INSERTED
            assert engine.algorithm(0).levels.subset_chain_holds()

    def test_immediate_insertion_variant_matches(self):
        assert_equivalent(self.insertion_spec(algorithm="immediate_insertion"))


class TestRowShapeSeams:
    """Rows the scalar engine does not decide on two extreme leads, and one it does."""

    def run_both(self, graph, config):
        factory = aopt_factory(default_aopt_config(graph, config))
        reference = build_engine(graph, factory, config)
        fast = FastEngine(graph, factory, config)
        traces = [engine.run(config.duration) for engine in (reference, fast)]
        assert trace_to_payload(traces[0]) == trace_to_payload(traces[1])
        assert reference.transport.sent_count == fast.sent_count
        return fast

    def config(self, strategy, **overrides):
        return SimulationConfig(
            params=Parameters(rho=0.015, mu=0.1),
            dt=0.1,
            duration=15.0,
            drift=TwoGroupAdversary(0.015, {0, 1, 2}, {4, 5, 6}, swap_period=4.0),
            estimate_strategy=strategy,
            initial_logical=dict(enumerate([0.0, 5.0, 9.0, 11.0, 17.5, 19.0, 26.0])),
            delay_seed=11,
            **overrides,
        )

    @pytest.mark.parametrize("strategy", DETERMINISTIC_STRATEGIES)
    def test_heterogeneous_edges_on_one_node(self, strategy):
        graph = topology.line(7, EdgeParams(epsilon=1.0, tau=0.5, delay=2.0))
        graph.set_edge_params(1, 2, EdgeParams(epsilon=0.25, tau=0.2, delay=1.0))
        fast = self.run_both(graph, self.config(strategy))
        shapes = fast._csr.row_shapes()
        # Nodes 1 and 2 see two tables; the others see one.
        assert [node for node, (_, level, _) in enumerate(shapes) if not level] == [1, 2]

    def test_broadcast_mode_before_any_broadcast_is_stored(self):
        """No valid slot: Definition 4.7 alone decides, as in the reference."""
        graph = topology.line(7, EdgeParams(epsilon=1.0, tau=0.5, delay=2.0))
        config = self.config("zero", estimate_mode="broadcast", broadcast_interval=1.0)
        probe = FastEngine(graph, aopt_factory(default_aopt_config(graph, config)), config)
        probe.step()
        assert not any(probe._bc_valid)
        assert all(level for _, level, _ in probe._csr.row_shapes())
        # Nobody has heard of a larger clock either: lag 0, slow mode.
        assert probe._cols.mode == [0] * 7
        self.run_both(graph, config)


class TestFuzzEquivalence:
    """Randomized specs over topologies x drifts x delays x strategies.

    The generators live in tests/conftest.py and are shared with the vecsim
    and streaming-metrics differential suites.
    """

    @pytest.mark.parametrize("case", range(6))
    def test_random_specs_agree(self, case):
        rng = random.Random(20260729 + case)
        spec = make_fuzz_spec(rng, case, "fastsim_fuzz")
        assert_equivalent(spec)

    @pytest.mark.parametrize("delay", FUZZ_DELAYS)
    def test_every_delay_model_agrees(self, delay):
        """Deterministic sweep over all delay models (incl. the default)."""
        assert_equivalent(make_delay_sweep_spec(delay, "fastsim_delay"))
