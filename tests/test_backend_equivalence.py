"""Differential suite: every columnar backend must match the reference engine.

Each case runs one spec on ``reference`` and on ``fast``, ``vec`` and ``jit``
and compares the cacheable payloads -- trace, summary, metadata, observer
report, early-exit flag -- for **exact** equality.  A backend is skipped only
when it is not installed (``vec`` / ``jit`` need numpy, ``jit`` a C
compiler); ``fast`` runs everywhere.  A spec's reference payload is computed
once and shared by the three backends.

The engines share every seed because the spec content hash (the seed source)
excludes the backend field; any divergence in float-operation order or random
draw order therefore shows up as a hard assertion failure here.  On top of
the deterministic cases, ``scenario_specs`` (tests/conftest.py) generates
specs over topology x dynamics x drift x delay x estimate mode x strategy x
algorithm x observation fields.
"""

import pytest
from hypothesis import example, given, settings

from conftest import (
    EQUIVALENCE_SCENARIO_OVERRIDES,
    FUZZ_DELAYS,
    FUZZ_STRATEGIES,
    STORM_DELAY,
    scenario_specs,
    staged_insertion_spec,
)
from repro.core.algorithm import aopt_factory
from repro.core.neighbor_sets import FULLY_INSERTED
from repro.core.parameters import Parameters
from repro.experiments import execute_spec, registry, scenario
from repro.experiments.results import trace_to_payload
from repro.experiments.spec import ComponentSpec, ScenarioSpec, canonical_json
from repro.fastsim import FastEngine
from repro.fastsim.backend import backend_available, get_backend
from repro.network import topology
from repro.network.edge import EdgeParams
from repro.sim.drift import TwoGroupAdversary
from repro.sim.runner import SimulationConfig, build_engine, default_aopt_config

COLUMNAR = ("fast", "vec", "jit")
COMPARED = ("trace", "summary", "meta", "observers", "stopped_early")

backends = pytest.mark.parametrize(
    "backend",
    [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                not backend_available(name), reason=f"backend {name!r} is not installed"
            ),
        )
        for name in COLUMNAR
    ],
)

#: The estimate strategies that draw no random number: their rows are decided
#: on two extreme leads unless they mix levels or tables.
DETERMINISTIC_STRATEGIES = ["zero", "underestimate", "overestimate", "toward_observer"]

@pytest.fixture(scope="module")
def references():
    """``reference`` payloads by spec, kept while this module runs.

    A payload is a pure function of its spec, so one ``reference`` run
    serves the spec's case on every backend.
    """
    return {}


def assert_equivalent(spec, backend, references):
    spec = spec.with_backend(backend)
    key = canonical_json(spec.with_backend("reference").to_dict())
    if key not in references:
        references[key] = execute_spec(spec.with_backend("reference"))
    reference = references[key]
    other = execute_spec(spec)
    for key in COMPARED:
        assert reference[key] == other[key], (
            f"{key} mismatch for {spec.label or spec.topology.name} on {backend}"
        )
    assert reference["spec_hash"] == other["spec_hash"]
    return reference


def sweep_spec(topology, delay=None, estimate_mode="oracle", strategy="toward_observer"):
    """A short two-group run on a one-per-edge ramp; the sweeps vary one axis."""
    return ScenarioSpec(
        label=f"sweep/{delay[0] if delay else 'default'}/{estimate_mode}/{strategy}",
        topology=topology,
        drift=ComponentSpec("two_group", {"swap_period": 5.0}),
        delay=ComponentSpec(*delay) if delay else None,
        algorithm=ComponentSpec("aopt", {"global_skew_bound": 25.0}),
        params={"rho": 0.015, "mu": 0.1},
        edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
        sim={
            "dt": 0.1,
            "duration": 10.0,
            "sample_interval": 1.0,
            "estimate_strategy": strategy,
            "estimate_mode": estimate_mode,
        },
        initial_ramp_per_edge=1.0,
    )


def run_engine(spec, backend):
    """Run a spec's engine directly, to inspect its final state."""
    materialised = registry.build_scenario(spec)
    engine = get_backend(backend).build(
        materialised.graph, materialised.algorithm_factory, materialised.config
    )
    engine.run(materialised.config.duration)
    return engine


def test_every_named_scenario_is_covered():
    # The chaos pack registers too, but several of its scenarios exist to be
    # declined; tests/test_chaos_scenarios.py covers them.
    names = [
        name
        for name in registry.SCENARIOS.names()
        if not hasattr(registry.SCENARIOS.get(name), "chaos_family")
    ]
    assert sorted(EQUIVALENCE_SCENARIO_OVERRIDES) == names


@backends
@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SCENARIO_OVERRIDES))
def test_named_scenario_agrees(name, backend, references):
    spec = scenario(name, **EQUIVALENCE_SCENARIO_OVERRIDES[name])
    reference = assert_equivalent(spec, backend, references)
    # The run did something non-trivial.
    assert reference["summary"]["sample_count"] > 5


@backends
@pytest.mark.parametrize("strategy", FUZZ_STRATEGIES)
@pytest.mark.parametrize("algorithm", ["aopt", "immediate_insertion"])
def test_staged_insertion_agrees_and_completes(algorithm, strategy, backend, references):
    """The full Listing 1/2 handshake: discovery, anchor, level promotions.

    The ramp makes the triggers fire on the inserted edge's leads while it
    climbs, so node 0's row mixes levels on the way.
    """
    spec = staged_insertion_spec(algorithm, strategy, ramp=4.5)
    assert_equivalent(spec, backend, references)
    engine = run_engine(spec, backend)
    # The inserted end-to-end edge reached full insertion on both sides.
    assert engine.algorithm(0).levels.level_of(4) == FULLY_INSERTED
    assert engine.algorithm(4).levels.level_of(0) == FULLY_INSERTED
    assert engine.algorithm(0).levels.subset_chain_holds()


@backends
@pytest.mark.parametrize("mode", ["oracle", "broadcast"])
@pytest.mark.parametrize(
    "delay", FUZZ_DELAYS + [STORM_DELAY], ids=lambda delay: delay[0] if delay else "default"
)
def test_every_delay_model_agrees(delay, mode, backend, references):
    """Every delay model, the chaos storm wrapper included, in both estimate modes."""
    spec = sweep_spec(ComponentSpec("line", {"n": 5}), delay=delay, estimate_mode=mode)
    assert_equivalent(spec, backend, references)


@backends
@pytest.mark.parametrize("strategy", FUZZ_STRATEGIES)
def test_every_estimate_strategy_agrees(strategy, backend, references):
    spec = sweep_spec(ComponentSpec("ring", {"n": 6}), strategy=strategy)
    assert_equivalent(spec, backend, references)


#: A generated spec whose convergence watchdog trips on the forced final
#: sample: the run is complete, so no backend may report an early stop.
TRIPS_ON_THE_FINAL_SAMPLE = ScenarioSpec(
    label="generated/complete/zero",
    topology=ComponentSpec("complete", {"n": 4}),
    algorithm=ComponentSpec("aopt", {"global_skew_bound": 25.0, "insertion_scale": 0.001}),
    params={"rho": 0.015, "mu": 0.1},
    edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
    sim={
        "dt": 0.05,
        "duration": 8.0,
        "sample_interval": 1.0,
        "estimate_strategy": "zero",
        "drop_messages_on_edge_loss": False,
    },
    initial_ramp_per_edge=0.5,
    until_stable=True,
)


@settings(max_examples=80, deadline=None)
@given(spec=scenario_specs())
@example(spec=TRIPS_ON_THE_FINAL_SAMPLE)
def test_generated_specs_agree(spec):
    references = {}
    for backend in COLUMNAR:
        if backend_available(backend):
            assert_equivalent(spec, backend, references)


# ----------------------------------------------------------------------
# fast only: what the scalar engine decides on its own
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", DETERMINISTIC_STRATEGIES)
def test_row_that_turns_mixed_and_back(strategy):
    """Node 0's row: one level, then two while the new edge climbs, then one."""
    spec = staged_insertion_spec(strategy=strategy, ramp=4.5)
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


def test_partition_scenario_actually_drops_messages():
    """The lossy-partition scenario must exercise the drop + forget path."""
    name = "grid_broadcast_partition"
    engine = run_engine(scenario(name, **EQUIVALENCE_SCENARIO_OVERRIDES[name]), "fast")
    assert engine.dropped_count > 0


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
