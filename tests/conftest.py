"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.interfaces import NodeAPI
from repro.core.parameters import Parameters
from repro.experiments.spec import ComponentSpec, ScenarioSpec
from repro.fastsim.backend import backend_available
from repro.metrics import OBSERVERS
from repro.network.edge import EdgeParams, NodeId
from repro.network import topology


# ----------------------------------------------------------------------
# Backend marks: one definition, so no module's list drops a backend
# ----------------------------------------------------------------------
needs_vec = pytest.mark.skipif(not backend_available("vec"), reason="numpy is not installed")
needs_jit = pytest.mark.skipif(
    not backend_available("jit"), reason="numpy or a C compiler is missing"
)
#: Every backend installed here: ``reference`` and ``fast`` always, ``vec``
#: with numpy, ``jit`` with numpy and a C compiler.
INSTALLED_BACKENDS = [
    name for name in ("reference", "fast", "vec", "jit") if backend_available(name)
]


# ----------------------------------------------------------------------
# Shared spec generators for the differential (equivalence) suites
# ----------------------------------------------------------------------
#: The named scenarios with overrides that shorten the runs while keeping
#: every mechanism (churn, failover, insertion handshake, drift variety,
#: broadcast estimates) in play.  Used by the backend and streaming-metrics
#: differential suites.
EQUIVALENCE_SCENARIO_OVERRIDES = {
    "line_scaling": {"n": 6, "sim": {"duration": 30.0}},
    "end_to_end_insertion": {
        "n": 6,
        "insertion_time": 10.0,
        "sim": {"duration": 60.0},
    },
    "grid_periodic_churn": {"rows": 3, "cols": 3, "duration": 60.0},
    "random_connected_sliding_window": {"n": 8, "duration": 60.0},
    "star_hub_failover": {"n": 8, "failover_time": 15.0, "duration": 40.0},
    "ring_sinusoidal_drift": {"n": 8, "duration": 30.0},
    "quickstart_line": {"n": 6, "duration": 40.0},
    "line_broadcast": {"n": 6, "sim": {"duration": 30.0}},
    "random_broadcast_delay_storm": {"n": 8, "duration": 60.0},
    "grid_broadcast_partition": {
        "rows": 3,
        "cols": 3,
        "split_time": 10.0,
        "heal_time": 25.0,
        "duration": 50.0,
    },
}


#: The delay models and oracle estimate strategies every backend implements.
FUZZ_DELAYS = [
    None,
    ("zero", {}),
    ("fixed_fraction", {"fraction": 0.3}),
    ("uniform", {"low_fraction": 0.1, "high_fraction": 0.9}),
    ("directional", {}),
]
FUZZ_STRATEGIES = ["zero", "uniform", "underestimate", "overestimate", "toward_observer"]

#: The chaos delay wrapper: periodic windows where delays spike to the bound.
STORM_DELAY = (
    "delay_spike_storm",
    {
        "inner": "uniform",
        "inner_args": {"low_fraction": 0.2, "high_fraction": 0.8},
        "period": 8.0,
        "width": 3.0,
    },
)


#: Axes of the generated specs.  Topologies: name -> strategy over its args.
_TOPOLOGIES = {
    "line": st.fixed_dictionaries({"n": st.integers(3, 8)}),
    "ring": st.fixed_dictionaries({"n": st.integers(3, 8)}),
    "star": st.fixed_dictionaries({"n": st.integers(3, 8)}),
    "complete": st.fixed_dictionaries({"n": st.integers(3, 6)}),
    "grid": st.fixed_dictionaries({"rows": st.integers(2, 3), "cols": st.integers(2, 3)}),
    "binary_tree": st.fixed_dictionaries({"depth": st.integers(2, 3)}),
    "random_tree": st.fixed_dictionaries({"n": st.integers(4, 8)}),
    "random_connected": st.fixed_dictionaries(
        {"n": st.integers(4, 8), "extra_edge_probability": st.just(0.2)}
    ),
}
#: Dynamics: name -> (the one topology it is drawn on, or ``None`` for any;
#: strategy over its args).  The end-to-end insertion needs ends that are not
#: adjacent (a line's), the hub failover a hub next to its backup (a star's).
_DYNAMICS = {
    "periodic_churn": (
        None,
        st.fixed_dictionaries(
            {
                "period": st.sampled_from([2.0, 3.0, 5.0]),
                "up_fraction": st.just(0.5),
                "horizon": st.just(12.0),
                "n_candidates": st.integers(1, 4),
            }
        ),
    ),
    "rotating_shortcuts": (
        None,
        st.fixed_dictionaries(
            {
                "window": st.integers(2, 3),
                "shift_period": st.sampled_from([2.0, 3.0, 4.5]),
                "horizon": st.just(12.0),
            }
        ),
    ),
    "end_to_end_insertion": (
        "line",
        st.fixed_dictionaries({"insertion_time": st.sampled_from([1.0, 3.0, 5.0])}),
    ),
    "hub_failover": (
        "star",
        st.fixed_dictionaries(
            {
                "failover_time": st.sampled_from([2.0, 4.0]),
                "overlap": st.sampled_from([1.0, 3.0]),
            }
        ),
    ),
}
_DRIFTS = [
    None,
    ("none", {}),
    ("two_group", {}),
    ("two_group", {"swap_period": 7.0}),
    ("sinusoidal", {"period": 11.0}),
    ("random_constant", {}),
    ("random_walk", {"period": 3.0}),
    ("ramp", {}),
    ("ramp", {"reverse_period": 9.0}),
]


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """A small valid spec over every axis the columnar backends run.

    Topology x dynamics x drift x delay x estimate mode and strategy x
    algorithm x step x ramp, plus the observation fields (trace, stride,
    observers, early exit).
    """
    topology_name = draw(st.sampled_from(sorted(_TOPOLOGIES)))
    dynamics = draw(
        st.sampled_from(
            [None]
            + [name for name, (on, _) in _DYNAMICS.items() if on in (None, topology_name)]
        )
    )
    if dynamics is not None:
        dynamics = ComponentSpec(dynamics, draw(_DYNAMICS[dynamics][1]))
    drift = draw(st.sampled_from(_DRIFTS))
    delay = draw(st.sampled_from(FUZZ_DELAYS + [STORM_DELAY]))
    strategy = draw(st.sampled_from(FUZZ_STRATEGIES))
    sim = {
        "dt": draw(st.sampled_from([0.05, 0.1])),
        "duration": draw(st.sampled_from([8.0, 12.0])),
        "sample_interval": 1.0,
        "estimate_strategy": strategy,
        "drop_messages_on_edge_loss": draw(st.booleans()),
    }
    if draw(st.booleans()):
        sim["estimate_mode"] = "broadcast"
        sim["broadcast_interval"] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return ScenarioSpec(
        label=f"generated/{topology_name}/{strategy}",
        topology=ComponentSpec(topology_name, draw(_TOPOLOGIES[topology_name])),
        dynamics=dynamics,
        drift=ComponentSpec(*drift) if drift else None,
        delay=ComponentSpec(*delay) if delay else None,
        algorithm=ComponentSpec(
            draw(st.sampled_from(["aopt", "immediate_insertion"])),
            {
                "global_skew_bound": 25.0,
                "insertion_scale": draw(st.sampled_from([0.001, 0.01])),
            },
        ),
        params={"rho": 0.015, "mu": 0.1},
        edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
        sim=sim,
        initial_ramp_per_edge=draw(st.sampled_from([None, 0.5, 2.0, 4.5])),
        trace=draw(st.sampled_from(["full", "none"])),
        trace_stride=draw(st.integers(1, 3)),
        observers=draw(
            st.one_of(
                st.just(()),
                st.lists(
                    st.sampled_from(sorted(OBSERVERS)), min_size=1, max_size=4, unique=True
                ).map(tuple),
            )
        ),
        until_stable=draw(st.booleans()),
    )


def staged_insertion_spec(algorithm="aopt", strategy="toward_observer", ramp=None):
    """A line of 5 whose end-to-end edge appears at t = 5 and climbs every level."""
    return ScenarioSpec(
        label=f"staged_insertion/{algorithm}/{strategy}",
        topology=ComponentSpec("line", {"n": 5}),
        dynamics=ComponentSpec("end_to_end_insertion", {"insertion_time": 5.0}),
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


def feed_sample(pipeline, sample) -> None:
    """Feed one ``TraceSample`` to a metrics pipeline as the per-node columns
    every engine hands it."""
    logical, _, _, modes, max_estimates = sample.columns
    pipeline.observe_columns(
        sample.time, sample.ids, sample.index, logical, max_estimates, modes
    )


@pytest.fixture
def params() -> Parameters:
    """Standard parameters used across the tests (sigma ~ 4.95 >= 3)."""
    return Parameters(rho=0.01, mu=0.1)


@pytest.fixture
def tight_params() -> Parameters:
    """Low-drift parameters (large sigma)."""
    return Parameters(rho=1e-3, mu=0.1)


@pytest.fixture
def edge_params() -> EdgeParams:
    return EdgeParams(epsilon=1.0, tau=0.5, delay=2.0)


@pytest.fixture
def line5(edge_params) -> "DynamicGraph":
    return topology.line(5, edge_params)


class FakeNodeAPI(NodeAPI):
    """A scriptable NodeAPI for unit-testing algorithms without an engine."""

    def __init__(
        self,
        node_id: NodeId,
        *,
        edge_params: Optional[EdgeParams] = None,
    ):
        self._node_id = node_id
        self.time = 0.0
        self.hardware_value = 0.0
        self.logical_value = 0.0
        self.neighbor_set: Set[NodeId] = set()
        self.estimates: Dict[NodeId, float] = {}
        self.errors: Dict[NodeId, float] = {}
        self.edge_parameters: Dict[NodeId, EdgeParams] = {}
        self.default_edge_params = edge_params or EdgeParams()
        self.sent: List[Tuple[NodeId, object]] = []
        self.scheduled: List[Tuple[float, Callable[[float], None]]] = []

    # -- NodeAPI -------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def now(self) -> float:
        return self.time

    def hardware(self) -> float:
        return self.hardware_value

    def logical(self) -> float:
        return self.logical_value

    def neighbors(self) -> Set[NodeId]:
        return set(self.neighbor_set)

    def estimate(self, neighbor: NodeId) -> Optional[float]:
        return self.estimates.get(neighbor)

    def estimate_error(self, neighbor: NodeId) -> float:
        return self.errors.get(neighbor, self.edge_params(neighbor).epsilon)

    def edge_params(self, neighbor: NodeId) -> EdgeParams:
        return self.edge_parameters.get(neighbor, self.default_edge_params)

    def send(self, neighbor: NodeId, payload: object, at: Optional[float] = None) -> bool:
        if neighbor not in self.neighbor_set:
            return False
        self.sent.append((neighbor, payload))
        return True

    def schedule(self, delay: float, callback: Callable[[float], None]) -> None:
        self.scheduled.append((self.time + delay, callback))

    # -- test helpers ---------------------------------------------------
    def advance(self, dt: float, rate: float = 1.0, multiplier: float = 1.0) -> None:
        """Advance the fake clocks by ``dt`` at the given rates."""
        self.time += dt
        self.hardware_value += rate * dt
        self.logical_value += rate * multiplier * dt

    def fire_due(self, up_to: float) -> int:
        """Fire scheduled callbacks whose time has been reached."""
        due = [(t, cb) for (t, cb) in self.scheduled if t <= up_to + 1e-12]
        self.scheduled = [(t, cb) for (t, cb) in self.scheduled if t > up_to + 1e-12]
        for t, cb in sorted(due, key=lambda item: item[0]):
            cb(t)
        return len(due)


@pytest.fixture
def fake_api() -> FakeNodeAPI:
    return FakeNodeAPI(0)
