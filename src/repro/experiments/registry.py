"""Named factories that turn pure-data specs into live simulation objects.

Five registries map names to factories:

* ``TOPOLOGIES`` -- everything in :mod:`repro.network.topology` (plus the
  combined :func:`repro.network.dynamics.sliding_window_line` builder, which
  produces its own schedule);
* ``DYNAMICS`` -- transformations that add scripted churn to a base graph,
  wrapping :mod:`repro.network.dynamics` and adding generic variants
  (``rotating_shortcuts``, ``hub_failover``) that work on any base topology,
  and the fault builders of :mod:`repro.chaos.faults`;
* ``DRIFTS`` -- the drift models of :mod:`repro.sim.drift`;
* ``DELAYS`` -- the delay models of :mod:`repro.sim.delay`;
* ``ALGORITHMS`` -- AOPT and the baselines of :mod:`repro.baselines`.

On top of those, ``SCENARIOS`` holds named end-to-end scenario builders that
return complete :class:`~repro.experiments.spec.ScenarioSpec` objects.  Ten
are written here, each as what differs from one model (:func:`model_spec`):
the paper's sweeps ``line_scaling`` (E1--E3), ``end_to_end_insertion`` (E4)
and ``quickstart_line``; dynamic networks the E1--E10 suite does not cover
(``grid_periodic_churn``, ``random_connected_sliding_window``,
``star_hub_failover``, ``ring_sinusoidal_drift``); and broadcast estimates
(``line_broadcast``, ``random_broadcast_delay_storm``,
``grid_broadcast_partition``).  The other 24 are the chaos pack, JSON files
in ``repro/chaos/scenarios/`` that :mod:`repro.chaos.loader` registers.

A builder's arguments shape the scenario (sizes, the algorithm, the timing
of its dynamics); a setting of the run goes in ``sim``, merged over the
model's last: ``scenario("line_broadcast", sim={"dt": 0.05,
"broadcast_interval": 0.5})``, or ``--set sim.dt=0.05`` on the command line.

:func:`build_scenario` materialises a spec into a graph, an algorithm factory
and a :class:`~repro.sim.runner.SimulationConfig`.  Any factory that accepts a
``seed`` argument but was not given one receives a seed derived from the
spec's content hash, so materialisation is deterministic everywhere.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines.hardware_only import hardware_only_factory
from ..fastsim.backend import AOPT_FAMILY
from ..baselines.immediate_insertion import immediate_insertion_factory
from ..baselines.max_algorithm import max_propagation_factory
from ..baselines.threshold_gradient import threshold_gradient_factory
from ..core.algorithm import aopt_factory
from ..core import insertion as insertion_mod
from ..core.interfaces import AlgorithmFactory
from ..core.parameters import Parameters
from ..core.skew_estimates import suggest_global_skew_bound
from ..network import dynamics as net_dynamics
from ..network import topology as net_topology
from ..network.dynamic_graph import DynamicGraph, GraphError
from ..network.edge import EdgeParams, NodeId
from ..sim import delay as delay_mod
from ..sim import drift as drift_mod
from ..sim.runner import SimulationConfig, default_aopt_config, minimum_kappa
from .spec import OBSERVATION_FIELDS, ComponentSpec, ScenarioSpec, SpecError

#: Canonical benchmark constants shared with ``benchmarks/common.py``:
#: sigma = (1 - rho) * mu / (2 * rho) = 3.28 >= 3.
BENCHMARK_PARAMS: Dict[str, float] = {"rho": 0.015, "mu": 0.1}
BENCHMARK_EDGE: Dict[str, float] = {"epsilon": 1.0, "tau": 0.5, "delay": 2.0}
#: Constant-factor reduction of the insertion duration of equation (10); the
#: Theta(G/mu) scaling is preserved (see EXPERIMENTS.md).
BENCHMARK_INSERTION_SCALE = 0.02


class RegistryError(KeyError):
    """Raised when a registry lookup fails."""


class Registry:
    """A small name -> factory mapping with decorator-style registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._items: Dict[str, Callable] = {}

    def register(self, name: str, factory: Optional[Callable] = None):
        if factory is None:
            def decorator(fn):
                self.register(name, fn)
                return fn

            return decorator
        if name in self._items:
            raise RegistryError(f"{self.kind} {name!r} is already registered")
        self._items[name] = factory
        return factory

    def get(self, name: str) -> Callable:
        try:
            return self._items[name]
        except KeyError:
            known = ", ".join(sorted(self._items))
            raise RegistryError(
                f"unknown {self.kind} {name!r}; known: {known}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._items)

    def __contains__(self, name: str) -> bool:
        return name in self._items


TOPOLOGIES = Registry("topology")
DYNAMICS = Registry("dynamics")
DRIFTS = Registry("drift")
DELAYS = Registry("delay")
ALGORITHMS = Registry("algorithm")
SCENARIOS = Registry("scenario")


def _call_with_optional_seed(fn: Callable, kwargs: Dict[str, Any], seed: int):
    """Inject a derived seed when the factory accepts one and none was given."""
    parameters = inspect.signature(fn).parameters
    if "seed" in parameters and "seed" not in kwargs:
        kwargs = dict(kwargs)
        kwargs["seed"] = seed % (2 ** 31)
    return fn(**kwargs)


# ----------------------------------------------------------------------
# Topologies: fn(edge_params, **args) -> DynamicGraph
# ----------------------------------------------------------------------
TOPOLOGIES.register("line", lambda edge, *, n: net_topology.line(n, edge))
TOPOLOGIES.register("ring", lambda edge, *, n: net_topology.ring(n, edge))
TOPOLOGIES.register("star", lambda edge, *, n: net_topology.star(n, edge))
TOPOLOGIES.register("complete", lambda edge, *, n: net_topology.complete(n, edge))
TOPOLOGIES.register(
    "grid", lambda edge, *, rows, cols: net_topology.grid(rows, cols, edge)
)
TOPOLOGIES.register(
    "binary_tree", lambda edge, *, depth: net_topology.binary_tree(depth, edge)
)


@TOPOLOGIES.register("random_tree")
def _random_tree(edge: EdgeParams, *, n: int, seed: int) -> DynamicGraph:
    return net_topology.random_tree(n, edge, seed=seed)


@TOPOLOGIES.register("random_connected")
def _random_connected(
    edge: EdgeParams, *, n: int, extra_edge_probability: float = 0.1, seed: int
) -> DynamicGraph:
    return net_topology.random_connected(
        n, extra_edge_probability, edge, seed=seed
    )


@TOPOLOGIES.register("sliding_window_line")
def _sliding_window_line(
    edge: EdgeParams, *, n: int, window: int = 2, shift_period: float, horizon: float
) -> DynamicGraph:
    return net_dynamics.sliding_window_line(
        n, window=window, shift_period=shift_period, horizon=horizon, params=edge
    )


# ----------------------------------------------------------------------
# Dynamics: fn(graph, edge_params, **args) -> (DynamicGraph, meta dict)
# ----------------------------------------------------------------------
@DYNAMICS.register("edge_insertion")
def _edge_insertion(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    u: NodeId,
    v: NodeId,
    insertion_time: float,
    detection_skew: float = 0.0,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    scenario = net_dynamics.with_edge_insertion(
        graph, u, v, insertion_time, params=edge, detection_skew=detection_skew
    )
    return scenario.graph, {
        "new_edge": scenario.new_edge,
        "insertion_time": insertion_time,
    }


@DYNAMICS.register("end_to_end_insertion")
def _end_to_end_insertion(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    insertion_time: float,
    detection_skew: float = 0.0,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    nodes = graph.nodes
    return _edge_insertion(
        graph,
        edge,
        u=nodes[0],
        v=nodes[-1],
        insertion_time=insertion_time,
        detection_skew=detection_skew,
    )


@DYNAMICS.register("periodic_churn")
def _periodic_churn(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    period: float = 25.0,
    up_fraction: float = 0.5,
    horizon: float,
    n_candidates: int = 4,
    seed: int,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """Random extra edges flapping on and off over an always-on base graph."""
    rng = random.Random(seed)
    nodes = graph.nodes
    non_edges = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1:]
        if not graph.has_edge(u, v)
    ]
    candidates = sorted(rng.sample(non_edges, min(n_candidates, len(non_edges))))
    churned = net_dynamics.periodic_churn(
        graph,
        candidates,
        period=period,
        up_fraction=up_fraction,
        horizon=horizon,
        params=edge,
        seed=rng.randrange(2 ** 30),
    )
    return churned, {"churn_candidates": candidates}


@DYNAMICS.register("rotating_shortcuts")
def _rotating_shortcuts(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    window: int = 3,
    shift_period: float,
    horizon: float,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """Generic sliding-window mobility on top of any base graph.

    Candidate shortcuts connect nodes whose positions in the node order are
    between 2 and ``window`` apart and that are not base edges; the active
    half of the candidate set rotates by one position every ``shift_period``
    (the mobility pattern of :func:`repro.network.dynamics.sliding_window_line`
    generalised to arbitrary always-connected base graphs).
    """
    if window < 2:
        raise GraphError("window must be at least 2 to create shortcuts")
    scenario = graph.copy()
    nodes = scenario.nodes
    shortcuts: List[Tuple[NodeId, NodeId]] = []
    for i in range(len(nodes)):
        for d in range(2, window + 1):
            if i + d < len(nodes) and not scenario.has_edge(nodes[i], nodes[i + d]):
                shortcuts.append((nodes[i], nodes[i + d]))
    if not shortcuts:
        return scenario, {"shortcut_count": 0}
    active = set(idx for idx in range(len(shortcuts)) if idx % 2 == 0)
    for idx in sorted(active):
        scenario.add_edge(*shortcuts[idx], edge)
    t = shift_period
    offset = 1
    while t <= horizon:
        new_active = set(
            (idx + offset) % len(shortcuts) for idx in range(0, len(shortcuts), 2)
        )
        for idx in sorted(active - new_active):
            scenario.schedule_edge_down(t, *shortcuts[idx])
        for idx in sorted(new_active - active):
            scenario.schedule_edge_up(t, *shortcuts[idx], params=edge)
        active = new_active
        offset += 1
        t += shift_period
    return scenario, {"shortcut_count": len(shortcuts)}


@DYNAMICS.register("hub_failover")
def _hub_failover(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    failover_time: float,
    overlap: float = 5.0,
    primary: Optional[NodeId] = None,
    backup: Optional[NodeId] = None,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """A hub hands its spokes over to a backup hub mid-run.

    At ``failover_time`` every leaf gains an edge to the backup hub; after an
    ``overlap`` grace period the primary hub drops its leaf edges.  The
    primary--backup edge is never touched, so the network stays connected
    throughout (the paper's connectivity assumption).
    """
    scenario = graph.copy()
    nodes = scenario.nodes
    if primary is None:
        primary = nodes[0]
    if backup is None:
        backup = nodes[1]
    if overlap <= 0.0:
        raise GraphError("overlap must be positive to preserve connectivity")
    if not scenario.has_edge(primary, backup):
        raise GraphError(
            f"hub_failover needs an edge between primary {primary} and "
            f"backup {backup} to keep the network connected"
        )
    for leaf in nodes:
        if leaf in (primary, backup):
            continue
        if not scenario.has_edge(backup, leaf):
            scenario.schedule_edge_up(failover_time, backup, leaf, params=edge)
        if scenario.has_edge(primary, leaf):
            scenario.schedule_edge_down(failover_time + overlap, primary, leaf)
    return scenario, {
        "failover_time": failover_time,
        "primary_hub": primary,
        "backup_hub": backup,
    }


# ----------------------------------------------------------------------
# Drift models: fn(rho, nodes, **args) -> DriftModel
# ----------------------------------------------------------------------
DRIFTS.register("none", lambda rho, nodes: drift_mod.NoDrift(rho))
DRIFTS.register(
    "sinusoidal",
    lambda rho, nodes, *, period=100.0: drift_mod.SinusoidalDrift(rho, period=period),
)


@DRIFTS.register("random_constant")
def _random_constant(rho: float, nodes, *, seed: int) -> drift_mod.DriftModel:
    return drift_mod.RandomConstantDrift(rho, nodes, seed=seed)


@DRIFTS.register("random_walk")
def _random_walk(
    rho: float, nodes, *, period: float = 10.0, step: Optional[float] = None, seed: int
) -> drift_mod.DriftModel:
    return drift_mod.RandomWalkDrift(rho, nodes, period=period, step=step, seed=seed)


@DRIFTS.register("two_group")
def _two_group(
    rho: float,
    nodes,
    *,
    swap_period: Optional[float] = None,
    fast: str = "upper",
) -> drift_mod.DriftModel:
    """Half-split two-group adversary; ``fast`` picks which half runs fast."""
    lower_half, upper_half = drift_mod.half_split(list(nodes))
    if fast == "upper":
        fast_nodes, slow_nodes = upper_half, lower_half
    elif fast == "lower":
        fast_nodes, slow_nodes = lower_half, upper_half
    else:
        raise SpecError(f"fast must be 'upper' or 'lower', got {fast!r}")
    return drift_mod.TwoGroupAdversary(
        rho, fast_nodes, slow_nodes, swap_period=swap_period
    )


@DRIFTS.register("ramp")
def _ramp(
    rho: float, nodes, *, reverse_period: Optional[float] = None
) -> drift_mod.DriftModel:
    return drift_mod.RampAdversary(rho, list(nodes), reverse_period=reverse_period)


# ----------------------------------------------------------------------
# Delay models: fn(**args) -> DelayModel
# ----------------------------------------------------------------------
DELAYS.register("zero", lambda: delay_mod.ZeroDelay())
DELAYS.register(
    "fixed_fraction",
    lambda *, fraction=0.5: delay_mod.FixedFractionDelay(fraction),
)
DELAYS.register(
    "directional",
    lambda *, slow_towards_higher=True: delay_mod.DirectionalDelay(slow_towards_higher),
)


@DELAYS.register("uniform")
def _uniform_delay(
    *, low_fraction: float = 0.0, high_fraction: float = 1.0, seed: int
) -> delay_mod.DelayModel:
    return delay_mod.UniformRandomDelay(low_fraction, high_fraction, seed=seed)


# ----------------------------------------------------------------------
# Algorithms: fn(graph, config, **args) -> (AlgorithmFactory, bound or None)
# ----------------------------------------------------------------------
def _aopt_like(
    graph: DynamicGraph,
    config: SimulationConfig,
    *,
    factory_fn,
    global_skew_bound: Optional[float] = None,
    insertion_scale: Optional[float] = None,
    immediate_insertion: bool = False,
) -> Tuple[AlgorithmFactory, float]:
    duration_fn = (
        insertion_mod.scaled_insertion_duration(insertion_scale)
        if insertion_scale is not None
        else None
    )
    aopt_config = default_aopt_config(
        graph,
        config,
        global_skew_bound=global_skew_bound,
        insertion_duration=duration_fn,
        immediate_insertion=immediate_insertion,
    )
    return factory_fn(aopt_config), aopt_config.global_skew.value(0.0)


@ALGORITHMS.register("aopt")
def _aopt(graph, config, **args):
    return _aopt_like(graph, config, factory_fn=aopt_factory, **args)


@ALGORITHMS.register("immediate_insertion")
def _immediate_insertion(graph, config, **args):
    args.setdefault("immediate_insertion", True)
    return _aopt_like(
        graph, config, factory_fn=immediate_insertion_factory, **args
    )


@ALGORITHMS.register("max_propagation")
def _max_propagation(graph, config):
    return max_propagation_factory(config.params.rho), None


@ALGORITHMS.register("threshold_gradient")
def _threshold_gradient(
    graph, config, *, threshold: Optional[float] = None, blocking: bool = True
):
    if threshold is None:
        # The Theta(sqrt(D))-sized threshold the single-level rule needs for
        # its own global-skew argument (Locher & Wattenhofer).
        kappa = minimum_kappa(graph, config.params)
        threshold = kappa * math.sqrt(graph.node_count) / 2.0
    return (
        threshold_gradient_factory(config.params, threshold, blocking=blocking),
        None,
    )


@ALGORITHMS.register("hardware_only")
def _hardware_only(graph, config):
    return hardware_only_factory(), None


#: Benchmark-suite algorithm labels accepted by the scenario builders.
ALGORITHM_ALIASES: Dict[str, str] = {
    "AOPT": "aopt",
    "ImmediateInsertion": "immediate_insertion",
    "MaxPropagation": "max_propagation",
    "ThresholdGradient": "threshold_gradient",
    "HardwareOnly": "hardware_only",
}


def resolve_algorithm_name(name: str) -> str:
    """Map a benchmark-style label (``"AOPT"``) to its registry name."""
    resolved = ALGORITHM_ALIASES.get(name, name)
    if resolved not in ALGORITHMS:
        raise RegistryError(
            f"unknown algorithm {name!r}; known: "
            + ", ".join(ALGORITHMS.names() + sorted(ALGORITHM_ALIASES))
        )
    return resolved


# ----------------------------------------------------------------------
# Materialisation
# ----------------------------------------------------------------------
@dataclass
class MaterialisedScenario:
    """A spec resolved into live objects, ready for the engine."""

    spec: ScenarioSpec
    graph: DynamicGraph
    base_edges: List[Tuple[NodeId, NodeId]]
    config: SimulationConfig
    algorithm_factory: AlgorithmFactory
    global_skew_bound: Optional[float]
    meta: Dict[str, Any] = field(default_factory=dict)


def build_graph(spec: ScenarioSpec) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """Build (and churn-schedule) the dynamic graph of a spec, plus metadata."""
    edge = EdgeParams(**spec.edge)
    seed = spec.base_seed()
    topology_fn = TOPOLOGIES.get(spec.topology.name)
    graph = _call_with_optional_seed(
        topology_fn, {"edge": edge, **spec.topology.args}, seed
    )
    meta: Dict[str, Any] = {}
    if spec.dynamics is not None:
        dynamics_fn = DYNAMICS.get(spec.dynamics.name)
        graph, dynamics_meta = _call_with_optional_seed(
            dynamics_fn, {"graph": graph, "edge": edge, **spec.dynamics.args}, seed + 1
        )
        meta.update(dynamics_meta)
    return graph, meta


def build_scenario(spec: ScenarioSpec) -> MaterialisedScenario:
    """Materialise a spec: graph, drift/delay models, config and algorithm."""
    params = Parameters(**spec.params)
    params.validate()
    seed = spec.base_seed()
    graph, meta = build_graph(spec)

    drift = None
    if spec.drift is not None:
        drift_fn = DRIFTS.get(spec.drift.name)
        drift = _call_with_optional_seed(
            drift_fn, {"rho": params.rho, "nodes": graph.nodes, **spec.drift.args},
            seed + 2,
        )
    delay = None
    if spec.delay is not None:
        delay_fn = DELAYS.get(spec.delay.name)
        delay = _call_with_optional_seed(delay_fn, dict(spec.delay.args), seed + 3)

    initial_logical = None
    if spec.initial_logical is not None:
        initial_logical = dict(spec.initial_logical)
    elif spec.initial_ramp_per_edge is not None:
        initial_logical = {
            node: spec.initial_ramp_per_edge * i
            for i, node in enumerate(graph.nodes)
        }

    sim_kwargs = dict(spec.sim)
    # The default delay model and some estimate strategies draw random
    # numbers; pin their seeds to the spec hash so every run of this spec is
    # bit-identical regardless of process or worker count.
    sim_kwargs.setdefault("delay_seed", (seed + 4) % (2 ** 31))
    sim_kwargs.setdefault("estimate_seed", (seed + 5) % (2 ** 31))
    if spec.trace_stride != 1:
        # Record every k-th sample; an observation detail, so it scales the
        # sample interval without touching the scenario identity (seeds).
        sim_kwargs["sample_interval"] = (
            float(sim_kwargs.get("sample_interval", 1.0)) * spec.trace_stride
        )
    config = SimulationConfig(
        params=params,
        drift=drift,
        delay=delay,
        initial_logical=initial_logical,
        **sim_kwargs,
    )

    algorithm_fn = ALGORITHMS.get(spec.algorithm.name)
    algorithm_factory, bound = algorithm_fn(graph, config, **spec.algorithm.args)

    base_edges = list(graph.edge_pairs())
    meta.update(spec.notes)
    meta.setdefault("label", spec.label)
    meta.setdefault("scenario_hash", spec.content_hash())
    if bound is not None:
        meta.setdefault("global_skew_bound", bound)
    return MaterialisedScenario(
        spec=spec,
        graph=graph,
        base_edges=base_edges,
        config=config,
        algorithm_factory=algorithm_factory,
        global_skew_bound=bound,
        meta=meta,
    )


# ----------------------------------------------------------------------
# Named end-to-end scenarios
# ----------------------------------------------------------------------
def scenario(name: str, **overrides: Any) -> ScenarioSpec:
    """Build the named scenario spec with builder-level overrides.

    Each of :data:`~repro.experiments.spec.OBSERVATION_FIELDS` is accepted
    as a pseudo-override for every named scenario, so the individual
    builders need not know about execution concerns: the CLI can say
    ``--set backend=auto`` (the fastest engine that runs the spec) or
    ``--set backend=vec``, sweep ``--grid backend=reference,fast,vec``,
    thin long traces with ``--set trace_stride=10``, run memory-bounded
    with ``--set trace=none``, or stop at stability with
    ``--until-stable``.  ``None`` means "not given"; any other value goes
    to the spec as it is, whose own validation rejects a wrong type (a
    stringly ``until_stable="yes"`` fails loudly).  Any other override must
    be an argument of the builder; a setting of the run goes in ``sim``.
    """
    observed = {
        field: value
        for field in OBSERVATION_FIELDS
        if (value := overrides.pop(field, None)) is not None
    }
    builder = SCENARIOS.get(name)
    takes = inspect.signature(builder).parameters
    unknown = [key for key in overrides if key not in takes]
    # A chaos-pack builder takes **overrides and names what it accepts itself.
    if unknown and not any(p.kind is p.VAR_KEYWORD for p in takes.values()):
        raise SpecError(
            f"scenario {name!r} has no argument {', '.join(map(repr, unknown))}; "
            f"it takes {', '.join(takes)} (a setting of the run, such as dt, "
            "goes in sim: sim.dt=0.05)"
        )
    return replace(builder(**overrides), **observed)


def _line_model(n: int) -> Tuple[Parameters, float, float]:
    """The benchmark parameters, their ``kappa`` and an n-node line's skew bound."""
    params = Parameters(**BENCHMARK_PARAMS)
    kappa = params.kappa_for(BENCHMARK_EDGE["epsilon"], BENCHMARK_EDGE["tau"])
    line = net_topology.line(n, EdgeParams(**BENCHMARK_EDGE))
    return params, kappa, suggest_global_skew_bound(line, params)


def model_spec(
    *,
    duration: float,
    sim: Optional[Dict[str, Any]] = None,
    dt: float = 0.1,
    params: Dict[str, float] = BENCHMARK_PARAMS,
    **fields: Any,
) -> ScenarioSpec:
    """A spec of the benchmark model; ``fields`` are the spec fields that differ.

    The model's run settings (``dt``, ``duration``, one sample per time
    unit, ``toward_observer`` estimates) come first and the caller's ``sim``
    is merged over them last.
    """
    return ScenarioSpec(
        params=dict(params),
        edge=dict(BENCHMARK_EDGE),
        sim={
            "dt": dt,
            "duration": duration,
            "sample_interval": 1.0,
            "estimate_strategy": "toward_observer",
            **(sim or {}),
        },
        **fields,
    )


#: The broadcast builders' estimates: clock broadcasts once per time unit.
_BROADCAST_SIM: Dict[str, Any] = {"estimate_mode": "broadcast", "broadcast_interval": 1.0}


def _algorithm_component(algorithm: str, **aopt_args: Any) -> ComponentSpec:
    """Algorithm component with AOPT-family arguments applied when relevant.

    The composite scenarios give the AOPT family the benchmark insertion
    scale so scheduled edges finish inserting within the run; baselines take
    no arguments.
    """
    name = resolve_algorithm_name(algorithm)
    if name in AOPT_FAMILY:
        args = {"insertion_scale": BENCHMARK_INSERTION_SCALE}
        args.update(aopt_args)
        return ComponentSpec(name, args)
    return ComponentSpec(name, {})


@SCENARIOS.register("line_scaling")
def _line_scaling_scenario(
    *,
    n: int = 8,
    algorithm: str = "AOPT",
    swap_period: float = 150.0,
    ramp_fraction: float = 0.95,
    duration: Optional[float] = None,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """The E1/E2/E3 sweep: a line fighting a swapping two-group adversary.

    The line starts from an adversarially pre-built ramp of roughly one
    ``kappa`` of skew per edge and is driven by a periodically swapping
    two-group drift adversary.
    """
    _, kappa, bound = _line_model(n)
    return model_spec(
        label=f"line_scaling/n={n}/{algorithm}",
        topology=ComponentSpec("line", {"n": n}),
        drift=ComponentSpec("two_group", {"swap_period": swap_period}),
        algorithm=_algorithm_component(algorithm, global_skew_bound=bound),
        duration=duration if duration is not None else 100.0 + 60.0 * n,
        sim=sim,
        initial_ramp_per_edge=ramp_fraction * kappa,
        notes={"reference_global_skew_bound": bound},
    )


@SCENARIOS.register("end_to_end_insertion")
def _end_to_end_insertion_scenario(
    *,
    n: int = 10,
    algorithm: str = "AOPT",
    insertion_time: float = 30.0,
    ramp_fraction: float = 0.95,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """The E4/Theorem 8.1 scenario: a line whose endpoints become adjacent.

    The line starts from the pre-built ramp, so the two endpoints of the new
    edge carry skew proportional to the diameter when the edge appears.
    """
    params, kappa, line_bound = _line_model(n)
    ramp = ramp_fraction * kappa
    # The bound handed to the algorithm must dominate the pre-built skew
    # (assumption (6) of the paper).
    bound = max(line_bound, 1.1 * ramp * (n - 1))
    insertion_span = BENCHMARK_INSERTION_SCALE * params.insertion_duration(bound)
    duration = insertion_time + 2.4 * insertion_span + 120.0
    return model_spec(
        label=f"end_to_end_insertion/n={n}/{algorithm}",
        topology=ComponentSpec("line", {"n": n}),
        dynamics=ComponentSpec(
            "end_to_end_insertion", {"insertion_time": insertion_time}
        ),
        drift=ComponentSpec("two_group", {}),
        algorithm=_algorithm_component(algorithm, global_skew_bound=bound),
        duration=duration,
        sim=sim,
        initial_ramp_per_edge=ramp,
        notes={
            "global_skew_bound": bound,
            "insertion_span": insertion_span,
            "duration": duration,
        },
    )


@SCENARIOS.register("grid_periodic_churn")
def _grid_periodic_churn_scenario(
    *,
    rows: int = 4,
    cols: int = 4,
    algorithm: str = "AOPT",
    churn_period: float = 25.0,
    up_fraction: float = 0.5,
    n_candidates: int = 6,
    duration: float = 240.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """A grid whose diagonal shortcut edges flap on and off periodically.

    The grid backbone is never removed, so the network stays connected while
    the churn repeatedly shrinks and stretches effective distances.
    """
    return model_spec(
        label=f"grid_periodic_churn/{rows}x{cols}/{algorithm}",
        topology=ComponentSpec("grid", {"rows": rows, "cols": cols}),
        dynamics=ComponentSpec(
            "periodic_churn",
            {
                "period": churn_period,
                "up_fraction": up_fraction,
                "horizon": duration - churn_period,
                "n_candidates": n_candidates,
            },
        ),
        drift=ComponentSpec("two_group", {"swap_period": 80.0}),
        algorithm=_algorithm_component(algorithm),
        duration=duration,
        sim=sim,
    )


@SCENARIOS.register("random_connected_sliding_window")
def _random_connected_sliding_window_scenario(
    *,
    n: int = 12,
    extra_edge_probability: float = 0.08,
    window: int = 3,
    shift_period: float = 20.0,
    algorithm: str = "AOPT",
    duration: float = 240.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """A random connected graph with a rotating window of shortcut edges.

    The mobility-flavoured shortcut rotation of the sliding-window line is
    applied on top of a random connected backbone, so estimate edges keep
    appearing and disappearing while connectivity is preserved.
    """
    return model_spec(
        label=f"random_connected_sliding_window/n={n}/{algorithm}",
        topology=ComponentSpec(
            "random_connected",
            {"n": n, "extra_edge_probability": extra_edge_probability},
        ),
        dynamics=ComponentSpec(
            "rotating_shortcuts",
            {"window": window, "shift_period": shift_period, "horizon": duration},
        ),
        drift=ComponentSpec("random_walk", {"period": 15.0}),
        algorithm=_algorithm_component(algorithm),
        duration=duration,
        sim=sim,
    )


@SCENARIOS.register("star_hub_failover")
def _star_hub_failover_scenario(
    *,
    n: int = 10,
    failover_time: float = 60.0,
    overlap: float = 5.0,
    algorithm: str = "AOPT",
    duration: float = 200.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """A star whose hub hands every spoke over to a backup hub mid-run.

    Diameter-2 before and after the failover, but during the handover every
    leaf's only estimate path migrates from one hub to the other -- a burst of
    simultaneous insertions and removals.
    """
    return model_spec(
        label=f"star_hub_failover/n={n}/{algorithm}",
        topology=ComponentSpec("star", {"n": n}),
        dynamics=ComponentSpec(
            "hub_failover", {"failover_time": failover_time, "overlap": overlap}
        ),
        drift=ComponentSpec("two_group", {"swap_period": 60.0}),
        algorithm=_algorithm_component(algorithm),
        duration=duration,
        sim=sim,
    )


@SCENARIOS.register("ring_sinusoidal_drift")
def _ring_sinusoidal_drift_scenario(
    *,
    n: int = 12,
    drift_period: float = 80.0,
    algorithm: str = "AOPT",
    duration: float = 240.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """A ring under smoothly varying, phase-shifted sinusoidal drift.

    The phase shift between neighbours creates a travelling wave of rate
    differences around the cycle -- a benign but non-trivial stress test for
    the gradient property on a topology with two disjoint paths per pair.
    """
    return model_spec(
        label=f"ring_sinusoidal_drift/n={n}/{algorithm}",
        topology=ComponentSpec("ring", {"n": n}),
        drift=ComponentSpec("sinusoidal", {"period": drift_period}),
        algorithm=_algorithm_component(algorithm),
        duration=duration,
        sim=sim,
    )


@SCENARIOS.register("quickstart_line")
def _quickstart_line_scenario(
    *,
    n: int = 8,
    algorithm: str = "AOPT",
    duration: float = 200.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """The examples/quickstart.py scenario: AOPT on a small static line."""
    return model_spec(
        label=f"quickstart_line/n={n}/{algorithm}",
        topology=ComponentSpec("line", {"n": n}),
        drift=ComponentSpec("two_group", {}),
        algorithm=ComponentSpec(resolve_algorithm_name(algorithm), {}),
        params={"rho": 0.01, "mu": 0.1},
        duration=duration,
        dt=0.05,
        sim=sim,
    )


@SCENARIOS.register("line_broadcast")
def _line_broadcast_scenario(
    *,
    n: int = 8,
    algorithm: str = "AOPT",
    swap_period: float = 150.0,
    ramp_fraction: float = 0.95,
    duration: Optional[float] = None,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """The line sweep with estimates carried by periodic clock broadcasts.

    Same adversary and pre-built ramp as ``line_scaling``, but the oracle
    estimate layer is replaced by the paper's message model: nodes broadcast
    their logical clock every ``sim.broadcast_interval`` hardware time and
    neighbors extrapolate the last received value at their own hardware
    rate.  The benchmark family for the message-transport fast path.
    """
    base = _line_scaling_scenario(
        n=n,
        algorithm=algorithm,
        swap_period=swap_period,
        ramp_fraction=ramp_fraction,
        duration=duration,
        sim={**_BROADCAST_SIM, **(sim or {})},
    )
    return replace(base, label=f"line_broadcast/n={n}/{algorithm}")


@SCENARIOS.register("random_broadcast_delay_storm")
def _random_broadcast_delay_storm_scenario(
    *,
    n: int = 12,
    algorithm: str = "AOPT",
    storm_period: float = 40.0,
    storm_width: float = 10.0,
    storm_factor: float = 4.0,
    duration: float = 240.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """Broadcast estimates on a churning random graph under delay storms.

    The ``random_connected_sliding_window`` backbone (rotating shortcut
    edges, random-walk drift) with broadcast-mode estimates and a
    ``delay_spike_storm`` wrapping a uniform random delay: periodic windows
    where message delays spike towards the bound, stressing the staleness
    term of the broadcast error bound while edges churn.
    """
    base = _random_connected_sliding_window_scenario(
        n=n,
        algorithm=algorithm,
        duration=duration,
        sim={**_BROADCAST_SIM, **(sim or {})},
    )
    return replace(
        base,
        label=f"random_broadcast_delay_storm/n={n}/{algorithm}",
        delay=ComponentSpec(
            "delay_spike_storm",
            {
                "inner": "uniform",
                "inner_args": {"low_fraction": 0.1, "high_fraction": 0.9},
                "period": storm_period,
                "width": storm_width,
                "factor": storm_factor,
            },
        ),
    )


@SCENARIOS.register("grid_broadcast_partition")
def _grid_broadcast_partition_scenario(
    *,
    rows: int = 3,
    cols: int = 3,
    algorithm: str = "AOPT",
    split_time: float = 40.0,
    heal_time: float = 80.0,
    duration: float = 160.0,
    sim: Optional[Dict[str, Any]] = None,
) -> ScenarioSpec:
    """Broadcast estimates across a partition with lossy in-flight messages.

    A grid splits into two components and heals; messages in flight across
    severed edges are dropped (``drop_messages_on_edge_loss``) and the
    broadcast layer forgets the stored state of lost edges, so re-merged
    neighbors must re-learn each other's clocks from fresh broadcasts.
    Exercises the edge-loss ``forget`` path and the heap-transport fallback
    of the vectorized backends.
    """
    return model_spec(
        label=f"grid_broadcast_partition/{rows}x{cols}/{algorithm}",
        topology=ComponentSpec("grid", {"rows": rows, "cols": cols}),
        dynamics=ComponentSpec(
            "partition_then_heal",
            {"split_time": split_time, "heal_time": heal_time},
        ),
        drift=ComponentSpec("two_group", {"swap_period": 60.0}),
        delay=ComponentSpec(
            "uniform", {"low_fraction": 0.1, "high_fraction": 0.9}
        ),
        algorithm=_algorithm_component(algorithm),
        duration=duration,
        sim={**_BROADCAST_SIM, "drop_messages_on_edge_loss": True, **(sim or {})},
    )


# ----------------------------------------------------------------------
# Chaos fault family (repro.chaos)
#
# This block sits at the bottom of the module on purpose: repro.chaos
# imports nothing from repro.experiments at module level, but its loader
# needs the registries above to exist when packaged scenario files are
# registered, and the DYNAMICS/DELAYS entries below need repro.chaos.
# Keeping the cross-imports down here makes the cycle a no-op.
# ----------------------------------------------------------------------
from ..chaos import faults as _chaos_faults  # noqa: E402

DYNAMICS.register("correlated_mass_churn", _chaos_faults.correlated_mass_churn)
DYNAMICS.register("partition_then_heal", _chaos_faults.partition_then_heal)
DYNAMICS.register("crash_restart", _chaos_faults.crash_restart)


@DELAYS.register("delay_spike_storm")
def _delay_spike_storm(
    *,
    inner: str = "fixed_fraction",
    inner_args: Optional[Dict[str, Any]] = None,
    period: float = 40.0,
    width: float = 10.0,
    start: float = 0.0,
    factor: float = 4.0,
    edges: Optional[Sequence[Sequence[NodeId]]] = None,
    seed: int,
) -> delay_mod.DelayModel:
    """Windowed delay amplifier wrapping another registered delay model.

    ``inner``/``inner_args`` name the wrapped DELAYS entry; the spec-derived
    seed is forwarded to it when it takes one, so e.g. a uniform inner model
    stays deterministic per spec across backends.
    """
    inner_model = _call_with_optional_seed(
        DELAYS.get(inner), dict(inner_args or {}), seed
    )
    edge_pairs = (
        None if edges is None else [(pair[0], pair[1]) for pair in edges]
    )
    return delay_mod.DelaySpikeStorm(
        inner_model,
        period=period,
        width=width,
        start=start,
        factor=factor,
        edges=edge_pairs,
    )


from ..chaos.loader import register_packaged_scenarios as _register_chaos  # noqa: E402

#: Per-file error messages from loading the packaged chaos scenario pack at
#: import time (also mirrored in repro.chaos.LOAD_ERRORS).  A broken file
#: never breaks this import; `repro-experiments scenarios --validate` fails
#: on these.
CHAOS_LOAD_ERRORS: List[str] = _register_chaos()
