"""High-level helpers for building and running simulations.

Most experiments follow the same pattern: build a topology, choose an
adversarial drift model, configure AOPT (or a baseline), run for a while and
analyse the trace.  :class:`SimulationConfig` bundles the knobs: every
engine is built from ``(graph, algorithm_factory, config)``, and
:func:`run_simulation` builds the reference :class:`Engine` that way and
runs it for ``config.duration``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.algorithm import AOPTConfig, aopt_factory
from ..core.interfaces import AlgorithmFactory
from ..core import insertion as insertion_mod
from ..core.parameters import DEFAULT_PARAMETERS, Parameters
from ..core.skew_estimates import suggest_global_skew_bound
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import DEFAULT_EDGE_PARAMS, NodeId
from .delay import DelayModel
from .drift import DriftModel
from .engine import Engine
from .trace import Trace


class RunnerError(ValueError):
    """Raised on invalid runner configuration."""


@dataclass
class SimulationConfig:
    """Everything needed to run one simulation besides graph and algorithm."""

    params: Parameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    dt: float = 0.05
    duration: float = 100.0
    sample_interval: float = 1.0
    broadcast_interval: float = 1.0
    estimate_mode: str = "oracle"  # "oracle" or "broadcast"
    estimate_strategy: str = "zero"
    estimate_seed: int = 0
    drift: Optional[DriftModel] = None
    delay: Optional[DelayModel] = None
    delay_seed: int = 0
    track_diameter: bool = False
    drop_messages_on_edge_loss: bool = False
    initial_logical: Optional[Dict[NodeId, float]] = None

    def __post_init__(self):
        if self.dt <= 0.0:
            raise RunnerError("dt must be positive")
        if self.duration < 0.0:
            raise RunnerError("duration must be non-negative")
        if self.sample_interval <= 0.0:
            raise RunnerError("sample_interval must be positive")
        if self.broadcast_interval <= 0.0:
            raise RunnerError("broadcast_interval must be positive")
        if self.estimate_mode not in ("oracle", "broadcast"):
            raise RunnerError(
                f"estimate_mode must be 'oracle' or 'broadcast', got {self.estimate_mode}"
            )


@dataclass
class SimulationResult:
    """Trace plus the engine it was produced by (for post-run inspection)."""

    trace: Trace
    engine: Engine


def run_simulation(
    graph: DynamicGraph,
    algorithm_factory: AlgorithmFactory,
    config: SimulationConfig,
) -> SimulationResult:
    """Run a full simulation and return the trace and engine."""
    engine = Engine(graph, algorithm_factory, config)
    trace = engine.run(config.duration)
    return SimulationResult(trace=trace, engine=engine)


def minimum_kappa(graph: DynamicGraph, params: Parameters) -> float:
    """Smallest edge weight ``kappa_e`` over the graph's known edges."""
    edges = graph.distinct_edge_params()
    if not edges:
        if graph.node_count < 2:
            raise RunnerError("cannot derive kappa_min for a single-node graph")
        # No edge has parameters of its own: every edge reads the default.
        edges = [DEFAULT_EDGE_PARAMS]
    return min(params.kappa_for(edge.epsilon, edge.tau) for edge in edges)


def default_aopt_config(
    graph: DynamicGraph,
    config: SimulationConfig,
    *,
    global_skew_bound: Optional[float] = None,
    insertion_duration: Optional[insertion_mod.DurationFunction] = None,
    immediate_insertion: bool = False,
) -> AOPTConfig:
    """Build a reasonable AOPT configuration for the given topology."""
    bound = global_skew_bound
    if bound is None:
        bound = suggest_global_skew_bound(
            graph, config.params, broadcast_interval=config.broadcast_interval
        )
    return AOPTConfig.for_bound(
        config.params,
        bound,
        kappa_min=minimum_kappa(graph, config.params),
        broadcast_interval=config.broadcast_interval,
        insertion_duration=insertion_duration,
        immediate_insertion=immediate_insertion,
    )


def run_aopt(
    graph: DynamicGraph,
    config: SimulationConfig,
    *,
    global_skew_bound: Optional[float] = None,
    insertion_duration: Optional[insertion_mod.DurationFunction] = None,
    immediate_insertion: bool = False,
) -> SimulationResult:
    """Convenience wrapper: run AOPT on ``graph`` with sensible defaults."""
    aopt_config = default_aopt_config(
        graph,
        config,
        global_skew_bound=global_skew_bound,
        insertion_duration=insertion_duration,
        immediate_insertion=immediate_insertion,
    )
    return run_simulation(graph, aopt_factory(aopt_config), config)
