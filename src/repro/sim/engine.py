"""The fixed-step simulation engine.

The engine is built, like every engine, from ``(graph, algorithm_factory,
config)``.  It owns a copy of the dynamic graph, the per-node clocks and
algorithm instances, the bounded-delay transport, the estimate layer the
config names and (optionally) a dynamic-diameter tracker.  The run
settings, loop, sample hook and timer heap are :class:`EngineBase`'s,
shared with the columnar engines.  One step of length ``dt`` performs:

1. apply scheduled edge events and notify the affected algorithms;
2. deliver due messages (updating the estimate layer and diameter tracker);
3. fire due timers (the callbacks of ``NodeAPI.schedule``: handshake
   checks etc.);
4. ask every algorithm for its control decision;
5. record a trace sample if one is due;
6. advance hardware and logical clocks (applying requested jumps first);
7. advance the diameter tracker and the global time.

Because the state inspected by algorithms in step 4 is the state at the start
of the step, all nodes act on a consistent snapshot, mirroring the
continuous-time semantics of the paper up to an ``O(dt)`` discretization
error.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.aopt_step import MODE_CODES
from ..core.clocks import HardwareClock, LogicalClock
from ..core.interfaces import AlgorithmFactory, ClockSyncAlgorithm, ControlDecision, NodeAPI
from ..estimate.estimate_layer import EstimateLayer
from ..estimate.message_layer import BroadcastEstimateLayer
from ..estimate.messages import ClockBroadcast
from ..estimate.oracle_layer import OracleEstimateLayer
from ..estimate.transport import Transport
from ..network.diameter import DiameterTracker
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import EdgeParams, NodeId
from .delay import DelayModel, UniformRandomDelay
from .drift import DriftModel, NoDrift
from .trace import Trace, TraceSample


class EngineError(RuntimeError):
    """Raised on inconsistent engine configuration or usage."""


class _EngineNodeAPI(NodeAPI):
    """The :class:`NodeAPI` exposed to one node's algorithm."""

    def __init__(self, engine: "Engine", node_id: NodeId):
        self._engine = engine
        self._node_id = node_id

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def now(self) -> float:
        return self._engine.time

    def hardware(self) -> float:
        return self._engine.hardware_value(self._node_id)

    def logical(self) -> float:
        return self._engine.logical_value(self._node_id)

    def neighbors(self) -> Set[NodeId]:
        return self._engine.graph.neighbors(self._node_id)

    def estimate(self, neighbor: NodeId) -> Optional[float]:
        return self._engine.estimate_layer.estimate(
            self._node_id, neighbor, self._engine.time
        )

    def estimate_error(self, neighbor: NodeId) -> float:
        return self._engine.estimate_layer.error_bound(self._node_id, neighbor)

    def edge_params(self, neighbor: NodeId) -> EdgeParams:
        return self._engine.graph.edge_params(self._node_id, neighbor)

    def send(self, neighbor: NodeId, payload: object, at: Optional[float] = None) -> bool:
        envelope = self._engine.transport.try_send(
            self._node_id, neighbor, payload, self._engine.time if at is None else at
        )
        return envelope is not None

    def schedule(self, delay: float, callback: Callable[[float], None]) -> None:
        if delay < 0.0:
            raise EngineError(f"cannot schedule into the past (delay {delay})")
        if not callable(callback):
            raise EngineError(f"a timer callback must be callable, got {callback!r}")
        self._engine._schedule(self._engine.time + delay, callback)


class _NodeState:
    """Clocks and algorithm instance of a single node."""

    __slots__ = ("node_id", "hardware", "logical", "algorithm", "api", "decision")

    def __init__(
        self,
        node_id: NodeId,
        hardware: HardwareClock,
        logical: LogicalClock,
        algorithm: ClockSyncAlgorithm,
        api: _EngineNodeAPI,
    ):
        self.node_id = node_id
        self.hardware = hardware
        self.logical = logical
        self.algorithm = algorithm
        self.api = api
        self.decision = ControlDecision(multiplier=1.0)


class EngineBase:
    """The run loop, the sample hook and the timer heap every engine shares.

    Every engine is built from ``(graph, algorithm_factory, config)``; this
    class reads the settings they share off the config (a
    :class:`~repro.sim.runner.SimulationConfig`) once.  A subclass owns the
    rest and provides :meth:`step` (one step of length ``dt``, which calls
    :meth:`_record_sample` between its control decision and its clock
    advance), :meth:`_sample_columns`, ``_ids`` / ``_index`` (the column
    order of samples) and ``current_diameter()``.
    """

    #: Optional streaming-metrics hook (see :meth:`configure_recording`).
    _metrics = None
    #: Whether recorded samples are appended to ``self.trace``.
    _record_trace = True
    #: Whether :meth:`_sample_columns` returns the engine's live columns,
    #: which a kept sample must copy.
    _live_columns = False
    #: Set when an armed watchdog stopped the run before ``end_time``.
    stopped_early = False

    def __init__(self, graph: DynamicGraph, config):
        params = config.params
        params.validate()
        self.params = params
        self.dt = float(config.dt)
        self.time = 0.0
        # A private copy: applying scheduled edge events mutates the graph,
        # and callers reuse one scenario graph for several runs.
        self.graph = graph.copy()
        self.drift: DriftModel = config.drift or NoDrift(params.rho)
        # A fresh default per engine, never stored on the config: one config
        # reused for two runs gives two equal runs.
        delay = config.delay
        self.delay_model: DelayModel = (
            UniformRandomDelay(seed=config.delay_seed) if delay is None else delay
        )
        self.trace = Trace(config.sample_interval)
        self._next_sample_time = 0.0
        #: Pending timers ``(time, seq, payload)``, fired by
        #: :meth:`_fire_timers`; ``seq`` is per engine, so ties fire in
        #: insertion order.
        self._timers: List[Tuple[float, int, Any]] = []
        self._timer_seq = 0

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float) -> Trace:
        """Advance the simulation by ``duration`` time units."""
        if duration < 0.0:
            raise EngineError("duration must be non-negative")
        return self.run_until(self.time + duration)

    def run_until(self, end_time: float) -> Trace:
        """Advance the simulation until ``end_time`` (inclusive sampling).

        If the attached metrics pipeline has an armed watchdog (the
        ``--until-stable`` path), the loop exits as soon as the pipeline
        requests a stop.  The flag only changes while a sample is being
        recorded, so the stop lands exactly on a sample instant; the forced
        final sample is skipped, leaving the samples fed so far a
        bit-identical prefix of the full run's.
        """
        if end_time < self.time - 1e-12:
            raise EngineError("cannot run backwards in time")
        if self.stopped_early:
            return self.trace
        metrics = self._metrics
        while self.time < end_time - 1e-9:
            self._advance(end_time)
            if metrics is not None and metrics.stop_requested:
                self.stopped_early = True
                return self.trace
        self._record_sample(force=True)
        return self.trace

    def _advance(self, end_time: float) -> None:
        """One iteration of the run loop towards ``end_time``: one step."""
        self.step()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _schedule(self, time: float, payload: Any) -> None:
        """Push a timer that :meth:`_fire_timer` fires at ``time``."""
        self._timer_seq += 1
        heapq.heappush(self._timers, (time, self._timer_seq, payload))

    def _fire_timers(self, t: float) -> None:
        """Fire every timer due at ``t``.

        Timers fire in ``(time, seq)`` order, each with its scheduled time,
        once due within ``1e-12``.  A round pops every due timer, then fires
        them; a timer one of them schedules that is already due fires in a
        later round of the same call, so a chain of zero-delay follow-ups
        completes within the step.  A chain of more than 10 000 rounds
        raises: a callback is rescheduling itself.
        """
        timers = self._timers
        limit = t + 1e-12
        rounds = 0
        while timers and timers[0][0] <= limit:
            if rounds == 10000:
                raise EngineError(
                    "more than 10000 rounds of zero-delay timers at time "
                    f"{t}; a callback is probably rescheduling itself"
                )
            rounds += 1
            due = []
            while timers and timers[0][0] <= limit:
                due.append(heapq.heappop(timers))
            for time, _, payload in due:
                self._fire_timer(time, payload)

    def _fire_timer(self, time: float, payload: Any) -> None:
        """Fire one timer: by default its payload is a callback."""
        payload(time)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def configure_recording(self, pipeline=None, *, record_trace: bool = True) -> None:
        """Attach a streaming metrics pipeline and/or disable trace keeping.

        ``pipeline`` (a :class:`repro.metrics.pipeline.MetricsPipeline`) is
        fed the per-node columns of each recorded sample -- at exactly the
        instants a trace sample is (or would be) recorded.  With
        ``record_trace=False`` the engine keeps no samples at all:
        ``self.trace`` stays empty and memory no longer grows with the run
        duration.
        """
        self._metrics = pipeline
        self._record_trace = bool(record_trace)

    def _record_sample(self, force: bool = False) -> None:
        if not force and self.time + 1e-12 < self._next_sample_time:
            return
        self._emit_sample(self.time, self._sample_columns(), self._live_columns)
        if not force:
            self._next_sample_time = self.time + self.trace.sample_interval

    def _sample_columns(self) -> Sequence:
        """``(logical, hardware, multiplier, mode, max_estimate)`` now.

        Only a kept sample reads hardware and multiplier; without a kept
        trace they may be ``None``.
        """
        raise NotImplementedError

    def _emit_sample(self, time: float, columns: Sequence, copy: bool) -> None:
        """Hand one sample's columns to the kept trace and to the pipeline.

        ``copy``: the columns are live and a kept sample takes copies; the
        pipeline reduces the columns it is handed without keeping them.
        """
        logical, _, _, mode, max_estimate = columns
        if self._record_trace:
            if copy:
                columns = [column.copy() for column in columns]
            self.trace.record(
                TraceSample(
                    time, self._ids, self._index, *columns,
                    diameter=self.current_diameter(),
                )
            )
        if self._metrics is not None:
            self._metrics.observe_columns(
                time, self._ids, self._index, logical, max_estimate, mode
            )


class Engine(EngineBase):
    """Fixed-step simulator for clock synchronization algorithms."""

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config,  # repro.sim.runner.SimulationConfig
    ):
        super().__init__(graph, config)
        rho = self.params.rho
        # Kept for crash/restart scenarios: a node reset rebuilds the node's
        # algorithm instance from the same factory that created it.
        self._algorithm_factory = algorithm_factory
        self.transport = Transport(
            self.graph, self.delay_model, drop_on_edge_loss=config.drop_messages_on_edge_loss
        )
        self.diameter_tracker: Optional[DiameterTracker] = (
            DiameterTracker(self.graph.nodes, rho) if config.track_diameter else None
        )
        self._nodes: Dict[NodeId, _NodeState] = {}
        initial_logical = config.initial_logical or {}
        for node_id in self.graph.nodes:
            api = _EngineNodeAPI(self, node_id)
            algorithm = algorithm_factory(node_id)
            start_value = float(initial_logical.get(node_id, 0.0))
            state = _NodeState(
                node_id,
                HardwareClock(rho, start_value),
                LogicalClock(start_value, allow_jumps=True),
                algorithm,
                api,
            )
            self._nodes[node_id] = state
        # The column order of samples and of the metrics pipeline (nodes
        # never join or leave).
        self._ids = list(self._nodes)
        self._index = {node: i for i, node in enumerate(self._ids)}
        self.estimate_layer = self._build_estimate_layer(config)
        for state in self._nodes.values():
            state.algorithm.bind(state.api)
        for state in self._nodes.values():
            state.algorithm.on_start(0.0, self.graph.neighbors(state.node_id))

    def _build_estimate_layer(self, config) -> EstimateLayer:
        """The layer ``config`` names; it reads clocks through the node table."""
        nodes = self._nodes
        if config.estimate_mode == "oracle":
            return OracleEstimateLayer(
                self.graph,
                lambda node: nodes[node].logical.value,
                strategy=config.estimate_strategy,
                seed=config.estimate_seed,
            )
        return BroadcastEstimateLayer(
            self.graph,
            lambda node: nodes[node].hardware.value,
            broadcast_interval=config.broadcast_interval,
            rho=config.params.rho,
            mu=config.params.mu,
        )

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._nodes)

    def logical_value(self, node: NodeId) -> float:
        return self._node(node).logical.value

    def hardware_value(self, node: NodeId) -> float:
        return self._node(node).hardware.value

    def algorithm(self, node: NodeId) -> ClockSyncAlgorithm:
        return self._node(node).algorithm

    def logical_snapshot(self) -> Dict[NodeId, float]:
        return {n: s.logical.value for n, s in self._nodes.items()}

    def hardware_snapshot(self) -> Dict[NodeId, float]:
        return {n: s.hardware.value for n, s in self._nodes.items()}

    def global_skew(self) -> float:
        values = [s.logical.value for s in self._nodes.values()]
        return max(values) - min(values) if values else 0.0

    def current_diameter(self) -> Optional[float]:
        if self.diameter_tracker is None or not self.diameter_tracker.is_finite():
            return None
        return self.diameter_tracker.diameter()

    def _node(self, node: NodeId) -> _NodeState:
        try:
            return self._nodes[node]
        except KeyError:
            raise EngineError(f"unknown node {node}") from None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one simulation step of length ``dt``."""
        t = self.time
        self._apply_node_resets(t)
        self._apply_graph_events(t)
        self._deliver_messages(t)
        self._fire_timers(t)
        for state in self._nodes.values():
            state.decision = state.algorithm.control(t)
        self._record_sample()
        self._advance_clocks(t)
        if self.diameter_tracker is not None:
            self.diameter_tracker.advance(self.dt)
        self.time = t + self.dt

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _apply_node_resets(self, t: float) -> None:
        """Restart crashed nodes: fresh clocks, fresh algorithm, no memory.

        Resets run *before* the edge events of the same step so that a node
        rejoining at its restart instant greets its returning edges with the
        newly built algorithm (``on_edge_discovered`` must reach the reboot,
        not the pre-crash instance).  Everything the rest of the network
        remembered about the node is dropped from the estimate layer: its
        pre-crash clock is gone, so estimates of it are meaningless.
        """
        for event in self.graph.pop_node_resets_until(t):
            state = self._node(event.node)
            state.hardware = HardwareClock(self.params.rho, event.value)
            state.logical = LogicalClock(event.value, allow_jumps=True)
            algorithm = self._algorithm_factory(event.node)
            state.algorithm = algorithm
            state.decision = ControlDecision(multiplier=1.0)
            forget = getattr(self.estimate_layer, "forget", None)
            if forget is not None:
                for other in self.graph.nodes:
                    if other != event.node:
                        forget(other, event.node)
                        forget(event.node, other)
            algorithm.bind(state.api)
            algorithm.on_start(t, self.graph.neighbors(event.node))

    def _apply_graph_events(self, t: float) -> None:
        for event in self.graph.pop_events_until(t):
            existed = self.graph.has_directed_edge(event.source, event.target)
            self.graph.apply_event(event)
            exists = self.graph.has_directed_edge(event.source, event.target)
            if exists and not existed:
                self._node(event.source).algorithm.on_edge_discovered(t, event.target)
            elif existed and not exists:
                self._node(event.source).algorithm.on_edge_lost(t, event.target)
                forget = getattr(self.estimate_layer, "forget", None)
                if forget is not None:
                    forget(event.source, event.target)

    def _deliver_messages(self, t: float) -> None:
        for envelope in self.transport.deliveries_due(t):
            payload = envelope.payload
            if isinstance(payload, ClockBroadcast):
                self.estimate_layer.on_broadcast(
                    envelope.receiver, payload, t, envelope.transit_time
                )
            if self.diameter_tracker is not None:
                bound = self.graph.edge_params(envelope.sender, envelope.receiver).delay
                self.diameter_tracker.record_message(
                    envelope.sender, envelope.receiver, bound, envelope.transit_time
                )
            self._node(envelope.receiver).algorithm.on_message(
                t, envelope.sender, payload
            )

    def _advance_clocks(self, t: float) -> None:
        for state in self._nodes.values():
            decision = state.decision
            if decision.jump_to is not None and decision.jump_to > state.logical.value:
                state.logical.jump_to(decision.jump_to)
            rate = self.drift.rate(state.node_id, t)
            state.hardware.advance(self.dt, rate)
            state.logical.advance(self.dt, rate, decision.multiplier)

    def _sample_columns(self) -> Sequence:
        states = self._nodes.values()
        logical = [s.logical.value for s in states]
        max_estimate = [s.algorithm.max_estimate() for s in states]
        modes = [MODE_CODES[s.algorithm.mode()] for s in states]
        hardware = multipliers = None
        if self._record_trace:
            hardware = [s.hardware.value for s in states]
            multipliers = [s.decision.multiplier for s in states]
        return logical, hardware, multipliers, modes, max_estimate
