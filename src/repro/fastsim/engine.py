"""The struct-of-arrays fast simulation engine.

:class:`FastEngine` runs the same fixed-step simulation as
:class:`repro.sim.engine.Engine` -- identical phase order per step (edge
events, message deliveries, scheduled handshake checks, control decisions,
trace sample, clock advancement), identical floating-point expressions and
identical random-draw order -- but executes the AOPT control rule as tight
loops over flat columns (:mod:`repro.fastsim.columns`) instead of dispatching
through per-node ``ClockSyncAlgorithm`` / ``NodeAPI`` / ``EstimateLayer``
objects.  On the scenarios it supports it therefore produces **bit-identical**
traces and summaries, roughly an order of magnitude faster.

Supported configurations (everything the named scenarios of
:mod:`repro.experiments.registry` use):

* the AOPT algorithm family (:class:`~repro.core.algorithm.AOPT` and its
  ``immediate_insertion`` variant) with one shared configuration per run;
* the oracle estimate layer with any of its error strategies, and the
  broadcast estimate layer (``estimate_mode="broadcast"``): per-edge
  stored-broadcast state lives in flat arrays over the CSR edge slots
  (value, observer hardware at receipt, receipt time) and the periodic
  broadcast emission is fused into the control loop;
* any drift model, any delay model, scheduled edge events (the full
  leader/follower insertion handshake of Listing 1 is replicated),
  adversarial initial clock profiles and ``drop_messages_on_edge_loss``.

Unsupported configurations (baseline algorithms, node crash/restart resets,
the diameter tracker) raise :class:`UnsupportedScenarioError` at construction
time.  The guards check what the constructor is handed and are never caught
and re-routed: the sweep executor decides which backend runs a spec from the
spec alone, before anything is built (``declines`` in
:mod:`repro.fastsim.backend`), so a guard that still fires fails the run.

Equivalence notes (why bit-identical is achievable):

* clock and max-estimate updates use the very expressions of
  :class:`~repro.core.clocks.HardwareClock` /
  :class:`~repro.core.max_estimate.MaxEstimateTracker`;
* trigger thresholds are precomputed with the expressions of
  :mod:`repro.core.triggers`, and a row is decided on its two extreme leads
  when its views share one level and one table, by the level scan otherwise
  (see :mod:`repro.core.aopt_step` for which rows and why the two agree);
* random draw order is preserved: delay draws happen per send in node order
  and, within a node, in the iteration order of the neighbor *set* the
  reference iterates (``NeighborLevels.discovered()``); the ``uniform``
  estimate strategy likewise draws in the reference's set order;
* message deliveries are ordered by ``(delivery_time, send sequence)``,
  which matches the reference transport's ``(delivery_time, message_id)``;
* the handshake's checks are timers on the same heap as the reference's
  ``NodeAPI.schedule`` callbacks (:class:`~repro.sim.engine.EngineBase`),
  so they fire the same way: in ``(time, sequence)`` order, at their
  scheduled time, once due within ``1e-12``.

Where a floating-point expression cannot be matched exactly the documented
tolerance is 1e-9, but the differential suite currently verifies exact
equality on every named scenario.
"""

from __future__ import annotations

import heapq
import random as _random
from typing import Any, Dict, List, Optional, Tuple

from ..core import insertion as insertion_mod
from ..core.algorithm import AOPT, AOPTConfig
from ..core.aopt_step import MODE_NAMES, evaluate_mode_flat, evaluate_mode_uniform
from ..core.interfaces import AlgorithmFactory
from ..core.neighbor_sets import FULLY_INSERTED, NeighborLevels
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import NodeId
from ..sim.drift import DriftModel, NoDrift
from ..sim.delay import UniformRandomDelay
from ..sim.engine import EngineBase, EngineError
from .columns import CSRAdjacency, NodeColumns


class FastsimError(RuntimeError):
    """Raised on inconsistent fast-engine usage."""


class UnsupportedScenarioError(ValueError):
    """The columnar engines cannot run this configuration; use ``reference``."""


#: Estimate strategy codes (indices into the dispatch in the control loop).
_STRATEGY_CODES = {
    "zero": 0,
    "uniform": 1,
    "underestimate": 2,
    "overestimate": 3,
    "toward_observer": 4,
}

#: Message kind codes for the in-flight heap.
_MSG_BROADCAST = 0
_MSG_INSERT_EDGE = 1

#: Check kind codes of the handshake timers.
_CHECK_LEADER = 0
_CHECK_FOLLOWER = 1


class _FastAlgorithmView:
    """Read-only stand-in for one node's algorithm (introspection only).

    Exposes the attributes the analysis/summary code reads off a live
    :class:`~repro.core.algorithm.AOPT` instance: ``levels`` (for the
    Lemma 5.1 subset-chain check), ``mode`` and ``max_estimate``.
    """

    name = "AOPT"

    def __init__(self, engine: "FastEngine", position: int):
        self._engine = engine
        self._position = position
        self.levels: NeighborLevels = engine._levels[position]

    def mode(self) -> str:
        return MODE_NAMES[self._engine._cols.mode[self._position]]

    def max_estimate(self) -> float:
        return self._engine._cols.max_estimate[self._position]

    def neighbor_level(self, neighbor: NodeId) -> Optional[int]:
        return self.levels.level_of(neighbor)


class FastEngine(EngineBase):
    """Array-based fixed-step simulator specialized for the AOPT family.

    The node body of :meth:`_control_all` is that of
    ``jitsim/_fused_loop.c::fused_segment``: max-estimate advance, broadcast send
    from a per-row list, then ``evaluate_mode_uniform`` over the row's extreme
    leads or ``evaluate_mode_flat`` over a mixed row.
    """

    _live_columns = True

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config,  # repro.sim.runner.SimulationConfig
    ):
        if config.track_diameter:
            raise UnsupportedScenarioError(
                "the columnar engines do not implement the diameter tracker; "
                "use backend='reference'"
            )
        if graph.pending_node_resets():
            raise UnsupportedScenarioError(
                "the columnar engines do not implement node crash/restart "
                "resets; use backend='reference'"
            )
        strategy = _STRATEGY_CODES.get(config.estimate_strategy)
        if strategy is None:
            raise UnsupportedScenarioError(
                f"unknown estimate strategy {config.estimate_strategy!r}"
            )
        config.params.validate()
        super().__init__(config.dt, config.sample_interval)
        # Work on a private copy, exactly like the reference engine: applying
        # scheduled edge events mutates the graph.
        self.graph = graph.copy()
        self.config = config
        self.params = config.params
        self.drift: DriftModel = config.drift or NoDrift(config.params.rho)
        self.delay_model = (
            config.delay
            if config.delay is not None
            else UniformRandomDelay(seed=config.delay_seed)
        )
        self._drop_on_edge_loss = bool(config.drop_messages_on_edge_loss)

        # -- algorithm configuration (probed from the factory) -------------
        ids = self.graph.nodes
        probe = algorithm_factory(ids[0])
        if not isinstance(probe, AOPT):
            raise UnsupportedScenarioError(
                f"the columnar engines run the AOPT family only, got "
                f"{type(probe).__name__}; use backend='reference'"
            )
        aopt_config: AOPTConfig = probe.config
        # Factories that declare uniform_config (e.g. ``aopt_factory``)
        # promise every node gets the same config object, so probing one
        # node suffices; otherwise instantiate each node's algorithm to
        # check the shared-configuration requirement.
        if not getattr(algorithm_factory, "uniform_config", False):
            for nid in ids[1:]:
                other = algorithm_factory(nid)
                if not isinstance(other, AOPT) or not (
                    other.config is aopt_config or other.config == aopt_config
                ):
                    raise UnsupportedScenarioError(
                        "the columnar engines need one shared AOPT configuration "
                        "for every node; use backend='reference'"
                    )
        self.aopt_config = aopt_config
        self.aopt_params = aopt_config.params
        self.max_level = aopt_config.max_level
        self._fast_multiplier = 1.0 + self.aopt_params.mu
        # MaxEstimateTracker.conservative_rate_factor, verbatim.
        rho = self.aopt_params.rho
        self._max_factor = (1.0 - rho) / (1.0 + rho)

        # -- estimate layer (oracle or broadcast, inlined) ------------------
        self._strategy = strategy
        self._estimate_rng = _random.Random(config.estimate_seed)
        self._bc_mode = config.estimate_mode == "broadcast"

        # -- per-node columns and bookkeeping ------------------------------
        self._cols = NodeColumns(ids, config.initial_logical)
        self._ids = self._cols.ids
        self._index = self._cols.index
        #: Per-node hardware rates, refilled by :meth:`_refresh_rates`.
        self._rates = [1.0] * len(ids)
        self._rate_key: Optional[int] = None
        self._levels: List[NeighborLevels] = []
        self._since: List[Dict[NodeId, float]] = []
        self._schedules: List[Dict[NodeId, insertion_mod.InsertionSchedule]] = []
        for nid in ids:
            levels = NeighborLevels(self.max_level)
            since: Dict[NodeId, float] = {}
            # Mirrors AOPT.on_start(0.0, graph.neighbors(node)): iterate the
            # same freshly-copied set so dict insertion order (and therefore
            # the broadcast set order) matches the reference run.
            for nbr in self.graph.neighbors(nid):
                levels.add_fully_inserted(nbr)
                since[nbr] = 0.0
            self._levels.append(levels)
            self._since.append(since)
            self._schedules.append({})

        # -- adjacency ------------------------------------------------------
        # In broadcast mode the epsilon column carries the broadcast layer's
        # guaranteed error bound, computed from the *simulation* parameters
        # exactly as the reference wires BroadcastEstimateLayer.
        broadcast_bound = (
            (float(config.broadcast_interval), config.params.rho, config.params.mu)
            if self._bc_mode
            else None
        )
        self._csr = CSRAdjacency(
            self.aopt_params, self.max_level, broadcast_bound=broadcast_bound
        )
        self._csr_dirty = True
        # Per-CSR-slot stored-broadcast state (broadcast mode only): the
        # latest received broadcast value, the observer's hardware clock at
        # receipt and the receipt time, plus a validity flag.  Deliveries for
        # edges without a current CSR slot park in ``_bc_overflow`` keyed
        # ``(receiver_position, sender_id)``; the rebuild migrates state
        # between layouts and keeps entries of absent edges alive (the
        # reference layer stores per-pair state regardless of edge presence).
        self._bc_value: Any = None
        self._bc_hw: Any = None
        self._bc_time: Any = None
        self._bc_valid: Any = None
        self._bc_overflow: Dict[Tuple[int, NodeId], Tuple[float, float, float]] = {}
        self._rebuild_csr()

        # -- transport ------------------------------------------------------
        #: Heap of (delivery_time, seq, kind, sender, receiver, max_estimate,
        #: insertion_anchor, global_skew_estimate).
        self._inflight: List[Tuple] = []
        self._msg_seq = 0
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

        self._refresh_next_event()

    # ------------------------------------------------------------------
    # State accessors (Engine-compatible surface)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._cols.ids)

    def logical_value(self, node: NodeId) -> float:
        return self._cols.logical[self._position(node)]

    def hardware_value(self, node: NodeId) -> float:
        return self._cols.hardware[self._position(node)]

    def algorithm(self, node: NodeId) -> _FastAlgorithmView:
        return _FastAlgorithmView(self, self._position(node))

    def logical_snapshot(self) -> Dict[NodeId, float]:
        logical = self._cols.logical
        return {nid: logical[i] for i, nid in enumerate(self._cols.ids)}

    def hardware_snapshot(self) -> Dict[NodeId, float]:
        hardware = self._cols.hardware
        return {nid: hardware[i] for i, nid in enumerate(self._cols.ids)}

    def global_skew(self) -> float:
        values = self._cols.logical
        return max(values) - min(values) if values else 0.0

    def current_diameter(self) -> Optional[float]:
        return None

    def _position(self, node: NodeId) -> int:
        try:
            return self._cols.index[node]
        except KeyError:
            raise EngineError(f"unknown node {node}") from None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one simulation step of length ``dt``.

        Phase order is identical to :meth:`repro.sim.engine.Engine.step`; the
        guards merely skip phases that provably have no work.
        """
        t = self.time
        next_event = self._next_event_time
        if next_event is not None and next_event <= t + 1e-12:
            self._apply_graph_events(t)
        if self._inflight:
            self._deliver_messages(t)
        if self._timers:
            self._fire_timers(t)
        if self._csr_dirty:
            self._rebuild_csr()
        self._control_all(t)
        self._record_sample()
        self._advance_clocks(t)
        self.time = t + self.dt

    # ------------------------------------------------------------------
    # Step phases
    # ------------------------------------------------------------------
    def _refresh_next_event(self) -> None:
        self._next_event_time = self.graph.next_event_time()

    def _apply_graph_events(self, t: float) -> None:
        graph = self.graph
        events = graph.pop_events_until(t)
        for event in events:
            existed = graph.has_directed_edge(event.source, event.target)
            graph.apply_event(event)
            exists = graph.has_directed_edge(event.source, event.target)
            if exists and not existed:
                self._on_edge_discovered(t, event.source, event.target)
            elif existed and not exists:
                self._on_edge_lost(t, event.source, event.target)
        if events:
            self._csr_dirty = True
        self._refresh_next_event()

    def _on_edge_discovered(self, t: float, node: NodeId, neighbor: NodeId) -> None:
        position = self._cols.index[node]
        levels = self._levels[position]
        levels.discover(neighbor)
        self._since[position][neighbor] = t
        if self.aopt_config.immediate_insertion:
            levels.promote(neighbor, FULLY_INSERTED)
            return
        if node < neighbor:  # this endpoint is the handshake leader
            edge = self.graph.edge_params(node, neighbor)
            wait = insertion_mod.leader_wait(self.aopt_params, edge)
            self._schedule(t + wait, (_CHECK_LEADER, node, neighbor, 0.0, 0.0))

    def _on_edge_lost(self, t: float, node: NodeId, neighbor: NodeId) -> None:
        position = self._cols.index[node]
        self._levels[position].remove(neighbor)
        self._schedules[position].pop(neighbor, None)
        self._since[position].pop(neighbor, None)
        if self._bc_mode:
            # Mirrors the reference layer's forget(observer=node, subject=
            # neighbor): one direction only; the paired reverse event clears
            # the other direction.
            self._bc_overflow.pop((position, neighbor), None)
            slot = self._csr.row_pos[position].get(neighbor)
            if slot is not None:
                self._bc_valid[slot] = False

    def _deliver_messages(self, t: float) -> None:
        inflight = self._inflight
        limit = t + 1e-12
        drop = self._drop_on_edge_loss
        index = self._cols.index
        max_estimate = self._cols.max_estimate
        hardware = self._cols.hardware
        bc_mode = self._bc_mode
        row_pos = self._csr.row_pos
        graph = self.graph
        while inflight and inflight[0][0] <= limit:
            (_, _, kind, sender, receiver, remote_max, anchor, skew_estimate) = (
                heapq.heappop(inflight)
            )
            if drop and sender not in graph.neighbors_view(receiver):
                self.dropped_count += 1
                continue
            self.delivered_count += 1
            position = index[receiver]
            if remote_max > max_estimate[position]:
                max_estimate[position] = remote_max
            if kind == _MSG_INSERT_EDGE:
                edge = graph.edge_params(receiver, sender)
                wait = insertion_mod.follower_wait(self.aopt_params, edge)
                self._schedule(
                    t + wait, (_CHECK_FOLLOWER, receiver, sender, anchor, skew_estimate)
                )
            elif bc_mode:
                # Store the broadcast like BroadcastEstimateLayer.on_broadcast:
                # unconditionally, keyed (receiver, sender), with the
                # receiver's current hardware clock.  ``anchor`` carries the
                # sender's logical value at send time for broadcast messages.
                slot = row_pos[position].get(sender)
                if slot is None:
                    self._bc_overflow[(position, sender)] = (
                        anchor, hardware[position], t,
                    )
                else:
                    self._bc_value[slot] = anchor
                    self._bc_hw[slot] = hardware[position]
                    self._bc_time[slot] = t
                    self._bc_valid[slot] = True

    # ------------------------------------------------------------------
    # Insertion handshake (Listing 1), mirrored from AOPT
    # ------------------------------------------------------------------
    def _fire_timer(self, time: float, check: Tuple) -> None:
        """Fire one handshake check ``(kind, node, neighbor, anchor, skew)``.

        Checks are plain tuples, like ``_inflight``'s messages: no closure
        holds the engine, so a finished engine has no reference cycle and is
        freed on return.  No check schedules another check.
        """
        kind, node, neighbor, anchor, skew_estimate = check
        if kind == _CHECK_LEADER:
            self._leader_check(time, node, neighbor)
        else:
            self._follower_check(time, node, neighbor, anchor, skew_estimate)

    def _edge_present_since(
        self, node: NodeId, neighbor: NodeId, t: float, window: float
    ) -> bool:
        since = self._since[self._cols.index[node]].get(neighbor)
        if since is None or neighbor not in self.graph.neighbors_view(node):
            return False
        return t - since >= window - 1e-9

    def _leader_check(self, t: float, node: NodeId, neighbor: NodeId) -> None:
        edge = self.graph.edge_params(node, neighbor)
        wait = insertion_mod.leader_wait(self.aopt_params, edge)
        if not self._edge_present_since(node, neighbor, t, wait):
            return
        skew_estimate = self.aopt_config.global_skew.value(t)
        position = self._cols.index[node]
        anchor = insertion_mod.insertion_anchor(
            self._cols.logical[position], skew_estimate, self.aopt_params, edge
        )
        if neighbor in self.graph.neighbors_view(node):
            bound = self.graph.edge_params(node, neighbor).delay
            delay = self.delay_model.delay(node, neighbor, t, bound)
            self._msg_seq += 1
            heapq.heappush(
                self._inflight,
                (
                    t + delay,
                    self._msg_seq,
                    _MSG_INSERT_EDGE,
                    node,
                    neighbor,
                    self._cols.max_estimate[position],
                    anchor,
                    skew_estimate,
                ),
            )
            self.sent_count += 1
        self._install_schedule(node, neighbor, anchor, skew_estimate, edge)

    def _follower_check(
        self,
        t: float,
        node: NodeId,
        neighbor: NodeId,
        anchor: float,
        skew_estimate: float,
    ) -> None:
        edge = self.graph.edge_params(node, neighbor)
        wait = insertion_mod.follower_wait(self.aopt_params, edge)
        if not self._edge_present_since(node, neighbor, t, wait):
            return
        self._install_schedule(node, neighbor, anchor, skew_estimate, edge)

    def _install_schedule(
        self,
        node: NodeId,
        neighbor: NodeId,
        anchor: float,
        skew_estimate: float,
        edge,
    ) -> None:
        duration = self.aopt_config.insertion_duration(
            self.aopt_params, skew_estimate, edge
        )
        schedule = insertion_mod.compute_insertion_times(
            anchor,
            duration,
            self.max_level,
            neighbor=neighbor,
            global_skew_estimate=skew_estimate,
        )
        self._schedules[self._cols.index[node]][neighbor] = schedule

    def _apply_due_insertions(self, position: int, logical: float) -> None:
        levels = self._levels[position]
        schedules = self._schedules[position]
        csr = self._csr
        completed: List[NodeId] = []
        for neighbor, schedule in schedules.items():
            if neighbor not in levels:
                completed.append(neighbor)
                continue
            due = schedule.due_levels(logical)
            if due:
                for level in due:
                    levels.promote(neighbor, level)
                raw = levels.level_of(neighbor)
                csr.set_level(position, neighbor, raw)
            if schedule.is_complete():
                completed.append(neighbor)
        for neighbor in completed:
            schedules.pop(neighbor, None)

    # ------------------------------------------------------------------
    # Broadcasting (Condition 4.3 flooding)
    # ------------------------------------------------------------------
    def _broadcast(
        self,
        position: int,
        t: float,
        max_estimate_value: float,
        logical_value: float,
    ) -> None:
        node = self._cols.ids[position]
        sends = self._sends.get(position)
        if sends is None:
            # The set the reference iterates, in its order (set order drives
            # the delay-model draw order, which must match for bit-identical
            # runs), cut down to the neighbors that have a CSR slot -- the
            # graph's out-neighbors -- with the slot's delay bound.
            row = self._csr.row_pos[position]
            bounds = self._csr.delay
            sends = self._sends[position] = [
                (neighbor, bounds[row[neighbor]])
                for neighbor in self._levels[position].discovered()
                if neighbor in row
            ]
        delay_of = self.delay_model.delay
        inflight = self._inflight
        seq = self._msg_seq
        # The anchor slot carries the sender's logical value: the broadcast
        # estimate layer stores it at delivery (unused in oracle mode).
        for neighbor, bound in sends:
            seq += 1
            heapq.heappush(
                inflight,
                (
                    t + delay_of(node, neighbor, t, bound),
                    seq,
                    _MSG_BROADCAST,
                    node,
                    neighbor,
                    max_estimate_value,
                    logical_value,
                    0.0,
                ),
            )
        self._msg_seq = seq
        self.sent_count += len(sends)

    # ------------------------------------------------------------------
    # Control (Listing 3, flattened)
    # ------------------------------------------------------------------
    def _rebuild_csr(self) -> None:
        if self._bc_mode and self._bc_valid is not None:
            self._harvest_bc_state()
        self._csr.rebuild(self.graph, self._cols.index, self._levels)
        self._csr_dirty = False
        #: Per-row broadcast send lists ``[(neighbor, delay bound)]``, built
        #: by :meth:`_broadcast` on a row's first send after a rebuild.
        self._sends: Dict[int, List[Tuple[NodeId, float]]] = {}
        if self._bc_mode:
            self._adopt_bc_state()
        size = self._csr.max_degree
        self._scratch_ahead = [0.0] * size
        self._scratch_level = [0] * size
        self._scratch_table: List[Any] = [None] * size

    def _harvest_bc_state(self) -> None:
        """Fold valid per-slot broadcast state into the overflow dict.

        ``setdefault``: an existing overflow entry for the same (receiver,
        sender) pair was necessarily written after the slot entry (deliveries
        only go to overflow when the pair has no live slot), so it wins --
        last-writer semantics, exactly like the reference layer's dict.
        """
        overflow = self._bc_overflow
        valid = self._bc_valid
        value = self._bc_value
        hw = self._bc_hw
        time_col = self._bc_time
        for position, pos_map in enumerate(self._csr.row_pos):
            for nbr, slot in pos_map.items():
                if valid[slot]:
                    overflow.setdefault(
                        (position, nbr),
                        (value[slot], hw[slot], time_col[slot]),
                    )

    def _adopt_bc_state(self) -> None:
        """Allocate slot arrays for the new CSR and pull carried state in."""
        n_slots = len(self._csr.neighbor_index)
        self._bc_value, self._bc_hw, self._bc_time, self._bc_valid = (
            self._alloc_bc_columns(n_slots)
        )
        overflow = self._bc_overflow
        if not overflow:
            return
        row_pos = self._csr.row_pos
        value = self._bc_value
        hw = self._bc_hw
        time_col = self._bc_time
        valid = self._bc_valid
        for key in list(overflow):
            slot = row_pos[key[0]].get(key[1])
            if slot is not None:
                value[slot], hw[slot], time_col[slot] = overflow.pop(key)
                valid[slot] = True

    def _alloc_bc_columns(self, n_slots: int) -> Tuple[Any, Any, Any, Any]:
        """Allocate (value, hardware-at-receipt, receipt-time, valid) columns.

        Overridden by the vec engine to return numpy arrays; the scalar store
        and migration code indexes both representations identically.
        """
        return [0.0] * n_slots, [0.0] * n_slots, [0.0] * n_slots, [False] * n_slots

    def _control_all(self, t: float) -> None:
        cols = self._cols
        logical = cols.logical
        hardware = cols.hardware
        last_hardware = cols.last_hardware
        max_estimate = cols.max_estimate
        next_broadcast = cols.next_broadcast
        multiplier = cols.multiplier
        mode = cols.mode
        csr = self._csr
        rows = csr.row_shapes()
        neighbor_index = csr.neighbor_index
        level_col = csr.level
        epsilon_col = csr.epsilon
        tables = csr.tables
        aheads = self._scratch_ahead
        view_levels = self._scratch_level
        view_tables = self._scratch_table
        schedules = self._schedules
        factor = self._max_factor
        broadcast_interval = self.aopt_config.broadcast_interval
        iota = self.aopt_params.iota
        fast_multiplier = self._fast_multiplier
        max_level = self.max_level
        strategy = self._strategy
        bc_mode = self._bc_mode
        # The oracle layer's rng strategy draws in set order; the broadcast
        # layer has no strategy.
        uniform = strategy == 1 and not bc_mode
        bc_value = self._bc_value
        bc_hw = self._bc_hw
        bc_valid = self._bc_valid
        inf = float("inf")
        for i in range(len(logical)):
            hw = hardware[i]
            lg = logical[i]
            # Max estimate maintenance (MaxEstimateTracker.advance).
            delta = hw - last_hardware[i]
            if delta < 0.0:
                delta = 0.0
            last_hardware[i] = hw
            m = max_estimate[i] + delta * factor
            if lg > m:
                m = lg
            max_estimate[i] = m
            # Staged insertions due at the current logical time (a promotion
            # replaces ``rows[i]``, read below).
            if schedules[i]:
                self._apply_due_insertions(i, lg)
            # Periodic broadcast, driven by the hardware clock.
            if hw + 1e-12 >= next_broadcast[i]:
                next_broadcast[i] = hw + broadcast_interval
                self._broadcast(i, t, m, lg)
            # Neighbor views: estimates inlined from the estimate layer
            # (BroadcastEstimateLayer extrapolation or OracleEstimateLayer
            # error strategies).  A row whose views share one level and one
            # table keeps their extreme leads only; a mixed row (``level`` 0)
            # fills the scratch columns of the level scan.
            slots, level, table = rows[i]
            count = 0
            if uniform:
                level = 0
                for k, ahead, view_level in self._uniform_views(i, lg):
                    aheads[count] = ahead
                    view_levels[count] = (
                        max_level if view_level >= max_level else view_level
                    )
                    view_tables[count] = tables[k]
                    count += 1
            else:
                amin = inf
                amax = -inf
                for k in slots:
                    if bc_mode:
                        if not bc_valid[k]:
                            # No stored broadcast yet: the reference layer
                            # returns None and AOPT skips this neighbor's view.
                            continue
                        # BroadcastEstimateLayer.estimate, verbatim:
                        # stored.value + max(0.0, hw_now - stored_hw).
                        elapsed = hw - bc_hw[k]
                        if not elapsed > 0.0:
                            elapsed = 0.0
                        ahead = (bc_value[k] + elapsed) - lg
                    else:
                        true_value = logical[neighbor_index[k]]
                        if strategy == 0:  # zero error
                            estimate = true_value
                        elif strategy == 4:  # toward_observer
                            epsilon = epsilon_col[k]
                            if epsilon == 0.0:
                                estimate = true_value
                            else:
                                difference = lg - true_value
                                if difference > 0.0:
                                    error = difference if difference < epsilon else epsilon
                                else:
                                    error = difference if difference > -epsilon else -epsilon
                                estimate = true_value + error
                                if estimate < 0.0:
                                    estimate = 0.0
                        elif strategy == 2:  # underestimate
                            epsilon = epsilon_col[k]
                            estimate = true_value if epsilon == 0.0 else true_value - epsilon
                            if estimate < 0.0:
                                estimate = 0.0
                        else:  # 3: overestimate
                            estimate = true_value + epsilon_col[k]
                        ahead = estimate - lg
                    if level:
                        if ahead < amin:
                            amin = ahead
                        if ahead > amax:
                            amax = ahead
                    else:
                        aheads[count] = ahead
                        view_levels[count] = level_col[k]
                        view_tables[count] = tables[k]
                        count += 1
            if level:
                mode_code = evaluate_mode_uniform(lg, m, iota, amin, amax, level, table)
            else:
                mode_code = evaluate_mode_flat(
                    lg, m, iota, count, aheads, view_levels, view_tables
                )
            if mode_code == 0:
                multiplier[i] = 1.0
                mode[i] = 0
            elif mode_code == 1:
                multiplier[i] = fast_multiplier
                mode[i] = 1
            # mode_code == 2 ("free"): keep the current mode and multiplier.

    def _uniform_views(self, position: int, lg: float):
        """Yield ``(slot, ahead, level)`` per view of the ``uniform`` strategy.

        The uniform oracle draws one random number per estimate, so the draw
        order must match the reference's iteration over
        ``NeighborLevels.discovered()`` (a set) exactly.  The strategy runs
        in oracle mode only, where a slot's epsilon is the edge's, and the
        CSR is current (rebuilt before control), so a neighbor has a slot
        exactly when the graph holds the edge.
        """
        levels = self._levels[position]
        logical = self._cols.logical
        index = self._cols.index
        csr = self._csr
        row_pos = csr.row_pos[position]
        epsilon_col = csr.epsilon
        uniform = self._estimate_rng.uniform
        for neighbor in levels.discovered():
            level = levels.level_of(neighbor)
            if level is None or level < 1:
                continue
            slot = row_pos.get(neighbor)
            if slot is None:
                continue
            epsilon = epsilon_col[slot]
            true_value = logical[index[neighbor]]
            if epsilon == 0.0:
                estimate = true_value
            else:
                estimate = true_value + uniform(-epsilon, epsilon)
                if estimate < 0.0:
                    estimate = 0.0
            yield slot, estimate - lg, level

    # ------------------------------------------------------------------
    # Clock advancement
    # ------------------------------------------------------------------
    def _refresh_rates(self, t: float) -> None:
        """Refill the rate column from ``drift.rate`` when its epoch changed.

        The drift's ``rate_epoch`` ``e`` declares every rate constant while
        ``int(t // e)`` stays put (``inf``: forever); ``None`` refills every
        step.
        """
        epoch = self.drift.rate_epoch
        if epoch is not None:
            key = int(t // epoch)
            if key == self._rate_key:
                return
            self._rate_key = key
        rate_of = self.drift.rate
        self._rates[:] = [rate_of(node, t) for node in self._cols.ids]

    def _advance_clocks(self, t: float) -> None:
        self._refresh_rates(t)
        rates = self._rates
        cols = self._cols
        hardware = cols.hardware
        logical = cols.logical
        multiplier = cols.multiplier
        dt = self.dt
        for i in range(len(hardware)):
            rate = rates[i]
            hardware[i] += rate * dt
            logical[i] += (rate * multiplier[i]) * dt

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------
    def _sample_columns(self) -> Tuple:
        cols = self._cols
        return cols.logical, cols.hardware, cols.multiplier, cols.mode, cols.max_estimate
