"""The AOPT dynamic gradient clock synchronization algorithm (Section 4).

The algorithm is assembled from the building blocks of the other ``core``
modules:

* hardware/logical clocks are advanced by the simulation engine; the
  algorithm only decides the rate multiplier (1 or ``1 + mu``) each step,
  exactly as Listing 3 prescribes;
* the max estimate ``M_u`` is maintained by a
  :class:`~repro.core.max_estimate.MaxEstimateTracker` and flooded by
  piggy-backing it on every broadcast (Condition 4.3);
* the level sets ``N^s_u`` are kept in a
  :class:`~repro.core.neighbor_sets.NeighborLevels` structure; new edges run
  the leader/follower handshake of Listing 1 and are then promoted level by
  level at the logical times computed by Listing 2
  (:mod:`repro.core.insertion`);
* the mode logic evaluates the fast/slow/max-estimate triggers of
  Definitions 4.5--4.7 (:mod:`repro.core.triggers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..estimate.messages import ClockBroadcast, InsertEdgeMessage
from ..network.edge import EdgeParams, NodeId
from . import insertion as insertion_mod
from .interfaces import ClockSyncAlgorithm, ControlDecision, NodeAPI
from .max_estimate import MaxEstimateTracker
from .neighbor_sets import FULLY_INSERTED, NeighborLevels
from .parameters import Parameters
from .skew_estimates import GlobalSkewEstimate, StaticGlobalSkewEstimate
from .triggers import NeighborView, TriggerDecision, evaluate_triggers


@dataclass
class AOPTConfig:
    """Configuration of one AOPT instance (shared by all nodes of a run)."""

    params: Parameters
    global_skew: GlobalSkewEstimate
    max_level: int
    broadcast_interval: float = 1.0
    insertion_duration: insertion_mod.DurationFunction = field(
        default_factory=insertion_mod.paper_static_duration
    )
    immediate_insertion: bool = False

    def __post_init__(self):
        self.params.validate()
        if self.max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {self.max_level}")
        if self.broadcast_interval <= 0.0:
            raise ValueError("broadcast_interval must be positive")

    @staticmethod
    def for_bound(
        params: Parameters,
        global_skew_bound: float,
        *,
        kappa_min: float,
        broadcast_interval: float = 1.0,
        insertion_duration: Optional[insertion_mod.DurationFunction] = None,
        immediate_insertion: bool = False,
    ) -> "AOPTConfig":
        """Build a configuration from a static global skew bound."""
        levels = params.levels_for(global_skew_bound, kappa_min)
        return AOPTConfig(
            params=params,
            global_skew=StaticGlobalSkewEstimate(global_skew_bound),
            max_level=levels,
            broadcast_interval=broadcast_interval,
            insertion_duration=(
                insertion_duration
                if insertion_duration is not None
                else insertion_mod.paper_static_duration()
            ),
            immediate_insertion=immediate_insertion,
        )


class AOPT(ClockSyncAlgorithm):
    """One node's instance of the AOPT algorithm."""

    name = "AOPT"

    def __init__(self, config: AOPTConfig):
        super().__init__()
        self.config = config
        self.params = config.params
        self.levels = NeighborLevels(config.max_level)
        self.max_tracker = MaxEstimateTracker(self.params.rho)
        self._multiplier = 1.0
        self._mode = "slow"
        self._discovered_since: Dict[NodeId, float] = {}
        self._schedules: Dict[NodeId, insertion_mod.InsertionSchedule] = {}
        self._next_broadcast_hardware = 0.0
        self._edge_cache: Dict[NodeId, Dict[str, float]] = {}
        self._last_trigger: Optional[TriggerDecision] = None

    # ------------------------------------------------------------------
    # Lifecycle and event callbacks
    # ------------------------------------------------------------------
    def on_start(self, t: float, initial_neighbors: Iterable[NodeId]) -> None:
        for neighbor in initial_neighbors:
            self.levels.add_fully_inserted(neighbor)
            self._discovered_since[neighbor] = t

    def on_edge_discovered(self, t: float, neighbor: NodeId) -> None:
        self.levels.discover(neighbor)
        self._discovered_since[neighbor] = t
        self._edge_cache.pop(neighbor, None)
        if self.config.immediate_insertion:
            # The simpler strategy discussed in Section 5.5: skip the staged
            # insertion entirely and treat the edge as fully inserted.
            self.levels.promote(neighbor, FULLY_INSERTED)
            return
        if self._is_leader(neighbor):
            edge = self.api.edge_params(neighbor)
            wait = insertion_mod.leader_wait(self.params, edge)
            self.api.schedule(
                wait, lambda fire_time, v=neighbor: self._leader_check(fire_time, v)
            )

    def on_edge_lost(self, t: float, neighbor: NodeId) -> None:
        self.levels.remove(neighbor)
        self._schedules.pop(neighbor, None)
        self._discovered_since.pop(neighbor, None)
        self._edge_cache.pop(neighbor, None)

    def on_message(self, t: float, sender: NodeId, payload: object) -> None:
        if isinstance(payload, ClockBroadcast):
            self.max_tracker.observe_remote(payload.max_estimate)
        elif isinstance(payload, InsertEdgeMessage):
            self.max_tracker.observe_remote(payload.max_estimate)
            edge = self.api.edge_params(sender)
            wait = insertion_mod.follower_wait(self.params, edge)
            self.api.schedule(
                wait,
                lambda fire_time, msg=payload, v=sender: self._follower_check(
                    fire_time, v, msg
                ),
            )

    # ------------------------------------------------------------------
    # Handshake (Listing 1)
    # ------------------------------------------------------------------
    def _is_leader(self, neighbor: NodeId) -> bool:
        return self.api.node_id < neighbor

    def _edge_present_since(self, neighbor: NodeId, t: float, window: float) -> bool:
        """The edge to ``neighbor`` has been continuously present for ``window``."""
        since = self._discovered_since.get(neighbor)
        if since is None or neighbor not in self.api.neighbors():
            return False
        return t - since >= window - 1e-9

    def _leader_check(self, t: float, neighbor: NodeId) -> None:
        edge = self.api.edge_params(neighbor)
        wait = insertion_mod.leader_wait(self.params, edge)
        if not self._edge_present_since(neighbor, t, wait):
            return
        skew_estimate = self.config.global_skew.value(t)
        anchor = insertion_mod.insertion_anchor(
            self.api.logical(), skew_estimate, self.params, edge
        )
        message = InsertEdgeMessage(
            edge=(self.api.node_id, neighbor),
            insertion_anchor=anchor,
            global_skew_estimate=skew_estimate,
            max_estimate=self.max_tracker.value,
        )
        # Sent at the check's own time, like the presence test and the skew
        # estimate above (the step's clock may already be up to dt later).
        self.api.send(neighbor, message, at=t)
        self._install_schedule(neighbor, anchor, skew_estimate, edge)

    def _follower_check(self, t: float, neighbor: NodeId, message: InsertEdgeMessage) -> None:
        edge = self.api.edge_params(neighbor)
        wait = insertion_mod.follower_wait(self.params, edge)
        if not self._edge_present_since(neighbor, t, wait):
            return
        self._install_schedule(
            neighbor, message.insertion_anchor, message.global_skew_estimate, edge
        )

    def _install_schedule(
        self,
        neighbor: NodeId,
        anchor: float,
        skew_estimate: float,
        edge: EdgeParams,
    ) -> None:
        duration = self.config.insertion_duration(self.params, skew_estimate, edge)
        schedule = insertion_mod.compute_insertion_times(
            anchor,
            duration,
            self.config.max_level,
            neighbor=neighbor,
            global_skew_estimate=skew_estimate,
        )
        self._schedules[neighbor] = schedule

    # ------------------------------------------------------------------
    # Control (Listing 3)
    # ------------------------------------------------------------------
    def control(self, t: float) -> ControlDecision:
        logical = self.api.logical()
        hardware = self.api.hardware()
        self.max_tracker.advance(hardware, logical)
        self._apply_due_insertions(logical)
        self._maybe_broadcast(hardware, logical)
        decision = evaluate_triggers(
            logical,
            self.max_tracker.value,
            self._neighbor_views(t),
            self.params,
            self.config.max_level,
        )
        self._last_trigger = decision
        if decision.mode == "slow":
            self._multiplier = 1.0
            self._mode = "slow"
        elif decision.mode == "fast":
            self._multiplier = 1.0 + self.params.mu
            self._mode = "fast"
        # "free": keep the current mode (the algorithm may choose arbitrarily).
        return ControlDecision(multiplier=self._multiplier)

    def _apply_due_insertions(self, logical: float) -> None:
        completed: List[NodeId] = []
        for neighbor, schedule in self._schedules.items():
            if neighbor not in self.levels:
                completed.append(neighbor)
                continue
            for level in schedule.due_levels(logical):
                self.levels.promote(neighbor, level)
            if schedule.is_complete():
                completed.append(neighbor)
        for neighbor in completed:
            self._schedules.pop(neighbor, None)

    def _maybe_broadcast(self, hardware: float, logical: float) -> None:
        if hardware + 1e-12 < self._next_broadcast_hardware:
            return
        self._next_broadcast_hardware = hardware + self.config.broadcast_interval
        payload = ClockBroadcast(
            sender=self.api.node_id,
            logical=logical,
            max_estimate=self.max_tracker.value,
            hardware=hardware,
        )
        for neighbor in self.levels.discovered():
            self.api.send(neighbor, payload)

    def _edge_constants(self, neighbor: NodeId) -> Dict[str, float]:
        cached = self._edge_cache.get(neighbor)
        if cached is not None:
            return cached
        edge = self.api.edge_params(neighbor)
        epsilon = self.api.estimate_error(neighbor)
        kappa = self.params.kappa_for(epsilon, edge.tau)
        delta = self.params.delta_for(kappa, epsilon, edge.tau)
        constants = {
            "epsilon": epsilon,
            "tau": edge.tau,
            "kappa": kappa,
            "delta": delta,
        }
        self._edge_cache[neighbor] = constants
        return constants

    def _neighbor_views(self, t: float) -> List[NeighborView]:
        views: List[NeighborView] = []
        current_neighbors = self.api.neighbors()
        for neighbor in self.levels.discovered():
            level = self.levels.level_of(neighbor)
            if level is None or level < 1:
                continue
            if neighbor not in current_neighbors:
                continue
            estimate = self.api.estimate(neighbor)
            if estimate is None:
                continue
            constants = self._edge_constants(neighbor)
            views.append(
                NeighborView(
                    neighbor=neighbor,
                    estimate=estimate,
                    kappa=constants["kappa"],
                    epsilon=constants["epsilon"],
                    tau=constants["tau"],
                    delta=constants["delta"],
                    level=min(level, self.config.max_level),
                )
            )
        return views

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mode(self) -> str:
        return self._mode

    def max_estimate(self) -> float:
        return self.max_tracker.value

    def last_trigger(self) -> Optional[TriggerDecision]:
        return self._last_trigger

    def insertion_schedule(self, neighbor: NodeId) -> Optional[insertion_mod.InsertionSchedule]:
        return self._schedules.get(neighbor)

    def neighbor_level(self, neighbor: NodeId) -> Optional[int]:
        return self.levels.level_of(neighbor)


def aopt_factory(config: AOPTConfig):
    """Return an algorithm factory producing one AOPT instance per node."""

    def factory(_node_id: NodeId) -> AOPT:
        return AOPT(config)

    # Every node shares the same ``config`` object: the columnar backends
    # use this marker to validate the factory by probing one node instead
    # of instantiating an algorithm per node just to compare configs.
    factory.uniform_config = True
    return factory
