"""Interfaces between clock synchronization algorithms and the simulator.

An algorithm instance is attached to exactly one node.  It interacts with the
world only through a :class:`NodeAPI`:

* reading its own hardware and logical clocks,
* reading clock estimates (and their guaranteed error bounds) of neighbors,
* sending messages over currently existing estimate edges,
* scheduling callbacks at future times.

The simulation engine drives the algorithm through the
:class:`ClockSyncAlgorithm` callbacks and applies the
:class:`ControlDecision` it returns each step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Set

from ..network.edge import EdgeParams, NodeId


@dataclass(frozen=True)
class ControlDecision:
    """Outcome of one control evaluation.

    ``multiplier`` is the factor applied to the hardware rate for the next
    simulation step (1 for slow mode, ``1 + mu`` for fast mode).  ``jump_to``
    requests a discrete increase of the logical clock; it is used only by
    baselines that are allowed to jump (AOPT never jumps).
    """

    multiplier: float
    jump_to: Optional[float] = None

    def __post_init__(self):
        if self.multiplier < 0.0:
            raise ValueError(f"multiplier must be non-negative, got {self.multiplier}")
        if self.jump_to is not None and self.jump_to < 0.0:
            raise ValueError(f"jump_to must be non-negative, got {self.jump_to}")


class NodeAPI(ABC):
    """Everything a node-local algorithm may observe or do."""

    @property
    @abstractmethod
    def node_id(self) -> NodeId:
        """Identifier of the node this API belongs to."""

    @abstractmethod
    def now(self) -> float:
        """Current real time (used only for scheduling, never for clocks)."""

    @abstractmethod
    def hardware(self) -> float:
        """Current hardware clock value ``H_u(t)``."""

    @abstractmethod
    def logical(self) -> float:
        """Current logical clock value ``L_u(t)``."""

    @abstractmethod
    def neighbors(self) -> Set[NodeId]:
        """Out-neighbors in the estimate graph (the set ``N_u(t)``)."""

    @abstractmethod
    def estimate(self, neighbor: NodeId) -> Optional[float]:
        """Estimate ``L~_u^v(t)`` of a neighbor's logical clock, if available."""

    @abstractmethod
    def estimate_error(self, neighbor: NodeId) -> float:
        """Guaranteed error bound ``epsilon_{u,v}`` of the estimate."""

    @abstractmethod
    def edge_params(self, neighbor: NodeId) -> EdgeParams:
        """Parameters (epsilon, tau, delay bound) of the edge to ``neighbor``."""

    @abstractmethod
    def send(self, neighbor: NodeId, payload: object, at: Optional[float] = None) -> bool:
        """Send ``payload`` to ``neighbor``; returns False when no edge exists.

        ``at`` is the send time of a message sent from a scheduled callback
        (its ``fire_time``); by default the message leaves :meth:`now`.
        """

    @abstractmethod
    def schedule(self, delay: float, callback: Callable[[float], None]) -> None:
        """Run ``callback(fire_time)`` after ``delay`` real time units."""


class ClockSyncAlgorithm(ABC):
    """Base class for all clock synchronization algorithms."""

    #: Human readable name used in reports and benchmark tables.
    name: str = "abstract"

    def __init__(self):
        self.api: Optional[NodeAPI] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, api: NodeAPI) -> None:
        """Attach the algorithm to a node; called once before the run starts."""
        self.api = api

    def on_start(self, t: float, initial_neighbors: Iterable[NodeId]) -> None:
        """Called at the start of the run with the neighbors present at time 0."""

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------
    def on_edge_discovered(self, t: float, neighbor: NodeId) -> None:
        """The estimate edge towards ``neighbor`` has appeared."""

    def on_edge_lost(self, t: float, neighbor: NodeId) -> None:
        """The estimate edge towards ``neighbor`` has disappeared."""

    def on_message(self, t: float, sender: NodeId, payload: object) -> None:
        """A message from ``sender`` has been delivered."""

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    @abstractmethod
    def control(self, t: float) -> ControlDecision:
        """Evaluate the mode logic and return the decision for the next step."""

    # ------------------------------------------------------------------
    # Introspection used by analyses and tests (optional overrides)
    # ------------------------------------------------------------------
    def mode(self) -> str:
        """Return ``"fast"`` or ``"slow"`` (best effort, for reporting)."""
        return "slow"

    def max_estimate(self) -> float:
        """The node's current estimate of the maximum logical clock."""
        return self.api.logical() if self.api is not None else 0.0


AlgorithmFactory = Callable[[NodeId], ClockSyncAlgorithm]
