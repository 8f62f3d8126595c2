"""Single-level threshold baseline (à la Locher–Wattenhofer).

The node is in fast mode when some neighbor appears to be at least
``threshold`` ahead; in the *blocking* variant the node additionally refuses
to speed up while some neighbor is ``threshold`` behind.  This is essentially
AOPT restricted to a single level: with the threshold set to the edge weight
``kappa`` the worst-case local skew is not logarithmic but grows polynomially
with the diameter (``O(sqrt(rho D))`` for a well-chosen threshold, ``Omega(D)``
for a constant one without blocking), which is what experiment E2 exhibits.

A max-estimate fallback (identical to AOPT's) keeps the global skew bounded so
the comparison isolates the effect of the multi-level gradient structure.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.interfaces import ClockSyncAlgorithm, ControlDecision
from ..core.max_estimate import MaxEstimateTracker
from ..core.parameters import Parameters
from ..estimate.messages import ClockBroadcast, InsertEdgeMessage
from ..network.edge import NodeId


class ThresholdGradient(ClockSyncAlgorithm):
    """One-level threshold rule with optional blocking."""

    name = "ThresholdGradient"

    def __init__(
        self,
        params: Parameters,
        threshold: float,
        *,
        blocking: bool = True,
        broadcast_interval: float = 1.0,
    ):
        super().__init__()
        params.validate()
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if broadcast_interval <= 0.0:
            raise ValueError("broadcast_interval must be positive")
        self.params = params
        self.threshold = float(threshold)
        self.blocking = bool(blocking)
        self.broadcast_interval = float(broadcast_interval)
        self.max_tracker = MaxEstimateTracker(params.rho)
        self._neighbors = set()
        self._next_broadcast_hardware = 0.0
        self._multiplier = 1.0
        self._mode = "slow"

    # ------------------------------------------------------------------
    def on_start(self, t: float, initial_neighbors: Iterable[NodeId]) -> None:
        self._neighbors = set(initial_neighbors)

    def on_edge_discovered(self, t: float, neighbor: NodeId) -> None:
        self._neighbors.add(neighbor)

    def on_edge_lost(self, t: float, neighbor: NodeId) -> None:
        self._neighbors.discard(neighbor)

    def on_message(self, t: float, sender: NodeId, payload: object) -> None:
        if isinstance(payload, (ClockBroadcast, InsertEdgeMessage)):
            self.max_tracker.observe_remote(payload.max_estimate)

    # ------------------------------------------------------------------
    def control(self, t: float) -> ControlDecision:
        logical = self.api.logical()
        hardware = self.api.hardware()
        self.max_tracker.advance(hardware, logical)
        self._maybe_broadcast(hardware, logical)
        ahead, behind = self._neighbor_extremes(logical)
        someone_ahead = ahead is not None and ahead >= self.threshold
        someone_behind = behind is not None and behind >= self.threshold
        if someone_behind and self.blocking:
            self._set_mode("slow")
        elif someone_ahead:
            self._set_mode("fast")
        else:
            lag = self.max_tracker.value - logical
            if lag <= 1e-9:
                self._set_mode("slow")
            elif lag >= self.params.iota:
                self._set_mode("fast")
            # otherwise keep the current mode
        return ControlDecision(multiplier=self._multiplier)

    def _set_mode(self, mode: str) -> None:
        self._mode = mode
        self._multiplier = 1.0 + self.params.mu if mode == "fast" else 1.0

    def _neighbor_extremes(self, logical: float):
        """Largest amount a neighbor appears ahead / behind, or ``None``."""
        max_ahead: Optional[float] = None
        max_behind: Optional[float] = None
        for neighbor in self._neighbors & self.api.neighbors():
            estimate = self.api.estimate(neighbor)
            if estimate is None:
                continue
            ahead = estimate - logical
            behind = logical - estimate
            if max_ahead is None or ahead > max_ahead:
                max_ahead = ahead
            if max_behind is None or behind > max_behind:
                max_behind = behind
        return max_ahead, max_behind

    def _maybe_broadcast(self, hardware: float, logical: float) -> None:
        if hardware + 1e-12 < self._next_broadcast_hardware:
            return
        self._next_broadcast_hardware = hardware + self.broadcast_interval
        payload = ClockBroadcast(
            sender=self.api.node_id,
            logical=logical,
            max_estimate=self.max_tracker.value,
            hardware=hardware,
        )
        for neighbor in self._neighbors:
            self.api.send(neighbor, payload)

    # ------------------------------------------------------------------
    def mode(self) -> str:
        return self._mode

    def max_estimate(self) -> float:
        return self.max_tracker.value


def threshold_gradient_factory(
    params: Parameters,
    threshold: float,
    *,
    blocking: bool = True,
    broadcast_interval: float = 1.0,
):
    """Algorithm factory for :class:`ThresholdGradient`."""

    def factory(_node_id: NodeId) -> ThresholdGradient:
        return ThresholdGradient(
            params, threshold, blocking=blocking, broadcast_interval=broadcast_interval
        )

    return factory
