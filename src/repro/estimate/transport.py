"""Bounded-delay message transport.

The transport delivers messages sent over currently existing directed edges
within the edge's delay bound ``T_{u,v}``; the exact delay is chosen by a
:class:`~repro.sim.delay.DelayModel`.  Messages sent over edges that disappear
while the message is in flight may be dropped (the model permits either).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..network.dynamic_graph import DynamicGraph
from ..network.edge import NodeId
from .messages import Envelope


class TransportError(ValueError):
    """Raised on invalid transport operations."""


class Transport:
    """Queue of in-flight messages with bounded delays."""

    def __init__(
        self,
        graph: DynamicGraph,
        delay_model=None,
        *,
        drop_on_edge_loss: bool = False,
    ):
        if delay_model is None:
            # Imported lazily: the sim package imports the estimate package,
            # so a module-level import here would create a cycle.
            from ..sim.delay import FixedFractionDelay

            delay_model = FixedFractionDelay(0.5)
        self.graph = graph
        self.delay_model = delay_model
        self.drop_on_edge_loss = bool(drop_on_edge_loss)
        # Min-heap keyed on (delivery_time, message_id): deliveries_due pops
        # due messages in exactly the (delivery_time, message_id) order the
        # old scan-and-sort produced, without rescanning the whole queue
        # every step.
        self._in_flight: List[Tuple[float, int, Envelope]] = []
        self._sent_count = 0
        self._delivered_count = 0
        self._dropped_count = 0

    # ------------------------------------------------------------------
    @property
    def sent_count(self) -> int:
        return self._sent_count

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    @property
    def dropped_count(self) -> int:
        return self._dropped_count

    def pending_count(self) -> int:
        return len(self._in_flight)

    # ------------------------------------------------------------------
    def send(self, sender: NodeId, receiver: NodeId, payload: object, t: float) -> Envelope:
        """Send ``payload`` from ``sender`` to ``receiver`` at time ``t``.

        The sender must currently see the edge (``receiver`` is among its
        out-neighbors); otherwise the send is rejected, mirroring the fact
        that a node only communicates with neighbors it has discovered.
        """
        if not self.graph.has_node(sender) or not self.graph.has_node(receiver):
            raise TransportError("unknown sender or receiver")
        if receiver not in self.graph.neighbors(sender):
            raise TransportError(
                f"node {sender} has no estimate edge towards {receiver} at time {t}"
            )
        bound = self.graph.edge_params(sender, receiver).delay
        delay = self.delay_model.delay(sender, receiver, t, bound)
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            payload=payload,
            send_time=t,
            delivery_time=t + delay,
        )
        heapq.heappush(
            self._in_flight, (envelope.delivery_time, envelope.message_id, envelope)
        )
        self._sent_count += 1
        return envelope

    def try_send(
        self, sender: NodeId, receiver: NodeId, payload: object, t: float
    ) -> Optional[Envelope]:
        """Like :meth:`send` but returns ``None`` when the edge is absent."""
        if not self.graph.has_node(sender) or not self.graph.has_node(receiver):
            return None
        if receiver not in self.graph.neighbors(sender):
            return None
        return self.send(sender, receiver, payload, t)

    def deliveries_due(self, t: float) -> List[Envelope]:
        """Remove and return the messages whose delivery time has been reached."""
        epsilon = 1e-12
        due: List[Envelope] = []
        in_flight = self._in_flight
        while in_flight and in_flight[0][0] <= t + epsilon:
            envelope = heapq.heappop(in_flight)[2]
            if self.drop_on_edge_loss and not self.graph.has_directed_edge(
                envelope.receiver, envelope.sender
            ):
                # Receiver no longer sees the sender; the model allows the
                # message to be lost in this case.
                self._dropped_count += 1
                continue
            due.append(envelope)
        self._delivered_count += len(due)
        return due

    def drop_all(self) -> int:
        """Drop every in-flight message (used by fault-injection tests)."""
        dropped = len(self._in_flight)
        self._dropped_count += dropped
        self._in_flight = []
        return dropped
