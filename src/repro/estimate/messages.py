"""Message payloads exchanged by clock synchronization algorithms.

Only two message kinds are needed:

* :class:`ClockBroadcast` -- a periodic broadcast carrying the sender's
  logical clock and max estimate; it drives the message-based estimate layer
  and the flooding of max estimates (Condition 4.3).
* :class:`InsertEdgeMessage` -- the handshake message of Listing 1, sent by
  the leader of a freshly discovered edge and carrying the logical insertion
  anchor ``L_ins`` and the global skew estimate used for the insertion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Tuple

from ..network.edge import NodeId

_message_ids = itertools.count()


@dataclass(frozen=True)
class ClockBroadcast:
    """Periodic clock announcement from ``sender``."""

    sender: NodeId
    logical: float
    max_estimate: float
    hardware: float = 0.0

    def __post_init__(self):
        if self.logical < 0.0 or self.max_estimate < 0.0 or self.hardware < 0.0:
            raise ValueError("clock values are non-negative")


@dataclass(frozen=True)
class InsertEdgeMessage:
    """The ``insertedge({u, v}, L_ins, G~)`` handshake message of Listing 1."""

    edge: Tuple[NodeId, NodeId]
    insertion_anchor: float
    global_skew_estimate: float
    max_estimate: float = 0.0

    def __post_init__(self):
        u, v = self.edge
        if u == v:
            raise ValueError("an edge needs two distinct endpoints")
        if self.insertion_anchor < 0.0:
            raise ValueError("the insertion anchor is a logical time, hence >= 0")
        if self.global_skew_estimate <= 0.0:
            raise ValueError("the global skew estimate must be positive")


@dataclass(frozen=True)
class Envelope:
    """A payload in flight: sender, receiver and timing metadata."""

    sender: NodeId
    receiver: NodeId
    payload: object
    send_time: float
    delivery_time: float
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self):
        if self.delivery_time < self.send_time:
            raise ValueError(
                f"delivery time {self.delivery_time} precedes send time {self.send_time}"
            )

    @property
    def transit_time(self) -> float:
        return self.delivery_time - self.send_time
