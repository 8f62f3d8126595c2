"""Global skew estimates ``G~`` used by the edge insertion protocol.

The algorithm needs, for every edge insertion, an upper bound on the global
skew (equation (5)/(6)).  Two variants are supported:

* :class:`StaticGlobalSkewEstimate` -- a single a-priori bound ``G~`` valid at
  all times (the assumption of Sections 4--6);
* :class:`DynamicGlobalSkewEstimate` -- a time-dependent, node-local estimate
  as in Section 7, here derived from the node's max-estimate lag and a bound
  on the dynamic diameter (``G(t) <= D(t) + iota`` by Theorem 5.6, so any
  upper bound on the diameter yields a valid estimate).

The module also provides a heuristic for picking a static bound from a given
topology, which the simulation runner uses by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..network.dynamic_graph import DynamicGraph
from ..network import paths
from .parameters import Parameters


class GlobalSkewEstimate:
    """Interface: return the node's current global skew estimate."""

    def value(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def is_dynamic(self) -> bool:
        return False


@dataclass(frozen=True)
class StaticGlobalSkewEstimate(GlobalSkewEstimate):
    """The fixed bound ``G~`` of equation (6)."""

    bound: float

    def __post_init__(self):
        if self.bound <= 0.0:
            raise ValueError(f"the global skew bound must be positive, got {self.bound}")

    def value(self, t: float) -> float:
        return self.bound


class DynamicGlobalSkewEstimate(GlobalSkewEstimate):
    """A time-dependent estimate ``G~_u(t)`` (Section 7).

    ``provider`` returns the node's current estimate; it must always be an
    upper bound on the true global skew (equation (5)).  ``floor`` guards
    against degenerate values.
    """

    def __init__(self, provider: Callable[[float], float], *, floor: float = 1.0):
        if not callable(provider):
            raise ValueError("provider must be callable")
        if floor <= 0.0:
            raise ValueError("floor must be positive")
        self._provider = provider
        self.floor = float(floor)

    def value(self, t: float) -> float:
        return max(self.floor, float(self._provider(t)))

    def is_dynamic(self) -> bool:
        return True


def suggest_global_skew_bound(
    graph: DynamicGraph,
    params: Parameters,
    *,
    broadcast_interval: float = 1.0,
    safety_factor: float = 2.0,
) -> float:
    """Heuristic static bound ``G~`` for a given (initial) topology.

    The global skew converges to roughly the dynamic estimate diameter plus
    ``iota`` (Theorem 5.6).  With periodic broadcasts every
    ``broadcast_interval`` over edges with delay bound ``T`` and uncertainty
    ``epsilon``, one hop contributes an estimate error of about
    ``epsilon + T + 2 rho (broadcast_interval + T)``; summing along the
    weighted diameter and applying a safety factor yields the suggested bound.
    New edges may later shrink the diameter but never enlarge it beyond the
    initial value as long as base edges persist, so the bound stays valid.
    """
    if safety_factor < 1.0:
        raise ValueError("safety_factor must be at least 1")

    def per_hop(u, v):
        edge = graph.edge_params(u, v)
        return (
            edge.epsilon
            + edge.delay
            + 2.0 * params.rho * (broadcast_interval + edge.delay)
        )

    diameter = paths.weighted_diameter(graph, per_hop)
    return safety_factor * (diameter + params.iota) + 1.0
