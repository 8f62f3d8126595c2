"""Dynamic estimate diameter (Definition 3.1).

The dynamic estimate radius of a node ``v`` at time ``t`` is the smallest
``R`` such that for every node ``u`` there is an earlier time ``t' <= t`` with
``(u, t') ~~R~~ (v, t)``: node ``v`` can lower-bound ``u``'s clock at time
``t'`` with error at most ``R``.  The relation is generated by three rules:

1. ``(u, t) ~~0~~ (u, t)``;
2. aging: waiting ``Delta`` time adds ``4*rho/(1+rho) * Delta`` error;
3. messages: a message from ``v`` to ``w`` with delay uncertainty ``U`` adds
   ``(1 - rho) * U + 2 * rho * (transit time)`` error.

The simulator cannot evaluate the relation exactly for every possible message
pattern, but it can track it *for the messages that were actually sent*, which
is exactly what the definition asks for.  :class:`DiameterTracker` maintains,
for every ordered pair ``(u, v)``, the best error with which ``v`` can
currently bound some past clock value of ``u``; the dynamic estimate diameter
at time ``t`` is the maximum over ``v`` of the maximum over ``u`` of this
error.

The tracker is also the reference used in experiment E9 to check the
max-estimate quality of Condition 4.3.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from .edge import NodeId


class DiameterTracker:
    """Track the best knowledge error for every ordered node pair."""

    def __init__(self, nodes: Iterable[NodeId], rho: float):
        self._nodes: List[NodeId] = sorted(set(nodes))
        if not self._nodes:
            raise ValueError("DiameterTracker needs at least one node")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {rho}")
        self.rho = float(rho)
        self._time = 0.0
        # _error[v][u]: error with which v can bound u's clock right now.
        self._error: Dict[NodeId, Dict[NodeId, float]] = {
            v: {u: (0.0 if u == v else math.inf) for u in self._nodes}
            for v in self._nodes
        }

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        return self._time

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._nodes)

    def aging_rate(self) -> float:
        """Error growth per unit of elapsed time (rule 2)."""
        return 4.0 * self.rho / (1.0 + self.rho)

    def advance(self, dt: float) -> None:
        """Age every (cross-node) knowledge entry by ``dt`` time."""
        if dt < 0.0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        self._time += dt
        growth = self.aging_rate() * dt
        for v in self._nodes:
            row = self._error[v]
            for u in self._nodes:
                if u != v and row[u] != math.inf:
                    row[u] += growth

    def record_message(
        self,
        sender: NodeId,
        receiver: NodeId,
        delay_uncertainty: float,
        transit_time: float,
    ) -> None:
        """Account for a message from ``sender`` received by ``receiver`` now.

        The receiver inherits (rule 3) all the sender's knowledge as of the
        send time, degraded by ``(1-rho)*U + 2*rho*(transit)``, and learns the
        sender's own clock with the same error (taking ``eta = 0`` for the
        sender about itself at the send time).
        """
        if delay_uncertainty < 0.0 or transit_time < 0.0:
            raise ValueError("delay uncertainty and transit time are non-negative")
        if sender not in self._error or receiver not in self._error:
            raise ValueError("unknown sender or receiver")
        penalty = (1.0 - self.rho) * delay_uncertainty + 2.0 * self.rho * transit_time
        sender_row = self._error[sender]
        receiver_row = self._error[receiver]
        aging = self.aging_rate() * transit_time
        for u in self._nodes:
            if u == receiver:
                continue
            # Sender's knowledge about u at the send time: current value minus
            # the aging that accrued during transit (it was recorded at send
            # time in this simplified bookkeeping, so subtracting the aging of
            # the transit period gives a conservative value >= the true one).
            at_send = sender_row[u] if u != sender else 0.0
            if at_send == math.inf:
                continue
            candidate = at_send + penalty
            if candidate < receiver_row[u]:
                receiver_row[u] = candidate
        del aging  # kept for documentation of the conservative choice above

    # ------------------------------------------------------------------
    def radius(self, node: NodeId) -> float:
        """Dynamic estimate radius ``R_v(t)`` of ``node``."""
        if node not in self._error:
            raise ValueError(f"unknown node {node}")
        return max(self._error[node].values())

    def diameter(self) -> float:
        """Dynamic estimate diameter ``D(t) = max_v R_v(t)``."""
        return max(self.radius(v) for v in self._nodes)

    def knowledge_error(self, observer: NodeId, subject: NodeId) -> float:
        """Error with which ``observer`` can bound ``subject``'s clock."""
        if observer not in self._error:
            raise ValueError(f"unknown node {observer}")
        if subject not in self._error[observer]:
            raise ValueError(f"unknown node {subject}")
        return self._error[observer][subject]

    def is_finite(self) -> bool:
        """True once every node has heard (transitively) from every other."""
        return all(
            self._error[v][u] != math.inf
            for v in self._nodes
            for u in self._nodes
        )


def static_diameter_lower_bound(path_uncertainties: Iterable[float]) -> float:
    """Lower bound on the achievable global skew from a chain of uncertainties.

    The classical shifting argument [Biaz & Welch] gives ``sum(eps) / 2`` for a
    path whose edges have delay uncertainties ``eps``; the dynamic estimate
    diameter can never be smaller than the same sum of uncertainties up to
    constants, which is what makes the algorithm's ``O(D)`` global skew
    asymptotically optimal.
    """
    total = 0.0
    for value in path_uncertainties:
        if value < 0.0:
            raise ValueError("uncertainties must be non-negative")
        total += value
    return total / 2.0
