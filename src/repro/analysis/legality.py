"""Legality with respect to a gradient sequence (Definitions 5.7--5.13).

A gradient sequence ``C = (C_1, C_2, ...)`` is non-increasing; the system is
``(C, s)``-legal at node ``u`` when

    Psi^s_u = max over level-s paths p = (u, ..., v) of
              ( L_v - L_u - (s + 1/2) * kappa_p )  <  C_s / 2.

Maximizing over paths is equivalent to maximizing, over all nodes ``v``
reachable in the level-``s`` edge set, the expression
``L_v - L_u - (s + 1/2) * dist_s(u, v)`` where ``dist_s`` is the shortest
``kappa``-weighted distance in that edge set (a longer path only decreases the
expression).  That makes legality efficiently checkable with Dijkstra, which
is what this module does.

Lemma 5.14 then turns legality into the pairwise skew bound
``|L_u - L_v| < (s + 1/2) * kappa_p + C_s / 2`` used by the gradient analyses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..core.parameters import Parameters
from ..network.edge import NodeId

WeightedEdge = Tuple[NodeId, NodeId, float]


def gradient_sequence(
    global_skew_bound: float, params: Parameters, levels: int
) -> List[float]:
    """``C_s = 2 * G / sigma**max(s - 2, 0)`` for ``s = 1 .. levels``.

    The returned list is 1-indexed conceptually; index 0 repeats ``C_1`` so
    ``sequence[s]`` is ``C_s``.
    """
    return params.gradient_sequence(global_skew_bound, levels)[: levels + 1]


def _adjacency(edges: Iterable[WeightedEdge]) -> Dict[NodeId, List[Tuple[NodeId, float]]]:
    adjacency: Dict[NodeId, List[Tuple[NodeId, float]]] = {}
    for u, v, kappa in edges:
        if kappa <= 0.0:
            raise ValueError("edge weights kappa must be positive")
        adjacency.setdefault(u, []).append((v, kappa))
        adjacency.setdefault(v, []).append((u, kappa))
    return adjacency


def _distances_from(
    source: NodeId, adjacency: Mapping[NodeId, List[Tuple[NodeId, float]]]
) -> Dict[NodeId, float]:
    dist = {source: 0.0}
    heap: List[Tuple[float, NodeId]] = [(0.0, source)]
    done: Dict[NodeId, bool] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if done.get(node):
            continue
        done[node] = True
        for other, weight in adjacency.get(node, ()):  # pragma: no branch
            nd = d + weight
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


def psi(
    node: NodeId,
    level: int,
    logical: Mapping[NodeId, float],
    level_edges: Iterable[WeightedEdge],
) -> float:
    """``Psi^s_u`` of Definition 5.12 (0 when the node has no level-s paths)."""
    if level < 1:
        raise ValueError("levels start at 1")
    adjacency = _adjacency(level_edges)
    distances = _distances_from(node, adjacency)
    best = 0.0
    for other, distance in distances.items():
        if other == node:
            continue
        value = logical[other] - logical[node] - (level + 0.5) * distance
        best = max(best, value)
    return best


def xi(
    node: NodeId,
    level: int,
    logical: Mapping[NodeId, float],
    level_edges: Iterable[WeightedEdge],
) -> float:
    """``Xi^s_u`` of Definition 5.11 (0 when the node has no level-s paths)."""
    if level < 1:
        raise ValueError("levels start at 1")
    adjacency = _adjacency(level_edges)
    distances = _distances_from(node, adjacency)
    best = 0.0
    for other, distance in distances.items():
        if other == node:
            continue
        value = logical[node] - logical[other] - level * distance
        best = max(best, value)
    return best


@dataclass(frozen=True)
class LegalityViolation:
    """A node and level at which the legality condition fails."""

    node: NodeId
    level: int
    psi: float
    limit: float

    @property
    def excess(self) -> float:
        return self.psi - self.limit


def legality_violations(
    logical: Mapping[NodeId, float],
    level_edges: Mapping[int, Sequence[WeightedEdge]],
    sequence: Sequence[float],
) -> List[LegalityViolation]:
    """Check ``Psi^s_u < C_s / 2`` for every node and level.

    ``level_edges[s]`` lists the weighted edges of the level-``s`` edge set
    ``E_s``; ``sequence[s]`` is ``C_s`` (index 0 unused).  For fully inserted
    static graphs every level shares the same edge set.
    """
    violations: List[LegalityViolation] = []
    for level, edges in sorted(level_edges.items()):
        if level < 1 or level >= len(sequence):
            continue
        limit = sequence[level] / 2.0
        for node in logical:
            value = psi(node, level, logical, edges)
            if value >= limit:
                violations.append(LegalityViolation(node, level, value, limit))
    return violations


def is_legal(
    logical: Mapping[NodeId, float],
    level_edges: Mapping[int, Sequence[WeightedEdge]],
    sequence: Sequence[float],
) -> bool:
    """True when no node violates legality on any level."""
    return not legality_violations(logical, level_edges, sequence)


def pairwise_bound_from_legality(
    distance: float, level: int, sequence: Sequence[float]
) -> float:
    """The skew bound of Lemma 5.14: ``(s + 1/2) * kappa_p + C_s / 2``."""
    if level < 1 or level >= len(sequence):
        raise ValueError("level outside the gradient sequence")
    if distance < 0.0:
        raise ValueError("distances are non-negative")
    return (level + 0.5) * distance + sequence[level] / 2.0
