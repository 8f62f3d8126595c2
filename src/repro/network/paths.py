"""Weighted paths and distances over the estimate graph.

The gradient skew bound is expressed in terms of the *weight* of a path,
``kappa_p = sum_e kappa_e`` (or the uncertainty ``epsilon_p = sum_e epsilon_e``
for lower bounds).  This module computes shortest weighted paths and distances
under a caller-supplied edge weight function.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .dynamic_graph import DynamicGraph, GraphError
from .edge import NodeId

EdgeWeight = Callable[[NodeId, NodeId], float]
_INF = float("inf")
_Rows = List[List[Tuple[int, float]]]


def epsilon_weight(graph: DynamicGraph) -> EdgeWeight:
    """Weight function returning the estimate uncertainty of each edge."""

    def weight(u: NodeId, v: NodeId) -> float:
        return graph.edge_params(u, v).epsilon

    return weight


def kappa_weight(graph: DynamicGraph, params) -> EdgeWeight:
    """Weight function returning the algorithm weight ``kappa_e`` of each edge."""

    def weight(u: NodeId, v: NodeId) -> float:
        edge = graph.edge_params(u, v)
        return params.kappa_for(edge.epsilon, edge.tau)

    return weight


def hop_weight(_graph: DynamicGraph) -> EdgeWeight:
    """Weight function assigning unit weight to every edge."""

    def weight(_u: NodeId, _v: NodeId) -> float:
        return 1.0

    return weight


def path_weight(path: Sequence[NodeId], weight: EdgeWeight) -> float:
    """Total weight of an explicit path (0 for a single-node path)."""
    if len(path) < 1:
        raise GraphError("a path needs at least one node")
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += weight(u, v)
    return total


def path_exists(graph: DynamicGraph, path: Sequence[NodeId]) -> bool:
    """True when every consecutive pair of the path is an undirected edge."""
    return all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))


def _weighted_rows(
    graph: DynamicGraph, weight: Optional[EdgeWeight]
) -> Tuple[List[NodeId], _Rows]:
    """The sorted nodes and, per node index, its ``(neighbour index, weight)``
    row; ``weight`` is called once per directed edge, in the neighbour order
    of :meth:`DynamicGraph.symmetric_neighbors`."""
    if weight is None:
        weight = epsilon_weight(graph)
    nodes = graph.nodes
    index = {node: i for i, node in enumerate(nodes)}
    rows: _Rows = []
    for node in nodes:
        row: List[Tuple[int, float]] = []
        for other in graph.symmetric_neighbors(node):
            w = weight(node, other)
            if w < 0.0:
                raise GraphError(f"negative edge weight on ({node}, {other})")
            row.append((index[other], w))
        rows.append(row)
    return nodes, rows


def _dijkstra(rows: _Rows, source: int) -> Tuple[List[float], List[int], List[int]]:
    """Dijkstra from index ``source``: distances by index (``inf`` = unreached),
    reached indices in order of first discovery, predecessors by index."""
    dist = [_INF] * len(rows)
    prev = [-1] * len(rows)
    dist[source] = 0.0
    order = [source]
    heap = [(0.0, source)]
    while heap:
        d, i = heappop(heap)
        if d > dist[i]:  # stale entry: i was settled at a smaller distance
            continue
        for j, w in rows[i]:
            nd = d + w
            if nd < dist[j]:
                if dist[j] == _INF:
                    order.append(j)
                dist[j] = nd
                prev[j] = i
                heappush(heap, (nd, j))
    return dist, order, prev


def iter_distances(
    graph: DynamicGraph, weight: Optional[EdgeWeight] = None
) -> Iterator[Tuple[NodeId, NodeId, float]]:
    """Yield ``(source, target, distance)`` per connected ordered pair: sources
    ascending, each one's targets in discovery order (itself first, at 0)."""
    nodes, rows = _weighted_rows(graph, weight)
    for i, source in enumerate(nodes):
        dist, order, _ = _dijkstra(rows, i)
        for j in order:
            yield source, nodes[j], dist[j]


def shortest_distances(
    graph: DynamicGraph,
    source: NodeId,
    weight: Optional[EdgeWeight] = None,
) -> Dict[NodeId, float]:
    """Dijkstra distances from ``source`` over the symmetric edge set."""
    if not graph.has_node(source):
        raise GraphError(f"unknown node {source}")
    nodes, rows = _weighted_rows(graph, weight)
    dist, order, _ = _dijkstra(rows, nodes.index(source))
    return {nodes[j]: dist[j] for j in order}


def shortest_path(
    graph: DynamicGraph,
    source: NodeId,
    target: NodeId,
    weight: Optional[EdgeWeight] = None,
) -> List[NodeId]:
    """One shortest weighted path from ``source`` to ``target``."""
    if not graph.has_node(source) or not graph.has_node(target):
        raise GraphError("unknown endpoint")
    nodes, rows = _weighted_rows(graph, weight)
    start, end = nodes.index(source), nodes.index(target)
    dist, _, prev = _dijkstra(rows, start)
    if dist[end] == _INF:
        raise GraphError(f"no path from {source} to {target}")
    path = [end]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return [nodes[i] for i in reversed(path)]


def weighted_distance(
    graph: DynamicGraph,
    source: NodeId,
    target: NodeId,
    weight: Optional[EdgeWeight] = None,
) -> float:
    """Shortest weighted distance between two nodes."""
    distances = shortest_distances(graph, source, weight)
    if target not in distances:
        raise GraphError(f"no path from {source} to {target}")
    return distances[target]


def weighted_diameter(
    graph: DynamicGraph, weight: Optional[EdgeWeight] = None
) -> float:
    """Maximum over all pairs of the shortest weighted distance."""
    _, rows = _weighted_rows(graph, weight)
    best = max(max(_dijkstra(rows, source)[0]) for source in range(len(rows)))
    if best == _INF:
        raise GraphError("weighted_diameter requires a connected graph")
    return best


def all_pairs_distances(
    graph: DynamicGraph, weight: Optional[EdgeWeight] = None
) -> Dict[Tuple[NodeId, NodeId], float]:
    """All-pairs shortest weighted distances (symmetric, includes (u, u) = 0)."""
    return {(u, v): d for u, v, d in iter_distances(graph, weight)}


def pairs_at_distance(
    graph: DynamicGraph,
    lower: float,
    upper: float,
    weight: Optional[EdgeWeight] = None,
) -> List[Tuple[NodeId, NodeId]]:
    """All unordered pairs whose weighted distance lies in ``[lower, upper]``."""
    return [
        (u, v)
        for u, v, d in iter_distances(graph, weight)
        if u < v and lower <= d <= upper
    ]
