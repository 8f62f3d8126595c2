"""Weighted paths and distances over the estimate graph.

The gradient skew bound is expressed in terms of the *weight* of a path,
``kappa_p = sum_e kappa_e`` (or the uncertainty ``epsilon_p = sum_e epsilon_e``
for lower bounds).  This module computes shortest weighted paths and distances
under a caller-supplied edge weight function.

Two kernels answer all-source queries.  :func:`_dijkstra` is the general one.
When every edge carries the same weight -- every registry scenario -- a
shortest path is a fewest-hop path, and distances are read off one hop
structure per adjacency (:func:`_bfs_hops`) as ``prefix[level]``: equal floats
in equal order, no heap, and one pass shared by every weight function and
backend that meets the same adjacency.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from hashlib import blake2b
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .dynamic_graph import DynamicGraph, GraphError
from .edge import NodeId

EdgeWeight = Callable[[NodeId, NodeId], float]
_INF = float("inf")
_Rows = List[List[Tuple[int, float]]]
#: Per source index: its discovery order and the end of each hop level in it
#: (level 0 is the source alone, so the first end is 1).
_Hops = List[Tuple["array[int]", "array[int]"]]

#: Hop structures kept per process, most recently used last.  The structure
#: is a function of the adjacency alone, so one pass serves every one-weight
#: function over a graph (``per_hop`` for ``G~``, ``kappa`` for the pair
#: table) and every backend's rebuild of one scenario.
_KEPT_HOPS = 4
_hops_kept: "OrderedDict[bytes, _Hops]" = OrderedDict()
_hops_lock = threading.Lock()


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


def _level_prefix(rows: _Rows) -> Optional[List[float]]:
    """``[0, w, w + w, ...]``, one entry per possible hop level, when every
    directed edge weighs the same ``w`` and ``w`` keeps adding strictly and
    finitely; ``None`` otherwise (no edge, ``0.0``, ``inf``, mixed weights).

    Under that condition a shortest path is a fewest-hop path: Dijkstra's
    distance of a node at hop level ``k`` is entry ``k`` -- the same additions
    in the same order -- and its ``(d, index)`` heap settles each level in
    index order.
    """
    weights = {w for row in rows for _, w in row}
    if len(weights) != 1:
        return None
    (w,) = weights
    prefix = [0.0]
    for _ in range(len(rows) - 1):
        total = prefix[-1] + w
        if not prefix[-1] < total < _INF:
            return None
        prefix.append(total)
    return prefix


def _bfs_hops(neighbours: List[List[int]]) -> _Hops:
    """Level-synchronous BFS from every index.  A level's frontier is sorted
    by index before it is expanded, so the discovery order is the one
    :func:`_dijkstra` produces when all weights are equal."""
    hops: _Hops = []
    for source in range(len(neighbours)):
        seen = bytearray(len(neighbours))
        seen[source] = 1
        order = [source]
        ends = [1]
        frontier = [source]
        while frontier:
            for i in frontier:
                for j in neighbours[i]:
                    if not seen[j]:
                        seen[j] = 1
                        order.append(j)
            frontier = order[ends[-1] :]
            if frontier:
                frontier.sort()
                ends.append(len(order))
        hops.append((array("i", order), array("i", ends)))
    return hops


def _hop_structure(rows: _Rows) -> _Hops:
    """The hop structure of the rows' adjacency, computed once per distinct
    adjacency among the last :data:`_KEPT_HOPS` seen by the process."""
    neighbours = [[j for j, _ in row] for row in rows]
    flat = array("i")
    for row in neighbours:
        flat.append(len(row))
        flat.extend(row)
    key = blake2b(flat.tobytes(), digest_size=16).digest()
    with _hops_lock:
        hops = _hops_kept.get(key)
        if hops is not None:
            _hops_kept.move_to_end(key)
            return hops
    hops = _bfs_hops(neighbours)
    with _hops_lock:
        _hops_kept[key] = hops
        while len(_hops_kept) > _KEPT_HOPS:
            _hops_kept.popitem(last=False)
    return hops


def _levels(rows: _Rows) -> Optional[Tuple[_Hops, List[float]]]:
    """The hop structure and the distance of each hop level when the rows
    carry one weight (see :func:`_level_prefix`); ``None`` sends the caller
    to :func:`_dijkstra`."""
    prefix = _level_prefix(rows)
    if prefix is None:
        return None
    return _hop_structure(rows), prefix


def _iter_dijkstra(
    nodes: List[NodeId], rows: _Rows
) -> Iterator[Tuple[NodeId, NodeId, float]]:
    for i, source in enumerate(nodes):
        dist, order, _ = _dijkstra(rows, i)
        for j in order:
            yield source, nodes[j], dist[j]


def iter_distances(
    graph: DynamicGraph, weight: Optional[EdgeWeight] = None
) -> Iterator[Tuple[NodeId, NodeId, float]]:
    """Yield ``(source, target, distance)`` per connected ordered pair: sources
    ascending, each one's targets in discovery order (itself first, at 0)."""
    nodes, rows = _weighted_rows(graph, weight)
    levels = _levels(rows)
    if levels is None:
        yield from _iter_dijkstra(nodes, rows)
        return
    hops, prefix = levels
    for source, (order, ends) in zip(nodes, hops):
        start = 0
        for distance, end in zip(prefix, ends):
            for j in order[start:end]:
                yield source, nodes[j], distance
            start = end


def ordered_pair_distances(
    graph: DynamicGraph, weight: Optional[EdgeWeight] = None
) -> Tuple[List[Tuple[NodeId, NodeId]], List[float]]:
    """The pairs ``u < v`` at a positive distance and those distances, as two
    parallel lists in :func:`iter_distances` order."""
    nodes, rows = _weighted_rows(graph, weight)
    levels = _levels(rows)
    pairs: List[Tuple[NodeId, NodeId]] = []
    distances: List[float] = []
    if levels is None:
        for u, v, distance in _iter_dijkstra(nodes, rows):
            if u < v and distance > 0.0:
                pairs.append((u, v))
                distances.append(distance)
        return pairs, distances
    hops, prefix = levels
    for i, (order, ends) in enumerate(hops):
        u = nodes[i]
        start = 0
        for distance, end in zip(prefix, ends):
            for j in order[start:end]:
                # ``nodes`` ascends, so ``u < v`` is ``i < j``; that also
                # drops level 0, the only one at distance 0.
                if j > i:
                    pairs.append((u, nodes[j]))
                    distances.append(distance)
            start = end
    return pairs, distances


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
    levels = _levels(rows)
    if levels is None:
        best = max(max(_dijkstra(rows, source)[0]) for source in range(len(rows)))
    else:
        hops, prefix = levels
        connected = all(ends[-1] == len(rows) for _, ends in hops)
        best = prefix[max(len(ends) for _, ends in hops) - 1] if connected else _INF
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
