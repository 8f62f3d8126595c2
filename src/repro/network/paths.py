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
backend that meets the same adjacency.  :func:`pair_table` groups the pairs
by distance into two compact index columns, kept beside the hop structure.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from hashlib import blake2b
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .dynamic_graph import DynamicGraph, GraphError
from .edge import NodeId

EdgeWeight = Callable[[NodeId, NodeId], float]
_INF = float("inf")
_Rows = List[List[Tuple[int, float]]]
#: Per source index: its discovery order and the end of each hop level in it
#: (level 0 is the source alone, so the first end is 1).
_Hops = List[Tuple["array[int]", "array[int]"]]


#: Pairs an all-pairs reader takes from a :class:`PairTable` at a time: no
#: per-sample temporary outgrows one window (a few MB), however many pairs
#: the table holds.
PAIR_WINDOW = 1 << 17

_Windows = List[Tuple[int, int, List[Tuple[int, int, int]]]]


class PairTable(NamedTuple):
    """The unordered pairs ``i < j`` of indices into ``nodes`` (sorted) at a
    positive distance, grouped by distance class.

    Class ``c`` is the pairs at ``distances[c]`` (ascending); they sit at
    positions ``ends[c - 1]:ends[c]`` (``0:ends[0]`` for the first class) of
    the two index columns.  The columns are ``array('i')``: 8 bytes per
    pair, and no Python object per pair.  ``windows`` cuts them into
    ``(lo, hi, runs)``: positions ``lo:hi``, at most :data:`PAIR_WINDOW`
    consecutive pairs, and ``runs`` the window by class, ``(c, start, end)``
    for positions ``start:end`` of class ``c``.
    """

    nodes: List[NodeId]
    distances: List[float]
    ends: "array[int]"
    first: "array[int]"
    second: "array[int]"
    windows: _Windows


def _windows(ends: "array[int]") -> _Windows:
    """:attr:`PairTable.windows` of columns whose classes end at ``ends``."""
    windows: _Windows = []
    total, c = (ends[-1] if ends else 0), 0
    for lo in range(0, total, PAIR_WINDOW):
        hi = min(lo + PAIR_WINDOW, total)
        runs, start = [], lo
        while start < hi:
            while ends[c] <= start:
                c += 1
            end = min(ends[c], hi)
            runs.append((c, start, end))
            start = end
        windows.append((lo, hi, runs))
    return windows


class _Kept:
    """One adjacency's hop structure and, once asked for, its pairs ``i < j``
    by hop level (the index columns of a one-weight :class:`PairTable`)."""

    __slots__ = ("hops", "level_pairs", "_lock")

    def __init__(self, hops: _Hops):
        self.hops = hops
        self.level_pairs: Optional[Tuple["array[int]", "array[int]", "array[int]"]] = None
        self._lock = threading.Lock()

    def pairs(self) -> Tuple["array[int]", "array[int]", "array[int]"]:
        """:attr:`level_pairs`, built by the first caller of any thread."""
        with self._lock:
            if self.level_pairs is None:
                self.level_pairs = _level_pairs(self.hops)
            return self.level_pairs


#: Hop structures kept per process, most recently used last, each with its
#: pair columns once built (so the two are evicted together).  The structure
#: is a function of the adjacency alone, so one pass serves every one-weight
#: function over a graph (``per_hop`` for ``G~``, ``kappa`` for the pair
#: table) and every backend's rebuild of one scenario.
_KEPT_HOPS = 4
_hops_kept: "OrderedDict[bytes, _Kept]" = OrderedDict()
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


def _hop_structure(rows: _Rows) -> _Kept:
    """The hop structure of the rows' adjacency, computed once per distinct
    adjacency among the last :data:`_KEPT_HOPS` seen by the process."""
    neighbours = [[j for j, _ in row] for row in rows]
    flat = array("i")
    for row in neighbours:
        flat.append(len(row))
        flat.extend(row)
    key = blake2b(flat.tobytes(), digest_size=16).digest()
    with _hops_lock:
        kept = _hops_kept.get(key)
        if kept is not None:
            _hops_kept.move_to_end(key)
            return kept
    built = _Kept(_bfs_hops(neighbours))
    with _hops_lock:
        # A thread that built the same structure first keeps its own, so
        # every caller shares one pair table per adjacency.
        kept = _hops_kept.setdefault(key, built)
        _hops_kept.move_to_end(key)
        while len(_hops_kept) > _KEPT_HOPS:
            _hops_kept.popitem(last=False)
    return kept


def _levels(rows: _Rows) -> Optional[Tuple[_Kept, List[float]]]:
    """The kept hop structure and the distance of each hop level when the
    rows carry one weight (see :func:`_level_prefix`); ``None`` sends the
    caller to :func:`_dijkstra`."""
    prefix = _level_prefix(rows)
    if prefix is None:
        return None
    return _hop_structure(rows), prefix


def _class_major(
    classes: List[Tuple["array[int]", "array[int]"]]
) -> Tuple["array[int]", "array[int]", "array[int]"]:
    """The end of each class and the concatenated index columns, allocated
    at their exact size (what is kept is 8 bytes per pair); each class is
    released once copied."""
    total = sum(len(firsts) for firsts, _ in classes)
    ends, first, second = array("q"), array("i", [0]) * total, array("i", [0]) * total
    start = 0
    for firsts, seconds in classes:
        end = start + len(firsts)
        first[start:end], second[start:end] = firsts, seconds
        del firsts[:], seconds[:]
        ends.append(end)
        start = end
    return ends, first, second


def _level_pairs(hops: _Hops) -> Tuple["array[int]", "array[int]", "array[int]"]:
    """The pairs ``i < j`` of a hop structure by hop level, level 1 first."""
    depth = max((len(ends) for _, ends in hops), default=1)
    levels = [(array("i"), array("i")) for _ in range(1, depth)]
    for i, (order, ends) in enumerate(hops):
        for (firsts, seconds), start, end in zip(levels, ends, ends[1:]):
            for j in order[start:end]:
                # ``nodes`` ascends, so ``u < v`` is ``i < j``.
                if j > i:
                    firsts.append(i)
                    seconds.append(j)
    return _class_major(levels)


def _dijkstra_pairs(
    rows: _Rows,
) -> Tuple[List[float], "array[int]", "array[int]", "array[int]"]:
    """The pairs ``i < j`` at a positive Dijkstra distance, one class per
    distinct distance: the distances and :func:`_class_major` columns."""
    by_distance: Dict[float, Tuple["array[int]", "array[int]"]] = {}
    for i in range(len(rows)):
        dist, order, _ = _dijkstra(rows, i)
        for j in order:
            d = dist[j]
            if j > i and d > 0.0:
                columns = by_distance.get(d)
                if columns is None:
                    columns = by_distance[d] = (array("i"), array("i"))
                columns[0].append(i)
                columns[1].append(j)
    distances = sorted(by_distance)
    return distances, *_class_major([by_distance.pop(d) for d in distances])


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
    kept, prefix = levels
    for source, (order, ends) in zip(nodes, kept.hops):
        start = 0
        for distance, end in zip(prefix, ends):
            for j in order[start:end]:
                yield source, nodes[j], distance
            start = end


def pair_table(graph: DynamicGraph, weight: Optional[EdgeWeight] = None) -> PairTable:
    """The :class:`PairTable` of ``graph`` under ``weight``.

    On a one-weight graph a class is a hop level, and the index columns are
    the ones kept beside the adjacency's hop structure: built once, shared by
    every caller and backend that meets the adjacency.  Mixed weights take
    :func:`_dijkstra`, one class per distinct distance.
    """
    nodes, rows = _weighted_rows(graph, weight)
    levels = _levels(rows)
    if levels is None:
        distances, ends, first, second = _dijkstra_pairs(rows)
    else:
        kept, prefix = levels
        ends, first, second = kept.pairs()
        distances = prefix[1 : len(ends) + 1]
    return PairTable(nodes, distances, ends, first, second, _windows(ends))


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
        kept, prefix = levels
        connected = all(ends[-1] == len(rows) for _, ends in kept.hops)
        best = prefix[max(len(ends) for _, ends in kept.hops) - 1] if connected else _INF
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
