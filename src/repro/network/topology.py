"""Static topology generators.

All generators return a :class:`~repro.network.dynamic_graph.DynamicGraph`
whose edges are present (in both directions) from time zero.  The paper's
lower bounds and worst cases are exhibited on line graphs; grids, rings, trees
and random graphs exercise the algorithm on richer topologies.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from . import paths
from .dynamic_graph import DynamicGraph, GraphError
from .edge import DEFAULT_EDGE_PARAMS, EdgeParams, NodeId


def _new_graph(
    n: int, edges: Iterable[Tuple[NodeId, NodeId]], params: EdgeParams
) -> DynamicGraph:
    if n < 1:
        raise GraphError(f"a topology needs at least one node, got n={n}")
    graph = DynamicGraph(range(n))
    graph.add_edges(edges, params)
    return graph


def line(n: int, params: EdgeParams = DEFAULT_EDGE_PARAMS) -> DynamicGraph:
    """Path graph ``0 - 1 - ... - (n-1)``; the paper's canonical worst case."""
    return _new_graph(n, ((i, i + 1) for i in range(n - 1)), params)


def ring(n: int, params: EdgeParams = DEFAULT_EDGE_PARAMS) -> DynamicGraph:
    """Cycle over ``n >= 3`` nodes."""
    if n < 3:
        raise GraphError(f"a ring needs at least 3 nodes, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _new_graph(n, edges, params)


def star(n: int, params: EdgeParams = DEFAULT_EDGE_PARAMS) -> DynamicGraph:
    """Star with center ``0`` and ``n - 1`` leaves."""
    if n < 2:
        raise GraphError(f"a star needs at least 2 nodes, got {n}")
    return _new_graph(n, ((0, i) for i in range(1, n)), params)


def complete(n: int, params: EdgeParams = DEFAULT_EDGE_PARAMS) -> DynamicGraph:
    """Complete graph on ``n`` nodes."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _new_graph(n, edges, params)


def grid(
    rows: int, cols: int, params: EdgeParams = DEFAULT_EDGE_PARAMS
) -> DynamicGraph:
    """``rows x cols`` grid; node ``(r, c)`` has index ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid dimensions must be positive, got {rows}x{cols}")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            index = r * cols + c
            if c + 1 < cols:
                edges.append((index, index + 1))
            if r + 1 < rows:
                edges.append((index, index + cols))
    return _new_graph(rows * cols, edges, params)


def binary_tree(depth: int, params: EdgeParams = DEFAULT_EDGE_PARAMS) -> DynamicGraph:
    """Complete binary tree of the given depth (depth 0 is a single node)."""
    if depth < 0:
        raise GraphError(f"depth must be non-negative, got {depth}")
    n = 2 ** (depth + 1) - 1
    edges = []
    for i in range(n):
        left = 2 * i + 1
        right = 2 * i + 2
        if left < n:
            edges.append((i, left))
        if right < n:
            edges.append((i, right))
    return _new_graph(n, edges, params)


def random_tree(
    n: int,
    params: EdgeParams = DEFAULT_EDGE_PARAMS,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """Uniform random recursive tree: node ``i`` attaches to a random earlier node."""
    return _new_graph(n, _random_tree_edges(n, seed), params)


def _random_tree_edges(n: int, seed: Optional[int]) -> List[Tuple[int, int]]:
    if n < 1:
        raise GraphError(f"a tree needs at least one node, got {n}")
    rng = random.Random(seed)
    return [(rng.randrange(i), i) for i in range(1, n)]


def random_connected(
    n: int,
    extra_edge_probability: float = 0.1,
    params: EdgeParams = DEFAULT_EDGE_PARAMS,
    seed: Optional[int] = None,
) -> DynamicGraph:
    """A random connected graph: a random tree plus independent extra edges."""
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise GraphError(
            f"extra_edge_probability must lie in [0, 1], got {extra_edge_probability}"
        )
    rng = random.Random(seed)
    edges = _random_tree_edges(n, seed=rng.randrange(2 ** 30))
    # A pair (i, j), i < j, is visited once, so only a tree edge can pre-exist.
    tree_children: List[Set[int]] = [set() for _ in range(n)]
    for parent, child in edges:
        tree_children[parent].add(child)
    draw = rng.random
    for i in range(n):
        present = tree_children[i]
        for j in range(i + 1, n):
            if j not in present and draw() < extra_edge_probability:
                edges.append((i, j))
    return _new_graph(n, edges, params)


def from_edge_list(
    n: int,
    edges: Sequence[Tuple[NodeId, NodeId]],
    params: EdgeParams = DEFAULT_EDGE_PARAMS,
) -> DynamicGraph:
    """Build a graph from an explicit undirected edge list."""
    return _new_graph(n, edges, params)


def hop_diameter(graph: DynamicGraph) -> int:
    """Unweighted diameter of the symmetric graph (0 for a single node)."""
    try:
        return int(paths.weighted_diameter(graph, paths.hop_weight(graph)))
    except GraphError:
        raise GraphError("hop_diameter requires a connected graph") from None
