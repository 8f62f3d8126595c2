"""Composable fault-injection dynamics: the chaos fault family.

Pure graph/schedule transformations with the same shape as the entries of
:data:`repro.experiments.registry.DYNAMICS` -- ``fn(graph, edge, **args) ->
(DynamicGraph, meta)`` -- and registered there as they are; they import
nothing from ``repro.experiments``, so the registry imports them without a
cycle:

* :func:`correlated_mass_churn` -- k nodes lose *all* their edges together
  and get them back together, repeatedly (a failure domain, not independent
  churn);
* :func:`partition_then_heal` -- the graph splits into two components and
  re-merges after the drift adversary has had time to build skew across the
  cut;
* :func:`crash_restart` -- one node leaves, loses its clock and algorithm
  state entirely, and rejoins from scratch (drives the engine's
  node-reset events; a backend without reset support declines the spec,
  and ``backend="auto"`` runs it on reference).

The fourth family member, the windowed delay amplifier, is a
:class:`repro.sim.delay.DelaySpikeStorm` and registers under ``DELAYS``
rather than ``DYNAMICS`` -- a storm perturbs message timing, not topology.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..network.dynamic_graph import DynamicGraph, GraphError
from ..network.edge import EdgeParams, NodeId


def _incident_edges(
    graph: DynamicGraph, victims: Sequence[NodeId]
) -> List[Tuple[NodeId, NodeId]]:
    """Undirected base-graph edges touching any victim, each listed once."""
    seen = set()
    edges: List[Tuple[NodeId, NodeId]] = []
    for node in victims:
        for neighbor in sorted(graph.neighbors(node)):
            pair = (node, neighbor) if node < neighbor else (neighbor, node)
            if pair in seen or not graph.has_edge(node, neighbor):
                continue
            # An edge between two victims is met from both and kept once.
            seen.add(pair)
            edges.append(pair)
    return edges


def correlated_mass_churn(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    horizon: float,
    k: int = 2,
    victims: Optional[Sequence[NodeId]] = None,
    period: float = 60.0,
    outage: float = 10.0,
    start: float = 20.0,
    seed: int = 0,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """``k`` nodes' edges drop and return *together*, every ``period``.

    Models a shared failure domain (rack, power feed): the victim set is
    fixed up front (``victims``, or ``k`` nodes sampled by ``seed``) and on
    every cycle starting at ``start + i * period`` all edges incident to any
    victim go down at the same instant and come back ``outage`` later.
    During an outage the victims are isolated -- the paper's connectivity
    assumption is deliberately violated, which is exactly the adversity the
    chaos pack exists to measure.
    """
    if outage <= 0.0:
        raise GraphError(f"outage must be positive, got {outage}")
    if period <= outage:
        raise GraphError(
            f"period ({period}) must exceed the outage ({outage})"
        )
    scenario = graph.copy()
    nodes = scenario.nodes
    if victims is None:
        if not 1 <= k < len(nodes):
            raise GraphError(
                f"k must lie in [1, {len(nodes) - 1}] to leave survivors, got {k}"
            )
        rng = random.Random(seed)
        victims = sorted(rng.sample(nodes, k))
    else:
        victims = sorted(int(v) for v in victims)
        if len(set(victims)) >= len(nodes):
            raise GraphError("some node must survive the mass churn")
    edges = _incident_edges(scenario, victims)
    windows: List[Tuple[float, float]] = []
    t = start
    while t + outage <= horizon:
        for u, v in edges:
            scenario.schedule_edge_down(t, u, v)
            scenario.schedule_edge_up(t + outage, u, v, params=edge)
        windows.append((t, t + outage))
        t += period
    return scenario, {
        "victims": list(victims),
        "churned_edges": [list(pair) for pair in edges],
        "outage_windows": [list(window) for window in windows],
    }


def partition_then_heal(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    split_time: float,
    heal_time: float,
    split_fraction: float = 0.5,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """Split the graph into two components, then re-merge them.

    The node order is cut at ``split_fraction``; at ``split_time`` every
    edge crossing the cut disappears and at ``heal_time`` all of them come
    back.  While the halves are separated the drift adversary accumulates
    skew that no algorithm can fight (there is no communication path), so
    the heal instant is the interesting moment: the re-merged network
    suddenly carries cross-cut skew proportional to the partition length.
    """
    if heal_time <= split_time:
        raise GraphError(
            f"heal_time ({heal_time}) must come after split_time ({split_time})"
        )
    if not 0.0 < split_fraction < 1.0:
        raise GraphError(
            f"split_fraction must lie in (0, 1), got {split_fraction}"
        )
    scenario = graph.copy()
    nodes = scenario.nodes
    cut_index = max(1, min(len(nodes) - 1, int(round(split_fraction * len(nodes)))))
    lower = set(nodes[:cut_index])
    cut_edges = [
        (u, v)
        for u, v in scenario.edge_pairs()
        if (u in lower) != (v in lower)
    ]
    if not cut_edges:
        raise GraphError("the chosen split crosses no edges; nothing to cut")
    for u, v in cut_edges:
        scenario.schedule_edge_down(split_time, u, v)
        scenario.schedule_edge_up(heal_time, u, v, params=edge)
    return scenario, {
        "cut_edges": [list(pair) for pair in cut_edges],
        "split_time": split_time,
        "heal_time": heal_time,
        "partition_sizes": [cut_index, len(nodes) - cut_index],
    }


def crash_restart(
    graph: DynamicGraph,
    edge: EdgeParams,
    *,
    crash_time: float,
    downtime: float = 10.0,
    node: Optional[NodeId] = None,
    reset_value: float = 0.0,
) -> Tuple[DynamicGraph, Dict[str, Any]]:
    """One node crashes, forgets everything, and rejoins from scratch.

    At ``crash_time`` the node's edges disappear; ``downtime`` later the
    node reset fires (fresh clocks at ``reset_value``, a brand-new
    algorithm instance) and its edges return in the same step.  The rejoin
    is the hard part for the algorithm: the reborn node is up to the whole
    network's logical-clock value behind its neighbors and must be pulled
    up without wrecking the gradient property for everyone else.
    """
    if downtime <= 0.0:
        raise GraphError(f"downtime must be positive, got {downtime}")
    scenario = graph.copy()
    nodes = scenario.nodes
    if node is None:
        node = nodes[len(nodes) // 2]
    if not scenario.has_node(node):
        raise GraphError(f"unknown crash node {node}")
    edges = _incident_edges(scenario, [node])
    if not edges:
        raise GraphError(f"node {node} has no edges to lose")
    restart_time = crash_time + downtime
    for u, v in edges:
        scenario.schedule_edge_down(crash_time, u, v)
        scenario.schedule_edge_up(restart_time, u, v, params=edge)
    scenario.schedule_node_reset(restart_time, node, value=reset_value)
    return scenario, {
        "crashed_node": node,
        "crash_time": crash_time,
        "restart_time": restart_time,
        "dropped_edges": [list(pair) for pair in edges],
    }
