"""Skew measurements over traces and snapshots.

The paper distinguishes the *global skew* (maximum pairwise difference of
logical clocks), the *local skew* (maximum difference across a single edge)
and the *gradient skew* (difference between nodes as a function of the weight
of the path connecting them).  These helpers extract all three from recorded
traces.

Since the introduction of :mod:`repro.metrics`, the trace-walking functions
here are thin replays of the same streaming reducers the observers run
during a simulation (:mod:`repro.metrics.streaming`): one pass, identical
float expressions, so a post-hoc analysis of a full trace and a streaming
observer of the same run report bit-identical numbers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..metrics import streaming
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import NodeId
from ..network import paths
from ..sim.trace import Trace, TraceSample

Edge = Tuple[NodeId, NodeId]


def global_skew(sample: TraceSample) -> float:
    """Maximum pairwise logical clock difference in one sample."""
    return sample.global_skew()


def max_global_skew(trace: Trace, *, start: float = 0.0) -> float:
    """Largest global skew observed at or after ``start``."""
    tracker = streaming.PeakTracker(start=start)
    for sample in trace:
        if sample.time >= start:
            tracker.update(sample.time, sample.global_skew())
    return tracker.peak


def local_skew(sample: TraceSample, edges: Iterable[Edge]) -> float:
    """Largest skew across any of the given edges in one sample."""
    best = 0.0
    for u, v in edges:
        best = max(best, abs(sample.logical[u] - sample.logical[v]))
    return best


def max_local_skew(trace: Trace, edges: Iterable[Edge], *, start: float = 0.0) -> float:
    """Largest skew across any of the given edges over the whole trace."""
    edge_list = list(edges)
    tracker = streaming.PeakTracker(start=start)
    for sample in trace:
        if sample.time >= start:
            tracker.update(sample.time, local_skew(sample, edge_list))
    return tracker.peak


def max_skew_between(trace: Trace, u: NodeId, v: NodeId, *, start: float = 0.0) -> float:
    """Largest skew between two specific nodes over the trace."""
    tracker = streaming.PeakTracker(start=start)
    for sample in trace:
        if sample.time >= start:
            tracker.update(sample.time, sample.skew(u, v))
    return tracker.peak


def edges_of(graph: DynamicGraph) -> List[Edge]:
    """The undirected edges of the graph as (u, v) tuples."""
    return list(graph.edge_pairs())


def skew_by_distance(
    sample: TraceSample,
    distances: Dict[Tuple[NodeId, NodeId], float],
) -> Dict[float, float]:
    """Maximum skew per exact weighted distance in one sample.

    ``distances`` maps ordered node pairs to their weighted distance (as
    produced by :func:`repro.network.paths.all_pairs_distances`).
    """
    result: Dict[float, float] = {}
    for (u, v), d in distances.items():
        if u >= v or d <= 0.0:
            continue
        skew = abs(sample.logical[u] - sample.logical[v])
        key = round(d, 9)
        if skew > result.get(key, 0.0):
            result[key] = skew
    return result


def max_skew_by_distance(
    trace: Trace,
    graph: DynamicGraph,
    *,
    weight=None,
    start: float = 0.0,
) -> Dict[float, float]:
    """Maximum over time of the per-distance maximum skew."""
    distances = paths.all_pairs_distances(graph, weight)
    accumulator = streaming.DistanceGroupMax()
    for sample in trace:
        if sample.time < start:
            continue
        for distance, skew in skew_by_distance(sample, distances).items():
            accumulator.update(distance, skew)
    return accumulator.result()


def skew_growth_rate(
    trace: Trace, *, start: float, end: float
) -> Optional[float]:
    """Least-squares slope of the global skew between ``start`` and ``end``.

    Returns ``None`` when fewer than two samples fall in the window.  A
    negative slope means the skew is shrinking (used by the self-stabilization
    experiment E5 to check the decrease rate of Theorem 5.6(II)).
    """
    points = [
        (sample.time, sample.global_skew())
        for sample in trace.samples_between(start, end)
    ]
    if len(points) < 2:
        return None
    n = len(points)
    mean_t = sum(p[0] for p in points) / n
    mean_s = sum(p[1] for p in points) / n
    numerator = sum((t - mean_t) * (s - mean_s) for t, s in points)
    denominator = sum((t - mean_t) ** 2 for t, _ in points)
    if denominator == 0.0:
        return None
    return numerator / denominator


def steady_state_window(trace: Trace, fraction: float = 0.5) -> Tuple[float, float]:
    """Time window covering the last ``fraction`` of the trace."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if trace.is_empty():
        raise ValueError("the trace is empty")
    start_time = trace.first().time
    end_time = trace.final().time
    return (streaming.steady_window_start(start_time, end_time, fraction), end_time)


def max_estimate_lag(sample: TraceSample) -> float:
    """Largest ``max_v L_v - M_u`` over all nodes ``u`` in one sample."""
    true_max = max(sample.logical.values())
    return max(true_max - estimate for estimate in sample.max_estimates.values())


def max_estimate_violations(sample: TraceSample, tolerance: float = 1e-6) -> int:
    """Number of nodes whose max estimate exceeds the true maximum clock."""
    true_max = max(sample.logical.values())
    return sum(
        1 for value in sample.max_estimates.values() if value > true_max + tolerance
    )
