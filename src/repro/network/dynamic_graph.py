"""The directed dynamic estimate graph ``G = (V, E(t))``.

Edges are directed: ``(u, v) in E(t)`` means that at time ``t`` node ``u`` has
a means of estimating ``v``'s clock.  An undirected edge ``{u, v}`` exists when
both directions are present.  The asymmetry models the (bounded) delay with
which endpoints learn about link status changes.

The graph also stores a *schedule* of future edge events so that scenarios can
be described declaratively and replayed by the simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .edge import DEFAULT_EDGE_PARAMS, EdgeKey, EdgeParams, NodeId


class GraphError(ValueError):
    """Raised on invalid graph manipulations."""


@dataclass(frozen=True, order=True)
class EdgeEvent:
    """A scheduled directed edge appearance or disappearance."""

    time: float
    kind: str  # "up" or "down"
    source: NodeId
    target: NodeId

    def __post_init__(self):
        if self.kind not in ("up", "down"):
            raise GraphError(f"unknown edge event kind {self.kind!r}")
        if self.time < 0.0:
            raise GraphError(f"event times must be non-negative, got {self.time}")


@dataclass(frozen=True, order=True)
class NodeResetEvent:
    """A scheduled node restart: clocks and algorithm state start over.

    At ``time`` the node's hardware and logical clocks are replaced with
    fresh clocks at ``value`` and its algorithm instance is recreated, as if
    the node had crashed and rebooted with no memory of the run so far.  The
    surrounding outage (its edges going down and coming back) is expressed
    through ordinary edge events.
    """

    time: float
    node: NodeId
    value: float = 0.0

    def __post_init__(self):
        if self.time < 0.0:
            raise GraphError(f"event times must be non-negative, got {self.time}")


def _pair(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Endpoints of the undirected edge ``{u, v}``, smaller first."""
    if u == v:
        raise ValueError(f"self loops are not allowed ({u})")
    return (u, v) if u < v else (v, u)


def _pop_due(schedule: list, time: float) -> list:
    """Remove and return the due prefix of a time-sorted ``schedule``.

    The tail stays in place, so a call with nothing due costs one comparison
    however long the schedule is.
    """
    limit = time + 1e-12
    count = 0
    for event in schedule:
        if not event.time <= limit:
            break
        count += 1
    due = schedule[:count]
    del schedule[:count]
    return due


class DynamicGraph:
    """Mutable directed graph with per-edge parameters and an event schedule."""

    def __init__(self, nodes: Iterable[NodeId]):
        self._nodes: List[NodeId] = sorted(set(int(n) for n in nodes))
        if not self._nodes:
            raise GraphError("a dynamic graph needs at least one node")
        self._node_set: Set[NodeId] = set(self._nodes)
        self._out: Dict[NodeId, Set[NodeId]] = {n: set() for n in self._nodes}
        # Keyed by the plain ``(lo, hi)`` endpoint pair: ``edge_params`` runs
        # once per estimate and must not build and hash a frozen dataclass
        # there.  ``EdgeKey`` appears only at the ``edges`` and
        # ``known_edge_params`` boundary.
        self._params: Dict[Tuple[NodeId, NodeId], EdgeParams] = {}
        self._schedule: List[EdgeEvent] = []
        self._schedule_sorted = True
        self._node_resets: List[NodeResetEvent] = []
        self._node_resets_sorted = True

    # ------------------------------------------------------------------
    # Node and edge accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def has_node(self, node: NodeId) -> bool:
        return node in self._node_set

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """Out-neighbors of ``node``: the nodes it currently can estimate."""
        self._require_node(node)
        return set(self._out[node])

    def neighbors_view(self, node: NodeId) -> Set[NodeId]:
        """Live out-neighbor set of ``node`` -- no defensive copy.

        The returned set is the graph's internal state and MUST be treated as
        read-only; it changes when edge events are applied.  Hot loops (the
        fast simulation backend) use this accessor where the per-call copy of
        :meth:`neighbors` would dominate the runtime.
        """
        self._require_node(node)
        return self._out[node]

    def symmetric_neighbors(self, node: NodeId) -> Set[NodeId]:
        """Neighbors connected by an undirected (bidirectional) edge."""
        self._require_node(node)
        return {v for v in self._out[node] if node in self._out[v]}

    def has_directed_edge(self, source: NodeId, target: NodeId) -> bool:
        self._require_node(source)
        self._require_node(target)
        return target in self._out[source]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True when the undirected edge ``{u, v}`` exists (both directions)."""
        return self.has_directed_edge(u, v) and self.has_directed_edge(v, u)

    def directed_edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        for u in self._nodes:
            for v in sorted(self._out[u]):
                yield (u, v)

    def adjacency_rows(self) -> Iterator[Tuple[NodeId, List[NodeId], List[EdgeParams]]]:
        """Per node, ascending: its sorted out-neighbors and their edge parameters."""
        get = self._params.get
        for u in self._nodes:
            row = sorted(self._out[u])
            yield u, row, [
                get((u, v) if u < v else (v, u), DEFAULT_EDGE_PARAMS) for v in row
            ]

    def edge_pairs(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Undirected edges present in both directions, as ``(lo, hi)`` pairs.

        Nodes are visited ascending, so an edge is first met in its smaller
        endpoint's row and is yielded from there, nothing remembered.
        """
        out = self._out
        for u in self._nodes:
            for v in out[u]:
                if u < v and u in out[v]:
                    yield (u, v)

    def edges(self) -> Iterator[EdgeKey]:
        """:meth:`edge_pairs` as :class:`EdgeKey` objects, in the same order."""
        for lo, hi in self.edge_pairs():
            yield EdgeKey(lo, hi)

    def edge_count(self) -> int:
        return sum(1 for _ in self.edge_pairs())

    # ------------------------------------------------------------------
    # Edge parameters
    # ------------------------------------------------------------------
    def set_edge_params(self, u: NodeId, v: NodeId, params: EdgeParams) -> None:
        self._require_node(u)
        self._require_node(v)
        self._params[_pair(u, v)] = params

    def edge_params(self, u: NodeId, v: NodeId) -> EdgeParams:
        """Parameters of edge ``{u, v}`` (defaults apply if never set)."""
        return self._params.get(_pair(u, v), DEFAULT_EDGE_PARAMS)

    def known_edge_params(self) -> Dict[EdgeKey, EdgeParams]:
        return {EdgeKey(lo, hi): params for (lo, hi), params in self._params.items()}

    def distinct_edge_params(self) -> List[EdgeParams]:
        """The known edges' parameter objects, each once (by identity); no keys."""
        values = self._params.values()
        return list(dict(zip(map(id, values), values)).values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_directed_edge(
        self, source: NodeId, target: NodeId, params: Optional[EdgeParams] = None
    ) -> None:
        self._require_node(source)
        self._require_node(target)
        if source == target:
            raise GraphError(f"self loops are not allowed ({source})")
        self._out[source].add(target)
        if params is not None:
            self._params[_pair(source, target)] = params

    def remove_directed_edge(self, source: NodeId, target: NodeId) -> None:
        self._require_node(source)
        self._require_node(target)
        self._out[source].discard(target)

    def add_edge(
        self, u: NodeId, v: NodeId, params: Optional[EdgeParams] = None
    ) -> None:
        """Add the undirected edge ``{u, v}`` (both directions at once)."""
        self.add_edges(((u, v),), params)

    def add_edges(
        self,
        pairs: Iterable[Tuple[NodeId, NodeId]],
        params: Optional[EdgeParams] = None,
    ) -> None:
        """Add the undirected edges ``pairs``, in order, all with ``params``.

        Each neighbor set is filled in the order of ``pairs``: set iteration
        order seeds the engines' broadcast order, so it is part of the bits.
        """
        out = self._out
        known = self._params
        for u, v in pairs:
            try:
                row_u, row_v = out[u], out[v]
            except KeyError:
                raise GraphError(f"unknown node {v if u in out else u}") from None
            if u == v:
                raise GraphError(f"self loops are not allowed ({u})")
            row_u.add(v)
            row_v.add(u)
            if params is not None:
                known[(u, v) if u < v else (v, u)] = params

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the undirected edge ``{u, v}`` (both directions)."""
        self.remove_directed_edge(u, v)
        self.remove_directed_edge(v, u)

    # ------------------------------------------------------------------
    # Event schedule
    # ------------------------------------------------------------------
    def schedule_edge_up(
        self,
        time: float,
        u: NodeId,
        v: NodeId,
        *,
        params: Optional[EdgeParams] = None,
        skew: float = 0.0,
    ) -> None:
        """Schedule the undirected edge ``{u, v}`` to appear at ``time``.

        ``skew`` delays the appearance of the ``(v, u)`` direction, modeling
        asymmetric link detection; it must not exceed the detection delay
        ``tau`` of the edge.
        """
        self._require_node(u)
        self._require_node(v)
        if params is not None:
            self.set_edge_params(u, v, params)
        tau = self.edge_params(u, v).tau
        if skew < 0.0 or skew > tau + 1e-12:
            raise GraphError(
                f"edge-up skew {skew} must lie in [0, tau={tau}] for edge ({u},{v})"
            )
        self._push_event(EdgeEvent(time, "up", u, v))
        self._push_event(EdgeEvent(time + skew, "up", v, u))

    def schedule_edge_down(
        self, time: float, u: NodeId, v: NodeId, *, skew: float = 0.0
    ) -> None:
        """Schedule the undirected edge ``{u, v}`` to disappear at ``time``."""
        self._require_node(u)
        self._require_node(v)
        tau = self.edge_params(u, v).tau
        if skew < 0.0 or skew > tau + 1e-12:
            raise GraphError(
                f"edge-down skew {skew} must lie in [0, tau={tau}] for edge ({u},{v})"
            )
        self._push_event(EdgeEvent(time, "down", u, v))
        self._push_event(EdgeEvent(time + skew, "down", v, u))

    def schedule_directed_event(self, event: EdgeEvent) -> None:
        self._require_node(event.source)
        self._require_node(event.target)
        self._push_event(event)

    def pending_events(self) -> List[EdgeEvent]:
        self._sort_schedule()
        return list(self._schedule)

    def pop_events_until(self, time: float) -> List[EdgeEvent]:
        """Remove and return all scheduled events with ``event.time <= time``."""
        self._sort_schedule()
        return _pop_due(self._schedule, time)

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest scheduled edge event, ``None`` if none is left."""
        self._sort_schedule()
        return self._schedule[0].time if self._schedule else None

    def apply_event(self, event: EdgeEvent) -> None:
        """Apply a directed edge event to the current edge set."""
        if event.kind == "up":
            self.add_directed_edge(event.source, event.target)
        else:
            self.remove_directed_edge(event.source, event.target)

    # ------------------------------------------------------------------
    # Node-reset schedule (crash/restart scenarios)
    # ------------------------------------------------------------------
    def schedule_node_reset(
        self, time: float, node: NodeId, *, value: float = 0.0
    ) -> None:
        """Schedule ``node`` to restart at ``time`` with clocks at ``value``.

        The engine interprets the event as a crash/restart: clocks are
        replaced and the algorithm instance is rebuilt from its factory.
        Engines that do not implement node restarts must reject graphs with
        pending resets (``UnsupportedScenarioError``), and their backend must
        decline the dynamics that schedule them (``declines`` in
        :mod:`repro.fastsim.backend`) so the sweep executor runs such specs
        on ``reference``.
        """
        self._require_node(node)
        self._node_resets.append(NodeResetEvent(time, node, float(value)))
        self._node_resets_sorted = False

    def pending_node_resets(self) -> List[NodeResetEvent]:
        self._sort_node_resets()
        return list(self._node_resets)

    def pop_node_resets_until(self, time: float) -> List[NodeResetEvent]:
        """Remove and return all node resets with ``event.time <= time``."""
        self._sort_node_resets()
        return _pop_due(self._node_resets, time)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[NodeId, Set[NodeId]]:
        """Symmetric adjacency over undirected edges (copy)."""
        return {n: self.symmetric_neighbors(n) for n in self._nodes}

    def is_connected(self) -> bool:
        """Connectivity of the undirected graph induced by symmetric edges."""
        if not self._nodes:
            return True
        adjacency = self.adjacency()
        start = self._nodes[0]
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for other in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(self._nodes)

    def copy(self) -> "DynamicGraph":
        clone = DynamicGraph(self._nodes)
        for u in self._nodes:
            clone._out[u] = set(self._out[u])
        clone._params = dict(self._params)
        clone._schedule = list(self._schedule)
        clone._schedule_sorted = self._schedule_sorted
        clone._node_resets = list(self._node_resets)
        clone._node_resets_sorted = self._node_resets_sorted
        return clone

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _require_node(self, node: NodeId) -> None:
        if node not in self._node_set:
            raise GraphError(f"unknown node {node}")

    def _push_event(self, event: EdgeEvent) -> None:
        self._schedule.append(event)
        self._schedule_sorted = False

    def _sort_schedule(self) -> None:
        if not self._schedule_sorted:
            self._schedule.sort()
            self._schedule_sorted = True

    def _sort_node_resets(self) -> None:
        if not self._node_resets_sorted:
            self._node_resets.sort()
            self._node_resets_sorted = True
