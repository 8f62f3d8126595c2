"""Struct-of-arrays state columns for the fast simulation backend.

Instead of one ``_NodeState`` object per node (clocks, algorithm instance,
API shim), the fast backend keeps every per-node scalar in a flat list indexed
by node *position* (the index of the node id in the sorted node list), and the
estimate-graph adjacency in a CSR (compressed sparse row) layout whose
per-entry columns carry everything the AOPT control rule reads per neighbor:
the neighbor's position, the edge uncertainty ``epsilon_e`` and the
precomputed per-level trigger thresholds of
:func:`repro.core.aopt_step.edge_threshold_table`.

The CSR is rebuilt from the :class:`~repro.network.dynamic_graph.DynamicGraph`
whenever scheduled edge events change the adjacency (rare compared to the
per-``dt`` step rate); level promotions between rebuilds patch the level
column in place through ``row_pos``.  :meth:`CSRAdjacency.row_shapes` digests
each row for the scalar control loop -- the slots that take part and whether
they share one level and one threshold table -- the first time it is asked
after a rebuild, so the engines that never ask never pay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.aopt_step import ThresholdTable, edge_threshold_table
from ..core.neighbor_sets import NeighborLevels
from ..core.parameters import Parameters
from ..estimate.message_layer import broadcast_error_bound
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import EdgeParams, NodeId


class NodeColumns:
    """Flat per-node state columns (position-indexed, one list per field)."""

    __slots__ = (
        "ids",
        "index",
        "hardware",
        "logical",
        "last_hardware",
        "max_estimate",
        "next_broadcast",
        "multiplier",
        "mode",
    )

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        initial_logical: Optional[Dict[NodeId, float]] = None,
    ):
        initial_logical = initial_logical or {}
        self.ids: List[NodeId] = list(node_ids)
        self.index: Dict[NodeId, int] = {nid: i for i, nid in enumerate(self.ids)}
        start = [float(initial_logical.get(nid, 0.0)) for nid in self.ids]
        # Hardware clocks start at the same value as the logical clocks,
        # mirroring Engine.__init__ (HardwareClock(rho, start_value)).
        self.logical: List[float] = list(start)
        self.hardware: List[float] = list(start)
        # Seeding the tracker's last-hardware with the initial hardware value
        # reproduces MaxEstimateTracker's first advance (delta == 0) exactly.
        self.last_hardware: List[float] = list(start)
        self.max_estimate: List[float] = [0.0] * len(self.ids)
        self.next_broadcast: List[float] = [0.0] * len(self.ids)
        self.multiplier: List[float] = [1.0] * len(self.ids)
        #: 0 = slow, 1 = fast (MODE_* codes of :mod:`repro.core.aopt_step`).
        self.mode: List[int] = [0] * len(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class CSRAdjacency:
    """CSR view of the directed estimate graph with per-edge AOPT constants.

    ``indptr[i]:indptr[i+1]`` delimits node position ``i``'s row; within a
    row, ``neighbor_index`` holds the neighbor's node position, ``epsilon``
    the edge uncertainty, ``level`` the neighbor's insertion level already
    clamped to ``max_level`` (0 for discovered-but-uninserted edges) and
    ``tables`` the shared per-level trigger thresholds.  Threshold tables are
    cached by ``(epsilon, tau)``, so graphs with uniform edge parameters
    share a single table.
    """

    __slots__ = (
        "params",
        "max_level",
        "broadcast_bound",
        "indptr",
        "neighbor_index",
        "epsilon",
        "delay",
        "level",
        "tables",
        "row_pos",
        "max_degree",
        "_table_cache",
        "_row_shapes",
    )

    def __init__(
        self,
        params: Parameters,
        max_level: int,
        broadcast_bound: Optional[tuple] = None,
    ):
        self.params = params
        self.max_level = int(max_level)
        #: ``(broadcast_interval, rho, mu)`` in broadcast estimate mode; the
        #: epsilon column then carries the broadcast layer's guaranteed error
        #: bound per edge (what ``estimate_error`` reports to the algorithm)
        #: instead of the oracle edge epsilon.  ``None`` in oracle mode.
        self.broadcast_bound = broadcast_bound
        self.indptr: List[int] = [0]
        self.neighbor_index: List[int] = []
        self.epsilon: List[float] = []
        self.delay: List[float] = []
        self.level: List[int] = []
        self.tables: List[ThresholdTable] = []
        #: Per-row mapping neighbor id -> flat position (for level patching).
        self.row_pos: List[Dict[NodeId, int]] = []
        self.max_degree: int = 0
        self._table_cache: Dict[tuple, ThresholdTable] = {}
        self._row_shapes: Optional[List[tuple]] = None

    def table_for(self, epsilon: float, tau: float) -> ThresholdTable:
        key = (epsilon, tau)
        table = self._table_cache.get(key)
        if table is None:
            table = edge_threshold_table(self.params, epsilon, tau, self.max_level)
            self._table_cache[key] = table
        return table

    def _edge_columns(self, edge: EdgeParams) -> tuple:
        """``(epsilon, delay, threshold table)`` of one edge's CSR slots."""
        eps = edge.epsilon
        if self.broadcast_bound is not None:
            eps = broadcast_error_bound(edge.delay, *self.broadcast_bound)
        return (eps, edge.delay, self.table_for(eps, edge.tau))

    def rebuild(
        self,
        graph: DynamicGraph,
        index: Dict[NodeId, int],
        levels: Sequence[NeighborLevels],
    ) -> None:
        """Rebuild every row from the graph's current directed adjacency.

        One pass per row of :meth:`DynamicGraph.adjacency_rows`; a slot makes
        no call unless its ``EdgeParams`` object differs from the previous
        slot's.  Column values are memoized per object, by identity: the
        graph keeps every one alive for the duration of the rebuild.
        """
        indptr: List[int] = [0]
        neighbor_index: List[int] = []
        epsilon_col: List[float] = []
        delay_col: List[float] = []
        raw_levels: List[int] = []
        tables: List[ThresholdTable] = []
        row_pos: List[Dict[NodeId, int]] = []
        max_level = self.max_level
        max_degree = 0
        column_memo: Dict[int, tuple] = {}
        current = None
        for node, nbrs, edges in graph.adjacency_rows():
            raw_levels.extend(levels[index[node]].levels_of(nbrs))
            slot = len(neighbor_index)
            pos: Dict[NodeId, int] = {}
            for nbr, edge in zip(nbrs, edges):
                if edge is not current:
                    current = edge
                    memo = column_memo.get(id(edge))
                    if memo is None:
                        memo = column_memo[id(edge)] = self._edge_columns(edge)
                    eps, delay, table = memo
                pos[nbr] = slot
                slot += 1
                neighbor_index.append(index[nbr])
                epsilon_col.append(eps)
                delay_col.append(delay)
                tables.append(table)
            if len(nbrs) > max_degree:
                max_degree = len(nbrs)
            indptr.append(slot)
            row_pos.append(pos)
        level_col = [max_level if raw >= max_level else raw for raw in raw_levels]
        self.indptr = indptr
        self.neighbor_index = neighbor_index
        self.epsilon = epsilon_col
        self.delay = delay_col
        self.level = level_col
        self.tables = tables
        self.row_pos = row_pos
        self.max_degree = max_degree
        self._row_shapes = None

    def set_level(self, position: int, neighbor: NodeId, raw_level: int) -> None:
        """Patch one entry's level column after a promotion (no rebuild)."""
        pos = self.row_pos[position].get(neighbor)
        if pos is not None:
            max_level = self.max_level
            self.level[pos] = max_level if raw_level >= max_level else raw_level
            if self._row_shapes is not None:
                self._row_shapes[position] = self._row_shape(position)

    def row_shapes(self) -> List[tuple]:
        """Per row ``(slots, level, table)``, built on the first call after a rebuild.

        ``slots`` are the flat positions of the row's level >= 1 neighbors.
        When they share one level and one threshold table (hence one epsilon)
        those follow -- the rows
        :func:`~repro.core.aopt_step.evaluate_mode_uniform` decides on two
        extrema; a mixed or an empty row reads ``(slots, 0, None)``.
        """
        shapes = self._row_shapes
        if shapes is None:
            shapes = self._row_shapes = [
                self._row_shape(position) for position in range(len(self.row_pos))
            ]
        return shapes

    def _row_shape(self, position: int) -> tuple:
        level = self.level
        tables = self.tables
        slots = [
            k for k in range(self.indptr[position], self.indptr[position + 1])
            if level[k] >= 1
        ]
        if len({(level[k], id(tables[k])) for k in slots}) != 1:
            return (slots, 0, None)
        return (slots, level[slots[0]], tables[slots[0]])
