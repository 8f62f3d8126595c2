"""Sample views: one read surface over an engine's per-node columns.

Observers never touch engine state directly; they read the current sample
through a :class:`SampleView`.  Every engine hands the pipeline the same
three per-node columns (logical clock, max estimate, mode code), and the
view is chosen by the column type:

* :class:`ColumnsView` -- flat Python sequences (the reference and fast
  engines, trace replays), reduced by plain loops; it needs no numpy;
* :class:`ArrayView` -- NumPy columns (the vec and jit engines), reduced
  through :mod:`repro.metrics.kernels` (pure array reductions).

Both produce bit-identical floats for the same state -- the reductions are
order-insensitive maxima/minima and exact comparisons (see the kernel
module docstring for the argument).  Edge lists are registered once under a
key and translated to the view's column positions on first use.  The
all-pairs reductions read a :class:`~repro.network.paths.PairTable` window
by window and, inside a window, class by class against one scalar per
class: its index columns address the sorted nodes, so each sample reorders
the O(n) logical column when the view's own order differs, never the O(n^2)
pairs, and a view keeps nothing per pair.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.edge import NodeId
from ..network.paths import PairTable

Pair = Tuple[NodeId, NodeId]


class SampleView:
    """Read surface over one sample's columns (subclasses fill the hooks).

    ``ids`` lists the nodes in column order and ``index`` maps each to its
    position; both are fixed for the view's life, since nodes never join or
    leave a run.
    """

    time: float = 0.0

    def __init__(self, ids: Sequence[NodeId], index: Dict[NodeId, int]):
        self._ids = ids
        self._index = index
        self._logical: Sequence[float] = ()
        self._max_estimate: Sequence[float] = ()
        self._mode: Sequence[int] = ()
        self._pair_cache: Dict[str, Tuple[Sequence[int], Sequence[int]]] = {}
        self._gskew: Optional[float] = None
        self._table_column: Optional[Tuple[List[NodeId], Sequence[float]]] = None
        self._order: Optional[Tuple[List[NodeId], Optional[List[int]]]] = None

    def set_columns(self, time, logical, max_estimate, mode) -> "SampleView":
        """Point the view at one sample's columns (read, never copied)."""
        self.time = time
        self._logical = logical
        self._max_estimate = max_estimate
        self._mode = mode
        self._gskew = None
        self._table_column = None
        return self

    def _column(self, table: PairTable) -> Sequence[float]:
        """This sample's logical clocks in ``table.nodes`` order (memoized
        per sample: every all-pairs reduction of a sample shares it)."""
        memo = self._table_column
        if memo is None or memo[0] is not table.nodes:
            memo = self._table_column = (table.nodes, self._in_order(table.nodes))
        return memo[1]

    def _in_order(self, nodes: List[NodeId]) -> Sequence[float]:
        raise NotImplementedError

    def _positions_of(self, nodes: List[NodeId]) -> Optional[List[int]]:
        """The column position of each of ``nodes``, or ``None`` when the
        columns follow that order already (worked out once per table)."""
        order = self._order
        if order is None or order[0] is not nodes:
            same = list(self._ids) == nodes
            order = self._order = (nodes, None if same else [self._index[u] for u in nodes])
        return order[1]

    # -- reductions (memoized where several observers share them) -------
    def global_skew(self) -> float:
        if self._gskew is None:
            self._gskew = self._global_skew()
        return self._gskew

    def _global_skew(self) -> float:
        raise NotImplementedError

    def pair_skew(self, u: NodeId, v: NodeId) -> float:
        """``|L_u - L_v|`` for one node pair."""
        raise NotImplementedError

    def max_pair_skew(self, key: str, pairs: Sequence[Pair]) -> float:
        """Largest ``|L_u - L_v|`` over a registered pair list (0.0 empty)."""
        raise NotImplementedError

    def count_exceeding(self, table: PairTable, limits: Sequence[float]) -> int:
        """How many table pairs have ``|L_i - L_j| >`` the limit of their class."""
        column = self._column(table)
        count = 0
        for lo, hi, runs in table.windows:
            pairs = zip(table.first[lo:hi], table.second[lo:hi])
            for c, start, end in runs:
                limit = limits[c]
                for a, b in islice(pairs, end - start):
                    if abs(column[a] - column[b]) > limit:
                        count += 1
        return count

    def group_max_update(self, table: PairTable, group: Sequence[int], accumulator) -> None:
        """Fold this sample's pair skews into per-group running maxima, class
        ``c`` of the table feeding group ``group[c]``."""
        column = self._column(table)
        for lo, hi, runs in table.windows:
            pairs = zip(table.first[lo:hi], table.second[lo:hi])
            for c, start, end in runs:
                g = group[c]
                for a, b in islice(pairs, end - start):
                    skew = abs(column[a] - column[b])
                    if skew > accumulator[g]:
                        accumulator[g] = skew

    def histogram_update(self, key: str, pairs: Sequence[Pair], bin_edges: Sequence[float], counts) -> None:
        """Bucket this sample's pair skews into per-pair histograms."""
        raise NotImplementedError

    def max_estimate_lag(self) -> float:
        """``max_u (max_v L_v - M_u)`` over all nodes."""
        raise NotImplementedError

    def mode_counts_update(self, counts: List[int]) -> None:
        """Add this sample's per-mode-code tallies into ``counts``."""
        raise NotImplementedError

    # -- accumulator allocation (view-native containers) ----------------
    def make_group_accumulator(self, size: int):
        """A zero-filled per-group running-max container."""
        return [0.0] * size

    def make_histogram_counts(self, rows: int, buckets: int):
        """A zero-filled ``rows x buckets`` histogram container."""
        return [[0] * buckets for _ in range(rows)]


class ColumnsView(SampleView):
    """View over flat Python sequences (reference and fast engines, replays)."""

    def _positions(self, key: str, pairs) -> Tuple[List[int], List[int]]:
        cached = self._pair_cache.get(key)
        if cached is None:
            index = self._index
            cached = (
                [index[u] for u, _ in pairs],
                [index[v] for _, v in pairs],
            )
            self._pair_cache[key] = cached
        return cached

    def _global_skew(self) -> float:
        values = self._logical
        return max(values) - min(values) if values else 0.0

    def pair_skew(self, u: NodeId, v: NodeId) -> float:
        logical = self._logical
        return abs(logical[self._index[u]] - logical[self._index[v]])

    def max_pair_skew(self, key, pairs) -> float:
        iu, iv = self._positions(key, pairs)
        logical = self._logical
        best = 0.0
        for a, b in zip(iu, iv):
            skew = abs(logical[a] - logical[b])
            if skew > best:
                best = skew
        return best

    def _in_order(self, nodes):
        positions = self._positions_of(nodes)
        if positions is None:
            return self._logical
        return list(map(self._logical.__getitem__, positions))

    def histogram_update(self, key, pairs, bin_edges, counts) -> None:
        import bisect

        iu, iv = self._positions(key, pairs)
        logical = self._logical
        for index, (a, b) in enumerate(zip(iu, iv)):
            bucket = bisect.bisect_right(bin_edges, abs(logical[a] - logical[b]))
            counts[index][bucket] += 1

    def max_estimate_lag(self) -> float:
        return max(self._logical) - min(self._max_estimate)

    def mode_counts_update(self, counts: List[int]) -> None:
        for code in self._mode:
            counts[code] += 1


class ArrayView(SampleView):
    """View over NumPy columns (vec and jit engines; reductions in kernels)."""

    def __init__(self, ids: Sequence[NodeId], index: Dict[NodeId, int]):
        super().__init__(ids, index)
        import numpy as np

        from . import kernels

        self._np = np
        self._kernels = kernels
        self._aux_cache: Dict[str, object] = {}

    def _positions(self, key: str, pairs):
        cached = self._pair_cache.get(key)
        if cached is None:
            np = self._np
            index = self._index
            cached = (
                np.asarray([index[u] for u, _ in pairs], dtype=np.int64),
                np.asarray([index[v] for _, v in pairs], dtype=np.int64),
            )
            self._pair_cache[key] = cached
        return cached

    def _aux(self, key: str, values, dtype):
        cached = self._aux_cache.get(key)
        if cached is None:
            cached = self._np.asarray(list(values), dtype=dtype)
            self._aux_cache[key] = cached
        return cached

    def _global_skew(self) -> float:
        return self._kernels.global_skew(self._logical)

    def pair_skew(self, u: NodeId, v: NodeId) -> float:
        logical = self._logical
        return float(abs(logical[self._index[u]] - logical[self._index[v]]))

    def max_pair_skew(self, key, pairs) -> float:
        iu, iv = self._positions(key, pairs)
        return self._kernels.max_pair_skew(self._logical, iu, iv)

    def _in_order(self, nodes):
        positions = self._positions_of(nodes)
        return self._logical if positions is None else self._logical[positions]

    def _class_skews(self, table):
        """``(lo, runs, skews, maxima)`` per window of the table: the
        window's pair skews (one gather from the zero-copy index columns)
        and the largest of them in each of its class runs."""
        np = self._np
        column = self._column(table)
        first = np.frombuffer(table.first, dtype=np.intc)
        second = np.frombuffer(table.second, dtype=np.intc)
        for lo, hi, runs in table.windows:
            starts = [start - lo for _, start, _ in runs]
            skews, maxima = self._kernels.run_skews(column, first[lo:hi], second[lo:hi], starts)
            yield lo, runs, skews, maxima

    def count_exceeding(self, table, limits) -> int:
        # A run whose largest skew is within its limit has no pair over it;
        # only the others are counted pair by pair.
        count = 0
        for lo, runs, skews, maxima in self._class_skews(table):
            for (c, start, end), largest in zip(runs, maxima.tolist()):
                if largest > limits[c]:
                    over = skews[start - lo : end - lo] > limits[c]
                    count += int(self._np.count_nonzero(over))
        return count

    def group_max_update(self, table, group, accumulator) -> None:
        for _, runs, _, maxima in self._class_skews(table):
            for (c, _, _), skew in zip(runs, maxima.tolist()):
                if skew > accumulator[group[c]]:
                    accumulator[group[c]] = skew

    def histogram_update(self, key, pairs, bin_edges, counts) -> None:
        iu, iv = self._positions(key, pairs)
        edges_arr = self._aux(key + "/bins", bin_edges, self._np.float64)
        self._kernels.histogram_update(self._logical, iu, iv, edges_arr, counts)

    def max_estimate_lag(self) -> float:
        return self._kernels.max_estimate_lag(self._logical, self._max_estimate)

    def mode_counts_update(self, counts: List[int]) -> None:
        self._kernels.mode_counts_update(self._mode, counts)

    def make_group_accumulator(self, size: int):
        return self._np.zeros(size, dtype=self._np.float64)

    def make_histogram_counts(self, rows: int, buckets: int):
        return self._np.zeros((rows, buckets), dtype=self._np.int64)
