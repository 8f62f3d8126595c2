"""The NumPy-vectorized simulation engine and its run-batching context.

:class:`VecEngine` runs the same fixed-step simulation as
:class:`repro.fastsim.engine.FastEngine` (from which it inherits the whole
event / insertion-handshake / transport machinery) but executes the per-step
hot phases as NumPy array kernels over *all* nodes at once:

* max-estimate maintenance, oracle *and* broadcast estimates, trigger
  evaluation and clock advancement are whole-array operations
  (:mod:`repro.vecsim.kernels`);
* broadcast messages travel through flat ``(delivery_time, receiver, value)``
  arrays instead of a heap -- sound in oracle mode because the max-estimate
  flooding update is an order-insensitive maximum, and in broadcast estimate
  mode because a stable ``(delivery_time, message_id)`` sort plus
  keep-last-per-slot reproduces the reference transport's delivery order --
  while the rare ``INSERT_EDGE`` messages keep using the inherited heap;
* message-delay draws stay on the *Python* rng (bit-identity requires the
  exact Mersenne-Twister stream the reference consumes), but the draws are
  batched per step and turned into delays with the same float expressions.

Run batching
------------

A :class:`VecContext` owns the flat state columns; every engine's columns
are views into the context's arrays.  A context over ``R`` engines advances
all of them in lockstep: one kernel invocation per phase covers the
concatenated node (and CSR edge) ranges of every run, so a sweep of many
small compatible runs (same ``dt``, same duration, same estimate strategy)
pays the NumPy dispatch overhead once instead of ``R`` times, and a batch of
large ones costs what they cost one by one (threshold tables, ``max_level``
and degree may differ per run; see :class:`VecContext`).  Runs never
interact -- separate graphs, schedulers and rng streams -- so a batched run
is bit-identical to the same run executed alone (the differential suite
asserts this).

Bit-identity caveats encoded here:

* the rate column is filled by scalar ``drift.rate(node, t)`` calls, never
  a NumPy rewrite of a model: once per change of ``int(t // rate_epoch)``,
  and every step for a drift whose ``rate_epoch is None``
  (:class:`~repro.sim.drift.SinusoidalDrift` -- ``math.sin`` and ``np.sin``
  may differ in the last ulp -- and custom models);
* a ``static`` delay model is called once per fan-out entry, the uniform
  model draws in batches, and any other model is called per message in
  send order;
* the ``uniform`` estimate strategy draws per neighbor in the reference's
  set-iteration order, so its estimates are filled by a scalar loop (the
  trigger evaluation stays vectorized);
* scenarios with ``drop_messages_on_edge_loss`` keep the inherited heap
  transport (per-message membership checks don't vectorize).
"""

from __future__ import annotations

import random as _random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.aopt_step import MODE_NAMES
from ..core.interfaces import AlgorithmFactory
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import NodeId
from ..sim.delay import UniformRandomDelay
from ..sim.engine import EngineError
from ..sim.runner import SimulationConfig
from ..sim.trace import Trace
from ..fastsim.engine import FastEngine, FastsimError
from . import kernels

__all__ = ["VecEngine", "VecContext", "build_batch"]


# ----------------------------------------------------------------------
# Batched uniform delay draws
# ----------------------------------------------------------------------
_MT_TRANSPLANT_SUPPORTED: Optional[bool] = None


def _mt_transplant_supported() -> bool:
    """Whether numpy's legacy RandomState reproduces ``random.Random``.

    Both are MT19937 with the same 53-bit double recipe, and their state
    layouts are interchangeable (624 key words + position).  Verified once
    against an actual Python rng so any build where this does not hold falls
    back to drawing through the Python API.
    """
    global _MT_TRANSPLANT_SUPPORTED
    if _MT_TRANSPLANT_SUPPORTED is None:
        try:
            reference = _random.Random(20260729)
            expected = [reference.random() for _ in range(8)]
            probe = _random.Random(20260729)
            state = probe.getstate()
            rs = np.random.RandomState()
            rs.set_state(("MT19937", np.asarray(state[1][:624], dtype=np.uint32), state[1][624]))
            batch = rs.random_sample(5).tolist()
            keys, pos = rs.get_state(legacy=True)[1:3]
            probe.setstate((state[0], tuple(keys.tolist()) + (int(pos),), state[2]))
            tail = [probe.random() for _ in range(3)]
            _MT_TRANSPLANT_SUPPORTED = batch + tail == expected
        except Exception:  # pragma: no cover - defensive
            _MT_TRANSPLANT_SUPPORTED = False
    return _MT_TRANSPLANT_SUPPORTED


class _UniformDelayPlan:
    """Batched draws from the model's Python rng.

    ``Random.uniform(a, b)`` is ``a + (b - a) * random()``; drawing the raw
    ``random()`` values in send order and applying the same expression in
    NumPy consumes the identical stream and produces the identical floats.
    The raw draws themselves go through numpy's MT19937 with the Python
    rng's transplanted state (bit-identical output stream, one C call per
    burst); if the transplant self-check fails, they fall back to per-call
    Python draws.

    Between bursts the numpy state stays authoritative ("owned") instead of
    being written back -- the only other consumer of the stream during a run
    is the engine's scalar leader-handshake draw, which goes through
    :meth:`sync_python_rng` first.
    """

    def __init__(self, model: UniformRandomDelay):
        self._model = model
        self._state = np.random.RandomState() if _mt_transplant_supported() else None
        self._owned = False

    def _draw_raw(self, count: int) -> np.ndarray:
        rng = self._model._rng
        rs = self._state
        if rs is not None:
            if self._owned:
                return rs.random_sample(count)
            version, mt, gauss = rng.getstate()
            if version == 3 and len(mt) == 625:
                rs.set_state(("MT19937", np.asarray(mt[:624], dtype=np.uint32), mt[624]))
                self._owned = True
                return rs.random_sample(count)
        # iter(random, None) never hits its sentinel; fromiter stops at count.
        return np.fromiter(iter(rng.random, None), dtype=np.float64, count=count)

    def sync_python_rng(self) -> None:
        """Hand the stream back to the model's rng before a scalar draw."""
        if self._owned:
            rng = self._model._rng
            keys, pos = self._state.get_state(legacy=True)[1:3]
            rng.setstate((3, tuple(keys.tolist()) + (int(pos),), rng.getstate()[2]))
            self._owned = False

    def delays(self, engine, t, bounds, static, pairs):
        """One burst's delays for the CSR delay ``bounds``, in send order."""
        model = self._model
        low = model.low_fraction
        span = model.high_fraction - model.low_fraction
        fractions = low + span * self._draw_raw(len(bounds))
        return np.minimum(fractions * bounds, bounds)


# ----------------------------------------------------------------------
# Combined CSR view shared by every engine of a context
# ----------------------------------------------------------------------
#: Padded cells one extra gather + maximum call is worth when stacked dense
#: engines of different degree share a row-max segment (the fixed cost of
#: the pair of numpy calls is about that of gathering this many elements).
_CELLS_PER_CALL = 256


class _CombinedCSR:
    """Concatenated NumPy mirror of every engine's CSR adjacency."""

    __slots__ = (
        "edge_count",
        "neighbor_index",
        "epsilon",
        "level",
        "table_id",
        "thresholds",
        "row_owner",
        "starts",
        "empty",
        "max_level",
        "row_thresholds",
        "_top_level",
        "_top_thresholds",
        "_row_max_segments",
        "_value_ext",
        "neg_epsilon",
        "edge_f1",
        "edge_f2",
        "edge_f3",
        "edge_b",
        "bc_value",
        "bc_hw",
        "bc_time",
        "bc_valid",
    )

    def __init__(self, engines: Sequence["VecEngine"], node_count: int):
        neighbor_parts: List[np.ndarray] = []
        epsilon_parts: List[np.ndarray] = []
        level_parts: List[np.ndarray] = []
        table_id_parts: List[np.ndarray] = []
        indptr_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        edge_count = 0
        tables: List = []
        table_pos: Dict = {}
        id_memo: Dict[int, int] = {}
        for engine in engines:
            csr = engine._csr
            engine._edge_offset = edge_count
            offset = engine._offset
            part = np.asarray(csr.neighbor_index, dtype=np.int64)
            if offset:
                part = part + offset
            neighbor_parts.append(part)
            epsilon_parts.append(np.asarray(csr.epsilon, dtype=np.float64))
            level_parts.append(np.asarray(csr.level, dtype=np.int64))
            # Deduplicate by value so engines with identical edge parameters
            # share one table row (enables the single-table fast paths); the
            # id-level memo keeps the per-edge cost at one dict hit, since
            # each engine reuses a handful of table objects.  Engines whose
            # threshold cache holds a single table (every homogeneous bench
            # and paper scenario) resolve the whole column in one step.
            csr_tables = csr.tables
            if len(csr._table_cache) == 1 and csr_tables:
                tid = id_memo.get(id(csr_tables[0]))
                if tid is None:
                    table = csr_tables[0]
                    tid = table_pos.get(table)
                    if tid is None:
                        tid = len(tables)
                        table_pos[table] = tid
                        tables.append(table)
                    id_memo[id(table)] = tid
                table_id_parts.append(
                    np.full(len(csr_tables), tid, dtype=np.int64)
                )
            else:
                table_id: List[int] = []
                for table in csr_tables:
                    tid = id_memo.get(id(table))
                    if tid is None:
                        tid = table_pos.get(table)
                        if tid is None:
                            tid = len(tables)
                            table_pos[table] = tid
                            tables.append(table)
                        id_memo[id(table)] = tid
                    table_id.append(tid)
                table_id_parts.append(np.asarray(table_id, dtype=np.int64))
            indptr_parts.append(
                np.asarray(csr.indptr[1:], dtype=np.int64) + edge_count
            )
            edge_count += len(csr.neighbor_index)
        self.edge_count = edge_count
        self.neighbor_index = np.concatenate(neighbor_parts) if neighbor_parts else np.zeros(0, dtype=np.int64)
        self.epsilon = np.concatenate(epsilon_parts) if epsilon_parts else np.zeros(0, dtype=np.float64)
        self.level = np.concatenate(level_parts) if level_parts else np.zeros(0, dtype=np.int64)
        self.table_id = np.concatenate(table_id_parts) if table_id_parts else np.zeros(0, dtype=np.int64)
        self.max_level = max((e.max_level for e in engines), default=1)
        thresholds = np.full((max(len(tables), 1), 4, self.max_level), np.inf)
        for tid, table in enumerate(tables):
            for row, values in enumerate(table):
                thresholds[tid, row, : len(values)] = values
        self.thresholds = thresholds
        indptr_arr = np.concatenate(indptr_parts)
        self.row_owner = np.repeat(
            np.arange(node_count, dtype=np.int64), np.diff(indptr_arr)
        )
        self.starts = np.minimum(indptr_arr[:-1], max(self.edge_count - 1, 0))
        self.empty = indptr_arr[:-1] == indptr_arr[1:]
        # Per-row thresholds for the extremum path of ``evaluate_modes_vec``:
        # the one table as ``(4, L)`` scalars-per-level when the batch shares
        # it, else every row's own table gathered to ``(4, L, n)`` (an empty
        # row borrows an arbitrary table -- its ``-inf`` extrema never fire).
        # ``None`` when some row mixes tables.  A table's top level is its
        # own length: a run with fewer levels than the batch maximum is at
        # top below ``max_level``.
        self._top_level = self._top_thresholds = None
        if len(tables) <= 1:
            self._top_level = len(tables[0][0]) if tables else self.max_level
            self._top_thresholds = thresholds[0]
        else:
            row_table = self.table_id[self.starts]
            if np.array_equal(self.table_id, row_table[self.row_owner]):
                tops = np.asarray([len(table[0]) for table in tables], dtype=np.int64)
                self._top_level = tops[self.table_id]
                self._top_thresholds = np.ascontiguousarray(
                    thresholds[row_table].transpose(1, 2, 0)
                )
        self._row_max_segments = self._plan_row_max(engines, indptr_arr)
        #: Scratch for padded row-maxima: per-edge values plus the sentinel.
        self._value_ext = np.empty(self.edge_count + 1, dtype=np.float64)
        #: Per-edge scratch buffers for the allocation-free kernels.
        self.neg_epsilon = -self.epsilon
        self.edge_f1 = np.empty(self.edge_count, dtype=np.float64)
        self.edge_f2 = np.empty(self.edge_count, dtype=np.float64)
        self.edge_f3 = np.empty(self.edge_count, dtype=np.float64)
        self.edge_b = np.empty(self.edge_count, dtype=bool)
        # Broadcast estimate mode: adopt the engines' per-slot stored-state
        # columns into combined arrays (same pattern as the node columns in
        # VecContext) so the broadcast-ahead kernel runs over the whole
        # batch; each engine's _bc_* attributes become views.
        if engines and engines[0]._bc_mode:
            self.bc_value = np.concatenate([e._bc_value for e in engines])
            self.bc_hw = np.concatenate([e._bc_hw for e in engines])
            self.bc_time = np.concatenate([e._bc_time for e in engines])
            self.bc_valid = np.concatenate([e._bc_valid for e in engines])
            for engine in engines:
                start = engine._edge_offset
                end = start + len(engine._csr.neighbor_index)
                engine._bc_value = self.bc_value[start:end]
                engine._bc_hw = self.bc_hw[start:end]
                engine._bc_time = self.bc_time[start:end]
                engine._bc_valid = self.bc_valid[start:end]
        else:
            self.bc_value = None
            self.bc_hw = None
            self.bc_time = None
            self.bc_valid = None
        self._refresh_row_thresholds()

    def _plan_row_max(self, engines: Sequence["VecEngine"], indptr: np.ndarray) -> List[Tuple]:
        """Split the rows into segments of adjacent engines, one layout each.

        An engine whose padded size ``max_degree * n`` stays within 4x its
        edge count takes the dense layout: per degree-column arrays of edge
        slots padded with a sentinel slot (index E), so a per-row maximum
        becomes ``max_degree`` gathers + maxima instead of a reduceat.
        High-degree rows (star hubs, random-graph hubs) would blow that up
        to ``n * max_degree``; those engines keep ``reduceat`` over their
        own edge range.  The rule is applied per engine, so one hub graph in
        a batch does not take the dense layout away from the grids and lines
        stacked with it.

        Adjacent engines then share a segment when that costs no more than
        running them apart: reduceat engines always (one call over the
        joint edge range), dense engines when widening both to the larger
        degree adds fewer padded cells than the gather calls it saves are
        worth (always for equal degrees -- a sweep of lines or of grids is
        one segment, as a single run is).

        Returns ``(pad, edges, starts, empty)`` tuples: ``pad`` for dense
        segments (the rest ``None``); the edge ``slice``, its local row
        ``starts`` and the ``empty`` mask (``None`` when no row is empty)
        for reduceat ones.
        """
        spans: List[List] = []  # [row_start, row_end, degree (0: reduceat)]
        for engine in engines:
            row_start = engine._offset
            row_end = row_start + engine.n
            edges = int(indptr[row_end] - indptr[row_start])
            degree = engine._csr.max_degree
            if not edges:
                degree = 1  # a one-column all-sentinel pad
            elif degree * engine.n > 4 * edges:
                degree = 0
            if spans:
                last_start, _, last_degree = last = spans[-1]
                wide = max(last_degree, degree)
                added = (wide - last_degree) * (row_start - last_start) + (
                    wide - degree
                ) * engine.n
                if bool(degree) == bool(last_degree) and (
                    added <= _CELLS_PER_CALL * min(last_degree, degree)
                ):
                    last[1], last[2] = row_end, wide
                    continue
            spans.append([row_start, row_end, degree])
        segments: List[Tuple] = []
        for row_start, row_end, degree in spans:
            edge_start, edge_end = int(indptr[row_start]), int(indptr[row_end])
            if degree:
                slots = np.arange(edge_start, edge_end, dtype=np.int64)
                owner = self.row_owner[edge_start:edge_end]
                pad = np.full((degree, row_end - row_start), self.edge_count, dtype=np.int64)
                pad[slots - indptr[owner], owner - row_start] = slots
                segments.append((pad, None, None, None))
            else:
                row_ptr = indptr[row_start:row_end]
                empty = row_ptr == indptr[row_start + 1 : row_end + 1]
                segments.append(
                    (
                        None,
                        slice(edge_start, edge_end),
                        np.minimum(row_ptr, edge_end - 1) - edge_start,
                        empty if empty.any() else None,
                    )
                )
        return segments

    def _refresh_row_thresholds(self) -> None:
        #: Every row's edges share the row's table and sit at that table's
        #: top level: the per-level trigger conditions then collapse onto
        #: per-node extrema (see :func:`repro.vecsim.kernels
        #: .evaluate_modes_vec`).  A row-local condition, so a batch
        #: qualifies exactly when each of its runs would on its own.
        at_top = self._top_thresholds is not None and bool(
            (self.level == self._top_level).all()
        )
        self.row_thresholds = self._top_thresholds if at_top else None

    def row_max_values(self, values: np.ndarray) -> np.ndarray:
        """Per-row maximum of a per-edge float array (``-inf`` for no edges)."""
        parts = []
        ext = None
        for pad, edges, starts, empty in self._row_max_segments:
            if pad is not None:
                if ext is None:
                    ext = self._value_ext
                    ext[:-1] = values
                    ext[-1] = -np.inf
                result = ext[pad[0]]
                for column in range(1, len(pad)):
                    np.maximum(result, ext[pad[column]], out=result)
            else:
                result = np.maximum.reduceat(values[edges], starts)
                if empty is not None:
                    result[empty] = -np.inf
            parts.append(result)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def refresh_levels(self, engine: "VecEngine") -> None:
        """Re-mirror one engine's (list-typed) level column after promotions."""
        start = engine._edge_offset
        end = start + len(engine._csr.level)
        self.level[start:end] = np.asarray(engine._csr.level, dtype=np.int64)
        self._refresh_row_thresholds()


# ----------------------------------------------------------------------
# Lazy trace samples
# ----------------------------------------------------------------------
class LazyTraceSample:
    """Duck-typed :class:`~repro.sim.trace.TraceSample` over array snapshots.

    Recording a sample costs five array copies; the per-node dicts the
    ``TraceSample`` interface exposes are materialized on first access, so
    consumers that read one field (most analyses) do a fifth of the work and
    the hot simulation loop does none of it.  All values are bit-identical
    to what an eager sample would have held.
    """

    __slots__ = ("time", "diameter", "_ids", "_index", "_arrays", "_dicts")

    def __init__(self, time, ids, index, logical, hardware, multipliers, modes, max_estimates):
        self.time = time
        self.diameter = None
        self._ids = ids
        self._index = index
        self._arrays = (logical, hardware, multipliers, modes, max_estimates)
        self._dicts: Dict[int, Dict] = {}

    def _materialize(self, field: int) -> Dict:
        mapping = self._dicts.get(field)
        if mapping is None:
            values = self._arrays[field].tolist()
            if field == 3:  # mode codes -> names
                values = map(MODE_NAMES.__getitem__, values)
            mapping = dict(zip(self._ids, values))
            self._dicts[field] = mapping
        return mapping

    @property
    def logical(self) -> Dict[NodeId, float]:
        return self._materialize(0)

    @property
    def hardware(self) -> Dict[NodeId, float]:
        return self._materialize(1)

    @property
    def multipliers(self) -> Dict[NodeId, float]:
        return self._materialize(2)

    @property
    def modes(self) -> Dict[NodeId, str]:
        return self._materialize(3)

    @property
    def max_estimates(self) -> Dict[NodeId, float]:
        return self._materialize(4)

    def global_skew(self) -> float:
        """Same expression as ``TraceSample.global_skew`` (max - min)."""
        values = self._arrays[0]
        if not len(values):
            return 0.0
        return float(values.max() - values.min())

    def skew(self, u: NodeId, v: NodeId) -> float:
        values = self._arrays[0]
        return float(abs(values[self._index[u]] - values[self._index[v]]))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class VecEngine(FastEngine):
    """NumPy-vectorized fixed-step simulator (AOPT, oracle/broadcast estimates).

    Engine-compatible with :class:`FastEngine` (same constructor, same
    supported scenarios, same ``UnsupportedScenarioError`` contract) and
    bit-identical to it -- and therefore to the reference engine -- on every
    supported scenario.
    """

    #: Defaults so overridden hooks invoked during ``FastEngine.__init__``
    #: (before the vec attributes exist) behave gracefully.
    _csr_generation = 0
    _csr_levels_dirty = False
    _bc_flat = None
    _bc_store = None
    _active_schedules: Optional[set] = None

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
        *,
        _defer_context: bool = False,
    ):
        super().__init__(graph, algorithm_factory, config)
        self._offset = 0
        self._edge_offset = 0
        self._ctx: Optional[VecContext] = None
        self._bc_flat = None
        self._active_schedules = set()
        #: The uniform model's batched draws; other models are ``static``
        #: or called per message.
        self._uniform_draw = (
            _UniformDelayPlan(self.delay_model)
            if type(self.delay_model) is UniformRandomDelay
            else None
        )
        #: Per-message drop checks need graph membership at delivery time;
        #: those scenarios keep the inherited (heap) transport end to end.
        self._heap_transport = self._drop_on_edge_loss
        if not _defer_context:
            VecContext([self])

    # -- context plumbing ----------------------------------------------
    @property
    def n(self) -> int:
        return len(self._cols)

    def _rebuild_csr(self) -> None:
        super()._rebuild_csr()
        self._csr_generation += 1
        self._csr_levels_dirty = False

    def _on_edge_discovered(self, t: float, node: NodeId, neighbor: NodeId) -> None:
        super()._on_edge_discovered(t, node, neighbor)
        self._bc_flat = None
        self._bc_store = None

    def _on_edge_lost(self, t: float, node: NodeId, neighbor: NodeId) -> None:
        super()._on_edge_lost(t, node, neighbor)
        self._bc_flat = None
        self._bc_store = None
        position = self._cols.index[node]
        if not self._schedules[position]:
            self._active_schedules.discard(position)

    def _alloc_bc_columns(self, n_slots: int):
        # NumPy columns so the broadcast-estimate kernels operate directly on
        # the stored state; the scalar store/migration paths of the fast
        # engine index them identically to its list columns.
        return (
            np.zeros(n_slots, dtype=np.float64),
            np.zeros(n_slots, dtype=np.float64),
            np.zeros(n_slots, dtype=np.float64),
            np.zeros(n_slots, dtype=bool),
        )

    def _leader_check(self, t: float, node: NodeId, neighbor: NodeId) -> None:
        # The handshake draws one scalar delay from the Python rng; hand the
        # stream back first.
        if self._uniform_draw is not None:
            self._uniform_draw.sync_python_rng()
        super()._leader_check(t, node, neighbor)

    def _install_schedule(self, node, neighbor, anchor, skew_estimate, edge) -> None:
        super()._install_schedule(node, neighbor, anchor, skew_estimate, edge)
        self._active_schedules.add(self._cols.index[node])

    def _apply_due_insertions(self, position: int, logical: float) -> None:
        super()._apply_due_insertions(position, logical)
        self._csr_levels_dirty = True
        if not self._schedules[position]:
            self._active_schedules.discard(position)

    # -- running --------------------------------------------------------
    def run_until(self, end_time: float) -> Trace:
        self._require_single_engine_context()
        if end_time < self.time - 1e-12:
            raise EngineError("cannot run backwards in time")
        self._ctx.run_until(end_time)
        return self.trace

    def step(self) -> None:
        self._require_single_engine_context()
        self._ctx._step()

    def _require_single_engine_context(self) -> None:
        if self._ctx is None:
            raise FastsimError("engine is not attached to a VecContext")
        if len(self._ctx.engines) != 1:
            raise FastsimError(
                "batched engines are advanced by their shared context; "
                "call VecContext.run_until instead"
            )

    # -- state accessors ------------------------------------------------
    def global_skew(self) -> float:
        values = self._cols.logical
        if not len(values):
            return 0.0
        return float(values.max() - values.min())

    def logical_snapshot(self) -> Dict[NodeId, float]:
        return dict(zip(self._cols.ids, self._cols.logical.tolist()))

    def hardware_snapshot(self) -> Dict[NodeId, float]:
        return dict(zip(self._cols.ids, self._cols.hardware.tolist()))

    # -- broadcasting ---------------------------------------------------
    def _build_bc_flat(self):
        """Snapshot the whole broadcast fan-out in reference draw order.

        One flat edge list ordered by sender position, each sender's entries
        in its ``NeighborLevels.discovered()`` iteration order -- exactly the
        order the scalar engine draws message delays in.  ``discovered()``
        builds its set from the same dict in the same insertion order every
        call, so the order is stable between membership changes; the
        structure is invalidated on every edge event.

        In broadcast estimate mode a parallel receiver-slot column
        (``_bc_store``) resolves each fan-out entry to the *receiver's* CSR
        slot for the (receiver, sender) pair -- the store target of the
        delivery -- or ``-1`` when the receiver has no row entry for the
        sender (the delivery then parks in the receiver's overflow dict).
        The column is tagged with the CSR generation at push time; deliveries
        that outlive a rebuild re-resolve slots scalar-wise.
        """
        index = self._cols.index
        offset = self._offset
        model = self.delay_model
        csr = self._csr
        delay_col = csr.delay
        bc_mode = self._bc_mode
        recv_slots: List[int] = []
        owner: List[int] = []
        receivers: List[int] = []
        bounds: List[float] = []
        static: List[float] = []
        # ``pairs`` feeds the per-message ``delay()`` calls only; static and
        # uniform delays never read it, so skip building the per-edge tuple
        # list for them (it is the most expensive column).
        static_model = model.static
        pairs: List[Tuple[NodeId, NodeId, float]] = []
        if self._uniform_draw is not None:
            # Fast path (uniform draws): collect only the CSR slot per
            # fan-out entry -- every other column is a gather from the CSR
            # arrays.  ``neighbor_index`` already holds the
            # receiver's position, so the per-edge ``index[neighbor]`` dict
            # lookup disappears too.
            slots: List[int] = []
            counts: List[int] = []
            slots_append = slots.append
            counts_append = counts.append
            row_pos = csr.row_pos
            neighbor_index = csr.neighbor_index
            levels = self._levels
            ids = self._cols.ids
            for position in range(len(ids)):
                row_get = row_pos[position].get
                start = len(slots)
                if bc_mode:
                    node = ids[position]
                    for neighbor in levels[position].discovered():
                        slot = row_get(neighbor)
                        if slot is not None:
                            slots_append(slot)
                            store = row_pos[neighbor_index[slot]].get(node)
                            recv_slots.append(-1 if store is None else store)
                else:
                    for neighbor in levels[position].discovered():
                        slot = row_get(neighbor)
                        if slot is not None:
                            slots_append(slot)
                counts_append(len(slots) - start)
            slot_arr = np.asarray(slots, dtype=np.int64)
            owner_arr = np.repeat(
                np.arange(len(counts), dtype=np.int64),
                np.asarray(counts, dtype=np.int64),
            )
            nbr_arr = np.asarray(csr.neighbor_index, dtype=np.int64)
            bound_arr = np.asarray(delay_col, dtype=np.float64)
            flat = (
                owner_arr,
                nbr_arr[slot_arr] + offset,
                bound_arr[slot_arr],
                None,
                pairs,
            )
            self._bc_store = (
                np.asarray(recv_slots, dtype=np.int64) if bc_mode else None
            )
            self._bc_flat = flat
            return flat
        owner_append = owner.append
        receivers_append = receivers.append
        bounds_append = bounds.append
        pairs_append = pairs.append
        static_append = static.append
        row_pos = csr.row_pos
        levels = self._levels
        for position, node in enumerate(self._cols.ids):
            # The CSR is rebuilt before the control phase whenever the graph
            # changed, so row membership is the live adjacency.
            row_get = row_pos[position].get
            for neighbor in levels[position].discovered():
                slot = row_get(neighbor)
                if slot is None:
                    continue
                bound = delay_col[slot]
                owner_append(position)
                receivers_append(offset + index[neighbor])
                bounds_append(bound)
                if bc_mode:
                    store = row_pos[index[neighbor]].get(node)
                    recv_slots.append(-1 if store is None else store)
                if static_model:
                    static_append(model.delay(node, neighbor, 0.0, bound))
                else:
                    pairs_append((node, neighbor, bound))
        flat = (
            np.asarray(owner, dtype=np.int64),
            np.asarray(receivers, dtype=np.int64),
            np.asarray(bounds, dtype=np.float64),
            np.asarray(static, dtype=np.float64) if static_model else None,
            pairs,
        )
        self._bc_store = np.asarray(recv_slots, dtype=np.int64) if bc_mode else None
        self._bc_flat = flat
        return flat

    def _send_broadcasts(self, t: float) -> None:
        cols = self._cols
        hardware = cols.hardware
        next_broadcast = cols.next_broadcast
        due = hardware + 1e-12 >= next_broadcast
        due_count = int(np.count_nonzero(due))
        if not due_count:
            return
        interval = self.aopt_config.broadcast_interval
        max_estimate = cols.max_estimate
        if self._heap_transport:
            logical = cols.logical
            for i in np.nonzero(due)[0].tolist():
                next_broadcast[i] = hardware[i] + interval
                self._broadcast(i, t, max_estimate[i], logical[i])
            return
        np.copyto(next_broadcast, hardware + interval, where=due)
        flat = self._bc_flat
        if flat is None:
            flat = self._build_bc_flat()
        owner, receivers, bounds, static, pairs = flat
        store = self._bc_store
        if not owner.size:
            return
        if due_count == len(due):
            count = owner.size
        else:
            edge_due = due[owner]
            count = int(np.count_nonzero(edge_due))
            if not count:
                return
            if count != owner.size:
                owner = owner[edge_due]
                receivers = receivers[edge_due]
                bounds = bounds[edge_due]
                if store is not None:
                    store = store[edge_due]
                if static is not None:
                    static = static[edge_due]
                if pairs:
                    pairs = [pairs[i] for i in np.nonzero(edge_due)[0].tolist()]
        if static is not None:
            delays = static
        elif self._uniform_draw is not None:
            delays = self._uniform_draw.delays(self, t, bounds, static, pairs)
        else:
            delay = self.delay_model.delay
            delays = np.asarray(
                [delay(sender, receiver, t, bound) for sender, receiver, bound in pairs],
                dtype=np.float64,
            )
        if self._bc_mode:
            # Message sequence numbers keep the reference's global
            # (delivery_time, message_id) tie-break: the shared ``_msg_seq``
            # counter advances exactly once per send, in the reference's send
            # order (flat order is sender-position order, ``discovered()``
            # order within a sender -- the scalar engines' order too).
            seq_base = self._msg_seq
            self._msg_seq = seq_base + count
            seqs = np.arange(seq_base + 1, seq_base + count + 1, dtype=np.int64)
            self._ctx._push_broadcasts(
                self,
                t + delays,
                receivers,
                max_estimate[owner],
                bc=(store, owner, cols.logical[owner], seqs, self._csr_generation),
            )
        else:
            self._ctx._push_broadcasts(
                self, t + delays, receivers, max_estimate[owner]
            )
        self.sent_count += count

    # -- uniform estimate strategy (scalar fill, set order) -------------
    def _fill_uniform_aheads(self, ahead: np.ndarray) -> None:
        """Write the ``uniform`` views' aheads into the combined CSR slots."""
        logical = self._cols.logical
        edge_offset = self._edge_offset
        for position in range(self.n):
            for slot, value, _level in self._uniform_views(position, logical[position]):
                ahead[edge_offset + slot] = value

    # -- trace recording ------------------------------------------------
    def _record_sample(self, force: bool = False) -> None:
        # A stopped engine is frozen: the batch may keep stepping for its
        # peers, but nothing more is recorded or fed here, so the truncated
        # trace/report is exactly the prefix up to the watchdog trip.
        if self.stopped_early:
            return
        if not force and self.time + 1e-12 < self._next_sample_time:
            return
        cols = self._cols
        if self._record_trace:
            sample = LazyTraceSample(
                self.time,
                cols.ids,
                cols.index,
                cols.logical.copy(),
                cols.hardware.copy(),
                cols.multiplier.copy(),
                cols.mode.copy(),
                cols.max_estimate.copy(),
            )
            self.trace.record(sample)
        if self._metrics is not None:
            # Pure array reductions over the live columns: same floats as
            # the (would-be) sample copies, no per-node dicts, no copies.
            self._metrics.observe_arrays(
                self.time, cols.ids, cols.index, cols.logical, cols.max_estimate, cols.mode
            )
            if self._metrics.stop_requested and not force:
                # A trip on the forced final sample stops nothing: the run
                # is complete, as in the reference.
                self.stopped_early = True
        if not force:
            self._next_sample_time = self.time + self.trace.sample_interval


# ----------------------------------------------------------------------
# Context: shared arrays + lockstep driver
# ----------------------------------------------------------------------
_FLOAT_COLUMNS = (
    "hardware",
    "logical",
    "last_hardware",
    "max_estimate",
    "next_broadcast",
    "multiplier",
)


class VecContext:
    """Owns the concatenated state arrays of one or more :class:`VecEngine`.

    All engines must share ``dt`` and estimate strategy (the executor's
    batching groups specs accordingly); they advance in lockstep, one kernel
    invocation per phase for the whole batch.

    What picks a kernel path or a layout is decided per row or per engine,
    never by the batch's extremes (:class:`_CombinedCSR`): the extremum
    trigger path needs every row at its *own* table's top level -- tables
    and ``max_level`` may differ per run -- the dense row-max layout is
    chosen per engine, and deliveries are credited to the sending engine
    without inspecting receivers.  A batch of static runs therefore costs
    what its runs cost one by one, less the shared dispatch; a member with
    an insertion in progress sends the batch through the general trigger
    path until its edges reach top level, as it would send itself.
    Measured (2-core VM, ``trace: none``, scalar observers, best of three):
    16 x line n = 64 over 2000 steps 0.55 s batched vs 1.48 s per run
    (0.37x); grid 4096 + line 4096 + random 2048 over 600 steps 0.86 s vs
    0.95 s (0.9-1.0x over repeats; 1.56 s vs 0.84 s, 1.8-1.9x, before these
    choices were row-local).

    Known limitation: an adjacency change in *any* engine rebuilds the whole
    combined CSR (O(total edges)); level-only changes refresh just the
    affected slice.  A churn-heavy run therefore makes its batch peers pay
    for its rebuilds.
    """

    def __init__(self, engines: Sequence[VecEngine]):
        if not engines:
            raise FastsimError("a VecContext needs at least one engine")
        self.engines = list(engines)
        first = self.engines[0]
        self.dt = first.dt
        self._strategy = first._strategy
        for engine in self.engines:
            if engine._ctx is not None:
                raise FastsimError("engine is already attached to a context")
            if engine.time != 0.0:
                raise FastsimError("only fresh engines can be batched")
            if engine.dt != self.dt:
                raise FastsimError("batched engines must share dt")
            if engine._strategy != self._strategy:
                raise FastsimError("batched engines must share the estimate strategy")
            if engine._bc_mode != first._bc_mode:
                raise FastsimError("batched engines must share the estimate mode")
        self.time = 0.0
        offset = 0
        for engine in self.engines:
            engine._offset = offset
            offset += engine.n
        self.node_count = offset
        # Adopt the engines' (list-typed) columns into shared arrays; every
        # engine's column attributes become views into these.
        for name in _FLOAT_COLUMNS:
            column = np.empty(self.node_count, dtype=np.float64)
            for engine in self.engines:
                start = engine._offset
                column[start : start + engine.n] = getattr(engine._cols, name)
                setattr(engine._cols, name, column[start : start + engine.n])
            setattr(self, name, column)
        mode = np.empty(self.node_count, dtype=np.int64)
        for engine in self.engines:
            start = engine._offset
            mode[start : start + engine.n] = engine._cols.mode
            engine._cols.mode = mode[start : start + engine.n]
        self.mode = mode
        # Per-node algorithm constants (engines may differ within a batch).
        self.iota = self._per_node(lambda e: e.aopt_params.iota)
        self.fast_multiplier = self._per_node(lambda e: e._fast_multiplier)
        self.max_factor = self._per_node(lambda e: e._max_factor)
        rates = np.empty(self.node_count, dtype=np.float64)
        for engine in self.engines:
            start = engine._offset
            rates[start : start + engine.n] = engine._rates
            engine._rates = rates[start : start + engine.n]
        self._rates = rates
        self._node_scratch = np.empty(self.node_count, dtype=np.float64)
        self._node_flags = np.empty(self.node_count, dtype=bool)
        # Vectorized broadcast transport (insert-edge messages stay on the
        # per-engine heaps).  Each run is one engine's send burst sorted by
        # delivery time with a consumed-prefix pointer: ``[times, recv, vals,
        # start, engine, bc]`` (``bc``: the broadcast-estimate store columns,
        # ``None`` in oracle mode).
        self._bc_runs: List[List] = []
        self._combined: Optional[_CombinedCSR] = None
        self._seen_generations = [-1] * len(self.engines)
        for engine in self.engines:
            engine._ctx = self

    def _per_node(self, fn) -> np.ndarray:
        column = np.empty(self.node_count, dtype=np.float64)
        for engine in self.engines:
            column[engine._offset : engine._offset + engine.n] = fn(engine)
        return column

    # -- transport ------------------------------------------------------
    def _push_broadcasts(
        self,
        engine: VecEngine,
        times: np.ndarray,
        receivers: np.ndarray,
        values: np.ndarray,
        bc=None,
    ) -> None:
        if bc is None:
            # Oracle mode: delivery order within a step is irrelevant
            # (max-updates commute), so an unstable sort is fine.
            order = np.argsort(times)
        else:
            # Broadcast estimate mode: deliveries overwrite per-(receiver,
            # sender) stored state, so order *within* a pair matters.  A
            # stable (delivery_time, message_id) sort reproduces the
            # reference transport's delivery order exactly.
            slots, owners, logicals, seqs, generation = bc
            order = np.lexsort((seqs, times))
            bc = (slots[order], owners[order], logicals[order], seqs[order], generation)
        self._bc_runs.append(
            [times[order], receivers[order], values[order], 0, engine, bc]
        )

    def _deliver_broadcasts(self, t: float) -> None:
        if not self._bc_runs:
            return
        limit = t + 1e-12
        exhausted = False
        bc_due: Dict[int, List] = {}
        for run in self._bc_runs:
            times, receivers, values, start, engine, bc = run
            end = int(np.searchsorted(times, limit, side="right"))
            if end <= start:
                continue
            due_recv = receivers[start:end]
            np.maximum.at(self.max_estimate, due_recv, values[start:end])
            # A burst only ever addresses its sender's own engine.
            engine.delivered_count += end - start
            if bc is not None:
                slots, owners, logicals, seqs, generation = bc
                entry = bc_due.get(id(engine))
                if entry is None:
                    entry = bc_due[id(engine)] = [engine, []]
                entry[1].append(
                    (
                        times[start:end],
                        seqs[start:end],
                        slots[start:end],
                        owners[start:end],
                        due_recv,
                        logicals[start:end],
                        generation,
                    )
                )
            run[3] = end
            if end == len(times):
                exhausted = True
        for engine, chunks in bc_due.values():
            self._apply_broadcast_stores(engine, chunks, t)
        if exhausted:
            self._bc_runs = [run for run in self._bc_runs if run[3] < len(run[0])]

    def _apply_broadcast_stores(self, engine: VecEngine, chunks: List, t: float) -> None:
        """Store one step's due broadcasts into an engine's per-slot state.

        The net effect of delivering a batch in (time, seq) order is
        "last writer per (receiver, sender) pair wins" (the max-estimate
        flooding part is already applied order-insensitively by the caller),
        so the vectorized path keeps only each slot's last entry.  When any
        contributing chunk predates the engine's current CSR (an edge event
        rebuilt it while messages were in flight), the pushed slot column is
        meaningless and every entry is re-resolved scalar-wise in delivery
        order -- rare (only the steps right after churn) and bounded by the
        in-flight volume.
        """
        generation = engine._csr_generation
        stale = any(chunk[6] != generation for chunk in chunks)
        if len(chunks) == 1:
            times, seqs, slots, owners, recv, logicals, _ = chunks[0]
        else:
            times = np.concatenate([c[0] for c in chunks])
            seqs = np.concatenate([c[1] for c in chunks])
            slots = np.concatenate([c[2] for c in chunks])
            owners = np.concatenate([c[3] for c in chunks])
            recv = np.concatenate([c[4] for c in chunks])
            logicals = np.concatenate([c[5] for c in chunks])
            order = np.lexsort((seqs, times))
            slots = slots[order]
            owners = owners[order]
            recv = recv[order]
            logicals = logicals[order]
        cols = engine._cols
        hardware = cols.hardware
        offset = engine._offset
        recv_local = recv - offset if offset else recv
        if stale:
            ids = cols.ids
            row_pos = engine._csr.row_pos
            overflow = engine._bc_overflow
            value = engine._bc_value
            hw_col = engine._bc_hw
            time_col = engine._bc_time
            valid = engine._bc_valid
            for j in range(len(recv_local)):
                position = int(recv_local[j])
                sender = ids[int(owners[j])]
                slot = row_pos[position].get(sender)
                if slot is None:
                    overflow[(position, sender)] = (
                        logicals[j], hardware[position], t,
                    )
                else:
                    value[slot] = logicals[j]
                    hw_col[slot] = hardware[position]
                    time_col[slot] = t
                    valid[slot] = True
            return
        mask = slots >= 0
        if mask.all():
            slots_v = slots
            logicals_v = logicals
            recv_v = recv_local
        else:
            # Overflow deliveries (receiver row lacks the sender): scalar, in
            # delivery order.  Slotless and slotted entries never share a
            # (receiver, sender) pair within one generation, so processing
            # them separately preserves last-writer semantics.
            ids = cols.ids
            overflow = engine._bc_overflow
            for j in np.nonzero(~mask)[0].tolist():
                position = int(recv_local[j])
                overflow[(position, ids[int(owners[j])])] = (
                    logicals[j], hardware[position], t,
                )
            slots_v = slots[mask]
            logicals_v = logicals[mask]
            recv_v = recv_local[mask]
        if not slots_v.size:
            return
        # Keep each slot's last entry: first occurrence in the reversed
        # array is the last in delivery order.
        reverse = slots_v[::-1]
        unique_slots, first_index = np.unique(reverse, return_index=True)
        last = slots_v.size - 1 - first_index
        engine._bc_value[unique_slots] = logicals_v[last]
        engine._bc_hw[unique_slots] = hardware[recv_v[last]]
        engine._bc_time[unique_slots] = t
        engine._bc_valid[unique_slots] = True

    # -- CSR view -------------------------------------------------------
    def _refresh_structure(self) -> None:
        for engine in self.engines:
            if engine._csr_dirty:
                engine._rebuild_csr()
        changed = self._combined is None
        if not changed:
            for i, engine in enumerate(self.engines):
                if engine._csr_generation != self._seen_generations[i]:
                    changed = True
                    break
        if changed:
            self._combined = _CombinedCSR(self.engines, self.node_count)
            self._seen_generations = [e._csr_generation for e in self.engines]

    def _refresh_levels(self) -> None:
        for engine in self.engines:
            if engine._csr_levels_dirty:
                self._combined.refresh_levels(engine)
                engine._csr_levels_dirty = False

    # -- stepping -------------------------------------------------------
    def run_until(self, end_time: float) -> List[Trace]:
        """Advance every engine until ``end_time`` (inclusive sampling).

        An engine whose armed watchdog trips is *frozen* (its
        ``_record_sample`` becomes a no-op) while the batch keeps stepping
        for its peers; once every engine in the batch has stopped the loop
        exits early.  Stopped engines skip the forced final sample, so each
        truncated trace/report is a bit-identical prefix of its full run.
        """
        if end_time < self.time - 1e-12:
            raise EngineError("cannot run backwards in time")
        engines = self.engines
        while self.time < end_time - 1e-9:
            self._step()
            if all(engine.stopped_early for engine in engines):
                break
        for engine in engines:
            if engine.stopped_early:
                continue
            engine.time = self.time
            engine._record_sample(force=True)
        return [engine.trace for engine in engines]

    def _step(self) -> None:
        t = self.time
        engines = self.engines
        for engine in engines:
            engine.time = t
            next_event = engine._next_event_time
            if next_event is not None and next_event <= t + 1e-12:
                engine._apply_graph_events(t)
        for engine in engines:
            if engine._inflight:
                engine._deliver_messages(t)
        self._deliver_broadcasts(t)
        for engine in engines:
            engine.scheduler.run_due(t)
        self._refresh_structure()
        self._control_all(t)
        for engine in engines:
            engine._record_sample()
        self._advance_clocks(t)
        self.time = t + self.dt
        for engine in engines:
            engine.time = self.time

    def _control_all(self, t: float) -> None:
        kernels.advance_max_estimates(
            self.hardware,
            self.last_hardware,
            self.max_estimate,
            self.logical,
            self.max_factor,
            self._node_scratch,
            self._node_flags,
        )
        for engine in self.engines:
            if engine._active_schedules:
                logical = engine._cols.logical
                for position in sorted(engine._active_schedules):
                    engine._apply_due_insertions(position, logical[position])
            engine._send_broadcasts(t)
        self._refresh_levels()
        view = self._combined
        valid = None
        if not view.edge_count:
            ahead = np.empty(0, dtype=np.float64)
        elif view.bc_valid is not None:  # broadcast estimate mode
            ahead = kernels.broadcast_aheads(self.hardware, self.logical, view)
            valid = view.bc_valid
        elif self._strategy == 1:  # uniform: Python draws in set order
            ahead = np.zeros(view.edge_count, dtype=np.float64)
            for engine in self.engines:
                engine._fill_uniform_aheads(ahead)
        else:
            ahead = kernels.edge_aheads(self._strategy, self.logical, view)
        mode_new = kernels.evaluate_modes_vec(
            view,
            ahead,
            self.logical,
            self.max_estimate,
            self.iota,
            self.mode,
            valid=valid,
        )
        np.copyto(self.mode, mode_new)
        np.copyto(self.multiplier, np.where(mode_new == 1, self.fast_multiplier, 1.0))

    def _advance_clocks(self, t: float) -> None:
        for engine in self.engines:
            engine._refresh_rates(t)
        rates = self._rates
        dt = self.dt
        self.hardware += rates * dt
        self.logical += (rates * self.multiplier) * dt


def build_batch(runs: Sequence[Tuple[DynamicGraph, AlgorithmFactory, SimulationConfig]]) -> VecContext:
    """Build a lockstep batch of vec engines over independent runs.

    Every run is ``(graph, algorithm_factory, config)`` exactly as a backend's
    ``build`` receives them; all must share ``dt`` and estimate strategy.
    Returns the shared :class:`VecContext`; the engines are in
    ``context.engines`` in input order.
    """
    engines = [
        VecEngine(graph, factory, config, _defer_context=True)
        for graph, factory, config in runs
    ]
    return VecContext(engines)
