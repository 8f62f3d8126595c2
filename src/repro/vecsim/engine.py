"""The NumPy-vectorized simulation engine.

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

One engine object holds one run's state: its node columns (as NumPy
arrays), the :class:`_CSRView` mirror of its CSR and its in-flight
broadcast runs.  A recorded :class:`~repro.sim.trace.TraceSample` holds
copies of five of those columns; its per-node dicts are built only when
read.

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
from typing import Dict, List, Optional

import numpy as np

from ..core.interfaces import AlgorithmFactory
from ..network.dynamic_graph import DynamicGraph
from ..network.edge import NodeId
from ..sim.delay import UniformRandomDelay
from ..sim.runner import SimulationConfig
from ..fastsim.engine import FastEngine
from . import kernels

__all__ = ["VecEngine"]


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

    def delays(self, bounds: np.ndarray) -> np.ndarray:
        """One burst's delays for the CSR delay ``bounds``, in send order."""
        model = self._model
        low = model.low_fraction
        span = model.high_fraction - model.low_fraction
        fractions = low + span * self._draw_raw(len(bounds))
        return np.minimum(fractions * bounds, bounds)


# ----------------------------------------------------------------------
# NumPy mirror of the engine's CSR
# ----------------------------------------------------------------------
class _CSRView:
    """NumPy mirror of one engine's CSR adjacency, rebuilt with it."""

    __slots__ = (
        "generation",
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
        "_top_thresholds",
        "_pad",
        "_value_ext",
        "neg_epsilon",
        "edge_f1",
        "edge_f2",
        "edge_f3",
        "edge_b",
    )

    def __init__(self, csr, generation: int, max_level: int):
        self.generation = generation
        self.edge_count = edge_count = len(csr.neighbor_index)
        self.neighbor_index = np.asarray(csr.neighbor_index, dtype=np.int64)
        self.epsilon = np.asarray(csr.epsilon, dtype=np.float64)
        self.level = np.asarray(csr.level, dtype=np.int64)
        # Deduplicate by value so edges with identical parameters share one
        # table row (enables the single-table fast paths); the id-level memo
        # keeps the per-edge cost at one dict hit, and a CSR whose threshold
        # cache holds a single table (every homogeneous bench and paper
        # scenario) resolves the whole column in one step.
        csr_tables = csr.tables
        table_pos: Dict = {}
        if len(csr._table_cache) == 1 and csr_tables:
            table_pos[csr_tables[0]] = 0
            self.table_id = np.zeros(edge_count, dtype=np.int64)
        else:
            id_memo: Dict[int, int] = {}
            table_id: List[int] = []
            for table in csr_tables:
                tid = id_memo.get(id(table))
                if tid is None:
                    tid = id_memo[id(table)] = table_pos.setdefault(table, len(table_pos))
                table_id.append(tid)
            self.table_id = np.asarray(table_id, dtype=np.int64)
        self.max_level = max_level
        thresholds = np.full((max(len(table_pos), 1), 4, self.max_level), np.inf)
        for tid, table in enumerate(table_pos):
            thresholds[tid] = table
        self.thresholds = thresholds
        indptr = np.asarray(csr.indptr, dtype=np.int64)
        n = len(indptr) - 1
        self.row_owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        self.starts = np.minimum(indptr[:-1], max(edge_count - 1, 0))
        self.empty = indptr[:-1] == indptr[1:]
        # Per-row thresholds for the extremum path of ``evaluate_modes_vec``:
        # the one table as ``(4, L)`` scalars-per-level when every edge
        # shares it, else every row's own table gathered to ``(4, L, n)`` (an
        # empty row borrows an arbitrary table -- its ``-inf`` extrema never
        # fire).  ``None`` when some row mixes tables.
        self._top_thresholds = None
        if len(table_pos) <= 1:
            self._top_thresholds = thresholds[0]
        else:
            row_table = self.table_id[self.starts]
            if np.array_equal(self.table_id, row_table[self.row_owner]):
                self._top_thresholds = np.ascontiguousarray(
                    thresholds[row_table].transpose(1, 2, 0)
                )
        # Per-row maxima: a graph whose padded size ``max_degree * n`` stays
        # within 4x its edge count takes the dense layout -- per degree-column
        # arrays of edge slots padded with a sentinel slot (index E), so a
        # row maximum is ``max_degree`` gathers + maxima instead of a
        # reduceat.  High-degree rows (star hubs, random-graph hubs) would
        # blow that up to ``n * max_degree``; those graphs keep ``reduceat``.
        self._pad = None
        degree = csr.max_degree
        if degree * n <= 4 * edge_count:
            slots = np.arange(edge_count, dtype=np.int64)
            owner = self.row_owner
            pad = np.full((degree, n), edge_count, dtype=np.int64)
            pad[slots - indptr[owner], owner] = slots
            self._pad = pad
        #: Scratch for padded row-maxima: per-edge values plus the sentinel.
        self._value_ext = np.empty(edge_count + 1, dtype=np.float64)
        #: Per-edge scratch buffers for the allocation-free kernels.
        self.neg_epsilon = -self.epsilon
        self.edge_f1 = np.empty(edge_count, dtype=np.float64)
        self.edge_f2 = np.empty(edge_count, dtype=np.float64)
        self.edge_f3 = np.empty(edge_count, dtype=np.float64)
        self.edge_b = np.empty(edge_count, dtype=bool)
        self._refresh_row_thresholds()

    def _refresh_row_thresholds(self) -> None:
        #: Every row's edges share the row's table and sit at the top level:
        #: the per-level trigger conditions then collapse onto per-node
        #: extrema (see :func:`repro.vecsim.kernels.evaluate_modes_vec`).
        at_top = self._top_thresholds is not None and bool(
            (self.level == self.max_level).all()
        )
        self.row_thresholds = self._top_thresholds if at_top else None

    def row_max_values(self, values: np.ndarray) -> np.ndarray:
        """Per-row maximum of a per-edge float array (``-inf`` for no edges)."""
        pad = self._pad
        if pad is None:
            result = np.maximum.reduceat(values, self.starts)
            result[self.empty] = -np.inf
            return result
        ext = self._value_ext
        ext[:-1] = values
        ext[-1] = -np.inf
        result = ext[pad[0]]
        for column in range(1, len(pad)):
            np.maximum(result, ext[pad[column]], out=result)
        return result

    def refresh_levels(self, level: List[int]) -> None:
        """Re-mirror the CSR's (list-typed) level column after promotions."""
        self.level[:] = level
        self._refresh_row_thresholds()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
_FLOAT_COLUMNS = (
    "hardware",
    "logical",
    "last_hardware",
    "max_estimate",
    "next_broadcast",
    "multiplier",
)


class VecEngine(FastEngine):
    """NumPy-vectorized fixed-step simulator (AOPT, oracle/broadcast estimates).

    Engine-compatible with :class:`FastEngine` (same constructor, same
    supported scenarios, same ``UnsupportedScenarioError`` contract) and
    bit-identical to it -- and therefore to the reference engine -- on every
    supported scenario.  The inherited (list-typed) node columns and rate
    column become NumPy arrays; the CSR is mirrored as a :class:`_CSRView`
    (rebuilt on every adjacency change, level-patched in place after
    promotions) beside the vectorized broadcast transport.
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
    ):
        super().__init__(graph, algorithm_factory, config)
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
        cols = self._cols
        for name in _FLOAT_COLUMNS:
            setattr(cols, name, np.asarray(getattr(cols, name), dtype=np.float64))
        cols.mode = np.asarray(cols.mode, dtype=np.int64)
        self._rates = np.asarray(self._rates, dtype=np.float64)
        self._node_scratch = np.empty(self.n, dtype=np.float64)
        self._node_flags = np.empty(self.n, dtype=bool)
        #: In-flight broadcast runs ``[times, recv, vals, start, bc]`` (``bc``:
        #: the broadcast-estimate store columns, ``None`` in oracle mode).
        self._bc_runs: List[List] = []
        self._view: Optional[_CSRView] = None

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
    def step(self) -> None:
        t = self.time
        next_event = self._next_event_time
        if next_event is not None and next_event <= t + 1e-12:
            self._apply_graph_events(t)
        if self._inflight:
            self._deliver_messages(t)
        self._deliver_broadcasts(t)
        if self._timers:
            self._fire_timers(t)
        self._refresh_structure()
        self._control_all(t)
        self._record_sample()
        self._advance_clocks(t)
        self.time = t + self.dt

    def _control_all(self, t: float) -> None:
        cols = self._cols
        logical = cols.logical
        kernels.advance_max_estimates(
            cols.hardware,
            cols.last_hardware,
            cols.max_estimate,
            logical,
            self._max_factor,
            self._node_scratch,
            self._node_flags,
        )
        if self._active_schedules:
            for position in sorted(self._active_schedules):
                self._apply_due_insertions(position, logical[position])
        self._send_broadcasts(t)
        self._refresh_levels()
        view = self._view
        valid = None
        if not view.edge_count:
            ahead = np.empty(0, dtype=np.float64)
        elif self._bc_mode:
            ahead = kernels.broadcast_aheads(
                cols.hardware, logical, self._bc_value, self._bc_hw, view
            )
            valid = self._bc_valid
        elif self._strategy == 1:  # uniform: Python draws in set order
            ahead = np.zeros(view.edge_count, dtype=np.float64)
            self._fill_uniform_aheads(ahead)
        else:
            ahead = kernels.edge_aheads(self._strategy, logical, view)
        mode_new = kernels.evaluate_modes_vec(
            view,
            ahead,
            logical,
            cols.max_estimate,
            self.aopt_params.iota,
            cols.mode,
            valid=valid,
        )
        np.copyto(cols.mode, mode_new)
        np.copyto(
            cols.multiplier, np.where(mode_new == 1, self._fast_multiplier, 1.0)
        )

    def _advance_clocks(self, t: float) -> None:
        self._refresh_rates(t)
        rates = self._rates
        dt = self.dt
        cols = self._cols
        cols.hardware += rates * dt
        cols.logical += (rates * cols.multiplier) * dt

    # -- CSR view -------------------------------------------------------
    def _refresh_structure(self) -> None:
        if self._csr_dirty:
            self._rebuild_csr()
        if self._view is None or self._view.generation != self._csr_generation:
            self._view = _CSRView(self._csr, self._csr_generation, self.max_level)

    def _refresh_levels(self) -> None:
        if self._csr_levels_dirty:
            self._view.refresh_levels(self._csr.level)
            self._csr_levels_dirty = False

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

        One walk collects each entry's CSR slot; receivers and delay bounds
        are gathers from the CSR arrays (``neighbor_index`` holds the
        receiver's position).  A ``static`` delay model is called once per
        entry here; only a per-message model gets the ``(sender, receiver,
        bound)`` pairs its calls need.

        In broadcast estimate mode a parallel receiver-slot column
        (``_bc_store``) resolves each fan-out entry to the *receiver's* CSR
        slot for the (receiver, sender) pair -- the store target of the
        delivery -- or ``-1`` when the receiver has no row entry for the
        sender (the delivery then parks in the receiver's overflow dict).
        The column is tagged with the CSR generation at push time; deliveries
        that outlive a rebuild re-resolve slots scalar-wise.
        """
        csr = self._csr
        row_pos = csr.row_pos
        neighbor_index = csr.neighbor_index
        levels = self._levels
        ids = self._cols.ids
        bc_mode = self._bc_mode
        slots: List[int] = []
        counts: List[int] = []
        recv_slots: List[int] = []
        slots_append = slots.append
        counts_append = counts.append
        # The CSR is rebuilt before the control phase whenever the graph
        # changed, so row membership is the live adjacency.
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
        owner = np.repeat(
            np.arange(len(counts), dtype=np.int64), np.asarray(counts, dtype=np.int64)
        )
        receivers = np.asarray(neighbor_index, dtype=np.int64)[slot_arr]
        bounds = np.asarray(csr.delay, dtype=np.float64)[slot_arr]
        model = self.delay_model
        static = pairs = None
        if model.static or self._uniform_draw is None:
            entries = zip(
                [ids[o] for o in owner.tolist()],
                [ids[r] for r in receivers.tolist()],
                bounds.tolist(),
            )
            if model.static:
                delay = model.delay
                static = np.asarray(
                    [delay(node, neighbor, 0.0, bound) for node, neighbor, bound in entries],
                    dtype=np.float64,
                )
            else:
                pairs = list(entries)
        flat = (owner, receivers, bounds, static, pairs)
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
            delays = self._uniform_draw.delays(bounds)
        else:
            delay = self.delay_model.delay
            delays = np.asarray(
                [delay(sender, receiver, t, bound) for sender, receiver, bound in pairs],
                dtype=np.float64,
            )
        times = t + delays
        bc = None
        if self._bc_mode:
            # Message sequence numbers keep the reference's global
            # (delivery_time, message_id) tie-break: the shared ``_msg_seq``
            # counter advances exactly once per send, in the reference's send
            # order (flat order is sender-position order, ``discovered()``
            # order within a sender -- the scalar engines' order too).
            # Deliveries overwrite per-(receiver, sender) stored state, so
            # order *within* a pair matters: the stable (delivery_time,
            # message_id) sort reproduces the reference's delivery order.
            seq_base = self._msg_seq
            self._msg_seq = seq_base + count
            seqs = np.arange(seq_base + 1, seq_base + count + 1, dtype=np.int64)
            order = np.lexsort((seqs, times))
            owner = owner[order]
            bc = (store[order], owner, cols.logical[owner], seqs[order], self._csr_generation)
        else:
            # Oracle mode: delivery order within a step is irrelevant
            # (max-updates commute), so an unstable sort is fine.
            order = np.argsort(times)
            owner = owner[order]
        # Vectorized transport: one run per send burst, sorted by delivery
        # time, with a consumed-prefix pointer (insert-edge messages stay on
        # the inherited heap).
        self._bc_runs.append([times[order], receivers[order], max_estimate[owner], 0, bc])
        self.sent_count += count

    # -- transport ------------------------------------------------------
    def _deliver_broadcasts(self, t: float) -> None:
        if not self._bc_runs:
            return
        limit = t + 1e-12
        exhausted = False
        chunks: List = []
        max_estimate = self._cols.max_estimate
        for run in self._bc_runs:
            times, receivers, values, start, bc = run
            end = int(np.searchsorted(times, limit, side="right"))
            if end <= start:
                continue
            due_recv = receivers[start:end]
            np.maximum.at(max_estimate, due_recv, values[start:end])
            self.delivered_count += end - start
            if bc is not None:
                slots, owners, logicals, seqs, generation = bc
                chunks.append(
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
        if chunks:
            self._apply_broadcast_stores(chunks, t)
        if exhausted:
            self._bc_runs = [run for run in self._bc_runs if run[3] < len(run[0])]

    def _apply_broadcast_stores(self, chunks: List, t: float) -> None:
        """Store one step's due broadcasts into the per-slot state columns.

        The net effect of delivering a batch in (time, seq) order is
        "last writer per (receiver, sender) pair wins" (the max-estimate
        flooding part is already applied order-insensitively by the caller),
        so the vectorized path keeps only each slot's last entry.  When any
        contributing chunk predates the current CSR (an edge event rebuilt
        it while messages were in flight), the pushed slot column is
        meaningless and every entry is re-resolved scalar-wise in delivery
        order -- rare (only the steps right after churn) and bounded by the
        in-flight volume.
        """
        generation = self._csr_generation
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
        cols = self._cols
        hardware = cols.hardware
        if stale:
            ids = cols.ids
            row_pos = self._csr.row_pos
            overflow = self._bc_overflow
            value = self._bc_value
            hw_col = self._bc_hw
            time_col = self._bc_time
            valid = self._bc_valid
            for j in range(len(recv)):
                position = int(recv[j])
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
            recv_v = recv
        else:
            # Overflow deliveries (receiver row lacks the sender): scalar, in
            # delivery order.  Slotless and slotted entries never share a
            # (receiver, sender) pair within one generation, so processing
            # them separately preserves last-writer semantics.
            ids = cols.ids
            overflow = self._bc_overflow
            for j in np.nonzero(~mask)[0].tolist():
                position = int(recv[j])
                overflow[(position, ids[int(owners[j])])] = (
                    logicals[j], hardware[position], t,
                )
            slots_v = slots[mask]
            logicals_v = logicals[mask]
            recv_v = recv[mask]
        if not slots_v.size:
            return
        # Keep each slot's last entry: first occurrence in the reversed
        # array is the last in delivery order.
        reverse = slots_v[::-1]
        unique_slots, first_index = np.unique(reverse, return_index=True)
        last = slots_v.size - 1 - first_index
        self._bc_value[unique_slots] = logicals_v[last]
        self._bc_hw[unique_slots] = hardware[recv_v[last]]
        self._bc_time[unique_slots] = t
        self._bc_valid[unique_slots] = True

    # -- uniform estimate strategy (scalar fill, set order) -------------
    def _fill_uniform_aheads(self, ahead: np.ndarray) -> None:
        """Write the ``uniform`` views' aheads into their CSR slots."""
        logical = self._cols.logical
        for position in range(self.n):
            for slot, value, _level in self._uniform_views(position, logical[position]):
                ahead[slot] = value
