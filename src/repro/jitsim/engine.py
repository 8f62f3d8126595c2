"""The jit engine: vecsim semantics, one compiled time loop per segment.

:class:`JitEngine` subclasses :class:`~repro.vecsim.engine.VecEngine` and
keeps its entire event / insertion / transport machinery and its run state,
and the run loop shared by every engine
(:class:`~repro.sim.engine.EngineBase`).  What changes is one iteration of
that loop: instead of one Python round-trip per step,
:meth:`JitEngine._advance` *prescans* the upcoming steps, proves a maximal
prefix is "regular" -- no graph events, no handshake checks due, no in-flight
insert-edge messages, no insertion level coming due, drift rates constant
over the window (``rate_epoch``), delays ``static`` or uniform-random -- and
executes that whole prefix in one call to the compiled C kernel (see
:mod:`repro.jitsim.providers`).  Steps that are not regular run through the
inherited vec ``step``, so every scenario the vec backend supports runs
here with the exact same results; fully regular runs (the whole AOPT+oracle
benchmark family) never leave the kernel.

An active insertion schedule does not block fusion: once the handshake is
over, each pending promotion is a logical-clock threshold on one endpoint,
so it only *caps* the segment strictly before the first step at which that
endpoint's clock could reach it.  The first stepped step at or after the
crossing promotes through the inherited vec path.

Bit-identity is preserved because inside a regular segment the per-step
phases reduce exactly to the scalar loops the kernel implements (same float
ops in the same order, same Mersenne-Twister draw order via in-kernel
MT19937 over transplanted state, same delivery-step predicate), and the
trace samples / streaming-observer feeds are replayed after the segment,
through the same sample hook, in the exact step order the per-step loop
would have produced -- sound because observers cannot request stops in
fused runs (runs with armed watchdogs fall back to per-step execution).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.interfaces import AlgorithmFactory
from ..fastsim.engine import FastsimError
from ..network.dynamic_graph import DynamicGraph
from ..sim.runner import SimulationConfig
from ..vecsim.engine import VecEngine
from . import providers

__all__ = ["JitEngine"]

#: Segments shorter than this run through the inherited per-step path --
#: below it the segment-prep overhead outweighs the fused loop.
_MIN_FUSED_STEPS = 4

#: Node-samples one segment may snapshot (40 B each, so 10.5 MB): a segment
#: ends before the sample that would pass it.
_MAX_SEGMENT_SNAPSHOT = 1 << 18

_INF = float("inf")

#: bh_next, b_recv, b_val, b_time, left_recv, left_val, left_time.
_MESSAGE_DTYPES = (
    np.int64, np.int64, np.float64, np.float64, np.int64, np.float64, np.float64
)


class JitEngine(VecEngine):
    """Drop-in vec engine that fuses regular steps into one kernel call.

    Same constructor contract and ``UnsupportedScenarioError`` behaviour as
    :class:`~repro.vecsim.engine.VecEngine`.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        super().__init__(graph, algorithm_factory, config)
        self._provider = providers.get_provider()
        self._prep_key: Tuple = (None, None)
        self._prep = None
        #: Kernel buffers kept across segments and grown on demand: the
        #: seven message arrays, and the five snapshot columns when no trace
        #: keeps them.
        self._message_buffers: Optional[Tuple] = None
        self._snapshot_buffers: Optional[Tuple] = None
        #: Diagnostics: how many steps ran fused vs. through the vec path.
        self.fused_steps = 0
        self.stepped_steps = 0
        #: Why fusion is off for this whole run (``None``: it is on).
        self._blocker = self._fusion_blocker()

    @property
    def engines(self) -> List["JitEngine"]:
        # Read only by ``benchmarks/perf/inprocess.py`` (``traced_spec``, as
        # ``build_batch([run]).engines[0]``); it goes with :func:`build_batch`.
        return [self]

    # -- driver ---------------------------------------------------------
    def configure_recording(self, pipeline=None, *, record_trace: bool = True) -> None:
        super().configure_recording(pipeline, record_trace=record_trace)
        # An armed watchdog blocks fusion.
        self._blocker = self._fusion_blocker()

    def _advance(self, end_time: float) -> None:
        plan = None if self._blocker is not None else self._plan_segment(end_time)
        if plan is None:
            self.step()
        else:
            self._run_segment(*plan)

    def step(self) -> None:
        # Every step through the vec path counts, blocked runs' included.
        super().step()
        self.stepped_steps += 1

    # -- fusibility -----------------------------------------------------
    def _fusion_blocker(self) -> Optional[str]:
        """A reason fusion is off for this whole run, or ``None``.

        Anything dynamic (events, insertions, in-flight messages) is handled
        per segment by the prescan instead; blocked runs still execute --
        through the inherited, bit-identical vec path.
        """
        if self._provider is None:
            return "no compiled kernel"
        if self._strategy == 1:
            return "uniform estimate strategy draws in set order"
        if self._bc_mode:
            # Broadcast estimate mode keeps per-step message delivery with
            # per-(receiver, sender) stored state; the fused segment kernels
            # assume message-free stretches.  The inherited vec per-step
            # path runs it bit-identically.
            return "broadcast estimate mode stores per-pair message state"
        if self._heap_transport:
            return "heap transport (drop_messages_on_edge_loss)"
        if self.drift.rate_epoch is None:
            return "drift has no closed-form rate plan"
        if self._uniform_draw is not None:
            state = self.delay_model._rng.getstate()
            if state[0] != 3 or len(state[1]) != 625:
                return "incompatible rng state layout"
        elif not self.delay_model.static:
            return "delay model needs per-message Python calls"
        if self._metrics is not None and self._metrics.stop_armed:
            return "armed watchdog may stop the run mid-segment"
        return None

    def _plan_segment(self, end_time: float):
        """Longest regular step prefix from the engine's time; ``None`` if too short.

        Returns ``(steps, snaps, next_sample)`` where ``snaps`` lists the
        steps that record a sample, in execution order, and ``next_sample``
        is the engine's ``_next_sample_time`` after the segment.  The
        simulated loop replicates the exact conditions of the per-step path:
        sample due iff ``not (t + 1e-12 < next_sample)``, events due iff
        ``time <= t + 1e-12``, drift rates constant while ``int(t //
        rate_epoch)`` stays put.  Handshake messages in flight return
        ``None``; pending level promotions cap the segment
        (:meth:`_promotion_cap`), and so does the sample that would take
        the segment's snapshots past ``_MAX_SEGMENT_SNAPSHOT`` node-samples
        (a later segment records it).  The drift rates are filled here, at the
        segment's pinned phase, and :meth:`_run_segment` reuses them.
        """
        if self._inflight:
            return None
        next_event = self._next_event_time
        barrier = min(
            _INF if next_event is None else next_event,
            self._timers[0][0] if self._timers else _INF,
        )
        t0 = self.time
        self._refresh_rates(t0)
        epoch = self.drift.rate_epoch
        rate_key = self._rate_key
        cap = self._promotion_cap()
        next_sample = self._next_sample_time
        interval = self.trace.sample_interval
        max_snaps = max(1, _MAX_SEGMENT_SNAPSHOT // self.n)
        snaps: List[int] = []
        steps = 0
        t = t0
        dt = self.dt
        while t < end_time - 1e-9 and steps < cap:
            if barrier <= t + 1e-12:
                break
            if epoch != _INF and int(t // epoch) != rate_key:
                break
            if not (t + 1e-12 < next_sample):
                if len(snaps) == max_snaps:
                    break
                snaps.append(steps)
                next_sample = t + interval
            steps += 1
            t = t + dt
        if steps < _MIN_FUSED_STEPS:
            return None
        return steps, snaps, next_sample

    def _promotion_cap(self) -> float:
        """Steps from the engine's time that surely promote no insertion level.

        A pending level is due once its endpoint's logical clock reaches
        ``level_times[next_level - 1] - 1e-12`` (``InsertionSchedule
        .due_levels``); within a segment that clock gains at most ``rate *
        max(1, fast_multiplier) * dt`` per step, so the returned count (with
        a relative float margin of 1e-9) only ever checks clocks strictly
        below every threshold.  A complete schedule, or one whose neighbour
        has left the level sets, gives 0: the stepped path pops it.
        """
        cap = _INF
        logical = self._cols.logical
        rates = self._rates
        fast_multiplier = self._fast_multiplier
        dt = self.dt
        for position in self._active_schedules:
            levels = self._levels[position]
            gain = rates[position] * max(1.0, fast_multiplier) * dt
            for neighbor, schedule in self._schedules[position].items():
                if schedule.is_complete() or neighbor not in levels:
                    return 0
                threshold = schedule.level_times[schedule.next_level - 1] - 1e-12
                steps = math.floor(
                    (threshold - logical[position]) * (1.0 - 1e-9) / gain
                )
                if steps < cap:
                    cap = steps
        return cap

    # -- static prep (cached across segments) ---------------------------
    def _segment_prep(self):
        """CSR / fan-out arrays for the kernel.

        Rebuilt only when the CSR view or the engine's broadcast fan-out
        snapshot is replaced (both are invalidated on structural change);
        the view's level column is shared by reference, so in-place level
        promotions flow through without a rebuild.
        """
        flat = self._bc_flat
        if flat is None:
            flat = self._build_bc_flat()
        view = self._view
        if self._prep_key[0] is view and self._prep_key[1] is flat:
            return self._prep
        owner, receivers, bounds, static, _pairs = flat
        counts = np.bincount(owner, minlength=self.n)
        sb_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=sb_indptr[1:])
        max_degree = self._csr.max_degree
        prep = {
            "indptr": np.asarray(self._csr.indptr, dtype=np.int64),
            "nbr": view.neighbor_index,
            "eps": view.epsilon,
            "level": view.level,
            "table_id": view.table_id,
            "thresholds": np.ascontiguousarray(view.thresholds, dtype=np.float64).reshape(-1),
            "n_levels": view.max_level,
            "sb_indptr": sb_indptr,
            "sb_recv": receivers,
            "sb_bound": bounds,
            "sb_static": static if static is not None else np.zeros(len(bounds)),
            "ahead_scratch": np.empty(max_degree, dtype=np.float64),
            "level_scratch": np.empty(max_degree, dtype=np.int64),
            "tid_scratch": np.empty(max_degree, dtype=np.int64),
        }
        self._prep_key = (view, flat)
        self._prep = prep
        return prep

    # -- segment execution ----------------------------------------------
    def _run_segment(self, steps: int, snaps: List[int], next_sample: float) -> None:
        cols = self._cols
        n = self.n
        dt = self.dt
        # Structure refresh normally happens inside each step; no structural
        # change can occur mid-segment, so once up front is equivalent.
        self._refresh_structure()
        self._refresh_levels()
        prep = self._segment_prep()
        # Exact per-step time grid: the same repeated float addition the
        # per-step loop performs.
        t_steps = np.empty(steps + 1, dtype=np.float64)
        t = self.time
        for j in range(steps + 1):
            t_steps[j] = t
            t = t + dt
        # Segment-constant drift rates, filled by the prescan at its pinned
        # phase.
        rates = self._rates
        # Mersenne-Twister state transplant (624 words + position) for the
        # uniform delay model.
        uniform = self._uniform_draw
        model = self.delay_model
        mt_state = np.zeros(625, dtype=np.int64)
        if uniform is not None:
            uniform.sync_python_rng()
            _version, keys, gauss = model._rng.getstate()
            mt_state[:] = keys
        # Messages still in flight from before the segment.
        pend_parts = [
            (run[0][run[3] :], run[1][run[3] :], run[2][run[3] :])
            for run in self._bc_runs
            if run[3] < len(run[0])
        ]
        if pend_parts:
            pend_time = np.concatenate([part[0] for part in pend_parts])
            pend_recv = np.concatenate([part[1] for part in pend_parts])
            pend_val = np.concatenate([part[2] for part in pend_parts])
        else:
            pend_time = np.empty(0, dtype=np.float64)
            pend_recv = np.empty(0, dtype=np.int64)
            pend_val = np.empty(0, dtype=np.float64)
        n_pend = len(pend_time)
        # Message capacity: the most messages in flight at once.  The kernel
        # frees a message's slot when it delivers it, before that step's
        # sends, and
        # - ``delivery_step`` delivers a send of step j by step j +
        #   ceil(longest / dt) + 1 (the extra step absorbs the rounding of
        #   the time grid), so every message in flight was sent within the
        #   last ``lag`` steps, which leave one step more of margin;
        # - over those a sender fires at most once per step, and at most
        #   once per broadcast interval its hardware clock gains, plus one
        #   for a send due at the window's start and one for rounding;
        # - a message pending at entry holds its slot until it is delivered.
        interval = self.aopt_config.broadcast_interval
        delays = prep["sb_bound"] if uniform is not None else prep["sb_static"]
        longest = float(delays.max()) if len(delays) else 0.0
        lag = min(steps, math.ceil(longest / dt) + 2)
        if interval > 0.0:
            gain = lag * dt * max(float(rates.max()) if n else 0.0, 0.0)
            sends = min(lag, int(gain / interval) + 2)
        else:
            sends = lag
        cap_total = n_pend + 16 + len(prep["sb_recv"]) * sends
        buffers = self._message_buffers
        if buffers is None or len(buffers[0]) < cap_total:
            # Drop the short arrays before allocating their successors.
            buffers = self._message_buffers = None
            buffers = self._message_buffers = tuple(
                np.empty(cap_total, dtype=dtype) for dtype in _MESSAGE_DTYPES
            )
        bh_next, b_recv, b_val, b_time, left_recv, left_val, left_time = buffers
        bh_head = np.empty(steps + 1, dtype=np.int64)
        out_counts = np.zeros(4, dtype=np.int64)
        # Snapshot columns: one engine-sized slice per sample-recording step.
        # A full trace's samples keep their slices, so each segment gets
        # fresh columns.  Without a trace nothing keeps a slice past
        # the segment: the metrics pipeline reduces each one inside
        # ``observe_columns``, and the run's forced final sample re-points
        # its view at the live columns before ``finalize``.  So one set,
        # kept on the engine, serves every segment.
        n_snap = len(snaps)
        snap_step = np.asarray(snaps, dtype=np.int64)
        if self._record_trace:
            snapshots = _snapshot_columns(n_snap * n)
        else:
            snapshots = self._snapshot_buffers
            if snapshots is None or len(snapshots[0]) < n_snap * n:
                snapshots = self._snapshot_buffers = _snapshot_columns(n_snap * n)
        snap_logical, snap_hardware, snap_multiplier, snap_max_estimate, snap_mode = (
            snapshots
        )
        status = self._provider.fused_segment(
            n,
            steps,
            dt,
            t_steps,
            cols.hardware,
            cols.logical,
            cols.last_hardware,
            cols.max_estimate,
            cols.next_broadcast,
            cols.multiplier,
            cols.mode,
            self.aopt_params.iota,
            self._fast_multiplier,
            self._max_factor,
            rates,
            interval,
            self._strategy,
            prep["indptr"],
            prep["nbr"],
            prep["eps"],
            prep["level"],
            prep["table_id"],
            prep["thresholds"],
            prep["n_levels"],
            prep["sb_indptr"],
            prep["sb_recv"],
            prep["sb_bound"],
            prep["sb_static"],
            uniform is not None,
            model.low_fraction if uniform is not None else 0.0,
            model.high_fraction - model.low_fraction if uniform is not None else 0.0,
            mt_state,
            n_pend,
            pend_recv,
            pend_val,
            pend_time,
            cap_total,
            bh_head,
            bh_next,
            b_recv,
            b_val,
            b_time,
            n_snap,
            snap_step,
            snap_logical,
            snap_hardware,
            snap_multiplier,
            snap_max_estimate,
            snap_mode,
            left_recv,
            left_val,
            left_time,
            out_counts,
            prep["ahead_scratch"],
            prep["level_scratch"],
            prep["tid_scratch"],
        )
        if status != 0:
            reason = (
                f"message buffer overflow (capacity {cap_total})"
                if status == 1
                else "scratch allocation failed"
            )
            raise RuntimeError(
                f"jit kernel failed on a {steps}-step segment: {reason}"
            )
        # Advance time exactly as the per-step loop would have.
        self.time = float(t_steps[steps])
        # Hand the Mersenne-Twister stream back to the Python rng.
        if uniform is not None:
            model._rng.setstate((3, tuple(int(word) for word in mt_state), gauss))
        nleft, _used, sent, delivered = (int(count) for count in out_counts)
        self.sent_count += sent
        self.delivered_count += delivered
        # Leftover messages become one sorted pending run for the vec
        # transport (or the next segment's prescan).
        self._bc_runs = []
        if nleft:
            order = np.argsort(left_time[:nleft])
            self._bc_runs.append(
                [
                    left_time[:nleft][order],
                    left_recv[:nleft][order],
                    left_val[:nleft][order],
                    0,
                    None,
                ]
            )
        # Replay the recorded samples in the exact per-step order; a kept
        # trace holds the snapshot slices themselves.
        for si, step_j in enumerate(snaps):
            rows = slice(si * n, (si + 1) * n)
            columns = (
                snap_logical[rows], snap_hardware[rows], snap_multiplier[rows],
                snap_mode[rows], snap_max_estimate[rows],
            )
            self._emit_sample(float(t_steps[step_j]), columns, copy=False)
        self._next_sample_time = next_sample
        self.fused_steps += steps


def _snapshot_columns(size: int) -> Tuple:
    """Empty logical, hardware, multiplier, max-estimate and mode columns."""
    return tuple(np.empty(size, dtype=np.float64) for _ in range(4)) + (
        np.empty(size, dtype=np.int64),
    )


def build_batch(
    runs: Sequence[Tuple[DynamicGraph, AlgorithmFactory, SimulationConfig]]
) -> JitEngine:
    """The :class:`JitEngine` built from ``[run]``.

    ``run`` is ``(graph, algorithm_factory, config)`` exactly as the
    backend's ``build`` receives them; the engine's ``fused_steps`` /
    ``stepped_steps`` count how its steps ran.  Any other number of runs
    raises :class:`FastsimError`: an engine runs exactly one run.  Kept only
    for ``benchmarks/perf/inprocess.py`` (``traced_spec``), its one caller.
    """
    if len(runs) != 1:
        raise FastsimError(f"a jit engine runs exactly one run, got {len(runs)}")
    (run,) = runs
    return JitEngine(*run)
