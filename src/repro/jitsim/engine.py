"""The jit engine: vecsim semantics, one compiled time loop per segment.

:class:`JitEngine` / :class:`JitContext` subclass the vec backend and keep
its entire event / insertion / transport machinery.  What changes is the
driver: instead of one Python round-trip per step, :meth:`JitContext
.run_until` *prescans* the upcoming steps, proves a maximal prefix is
"regular" -- no graph events, no scheduler callbacks, no in-flight
insert-edge messages, no insertion level coming due, drift rates constant
over the window (``rate_epoch``), delays ``static`` or uniform-random -- and
executes that whole prefix in one call to the compiled C kernel (see
:mod:`repro.jitsim.providers`).  Steps that are not regular run through the
inherited vec ``_step``, so every scenario the vec backend supports runs
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
trace samples / streaming-observer feeds are replayed after the segment in
the exact (step, engine) order the per-step loop would have produced --
sound because observers cannot request stops in fused runs (engines with
armed watchdogs fall back to per-step execution).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.interfaces import AlgorithmFactory
from ..network.dynamic_graph import DynamicGraph
from ..sim.engine import EngineError
from ..sim.runner import SimulationConfig
from ..sim.trace import Trace
from ..vecsim.engine import LazyTraceSample, VecContext, VecEngine
from . import providers

__all__ = ["JitEngine", "JitContext", "build_batch"]

#: Segments shorter than this run through the inherited per-step path --
#: below it the segment-prep overhead outweighs the fused loop.
_MIN_FUSED_STEPS = 4

_INF = float("inf")


class JitEngine(VecEngine):
    """Drop-in vec engine whose context fuses regular steps into one kernel call.

    Same constructor contract and ``UnsupportedScenarioError`` behaviour as
    :class:`~repro.vecsim.engine.VecEngine`.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
        *,
        _defer_context: bool = False,
    ):
        super().__init__(graph, algorithm_factory, config, _defer_context=True)
        if not _defer_context:
            JitContext([self])


class JitContext(VecContext):
    """Lockstep batch driver executing regular step prefixes in one kernel call."""

    def __init__(self, engines: Sequence[JitEngine]):
        super().__init__(engines)
        self._provider = providers.get_provider()
        self._prep_key = None
        self._prep = None
        #: Diagnostics: how many steps ran fused vs. through the vec path.
        self.fused_steps = 0
        self.stepped_steps = 0

    # -- driver ---------------------------------------------------------
    def run_until(self, end_time: float) -> List[Trace]:
        if end_time < self.time - 1e-12:
            raise EngineError("cannot run backwards in time")
        if self._fusion_blocker() is not None:
            return super().run_until(end_time)
        engines = self.engines
        while self.time < end_time - 1e-9:
            plan = self._plan_segment(end_time)
            if plan is None:
                self._step()
                continue
            self._run_segment(*plan)
        for engine in engines:
            engine.time = self.time
            engine._record_sample(force=True)
        return [engine.trace for engine in engines]

    def _step(self) -> None:
        # Every step through the vec path counts, blocked runs' included.
        super()._step()
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
        if self.engines and self.engines[0]._bc_mode:
            # Broadcast estimate mode keeps per-step message delivery with
            # per-(receiver, sender) stored state; the fused segment kernels
            # assume message-free stretches.  The inherited vec per-step
            # path runs it bit-identically.
            return "broadcast estimate mode stores per-pair message state"
        rng_ids = set()
        for engine in self.engines:
            if engine.stopped_early:
                return "engine already stopped"
            if engine._heap_transport:
                return "heap transport (drop_messages_on_edge_loss)"
            if engine.drift.rate_epoch is None:
                return "drift has no closed-form rate plan"
            if engine._uniform_draw is not None:
                rng = engine.delay_model._rng
                if id(rng) in rng_ids:
                    return "delay rng shared between engines"
                rng_ids.add(id(rng))
                state = rng.getstate()
                if state[0] != 3 or len(state[1]) != 625:
                    return "incompatible rng state layout"
            elif not engine.delay_model.static:
                return "delay model needs per-message Python calls"
            metrics = engine._metrics
            if metrics is not None and any(
                getattr(observer, "_stop_on_fire", False)
                for observer in metrics.observers
            ):
                return "armed watchdog may stop the run mid-segment"
        return None

    def _plan_segment(self, end_time: float):
        """Longest regular step prefix from ``self.time``; ``None`` if too short.

        Returns ``(steps, snaps, next_samples)`` where ``snaps`` lists the
        ``(step, engine_index)`` sample-record events in execution order and
        ``next_samples`` the per-engine ``_next_sample_time`` after the
        segment.  The simulated loop replicates the exact conditions of the
        per-step path: sample due iff ``not (t + 1e-12 < next_sample)``,
        events due iff ``time <= t + 1e-12``, drift rates constant while
        ``int(t // rate_epoch)`` stays put.  Handshake messages in flight
        return ``None``; pending level promotions cap the segment
        (:meth:`_promotion_cap`).
        The drift rates are filled here, at the segment's pinned phase, and
        :meth:`_run_segment` reuses them.
        """
        engines = self.engines
        for engine in engines:
            if engine._inflight:
                return None
        barrier = _INF
        for engine in engines:
            next_event = engine._next_event_time
            if next_event is not None and next_event < barrier:
                barrier = next_event
            scheduled = engine.scheduler.peek_time()
            if scheduled is not None and scheduled < barrier:
                barrier = scheduled
        t0 = self.time
        phased: List[Tuple[float, int]] = []
        for engine in engines:
            engine._refresh_rates(t0)
            epoch = engine.drift.rate_epoch
            if epoch != _INF:
                phased.append((epoch, engine._rate_key))
        cap = self._promotion_cap()
        next_samples = [engine._next_sample_time for engine in engines]
        intervals = [engine.trace.sample_interval for engine in engines]
        n_engines = len(engines)
        snaps: List[Tuple[int, int]] = []
        steps = 0
        t = t0
        dt = self.dt
        while t < end_time - 1e-9 and steps < cap:
            if barrier <= t + 1e-12:
                break
            regular = True
            for period, key in phased:
                if int(t // period) != key:
                    regular = False
                    break
            if not regular:
                break
            for ei in range(n_engines):
                if not (t + 1e-12 < next_samples[ei]):
                    snaps.append((steps, ei))
                    next_samples[ei] = t + intervals[ei]
            steps += 1
            t = t + dt
        if steps < _MIN_FUSED_STEPS:
            return None
        return steps, snaps, next_samples

    def _promotion_cap(self) -> float:
        """Steps from ``self.time`` that surely promote no insertion level.

        A pending level is due once its endpoint's logical clock reaches
        ``level_times[next_level - 1] - 1e-12`` (``InsertionSchedule
        .due_levels``); within a segment that clock gains at most ``rate *
        max(1, fast_multiplier) * dt`` per step, so the returned count (with
        a relative float margin of 1e-9) only ever checks clocks strictly
        below every threshold.  A complete schedule, or one whose neighbour
        has left the level sets, gives 0: the stepped path pops it.
        """
        cap = _INF
        logical = self.logical
        rates = self._rates
        fast_multiplier = self.fast_multiplier
        dt = self.dt
        for engine in self.engines:
            for position in engine._active_schedules:
                levels = engine._levels[position]
                i = engine._offset + position
                gain = rates[i] * max(1.0, fast_multiplier[i]) * dt
                for neighbor, schedule in engine._schedules[position].items():
                    if schedule.is_complete() or neighbor not in levels:
                        return 0
                    threshold = schedule.level_times[schedule.next_level - 1] - 1e-12
                    steps = math.floor(
                        (threshold - logical[i]) * (1.0 - 1e-9) / gain
                    )
                    if steps < cap:
                        cap = steps
        return cap

    # -- static prep (cached across segments) ---------------------------
    def _segment_prep(self):
        """CSR / fan-out / per-engine parameter arrays for the kernel.

        Rebuilt only when the combined CSR or any engine's broadcast fan-out
        snapshot is replaced (both are invalidated on structural change);
        the combined level column is shared by reference, so in-place level
        promotions flow through without a rebuild.
        """
        engines = self.engines
        for engine in engines:
            if engine._bc_flat is None:
                engine._build_bc_flat()
        key = (self._combined,) + tuple(engine._bc_flat for engine in engines)
        if self._prep is not None and all(
            a is b for a, b in zip(self._prep_key, key)
        ):
            return self._prep
        combined = self._combined
        n_nodes = self.node_count
        n_engines = len(engines)
        degrees = np.concatenate(
            [
                np.diff(np.asarray(engine._csr.indptr, dtype=np.int64))
                for engine in engines
            ]
        )
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        engine_sizes = [engine.n for engine in engines]
        engine_start = np.zeros(n_engines + 1, dtype=np.int64)
        np.cumsum(np.asarray(engine_sizes, dtype=np.int64), out=engine_start[1:])
        engine_of = np.repeat(np.arange(n_engines, dtype=np.int64), engine_sizes)
        # Broadcast fan-out in global-CSR form.  Per-engine owners are local
        # positions sorted ascending, so concatenating engines in offset
        # order keeps the flat arrays in global sender order.
        owner_parts, recv_parts, bound_parts, static_parts = [], [], [], []
        for engine in engines:
            owner, receivers, bounds, static, _pairs = engine._bc_flat
            owner_parts.append(owner + engine._offset)
            recv_parts.append(receivers)
            bound_parts.append(bounds)
            static_parts.append(
                static if static is not None else np.zeros(len(bounds))
            )
        sb_owner = np.concatenate(owner_parts) if owner_parts else np.empty(0, np.int64)
        counts = np.bincount(sb_owner.astype(np.int64), minlength=n_nodes)
        sb_indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=sb_indptr[1:])
        dp_kind = np.zeros(n_engines, dtype=np.int64)
        dp_low = np.zeros(n_engines, dtype=np.float64)
        dp_span = np.zeros(n_engines, dtype=np.float64)
        for ei, engine in enumerate(engines):
            if engine._uniform_draw is not None:
                model = engine.delay_model
                dp_kind[ei] = 1
                dp_low[ei] = model.low_fraction
                dp_span[ei] = model.high_fraction - model.low_fraction
        max_degree = int(degrees.max()) if len(degrees) else 0
        prep = {
            "engine_start": engine_start,
            "engine_of": engine_of,
            "indptr": indptr,
            "nbr": combined.neighbor_index,
            "eps": combined.epsilon,
            "level": combined.level,
            "table_id": combined.table_id,
            "thresholds": np.ascontiguousarray(
                combined.thresholds, dtype=np.float64
            ).reshape(-1),
            "n_levels": combined.max_level,
            "sb_indptr": sb_indptr,
            "sb_recv": np.concatenate(recv_parts)
            if recv_parts
            else np.empty(0, np.int64),
            "sb_bound": np.concatenate(bound_parts)
            if bound_parts
            else np.empty(0, np.float64),
            "sb_static": np.concatenate(static_parts)
            if static_parts
            else np.empty(0, np.float64),
            "sb_counts": np.asarray(
                [len(part) for part in owner_parts], dtype=np.int64
            ),
            "dp_kind": dp_kind,
            "dp_low": dp_low,
            "dp_span": dp_span,
            "strategy": np.full(n_engines, self._strategy, dtype=np.int64),
            "bcast_interval": np.asarray(
                [engine.aopt_config.broadcast_interval for engine in engines],
                dtype=np.float64,
            ),
            "iota": self.iota,
            "fast_mult": self.fast_multiplier,
            "max_factor": self.max_factor,
            "ahead_scratch": np.empty(max_degree, dtype=np.float64),
            "level_scratch": np.empty(max_degree, dtype=np.int64),
            "tid_scratch": np.empty(max_degree, dtype=np.int64),
        }
        self._prep_key = key
        self._prep = prep
        return prep

    # -- segment execution ----------------------------------------------
    def _run_segment(self, steps: int, snaps, next_samples) -> None:
        engines = self.engines
        n_engines = len(engines)
        t0 = self.time
        dt = self.dt
        # Structure refresh normally happens inside each step; no structural
        # change can occur mid-segment, so once up front is equivalent.
        self._refresh_structure()
        self._refresh_levels()
        prep = self._segment_prep()
        # Exact per-step time grid: the same repeated float addition the
        # per-step loop performs.
        t_steps = np.empty(steps + 1, dtype=np.float64)
        t = t0
        for j in range(steps + 1):
            t_steps[j] = t
            t = t + dt
        # Segment-constant drift rates, filled by the prescan at its pinned
        # phase.
        rates = self._rates
        # Mersenne-Twister state transplant for uniform-delay engines.
        mt_state = np.zeros((max(n_engines, 1), 624), dtype=np.int64)
        mt_pos = np.full(max(n_engines, 1), 624, dtype=np.int64)
        rngs: List = [None] * n_engines
        gauss: List = [None] * n_engines
        for ei, engine in enumerate(engines):
            if engine._uniform_draw is not None:
                engine._uniform_draw.sync_python_rng()
                rng = engine.delay_model._rng
                _version, keys, gauss_next = rng.getstate()
                mt_state[ei, :] = keys[:624]
                mt_pos[ei] = keys[624]
                rngs[ei] = rng
                gauss[ei] = gauss_next
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
        # Message capacity: per engine, a sender can fire at most once per
        # step and otherwise needs its hardware clock to gain one broadcast
        # interval per send.
        cap_total = n_pend + 16
        sb_counts = prep["sb_counts"]
        for ei, engine in enumerate(engines):
            rate_slice = rates[engine._offset : engine._offset + engine.n]
            max_rate = float(rate_slice.max()) if engine.n else 0.0
            gain = steps * dt * max(max_rate, 0.0)
            interval = engine.aopt_config.broadcast_interval
            if interval > 0.0:
                sends = min(steps, int(gain / interval) + 2)
            else:
                sends = steps
            cap_total += int(sb_counts[ei]) * sends
        bh_head = np.empty(steps + 1, dtype=np.int64)
        bh_next = np.empty(cap_total, dtype=np.int64)
        b_recv = np.empty(cap_total, dtype=np.int64)
        b_val = np.empty(cap_total, dtype=np.float64)
        b_time = np.empty(cap_total, dtype=np.float64)
        left_recv = np.empty(cap_total, dtype=np.int64)
        left_val = np.empty(cap_total, dtype=np.float64)
        left_time = np.empty(cap_total, dtype=np.float64)
        out_counts = np.zeros(2, dtype=np.int64)
        sent = np.zeros(n_engines, dtype=np.int64)
        delivered = np.zeros(n_engines, dtype=np.int64)
        # Snapshot buffers: one engine-sized slice per (step, engine) sample.
        n_snap = len(snaps)
        snap_step = np.empty(n_snap, dtype=np.int64)
        snap_engine = np.empty(n_snap, dtype=np.int64)
        snap_offset = np.empty(n_snap, dtype=np.int64)
        offset = 0
        for si, (step_j, ei) in enumerate(snaps):
            snap_step[si] = step_j
            snap_engine[si] = ei
            snap_offset[si] = offset
            offset += engines[ei].n
        snap_logical = np.empty(offset, dtype=np.float64)
        snap_hardware = np.empty(offset, dtype=np.float64)
        snap_multiplier = np.empty(offset, dtype=np.float64)
        snap_max_estimate = np.empty(offset, dtype=np.float64)
        snap_mode = np.empty(offset, dtype=np.int64)
        status = self._provider.fused_segment(
            self.node_count,
            n_engines,
            steps,
            dt,
            t_steps,
            prep["engine_start"],
            prep["engine_of"],
            self.hardware,
            self.logical,
            self.last_hardware,
            self.max_estimate,
            self.next_broadcast,
            self.multiplier,
            self.mode,
            prep["iota"],
            prep["fast_mult"],
            prep["max_factor"],
            rates,
            prep["bcast_interval"],
            prep["strategy"],
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
            prep["dp_kind"],
            prep["dp_low"],
            prep["dp_span"],
            mt_state,
            mt_pos,
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
            sent,
            delivered,
            n_snap,
            snap_step,
            snap_engine,
            snap_offset,
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
        for engine in engines:
            engine.time = self.time
        # Hand the Mersenne-Twister streams back to the Python rngs.
        for ei in range(n_engines):
            rng = rngs[ei]
            if rng is not None:
                rng.setstate(
                    (
                        3,
                        tuple(int(word) for word in mt_state[ei])
                        + (int(mt_pos[ei]),),
                        gauss[ei],
                    )
                )
        # Counters.
        for ei, engine in enumerate(engines):
            engine.sent_count += int(sent[ei])
            engine.delivered_count += int(delivered[ei])
        # Leftover messages become one sorted pending run per engine for the
        # vec transport (or the next segment's prescan); the transport
        # credits a run's deliveries to the engine that owns it.
        self._bc_runs = []
        nleft = int(out_counts[0])
        if nleft:
            order = np.argsort(left_time[:nleft])
            times = left_time[:nleft][order]
            receivers = left_recv[:nleft][order]
            values = left_val[:nleft][order]
            owner = prep["engine_of"][receivers]
            for ei in np.flatnonzero(np.bincount(owner, minlength=n_engines)):
                mine = owner == ei
                self._bc_runs.append(
                    [times[mine], receivers[mine], values[mine], 0, engines[ei], None]
                )
        # Replay the recorded samples in the exact per-step order.
        for si, (step_j, ei) in enumerate(snaps):
            engine = engines[ei]
            sample_time = float(t_steps[step_j])
            start = int(snap_offset[si])
            end = start + engine.n
            cols = engine._cols
            if engine._record_trace:
                engine.trace.record(
                    LazyTraceSample(
                        sample_time,
                        cols.ids,
                        cols.index,
                        snap_logical[start:end],
                        snap_hardware[start:end],
                        snap_multiplier[start:end],
                        snap_mode[start:end],
                        snap_max_estimate[start:end],
                    )
                )
            if engine._metrics is not None:
                engine._metrics.observe_arrays(
                    sample_time,
                    cols.ids,
                    cols.index,
                    snap_logical[start:end],
                    snap_max_estimate[start:end],
                    snap_mode[start:end],
                )
        for ei, engine in enumerate(engines):
            engine._next_sample_time = next_samples[ei]
        self.fused_steps += steps


def build_batch(
    runs: Sequence[Tuple[DynamicGraph, AlgorithmFactory, SimulationConfig]]
) -> JitContext:
    """Build a lockstep batch of jit engines over independent runs.

    Same contract as :func:`repro.vecsim.engine.build_batch`: every run is
    ``(graph, algorithm_factory, config)``, all must share ``dt`` and the
    estimate strategy, and the whole batch advances through single fused
    kernel invocations whenever every run's next steps are regular.
    """
    engines = [
        JitEngine(graph, factory, config, _defer_context=True)
        for graph, factory, config in runs
    ]
    return JitContext(engines)
