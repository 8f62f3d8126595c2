"""The jit engine: vecsim semantics, one compiled time loop per segment.

:class:`JitEngine` subclasses :class:`~repro.vecsim.engine.VecEngine` and
keeps its entire event / insertion / transport machinery and its run state.
What changes is the driver: instead of one Python round-trip per step,
:meth:`JitEngine.run_until` *prescans* the upcoming steps, proves a maximal
prefix is "regular" -- no graph events, no scheduler callbacks, no in-flight
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
trace samples / streaming-observer feeds are replayed after the segment in
the exact step order the per-step loop would have produced -- sound because
observers cannot request stops in fused runs (runs with armed watchdogs
fall back to per-step execution).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.interfaces import AlgorithmFactory
from ..fastsim.engine import FastsimError
from ..network.dynamic_graph import DynamicGraph
from ..sim.runner import SimulationConfig
from ..sim.trace import Trace
from ..vecsim.engine import LazyTraceSample, VecEngine
from . import providers

__all__ = ["JitEngine"]

#: Segments shorter than this run through the inherited per-step path --
#: below it the segment-prep overhead outweighs the fused loop.
_MIN_FUSED_STEPS = 4

_INF = float("inf")


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
        #: Diagnostics: how many steps ran fused vs. through the vec path.
        self.fused_steps = 0
        self.stepped_steps = 0

    @property
    def engines(self) -> List["JitEngine"]:
        # ``benchmarks/perf`` reads ``build_batch([run]).engines[0]``; ROADMAP
        # item 15 deletes this with :func:`build_batch`.
        return [self]

    # -- driver ---------------------------------------------------------
    def run_until(self, end_time: float) -> Trace:
        if end_time < self.time - 1e-12 or self._fusion_blocker() is not None:
            return super().run_until(end_time)
        while self.time < end_time - 1e-9:
            plan = self._plan_segment(end_time)
            if plan is None:
                self.step()
                continue
            self._run_segment(*plan)
        self._record_sample(force=True)
        return self.trace

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
        if self.stopped_early:
            return "engine already stopped"
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
        metrics = self._metrics
        if metrics is not None and any(
            getattr(observer, "_stop_on_fire", False) for observer in metrics.observers
        ):
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
        (:meth:`_promotion_cap`).  The drift rates are filled here, at the
        segment's pinned phase, and :meth:`_run_segment` reuses them.
        """
        if self._inflight:
            return None
        barrier = min(
            (
                time
                for time in (self._next_event_time, self.scheduler.peek_time())
                if time is not None
            ),
            default=_INF,
        )
        t0 = self.time
        self._refresh_rates(t0)
        epoch = self.drift.rate_epoch
        rate_key = self._rate_key
        cap = self._promotion_cap()
        next_sample = self._next_sample_time
        interval = self.trace.sample_interval
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
        # Message capacity: a sender can fire at most once per step and
        # otherwise needs its hardware clock to gain one broadcast interval
        # per send.
        interval = self.aopt_config.broadcast_interval
        if interval > 0.0:
            gain = steps * dt * max(float(rates.max()) if n else 0.0, 0.0)
            sends = min(steps, int(gain / interval) + 2)
        else:
            sends = steps
        cap_total = n_pend + 16 + len(prep["sb_recv"]) * sends
        bh_head = np.empty(steps + 1, dtype=np.int64)
        bh_next = np.empty(cap_total, dtype=np.int64)
        b_recv = np.empty(cap_total, dtype=np.int64)
        b_val = np.empty(cap_total, dtype=np.float64)
        b_time = np.empty(cap_total, dtype=np.float64)
        left_recv = np.empty(cap_total, dtype=np.int64)
        left_val = np.empty(cap_total, dtype=np.float64)
        left_time = np.empty(cap_total, dtype=np.float64)
        out_counts = np.zeros(4, dtype=np.int64)
        # Snapshot buffers: one engine-sized slice per sample-recording step.
        n_snap = len(snaps)
        snap_step = np.asarray(snaps, dtype=np.int64)
        snap_logical = np.empty(n_snap * n, dtype=np.float64)
        snap_hardware = np.empty(n_snap * n, dtype=np.float64)
        snap_multiplier = np.empty(n_snap * n, dtype=np.float64)
        snap_max_estimate = np.empty(n_snap * n, dtype=np.float64)
        snap_mode = np.empty(n_snap * n, dtype=np.int64)
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
        # Replay the recorded samples in the exact per-step order.
        for si, step_j in enumerate(snaps):
            sample_time = float(t_steps[step_j])
            rows = slice(si * n, (si + 1) * n)
            if self._record_trace:
                self.trace.record(
                    LazyTraceSample(
                        sample_time,
                        cols.ids,
                        cols.index,
                        snap_logical[rows],
                        snap_hardware[rows],
                        snap_multiplier[rows],
                        snap_mode[rows],
                        snap_max_estimate[rows],
                    )
                )
            if self._metrics is not None:
                self._metrics.observe_arrays(
                    sample_time,
                    cols.ids,
                    cols.index,
                    snap_logical[rows],
                    snap_max_estimate[rows],
                    snap_mode[rows],
                )
        self._next_sample_time = next_sample
        self.fused_steps += steps


def build_batch(
    runs: Sequence[Tuple[DynamicGraph, AlgorithmFactory, SimulationConfig]]
) -> JitEngine:
    """The :class:`JitEngine` built from ``[run]``.

    ``run`` is ``(graph, algorithm_factory, config)`` exactly as the
    backend's ``build`` receives them; the engine's ``fused_steps`` /
    ``stepped_steps`` count how its steps ran.  Any other number of runs
    raises :class:`FastsimError`: an engine runs exactly one run.  Kept only
    for ``benchmarks/perf``; ROADMAP item 15 deletes it.
    """
    if len(runs) != 1:
        raise FastsimError(f"a jit engine runs exactly one run, got {len(runs)}")
    (run,) = runs
    return JitEngine(*run)
