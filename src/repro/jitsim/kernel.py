"""The fused time-loop kernel of the jit backend.

One call to :func:`fused_segment` executes *k* regular simulation steps for a
whole batch of runs without returning to Python: broadcast delivery,
max-estimate maintenance, broadcast sending (with in-kernel Mersenne-Twister
delay draws), trigger/mode evaluation, trace snapshots and clock advancement
-- each phase elementwise-identical to the vec backend's per-step kernels
(which are themselves bit-identical to the fast and reference engines).

The function bodies are deliberately dispatch-free: plain scalar loops over
flat ``int64`` / float arrays, no Python objects, no allocation, no calls
into the standard library.  That makes them

* directly ``numba.njit``-able (the decorators below are no-ops when numba
  is not installed), and
* a line-for-line template for the C port in ``_fused_loop.c`` (compiled on
  demand by :mod:`repro.jitsim.providers` when numba is unavailable).

Bit-identity notes
------------------

* The in-kernel MT19937 implements exactly CPython's ``random.random()``
  (``genrand_res53``: two tempered 32-bit outputs combined as
  ``(a*2^26 + b) / 2^53``) over state transplanted from
  ``random.Random.getstate()``; the state words travel as ``int64`` (all
  values < 2^32) so the same arithmetic works in Python, numba and C.
* Uniform delays use the exact float expression of
  ``Random.uniform(a, b) * bound`` followed by ``min(delay, bound)`` -- the
  same ops as ``UniformRandomDelay.delay`` and vecsim's batched
  ``np.minimum(fractions * bounds, bounds)``.
* Message delivery buckets each send into the first step ``j`` whose time
  satisfies ``delivery_time <= t_steps[j] + 1e-12`` -- the predicate of
  ``VecContext._deliver_broadcasts`` -- via binary search over the
  precomputed step-time grid.  Within-step order is irrelevant (max-updates
  commute), exactly as in the vec transport.
* ``_evaluate_mode`` is :func:`repro.core.aopt_step.evaluate_mode_flat`
  verbatim over a flattened ``(T, 4, L)`` threshold array.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised via the numba-equipped CI leg
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - default in numba-less environments
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def decorate(func):
            return func

        return decorate


@njit(cache=False)
def _mt_next32(mt_state, mt_pos, e):
    """One tempered MT19937 output for engine ``e`` (CPython genrand_uint32).

    ``mt_state`` is ``(R, 624)`` int64 (values < 2^32), ``mt_pos`` the per-
    engine cursor; position 624 means "twist before the next output", the
    exact convention of ``random.Random.getstate()``.
    """
    p = mt_pos[e]
    if p >= 624:
        for i in range(624):
            y = (mt_state[e, i] & 0x80000000) | (
                mt_state[e, (i + 1) % 624] & 0x7FFFFFFF
            )
            v = mt_state[e, (i + 397) % 624] ^ (y >> 1)
            if y & 1:
                v ^= 0x9908B0DF
            mt_state[e, i] = v
        p = 0
    y = mt_state[e, p]
    mt_pos[e] = p + 1
    y ^= y >> 11
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    y ^= y >> 18
    return y


@njit(cache=False)
def _mt_res53(mt_state, mt_pos, e):
    """CPython's ``random.random()``: a 53-bit double from two outputs."""
    a = _mt_next32(mt_state, mt_pos, e) >> 5
    b = _mt_next32(mt_state, mt_pos, e) >> 6
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


@njit(cache=False)
def _delivery_step(t_steps, lo, steps, dtime):
    """First step ``j`` in ``[lo, steps)`` with ``dtime <= t_steps[j] + 1e-12``.

    Returns ``steps`` when the message outlives the segment (leftover).
    The predicate is monotone in ``j`` (strictly increasing step times), so
    any search strategy lands on the same step the per-step ``searchsorted``
    of ``VecContext._deliver_broadcasts`` would: the grid is uniform, so an
    arithmetic guess is within a step or two of the answer and a short walk
    settles it with the exact predicate (cheaper than a binary search's
    unpredictable branches at high message rates).
    """
    if lo >= steps:
        return steps
    g = lo + int((dtime - t_steps[lo]) / (t_steps[1] - t_steps[0]))
    if g < lo:
        g = lo
    elif g > steps:
        g = steps
    while g > lo and dtime <= t_steps[g - 1] + 1e-12:
        g -= 1
    while g < steps and not (dtime <= t_steps[g] + 1e-12):
        g += 1
    return g


@njit(cache=False)
def _evaluate_mode_uniform(lg, m, iota_v, amin, amax, lvl, tid, thr, n_levels):
    """Mode evaluation for a row whose edges share one table and one level.

    When every edge participates at every level ``s <= lvl`` with the same
    thresholds, the per-edge existential/universal conditions collapse onto
    the row's ahead extrema -- ``someone_behind`` iff ``-amin`` crosses the
    slow-behind threshold, ``nobody_far_ahead`` iff ``amax`` stays under the
    slow-ahead one (and mirrored for fast).  Exactly the per-node-extrema
    collapse :func:`repro.vecsim.kernels.evaluate_modes_vec` uses for
    homogeneous graphs; same comparisons on the same floats, so the result
    is identical to the general scan -- just without the edges x levels
    rescan.
    """
    base = tid * 4 * n_levels
    for idx in range(lvl):
        if -amin < thr[base + 2 * n_levels + idx]:
            break
        if amax <= thr[base + 3 * n_levels + idx]:
            return 0
    for idx in range(lvl):
        if amax < thr[base + idx]:
            break
        if -amin <= thr[base + n_levels + idx]:
            return 1
    lag = m - lg
    if lag <= 1e-9:
        return 0
    if lag >= iota_v:
        return 1
    return 2


@njit(cache=False)
def _evaluate_mode(lg, m, iota_v, count, aheads, levels, tids, thr, n_levels):
    """``repro.core.aopt_step.evaluate_mode_flat`` over a flat threshold array.

    ``thr`` is the combined ``(T, 4, L)`` table flattened C-order; rows are
    (fast-ahead, fast-behind, slow-behind, slow-ahead) as in
    ``vecsim.kernels.THR_*``.  Tolerance fixed at the shared 1e-9.
    """
    if count > 0:
        lmax = 0
        for k in range(count):
            if levels[k] > lmax:
                lmax = levels[k]
        # Slow mode trigger (Definition 4.6), smallest level first.
        for s in range(1, lmax + 1):
            idx = s - 1
            someone_behind = False
            nobody_far_ahead = True
            for k in range(count):
                if levels[k] < s:
                    continue
                ahead = aheads[k]
                base = tids[k] * 4 * n_levels
                if -ahead >= thr[base + 2 * n_levels + idx]:
                    someone_behind = True
                if ahead > thr[base + 3 * n_levels + idx]:
                    nobody_far_ahead = False
            if not someone_behind:
                break
            if nobody_far_ahead:
                return 0
        # Fast mode trigger (Definition 4.5).
        for s in range(1, lmax + 1):
            idx = s - 1
            someone_ahead = False
            nobody_far_behind = True
            for k in range(count):
                if levels[k] < s:
                    continue
                ahead = aheads[k]
                base = tids[k] * 4 * n_levels
                if ahead >= thr[base + idx]:
                    someone_ahead = True
                if -ahead > thr[base + n_levels + idx]:
                    nobody_far_behind = False
            if not someone_ahead:
                break
            if nobody_far_behind:
                return 1
    # Max estimate triggers (Definition 4.7).
    lag = m - lg
    if lag <= 1e-9:
        return 0
    if lag >= iota_v:
        return 1
    return 2


@njit(cache=False)
def fused_segment(
    n_nodes,
    n_engines,
    steps,
    dt,
    t_steps,
    engine_start,
    engine_of,
    hardware,
    logical,
    last_hardware,
    max_estimate,
    next_broadcast,
    multiplier,
    mode,
    iota,
    fast_mult,
    max_factor,
    rates,
    bcast_interval,
    strategy,
    indptr,
    nbr,
    eps,
    level,
    table_id,
    thresholds,
    n_levels,
    sb_indptr,
    sb_recv,
    sb_bound,
    sb_static,
    dp_kind,
    dp_low,
    dp_span,
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
    ahead_scratch,
    level_scratch,
    tid_scratch,
):
    """Run ``steps`` regular lockstep steps entirely inside the kernel.

    Returns 0 on success, 1 on message-buffer overflow (a sizing bug in the
    caller, never a data-dependent condition -- capacity is computed from an
    upper bound on possible sends).

    Phase order per step ``j`` at time ``t = t_steps[j]`` mirrors
    ``VecContext._step`` with every irregular phase (graph events, heap
    messages, scheduler callbacks, insertions, structure refresh) proven
    absent for the segment by the caller's prescan:

    1. deliver bucket ``j`` (max-update + per-engine delivered counts);
    2. max-estimate advance for all nodes;
    3. per engine, per due sender in position order: reset next-broadcast,
       then draw a delay per receiver in fan-out order and bucket the send;
    4. per node: oracle estimates + flat trigger/mode evaluation;
    5. snapshot due (step, engine) sample slices;
    6. advance hardware/logical clocks with segment-constant rates.
    """
    # Hoist the per-edge constants out of the step loop: levels and table
    # membership cannot change mid-segment, so filter each row down to its
    # discovered (level >= 1) edges once and resolve per-row homogeneity
    # (single table + single level) here instead of per node per step.
    n_edges = indptr[n_nodes]
    f_indptr = np.empty(n_nodes + 1, dtype=np.int64)
    f_nbr = np.empty(n_edges, dtype=np.int64)
    f_eps = np.empty(n_edges, dtype=eps.dtype)
    f_lvl = np.empty(n_edges, dtype=np.int64)
    f_tid = np.empty(n_edges, dtype=np.int64)
    row_uniform = np.empty(n_nodes, dtype=np.int64)
    row_tid = np.empty(n_nodes, dtype=np.int64)
    row_lvl = np.empty(n_nodes, dtype=np.int64)
    fpos = 0
    for i in range(n_nodes):
        f_indptr[i] = fpos
        utid = np.int64(0)
        ulvl = np.int64(0)
        uni = np.int64(1)
        for k in range(indptr[i], indptr[i + 1]):
            lv = level[k]
            if lv < 1:
                continue
            if fpos == f_indptr[i]:
                utid = table_id[k]
                ulvl = lv
            elif table_id[k] != utid or lv != ulvl:
                uni = np.int64(0)
            f_nbr[fpos] = nbr[k]
            f_eps[fpos] = eps[k]
            f_lvl[fpos] = lv
            f_tid[fpos] = table_id[k]
            fpos += 1
        row_uniform[i] = uni
        row_tid[i] = utid
        row_lvl[i] = ulvl
    f_indptr[n_nodes] = fpos
    for j in range(steps + 1):
        bh_head[j] = -1
    used = 0
    # Bucket the messages already in flight at segment start.
    for p in range(n_pend):
        dtime = pend_time[p]
        jd = _delivery_step(t_steps, 0, steps, dtime)
        if used >= cap_total:
            return 1
        b_recv[used] = pend_recv[p]
        b_val[used] = pend_val[p]
        b_time[used] = dtime
        bh_next[used] = bh_head[jd]
        bh_head[jd] = used
        used += 1
    sp = 0
    for j in range(steps):
        t = t_steps[j]
        # -- broadcast delivery (VecContext._deliver_broadcasts) ---------
        msg = bh_head[j]
        while msg != -1:
            r = b_recv[msg]
            v = b_val[msg]
            if v > max_estimate[r]:
                max_estimate[r] = v
            delivered[engine_of[r]] += 1
            msg = bh_next[msg]
        # -- per-node control phases, fused ------------------------------
        # Max-estimate advance, broadcast send and trigger evaluation all
        # touch disjoint per-node state (evaluation reads neighbours'
        # ``logical``, which only the clock phase writes), so one pass per
        # node preserves the exact engine-by-engine, position-ascending
        # order of every write and rng draw while walking the state columns
        # once per step instead of three times.
        for e in range(n_engines):
            interval = bcast_interval[e]
            uniform_delay = dp_kind[e] == 1
            low = dp_low[e]
            span = dp_span[e]
            strat = strategy[e]
            for i in range(engine_start[e], engine_start[e + 1]):
                # max estimate maintenance (MaxEstimateTracker.advance)
                hw = hardware[i]
                delta = hw - last_hardware[i]
                if delta < 0.0:
                    delta = 0.0
                last_hardware[i] = hw
                m = max_estimate[i] + delta * max_factor[i]
                lg = logical[i]
                if lg > m:
                    m = lg
                max_estimate[i] = m
                # broadcast send (per-engine rng streams)
                if hw + 1e-12 >= next_broadcast[i]:
                    next_broadcast[i] = hw + interval
                    k0 = sb_indptr[i]
                    k1 = sb_indptr[i + 1]
                    for k in range(k0, k1):
                        if uniform_delay:
                            raw = _mt_res53(mt_state, mt_pos, e)
                            bound = sb_bound[k]
                            d = (low + span * raw) * bound
                            if d > bound:
                                d = bound
                        else:
                            d = sb_static[k]
                        dtime = t + d
                        jd = _delivery_step(t_steps, j + 1, steps, dtime)
                        if used >= cap_total:
                            return 1
                        b_recv[used] = sb_recv[k]
                        b_val[used] = m
                        b_time[used] = dtime
                        bh_next[used] = bh_head[jd]
                        bh_head[jd] = used
                        used += 1
                    sent[e] += k1 - k0
                # oracle estimates + trigger evaluation
                k0 = f_indptr[i]
                k1 = f_indptr[i + 1]
                if row_uniform[i] == 1:
                    amin = np.inf
                    amax = -np.inf
                    for k in range(k0, k1):
                        tv = logical[f_nbr[k]]
                        if strat == 0:  # zero error
                            est = tv
                        elif strat == 4:  # toward_observer
                            epsv = f_eps[k]
                            if epsv == 0.0:
                                est = tv
                            else:
                                diff = lg - tv
                                if diff > 0.0:
                                    err = diff if diff < epsv else epsv
                                else:
                                    err = diff if diff > -epsv else -epsv
                                est = tv + err
                                if est < 0.0:
                                    est = 0.0
                        elif strat == 2:  # underestimate
                            epsv = f_eps[k]
                            est = tv if epsv == 0.0 else tv - epsv
                            if est < 0.0:
                                est = 0.0
                        else:  # 3: overestimate
                            est = tv + f_eps[k]
                        a = est - lg
                        if a < amin:
                            amin = a
                        if a > amax:
                            amax = a
                    mc = _evaluate_mode_uniform(
                        lg,
                        m,
                        iota[i],
                        amin,
                        amax,
                        row_lvl[i],
                        row_tid[i],
                        thresholds,
                        n_levels,
                    )
                else:
                    count = 0
                    for k in range(k0, k1):
                        tv = logical[f_nbr[k]]
                        if strat == 0:  # zero error
                            est = tv
                        elif strat == 4:  # toward_observer
                            epsv = f_eps[k]
                            if epsv == 0.0:
                                est = tv
                            else:
                                diff = lg - tv
                                if diff > 0.0:
                                    err = diff if diff < epsv else epsv
                                else:
                                    err = diff if diff > -epsv else -epsv
                                est = tv + err
                                if est < 0.0:
                                    est = 0.0
                        elif strat == 2:  # underestimate
                            epsv = f_eps[k]
                            est = tv if epsv == 0.0 else tv - epsv
                            if est < 0.0:
                                est = 0.0
                        else:  # 3: overestimate
                            est = tv + f_eps[k]
                        ahead_scratch[count] = est - lg
                        level_scratch[count] = f_lvl[k]
                        tid_scratch[count] = f_tid[k]
                        count += 1
                    mc = _evaluate_mode(
                        lg,
                        m,
                        iota[i],
                        count,
                        ahead_scratch,
                        level_scratch,
                        tid_scratch,
                        thresholds,
                        n_levels,
                    )
                if mc == 0:
                    multiplier[i] = 1.0
                    mode[i] = 0
                elif mc == 1:
                    multiplier[i] = fast_mult[i]
                    mode[i] = 1
                # mc == 2 ("free"): keep the current mode and multiplier.
        # -- trace snapshots ---------------------------------------------
        while sp < n_snap and snap_step[sp] == j:
            e = snap_engine[sp]
            off = snap_offset[sp]
            s0 = engine_start[e]
            for i in range(s0, engine_start[e + 1]):
                d = off + (i - s0)
                snap_logical[d] = logical[i]
                snap_hardware[d] = hardware[i]
                snap_multiplier[d] = multiplier[i]
                snap_max_estimate[d] = max_estimate[i]
                snap_mode[d] = mode[i]
            sp += 1
        # -- clock advancement -------------------------------------------
        for i in range(n_nodes):
            hardware[i] += rates[i] * dt
            logical[i] += (rates[i] * multiplier[i]) * dt
    # Compact the messages that outlive the segment (delivered later by the
    # vec transport or the next fused segment).
    nleft = 0
    msg = bh_head[steps]
    while msg != -1:
        left_recv[nleft] = b_recv[msg]
        left_val[nleft] = b_val[msg]
        left_time[nleft] = b_time[msg]
        nleft += 1
        msg = bh_next[msg]
    out_counts[0] = nleft
    out_counts[1] = used
    return 0
