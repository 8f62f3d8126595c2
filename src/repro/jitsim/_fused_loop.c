/* The fused time-loop kernel of the jit backend.
 *
 * One call to `fused_segment` runs `steps` regular steps of one run:
 * broadcast delivery, max-estimate maintenance,
 * broadcast sends (in-kernel MT19937 delay draws), trigger/mode evaluation,
 * trace snapshots and clock advancement, in the phase order of
 * VecEngine.step.  Messages in flight live in slots of the caller's
 * buffers: a delivered message's slot goes on a free list (linked through
 * bh_next) and the next send takes it back, so the buffers need only hold
 * the messages in flight at once, not every message the segment sends.
 * It returns 0, or 1 when more messages were in flight at once than
 * cap_total (the caller's in-flight bound was wrong), 2 on a failed
 * scratch allocation.  Readable twins:
 * core/aopt_step.py::evaluate_mode_{uniform,flat} and
 * FastEngine._control_all.  Compiled on demand by repro.jitsim.providers
 * with
 *
 *     cc -O3 -fPIC -shared -ffp-contract=off
 *
 * -ffp-contract=off (and the absence of any -ffast-math / -march flag)
 * guarantees plain IEEE-754 double ops in source order.  Bit-identity with
 * the reference engine rests on four more points:
 *
 * - MT19937 is CPython's random.random() (genrand_res53: two tempered
 *   outputs combined as (a*2^26 + b) / 2^53) over state transplanted from
 *   random.Random.getstate(); state words travel as int64 (< 2^32).
 * - A uniform delay is the float expression of Random.uniform(a, b) * bound
 *   followed by min(delay, bound), as in UniformRandomDelay.delay.
 * - A send lands in the first step j with delivery_time <= t_steps[j] +
 *   1e-12, the predicate of VecEngine._deliver_broadcasts; within a step
 *   the order is irrelevant because max-updates commute.
 * - evaluate_mode is evaluate_mode_flat over a flattened (T, 4, L)
 *   threshold array.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef double real;

/* One tempered MT19937 output (CPython genrand_uint32).  State words travel
 * as int64 (all values < 2^32), position 624 means "twist first" -- the
 * random.Random.getstate() convention. */
static uint32_t mt_next32(int64_t *mt, int64_t *pos) {
    int64_t p = *pos;
    if (p >= 624) {
        for (int i = 0; i < 624; i++) {
            uint32_t y = ((uint32_t)mt[i] & 0x80000000u) |
                         ((uint32_t)mt[(i + 1) % 624] & 0x7FFFFFFFu);
            uint32_t v = (uint32_t)mt[(i + 397) % 624] ^ (y >> 1);
            if (y & 1u)
                v ^= 0x9908B0DFu;
            mt[i] = (int64_t)v;
        }
        p = 0;
    }
    uint32_t y = (uint32_t)mt[p];
    *pos = p + 1;
    y ^= y >> 11;
    y ^= (y << 7) & 0x9D2C5680u;
    y ^= (y << 15) & 0xEFC60000u;
    y ^= y >> 18;
    return y;
}

/* CPython's random.random(): a 53-bit double from two outputs. */
static double mt_res53(int64_t *mt, int64_t *pos) {
    uint32_t a = mt_next32(mt, pos) >> 5;
    uint32_t b = mt_next32(mt, pos) >> 6;
    return ((double)a * 67108864.0 + (double)b) * (1.0 / 9007199254740992.0);
}

/* First step j in [lo, steps) with dtime <= t_steps[j] + 1e-12, else steps. */
static int64_t delivery_step(const double *t_steps, int64_t lo, int64_t steps,
                             double dtime) {
    if (lo >= steps)
        return steps;
    int64_t g = lo + (int64_t)((dtime - t_steps[lo]) / (t_steps[1] - t_steps[0]));
    if (g < lo)
        g = lo;
    else if (g > steps)
        g = steps;
    while (g > lo && dtime <= t_steps[g - 1] + 1e-12)
        g--;
    while (g < steps && !(dtime <= t_steps[g] + 1e-12))
        g++;
    return g;
}

/* Mode evaluation for a row whose edges share one table and one level: the
 * existential/universal per-edge conditions collapse onto the row's ahead
 * extrema (the same homogeneous collapse vecsim.kernels uses).  Identical
 * comparisons on identical floats, without the edges x levels rescan. */
static int64_t evaluate_mode_uniform(real lg, real m, real iota_v, real amin,
                                     real amax, int64_t lvl, int64_t tid,
                                     const real *thr, int64_t n_levels) {
    int64_t base = tid * 4 * n_levels;
    for (int64_t idx = 0; idx < lvl; idx++) {
        if (-amin < thr[base + 2 * n_levels + idx])
            break;
        if (amax <= thr[base + 3 * n_levels + idx])
            return 0;
    }
    for (int64_t idx = 0; idx < lvl; idx++) {
        if (amax < thr[base + idx])
            break;
        if (-amin <= thr[base + n_levels + idx])
            return 1;
    }
    real lag = m - lg;
    if (lag <= 1e-9)
        return 0;
    if (lag >= iota_v)
        return 1;
    return 2;
}

/* repro.core.aopt_step.evaluate_mode_flat over a flat (T, 4, L) threshold
 * array; rows are (fast-ahead, fast-behind, slow-behind, slow-ahead). */
static int64_t evaluate_mode(real lg, real m, real iota_v, int64_t count,
                             const real *aheads, const int64_t *levels,
                             const int64_t *tids, const real *thr,
                             int64_t n_levels) {
    if (count > 0) {
        int64_t lmax = 0;
        for (int64_t k = 0; k < count; k++)
            if (levels[k] > lmax)
                lmax = levels[k];
        /* Slow mode trigger (Definition 4.6), smallest level first. */
        for (int64_t s = 1; s <= lmax; s++) {
            int64_t idx = s - 1;
            int someone_behind = 0;
            int nobody_far_ahead = 1;
            for (int64_t k = 0; k < count; k++) {
                if (levels[k] < s)
                    continue;
                real ahead = aheads[k];
                int64_t base = tids[k] * 4 * n_levels;
                if (-ahead >= thr[base + 2 * n_levels + idx])
                    someone_behind = 1;
                if (ahead > thr[base + 3 * n_levels + idx])
                    nobody_far_ahead = 0;
            }
            if (!someone_behind)
                break;
            if (nobody_far_ahead)
                return 0;
        }
        /* Fast mode trigger (Definition 4.5). */
        for (int64_t s = 1; s <= lmax; s++) {
            int64_t idx = s - 1;
            int someone_ahead = 0;
            int nobody_far_behind = 1;
            for (int64_t k = 0; k < count; k++) {
                if (levels[k] < s)
                    continue;
                real ahead = aheads[k];
                int64_t base = tids[k] * 4 * n_levels;
                if (ahead >= thr[base + idx])
                    someone_ahead = 1;
                if (-ahead > thr[base + n_levels + idx])
                    nobody_far_behind = 0;
            }
            if (!someone_ahead)
                break;
            if (nobody_far_behind)
                return 1;
        }
    }
    /* Max estimate triggers (Definition 4.7). */
    {
        real lag = m - lg;
        if (lag <= 1e-9)
            return 0;
        if (lag >= iota_v)
            return 1;
    }
    return 2;
}

/* `mt_state` holds the 624 state words followed by the position;
 * `out_counts` receives (messages left over, slot high-water mark, sent,
 * delivered).  Bucket lists are pushed at their head, so both a step's
 * deliveries and the leftovers come out in push order, whatever slots the
 * free list handed out. */
int64_t fused_segment(
    int64_t n_nodes, int64_t steps, double dt, const double *t_steps,
    real *hardware, real *logical, real *last_hardware, real *max_estimate,
    real *next_broadcast, real *multiplier, int64_t *mode, real iota,
    real fast_mult, real max_factor, const real *rates, real interval,
    int64_t strat, const int64_t *indptr, const int64_t *nbr,
    const real *eps, const int64_t *level, const int64_t *table_id,
    const real *thresholds, int64_t n_levels, const int64_t *sb_indptr,
    const int64_t *sb_recv, const double *sb_bound, const double *sb_static,
    int64_t uniform_delay, double low, double span, int64_t *mt_state,
    int64_t n_pend, const int64_t *pend_recv, const real *pend_val,
    const double *pend_time, int64_t cap_total, int64_t *bh_head,
    int64_t *bh_next, int64_t *b_recv, real *b_val, double *b_time,
    int64_t n_snap, const int64_t *snap_step, real *snap_logical,
    real *snap_hardware, real *snap_multiplier, real *snap_max_estimate,
    int64_t *snap_mode, int64_t *left_recv, real *left_val,
    double *left_time, int64_t *out_counts, real *ahead_scratch,
    int64_t *level_scratch, int64_t *tid_scratch) {
    /* Hoist the per-edge constants out of the step loop: levels and table
     * membership cannot change mid-segment, so filter each row down to its
     * discovered (level >= 1) edges once and resolve per-row homogeneity
     * (single table + single level) here instead of per node per step. */
    int64_t status = 0;
    int64_t n_edges = indptr[n_nodes];
    int64_t *f_indptr = (int64_t *)malloc((size_t)(n_nodes + 1) * sizeof(int64_t));
    int64_t *f_nbr = (int64_t *)malloc((size_t)(n_edges > 0 ? n_edges : 1) * sizeof(int64_t));
    real *f_eps = (real *)malloc((size_t)(n_edges > 0 ? n_edges : 1) * sizeof(real));
    int64_t *f_lvl = (int64_t *)malloc((size_t)(n_edges > 0 ? n_edges : 1) * sizeof(int64_t));
    int64_t *f_tid = (int64_t *)malloc((size_t)(n_edges > 0 ? n_edges : 1) * sizeof(int64_t));
    int64_t *row_uniform = (int64_t *)malloc((size_t)(n_nodes > 0 ? n_nodes : 1) * sizeof(int64_t));
    int64_t *row_tid = (int64_t *)malloc((size_t)(n_nodes > 0 ? n_nodes : 1) * sizeof(int64_t));
    int64_t *row_lvl = (int64_t *)malloc((size_t)(n_nodes > 0 ? n_nodes : 1) * sizeof(int64_t));
    if (!f_indptr || !f_nbr || !f_eps || !f_lvl || !f_tid || !row_uniform ||
        !row_tid || !row_lvl) {
        status = 2;
        goto done;
    }
    {
        int64_t fpos = 0;
        for (int64_t i = 0; i < n_nodes; i++) {
            f_indptr[i] = fpos;
            int64_t utid = 0;
            int64_t ulvl = 0;
            int64_t uni = 1;
            for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
                int64_t lv = level[k];
                if (lv < 1)
                    continue;
                if (fpos == f_indptr[i]) {
                    utid = table_id[k];
                    ulvl = lv;
                } else if (table_id[k] != utid || lv != ulvl) {
                    uni = 0;
                }
                f_nbr[fpos] = nbr[k];
                f_eps[fpos] = eps[k];
                f_lvl[fpos] = lv;
                f_tid[fpos] = table_id[k];
                fpos++;
            }
            row_uniform[i] = uni;
            row_tid[i] = utid;
            row_lvl[i] = ulvl;
        }
        f_indptr[n_nodes] = fpos;
    }
    for (int64_t j = 0; j < steps + 1; j++)
        bh_head[j] = -1;
    int64_t used = 0;
    int64_t free_head = -1;
    /* Bucket the messages already in flight at segment start. */
    for (int64_t p = 0; p < n_pend; p++) {
        double dtime = pend_time[p];
        int64_t jd = delivery_step(t_steps, 0, steps, dtime);
        if (used >= cap_total) {
            status = 1;
            goto done;
        }
        b_recv[used] = pend_recv[p];
        b_val[used] = pend_val[p];
        b_time[used] = dtime;
        bh_next[used] = bh_head[jd];
        bh_head[jd] = used;
        used++;
    }
    int64_t sp = 0;
    int64_t sent = 0;
    int64_t delivered = 0;
    for (int64_t j = 0; j < steps; j++) {
        double t = t_steps[j];
        /* -- broadcast delivery (VecEngine._deliver_broadcasts) -------- */
        for (int64_t msg = bh_head[j]; msg != -1;) {
            int64_t next = bh_next[msg];
            int64_t r = b_recv[msg];
            real v = b_val[msg];
            if (v > max_estimate[r])
                max_estimate[r] = v;
            delivered++;
            bh_next[msg] = free_head;
            free_head = msg;
            msg = next;
        }
        /* -- per-node control phases, fused ----------------------------
         * Max-estimate advance, broadcast send and trigger evaluation all
         * touch disjoint per-node state (evaluation reads neighbours'
         * logical clocks, which only the clock phase writes), so one pass
         * per node preserves the exact position-ascending order of every
         * write and rng draw while walking the state columns once per step
         * instead of three times. */
        for (int64_t i = 0; i < n_nodes; i++) {
            /* max estimate maintenance (MaxEstimateTracker.advance) */
            real hw = hardware[i];
            real delta = hw - last_hardware[i];
            if (delta < 0.0)
                delta = 0.0;
            last_hardware[i] = hw;
            real m = max_estimate[i] + delta * max_factor;
            real lg = logical[i];
            if (lg > m)
                m = lg;
            max_estimate[i] = m;
            /* broadcast send */
            if (hw + 1e-12 >= next_broadcast[i]) {
                next_broadcast[i] = hw + interval;
                int64_t k0 = sb_indptr[i];
                int64_t k1 = sb_indptr[i + 1];
                for (int64_t k = k0; k < k1; k++) {
                    double d;
                    if (uniform_delay) {
                        double raw = mt_res53(mt_state, &mt_state[624]);
                        double bound = sb_bound[k];
                        d = (low + span * raw) * bound;
                        if (d > bound)
                            d = bound;
                    } else {
                        d = sb_static[k];
                    }
                    double dtime = t + d;
                    int64_t jd = delivery_step(t_steps, j + 1, steps, dtime);
                    int64_t slot = free_head;
                    if (slot != -1) {
                        free_head = bh_next[slot];
                    } else {
                        if (used >= cap_total) {
                            status = 1;
                            goto done;
                        }
                        slot = used++;
                    }
                    b_recv[slot] = sb_recv[k];
                    b_val[slot] = m;
                    b_time[slot] = dtime;
                    bh_next[slot] = bh_head[jd];
                    bh_head[jd] = slot;
                }
                sent += k1 - k0;
            }
            /* oracle estimates + trigger evaluation */
            int64_t k0 = f_indptr[i];
            int64_t k1 = f_indptr[i + 1];
            int64_t mc;
            if (row_uniform[i]) {
                real amin = (real)INFINITY;
                real amax = (real)-INFINITY;
                for (int64_t k = k0; k < k1; k++) {
                    real tv = logical[f_nbr[k]];
                    real est;
                    if (strat == 0) { /* zero error */
                        est = tv;
                    } else if (strat == 4) { /* toward_observer */
                        real epsv = f_eps[k];
                        if (epsv == 0.0) {
                            est = tv;
                        } else {
                            real diff = lg - tv;
                            real err;
                            if (diff > 0.0)
                                err = diff < epsv ? diff : epsv;
                            else
                                err = diff > -epsv ? diff : -epsv;
                            est = tv + err;
                            if (est < 0.0)
                                est = 0.0;
                        }
                    } else if (strat == 2) { /* underestimate */
                        real epsv = f_eps[k];
                        est = epsv == 0.0 ? tv : tv - epsv;
                        if (est < 0.0)
                            est = 0.0;
                    } else { /* 3: overestimate */
                        est = tv + f_eps[k];
                    }
                    real a = est - lg;
                    if (a < amin)
                        amin = a;
                    if (a > amax)
                        amax = a;
                }
                mc = evaluate_mode_uniform(lg, m, iota,
                                           amin, amax, row_lvl[i],
                                           row_tid[i], thresholds,
                                           n_levels);
            } else {
                int64_t count = 0;
                for (int64_t k = k0; k < k1; k++) {
                    real tv = logical[f_nbr[k]];
                    real est;
                    if (strat == 0) { /* zero error */
                        est = tv;
                    } else if (strat == 4) { /* toward_observer */
                        real epsv = f_eps[k];
                        if (epsv == 0.0) {
                            est = tv;
                        } else {
                            real diff = lg - tv;
                            real err;
                            if (diff > 0.0)
                                err = diff < epsv ? diff : epsv;
                            else
                                err = diff > -epsv ? diff : -epsv;
                            est = tv + err;
                            if (est < 0.0)
                                est = 0.0;
                        }
                    } else if (strat == 2) { /* underestimate */
                        real epsv = f_eps[k];
                        est = epsv == 0.0 ? tv : tv - epsv;
                        if (est < 0.0)
                            est = 0.0;
                    } else { /* 3: overestimate */
                        est = tv + f_eps[k];
                    }
                    ahead_scratch[count] = est - lg;
                    level_scratch[count] = f_lvl[k];
                    tid_scratch[count] = f_tid[k];
                    count++;
                }
                mc = evaluate_mode(lg, m, iota, count,
                                   ahead_scratch, level_scratch,
                                   tid_scratch, thresholds, n_levels);
            }
            if (mc == 0) {
                multiplier[i] = 1.0;
                mode[i] = 0;
            } else if (mc == 1) {
                multiplier[i] = fast_mult;
                mode[i] = 1;
            }
            /* mc == 2 ("free"): keep the current mode and multiplier. */
        }
        /* -- trace snapshots ------------------------------------------- */
        if (sp < n_snap && snap_step[sp] == j) {
            int64_t off = sp * n_nodes;
            for (int64_t i = 0; i < n_nodes; i++) {
                int64_t d = off + i;
                snap_logical[d] = logical[i];
                snap_hardware[d] = hardware[i];
                snap_multiplier[d] = multiplier[i];
                snap_max_estimate[d] = max_estimate[i];
                snap_mode[d] = mode[i];
            }
            sp++;
        }
        /* -- clock advancement ----------------------------------------- */
        for (int64_t i = 0; i < n_nodes; i++) {
            hardware[i] += rates[i] * dt;
            logical[i] += (rates[i] * multiplier[i]) * dt;
        }
    }
    /* Compact the messages that outlive the segment. */
    {
        int64_t nleft = 0;
        for (int64_t msg = bh_head[steps]; msg != -1; msg = bh_next[msg]) {
            left_recv[nleft] = b_recv[msg];
            left_val[nleft] = b_val[msg];
            left_time[nleft] = b_time[msg];
            nleft++;
        }
        out_counts[0] = nleft;
        out_counts[1] = used;
        out_counts[2] = sent;
        out_counts[3] = delivered;
    }
done:
    free(f_indptr);
    free(f_nbr);
    free(f_eps);
    free(f_lvl);
    free(f_tid);
    free(row_uniform);
    free(row_tid);
    free(row_lvl);
    return status;
}
