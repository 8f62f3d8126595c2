"""NumPy kernels for the vectorized simulation backend.

Each kernel is the whole-array counterpart of one phase of
:meth:`repro.fastsim.engine.FastEngine._control_all`, written so that every
per-element float operation is the *same IEEE-754 operation in the same
order* as the scalar code it replaces:

* :func:`advance_max_estimates` mirrors the ``MaxEstimateTracker.advance``
  expressions (``m = max_estimate + delta * factor``; ``m = lg if lg > m``);
* :func:`edge_aheads` mirrors the inlined oracle estimate strategies of the
  fast engine's control loop (elementwise per CSR entry);
* :func:`evaluate_modes_vec` mirrors :func:`repro.core.aopt_step
  .evaluate_mode_flat` for *all* nodes at once: the per-level existential /
  universal trigger conditions become masked per-edge comparisons reduced
  per CSR row, and the reference's per-node early exit (sound because the
  thresholds grow with the level while the view sets shrink) becomes a
  global loop that stops once *no* row has a neighbor beyond the
  existential threshold.

All comparisons are exact (no tolerance is introduced or dropped), so the
mode decisions -- and therefore the traces -- are bit-identical to the
reference and fast backends.  Max reductions are order-insensitive, so CSR
row order never matters.
"""

from __future__ import annotations

import numpy as np

#: Threshold table rows (same layout as ``aopt_step.ThresholdTable``).
THR_FAST_AHEAD = 0
THR_FAST_BEHIND = 1
THR_SLOW_BEHIND = 2
THR_SLOW_AHEAD = 3


def _firing_levels(
    values: np.ndarray,
    thresholds: np.ndarray,
    table_id: np.ndarray,
    table_count: int,
    row: int,
    side: str,
) -> np.ndarray:
    """Per-edge highest level at which one trigger half holds.

    ``thresholds[tid, row]`` is one nondecreasing per-level threshold
    sequence (padded with ``+inf``), so the levels satisfying
    ``value >= thr[s]`` (``side='right'``) or ``value > thr[s]``
    (``side='left'``) form a prefix whose length ``np.searchsorted`` counts
    with the *exact same comparisons* the scalar kernel performs level by
    level.
    """
    if table_count == 1:
        return np.searchsorted(thresholds[0, row], values, side=side)
    counts = np.empty(len(values), dtype=np.int64)
    for tid in range(table_count):
        selector = table_id == tid
        counts[selector] = np.searchsorted(
            thresholds[tid, row], values[selector], side=side
        )
    return counts


def advance_max_estimates(
    hardware: np.ndarray,
    last_hardware: np.ndarray,
    max_estimate: np.ndarray,
    logical: np.ndarray,
    factor: float,
    scratch: np.ndarray,
    flags: np.ndarray,
) -> None:
    """In-place max-estimate maintenance (``MaxEstimateTracker.advance``).

    ``scratch`` (float) and ``flags`` (bool) are reusable work arrays of the
    same length; every element operation matches the scalar tracker exactly.
    """
    np.subtract(hardware, last_hardware, out=scratch)  # delta
    np.less(scratch, 0.0, out=flags)
    np.copyto(scratch, 0.0, where=flags)
    np.copyto(last_hardware, hardware)
    np.multiply(scratch, factor, out=scratch)
    np.add(max_estimate, scratch, out=scratch)  # m = max_estimate + delta * factor
    np.greater(logical, scratch, out=flags)
    np.copyto(scratch, logical, where=flags)  # m = logical if logical > m
    np.copyto(max_estimate, scratch)


def broadcast_aheads(
    hardware: np.ndarray,
    logical: np.ndarray,
    stored_value: np.ndarray,
    stored_hw: np.ndarray,
    view,
) -> np.ndarray:
    """Per-CSR-entry ``estimate - logical`` for broadcast-mode estimates.

    Mirrors ``BroadcastEstimateLayer.estimate`` elementwise: the stored
    broadcast value extrapolated at the observer's hardware rate,
    ``stored + max(0.0, hw_now - stored_hw)``, from the engine's per-slot
    ``stored_value`` / ``stored_hw`` columns.  Slots without a stored
    broadcast (the engine's valid column false) produce finite garbage here
    and are masked out of the trigger evaluation by the caller.  The result
    aliases the view's scratch and is only valid until the next call.
    """
    owner = view.row_owner
    work = view.edge_f1
    np.take(hardware, owner, out=work)
    np.subtract(work, stored_hw, out=work)  # elapsed hardware
    np.maximum(work, 0.0, out=work)  # max(0.0, elapsed)
    np.add(stored_value, work, out=work)  # estimate
    owner_logical = np.take(logical, owner, out=view.edge_f2)
    return np.subtract(work, owner_logical, out=work)


def edge_aheads(strategy: int, logical: np.ndarray, view) -> np.ndarray:
    """Per-CSR-entry ``estimate - logical`` for the non-random strategies.

    Strategy codes follow ``fastsim.engine._STRATEGY_CODES``; the ``uniform``
    strategy (code 1) draws from a Python rng in set order and is filled by
    the engine instead (see ``VecEngine._fill_uniform_aheads``).  Work
    happens in the view's scratch buffers (``edge_f1`` / ``edge_f2`` /
    ``edge_f3`` / ``edge_b``) so the hot path allocates nothing; the result
    aliases one of them and is only valid until the next call.
    """
    epsilon = view.epsilon
    true_value = np.take(logical, view.neighbor_index, out=view.edge_f1)
    owner = np.take(logical, view.row_owner, out=view.edge_f2)
    work = view.edge_f3
    flags = view.edge_b
    if strategy == 0:  # zero error
        estimate = true_value
    elif strategy == 4:  # toward_observer
        np.subtract(owner, true_value, out=work)  # difference
        np.clip(work, view.neg_epsilon, epsilon, out=work)  # error
        np.add(true_value, work, out=work)  # estimate
        np.less(work, 0.0, out=flags)
        np.copyto(work, 0.0, where=flags)
        estimate = work
    elif strategy == 2:  # underestimate
        np.subtract(true_value, epsilon, out=work)
        np.less(work, 0.0, out=flags)
        np.copyto(work, 0.0, where=flags)
        estimate = work
    elif strategy == 3:  # overestimate
        np.add(true_value, epsilon, out=work)
        estimate = work
    else:  # pragma: no cover - guarded at engine construction
        raise ValueError(f"strategy {strategy} has no vectorized estimate rule")
    return np.subtract(estimate, owner, out=estimate if estimate is work else view.edge_f3)


def evaluate_modes_vec(
    view,
    ahead: np.ndarray,
    logical: np.ndarray,
    max_estimate: np.ndarray,
    iota: float,
    mode: np.ndarray,
    equality_tolerance: float = 1e-9,
    valid: np.ndarray = None,
) -> np.ndarray:
    """All-nodes counterpart of :func:`repro.core.aopt_step.evaluate_mode_flat`.

    The scalar kernel walks levels ``s = 1, 2, ...`` and fires a trigger at
    the first ``s`` where its existential half holds and its universal half
    is unviolated.  Because each per-edge threshold sequence is nondecreasing
    in ``s`` while the level-``s`` view sets only shrink, every half holds on
    a *prefix* of levels: per node, "someone is behind at ``s``" holds
    exactly for ``s <= B`` and "someone is too far ahead at ``s``" exactly
    for ``s <= F``, where ``B`` / ``F`` are row-maxima of the per-edge prefix
    lengths (clamped to the edge's own level).  ``exists s: behind(s) and
    not far(s)`` then collapses to ``B > F`` -- the whole level loop becomes
    four exact searchsorted/row-max passes and one comparison.

    ``view`` is the engine's CSR view (``edge_count``, ``level``, ``starts`` /
    ``empty``, ``thresholds`` of shape ``(T, 4, L)`` padded with ``+inf``,
    ``table_id``, and ``row_thresholds`` -- the per-row tables of shape
    ``(4, L)`` or ``(4, L, n)``, or ``None`` while some row mixes tables or
    holds an edge below its table's top level).  ``mode`` is the previous
    step's mode column (read for the "free" case only).  ``valid``
    (broadcast estimate mode) masks CSR entries whose pair has not stored a
    broadcast yet: the scalar engines leave such neighbors out of the
    trigger view entirely, which is exactly a firing level of 0 here.
    Returns the new mode codes.
    """
    n = len(logical)
    all_valid = valid is None or bool(valid.all())
    row_thresholds = view.row_thresholds
    if view.edge_count and row_thresholds is not None and all_valid:
        # Every row's edges share one threshold table and sit at that
        # table's top level: "someone beyond threshold" becomes a comparison
        # of the per-node extremum against the row's per-level threshold --
        # max commutes with the exact comparison, so this is the scalar
        # level loop verbatim, run on n-sized arrays with the same early
        # exit.  ``row_thresholds[half][s]`` is a scalar when every edge
        # shares one table and an n-vector otherwise; rows without edges
        # have ``-inf`` extrema, so they never fire.
        ahead_max = view.row_max_values(ahead)
        neg_max = view.row_max_values(np.negative(ahead, out=view.edge_f1))
        fast_ahead = row_thresholds[THR_FAST_AHEAD]
        fast_behind = row_thresholds[THR_FAST_BEHIND]
        slow_behind = row_thresholds[THR_SLOW_BEHIND]
        slow_ahead = row_thresholds[THR_SLOW_AHEAD]
        slow_fire = np.zeros(n, dtype=bool)
        fast_fire = np.zeros(n, dtype=bool)
        for s in range(view.max_level):
            someone_behind = neg_max >= slow_behind[s]
            if not someone_behind.any():
                break
            slow_fire |= someone_behind & (ahead_max <= slow_ahead[s])
        for s in range(view.max_level):
            someone_ahead = ahead_max >= fast_ahead[s]
            if not someone_ahead.any():
                break
            fast_fire |= someone_ahead & (neg_max <= fast_behind[s])
    elif view.edge_count:
        neg_ahead = -ahead
        level = view.level
        thresholds = view.thresholds
        table_id = view.table_id
        table_count = len(thresholds)
        # Per-edge prefix lengths of the four trigger halves, stacked so one
        # reduceat pass computes all four row-maxima.
        firing = np.stack(
            [
                _firing_levels(  # slow: someone at/beyond the behind threshold
                    neg_ahead, thresholds, table_id, table_count, THR_SLOW_BEHIND, "right"
                ),
                _firing_levels(  # slow: someone beyond the far-ahead threshold
                    ahead, thresholds, table_id, table_count, THR_SLOW_AHEAD, "left"
                ),
                _firing_levels(  # fast: someone at/beyond the ahead threshold
                    ahead, thresholds, table_id, table_count, THR_FAST_AHEAD, "right"
                ),
                _firing_levels(  # fast: someone beyond the far-behind threshold
                    neg_ahead, thresholds, table_id, table_count, THR_FAST_BEHIND, "left"
                ),
            ]
        )
        np.minimum(firing, level, out=firing)
        if not all_valid:
            np.copyto(firing, 0, where=~valid)
        rows = np.maximum.reduceat(firing, view.starts, axis=1)
        if view.empty.any():
            rows[:, view.empty] = 0
        # Slow trigger (Definition 4.6): fires at some level s iff s <= B
        # (behind) and s > F (far ahead), i.e. iff B > F; same for fast.
        slow_fire = rows[0] > rows[1]
        fast_fire = rows[2] > rows[3]
    else:
        slow_fire = np.zeros(n, dtype=bool)
        fast_fire = slow_fire
    # Max estimate triggers (Definition 4.7); "free" keeps the current mode.
    lag = max_estimate - logical
    return np.where(
        slow_fire,
        0,
        np.where(
            fast_fire,
            1,
            np.where(lag <= equality_tolerance, 0, np.where(lag >= iota, 1, mode)),
        ),
    )
