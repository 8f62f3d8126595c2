"""Pure, allocation-light AOPT control-step kernels.

The object-oriented trigger evaluation of :mod:`repro.core.triggers` builds a
:class:`~repro.core.triggers.NeighborView` per neighbor and filters fresh
lists per level -- convenient for verification tooling, but far too much
allocation for a hot simulation loop.  This module provides the same decision
logic as plain functions over pre-filled flat arrays, so that array-based
backends (:mod:`repro.fastsim`) can evaluate the Listing 3 mode logic without
creating a single object per node per step.

Equivalence contract
--------------------

:func:`evaluate_mode_flat` returns exactly the mode that
:func:`repro.core.triggers.evaluate_triggers` would return for the same
inputs, bit for bit:

* the per-level thresholds produced by :func:`edge_threshold_table` are
  computed with the very float expressions of Definitions 4.5 and 4.6 as
  written in :mod:`repro.core.triggers`, so precomputing them does not change
  a single rounding;
* the level loops terminate early when the *existential* half of a trigger
  fails, which is sound because the thresholds never decrease with the level
  while the level-``s`` view sets only shrink (``N^s_u`` is a subset of
  ``N^{s-1}_u``); the reference scans of :mod:`repro.core.triggers` share
  this early exit, and ``test_level_scan_equals_exhaustive_scan`` in
  ``tests/test_properties.py`` holds both to the scan that evaluates every
  level.

Which rows scan, which collapse
-------------------------------

:func:`evaluate_mode_flat` is the only evaluator that scans neighbors x
levels.  The scalar engine keeps it for a row whose level >= 1 neighbors mix
levels or threshold tables (an edge mid-insertion, heterogeneous edges), for a
row without such a neighbor and for the ``uniform`` estimate strategy; every
other row goes through :func:`evaluate_mode_uniform`.  When a row's view sets
share one level ``L`` and one table, each of them *is* the row for ``s <= L``
and empty above, so ``any(a_k >= thr)`` is ``max(a_k) >= thr``, ``all(a_k <=
thr)`` is ``max(a_k) <= thr`` (negating a float is exact) and the trigger
needs the two extreme leads only; the early exit holds as before, since the
thresholds never decrease with the level.  ``vecsim/kernels.py``
(``row_thresholds``) and ``jitsim/_fused_loop.c::evaluate_mode_uniform``
hold the same collapse.

The differential suite (``tests/test_backend_equivalence.py``), the unit
tests in ``tests/test_fastsim_backend.py`` and
``test_uniform_row_collapse_equals_level_scan`` in ``tests/test_properties.py``
cross-check the implementations on randomized inputs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .parameters import Parameters

#: Mode codes returned by :func:`evaluate_mode_flat` / :func:`evaluate_mode_uniform`.
MODE_SLOW = 0
MODE_FAST = 1
MODE_FREE = 2

MODE_NAMES = ("slow", "fast", "free")
#: Each mode name's code (the inverse of :data:`MODE_NAMES`).
MODE_CODES = {name: code for code, name in enumerate(MODE_NAMES)}

#: A per-edge threshold table: four tuples (fast-ahead, fast-behind,
#: slow-behind, slow-ahead), each indexed by ``level - 1``.
ThresholdTable = Tuple[
    Tuple[float, ...], Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]
]


def edge_threshold_table(
    params: Parameters, epsilon: float, tau: float, max_level: int
) -> ThresholdTable:
    """Per-level trigger thresholds of one edge (Definitions 4.5 / 4.6).

    The expressions mirror :func:`repro.core.triggers.fast_trigger_at_level`
    and :func:`repro.core.triggers.slow_trigger_at_level` term for term, so
    the precomputed values are bit-identical to what the reference computes
    inline every step.
    """
    kappa = params.kappa_for(epsilon, tau)
    delta = params.delta_for(kappa, epsilon, tau)
    fast_ahead: List[float] = []
    fast_behind: List[float] = []
    slow_behind: List[float] = []
    slow_ahead: List[float] = []
    for level in range(1, max_level + 1):
        fast_ahead.append(level * kappa - epsilon)
        fast_behind.append(level * kappa + 2.0 * params.mu * tau + epsilon)
        slow_behind.append((level + 0.5) * kappa - delta - epsilon)
        slow_ahead.append(
            (level + 0.5) * kappa
            + delta
            + epsilon
            + params.mu * (1.0 + params.rho) * tau
        )
    return (
        tuple(fast_ahead),
        tuple(fast_behind),
        tuple(slow_behind),
        tuple(slow_ahead),
    )


def evaluate_mode_flat(
    logical: float,
    max_estimate: float,
    iota: float,
    count: int,
    aheads: Sequence[float],
    levels: Sequence[int],
    tables: Sequence[ThresholdTable],
    equality_tolerance: float = 1e-9,
) -> int:
    """Flat-array counterpart of :func:`repro.core.triggers.evaluate_triggers`.

    ``aheads[k]`` is ``estimate_k - logical`` (the neighbor's estimated lead),
    ``levels[k]`` its level already clamped to ``max_level`` (entries below
    level 1 must be filtered out by the caller), and ``tables[k]`` its
    :func:`edge_threshold_table`.  Only the first ``count`` entries of the
    scratch sequences are read, so callers can reuse preallocated buffers.

    Returns :data:`MODE_SLOW`, :data:`MODE_FAST` or :data:`MODE_FREE`.
    """
    if count:
        lmax = 0
        for k in range(count):
            lv = levels[k]
            if lv > lmax:
                lmax = lv
        # Slow mode trigger (Definition 4.6), smallest level first.
        for s in range(1, lmax + 1):
            idx = s - 1
            someone_behind = False
            nobody_far_ahead = True
            for k in range(count):
                if levels[k] < s:
                    continue
                ahead = aheads[k]
                table = tables[k]
                if -ahead >= table[2][idx]:
                    someone_behind = True
                if ahead > table[3][idx]:
                    nobody_far_ahead = False
            if not someone_behind:
                # The behind-threshold grows with s and the view set shrinks,
                # so no higher level can fire either.
                break
            if nobody_far_ahead:
                return MODE_SLOW
        # Fast mode trigger (Definition 4.5).
        for s in range(1, lmax + 1):
            idx = s - 1
            someone_ahead = False
            nobody_far_behind = True
            for k in range(count):
                if levels[k] < s:
                    continue
                ahead = aheads[k]
                table = tables[k]
                if ahead >= table[0][idx]:
                    someone_ahead = True
                if -ahead > table[1][idx]:
                    nobody_far_behind = False
            if not someone_ahead:
                break
            if nobody_far_behind:
                return MODE_FAST
    # Max estimate triggers (Definition 4.7).
    lag = max_estimate - logical
    if lag <= equality_tolerance:
        return MODE_SLOW
    if lag >= iota:
        return MODE_FAST
    return MODE_FREE


def evaluate_mode_uniform(
    logical: float,
    max_estimate: float,
    iota: float,
    amin: float,
    amax: float,
    level: int,
    table: ThresholdTable,
    equality_tolerance: float = 1e-9,
) -> int:
    """:func:`evaluate_mode_flat` for neighbors that share one level and one table.

    ``amin`` / ``amax`` are the smallest and the largest ``estimate_k -
    logical`` among them (``inf`` / ``-inf`` when there is none: both
    existential halves then fail at level 1 and Definition 4.7 decides).
    Python twin of ``evaluate_mode_uniform`` in ``jitsim/_fused_loop.c``.
    """
    fast_ahead, fast_behind, slow_behind, slow_ahead = table
    behind = -amin
    idx = 0
    while idx < level and behind >= slow_behind[idx]:
        if amax <= slow_ahead[idx]:
            return MODE_SLOW
        idx += 1
    idx = 0
    while idx < level and amax >= fast_ahead[idx]:
        if behind <= fast_behind[idx]:
            return MODE_FAST
        idx += 1
    lag = max_estimate - logical
    if lag <= equality_tolerance:
        return MODE_SLOW
    if lag >= iota:
        return MODE_FAST
    return MODE_FREE
