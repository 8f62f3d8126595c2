"""Reference fast/slow/max-estimate conditions (Definitions 4.1, 4.2, 4.4).

These conditions are stated on the *true* clock values of a node and its
level-``s`` neighbors; they are what the analysis of the paper reasons about,
while the triggers of :mod:`repro.core.triggers` are what nodes can actually
evaluate.  Lemma 5.2 shows the triggers implement the conditions; the test
suite and the invariant benchmark (E10) re-check this relationship on recorded
simulation states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..network.edge import NodeId
from .parameters import Parameters


@dataclass(frozen=True)
class TrueNeighborState:
    """True clock value of a level-annotated neighbor (omniscient view)."""

    neighbor: NodeId
    logical: float
    kappa: float
    tau: float
    level: int

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be non-negative")


def _at_level(states: Iterable[TrueNeighborState], level: int) -> List[TrueNeighborState]:
    return [state for state in states if state.level >= level]


def fast_condition_requires_fast(
    logical: float,
    states: Sequence[TrueNeighborState],
    params: Parameters,
    max_level: int,
) -> Optional[int]:
    """FC (Definition 4.1): level on which the node *must* be fast, if any."""
    for level in range(1, max_level + 1):
        level_states = _at_level(states, level)
        if not level_states:
            break
        someone_ahead = any(
            state.logical - logical >= level * state.kappa for state in level_states
        )
        nobody_far_behind = all(
            logical - state.logical <= level * state.kappa + 2.0 * params.mu * state.tau
            for state in level_states
        )
        if someone_ahead and nobody_far_behind:
            return level
    return None


def slow_condition_requires_slow(
    logical: float,
    states: Sequence[TrueNeighborState],
    params: Parameters,
    max_level: int,
    delta: float,
) -> Optional[int]:
    """SC (Definition 4.2): level on which the node *must* be slow, if any.

    ``delta`` is the network-wide slack ``min_e delta_e`` used in the
    definition (Lemma 5.2 shows any positive value below the per-edge slacks
    works).
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    for level in range(1, max_level + 1):
        level_states = _at_level(states, level)
        if not level_states:
            break
        someone_behind = any(
            logical - state.logical >= (level + 0.5) * state.kappa - delta
            for state in level_states
        )
        nobody_far_ahead = all(
            state.logical - logical
            <= (level + 0.5) * state.kappa
            + delta
            + params.mu * (1.0 + params.rho) * state.tau
            for state in level_states
        )
        if someone_behind and nobody_far_ahead:
            return level
    return None


@dataclass(frozen=True)
class MaxConditionResult:
    """Outcome of evaluating MC (Definition 4.4)."""

    requires_slow: bool
    requires_fast: bool


def max_estimate_condition(
    logical: float,
    max_estimate: float,
    neighbor_logicals: Sequence[float],
    params: Parameters,
    *,
    tolerance: float = 1e-9,
) -> MaxConditionResult:
    """MC (Definition 4.4) on true values.

    * slow is required when ``L = M`` and the node is (weakly) ahead of every
      neighbor;
    * fast is required when ``L <= M - iota`` and the node is (weakly) behind
      every neighbor.
    """
    ahead_of_all = all(logical >= other - tolerance for other in neighbor_logicals)
    behind_all = all(logical <= other + tolerance for other in neighbor_logicals)
    requires_slow = abs(max_estimate - logical) <= tolerance and ahead_of_all
    requires_fast = (max_estimate - logical >= params.iota - tolerance) and behind_all
    return MaxConditionResult(requires_slow=requires_slow, requires_fast=requires_fast)


def conditions_conflict(
    logical: float,
    states: Sequence[TrueNeighborState],
    params: Parameters,
    max_level: int,
    delta: float,
) -> bool:
    """True when FC and SC simultaneously require fast *and* slow mode.

    The paper proves (implicitly, through Lemma 5.3 and the choice of the
    trigger constants) that this never happens; the invariant benchmark E10
    counts violations over randomized runs (and should always report zero).
    """
    fast_level = fast_condition_requires_fast(logical, states, params, max_level)
    slow_level = slow_condition_requires_slow(logical, states, params, max_level, delta)
    return fast_level is not None and slow_level is not None


def condition_4_3_holds(
    max_estimate: float,
    own_logical: float,
    true_max_logical: float,
    dynamic_diameter: float,
    *,
    tolerance: float = 1e-6,
) -> bool:
    """Condition 4.3: ``L_u <= M_u <= max L_v`` and ``M_u >= max L_v - D(t)``."""
    if max_estimate > true_max_logical + tolerance:
        return False
    if max_estimate < own_logical - tolerance:
        return False
    if max_estimate < true_max_logical - dynamic_diameter - tolerance:
        return False
    return True
