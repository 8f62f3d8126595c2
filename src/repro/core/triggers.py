"""Fast and slow mode triggers (Definitions 4.5, 4.6 and 4.7).

The triggers are the *implementable* counterparts of the fast/slow mode
conditions FC and SC: they are expressed in terms of the clock estimates a
node actually has, and they compensate for the estimate error so that the
conditions (stated on true clock values) are implied (Lemma 5.2).

The functions here are pure: they take the node's own logical clock, the
per-level neighbor views and the algorithm parameters, and report whether a
trigger fires (and on which level).  This keeps them independently testable
and lets the verification tooling re-evaluate them on recorded snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..network.edge import NodeId
from .parameters import Parameters


@dataclass(frozen=True)
class NeighborView:
    """What a node knows about one neighbor when evaluating its triggers."""

    neighbor: NodeId
    estimate: float
    kappa: float
    epsilon: float
    tau: float
    delta: float
    level: int

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.epsilon < 0.0 or self.tau < 0.0 or self.delta < 0.0:
            raise ValueError("epsilon, tau and delta must be non-negative")
        if self.level < 0:
            raise ValueError("levels are non-negative")


def views_at_level(views: Iterable[NeighborView], level: int) -> List[NeighborView]:
    """Neighbors that belong to ``N^level_u`` (their level is at least s)."""
    return [view for view in views if view.level >= level]


def _someone_ahead(
    logical: float, level: int, level_views: Iterable[NeighborView]
) -> bool:
    """Existential clause of Definition 4.5 on level ``s``."""
    for view in level_views:
        if view.estimate - logical >= level * view.kappa - view.epsilon:
            return True
    return False


def _nobody_far_behind(
    logical: float, level: int, level_views: Iterable[NeighborView], params: Parameters
) -> bool:
    """Universal clause of Definition 4.5 on level ``s``."""
    mu = params.mu
    for view in level_views:
        if not (
            logical - view.estimate
            <= level * view.kappa + 2.0 * mu * view.tau + view.epsilon
        ):
            return False
    return True


def _someone_behind(
    logical: float, level: int, level_views: Iterable[NeighborView]
) -> bool:
    """Existential clause of Definition 4.6 on level ``s``."""
    for view in level_views:
        if (
            logical - view.estimate
            >= (level + 0.5) * view.kappa - view.delta - view.epsilon
        ):
            return True
    return False


def _nobody_far_ahead(
    logical: float, level: int, level_views: Iterable[NeighborView], params: Parameters
) -> bool:
    """Universal clause of Definition 4.6 on level ``s``."""
    mu = params.mu
    rho = params.rho
    for view in level_views:
        if not (
            view.estimate - logical
            <= (level + 0.5) * view.kappa
            + view.delta
            + view.epsilon
            + mu * (1.0 + rho) * view.tau
        ):
            return False
    return True


def fast_trigger_at_level(
    logical: float, level: int, level_views: Sequence[NeighborView], params: Parameters
) -> bool:
    """Definition 4.5 for a fixed level ``s``.

    Fires when some neighbor's estimate is at least ``s * kappa - epsilon``
    ahead and no neighbor's estimate is more than
    ``s * kappa + 2 * mu * tau + epsilon`` behind.
    """
    if level < 1:
        raise ValueError("trigger levels start at 1")
    return _someone_ahead(logical, level, level_views) and _nobody_far_behind(
        logical, level, level_views, params
    )


def slow_trigger_at_level(
    logical: float, level: int, level_views: Sequence[NeighborView], params: Parameters
) -> bool:
    """Definition 4.6 for a fixed level ``s``.

    Fires when some neighbor's estimate is at least
    ``(s + 1/2) * kappa - delta - epsilon`` behind and no neighbor's estimate
    is more than ``(s + 1/2) * kappa + delta + epsilon + mu (1 + rho) tau``
    ahead.
    """
    if level < 1:
        raise ValueError("trigger levels start at 1")
    return _someone_behind(logical, level, level_views) and _nobody_far_ahead(
        logical, level, level_views, params
    )


def fast_trigger_level(
    logical: float,
    views: Sequence[NeighborView],
    params: Parameters,
    max_level: int,
) -> Optional[int]:
    """Smallest level on which the fast mode trigger fires, or ``None``."""
    level_views = views_at_level(views, 1)
    for level in range(1, max_level + 1):
        # ``s * kappa - epsilon`` does not decrease in ``s`` (kappa > 0) and
        # ``N^{s+1}_u`` is a subset of ``N^s_u``: once nobody is ahead on a
        # level, nobody is ahead on any higher one, so the scan stops.
        if not _someone_ahead(logical, level, level_views):
            break
        if _nobody_far_behind(logical, level, level_views, params):
            return level
        level_views = views_at_level(level_views, level + 1)
    return None


def slow_trigger_level(
    logical: float,
    views: Sequence[NeighborView],
    params: Parameters,
    max_level: int,
) -> Optional[int]:
    """Smallest level on which the slow mode trigger fires, or ``None``."""
    level_views = views_at_level(views, 1)
    for level in range(1, max_level + 1):
        # ``(s + 1/2) * kappa - delta - epsilon`` does not decrease in ``s``
        # (kappa > 0) and ``N^{s+1}_u`` is a subset of ``N^s_u``: once nobody
        # is behind on a level, nobody is behind on any higher one.
        if not _someone_behind(logical, level, level_views):
            break
        if _nobody_far_ahead(logical, level, level_views, params):
            return level
        level_views = views_at_level(level_views, level + 1)
    return None


@dataclass(frozen=True)
class TriggerDecision:
    """Outcome of evaluating all triggers for a node."""

    mode: str  # "fast", "slow" or "free"
    level: Optional[int] = None
    reason: str = ""


def evaluate_triggers(
    logical: float,
    max_estimate: float,
    views: Sequence[NeighborView],
    params: Parameters,
    max_level: int,
    *,
    equality_tolerance: float = 1e-9,
) -> TriggerDecision:
    """Full mode logic of Listing 3.

    The slow trigger takes precedence, then the fast trigger, then the max
    estimate triggers (Definition 4.7).  When none applies the decision is
    ``"free"`` and the caller keeps its current mode.
    """
    slow_level = slow_trigger_level(logical, views, params, max_level)
    if slow_level is not None:
        return TriggerDecision("slow", slow_level, "slow mode trigger")
    fast_level = fast_trigger_level(logical, views, params, max_level)
    if fast_level is not None:
        return TriggerDecision("fast", fast_level, "fast mode trigger")
    lag = max_estimate - logical
    if lag <= equality_tolerance:
        return TriggerDecision("slow", None, "max estimate trigger (L = M)")
    if lag >= params.iota:
        return TriggerDecision("fast", None, "max estimate trigger (L <= M - iota)")
    return TriggerDecision("free", None, "no trigger")
