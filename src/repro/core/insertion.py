"""Edge insertion: handshake timing and insertion-time computation.

This module contains the *pure* parts of Listings 1 and 2: the waiting times
of the leader/follower handshake, the logical insertion anchor ``L_ins``, the
insertion duration ``I`` (static, equation (10), or dynamic, equation (11))
and the insertion schedule ``T^e_0 < T^e_1 < ... `` computed by
``computeInsertionTimes``.  The message-driven part of the protocol lives in
:mod:`repro.core.algorithm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List

from ..network.edge import EdgeParams, NodeId
from .parameters import ParameterError, Parameters


def leader_wait(params: Parameters, edge: EdgeParams) -> float:
    """The leader's waiting time ``Delta`` (Listing 1, line 1).

    ``Delta = (1+rho)(1+mu)(T + tau) / (1 - rho) + tau``.
    """
    return (
        (1.0 + params.rho) * (1.0 + params.mu) * (edge.delay + edge.tau)
        / (1.0 - params.rho)
        + edge.tau
    )


def follower_wait(params: Parameters, edge: EdgeParams) -> float:
    """The follower's waiting time after receiving ``insertedge`` (line 12).

    The follower must wait at least ``T + tau`` but at most ``Delta - tau``;
    we use the lower end of the window.
    """
    return edge.delay + edge.tau


def insertion_anchor(
    logical_now: float,
    global_skew_estimate: float,
    params: Parameters,
    edge: EdgeParams,
) -> float:
    """The logical anchor ``L_ins`` sent by the leader (Listing 1, line 8)."""
    if logical_now < 0.0:
        raise ParameterError("logical clock values are non-negative")
    if global_skew_estimate <= 0.0:
        raise ParameterError("the global skew estimate must be positive")
    return (
        logical_now
        + global_skew_estimate
        + (1.0 + params.rho) * (1.0 + params.mu) * edge.delay
    )


@dataclass
class InsertionSchedule:
    """The insertion times of one edge, as computed by Listing 2."""

    neighbor: NodeId
    global_skew_estimate: float
    duration: float
    anchor: float
    level_times: List[float] = field(default_factory=list)
    next_level: int = 1

    @property
    def final_time(self) -> float:
        """Logical time by which the edge is inserted on every level."""
        return self.anchor + self.duration

    def time_for_level(self, level: int) -> float:
        if not 1 <= level <= len(self.level_times):
            raise ParameterError(
                f"level {level} outside 1..{len(self.level_times)}"
            )
        return self.level_times[level - 1]

    def due_levels(self, logical_now: float) -> List[int]:
        """Levels whose insertion time has been reached (and not yet applied)."""
        due = []
        while (
            self.next_level <= len(self.level_times)
            and logical_now >= self.level_times[self.next_level - 1] - 1e-12
        ):
            due.append(self.next_level)
            self.next_level += 1
        return due

    def is_complete(self) -> bool:
        return self.next_level > len(self.level_times)


def compute_insertion_times(
    anchor_logical: float,
    duration: float,
    max_level: int,
    *,
    neighbor: NodeId,
    global_skew_estimate: float,
) -> InsertionSchedule:
    """``computeInsertionTimes`` of Listing 2.

    ``T_0`` is the smallest integer multiple of the insertion duration ``I``
    that is at least the anchor ``L``; level ``s`` is inserted at
    ``T_s = T_0 + (1 - 2**-(s-1)) * I``.
    """
    if anchor_logical < 0.0:
        raise ParameterError("the anchor is a logical time, hence non-negative")
    if duration <= 0.0:
        raise ParameterError(f"the insertion duration must be positive, got {duration}")
    if max_level < 1:
        raise ParameterError(f"max_level must be >= 1, got {max_level}")
    t0 = math.ceil(anchor_logical / duration - 1e-12) * duration
    level_times = [
        t0 + (1.0 - 2.0 ** (-(s - 1))) * duration for s in range(1, max_level + 1)
    ]
    return InsertionSchedule(
        neighbor=neighbor,
        global_skew_estimate=global_skew_estimate,
        duration=duration,
        anchor=t0,
        level_times=level_times,
    )


def static_insertion_duration(params: Parameters, global_skew_estimate: float) -> float:
    """Insertion duration for a static global skew estimate (equation (10))."""
    return params.insertion_duration(global_skew_estimate)


def dynamic_insertion_duration(
    params: Parameters, global_skew_estimate: float, edge: EdgeParams
) -> float:
    """Insertion duration for dynamic estimates (equation (11))."""
    return params.insertion_duration_dynamic(
        global_skew_estimate, edge.delay, edge.tau
    )


DurationFunction = Callable[[Parameters, float, EdgeParams], float]


def scaled_insertion_duration(factor: float) -> DurationFunction:
    """A duration function ``factor * (equation (10))``.

    The paper's constant in equation (10) is roughly ``20 / mu``, which makes
    full-scale simulations of the insertion process expensive.  Benchmarks may
    use a smaller constant factor -- the stabilization time stays
    ``Theta(G~ / mu)`` and therefore ``Theta(D)``, only the constant changes;
    EXPERIMENTS.md documents where this is done.
    """
    if factor <= 0.0:
        raise ParameterError(f"the scaling factor must be positive, got {factor}")

    def duration(params: Parameters, global_skew_estimate: float, _edge: EdgeParams) -> float:
        return factor * params.insertion_duration(global_skew_estimate)

    return duration


def paper_static_duration() -> DurationFunction:
    """The unscaled duration function of equation (10)."""

    def duration(params: Parameters, global_skew_estimate: float, _edge: EdgeParams) -> float:
        return params.insertion_duration(global_skew_estimate)

    return duration


def paper_dynamic_duration() -> DurationFunction:
    """The duration function of equation (11) for dynamic estimates."""

    def duration(params: Parameters, global_skew_estimate: float, edge: EdgeParams) -> float:
        return params.insertion_duration_dynamic(
            global_skew_estimate, edge.delay, edge.tau
        )

    return duration


def insertion_time_separation(
    duration_a: float, level_a: int, duration_b: float, level_b: int
) -> float:
    """Lower bound of Lemma 7.1 on ``|T^e_s - T^e'_s'|`` for distinct levels.

    Returns ``min(I_e, I_e') / (2**7 * 4**(min(s, s') - 2))``.
    """
    if duration_a <= 0.0 or duration_b <= 0.0:
        raise ParameterError("insertion durations must be positive")
    if level_a < 1 or level_b < 1:
        raise ParameterError("levels are positive integers")
    return min(duration_a, duration_b) / (
        (2.0 ** 7) * (4.0 ** (min(level_a, level_b) - 2))
    )
