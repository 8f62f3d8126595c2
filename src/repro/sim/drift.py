"""Hardware clock drift models.

The adversary of the paper controls the hardware clock rates, subject only to
``h_u(t) in [1 - rho, 1 + rho]``.  A drift model maps ``(node, time)`` to a
rate in that interval.  Besides benign models (constant offsets, bounded
random walks) this module provides the adversarial strategies used by the
lower-bound constructions:

* :class:`TwoGroupAdversary` -- one group of nodes runs fast, the other slow,
  optionally swapping periodically; this is the classical way to accumulate
  ``Theta(rho * t)`` skew across a cut.
* :class:`RampAdversary` -- rates increase linearly with the node index, which
  spreads skew evenly along a line and stresses the gradient property on every
  prefix path.
* :class:`SurpriseSwapAdversary` -- behaves identically to a benign model up
  to a switch time and adversarially afterwards; used to show that skew can be
  "hidden" from the algorithm (Section 8).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Optional, Sequence

from ..network.edge import NodeId


class DriftError(ValueError):
    """Raised when a drift model is configured inconsistently."""


class DriftModel:
    """Base class: returns the hardware rate of a node at a given time.

    ``rate_epoch`` declares the model's time structure to the engines that
    keep a rate column: ``math.inf`` when no rate ever changes, ``e`` when
    every rate is constant on each ``[k*e, (k+1)*e)``, and ``None`` (the
    default) when only calling :meth:`rate` every step is exact.  A subclass
    that overrides :meth:`rate` without redeclaring it gets ``None``.
    """

    rate_epoch: Optional[float] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "rate" in cls.__dict__ and "rate_epoch" not in cls.__dict__:
            cls.rate_epoch = None

    def __init__(self, rho: float):
        if not 0.0 <= rho < 1.0:
            raise DriftError(f"rho must lie in [0, 1), got {rho}")
        self.rho = float(rho)

    def rate(self, node: NodeId, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def clamp(self, rate: float) -> float:
        """Clamp a proposed rate into the legal interval."""
        return min(1.0 + self.rho, max(1.0 - self.rho, rate))


class NoDrift(DriftModel):
    """All hardware clocks run at exactly rate 1."""

    rate_epoch = math.inf

    def rate(self, node: NodeId, t: float) -> float:
        return 1.0


class ConstantDrift(DriftModel):
    """Each node has a fixed rate offset in ``[-rho, +rho]``."""

    rate_epoch = math.inf

    def __init__(self, rho: float, offsets: Dict[NodeId, float]):
        super().__init__(rho)
        for node, offset in offsets.items():
            if abs(offset) > rho + 1e-12:
                raise DriftError(
                    f"offset {offset} of node {node} exceeds rho = {rho}"
                )
        self.offsets = dict(offsets)

    def rate(self, node: NodeId, t: float) -> float:
        return 1.0 + self.offsets.get(node, 0.0)


class RandomConstantDrift(ConstantDrift):
    """Each node draws a fixed random offset uniformly from ``[-rho, rho]``."""

    def __init__(self, rho: float, nodes: Iterable[NodeId], seed: Optional[int] = None):
        rng = random.Random(seed)
        offsets = {node: rng.uniform(-rho, rho) for node in nodes}
        super().__init__(rho, offsets)


class RandomWalkDrift(DriftModel):
    """Rates perform a bounded random walk, re-sampled every ``period``."""

    def __init__(
        self,
        rho: float,
        nodes: Iterable[NodeId],
        *,
        period: float = 10.0,
        step: float = None,
        seed: Optional[int] = None,
    ):
        super().__init__(rho)
        if period <= 0.0:
            raise DriftError("period must be positive")
        self.period = float(period)
        self.step = float(step) if step is not None else rho / 4.0
        self._rng = random.Random(seed)
        self._nodes = sorted(set(nodes))
        self._offsets: Dict[NodeId, float] = {n: 0.0 for n in self._nodes}
        self._epoch = -1

    def _advance_epochs(self, epoch: int) -> None:
        while self._epoch < epoch:
            self._epoch += 1
            for node in self._nodes:
                delta = self._rng.uniform(-self.step, self.step)
                offset = self._offsets[node] + delta
                self._offsets[node] = max(-self.rho, min(self.rho, offset))

    @property
    def rate_epoch(self) -> float:
        return self.period

    def rate(self, node: NodeId, t: float) -> float:
        self._advance_epochs(int(t // self.period))
        return 1.0 + self._offsets.get(node, 0.0)


class TwoGroupAdversary(DriftModel):
    """Fast group at ``1 + rho``, slow group at ``1 - rho``; optional swapping."""

    def __init__(
        self,
        rho: float,
        fast_nodes: Iterable[NodeId],
        slow_nodes: Iterable[NodeId],
        *,
        swap_period: Optional[float] = None,
    ):
        super().__init__(rho)
        self.fast_nodes = set(fast_nodes)
        self.slow_nodes = set(slow_nodes)
        overlap = self.fast_nodes & self.slow_nodes
        if overlap:
            raise DriftError(f"nodes {sorted(overlap)} are both fast and slow")
        if swap_period is not None and swap_period <= 0.0:
            raise DriftError("swap_period must be positive when given")
        self.swap_period = swap_period

    @property
    def rate_epoch(self) -> float:
        return math.inf if self.swap_period is None else self.swap_period

    def _swapped(self, t: float) -> bool:
        if self.swap_period is None:
            return False
        return int(t // self.swap_period) % 2 == 1

    def rate(self, node: NodeId, t: float) -> float:
        fast = node in self.fast_nodes
        slow = node in self.slow_nodes
        if self._swapped(t):
            fast, slow = slow, fast
        if fast:
            return 1.0 + self.rho
        if slow:
            return 1.0 - self.rho
        return 1.0


class RampAdversary(DriftModel):
    """Rates increase linearly with node index from ``1 - rho`` to ``1 + rho``."""

    def __init__(self, rho: float, nodes: Sequence[NodeId], *, reverse_period: Optional[float] = None):
        super().__init__(rho)
        ordered = list(nodes)
        if not ordered:
            raise DriftError("RampAdversary needs at least one node")
        self._order = {node: i for i, node in enumerate(ordered)}
        self._count = len(ordered)
        if reverse_period is not None and reverse_period <= 0.0:
            raise DriftError("reverse_period must be positive when given")
        self.reverse_period = reverse_period

    @property
    def rate_epoch(self) -> float:
        return math.inf if self.reverse_period is None else self.reverse_period

    def rate(self, node: NodeId, t: float) -> float:
        index = self._order.get(node)
        if index is None:
            return 1.0
        if self._count == 1:
            return 1.0
        frac = index / (self._count - 1)
        if self.reverse_period is not None and int(t // self.reverse_period) % 2 == 1:
            frac = 1.0 - frac
        return (1.0 - self.rho) + 2.0 * self.rho * frac


class SurpriseSwapAdversary(DriftModel):
    """Benign until ``switch_time``, then delegates to an adversarial model."""

    def __init__(self, rho: float, benign: DriftModel, adversarial: DriftModel, switch_time: float):
        super().__init__(rho)
        if switch_time < 0.0:
            raise DriftError("switch_time must be non-negative")
        self.benign = benign
        self.adversarial = adversarial
        self.switch_time = float(switch_time)

    def rate(self, node: NodeId, t: float) -> float:
        model = self.benign if t < self.switch_time else self.adversarial
        return self.clamp(model.rate(node, t))


class SinusoidalDrift(DriftModel):
    """Smoothly varying rates, phase-shifted per node (a benign stress test)."""

    def __init__(self, rho: float, period: float = 100.0):
        super().__init__(rho)
        if period <= 0.0:
            raise DriftError("period must be positive")
        self.period = float(period)

    def rate(self, node: NodeId, t: float) -> float:
        phase = 2.0 * math.pi * (t / self.period + 0.1 * node)
        return 1.0 + self.rho * math.sin(phase)


def half_split(nodes: Sequence[NodeId]) -> tuple:
    """Split a node sequence into (first half, second half) for adversaries."""
    ordered = list(nodes)
    mid = len(ordered) // 2
    return ordered[:mid], ordered[mid:]
