"""Message delay models.

Every message sent over an edge ``{u, v}`` is delivered within the edge's
delay bound ``T_{u,v}``; the adversary picks the actual delay.  A delay model
maps ``(sender, receiver, time, bound)`` to a delay in ``[0, bound]``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Set, Tuple

from ..network.edge import NodeId


class DelayError(ValueError):
    """Raised when a delay model produces an out-of-range delay."""


class DelayModel:
    """Base class for message delay models.

    ``static`` declares that :meth:`delay` ignores ``t`` and draws nothing,
    so an engine may compute each edge's delay once and reuse it.  A subclass
    that overrides :meth:`delay` without redeclaring it is not static.
    """

    static = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "delay" in cls.__dict__ and "static" not in cls.__dict__:
            cls.static = False

    def delay(
        self, sender: NodeId, receiver: NodeId, t: float, bound: float
    ) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    @staticmethod
    def _check(delay: float, bound: float) -> float:
        if delay < 0.0 or delay > bound + 1e-12:
            raise DelayError(f"delay {delay} outside [0, {bound}]")
        return min(delay, bound)


class ZeroDelay(DelayModel):
    """Messages arrive instantaneously."""

    static = True

    def delay(self, sender: NodeId, receiver: NodeId, t: float, bound: float) -> float:
        return 0.0


class FixedFractionDelay(DelayModel):
    """Every message takes ``fraction * bound`` time."""

    static = True

    def __init__(self, fraction: float = 0.5):
        if not 0.0 <= fraction <= 1.0:
            raise DelayError(f"fraction must lie in [0, 1], got {fraction}")
        self.fraction = float(fraction)

    def delay(self, sender: NodeId, receiver: NodeId, t: float, bound: float) -> float:
        return self._check(self.fraction * bound, bound)


class UniformRandomDelay(DelayModel):
    """Delays drawn uniformly from ``[low_fraction, high_fraction] * bound``."""

    def __init__(
        self,
        low_fraction: float = 0.0,
        high_fraction: float = 1.0,
        seed: Optional[int] = None,
    ):
        if not 0.0 <= low_fraction <= high_fraction <= 1.0:
            raise DelayError(
                "need 0 <= low_fraction <= high_fraction <= 1, got "
                f"({low_fraction}, {high_fraction})"
            )
        self.low_fraction = float(low_fraction)
        self.high_fraction = float(high_fraction)
        self._rng = random.Random(seed)

    def delay(self, sender: NodeId, receiver: NodeId, t: float, bound: float) -> float:
        fraction = self._rng.uniform(self.low_fraction, self.high_fraction)
        return self._check(fraction * bound, bound)


class DirectionalDelay(DelayModel):
    """Adversarial strategy: maximal delay one way, minimal the other.

    Messages from lower-id to higher-id nodes take the full bound, the reverse
    direction is instantaneous.  Combined with the shifting argument this is
    how the ``Omega(D)`` global-skew lower bound hides skew from the
    algorithm.
    """

    static = True

    def __init__(self, slow_towards_higher: bool = True):
        self.slow_towards_higher = bool(slow_towards_higher)

    def delay(self, sender: NodeId, receiver: NodeId, t: float, bound: float) -> float:
        towards_higher = receiver > sender
        slow = towards_higher == self.slow_towards_higher
        return self._check(bound if slow else 0.0, bound)


class DelaySpikeStorm(DelayModel):
    """Windowed delay amplifier: periodic spike storms on chosen edges.

    Wraps an inner delay model and multiplies its delays by ``factor``
    during repeating storm windows ``[start + k*period, start + k*period +
    width)``.  ``edges`` restricts the storm to the given undirected pairs
    (``None`` = every edge).  Amplified delays are clamped to the edge's
    delay bound, so the model never violates the paper's delivery guarantee
    -- a storm degrades estimate quality to its admissible worst case rather
    than breaking the system model.
    """

    def __init__(
        self,
        inner: DelayModel,
        *,
        period: float,
        width: float,
        start: float = 0.0,
        factor: float = 4.0,
        edges: Optional[Iterable[Tuple[NodeId, NodeId]]] = None,
    ):
        if not isinstance(inner, DelayModel):
            raise DelayError("DelaySpikeStorm needs an inner DelayModel")
        if period <= 0.0:
            raise DelayError(f"storm period must be positive, got {period}")
        if not 0.0 < width <= period:
            raise DelayError(
                f"storm width must lie in (0, period={period}], got {width}"
            )
        if start < 0.0:
            raise DelayError(f"storm start must be non-negative, got {start}")
        if factor < 0.0:
            raise DelayError(f"storm factor must be non-negative, got {factor}")
        self.inner = inner
        self.period = float(period)
        self.width = float(width)
        self.start = float(start)
        self.factor = float(factor)
        self._edges: Optional[Set[Tuple[NodeId, NodeId]]] = None
        if edges is not None:
            self._edges = set()
            for pair in edges:
                u, v = pair
                self._edges.add((min(u, v), max(u, v)))

    def in_storm(self, t: float) -> bool:
        """Whether ``t`` falls inside a storm window."""
        if t < self.start:
            return False
        return (t - self.start) % self.period < self.width

    def affects(self, sender: NodeId, receiver: NodeId) -> bool:
        if self._edges is None:
            return True
        return (min(sender, receiver), max(sender, receiver)) in self._edges

    def delay(self, sender: NodeId, receiver: NodeId, t: float, bound: float) -> float:
        base = self.inner.delay(sender, receiver, t, bound)
        if self.in_storm(t) and self.affects(sender, receiver):
            return self._check(min(base * self.factor, bound), bound)
        return base


class CallableDelay(DelayModel):
    """Wrap an arbitrary function ``f(sender, receiver, t, bound) -> delay``."""

    def __init__(self, fn: Callable[[NodeId, NodeId, float, float], float]):
        if not callable(fn):
            raise DelayError("CallableDelay needs a callable")
        self._fn = fn

    def delay(self, sender: NodeId, receiver: NodeId, t: float, bound: float) -> float:
        return self._check(self._fn(sender, receiver, t, bound), bound)
