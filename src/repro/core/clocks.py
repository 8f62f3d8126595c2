"""Hardware and logical clocks.

Clocks in the paper are continuous, (left-)differentiable functions of real
time.  In the simulator they are piecewise linear: during a simulation step of
length ``dt`` a clock advances by ``rate * dt`` where the rate stays constant
within the step.  Both clock classes keep a small amount of history so that
tests and analyses can interpolate past values.
"""

from __future__ import annotations

from typing import List, Tuple


class ClockError(ValueError):
    """Raised on invalid clock operations (negative time, rate violations)."""


class _PiecewiseLinearClock:
    """Common machinery for piecewise linear clocks."""

    __slots__ = ("_value", "_time", "_history", "_record_history")

    def __init__(self, initial_value: float = 0.0, *, record_history: bool = False):
        if initial_value < 0.0:
            raise ClockError(f"clock values are non-negative, got {initial_value}")
        self._value = float(initial_value)
        self._time = 0.0
        self._record_history = bool(record_history)
        self._history: List[Tuple[float, float]] = [(0.0, self._value)]

    @property
    def value(self) -> float:
        """Current clock reading."""
        return self._value

    @property
    def time(self) -> float:
        """Real time up to which the clock has been advanced."""
        return self._time

    def _advance(self, dt: float, rate: float) -> float:
        if dt < 0.0:
            raise ClockError(f"cannot advance a clock by negative time {dt}")
        if rate < 0.0:
            raise ClockError(f"clock rates are non-negative, got {rate}")
        self._value += rate * dt
        self._time += dt
        if self._record_history:
            self._history.append((self._time, self._value))
        return self._value

    def value_at(self, t: float) -> float:
        """Interpolated clock value at real time ``t`` (requires history)."""
        if not self._record_history:
            raise ClockError("history recording is disabled for this clock")
        history = self._history
        if t <= history[0][0]:
            return history[0][1]
        if t >= history[-1][0]:
            return history[-1][1]
        lo, hi = 0, len(history) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if history[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        t0, v0 = history[lo]
        t1, v1 = history[hi]
        if t1 == t0:
            return v1
        frac = (t - t0) / (t1 - t0)
        return v0 + frac * (v1 - v0)

    @property
    def history(self) -> List[Tuple[float, float]]:
        return list(self._history)


class HardwareClock(_PiecewiseLinearClock):
    """A drifting hardware clock ``H_u`` with rate in ``[1 - rho, 1 + rho]``."""

    __slots__ = ("rho", "_last_rate")

    def __init__(
        self,
        rho: float,
        initial_value: float = 0.0,
        *,
        record_history: bool = False,
    ):
        if not 0.0 <= rho < 1.0:
            raise ClockError(f"rho must lie in [0, 1), got {rho}")
        super().__init__(initial_value, record_history=record_history)
        self.rho = float(rho)
        self._last_rate = 1.0

    def advance(self, dt: float, rate: float) -> float:
        """Advance by ``dt`` real time at hardware rate ``rate``."""
        tolerance = 1e-12
        if rate < 1.0 - self.rho - tolerance or rate > 1.0 + self.rho + tolerance:
            raise ClockError(
                f"hardware rate {rate} outside [{1.0 - self.rho}, {1.0 + self.rho}]"
            )
        self._last_rate = float(rate)
        return self._advance(dt, rate)

    @property
    def last_rate(self) -> float:
        """Hardware rate used in the most recent advancement."""
        return self._last_rate


class LogicalClock(_PiecewiseLinearClock):
    """A logical clock ``L_u`` driven by a hardware clock and a multiplier."""

    __slots__ = ("_last_multiplier", "allow_jumps")

    def __init__(
        self,
        initial_value: float = 0.0,
        *,
        record_history: bool = False,
        allow_jumps: bool = False,
    ):
        super().__init__(initial_value, record_history=record_history)
        self._last_multiplier = 1.0
        self.allow_jumps = bool(allow_jumps)

    def advance(self, dt: float, hardware_rate: float, multiplier: float) -> float:
        """Advance by ``dt`` at rate ``multiplier * hardware_rate``."""
        if multiplier < 0.0:
            raise ClockError(f"multiplier must be non-negative, got {multiplier}")
        self._last_multiplier = float(multiplier)
        return self._advance(dt, hardware_rate * multiplier)

    def jump_to(self, value: float) -> float:
        """Discontinuously set the clock (used by baselines, never by AOPT)."""
        if not self.allow_jumps:
            raise ClockError("this logical clock does not permit jumps")
        if value < self._value:
            raise ClockError(
                f"logical clocks never decrease (current {self._value}, asked {value})"
            )
        self._value = float(value)
        if self._record_history:
            self._history.append((self._time, self._value))
        return self._value

    @property
    def last_multiplier(self) -> float:
        """Rate multiplier used in the most recent advancement."""
        return self._last_multiplier


def rate_envelope_holds(
    elapsed: float,
    clock_delta: float,
    min_rate: float,
    max_rate: float,
    tolerance: float = 1e-9,
) -> bool:
    """Check ``min_rate * elapsed <= clock_delta <= max_rate * elapsed``."""
    if elapsed < 0.0:
        raise ClockError("elapsed time must be non-negative")
    lower = min_rate * elapsed - tolerance
    upper = max_rate * elapsed + tolerance
    return lower <= clock_delta <= upper
