"""Tests for repro.analysis.stabilization."""

import pytest

from repro.analysis import stabilization
from repro.sim.trace import Trace, TraceSample


def sample(t, values):
    nodes = list(values)
    return TraceSample.from_dicts(
        time=t,
        logical=dict(values),
        hardware=dict(values),
        multipliers={n: 1.0 for n in nodes},
        modes={n: "slow" for n in nodes},
        max_estimates={n: max(values.values()) for n in nodes},
    )


def converging_trace():
    """Skew between nodes 0 and 1 decays linearly from 10 to 0 over 10 time units."""
    trace = Trace(1.0)
    for t in range(16):
        skew = max(0.0, 10.0 - t)
        trace.record(sample(float(t), {0: float(t), 1: float(t) + skew}))
    return trace


class TestStabilizationTime:
    def test_detects_first_stable_crossing(self):
        trace = converging_trace()
        result = stabilization.stabilization_time(
            trace, 0, 1, bound=3.0, event_time=0.0
        )
        assert result.stabilized
        assert result.stabilization_time == pytest.approx(7.0)
        assert result.elapsed_since_event == pytest.approx(7.0)
        assert result.max_skew_after_event == pytest.approx(10.0)
        assert result.final_skew == pytest.approx(0.0)

    def test_event_time_offsets_measurement(self):
        trace = converging_trace()
        result = stabilization.stabilization_time(
            trace, 0, 1, bound=3.0, event_time=5.0
        )
        assert result.elapsed_since_event == pytest.approx(2.0)

    def test_requires_persistent_crossing(self):
        trace = Trace(1.0)
        skews = [5.0, 1.0, 6.0, 1.0, 1.0]
        for t, skew in enumerate(skews):
            trace.record(sample(float(t), {0: float(t), 1: float(t) + skew}))
        result = stabilization.stabilization_time(trace, 0, 1, bound=2.0, event_time=0.0)
        assert result.stabilized
        assert result.stabilization_time == pytest.approx(3.0)

    def test_never_stabilizes(self):
        trace = Trace(1.0)
        for t in range(5):
            trace.record(sample(float(t), {0: 0.0, 1: 10.0}))
        result = stabilization.stabilization_time(trace, 0, 1, bound=1.0, event_time=0.0)
        assert not result.stabilized
        assert result.stabilization_time is None

    def test_dwell_requirement(self):
        trace = converging_trace()
        result = stabilization.stabilization_time(
            trace, 0, 1, bound=0.5, event_time=0.0, dwell=100.0
        )
        assert not result.stabilized

    def test_validation(self):
        trace = converging_trace()
        with pytest.raises(ValueError):
            stabilization.stabilization_time(trace, 0, 1, bound=-1.0, event_time=0.0)
        with pytest.raises(ValueError):
            stabilization.stabilization_time(trace, 0, 1, bound=1.0, event_time=100.0)


class TestGlobalConvergenceAndRate:
    def test_global_skew_convergence_time(self):
        trace = converging_trace()
        t = stabilization.global_skew_convergence_time(trace, bound=4.0)
        assert t == pytest.approx(6.0)

    def test_global_skew_never_converges(self):
        trace = Trace(1.0)
        for t in range(5):
            trace.record(sample(float(t), {0: 0.0, 1: 10.0}))
        assert stabilization.global_skew_convergence_time(trace, bound=1.0) is None

    def test_decrease_rate(self):
        trace = converging_trace()
        rate = stabilization.decrease_rate(trace, start=0.0, end=10.0)
        assert rate == pytest.approx(1.0)

    def test_decrease_rate_insufficient_window(self):
        trace = converging_trace()
        assert stabilization.decrease_rate(trace, start=100.0, end=200.0) is None
