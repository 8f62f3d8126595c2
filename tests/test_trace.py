"""Tests for repro.sim.trace."""

import pytest

from repro.sim.trace import Trace, TraceError, TraceSample


def sample(t, values, modes=None):
    nodes = list(values)
    return TraceSample.from_dicts(
        time=t,
        logical=dict(values),
        hardware=dict(values),
        multipliers={n: 1.0 for n in nodes},
        modes=modes or {n: "slow" for n in nodes},
        max_estimates={n: max(values.values()) for n in nodes},
    )


class TestTraceSample:
    def test_global_skew(self):
        s = sample(0.0, {0: 1.0, 1: 4.0, 2: 2.0})
        assert s.global_skew() == pytest.approx(3.0)

    def test_pairwise_skew(self):
        s = sample(0.0, {0: 1.0, 1: 4.0})
        assert s.skew(0, 1) == pytest.approx(3.0)
        assert s.skew(1, 0) == pytest.approx(3.0)


class TestTrace:
    def test_requires_positive_sample_interval(self):
        with pytest.raises(TraceError):
            Trace(0.0)

    def test_record_and_access(self):
        trace = Trace(1.0)
        trace.record(sample(0.0, {0: 0.0, 1: 0.0}))
        trace.record(sample(1.0, {0: 1.0, 1: 2.0}))
        assert len(trace) == 2
        assert trace.first().time == 0.0
        assert trace.final().time == 1.0
        assert trace.times == [0.0, 1.0]

    def test_out_of_order_rejected(self):
        trace = Trace(1.0)
        trace.record(sample(5.0, {0: 0.0}))
        with pytest.raises(TraceError):
            trace.record(sample(1.0, {0: 0.0}))

    def test_empty_trace_errors(self):
        trace = Trace(1.0)
        assert trace.is_empty()
        with pytest.raises(TraceError):
            trace.first()
        with pytest.raises(TraceError):
            trace.final()
        with pytest.raises(TraceError):
            trace.sample_at(0.0)

    def test_sample_at_picks_latest_before(self):
        trace = Trace(1.0)
        for t in [0.0, 1.0, 2.0]:
            trace.record(sample(t, {0: t}))
        assert trace.sample_at(1.5).time == 1.0
        assert trace.sample_at(-1.0).time == 0.0
        assert trace.sample_at(10.0).time == 2.0

    def test_samples_between(self):
        trace = Trace(1.0)
        for t in [0.0, 1.0, 2.0, 3.0]:
            trace.record(sample(t, {0: t}))
        window = trace.samples_between(1.0, 2.0)
        assert [s.time for s in window] == [1.0, 2.0]
        with pytest.raises(TraceError):
            trace.samples_between(2.0, 1.0)

    def test_series_helpers(self):
        trace = Trace(1.0)
        trace.record(sample(0.0, {0: 0.0, 1: 1.0}))
        trace.record(sample(1.0, {0: 1.0, 1: 3.0}))
        assert trace.logical_series(1) == [(0.0, 1.0), (1.0, 3.0)]
        assert trace.skew_series(0, 1) == [(0.0, 1.0), (1.0, 2.0)]
        assert trace.global_skew_series()[-1] == (1.0, 2.0)
        assert trace.max_global_skew() == pytest.approx(2.0)

    def test_max_global_skew_empty(self):
        assert Trace(1.0).max_global_skew() == 0.0

    def test_mode_counts(self):
        trace = Trace(1.0)
        trace.record(sample(0.0, {0: 0.0, 1: 0.0}, modes={0: "fast", 1: "slow"}))
        trace.record(sample(1.0, {0: 1.0, 1: 1.0}, modes={0: "fast", 1: "fast"}))
        assert trace.mode_counts() == {"fast": 3, "slow": 1}

    def test_iteration(self):
        trace = Trace(1.0)
        trace.record(sample(0.0, {0: 0.0}))
        assert [s.time for s in trace] == [0.0]
        assert len(trace.samples) == 1


class TestDuplicatePolicy:
    """Ordering/duplicate semantics of Trace.record: duplicates are kept."""

    def test_default_policy_allows_duplicates(self):
        trace = Trace(1.0)
        trace.record(sample(1.0, {0: 0.0}))
        trace.record(sample(1.0, {0: 5.0}))
        assert len(trace) == 2
        assert trace.final().logical[0] == 5.0

    def test_within_tolerance_counts_as_duplicate(self):
        trace = Trace(1.0)
        trace.record(sample(1.0, {0: 0.0}))
        trace.record(sample(1.0 - 5e-13, {0: 1.0}))  # the same instant: kept
        assert [s.logical[0] for s in trace] == [0.0, 1.0]

    def test_too_early_rejected(self):
        trace = Trace(1.0)
        trace.record(sample(5.0, {0: 0.0}))
        with pytest.raises(TraceError, match="non-decreasing"):
            trace.record(sample(1.0, {0: 0.0}))
        assert len(trace) == 1

    def test_strictly_increasing_never_a_duplicate(self):
        trace = Trace(1.0)
        trace.record(sample(0.0, {0: 0.0}))
        trace.record(sample(1e-9, {0: 0.0}))  # beyond tolerance: a new instant
        assert len(trace) == 2
