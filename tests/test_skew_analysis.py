"""Tests for repro.analysis.skew."""

import pytest

from repro.analysis import skew
from repro.network import paths, topology
from repro.sim.trace import Trace, TraceSample


def sample(t, values, max_estimates=None):
    nodes = list(values)
    return TraceSample.from_dicts(
        time=t,
        logical=dict(values),
        hardware=dict(values),
        multipliers={n: 1.0 for n in nodes},
        modes={n: "slow" for n in nodes},
        max_estimates=max_estimates or {n: max(values.values()) for n in nodes},
    )


@pytest.fixture
def simple_trace():
    trace = Trace(1.0)
    trace.record(sample(0.0, {0: 0.0, 1: 0.0, 2: 0.0}))
    trace.record(sample(1.0, {0: 1.0, 1: 2.0, 2: 4.0}))
    trace.record(sample(2.0, {0: 2.0, 1: 3.0, 2: 3.5}))
    return trace


class TestGlobalAndLocalSkew:
    def test_global_skew_of_sample(self, simple_trace):
        assert skew.global_skew(simple_trace.sample_at(1.0)) == pytest.approx(3.0)

    def test_max_global_skew(self, simple_trace):
        assert skew.max_global_skew(simple_trace) == pytest.approx(3.0)

    def test_max_global_skew_with_start(self, simple_trace):
        assert skew.max_global_skew(simple_trace, start=2.0) == pytest.approx(1.5)

    def test_local_skew(self, simple_trace):
        edges = [(0, 1), (1, 2)]
        assert skew.local_skew(simple_trace.sample_at(1.0), edges) == pytest.approx(2.0)

    def test_max_local_skew(self, simple_trace):
        edges = [(0, 1), (1, 2)]
        assert skew.max_local_skew(simple_trace, edges) == pytest.approx(2.0)

    def test_max_skew_between(self, simple_trace):
        assert skew.max_skew_between(simple_trace, 0, 2) == pytest.approx(3.0)
        assert skew.max_skew_between(simple_trace, 0, 2, start=2.0) == pytest.approx(1.5)

    def test_edges_of(self):
        graph = topology.line(4)
        assert set(skew.edges_of(graph)) == {(0, 1), (1, 2), (2, 3)}


class TestSkewByDistance:
    def test_per_distance_maximum(self, simple_trace):
        graph = topology.line(3)
        distances = paths.all_pairs_distances(graph, paths.hop_weight(graph))
        by_distance = skew.skew_by_distance(simple_trace.sample_at(1.0), distances)
        assert by_distance[1.0] == pytest.approx(2.0)
        assert by_distance[2.0] == pytest.approx(3.0)

    def test_max_over_trace(self, simple_trace):
        graph = topology.line(3)
        result = skew.max_skew_by_distance(
            simple_trace, graph, weight=paths.hop_weight(graph)
        )
        assert result[1.0] == pytest.approx(2.0)
        assert result[2.0] == pytest.approx(3.0)
        assert list(result) == sorted(result)


class TestRatesAndWindows:
    def test_skew_growth_rate_positive_when_growing(self):
        trace = Trace(1.0)
        for t in range(5):
            trace.record(sample(float(t), {0: 0.0, 1: 0.5 * t}))
        rate = skew.skew_growth_rate(trace, start=0.0, end=4.0)
        assert rate == pytest.approx(0.5)

    def test_skew_growth_rate_negative_when_shrinking(self):
        trace = Trace(1.0)
        for t in range(5):
            trace.record(sample(float(t), {0: 0.0, 1: 4.0 - t}))
        rate = skew.skew_growth_rate(trace, start=0.0, end=4.0)
        assert rate == pytest.approx(-1.0)

    def test_skew_growth_rate_insufficient_samples(self, simple_trace):
        assert skew.skew_growth_rate(simple_trace, start=10.0, end=20.0) is None

    def test_steady_state_window(self, simple_trace):
        start, end = skew.steady_state_window(simple_trace, fraction=0.5)
        assert end == pytest.approx(2.0)
        assert start == pytest.approx(1.0)

    def test_steady_state_window_validation(self, simple_trace):
        with pytest.raises(ValueError):
            skew.steady_state_window(simple_trace, fraction=0.0)
        with pytest.raises(ValueError):
            skew.steady_state_window(Trace(1.0))


class TestMaxEstimateChecks:
    def test_lag_and_violations(self):
        good = sample(0.0, {0: 5.0, 1: 10.0}, max_estimates={0: 9.0, 1: 10.0})
        assert skew.max_estimate_lag(good) == pytest.approx(1.0)
        assert skew.max_estimate_violations(good) == 0
        bad = sample(0.0, {0: 5.0, 1: 10.0}, max_estimates={0: 12.0, 1: 10.0})
        assert skew.max_estimate_violations(bad) == 1


class TestWindowAndRateEdgeCases:
    """Edge cases for steady_state_window / skew_growth_rate (PR 5).

    Previously only exercised indirectly through summarize(); pinned down
    here directly: empty traces, single samples, zero-length windows.
    """

    def test_steady_state_window_empty_trace_raises(self):
        with pytest.raises(ValueError, match="empty"):
            skew.steady_state_window(Trace(1.0), fraction=0.25)

    def test_steady_state_window_single_sample_degenerates(self):
        trace = Trace(1.0)
        trace.record(sample(3.0, {0: 1.0}))
        start, end = skew.steady_state_window(trace, fraction=0.25)
        assert (start, end) == (3.0, 3.0)

    def test_steady_state_window_full_fraction_covers_whole_run(self):
        trace = Trace(1.0)
        trace.record(sample(1.0, {0: 0.0}))
        trace.record(sample(5.0, {0: 0.0}))
        assert skew.steady_state_window(trace, fraction=1.0) == (1.0, 5.0)

    def test_steady_state_window_fraction_above_one_rejected(self):
        trace = Trace(1.0)
        trace.record(sample(0.0, {0: 0.0}))
        with pytest.raises(ValueError, match="fraction"):
            skew.steady_state_window(trace, fraction=1.5)

    def test_skew_growth_rate_empty_trace(self):
        assert skew.skew_growth_rate(Trace(1.0), start=0.0, end=10.0) is None

    def test_skew_growth_rate_single_sample(self):
        trace = Trace(1.0)
        trace.record(sample(1.0, {0: 0.0, 1: 1.0}))
        assert skew.skew_growth_rate(trace, start=0.0, end=2.0) is None

    def test_skew_growth_rate_zero_length_window(self):
        trace = Trace(1.0)
        for t in range(5):
            trace.record(sample(float(t), {0: 0.0, 1: float(t)}))
        # Window collapsed to one instant: only one sample falls inside.
        assert skew.skew_growth_rate(trace, start=2.0, end=2.0) is None

    def test_skew_growth_rate_coincident_times_has_no_slope(self):
        trace = Trace(1.0)  # duplicates allowed by default policy
        trace.record(sample(1.0, {0: 0.0, 1: 1.0}))
        trace.record(sample(1.0, {0: 0.0, 1: 3.0}))
        # Two samples, but zero time variance: the slope is undefined.
        assert skew.skew_growth_rate(trace, start=0.0, end=2.0) is None

    def test_steady_window_start_matches_streaming_helper(self):
        from repro.metrics import streaming

        trace = Trace(1.0)
        trace.record(sample(2.0, {0: 0.0}))
        trace.record(sample(10.0, {0: 0.0}))
        start, end = skew.steady_state_window(trace, fraction=0.25)
        assert start == streaming.steady_window_start(2.0, 10.0, 0.25)
        assert end == 10.0
