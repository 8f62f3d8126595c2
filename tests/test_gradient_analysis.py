"""Tests for repro.analysis.gradient."""

import pytest

from repro.analysis import gradient
from repro.network import paths, topology
from repro.network.edge import EdgeParams
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


@pytest.fixture
def line_graph():
    return topology.line(5, EdgeParams(epsilon=1.0, tau=0.5, delay=2.0))


class TestBound:
    def test_gradient_bound_matches_parameters(self, params):
        assert gradient.gradient_bound(4.0, 100.0, params) == pytest.approx(
            params.gradient_skew_bound(4.0, 100.0)
        )

    def test_local_skew_prediction(self, params):
        kappa = params.kappa_for(1.0, 0.5)
        assert gradient.local_skew_prediction(kappa, 100.0, params) > kappa


class TestViolationChecks:
    def test_no_violation_for_small_skews(self, params, line_graph):
        trace = Trace(1.0)
        trace.record(sample(0.0, {n: 0.1 * n for n in line_graph.nodes}))
        violations = gradient.check_trace(trace, line_graph, 50.0, params)
        assert violations == []

    def test_violation_detected_for_huge_local_skew(self, params, line_graph):
        trace = Trace(1.0)
        values = {n: 0.0 for n in line_graph.nodes}
        values[1] = 500.0
        trace.record(sample(0.0, values))
        violations = gradient.check_trace(trace, line_graph, 50.0, params)
        assert violations
        worst = max(violations, key=lambda v: v.excess)
        assert worst.excess > 0
        assert worst.skew > worst.bound

    def test_check_sample_respects_tolerance(self, params, line_graph):
        distances = paths.all_pairs_distances(
            line_graph, paths.kappa_weight(line_graph, params)
        )
        violations = gradient.check_sample(
            sample(0.0, {n: 0.0 for n in line_graph.nodes}), distances, 50.0, params
        )
        assert violations == []

    def test_check_trace_start_filter(self, params, line_graph):
        trace = Trace(1.0)
        bad = {n: 0.0 for n in line_graph.nodes}
        bad[1] = 500.0
        trace.record(sample(0.0, bad))
        trace.record(sample(10.0, {n: 0.0 for n in line_graph.nodes}))
        assert gradient.check_trace(trace, line_graph, 50.0, params, start=5.0) == []


class TestProfile:
    def test_profile_sorted_and_bounded(self, params, line_graph):
        trace = Trace(1.0)
        trace.record(sample(0.0, {n: 0.3 * n for n in line_graph.nodes}))
        points = gradient.profile(trace, line_graph, 50.0, params)
        distances = [p.distance for p in points]
        assert distances == sorted(distances)
        assert all(p.max_skew <= p.bound for p in points)
        assert all(0.0 <= p.ratio <= 1.0 for p in points)

    def test_profile_uses_kappa_distances_by_default(self, params, line_graph):
        trace = Trace(1.0)
        trace.record(sample(0.0, {n: 0.0 for n in line_graph.nodes}))
        points = gradient.profile(trace, line_graph, 50.0, params)
        kappa = params.kappa_for(1.0, 0.5)
        assert points[0].distance == pytest.approx(kappa)

    def test_logarithmic_shape_score(self, params):
        import math

        diameter = 16.0
        points = [
            gradient.GradientPoint(
                distance=d, max_skew=d * (math.log(diameter / d) + 1.0), bound=100.0
            )
            for d in [1.0, 2.0, 4.0, 8.0, 16.0]
        ]
        score = gradient.logarithmic_shape_score(points)
        assert score == pytest.approx(1.0)

    def test_logarithmic_shape_score_needs_points(self):
        assert gradient.logarithmic_shape_score([]) is None
