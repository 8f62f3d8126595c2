"""Unit tests for repro.metrics: reducers, pipeline, views, registry."""

import json

import pytest

from conftest import EQUIVALENCE_SCENARIO_OVERRIDES
from repro.experiments import execute_spec, registry, scenario
from repro.experiments.results import (
    build_run_pipeline,
    report_from_trace,
    trace_from_payload,
    trace_to_payload,
)
from repro.fastsim.backend import backend_available, get_backend
from repro.metrics import (
    DEFAULT_OBSERVERS,
    MetricsError,
    ObserverContext,
    ObserverReport,
    build_pipeline,
    make_observer,
    observer_names,
    streaming,
)
from repro.metrics.views import ColumnsView
from repro.network import paths, topology
from repro.sim.trace import Trace, TraceSample


# ----------------------------------------------------------------------
# Scalar reducers
# ----------------------------------------------------------------------
class TestPredictFinalTime:
    @pytest.mark.parametrize(
        "duration,dt",
        [(10.0, 0.1), (10.0, 0.05), (7.3, 0.1), (33.0, 0.07), (0.0, 0.1), (1.0, 0.3)],
    )
    def test_matches_engine_final_sample(self, duration, dt):
        """The prediction is bit-equal to the engine's forced final sample."""
        spec = scenario(
            "quickstart_line", n=3, duration=duration, sim={"dt": dt}
        )
        payload = execute_spec(spec)
        final_time = payload["trace"]["samples"][-1]["time"]
        assert streaming.predict_final_time(duration, dt) == final_time


class TestPeakTracker:
    def test_tracks_running_max_from_start(self):
        tracker = streaming.PeakTracker(start=2.0)
        for time, value in [(0.0, 9.0), (1.0, 8.0), (2.0, 3.0), (3.0, 5.0), (4.0, 4.0)]:
            tracker.update(time, value)
        assert tracker.peak == 5.0  # samples before t=2 are ignored

    def test_empty_is_zero(self):
        assert streaming.PeakTracker().peak == 0.0


class TestHoldDetector:
    def test_candidate_resets_on_violation(self):
        detector = streaming.HoldDetector(bound=1.0)
        for time, value in [(0.0, 2.0), (1.0, 0.5), (2.0, 1.5), (3.0, 0.9), (4.0, 0.8)]:
            detector.update(time, value)
        assert detector.candidate == 3.0

    def test_never_converges(self):
        detector = streaming.HoldDetector(bound=1.0)
        detector.update(0.0, 2.0)
        detector.update(1.0, 3.0)
        assert detector.candidate is None


class TestStabilizationTracker:
    def test_matches_post_hoc_semantics(self):
        tracker = streaming.StabilizationTracker(bound=1.0, event_time=2.0)
        for time, value in [(0.0, 9.0), (2.0, 3.0), (3.0, 0.5), (4.0, 0.4)]:
            tracker.update(time, value)
        stabilized, at_time, elapsed, max_skew, final = tracker.result()
        assert (stabilized, at_time, elapsed) == (True, 3.0, 1.0)
        assert (max_skew, final) == (3.0, 0.4)

    def test_dwell_requirement(self):
        tracker = streaming.StabilizationTracker(bound=1.0, event_time=0.0, dwell=5.0)
        tracker.update(0.0, 2.0)
        tracker.update(1.0, 0.5)
        tracker.update(2.0, 0.5)
        assert tracker.result()[0] is False

    def test_no_samples_after_event_raises(self):
        tracker = streaming.StabilizationTracker(bound=1.0, event_time=10.0)
        tracker.update(0.0, 2.0)
        with pytest.raises(ValueError, match="no samples after the event"):
            tracker.result()

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            streaming.StabilizationTracker(bound=-1.0, event_time=0.0)


class TestEventSnapshot:
    def test_latest_at_or_before_event(self):
        snapshot = streaming.EventSnapshot(2.0)
        for time, value in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]:
            snapshot.update(time, value)
        assert snapshot.value == 3.0

    def test_falls_back_to_first_sample(self):
        snapshot = streaming.EventSnapshot(-5.0)
        snapshot.update(0.0, 1.0)
        snapshot.update(1.0, 2.0)
        assert snapshot.value == 1.0  # Trace.sample_at clamps to the first


class TestGradientCounter:
    def test_counts_and_collects(self):
        pairs = [(0, 1, 1.0, 2.0), (0, 2, 2.0, 4.0)]
        counter = streaming.GradientCounter(pairs, collect=True)
        counter.update_skews(1.0, [2.5, 1.0])  # first violates
        counter.update_skews(2.0, [1.0, 4.5])  # second violates
        assert counter.count == 2
        assert counter.collected == [(1.0, 0, 2.5), (2.0, 1, 4.5)]


class TestDistanceGroupMax:
    def test_drops_zero_groups_by_default(self):
        acc = streaming.DistanceGroupMax()
        acc.update(1.0, 0.0)
        acc.update(2.0, 3.0)
        acc.update(2.0, 1.0)
        assert acc.result() == {2.0: 3.0}

    def test_keep_zeros_preserves_all_keys(self):
        acc = streaming.DistanceGroupMax([1.0, 2.0], keep_zeros=True)
        acc.update(2.0, 3.0)
        assert acc.result() == {1.0: 0.0, 2.0: 3.0}


# ----------------------------------------------------------------------
# Registry, report and pipeline
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_set_is_registered(self):
        for name in DEFAULT_OBSERVERS:
            assert name in observer_names()

    def test_unknown_observer_raises(self):
        with pytest.raises(MetricsError, match="unknown observer"):
            make_observer("nope", ObserverContext())

    def test_duplicate_selection_rejected(self):
        with pytest.raises(MetricsError, match="duplicate"):
            build_pipeline(["global_skew", "global_skew"], graph=None)


class TestObserverReport:
    def test_payload_round_trip(self):
        report = ObserverReport(sample_count=3, payloads={"global_skew": {"max": 1.0}})
        restored = ObserverReport.from_payload(report.to_payload())
        assert restored == report
        assert ObserverReport.from_payload(None) is None

    def test_get_and_contains(self):
        report = ObserverReport(sample_count=1, payloads={"a": {"x": 1}})
        assert "a" in report and "b" not in report
        assert report.get("b", "fallback") == "fallback"


#: A static spec (fused end to end on ``jit``) and a dynamic broadcast one.
REPLAY_SPECS = {
    "static": scenario("line_scaling", n=5, sim={"duration": 20.0}),
    "dynamic_broadcast": scenario(
        "grid_broadcast_partition",
        **EQUIVALENCE_SCENARIO_OVERRIDES["grid_broadcast_partition"],
    ),
}


def traced_run(spec):
    """``spec``'s engine trace, its streamed report, and a fresh pipeline."""
    materialised = registry.build_scenario(spec)

    def pipeline():
        return build_run_pipeline(
            spec,
            graph=materialised.graph,
            base_edges=materialised.base_edges,
            config=materialised.config,
            meta=materialised.meta,
            global_skew_bound=materialised.global_skew_bound,
        )

    engine = get_backend(spec.backend).build(
        materialised.graph, materialised.algorithm_factory, materialised.config
    )
    streamed = pipeline()
    engine.configure_recording(streamed, record_trace=True)
    engine.run(materialised.config.duration)
    return engine.trace, streamed.finalize(), pipeline()


@pytest.fixture(scope="module")
def reference_traces():
    """The ``reference`` engine's trace payload per ``REPLAY_SPECS`` name."""
    return {}


class TestPipelineReplay:
    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param(
                name,
                marks=pytest.mark.skipif(
                    not backend_available(name), reason=f"{name!r} is not installed"
                ),
            )
            for name in ("reference", "fast", "vec", "jit")
        ],
    )
    @pytest.mark.parametrize("name", sorted(REPLAY_SPECS))
    def test_streaming_equals_replay_of_trace(self, name, backend, reference_traces):
        """Live streaming and post-hoc replay produce identical reports, from
        the engine's own samples and from their decoded payload, and every
        engine's samples encode to the reference engine's bytes."""
        spec = REPLAY_SPECS[name]
        if name not in reference_traces:
            trace, _, _ = traced_run(spec.with_backend("reference"))
            reference_traces[name] = json.dumps(trace_to_payload(trace))
        trace, streamed, fresh = traced_run(spec.with_backend(backend))
        assert fresh.replay(trace).to_payload() == streamed.to_payload()
        encoded = json.dumps(trace_to_payload(trace))
        assert encoded == reference_traces[name]
        materialised = registry.build_scenario(spec)
        replayed = report_from_trace(
            spec,
            trace_from_payload(json.loads(encoded)),
            graph=materialised.graph,
            base_edges=materialised.base_edges,
            config=materialised.config,
            meta=materialised.meta,
            global_skew_bound=materialised.global_skew_bound,
        )
        assert replayed.to_payload() == streamed.to_payload()

    def test_replay_reads_each_samples_own_node_order(self):
        """A hand-built trace may list its nodes in another order per sample."""

        def trace_of(orders):
            trace = Trace(1.0)
            for t, order in enumerate(orders):
                logical = {node: (t + 1) * (0.0, 10.0, 11.0)[node] for node in order}
                modes = {node: ("slow", "fast")[node % 2] for node in order}
                ones = dict.fromkeys(order, 1.0)
                sample = TraceSample.from_dicts(float(t), logical, ones, ones, modes, ones)
                trace.record(sample)
            return trace

        def replayed(trace):
            pipeline = build_pipeline(
                ("global_skew", "local_skew", "mode_counts", "max_estimate_lag"),
                graph=topology.line(3),
                base_edges=[(0, 1), (1, 2)],
            )
            return pipeline.replay(trace).to_payload()

        shuffled = trace_of([(0, 1, 2), (2, 0, 1), (1, 2, 0)])
        assert replayed(shuffled) == replayed(trace_of([(0, 1, 2)] * 3))

    def test_empty_replay_yields_neutral_payloads(self):
        pipeline = build_pipeline(
            ["global_skew", "convergence_time", "mode_counts"], graph=None
        )
        report = pipeline.replay([])
        assert report.sample_count == 0
        assert report.get("global_skew") == {
            "initial": 0.0,
            "max": 0.0,
            "final": 0.0,
            "steady_max": 0.0,
        }
        assert report.get("convergence_time") == {"halving_time": None}
        assert report.get("mode_counts") == {"counts": {}}


def view_of(kind, logical, max_estimates, modes):
    """A ``kind`` view of one sample of a three-node line, columns in node order."""
    ids, index = [0, 1, 2], {0: 0, 1: 1, 2: 2}
    if kind == "columns":
        return ColumnsView(ids, index).set_columns(1.0, logical, max_estimates, modes)
    np = pytest.importorskip("numpy")
    from repro.metrics.views import ArrayView

    return ArrayView(ids, index).set_columns(
        1.0, np.asarray(logical), np.asarray(max_estimates), np.asarray(modes)
    )


class TestViews:
    @pytest.mark.parametrize("kind", ["columns", "array"])
    def test_view_reduces_a_sample_to_hand_computed_values(self, kind):
        view = view_of(kind, [0.0, 2.5, 1.0], [2.0, 2.5, 2.25], [0, 1, 0])
        edges = [(0, 1), (1, 2)]
        assert view.global_skew() == 2.5
        assert view.max_pair_skew("e", edges) == 2.5
        assert view.pair_skew(0, 2) == 1.0
        assert view.max_estimate_lag() == 0.5  # max L (2.5) - min M (2.0)
        counts = [0, 0, 0]
        view.mode_counts_update(counts)
        assert counts == [2, 1, 0]
        table = paths.pair_table(topology.line(3), paths.hop_weight(None))
        assert table.distances == [1.0, 2.0]
        assert view.count_exceeding(table, [2.0, 0.5]) == 2  # (0, 1) and (0, 2)

    @pytest.mark.parametrize("kind", ["columns", "array"])
    def test_the_first_columns_pick_the_view(self, kind):
        view = view_of(kind, [0.0, 2.5, 1.0], [2.0, 2.5, 2.25], [0, 1, 0])
        pipeline = build_pipeline(("global_skew",), graph=topology.line(3))
        pipeline.observe_columns(
            0.0, view._ids, view._index, view._logical, view._max_estimate, view._mode
        )
        assert type(pipeline._view) is type(view)
        assert pipeline.finalize().get("global_skew")["max"] == 2.5


class TestEngineHook:
    def test_trace_none_keeps_no_samples(self):
        spec = scenario("quickstart_line", n=4, duration=10.0)
        scenario_obj = registry.build_scenario(spec)
        from repro.fastsim.backend import get_backend

        engine = get_backend("fast").build(
            scenario_obj.graph, scenario_obj.algorithm_factory, scenario_obj.config
        )
        pipeline = build_run_pipeline(
            spec,
            graph=scenario_obj.graph,
            base_edges=scenario_obj.base_edges,
            config=scenario_obj.config,
            meta=scenario_obj.meta,
            global_skew_bound=scenario_obj.global_skew_bound,
        )
        engine.configure_recording(pipeline, record_trace=False)
        trace = engine.run(scenario_obj.config.duration)
        assert len(trace) == 0
        report = pipeline.finalize()
        assert report.sample_count == 11  # samples at t=0..9 plus the forced final
