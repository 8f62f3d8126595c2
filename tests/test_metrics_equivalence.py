"""Differential suite: streaming observers vs the pre-refactor trace path.

``legacy_summary_fields`` below is a *verbatim copy* of the trace-walking
computation that ``repro.experiments.results.summarize`` (and the analysis
helpers it called) performed before the streaming-metrics refactor: per-node
dict samples, post-hoc window selection, the original float expressions.

Every named scenario is executed on every backend through the streaming
pipeline (the normal executor path) and its ``RunSummary`` fields are
compared **exactly** -- not approximately -- against the legacy computation
over the full cached trace.  A second pass asserts that ``trace: none`` runs
(no trace at all, observers only) produce bit-identical summaries and
observer reports, and that the opt-in observers agree across backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EQUIVALENCE_SCENARIO_OVERRIDES, scenario_specs
from repro.analysis import skew as skew_analysis
from repro.experiments import execute_spec, registry, scenario
from repro.experiments.results import trace_from_payload
from repro.fastsim.backend import backend_available
from repro.network import paths
from repro.sim.runner import minimum_kappa

BACKENDS = ["reference", "fast"] + [
    name for name in ("vec", "jit") if backend_available(name)
]


# ----------------------------------------------------------------------
# The pre-refactor computation, preserved verbatim for the differential
# ----------------------------------------------------------------------
def _legacy_global_skew(sample):
    values = list(sample.logical.values())
    if not values:
        return 0.0
    return max(values) - min(values)


def _legacy_max_global_skew(trace, start=0.0):
    best = 0.0
    for sample in trace:
        if sample.time >= start:
            best = max(best, _legacy_global_skew(sample))
    return best


def _legacy_local_skew(sample, edges):
    best = 0.0
    for u, v in edges:
        best = max(best, abs(sample.logical[u] - sample.logical[v]))
    return best


def _legacy_max_local_skew(trace, edges, start=0.0):
    edge_list = list(edges)
    best = 0.0
    for sample in trace:
        if sample.time >= start:
            best = max(best, _legacy_local_skew(sample, edge_list))
    return best


def _legacy_steady_state_window(trace, fraction):
    start_time = trace.first().time
    end_time = trace.final().time
    return (end_time - fraction * (end_time - start_time), end_time)


def _legacy_convergence_time(trace, bound, start=0.0):
    candidate = None
    for sample in trace:
        if sample.time < start:
            continue
        if _legacy_global_skew(sample) <= bound:
            if candidate is None:
                candidate = sample.time
        else:
            candidate = None
    return candidate


def _legacy_stabilization_time(trace, u, v, bound, event_time):
    samples = [s for s in trace if s.time >= event_time]
    assert samples, "the trace has no samples after the event time"
    max_skew = max(s.skew(u, v) for s in samples)
    final_skew = samples[-1].skew(u, v)
    candidate = None
    for sample in samples:
        s = sample.skew(u, v)
        if s <= bound:
            if candidate is None:
                candidate = sample.time
        else:
            candidate = None
    if candidate is None:
        return (False, None, max_skew, final_skew)
    return (True, candidate - event_time, max_skew, final_skew)


def _legacy_gradient_violation_count(trace, graph, bound, params, tolerance=1e-9):
    weight = paths.kappa_weight(graph, params)
    distances = paths.all_pairs_distances(graph, weight)
    count = 0
    for sample in trace:
        for (u, v), distance in distances.items():
            if u >= v or distance <= 0.0:
                continue
            measured = abs(sample.logical[u] - sample.logical[v])
            if measured > params.gradient_skew_bound(distance, bound) + tolerance:
                count += 1
    return count


def _legacy_mode_counts(trace):
    counts = {}
    for sample in trace:
        for mode in sample.modes.values():
            counts[mode] = counts.get(mode, 0) + 1
    return counts


def legacy_summary_fields(spec, trace, scenario_obj):
    """Every trace-derived RunSummary field, computed the pre-refactor way."""
    graph = scenario_obj.graph
    base_edges = scenario_obj.base_edges
    config = scenario_obj.config
    meta = scenario_obj.meta
    bound = scenario_obj.global_skew_bound

    initial = _legacy_global_skew(trace.first()) if len(trace) else 0.0
    final = _legacy_global_skew(trace.final()) if len(trace) else 0.0
    halving_time = None
    if initial > 0.0:
        halving_time = _legacy_convergence_time(trace, initial / 2.0)
    steady_start = 0.0
    if len(trace):
        steady_start, _ = _legacy_steady_state_window(trace, 0.25)

    gradient_violations = None
    if spec.dynamics is None and bound is not None and len(trace):
        gradient_violations = _legacy_gradient_violation_count(
            trace, graph, bound, config.params
        )

    event_time = meta.get("insertion_time")
    skew_at_event = stabilized = stabilization_time = post_event = None
    if event_time is not None and "new_edge" in meta and len(trace):
        u, v = meta["new_edge"]
        criterion = 2.0 * minimum_kappa(graph, config.params)
        stabilized, stabilization_time, _, _ = _legacy_stabilization_time(
            trace, u, v, criterion, event_time
        )
        skew_at_event = trace.sample_at(event_time).skew(u, v)
        post_event = _legacy_max_local_skew(trace, base_edges, start=event_time)

    return {
        "sample_count": len(trace),
        "initial_global_skew": initial,
        "max_global_skew": _legacy_max_global_skew(trace),
        "final_global_skew": final,
        "halving_time": halving_time,
        "max_local_skew": _legacy_max_local_skew(trace, base_edges),
        "steady_global_skew": _legacy_max_global_skew(trace, start=steady_start),
        "steady_local_skew": _legacy_max_local_skew(
            trace, base_edges, start=steady_start
        ),
        "gradient_violations": gradient_violations,
        "event_time": event_time,
        "skew_at_event": skew_at_event,
        "stabilized": stabilized,
        "stabilization_time": stabilization_time,
        "post_event_local_skew": post_event,
        "mode_counts": _legacy_mode_counts(trace),
    }


def assert_streaming_matches_legacy(spec):
    """Streaming summary fields == legacy trace-derived fields, exactly."""
    payload = execute_spec(spec)
    trace = trace_from_payload(payload["trace"])
    scenario_obj = registry.build_scenario(spec)
    expected = legacy_summary_fields(spec, trace, scenario_obj)
    summary = payload["summary"]
    for field, value in expected.items():
        assert summary[field] == value, (
            f"{spec.label or spec.topology.name} [{spec.backend}]: "
            f"streaming {field}={summary[field]!r} != legacy {value!r}"
        )
    return payload


# ----------------------------------------------------------------------
# Named scenarios x backends
# ----------------------------------------------------------------------
class TestStreamingMatchesLegacy:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_SCENARIO_OVERRIDES))
    def test_streaming_equals_trace_derived(self, name, backend):
        spec = scenario(
            name, backend=backend, **EQUIVALENCE_SCENARIO_OVERRIDES[name]
        )
        payload = assert_streaming_matches_legacy(spec)
        assert payload["summary"]["sample_count"] > 5

    @settings(max_examples=10, deadline=None)
    @given(spec=scenario_specs(), backend=st.sampled_from(BACKENDS))
    def test_fuzz_specs_match_legacy(self, spec, backend):
        # The legacy computation walks the full trace with the default
        # observers over the whole run.
        spec = spec.with_trace("full").with_observers().with_until_stable(False)
        assert_streaming_matches_legacy(spec.with_backend(backend))


# ----------------------------------------------------------------------
# trace: none must change nothing but the trace
# ----------------------------------------------------------------------
class TestTraceNoneEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_SCENARIO_OVERRIDES))
    def test_traceless_summary_is_bit_identical(self, name, backend):
        spec = scenario(
            name, backend=backend, **EQUIVALENCE_SCENARIO_OVERRIDES[name]
        )
        full = execute_spec(spec)
        none = execute_spec(spec.with_trace("none"))
        assert none["trace"] is None
        assert full["trace"] is not None
        assert none["summary"] == full["summary"]
        assert none["observers"] == full["observers"]
        assert none["meta"] == full["meta"]


# ----------------------------------------------------------------------
# Opt-in observers agree across backends
# ----------------------------------------------------------------------
ALL_OBSERVERS = (
    "global_skew",
    "local_skew",
    "convergence_time",
    "mode_counts",
    "stabilization_window",
    "gradient_bound_check",
    "skew_by_distance",
    "max_estimate_lag",
    "edge_skew_histogram",
)


class TestOptInObservers:
    def test_all_observers_agree_across_backends(self):
        base = scenario(
            "line_scaling", **EQUIVALENCE_SCENARIO_OVERRIDES["line_scaling"]
        ).with_observers(*ALL_OBSERVERS)
        payloads = {
            backend: execute_spec(base.with_backend(backend))
            for backend in BACKENDS
        }
        reference = payloads["reference"]["observers"]
        for backend, payload in payloads.items():
            assert payload["observers"] == reference, backend

    def test_skew_by_distance_matches_analysis_helper(self):
        base = scenario(
            "ring_sinusoidal_drift",
            **EQUIVALENCE_SCENARIO_OVERRIDES["ring_sinusoidal_drift"],
        ).with_observers("skew_by_distance")
        payload = execute_spec(base)
        trace = trace_from_payload(payload["trace"])
        scenario_obj = registry.build_scenario(base)
        weight = paths.kappa_weight(scenario_obj.graph, scenario_obj.config.params)
        expected = skew_analysis.max_skew_by_distance(
            trace, scenario_obj.graph, weight=weight
        )
        observed = payload["observers"]["observers"]["skew_by_distance"]
        assert observed["distances"] == [round(d, 9) for d in expected]
        assert observed["max_skew"] == list(expected.values())

    def test_observation_details_never_change_content_hash(self):
        """Observers, trace mode and backend are all observation/execution
        details: same scenario identity, same seeds, comparable results."""
        base = scenario("quickstart_line", n=4)
        assert base.content_hash() == base.with_observers("global_skew").content_hash()
        assert base.content_hash() == base.with_trace("none").content_hash()
        assert base.content_hash() == base.with_backend("fast").content_hash()

    def test_custom_observer_run_simulates_the_identical_scenario(self):
        """A custom observer selection must not perturb the simulation."""
        base = scenario(
            "line_scaling", **EQUIVALENCE_SCENARIO_OVERRIDES["line_scaling"]
        )
        default = execute_spec(base)
        custom = execute_spec(base.with_observers("global_skew", "mode_counts"))
        assert custom["trace"] == default["trace"]
        payloads = custom["observers"]["observers"]
        assert payloads["global_skew"] == default["observers"]["observers"]["global_skew"]
