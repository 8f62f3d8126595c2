"""Watchdog observer semantics: firing, silence, and backend agreement.

Three layers:

* unit -- synthetic samples through a hand-built pipeline, pinning the
  edge-trigger / fire-once semantics and the telemetry side channel;
* adversarial -- a ramped-skew sample stream must fire the global-skew
  watchdog (and only it);
* clean end-to-end -- on the paper's scenarios the gradient-bound watchdog
  stays silent, the convergence/stabilization watchdogs fire, and all
  watchdog payloads agree bit-for-bit across the three backends.
"""

from __future__ import annotations

import pytest

from conftest import INSTALLED_BACKENDS, feed_sample
from repro.core.parameters import Parameters
from repro.experiments import execute_spec, registry, scenario
from repro.experiments.results import stop_watchdog_for
from repro.metrics import (
    OBSERVERS,
    WATCHDOG_NAMES,
    build_pipeline,
    is_watchdog_name,
)
from repro.metrics.watchdogs import MAX_EVENT_RECORDS, Watchdog
from repro.network import topology
from repro.sim.trace import TraceSample

BACKENDS = INSTALLED_BACKENDS

#: Observer selection exercising every watchdog next to the default set.
ALL_WATCHDOGS = (
    "global_skew",
    "local_skew",
    "convergence_time",
    "mode_counts",
    "stabilization_window",
    "gradient_bound_check",
) + WATCHDOG_NAMES


def line_sample(time, offsets):
    """A TraceSample for a line graph with the given logical offsets."""
    nodes = range(len(offsets))
    return TraceSample.from_dicts(
        time=time,
        logical={i: time + offsets[i] for i in nodes},
        hardware={i: time for i in nodes},
        multipliers={i: 1.0 for i in nodes},
        modes={i: "fast" for i in nodes},
        max_estimates={i: time for i in nodes},
    )


def skew_pipeline(bound=1.0, **kwargs):
    return build_pipeline(
        ("watchdog_global_skew",),
        graph=topology.line(3),
        params=Parameters(),
        global_skew_bound=bound,
        duration=10.0,
        dt=1.0,
        **kwargs,
    )


class TestRegistry:
    def test_watchdogs_are_registered_observers(self):
        assert set(WATCHDOG_NAMES) <= set(OBSERVERS)
        for name in WATCHDOG_NAMES:
            assert is_watchdog_name(name)
            assert issubclass(OBSERVERS[name], Watchdog)
        assert not is_watchdog_name("global_skew")

    def test_stop_watchdog_selection(self):
        plain = scenario("line_scaling", n=4)
        assert stop_watchdog_for(plain, {}) == "watchdog_convergence"
        insertion = scenario("end_to_end_insertion", n=6, insertion_time=10.0)
        meta = registry.build_scenario(insertion).meta
        assert stop_watchdog_for(insertion, meta) == "watchdog_stabilization"


class TestGlobalSkewWatchdogUnit:
    def test_adversarial_ramp_fires_per_excursion(self):
        fired = []
        pipeline = skew_pipeline(
            bound=1.0, sink=lambda event, **f: fired.append((event, f))
        )
        # Two excursions above the ceiling; consecutive violating samples
        # within one excursion must not re-fire.
        for t, skew in enumerate([0.5, 1.5, 2.0, 0.5, 3.0, 0.2]):
            feed_sample(pipeline, line_sample(float(t), [0.0, 0.0, skew]))
        payload = pipeline.finalize().payloads["watchdog_global_skew"]
        assert payload["applicable"]
        assert payload["fired"] == 2
        assert payload["first_fired"] == 1.0
        assert payload["threshold"] == 1.0
        assert [e["time"] for e in payload["events"]] == [1.0, 4.0]
        events = [f for event, f in fired if event == "watchdog_fired"]
        assert [e["sim_time"] for e in events] == [1.0, 4.0]
        assert all(e["watchdog"] == "watchdog_global_skew" for e in events)

    def test_quiet_run_stays_silent(self):
        pipeline = skew_pipeline(bound=5.0)
        for t in range(4):
            feed_sample(pipeline, line_sample(float(t), [0.0, 0.1, 0.2]))
        payload = pipeline.finalize().payloads["watchdog_global_skew"]
        assert payload["fired"] == 0
        assert payload["first_fired"] is None
        assert payload["events"] == []

    def test_inapplicable_without_a_bound(self):
        pipeline = skew_pipeline(bound=None)
        feed_sample(pipeline, line_sample(0.0, [0.0, 0.0, 99.0]))
        payload = pipeline.finalize().payloads["watchdog_global_skew"]
        assert payload == {"applicable": False}

    def test_event_records_are_capped_but_counter_is_exact(self):
        pipeline = skew_pipeline(bound=1.0)
        for t in range(2 * (MAX_EVENT_RECORDS + 10)):
            # Alternate above/below the ceiling: every odd sample fires.
            skew = 2.0 if t % 2 else 0.0
            feed_sample(pipeline, line_sample(float(t), [0.0, 0.0, skew]))
        payload = pipeline.finalize().payloads["watchdog_global_skew"]
        assert payload["fired"] == MAX_EVENT_RECORDS + 10
        assert len(payload["events"]) == MAX_EVENT_RECORDS

    def test_armed_watchdog_requests_stop_on_first_fire(self):
        pipeline = build_pipeline(
            ("watchdog_global_skew",),
            graph=topology.line(3),
            params=Parameters(),
            global_skew_bound=1.0,
            duration=10.0,
            dt=1.0,
            stop_on="watchdog_global_skew",
        )
        feed_sample(pipeline, line_sample(0.0, [0.0, 0.0, 0.5]))
        assert not pipeline.stop_requested
        feed_sample(pipeline, line_sample(1.0, [0.0, 0.0, 2.0]))
        assert pipeline.stop_requested
        assert pipeline.watchdogs_fired == {"watchdog_global_skew": 1}


class TestConvergenceWatchdogUnit:
    def test_fires_once_at_first_halving(self):
        pipeline = build_pipeline(
            ("watchdog_convergence",),
            graph=topology.line(3),
            params=Parameters(),
            duration=10.0,
            dt=1.0,
        )
        for t, skew in enumerate([4.0, 3.0, 2.0, 1.0, 2.0, 1.5]):
            feed_sample(pipeline, line_sample(float(t), [0.0, 0.0, skew]))
        payload = pipeline.finalize().payloads["watchdog_convergence"]
        assert payload["threshold"] == 2.0
        assert payload["fired"] == 1
        assert payload["first_fired"] == 2.0

    def test_zero_initial_skew_never_fires(self):
        pipeline = build_pipeline(
            ("watchdog_convergence",),
            graph=topology.line(3),
            params=Parameters(),
            duration=10.0,
            dt=1.0,
        )
        for t in range(4):
            feed_sample(pipeline, line_sample(float(t), [0.0, 0.0, 0.0]))
        payload = pipeline.finalize().payloads["watchdog_convergence"]
        assert payload["threshold"] is None
        assert payload["fired"] == 0


class TestCleanScenariosAcrossBackends:
    """On the paper's scenarios the algorithm honors its proven bounds, so
    the violation watchdogs must stay silent -- on every backend, with
    bit-identical payloads."""

    @pytest.fixture(scope="class")
    def payloads(self):
        # Default duration: long enough for convergence to actually happen.
        base = scenario("line_scaling", n=6).with_observers(*ALL_WATCHDOGS)
        return {
            backend: execute_spec(base.with_backend(backend))
            for backend in BACKENDS
        }

    def test_gradient_bound_watchdog_stays_silent(self, payloads):
        for backend in BACKENDS:
            payload = payloads[backend]["observers"]["observers"]
            gradient = payload["watchdog_gradient_bound"]
            assert gradient["applicable"], backend
            assert gradient["fired"] == 0, backend
            # ... and the passive checker agrees there were no violations.
            assert payload["gradient_bound_check"]["violations"] == 0

    def test_global_skew_watchdog_stays_silent(self, payloads):
        for backend in BACKENDS:
            skew = payloads[backend]["observers"]["observers"]["watchdog_global_skew"]
            assert skew["applicable"], backend
            assert skew["fired"] == 0, backend

    def test_watchdog_payloads_identical_across_backends(self, payloads):
        reference = payloads["reference"]["observers"]["observers"]
        for backend in BACKENDS[1:]:
            other = payloads[backend]["observers"]["observers"]
            for name in WATCHDOG_NAMES:
                assert reference[name] == other[name], (backend, name)

    def test_convergence_watchdog_fires_identically(self, payloads):
        for backend in BACKENDS:
            conv = payloads[backend]["observers"]["observers"]["watchdog_convergence"]
            assert conv["fired"] >= 1, backend
            assert (
                conv["first_fired"]
                == payloads["reference"]["observers"]["observers"][
                    "watchdog_convergence"
                ]["first_fired"]
            )


class TestStabilizationWatchdog:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fires_after_insertion(self, backend):
        # Default duration: the Theta(G/mu) insertion window must fit.
        spec = scenario(
            "end_to_end_insertion", n=6, insertion_time=10.0, backend=backend
        ).with_observers(*ALL_WATCHDOGS)
        payload = execute_spec(spec)["observers"]["observers"]
        stab = payload["watchdog_stabilization"]
        assert stab["applicable"]
        assert stab["fired"] == 1
        assert stab["first_fired"] >= 10.0
        # The passive window observer and the live watchdog agree on when
        # stabilization happened.
        window = payload["stabilization_window"]
        if window.get("stabilized"):
            assert stab["first_fired"] == pytest.approx(
                10.0 + window["elapsed_since_event"]
            )

    def test_inapplicable_on_static_scenarios(self):
        spec = scenario("line_scaling", n=4, sim={"duration": 10.0})
        spec = spec.with_observers("global_skew", "watchdog_stabilization")
        payload = execute_spec(spec)["observers"]["observers"]
        assert payload["watchdog_stabilization"] == {"applicable": False}
