"""``until_stable`` early exit: truncation semantics and cache isolation.

The load-bearing guarantee: a truncated run's observer report is
*bit-identical* to the full run's report restricted to the same sample
window.  Watchdogs only fire at sample-record instants and the engines only
check the stop flag right after recording, so the truncated run IS a prefix
of the full run -- replaying the full trace up to the stop time through a
fresh pipeline must reproduce the truncated report exactly, on every
backend.
"""

from __future__ import annotations

import json

import pytest

from conftest import INSTALLED_BACKENDS, feed_sample
from repro.experiments import ResultCache, execute_spec, registry, run_sweep, scenario
from repro.experiments.results import build_run_pipeline, trace_from_payload

BACKENDS = INSTALLED_BACKENDS

#: line_scaling n=6 at default duration: converges around a third of the
#: way in, so the early exit is a real (~3x) truncation.
def stable_spec(backend="reference"):
    return scenario("line_scaling", n=6, until_stable=True, backend=backend)


class TestSpecSurface:
    def test_flag_round_trips_and_validates(self):
        spec = stable_spec()
        assert spec.until_stable
        assert spec.to_dict()["until_stable"] is True
        clone = type(spec).from_dict(spec.to_dict())
        assert clone.until_stable
        assert not scenario("line_scaling", n=6).until_stable
        with pytest.raises(Exception):
            scenario("line_scaling", n=6, until_stable="yes")

    def test_with_until_stable_helper(self):
        spec = scenario("line_scaling", n=6)
        assert spec.with_until_stable().until_stable
        assert not spec.with_until_stable(False).until_stable

    def test_content_hash_excludes_until_stable(self):
        # until_stable changes *how long* we observe, not *what* we run:
        # it is an observation detail, outside the canonical identity.
        full = scenario("line_scaling", n=6)
        assert stable_spec().content_hash() == full.content_hash()

    def test_stable_run_gets_its_own_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        full = scenario("line_scaling", n=6)
        assert stable_spec().content_hash() == full.content_hash()
        assert cache.key_for(stable_spec()) != cache.key_for(full)
        assert cache.key_for(stable_spec()) == f"{stable_spec().result_hash()}.reference"

    def test_cache_isolation_between_full_and_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = scenario("line_scaling", n=4, sim={"duration": 5.0})
        cache.store(spec, execute_spec(spec))
        assert cache.load(spec) is not None
        assert cache.load(spec.with_until_stable()) is None


class TestEarlyExit:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_stops_early_with_fewer_samples(self, backend):
        full = execute_spec(scenario("line_scaling", n=6, backend=backend))
        truncated = execute_spec(stable_spec(backend))
        assert truncated["stopped_early"] is True
        assert full["stopped_early"] is False
        assert (
            truncated["observers"]["sample_count"]
            < full["observers"]["sample_count"] / 2
        )
        conv = truncated["observers"]["observers"]["watchdog_convergence"]
        assert conv["fired"] == 1
        # The last recorded sample is the one that tripped the stop.
        assert truncated["trace"]["samples"][-1]["time"] == conv["first_fired"]

    def test_zero_initial_skew_runs_to_full_duration(self):
        # Nothing to converge: the armed watchdog never fires and the run
        # must quietly complete instead of hanging or stopping at t=0.
        spec = scenario("quickstart_line", n=4, until_stable=True)
        payload = execute_spec(spec)
        assert payload["stopped_early"] is False

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_truncated_report_is_bit_identical_to_restricted_full_report(
        self, backend
    ):
        """The acceptance criterion: truncated == full restricted to the
        same window, compared as serialised JSON (bit-for-bit)."""
        truncated = execute_spec(stable_spec(backend))
        stop_time = truncated["observers"]["observers"]["watchdog_convergence"][
            "first_fired"
        ]
        full = execute_spec(scenario("line_scaling", n=6, backend=backend))
        trace = trace_from_payload(full["trace"])

        spec = stable_spec(backend)
        built = registry.build_scenario(spec)
        pipeline = build_run_pipeline(
            spec,
            graph=built.graph,
            base_edges=built.base_edges,
            config=built.config,
            meta=built.meta,
            global_skew_bound=built.global_skew_bound,
        )
        for sample in trace:
            if sample.time <= stop_time + 1e-12:
                feed_sample(pipeline, sample)
        restricted = pipeline.finalize().to_payload()
        assert json.dumps(restricted, sort_keys=True) == json.dumps(
            truncated["observers"], sort_keys=True
        )

    def test_truncated_traces_identical_across_backends(self):
        reference = execute_spec(stable_spec("reference"))
        for backend in BACKENDS[1:]:
            other = execute_spec(stable_spec(backend))
            assert other["trace"] == reference["trace"], backend
            assert other["summary"] == reference["summary"], backend
            assert other["observers"] == reference["observers"], backend

    def test_insertion_scenario_stops_at_stabilization(self):
        spec = scenario(
            "end_to_end_insertion", n=6, insertion_time=10.0, until_stable=True
        )
        payload = execute_spec(spec)
        assert payload["stopped_early"] is True
        stab = payload["observers"]["observers"]["watchdog_stabilization"]
        assert stab["fired"] == 1
        assert payload["trace"]["samples"][-1]["time"] == stab["first_fired"]


class TestSweepIntegration:
    def test_runner_caches_stable_runs_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = scenario("line_scaling", n=4, sim={"duration": 40.0})
        (full_run,), _ = run_sweep([spec], cache=cache)
        (stable_run,), stats = run_sweep([spec.with_until_stable()], cache=cache)
        assert stats.cached == 0  # the full result must not shadow it
        assert stable_run.stopped_early or (
            # n=4 at 40s may or may not converge; either way the payloads
            # are cached under distinct keys.
            True
        )
        (again,), stats2 = run_sweep([spec.with_until_stable()], cache=cache)
        assert stats2.cached == 1
        assert again.summary.to_dict() == stable_run.summary.to_dict()

    def test_stopped_early_survives_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = stable_spec()
        (live,), _ = run_sweep([spec], cache=cache)
        (cached,), stats = run_sweep([spec], cache=cache)
        assert stats.cached == 1
        assert live.stopped_early is True
        assert cached.stopped_early is True
