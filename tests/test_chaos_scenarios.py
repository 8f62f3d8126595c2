"""The packaged chaos scenario pack: load, lint, register, run.

Every shipped ``*.json`` file must parse, validate cleanly, register as a
first-class scenario, and actually run (shortened) on the reference
backend.  The adversarial shifting scenarios additionally run at full
length so the measured skew can be held against the analytic lower bound
-- the acceptance check of the chaos pack.
"""

import dataclasses
import json

import pytest

from repro.chaos import adversarial, loader, validate
from repro.experiments import cli, registry, scenario
from repro.experiments.executor import execute_spec
from repro.experiments.spec import SpecError

PACK_FILES, PACK_ERRORS = loader.load_packaged_scenarios()
PACK_NAMES = [sf.name for sf in PACK_FILES]

#: One cheap representative per non-adversarial family for the smoke run
#: (adversarial files get their own full-length tests below).
SMOKE_DURATION = 6.0


class TestPackLoads:
    def test_pack_ships_at_least_twenty_files(self):
        assert len(PACK_FILES) >= 20

    def test_pack_loads_without_errors(self):
        assert PACK_ERRORS == []
        assert loader.LOAD_ERRORS == []

    def test_every_family_is_represented(self):
        families = {sf.name: sf.family for sf in PACK_FILES}
        assert set(families.values()) == set(loader.FAMILIES)

    def test_all_files_register_as_scenarios(self):
        for sf in PACK_FILES:
            assert sf.name in registry.SCENARIOS
            builder = registry.SCENARIOS.get(sf.name)
            assert builder.chaos_family == sf.family
            assert f"[chaos/{sf.family}]" in builder.__doc__

    def test_registered_builder_reproduces_the_file_spec(self):
        for sf in PACK_FILES:
            assert scenario(sf.name).content_hash() == sf.spec.content_hash()

    def test_builders_accept_sim_overrides_and_reject_others(self):
        spec = scenario(PACK_NAMES[0], sim={"duration": 3.0})
        assert spec.sim["duration"] == 3.0
        # Untouched sim keys survive the merge.
        assert spec.sim["dt"] == PACK_FILES[0].spec.sim["dt"]
        with pytest.raises(SpecError):
            scenario(PACK_NAMES[0], topology=("ring", {"n": 4}))

    def test_comment_lines_are_stripped(self):
        text = "# header\n{\n# inline full-line comment\n\"a\": 1}\n"
        assert loader.parse_commented_json(text) == {"a": 1}


class TestValidateLint:
    def test_packaged_pack_is_clean(self, capsys):
        report = validate.validate_pack()
        assert report.ok, "\n".join(report.describe())
        assert report.problem_count == 0
        assert len(report.files) == len(PACK_FILES)
        # The lint's command line exits 0 on the packaged pack.
        assert cli.main(["scenarios", "--validate"]) == 0
        assert capsys.readouterr().out.splitlines() == report.describe()

    def test_broken_user_file_is_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
        good = {
            "chaos_format": 1,
            "name": "user_chaos_ok",
            "family": "crash_restart",
            "description": "valid user scenario",
            "spec": PACK_FILES[0].spec.to_dict(),
        }
        (tmp_path / "good.json").write_text(json.dumps(good), encoding="utf-8")
        report = validate.validate_pack([tmp_path])
        assert not report.ok
        assert any("broken.json" in problem for problem in report.global_problems)
        # The good user file passes: schema + build, registration not required.
        by_name = {f.name: f for f in report.files}
        assert by_name["user_chaos_ok"].ok

    def test_missing_watchdog_observer_is_a_problem(self, tmp_path):
        payload = {
            "chaos_format": 1,
            "name": "user_chaos_no_watchdog",
            "family": "crash_restart",
            "spec": dict(PACK_FILES[0].spec.to_dict(), observers=["global_skew"]),
        }
        (tmp_path / "no_watchdog.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )
        report = validate.validate_pack([tmp_path])
        by_name = {f.name: f for f in report.files}
        problems = by_name["user_chaos_no_watchdog"].problems
        assert any("watchdog" in problem for problem in problems)

    def test_describe_renders_a_summary_line(self):
        lines = validate.validate_pack().describe()
        assert lines[-1].endswith("problem(s)")
        assert any(line.startswith("ok") for line in lines)


class TestScenarioSmokeRuns:
    """Every packaged file runs (shortened) on the reference backend."""

    @pytest.mark.parametrize("name", PACK_NAMES)
    def test_runs_shortened_on_reference(self, name):
        spec = scenario(name, sim={"duration": SMOKE_DURATION})
        payload = execute_spec(spec)
        summary = payload["summary"]
        assert summary["node_count"] >= 2
        assert summary["final_global_skew"] is not None

    @pytest.mark.parametrize(
        "name",
        [
            "chaos_mass_churn_line",
            "chaos_partition_line_half",
            "chaos_delay_storm_line",
        ],
    )
    def test_fast_backend_matches_reference_exactly(self, name):
        """Edge churn and delay storms are fast-backend compatible: the
        payloads must agree bit-for-bit (same differential contract as the
        built-in scenario equivalence suite)."""
        spec = scenario(name, sim={"duration": SMOKE_DURATION})
        reference = execute_spec(spec.with_backend("reference"))
        fast = execute_spec(spec.with_backend("fast"))
        assert reference["trace"] == fast["trace"]
        assert reference["summary"] == fast["summary"]

    def test_crash_restart_runs_on_reference_under_auto(self, tmp_path):
        from repro.experiments.executor import ResultCache, run_sweep

        spec = scenario("chaos_crash_restart_line", sim={"duration": SMOKE_DURATION})
        auto = dataclasses.replace(spec, backend="auto")
        cache = ResultCache(tmp_path / "cache")
        runs, stats = run_sweep([auto], cache=cache, use_cache=False)
        assert stats.executed == 1
        assert runs[0].spec.backend == "reference"

    def test_fast_refuses_crash_restart_with_the_reason(self, tmp_path):
        from repro.experiments.executor import ResultCache, run_sweep
        from repro.fastsim.engine import UnsupportedScenarioError

        spec = scenario("chaos_crash_restart_line", sim={"duration": SMOKE_DURATION})
        fast = dataclasses.replace(spec, backend="fast")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(UnsupportedScenarioError, match="resets.*backend=auto"):
            run_sweep([fast], cache=cache, use_cache=False)


class TestAdversarialShifting:
    def test_files_match_their_derivation_exactly(self):
        by_name = {sf.name: sf for sf in PACK_FILES}
        for name in adversarial.PACKAGED_VARIANTS:
            sf = by_name[name]
            expected = adversarial.expected_spec(name)
            assert expected.content_hash() == sf.spec.content_hash()
            assert sf.family == "adversarial_shifting"

    def test_expectations_carry_the_analytic_bound(self):
        by_name = {sf.name: sf for sf in PACK_FILES}
        accumulate = by_name["chaos_shifting_accumulate_n6"]
        assert accumulate.expect["min_final_global_skew"] == pytest.approx(
            accumulate.spec.notes["expected_lower_bound"]
        )
        aopt = by_name["chaos_shifting_aopt_n6"]
        assert aopt.expect["max_final_global_skew"] == pytest.approx(
            aopt.spec.notes["global_skew_bound"]
        )

    def test_accumulation_run_exceeds_the_lower_bound(self):
        """The acceptance check: measured skew >= analytic Omega(D) bound.

        ``hardware_only`` applies no correction, so the final skew is
        exactly what the ramp adversary built; at ``duration_factor *
        t_min`` it must clear the bound with margin.
        """
        by_name = {sf.name: sf for sf in PACK_FILES}
        sf = by_name["chaos_shifting_accumulate_n6"]
        payload = execute_spec(sf.spec)
        measured = payload["summary"]["final_global_skew"]
        assert measured >= sf.expect["min_final_global_skew"]
        # The construction is exact: 2 * rho * duration.
        rho = sf.spec.params["rho"]
        duration = sf.spec.sim["duration"]
        assert measured == pytest.approx(2.0 * rho * duration, rel=1e-6)

    def test_aopt_holds_skew_below_its_bound_under_the_adversary(self):
        by_name = {sf.name: sf for sf in PACK_FILES}
        sf = by_name["chaos_shifting_aopt_n6"]
        # A prefix of the full run suffices for the upper bound: the
        # envelope must hold at *all* times, so any duration is a valid
        # check and the short one keeps the suite fast.
        spec = scenario(sf.name, sim={"duration": 60.0})
        payload = execute_spec(spec)
        assert (
            payload["summary"]["max_global_skew"]
            <= sf.expect["max_final_global_skew"]
        )

    def test_adversarial_specs_run_under_auto_bitwise_identically(self):
        by_name = {sf.name: sf for sf in PACK_FILES}
        sf = by_name["chaos_shifting_accumulate_n6"]
        short = scenario(sf.name, sim={"duration": 20.0})
        from repro.experiments.executor import run_sweep

        runs, stats = run_sweep(
            [short, dataclasses.replace(short, backend="auto")],
            use_cache=False,
        )
        assert [run.spec.backend for run in runs] == ["reference", "reference"]
        assert (
            runs[0].summary.final_global_skew
            == runs[1].summary.final_global_skew
        )

    def test_shifting_spec_validates_inputs(self):
        with pytest.raises(SpecError):
            adversarial.shifting_spec("x", n=6, algorithm="nope")
        with pytest.raises(SpecError):
            adversarial.shifting_spec("x", n=6, duration_factor=1.0)

    def test_render_round_trips_through_the_loader(self, tmp_path):
        name = "chaos_shifting_accumulate_n6"
        path = tmp_path / f"{name}.json"
        path.write_text(adversarial.render_file(name), encoding="utf-8")
        sf = loader.load_scenario_file(path)
        assert sf.name == name
        assert sf.spec.content_hash() == adversarial.expected_spec(name).content_hash()
