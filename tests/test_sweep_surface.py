"""The public sweep surface, pinned name by name.

``run_sweep`` is the one way to run a batch and its telemetry stream the one
way to follow it.  A name added to ``repro.experiments`` or a parameter
added to ``run_sweep`` has to be added to these tables on purpose.
Standard library only, so it runs on every leg.
"""

import inspect

import repro.experiments
from repro.experiments import run_sweep

EXPORTS = [
    "ALGORITHMS",
    "DELAYS",
    "DRIFTS",
    "DYNAMICS",
    "SCENARIOS",
    "TOPOLOGIES",
    "ComponentSpec",
    "ExperimentRun",
    "MaterialisedScenario",
    "ResultCache",
    "RunSummary",
    "ScenarioSpec",
    "SpecError",
    "SweepStats",
    "bench_spec",
    "build_run_pipeline",
    "build_scenario",
    "report_from_trace",
    "execute_spec",
    "expand_grid",
    "run_sweep",
    "scenario",
    "summarize",
]

#: ``strict_backend`` is accepted and ignored; the benchmark harness still
#: passes it.
RUN_SWEEP_PARAMETERS = [
    "specs",
    "cache",
    "workers",
    "use_cache",
    "strict_backend",
    "telemetry",
]


def test_the_experiments_exports_are_the_pinned_table():
    assert repro.experiments.__all__ == EXPORTS
    assert len(EXPORTS) == 23
    for name in EXPORTS:
        assert hasattr(repro.experiments, name), name


def test_run_sweep_takes_the_pinned_parameters():
    assert list(inspect.signature(run_sweep).parameters) == RUN_SWEEP_PARAMETERS
    assert len(RUN_SWEEP_PARAMETERS) == 6
