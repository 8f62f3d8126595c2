"""Declarative experiment orchestration: specs, registries, sweeps, caching.

The subsystem turns "one scenario, one script" into "declare a sweep, run it
in parallel, cache it on disk":

* :mod:`repro.experiments.spec` -- frozen, JSON-serialisable
  :class:`~repro.experiments.spec.ScenarioSpec` with a stable content hash;
* :mod:`repro.experiments.registry` -- named topology/dynamics/drift/delay/
  algorithm factories plus named end-to-end scenarios;
* :mod:`repro.experiments.executor` -- grid expansion, a multiprocessing
  sweep runner and the content-addressed on-disk result cache;
* :mod:`repro.experiments.results` -- spec to payload
  (:func:`~repro.experiments.results.execute_spec`) and the compact
  :class:`~repro.experiments.results.RunSummary` workers return instead of
  whole engines;
* :mod:`repro.experiments.bench` -- ``bench_spec``, the throughput scenario
  family that ``benchmarks/perf`` times and the counted tier-1 gates run;
* :mod:`repro.experiments.cli` -- the ``python -m repro.experiments``
  command line (``list`` / ``run`` / ``sweep`` / ``cache`` / ``scenarios`` /
  ``serve``).
"""

from .bench import bench_spec
from .executor import (
    ExperimentRun,
    ExperimentRunner,
    ResultCache,
    SweepEvent,
    SweepStats,
    execute_spec,
    expand_grid,
    run_sweep,
)
from .registry import (
    ALGORITHMS,
    DELAYS,
    DRIFTS,
    DYNAMICS,
    SCENARIOS,
    TOPOLOGIES,
    MaterialisedScenario,
    build_scenario,
    scenario,
)
from .results import RunSummary, build_run_pipeline, report_from_trace, summarize
from .spec import ComponentSpec, ScenarioSpec, SpecError

__all__ = [
    "ALGORITHMS",
    "DELAYS",
    "DRIFTS",
    "DYNAMICS",
    "SCENARIOS",
    "TOPOLOGIES",
    "ComponentSpec",
    "ExperimentRun",
    "ExperimentRunner",
    "MaterialisedScenario",
    "ResultCache",
    "RunSummary",
    "ScenarioSpec",
    "SpecError",
    "SweepEvent",
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
