"""Compact, picklable run summaries extracted from streaming observers.

A :class:`RunSummary` carries every scalar the benchmark suite reports --
global/local skew statistics, convergence and stabilization times, violation
counts -- without holding on to the :class:`~repro.sim.engine.Engine` (whose
per-node algorithm objects, estimate layers and message queues dominate the
memory of a finished run).

Since the introduction of :mod:`repro.metrics`, every one of those scalars
is computed *during* the run by the streaming observer pipeline;
:func:`summarize` merely reads the finished
:class:`~repro.metrics.pipeline.ObserverReport`.  Callers that only have a
materialized trace (tests, notebooks, old cache tooling) get that report
from :func:`report_from_trace`: the same observers are replayed over the
trace, producing a bit-identical report -- the differential suite asserts
streaming == replay == the pre-refactor post-hoc computation on every
backend.

:func:`execute_spec` runs a spec to the payload the cache stores:
everything that decides a stored result's bits lives here or below, in the
modules the :data:`~repro.experiments.semantics.SEMANTICS` digest covers.
Where a payload goes -- inline, pool, cache -- is
:mod:`repro.experiments.executor`'s.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import __version__ as _library_version
from ..fastsim.backend import get_backend, resolve_backend
from ..metrics import DEFAULT_OBSERVERS, ObserverReport, build_pipeline
from ..sim.trace import Trace, TraceSample
from ..telemetry.schema import sanitize_json
from . import registry
from .spec import ScenarioSpec

Edge = Tuple[int, int]

#: Bumped when the cache payload layout changes; mismatching entries are
#: treated as cache misses and overwritten.  Version 2 added the engine
#: backend to the cache key and payload (reference and fast results of the
#: same scenario are distinct cache entries that may never collide);
#: version 3 added ``trace_stride`` to the key and the serialised spec;
#: version 4 added the streaming ``observers`` report to the payload and
#: made the trace optional (``trace: none`` runs cache ``"trace": null``);
#: version 5 added ``until_stable`` to the serialised spec, the
#: ``stopped_early`` flag to the payload, and strict-JSON serialisation
#: (non-finite floats sanitised, ``allow_nan`` off).  Stale entries are
#: simply re-run and overwritten.  The cache key is the payload's own spec
#: (:meth:`~repro.experiments.executor.ResultCache.key_for`), so a new
#: observation field changes keys, not this layout.
CACHE_FORMAT_VERSION = 5


@dataclass(frozen=True)
class RunSummary:
    """Scalar outcome of one simulation run (small, picklable, JSON-able)."""

    label: str
    spec_hash: str
    node_count: int
    base_edge_count: int
    sample_count: int
    duration: float
    # Global skew over the whole run.  Skew fields are ``None`` -- "not
    # measured" -- when the spec's observer selection excluded the backing
    # observer; with the default selection they are always floats.
    initial_global_skew: Optional[float]
    max_global_skew: Optional[float]
    final_global_skew: Optional[float]
    #: First time the global skew halves its initial value and stays halved.
    halving_time: Optional[float]
    # Local skew over the edges present at time zero.
    max_local_skew: Optional[float]
    # Steady state: the last quarter of the run.
    steady_global_skew: Optional[float]
    steady_local_skew: Optional[float]
    #: The bound G~ the algorithm was configured with (None for baselines).
    global_skew_bound: Optional[float]
    #: Gradient-bound violations (None when churn makes distances ambiguous).
    gradient_violations: Optional[int]
    #: Nodes whose neighbor levels break the Lemma 5.1 subset chain.
    broken_level_chains: Optional[int]
    # Edge-insertion scenarios (None elsewhere).
    event_time: Optional[float] = None
    skew_at_event: Optional[float] = None
    stabilized: Optional[bool] = None
    stabilization_time: Optional[float] = None
    post_event_local_skew: Optional[float] = None
    #: (node, sample) counts per algorithm mode (fast / slow).
    #: (Wall-clock time lives on the ExperimentRun, not here: summaries must
    #: be bit-identical between serial, parallel and cached executions.)
    mode_counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSummary":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def stop_watchdog_for(spec, meta: Dict[str, Any]) -> str:
    """Which watchdog an ``until_stable`` run arms as its stop trigger.

    Insertion scenarios (``meta`` carries the event) wait for the
    post-insertion stabilization window to close; everything else waits for
    global-skew convergence (first halving of the initial skew).
    """
    if meta.get("insertion_time") is not None and meta.get("new_edge") is not None:
        return "watchdog_stabilization"
    return "watchdog_convergence"


def build_run_pipeline(
    spec, *, graph, base_edges, config, meta, global_skew_bound, sink=None
):
    """The streaming pipeline for one materialised scenario.

    Observer selection comes from ``spec.observers`` (empty = the standard
    :data:`~repro.metrics.DEFAULT_OBSERVERS` set backing
    :class:`RunSummary`); the final sample time is predicted from the
    simulation config so steady-window observers stream in constant memory.

    ``sink`` attaches a live telemetry sink (watchdog firings + periodic
    ``progress`` events).  For ``spec.until_stable`` runs the appropriate
    stop watchdog (see :func:`stop_watchdog_for`) is appended to the
    selection if absent and armed as the early-exit trigger -- the engines
    poll the pipeline's ``stop_requested`` after every step.
    """
    names = tuple(spec.observers or DEFAULT_OBSERVERS)
    stop_on = None
    if spec.until_stable:
        stop_on = stop_watchdog_for(spec, meta)
        if stop_on not in names:
            names = names + (stop_on,)
    progress_every = None
    if sink is not None:
        # ~10 progress events per run, at least one sample apart.
        expected = int(config.duration / max(config.sample_interval, config.dt))
        progress_every = max(1, expected // 10)
    return build_pipeline(
        names,
        graph=graph,
        base_edges=base_edges,
        params=config.params,
        meta=meta,
        global_skew_bound=global_skew_bound,
        has_dynamics=spec.dynamics is not None,
        duration=config.duration,
        dt=config.dt,
        sink=sink,
        stop_on=stop_on,
        progress_every=progress_every,
    )


def report_from_trace(
    spec, trace: Trace, *, graph, base_edges, config, meta, global_skew_bound
) -> ObserverReport:
    """Replay a materialized trace through the run's observer pipeline."""
    pipeline = build_pipeline(
        spec.observers or DEFAULT_OBSERVERS,
        graph=graph,
        base_edges=base_edges,
        params=config.params,
        meta=meta,
        global_skew_bound=global_skew_bound,
        has_dynamics=spec.dynamics is not None,
    )
    return pipeline.replay(trace)


def summarize(
    *,
    spec,
    graph,
    base_edges: List[Edge],
    config,
    meta: Dict[str, Any],
    global_skew_bound: Optional[float],
    report: ObserverReport,
    engine=None,
) -> RunSummary:
    """Extract a :class:`RunSummary` from a finished run's ``report`` (the
    streaming pipeline's output, or :func:`report_from_trace`'s).

    ``engine`` is optional: when available (always, inside a worker) the
    per-node invariants that need live algorithm state are checked too.
    """
    samples = report.sample_count
    # A missing observer payload means "not measured" (the spec selected a
    # subset of observers): the corresponding fields become None, never a
    # fabricated 0.0.
    global_payload = report.get("global_skew") or {}
    local_payload = report.get("local_skew") or {}
    convergence_payload = report.get("convergence_time") or {}
    modes_payload = report.get("mode_counts") or {}
    stabilization_payload = report.get("stabilization_window") or {}
    gradient_payload = report.get("gradient_bound_check") or {}

    gradient_violations: Optional[int] = None
    if gradient_payload.get("applicable") and samples:
        gradient_violations = gradient_payload.get("violations")

    event_time = meta.get("insertion_time")
    skew_at_event = stabilized = stabilization_time = None
    if stabilization_payload.get("applicable") and stabilization_payload.get("observed"):
        skew_at_event = stabilization_payload.get("skew_at_event")
        stabilized = stabilization_payload.get("stabilized")
        stabilization_time = stabilization_payload.get("elapsed_since_event")
    post_event = None
    if event_time is not None and "new_edge" in meta and samples:
        post_event = local_payload.get("post_event_max")

    broken_chains: Optional[int] = None
    if engine is not None:
        checks = []
        for node in engine.nodes:
            algorithm = engine.algorithm(node)
            levels = getattr(algorithm, "levels", None)
            if levels is not None and hasattr(levels, "subset_chain_holds"):
                checks.append(0 if levels.subset_chain_holds() else 1)
        if checks:
            broken_chains = sum(checks)

    return RunSummary(
        label=spec.label,
        spec_hash=spec.content_hash(),
        node_count=graph.node_count,
        base_edge_count=len(base_edges),
        sample_count=samples,
        duration=config.duration,
        initial_global_skew=global_payload.get("initial"),
        max_global_skew=global_payload.get("max"),
        final_global_skew=global_payload.get("final"),
        halving_time=convergence_payload.get("halving_time"),
        max_local_skew=local_payload.get("max"),
        steady_global_skew=global_payload.get("steady_max"),
        steady_local_skew=local_payload.get("steady_max"),
        global_skew_bound=global_skew_bound,
        gradient_violations=gradient_violations,
        broken_level_chains=broken_chains,
        event_time=event_time,
        skew_at_event=skew_at_event,
        stabilized=stabilized,
        stabilization_time=stabilization_time,
        post_event_local_skew=post_event,
        mode_counts=dict(modes_payload.get("counts", {})),
    )


# ----------------------------------------------------------------------
# Trace (de)serialisation for the on-disk cache
# ----------------------------------------------------------------------
#: The per-node columns of a sample, in payload order.
_COLUMNS = ("logical", "hardware", "multipliers", "modes", "max_estimates")
#: The columns whose values are floats (``modes`` holds mode names).
_FLOAT_COLUMNS = ("logical", "hardware", "multipliers", "max_estimates")


def trace_to_payload(trace: Optional[Trace]) -> Optional[Dict[str, Any]]:
    """Plain-JSON representation of a trace (node ids become strings).

    ``None`` (a ``trace: none`` run) passes through unchanged.

    The id strings are computed once and reused for every column whose key
    order equals the previous sample's (a static node set: every column of
    every sample); a column that differs is converted key by key.
    """
    if trace is None:
        return None
    ids: Optional[List[Any]] = None
    names: List[str] = []
    samples = []
    for sample in trace:
        entry: Dict[str, Any] = {"time": sample.time}
        for name in _COLUMNS:
            column = getattr(sample, name)
            keys = list(column)
            if keys != ids:
                ids, names = keys, [str(key) for key in keys]
            entry[name] = dict(zip(names, column.values()))
        entry["diameter"] = sample.diameter
        samples.append(entry)
    return {"sample_interval": trace.sample_interval, "samples": samples}


def trace_payload_is_finite(payload: Dict[str, Any]) -> bool:
    """Whether ``sanitize_json`` would return this trace payload unchanged.

    True when every number in it is finite and every mode is a string --
    the check a whole-payload sanitising pass would make, without copying
    the payload.  A value that is no number at all answers ``False`` too:
    the caller then sanitises, which is always correct.
    """
    isfinite = math.isfinite
    try:
        if not isfinite(payload["sample_interval"]):
            return False
        for entry in payload["samples"]:
            diameter = entry["diameter"]
            if not isfinite(entry["time"]) or not (
                diameter is None or isfinite(diameter)
            ):
                return False
            for name in _FLOAT_COLUMNS:
                if not all(map(isfinite, entry[name].values())):
                    return False
            if not set(map(type, entry["modes"].values())) <= {str}:
                return False
    except (TypeError, OverflowError):  # not a number at all / a huge int
        return False
    return True


def trace_from_payload(payload: Optional[Dict[str, Any]]) -> Optional[Trace]:
    """Rebuild a trace from :func:`trace_to_payload` output (None-safe).

    The mirror image of the encoder: the id strings are parsed once and
    reused for every column whose key order equals the previous one's.
    """
    if payload is None:
        return None
    trace = Trace(sample_interval=payload.get("sample_interval", 1.0))
    names: Optional[List[Any]] = None
    ids: List[int] = []
    for entry in payload.get("samples", []):
        columns = {}
        for name in _COLUMNS:
            column = entry[name]
            keys = list(column)
            if keys != names:
                names, ids = keys, [int(key) for key in keys]
            columns[name] = dict(zip(ids, column.values()))
        trace.record(
            TraceSample(time=entry["time"], diameter=entry.get("diameter"), **columns)
        )
    return trace


# ----------------------------------------------------------------------
# Execution: a spec to its payload
# ----------------------------------------------------------------------
def _meta_to_payload(meta: Dict[str, Any]) -> Dict[str, Any]:
    payload = dict(meta)
    if "new_edge" in payload:
        payload["new_edge"] = list(payload["new_edge"])
    if "churn_candidates" in payload:
        payload["churn_candidates"] = [list(e) for e in payload["churn_candidates"]]
    return payload


def meta_from_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    meta = dict(payload)
    if "new_edge" in meta:
        meta["new_edge"] = tuple(meta["new_edge"])
    if "churn_candidates" in meta:
        meta["churn_candidates"] = [tuple(e) for e in meta["churn_candidates"]]
    return meta


def _payload_for(
    spec: ScenarioSpec,
    scenario: "registry.MaterialisedScenario",
    engine,
    trace,
    report: ObserverReport,
    wall_time: float,
) -> Dict[str, Any]:
    summary = summarize(
        spec=spec,
        report=report,
        graph=scenario.graph,
        base_edges=scenario.base_edges,
        config=scenario.config,
        meta=scenario.meta,
        global_skew_bound=scenario.global_skew_bound,
        engine=engine,
    )
    # Sanitized so the cached file is strict JSON even if a summary, meta or
    # trace value is ever non-finite (finite floats pass through bit-exact;
    # ``ResultCache.store`` serialises with ``allow_nan=False`` so a
    # regression fails loudly instead of writing an unparseable ``NaN``
    # token).
    payload = sanitize_json({
        "format": CACHE_FORMAT_VERSION,
        "library_version": _library_version,
        "spec": spec.to_dict(),
        "spec_hash": spec.content_hash(),
        "backend": spec.backend,
        "summary": summary.to_dict(),
        "meta": _meta_to_payload(scenario.meta),
        "observers": report.to_payload(),
        "trace": None,
        "wall_time": wall_time,
        "stopped_early": bool(getattr(engine, "stopped_early", False)),
    })
    if spec.trace == "full":
        # The trace is ~99 % of the payload and all but always finite, in
        # which case sanitising would return an equal copy: check it, and
        # copy only a trace that needs it.
        encoded = trace_to_payload(trace)
        if not trace_payload_is_finite(encoded):
            encoded = sanitize_json(encoded)
        payload["trace"] = encoded
    return payload


def execute_spec(
    spec: ScenarioSpec,
    telemetry_sink: Optional[Callable[..., None]] = None,
) -> Dict[str, Any]:
    """Run one spec to completion and return the cacheable payload.

    The spec's ``backend`` field picks the engine (reference, fast, vec or
    jit; ``auto`` is resolved first, and the payload names the engine that
    ran); every backend receives the identical materialised scenario because
    seeds derive from the backend-independent content hash.  Summaries come from
    the streaming observer pipeline, which every engine feeds during the
    run; with ``trace: none`` the run keeps no samples at all.

    ``telemetry_sink`` (``sink(event_type, **fields)``) streams watchdog
    firings and progress events live during the run; it only observes and
    cannot change the payload.
    """
    started = time.perf_counter()
    spec = resolve_backend(spec)
    scenario = registry.build_scenario(spec)
    engine = get_backend(spec.backend).build(
        scenario.graph, scenario.algorithm_factory, scenario.config
    )
    pipeline = build_run_pipeline(
        spec,
        graph=scenario.graph,
        base_edges=scenario.base_edges,
        config=scenario.config,
        meta=scenario.meta,
        global_skew_bound=scenario.global_skew_bound,
        sink=telemetry_sink,
    )
    engine.configure_recording(pipeline, record_trace=spec.trace == "full")
    trace = engine.run(scenario.config.duration)
    report = pipeline.finalize()
    return _payload_for(
        spec, scenario, engine, trace, report, time.perf_counter() - started
    )

