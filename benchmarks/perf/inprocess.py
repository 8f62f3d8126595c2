"""In-process phases: the untraced ``run_sweep`` passes and the traced pass.

The untraced passes call what a user calls (``run_sweep`` on a
``ResultCache``).  The traced pass composes what ``execute_spec`` does, spec
by spec, from the layers' public functions, with one span per call; it does
not batch, so on batchable workloads ``trace.wall_ratio`` also contains the
loss of batching.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.experiments import registry
from repro.experiments.bench import BENCH_OBSERVERS
from repro.experiments.executor import CACHE_FORMAT_VERSION, ResultCache, run_sweep
from repro.experiments.results import build_run_pipeline, summarize, trace_to_payload
from repro.experiments.spec import ScenarioSpec
from repro.fastsim.backend import get_backend
from repro.fastsim.engine import UnsupportedScenarioError
from repro.jitsim.engine import build_batch as jit_build_batch
from repro.telemetry import JsonlLog, SweepTelemetry
from repro.telemetry.schema import sanitize_json

import gates
import workloads
from spans import Recorder

#: The layer whose ``*.run_s`` a backend's ``engine.run`` is charged to.
ENGINE_LAYER = {"reference": "sim", "fast": "fastsim", "vec": "vecsim", "jit": "jitsim"}


# ----------------------------------------------------------------------
# Untraced passes
# ----------------------------------------------------------------------
def cold_pass(
    specs: Sequence[ScenarioSpec],
    cache: ResultCache,
    telemetry_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """One ``run_sweep`` over an empty cache; every spec must execute."""
    telemetry = log = None
    if telemetry_path is not None:
        log = JsonlLog(telemetry_path)
        telemetry = SweepTelemetry(log.write_record)
    failures: List[str] = []
    runs: List[Any] = []
    stats = None
    started = time.perf_counter()
    try:
        runs, stats = run_sweep(specs, cache=cache, workers=1, telemetry=telemetry)
    except Exception as exc:  # a raising sweep fails every spec of the pass
        failures += [f"cold: {workloads.spec_key(spec)} raised {exc!r}" for spec in specs]
    ended = time.perf_counter()
    if log is not None:
        log.close()
    if stats is not None:
        if stats.executed != len(specs):
            failures.append(f"cold: executed {stats.executed} of {len(specs)} specs")
        failures += [
            f"cold: {workloads.spec_key(spec)} fell back to reference unasked"
            for spec, run in zip(specs, runs)
            if run.requested_backend is not None
        ]
    backend_wall: Dict[str, float] = {}
    for spec, run in zip(specs, runs):
        backend_wall[spec.backend] = backend_wall.get(spec.backend, 0.0) + run.wall_time
    return {
        "interval": (started, ended),
        "wall": ended - started,
        "runs": runs,
        "stats": stats,
        "failures": failures,
        "backend_wall": backend_wall,
    }


def warm_passes(
    specs: Sequence[ScenarioSpec], cache: ResultCache, budget: float
) -> Dict[str, Any]:
    """Repeat the list on the now-warm cache until ``budget`` seconds passed."""
    intervals: List[tuple] = []
    failures: List[str] = []
    first_runs: List[Any] = []
    lookups = hits = 0
    deadline = time.perf_counter() + budget
    while not intervals or time.perf_counter() < deadline:
        started = time.perf_counter()
        try:
            runs, stats = run_sweep(specs, cache=cache, workers=1)
        except Exception as exc:
            failures.append(f"warm: pass {len(intervals)} raised {exc!r}")
            break
        intervals.append((started, time.perf_counter()))
        lookups += stats.total
        hits += stats.cached
        if stats.cached != len(specs):
            failures.append(
                f"warm: pass {len(intervals) - 1} served {stats.cached} of {len(specs)} from cache"
            )
            break
        if not first_runs:
            first_runs = runs
    return {
        "intervals": intervals,
        "first_runs": first_runs,
        "failures": failures,
        "lookups": lookups,
        "hits": hits,
    }


def digests_of(specs: Sequence[ScenarioSpec], runs: Sequence[Any]) -> Dict[str, str]:
    return {workloads.spec_key(spec): gates.digest_run(run) for spec, run in zip(specs, runs)}


def summaries_of(specs: Sequence[ScenarioSpec], runs: Sequence[Any]) -> Dict[str, Dict[str, Any]]:
    return {workloads.spec_key(spec): run.summary.to_dict() for spec, run in zip(specs, runs)}


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _message_counts(engine) -> tuple:
    """Exact sent/delivered message counts (reference: its transport)."""
    source = getattr(engine, "transport", None) or engine
    return int(source.sent_count), int(source.delivered_count)


def _events_within(graph, horizon: float) -> int:
    events = list(graph.pending_events()) + list(graph.pending_node_resets())
    return sum(1 for event in events if event.time <= horizon)


def traced_spec(
    rec: Recorder, spec: ScenarioSpec, cache: ResultCache, counts: Dict[str, float]
) -> Dict[str, Any]:
    """Run one spec through the layers' public calls, one span per call.

    Returns the payload as re-loaded from ``cache`` plus the recorded trace
    and the materialised scenario (for the observer replay).
    """
    started = time.perf_counter()
    backend = spec.backend
    with rec.span("executor.spec", spec.content_hash()[:16]):
        with rec.span("spec.roundtrip"):
            spec = ScenarioSpec.from_dict(spec.to_dict())
            spec_hash = spec.content_hash()
        with rec.span("cache.key_for"):
            cache.key_for(spec)
        with rec.span("registry.materialise"):
            scenario = registry.build_scenario(spec)
        counts["network.nodes"] += scenario.graph.node_count
        counts["network.edges"] += len(scenario.base_edges)
        counts["network.graph_events"] += _events_within(
            scenario.graph, scenario.config.duration
        )
        run = (scenario.graph, scenario.algorithm_factory, scenario.config)
        context = None
        with rec.span(f"backend.{backend}.build"):
            if backend == "jit":
                # The batch builder is the public route to the context whose
                # fused/stepped counters explain jitsim.run_s.
                context = jit_build_batch([run])
                engine = context.engines[0]
            else:
                engine = get_backend(backend).build(*run)
        with rec.span("metrics.pipeline_build"):
            pipeline = build_run_pipeline(
                spec,
                graph=scenario.graph,
                base_edges=scenario.base_edges,
                config=scenario.config,
                meta=scenario.meta,
                global_skew_bound=scenario.global_skew_bound,
            )
            engine.configure_recording(pipeline, record_trace=spec.trace == "full")
        layer = ENGINE_LAYER[backend]
        with rec.span(f"{layer}.run"):
            trace = engine.run(scenario.config.duration)
        counts[f"{layer}.node_steps"] += workloads.node_steps(spec)
        sent, delivered = _message_counts(engine)
        counts["estimate.messages_sent"] += sent
        counts["estimate.messages_delivered"] += delivered
        if context is not None:
            counts["jitsim.fused_steps"] += context.fused_steps
            counts["jitsim.stepped_steps"] += context.stepped_steps
        with rec.span("metrics.finalize"):
            report = pipeline.finalize()
        counts["metrics.samples"] += report.sample_count
        with rec.span("results.payload"):
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
            payload = sanitize_json(
                {
                    "format": CACHE_FORMAT_VERSION,
                    "library_version": repro.__version__,
                    "spec": spec.to_dict(),
                    "spec_hash": spec_hash,
                    "backend": backend,
                    "summary": summary.to_dict(),
                    "meta": scenario.meta,
                    "observers": report.to_payload(),
                    "trace": trace_to_payload(trace) if spec.trace == "full" else None,
                    "wall_time": time.perf_counter() - started,
                    "stopped_early": bool(engine.stopped_early),
                }
            )
        with rec.span("cache.store"):
            path = cache.store(spec, payload)
        counts["results.payload_bytes"] += path.stat().st_size
        with rec.span("cache.load"):
            loaded = cache.load(spec)
    return {"payload": loaded, "trace": trace, "scenario": scenario, "spec": spec}


def traced_pass(
    rec: Recorder, specs: Sequence[ScenarioSpec], cache: ResultCache
) -> Dict[str, Any]:
    """The traced pass over ``specs``; returns digests, counts and failures."""
    counts: Dict[str, float] = {
        name: 0
        for name in (
            "network.nodes",
            "network.edges",
            "network.graph_events",
            "metrics.samples",
            "estimate.messages_sent",
            "estimate.messages_delivered",
            "jitsim.fused_steps",
            "jitsim.stepped_steps",
            "results.payload_bytes",
        )
    }
    for layer in ENGINE_LAYER.values():
        counts[f"{layer}.node_steps"] = 0
    digests: Dict[str, str] = {}
    failures: List[str] = []
    replayed = set()
    for spec in specs:
        key = workloads.spec_key(spec)
        try:
            outcome = traced_spec(rec, spec, cache, counts)
        except UnsupportedScenarioError as exc:
            failures.append(f"traced: {key} declined by its backend ({exc})")
            continue
        except Exception as exc:
            failures.append(f"traced: {key} raised {exc!r}")
            continue
        if outcome["payload"] is None:
            failures.append(f"traced: {key} stored payload does not load back")
            continue
        digests[key] = gates.digest_payload(outcome["payload"])
        spec_hash = spec.content_hash()
        if spec.trace == "full" and spec_hash not in replayed:
            # Observer cost per run without the engine: the same observers
            # replayed over the recorded trace (once per scenario; the trace
            # is identical on every backend).  Outside the per-spec root
            # span, so it is not part of the traced wall.
            replayed.add(spec_hash)
            scenario = outcome["scenario"]
            pipeline = build_run_pipeline(
                outcome["spec"],
                graph=registry.build_graph(outcome["spec"])[0],
                base_edges=scenario.base_edges,
                config=scenario.config,
                meta=scenario.meta,
                global_skew_bound=scenario.global_skew_bound,
            )
            with rec.span("metrics.replay", spec_hash[:16]):
                pipeline.replay(outcome["trace"])
    return {"digests": digests, "counts": counts, "failures": failures}


# ----------------------------------------------------------------------
# Reference cross-check (seeds other than 0)
# ----------------------------------------------------------------------
def reference_check(specs: Sequence[ScenarioSpec], cache: ResultCache) -> List[str]:
    """Each scenario's shortened copy must agree between ``reference`` and the
    first columnar backend that runs it in this workload."""
    by_hash: Dict[str, ScenarioSpec] = {}
    for spec in specs:
        if spec.backend != "reference":
            by_hash.setdefault(spec.content_hash(), spec)
    pairs: List[ScenarioSpec] = []
    for spec in by_hash.values():
        # Full trace (it determines every observer), scalar observers: the
        # all-pairs precompute would only repeat a fixed cost here.
        short = (
            workloads.shortened_for_reference(spec)
            .with_trace("full")
            .with_observers(*BENCH_OBSERVERS)
        )
        pairs += [short.with_backend("reference"), short]
    if not pairs:
        return []
    try:
        runs, stats = run_sweep(pairs, cache=cache, workers=1, strict_backend=True)
    except Exception as exc:
        return [f"reference-check: raised {exc!r}"]
    failures = []
    for index in range(0, len(pairs), 2):
        left, right = gates.digest_run(runs[index]), gates.digest_run(runs[index + 1])
        if left != right:
            failures.append(
                f"reference-check: {workloads.spec_key(pairs[index + 1])} "
                f"{right[:12]} != reference {left[:12]}"
            )
    return failures


def reference_check_ops(specs: Sequence[ScenarioSpec]) -> int:
    return len({spec.content_hash() for spec in specs if spec.backend != "reference"})
