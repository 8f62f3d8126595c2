"""Backend speed benchmark: reference vs fast engine, head to head.

The benchmark times end-to-end engine construction plus run (no caching, no
summarising) for the same scenario on every registered backend, across a grid
of topology families and node counts, and verifies on the fly that the
produced traces are identical.  Results are written to ``BENCH_fastsim.json``
-- the repo's performance trajectory file -- by the ``repro-experiments
bench`` subcommand and by ``benchmarks/bench_e11_backend_speed.py``.

The scenarios are throughput-oriented: a two-group drift adversary over a
static line / grid / random-connected topology with the benchmark edge
parameters, an adversarial initial ramp and the ``toward_observer`` estimate
strategy -- i.e. the same per-step workload as the E1--E3 suite, with a short
wall-clock duration so that large ``n`` stays affordable.  An explicit
global skew bound (the analytic per-hop bound of
:func:`repro.core.skew_estimates.suggest_global_skew_bound`, computed in
closed form) keeps materialisation cheap at n >> 10^3, where the generic
weighted-diameter search would dominate.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.parameters import Parameters
from ..fastsim.backend import get_backend
from . import registry
from .registry import BENCHMARK_EDGE, BENCHMARK_INSERTION_SCALE, BENCHMARK_PARAMS
from .results import build_run_pipeline, trace_to_payload
from .spec import ComponentSpec, ScenarioSpec, TRACE_MODES

DEFAULT_SIZES: Tuple[int, ...] = (64, 256, 1024)
DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("line", "grid", "random")
DEFAULT_DURATION = 20.0
DEFAULT_DT = 0.1
DEFAULT_OUTPUT = "BENCH_fastsim.json"
#: Estimate modes the bench grid knows how to build.  ``broadcast`` switches
#: the scenario into message-layer estimates (real in-flight messages over
#: the bounded-delay transport) -- the family recorded in BENCH_msgsim.json.
BENCH_ESTIMATE_MODES: Tuple[str, ...] = ("oracle", "broadcast")

#: Observers used by ``--trace none`` bench runs.  Deliberately excludes
#: ``gradient_bound_check`` (and the other all-pairs observers): those are
#: O(n^2) per run by nature and would dominate the throughput measurement at
#: n >> 10^3; the scalar observers here are the per-step streaming workload.
BENCH_OBSERVERS: Tuple[str, ...] = (
    "global_skew",
    "local_skew",
    "convergence_time",
    "mode_counts",
)


class BenchError(ValueError):
    """Raised on invalid benchmark configuration."""


def _per_hop_bound(params: Parameters) -> float:
    """Closed-form per-hop term of ``suggest_global_skew_bound``."""
    edge = BENCHMARK_EDGE
    return (
        edge["epsilon"]
        + edge["delay"]
        + 2.0 * params.rho * (1.0 + edge["delay"])
    )


def _topology_component(kind: str, n: int) -> Tuple[ComponentSpec, int]:
    """Topology component plus a (possibly over-estimated) hop diameter."""
    if kind == "line":
        return ComponentSpec("line", {"n": n}), n - 1
    if kind == "grid":
        rows = max(2, math.isqrt(n))
        cols = max(2, (n + rows - 1) // rows)
        return ComponentSpec("grid", {"rows": rows, "cols": cols}), rows + cols - 2
    if kind == "random":
        # Sparse random connected graph: the per-pair probability scales as
        # 1/n so the expected extra degree stays constant across sizes.  The
        # hop diameter is bounded by n - 1 and the skew bound only needs to
        # dominate it.
        probability = min(0.05, 8.0 / n)
        return (
            ComponentSpec(
                "random_connected",
                {"n": n, "extra_edge_probability": probability},
            ),
            n - 1,
        )
    raise BenchError(f"unknown bench topology {kind!r}; known: line, grid, random")


def bench_spec(
    kind: str,
    n: int,
    *,
    duration: float = DEFAULT_DURATION,
    dt: float = DEFAULT_DT,
    backend: str = "reference",
    estimate_mode: str = "oracle",
    broadcast_interval: float = 1.0,
) -> ScenarioSpec:
    """The backend-benchmark scenario for one (topology, size) grid point."""
    if n < 2:
        raise BenchError(f"bench scenarios need n >= 2, got {n}")
    if duration <= 0.0:
        raise BenchError(f"duration must be positive, got {duration}")
    if estimate_mode not in BENCH_ESTIMATE_MODES:
        raise BenchError(
            f"estimate_mode must be one of {BENCH_ESTIMATE_MODES}, "
            f"got {estimate_mode!r}"
        )
    topology, hops = _topology_component(kind, n)
    params = Parameters(**BENCHMARK_PARAMS)
    bound = 2.0 * (_per_hop_bound(params) * hops + params.iota) + 1.0
    kappa = params.kappa_for(BENCHMARK_EDGE["epsilon"], BENCHMARK_EDGE["tau"])
    sim = {
        "dt": dt,
        "duration": duration,
        "sample_interval": 1.0,
        "estimate_strategy": "toward_observer",
    }
    family = "backend_bench"
    if estimate_mode == "broadcast":
        sim["estimate_mode"] = "broadcast"
        sim["broadcast_interval"] = broadcast_interval
        family = "msgsim_bench"
    return ScenarioSpec(
        label=f"{family}/{kind}/n={n}",
        topology=topology,
        drift=ComponentSpec("two_group", {"swap_period": 40.0}),
        algorithm=ComponentSpec(
            "aopt",
            {
                "global_skew_bound": bound,
                "insertion_scale": BENCHMARK_INSERTION_SCALE,
            },
        ),
        params=dict(BENCHMARK_PARAMS),
        edge=dict(BENCHMARK_EDGE),
        sim=sim,
        initial_ramp_per_edge=0.95 * kappa,
        backend=backend,
    )


def validate_bench_config(
    *,
    sizes: Sequence[int],
    topologies: Sequence[str],
    duration: float,
    dt: float,
    repeats: int,
    backends: Sequence[str],
    trace: str = "full",
    estimate_mode: str = "oracle",
) -> None:
    """Fail fast on a bad benchmark grid (cheap: no simulation is run)."""
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    if len(backends) < 1:
        raise BenchError("need at least one backend to time")
    if trace not in TRACE_MODES:
        raise BenchError(f"trace must be one of {TRACE_MODES}, got {trace!r}")
    for name in backends:
        get_backend(name)
    for kind in topologies:
        for n in sizes:
            bench_spec(kind, n, duration=duration, dt=dt, estimate_mode=estimate_mode)


#: Backends already warmed up in this process (see ``_warm_backend``).
_WARMED: set = set()


def _warm_backend(name: str, estimate_mode: str = "oracle") -> None:
    """One small untimed run so first-use initialisation (numpy ufunc and
    dispatch caches, and for ``jit`` the one-off C kernel build) never
    lands in a measurement."""
    key = (name, estimate_mode)
    if key in _WARMED:
        return
    _WARMED.add(key)
    spec = bench_spec("line", 8, duration=2.0, estimate_mode=estimate_mode)
    scenario = registry.build_scenario(spec)
    engine = get_backend(name).build(
        scenario.graph, scenario.algorithm_factory, scenario.config
    )
    engine.run(scenario.config.duration)


def _measure_peak_memory(run_once) -> int:
    """Peak tracemalloc bytes of one untimed ``run_once()`` invocation.

    Measured in a dedicated run so the tracemalloc overhead (roughly 2x on
    allocation-heavy code) never pollutes the timed measurements that the
    ``--compare`` regression gate checks.
    """
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        run_once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return int(peak)


def _peak_rss_kb() -> Optional[int]:
    """Process high-water RSS in kB (monotone over the process lifetime).

    ``ru_maxrss`` is kilobytes on Linux but *bytes* on macOS; normalise so
    trajectories generated on either platform are comparable.
    """
    try:
        import resource
        import sys

        peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return peak // 1024 if sys.platform == "darwin" else peak
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX
        return None


def run_backend_bench(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    duration: float = DEFAULT_DURATION,
    dt: float = DEFAULT_DT,
    repeats: int = 1,
    backends: Sequence[str] = ("reference", "fast"),
    check_equivalence: bool = True,
    trace: str = "full",
    measure_memory: bool = False,
    estimate_mode: str = "oracle",
    broadcast_interval: float = 1.0,
) -> Dict[str, Any]:
    """Time every backend on every grid point; return the results payload.

    Each measurement is the best of ``repeats`` end-to-end engine
    construction + run timings (never cached), taken after a small untimed
    warm-up run per backend.  When ``check_equivalence`` is set the traces
    of all backends are compared for exact equality and the verdict
    recorded per grid point.

    ``trace="none"`` runs the streaming observer pipeline instead of
    recording a trace (constant memory in the duration); equivalence is then
    checked on the observer *reports*.  ``measure_memory=True`` adds one
    untimed run per (backend, grid point) under :mod:`tracemalloc` and
    records its peak as ``{backend}_peak_tracemalloc_bytes`` (plus the
    process-wide ``peak_rss_kb`` high-water mark).

    ``estimate_mode="broadcast"`` switches the whole grid to message-layer
    estimates (the BENCH_msgsim.json family): real broadcasts over the
    bounded-delay transport instead of oracle estimate reads.
    """
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    if len(backends) < 1:
        raise BenchError("need at least one backend to time")
    if trace not in TRACE_MODES:
        raise BenchError(f"trace must be one of {TRACE_MODES}, got {trace!r}")
    for name in backends:
        _warm_backend(name, estimate_mode)
    results: List[Dict[str, Any]] = []
    for kind in topologies:
        for n in sizes:
            base = bench_spec(
                kind,
                n,
                duration=duration,
                dt=dt,
                estimate_mode=estimate_mode,
                broadcast_interval=broadcast_interval,
            ).with_trace(trace)
            if trace == "none":
                base = base.with_observers(*BENCH_OBSERVERS)
            scenario = registry.build_scenario(base)
            steps = int(round(duration / dt))
            entry: Dict[str, Any] = {
                "topology": kind,
                "n": scenario.graph.node_count,
                "duration": duration,
                "dt": dt,
                "steps": steps,
                "trace_mode": trace,
                "estimate_mode": estimate_mode,
                "spec_hash": base.content_hash(),
            }
            payloads: Dict[str, Any] = {}

            def run_once(backend):
                """One full build + run; returns (trace, pipeline or None)."""
                engine = backend.build(
                    scenario.graph, scenario.algorithm_factory, scenario.config
                )
                pipeline = None
                if trace == "none":
                    pipeline = build_run_pipeline(
                        base,
                        graph=scenario.graph,
                        base_edges=scenario.base_edges,
                        config=scenario.config,
                        meta=scenario.meta,
                        global_skew_bound=scenario.global_skew_bound,
                    )
                    engine.configure_recording(pipeline, record_trace=False)
                produced = engine.run(scenario.config.duration)
                return produced, pipeline

            for name in backends:
                backend = get_backend(name)
                # One untimed warm run per (backend, grid point): the
                # process-wide ``_warm_backend`` covers import-time caches,
                # but size-dependent first-use costs (allocator growth,
                # size-specialised dispatch) previously leaked into the
                # first timed measurement of every new size.
                warm_key = (name, kind, n, estimate_mode)
                if warm_key not in _WARMED:
                    _WARMED.add(warm_key)
                    run_once(backend)
                best = math.inf
                produced = pipeline = None
                for _ in range(repeats):
                    started = time.perf_counter()
                    produced, pipeline = run_once(backend)
                    best = min(best, time.perf_counter() - started)
                entry[f"{name}_seconds"] = best
                if check_equivalence:
                    # Payload conversion happens outside the timed window,
                    # exactly like the pre-streaming benchmark did.
                    if pipeline is not None:
                        payloads[name] = pipeline.finalize().to_payload()
                    else:
                        payloads[name] = trace_to_payload(produced)
                if measure_memory:
                    entry[f"{name}_peak_tracemalloc_bytes"] = _measure_peak_memory(
                        lambda backend=backend: run_once(backend)
                    )
            if measure_memory:
                entry["peak_rss_kb"] = _peak_rss_kb()
            node_steps = steps * scenario.graph.node_count
            entry["node_steps"] = node_steps
            for name in backends:
                entry[f"{name}_node_steps_per_second"] = (
                    node_steps / entry[f"{name}_seconds"]
                )
            if "reference" in backends and "fast" in backends:
                entry["speedup"] = entry["reference_seconds"] / entry["fast_seconds"]
            if "reference" in backends and "vec" in backends:
                entry["vec_speedup_over_reference"] = (
                    entry["reference_seconds"] / entry["vec_seconds"]
                )
            if "fast" in backends and "vec" in backends:
                entry["vec_speedup_over_fast"] = (
                    entry["fast_seconds"] / entry["vec_seconds"]
                )
            if "reference" in backends and "jit" in backends:
                entry["jit_speedup_over_reference"] = (
                    entry["reference_seconds"] / entry["jit_seconds"]
                )
            if "vec" in backends and "jit" in backends:
                entry["jit_speedup_over_vec"] = (
                    entry["vec_seconds"] / entry["jit_seconds"]
                )
            if check_equivalence and len(payloads) > 1:
                first = next(iter(payloads.values()))
                identical = all(payload == first for payload in payloads.values())
                key = "traces_identical" if trace == "full" else "reports_identical"
                entry[key] = identical
            results.append(entry)
    return {
        "benchmark": "backend_speed",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "backends": list(backends),
        "config": {
            "sizes": list(sizes),
            "topologies": list(topologies),
            "duration": duration,
            "dt": dt,
            "repeats": repeats,
            "trace": trace,
            "estimate_mode": estimate_mode,
        },
        "results": results,
    }


def write_bench_json(payload: Dict[str, Any], path) -> Path:
    """Persist a benchmark payload (the repo's perf-trajectory format)."""
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def compare_bench_payloads(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    *,
    threshold: float = 0.3,
) -> List[Dict[str, Any]]:
    """Regression check against a committed perf-trajectory file.

    Matches grid points by ``(topology, n, steps)`` and compares every
    backend timing present in both payloads; a point regresses when the new
    time exceeds the baseline by more than ``threshold`` (0.3 = 30%
    slower).  Points absent from either payload are skipped, so a small CI
    grid can be compared against the full committed sweep.
    """
    if threshold < 0.0:
        raise BenchError(f"threshold must be non-negative, got {threshold}")
    baseline_points = {
        (entry.get("topology"), entry.get("n"), entry.get("steps")): entry
        for entry in baseline.get("results", [])
    }
    regressions: List[Dict[str, Any]] = []
    matched = 0
    for entry in current.get("results", []):
        reference = baseline_points.get(
            (entry.get("topology"), entry.get("n"), entry.get("steps"))
        )
        if reference is None:
            continue
        matched += 1
        for key, old_seconds in reference.items():
            if not key.endswith("_seconds") or key not in entry:
                continue
            new_seconds = entry[key]
            if new_seconds > old_seconds * (1.0 + threshold):
                regressions.append(
                    {
                        "topology": entry.get("topology"),
                        "n": entry.get("n"),
                        "backend": key[: -len("_seconds")],
                        "baseline_seconds": old_seconds,
                        "current_seconds": new_seconds,
                        "ratio": new_seconds / old_seconds,
                    }
                )
    if not matched:
        # A comparison that matches nothing would pass forever while
        # checking nothing -- surface it instead of staying silently green.
        raise BenchError(
            "no (topology, n, steps) grid point of this run matches the "
            "baseline; align --sizes/--topologies/--duration/--dt with the "
            "baseline file or regenerate it"
        )
    return regressions
