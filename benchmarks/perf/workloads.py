"""The frozen spec lists of the four benchmark workloads.

Every list is fixed here: sizes, backends, counts and the submission order
never depend on the seed.  ``--seed`` only stamps ``notes["bench_seed"]`` on
every spec (notes are part of ``content_hash``, so all simulation randomness
and every cache key change with it).  The order is *not* shuffled by the seed:
on ``scale_static`` whether the vec or the jit batch runs first moves the
cold pass by 20 % (measured over ten seeds: 3.8-4.5 M node-steps/s vec-first,
5.0-5.4 M jit-first), which would be seed noise in the metric, not signal.

Durations are time-compressed to fit the benchmark contract's time cap:
:func:`compress` multiplies ``sim.duration`` *and* every time-valued
argument of the dynamics / drift / delay components by one factor, so a
compressed run sees the same sequence of faults, drift swaps and storms as
the full-length one.  ``dt``, ``sample_interval``, edge delays and the
algorithm's own constants are untouched.  ``TIME_SCALE`` records the factor
per workload; the ``smoke`` profile compresses by a further
``SMOKE_SCALE``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Dict, List, Sequence

from repro.experiments import registry
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.experiments.spec import ComponentSpec, ScenarioSpec

WORKLOAD_NAMES = ("paper_sweep", "scale_static", "observed_mid", "service_mix")

#: Time compression per workload relative to the sizes ISSUE 11 measured
#: (paper_sweep: registry defaults; scale_static: 6000 / 2000 steps;
#: observed_mid: registry default durations, static points 60 s;
#: service_mix: ``line_scaling`` default durations).
TIME_SCALE = {
    "paper_sweep": 0.15,
    "scale_static": 0.2,
    "observed_mid": 0.1,
    "service_mix": 0.15,
}
SMOKE_SCALE = 0.15

#: Component arguments that are points in, or spans of, simulated time.
TIME_ARGS = frozenset(
    {
        "horizon",
        "period",
        "start",
        "outage",
        "width",
        "crash_time",
        "downtime",
        "split_time",
        "heal_time",
        "insertion_time",
        "failover_time",
        "overlap",
        "shift_period",
        "swap_period",
        "reverse_period",
    }
)

LINE_SIZES = (4, 8, 16, 24)
INSERTION_SIZES = (6, 10, 14)

#: Network sizes.  ``full`` is what ISSUE 11 fixed and later issues cite;
#: ``smoke`` also shrinks the networks, because on ``observed_mid`` the
#: per-run fixed costs (materialisation, all-pairs precompute) do not shrink
#: with the duration.
SIZES = {
    "full": {
        "static_grid": 4096, "static_line": 4096, "static_random": 2048,
        "static_grid_large": 16384,
        "churn_grid": 16, "sliding_random": 128, "failover_star": 256,
        "insertion_line": 32, "partition_grid": 12, "storm_random": 128,
        "observed_grid": 400, "observed_line": 384,
    },
    "smoke": {
        "static_grid": 1024, "static_line": 1024, "static_random": 512,
        "static_grid_large": 4096,
        "churn_grid": 8, "sliding_random": 48, "failover_star": 64,
        "insertion_line": 16, "partition_grid": 6, "storm_random": 48,
        "observed_grid": 100, "observed_line": 96,
    },
}

SERVICE_SIZES = (8, 12, 16, 24, 32)
SERVICE_BACKENDS = ("fast", "vec", "jit")
SPECS_PER_JOB = 3
#: Pool passes (distinct variants of the 15-spec pool) per phase.
SERVICE_COLD_PASSES = 3
SERVICE_SHARED_PASSES = 1

#: The reference cross-check of the correctness gate runs a shortened copy:
#: ten times shorter, and capped so that the object-per-node reference
#: engine stays around a second per spec.
REFERENCE_SHORTEN = 0.1
REFERENCE_NODE_STEP_CAP = 20_000


def _compress_component(component, factor: float):
    if component is None:
        return None
    args = {
        key: value * factor
        if key in TIME_ARGS and isinstance(value, (int, float))
        else value
        for key, value in component.args.items()
    }
    return ComponentSpec(component.name, args)


def compress(spec: ScenarioSpec, factor: float) -> ScenarioSpec:
    """Multiply every time-valued field of ``spec`` by ``factor``."""
    if factor == 1.0:
        return spec
    sim = dict(spec.sim)
    sim["duration"] = sim["duration"] * factor
    return replace(
        spec,
        sim=sim,
        topology=_compress_component(spec.topology, factor),
        dynamics=_compress_component(spec.dynamics, factor),
        drift=_compress_component(spec.drift, factor),
        delay=_compress_component(spec.delay, factor),
    )


def step_count(spec: ScenarioSpec) -> int:
    """Exact number of engine steps: the engines' own float accumulation."""
    dt = spec.sim.get("dt", 0.05)
    end = spec.sim.get("duration", 100.0)
    steps = 0
    t = 0.0
    while t < end - 1e-9:
        t = t + dt
        steps += 1
    return steps


def node_count(spec: ScenarioSpec) -> int:
    args = spec.topology.args
    if "n" in args:
        return int(args["n"])
    return int(args["rows"]) * int(args["cols"])


def node_steps(spec: ScenarioSpec) -> int:
    return node_count(spec) * step_count(spec)


def spec_key(spec: ScenarioSpec) -> str:
    """Seed-independent identity of a spec within its workload."""
    key = f"{spec.label}@{spec.backend}"
    variant = spec.notes.get("bench_variant")
    return key if variant is None else f"{key}#{variant}"


def _stamp(spec: ScenarioSpec, seed: int, **extra: Any) -> ScenarioSpec:
    notes = dict(spec.notes)
    notes["bench_seed"] = seed
    notes.update(extra)
    return replace(spec, notes=notes)


def shortened_for_reference(spec: ScenarioSpec) -> ScenarioSpec:
    """The 10x-shortened copy the reference engine cross-checks."""
    factor = REFERENCE_SHORTEN
    capped_steps = max(2, REFERENCE_NODE_STEP_CAP // node_count(spec))
    steps = step_count(spec) * factor
    if steps > capped_steps:
        factor *= capped_steps / steps
    return compress(spec, factor)


# ----------------------------------------------------------------------
# Base lists (seedless, full length)
# ----------------------------------------------------------------------
def _paper_sweep(sizes: Dict[str, int]) -> List[ScenarioSpec]:
    sweeps = ("line_scaling", "end_to_end_insertion")
    specs = [registry.scenario("line_scaling", n=n) for n in LINE_SIZES]
    specs += [registry.scenario("end_to_end_insertion", n=n) for n in INSERTION_SIZES]
    specs += [
        registry.scenario(name)
        for name in registry.SCENARIOS.names()
        if name not in sweeps
    ]
    return specs


def _scale_static(sizes: Dict[str, int]) -> List[ScenarioSpec]:
    points = (
        ("grid", sizes["static_grid"], 600.0),
        ("line", sizes["static_line"], 600.0),
        ("random", sizes["static_random"], 600.0),
        ("grid", sizes["static_grid_large"], 200.0),
    )
    return [
        bench_spec(kind, n, duration=duration, backend=backend)
        .with_trace("none")
        .with_observers(*BENCH_OBSERVERS)
        for kind, n, duration in points
        for backend in ("vec", "jit")
    ]


def _observed_mid(sizes: Dict[str, int]) -> List[ScenarioSpec]:
    churn, partition = sizes["churn_grid"], sizes["partition_grid"]
    base = [
        registry.scenario("grid_periodic_churn", rows=churn, cols=churn),
        registry.scenario("random_connected_sliding_window", n=sizes["sliding_random"]),
        registry.scenario("star_hub_failover", n=sizes["failover_star"]),
        registry.scenario("end_to_end_insertion", n=sizes["insertion_line"]),
        registry.scenario("grid_broadcast_partition", rows=partition, cols=partition),
        registry.scenario("random_broadcast_delay_storm", n=sizes["storm_random"]),
        bench_spec("grid", sizes["observed_grid"], duration=60.0),
        bench_spec("line", sizes["observed_line"], duration=60.0),
    ]
    return [
        spec.with_backend(backend)
        for spec in base
        for backend in ("fast", "vec", "jit")
    ]


def _service_pool(sizes: Dict[str, int]) -> List[ScenarioSpec]:
    return [
        registry.scenario("line_scaling", n=n, backend=backend)
        for n in SERVICE_SIZES
        for backend in SERVICE_BACKENDS
    ]


_BASE = {
    "paper_sweep": _paper_sweep,
    "scale_static": _scale_static,
    "observed_mid": _observed_mid,
    "service_mix": _service_pool,
}


def scale_for(name: str, profile: str = "full") -> float:
    return TIME_SCALE[name] * (SMOKE_SCALE if profile == "smoke" else 1.0)


def base_specs(name: str, profile: str = "full") -> List[ScenarioSpec]:
    """The workload's frozen list at its final (compressed) size, unseeded."""
    factor = scale_for(name, profile)
    return [compress(spec, factor) for spec in _BASE[name](SIZES[profile])]


def build_specs(name: str, seed: int, profile: str = "full") -> List[ScenarioSpec]:
    """The workload's spec list for ``seed``, in (fixed) submission order.

    For ``service_mix`` this is the bare pool (variant-less); the phases
    draw their jobs from :func:`service_jobs`.
    """
    return [_stamp(spec, seed) for spec in base_specs(name, profile)]


def _jobs(specs: Sequence[ScenarioSpec]) -> List[List[ScenarioSpec]]:
    return [
        list(specs[start : start + SPECS_PER_JOB])
        for start in range(0, len(specs), SPECS_PER_JOB)
    ]


def service_jobs(seed: int, profile: str = "full") -> Dict[str, Any]:
    """Job lists of the ``service_mix`` phases.

    ``cold`` holds one disjoint job list per client (every spec new);
    ``shared`` one list both clients submit simultaneously.  Each pass over
    the pool is a distinct ``bench_variant``, i.e. new content hashes.
    """
    pool = base_specs("service_mix", profile)
    # One fixed shuffle, so a job mixes sizes and backends.
    random.Random(0).shuffle(pool)
    variant = 0

    def pool_pass() -> List[ScenarioSpec]:
        nonlocal variant
        specs = [_stamp(spec, seed, bench_variant=variant) for spec in pool]
        variant += 1
        return specs

    cold_specs: List[ScenarioSpec] = []
    for _ in range(SERVICE_COLD_PASSES):
        cold_specs += pool_pass()
    cold_jobs = _jobs(cold_specs)
    shared_specs: List[ScenarioSpec] = []
    for _ in range(SERVICE_SHARED_PASSES):
        shared_specs += pool_pass()
    return {
        "cold": [cold_jobs[0::2], cold_jobs[1::2]],
        "shared": _jobs(shared_specs),
    }


def describe(profile: str = "full") -> Dict[str, Any]:
    """Final workload sizes for the output header."""
    out: Dict[str, Any] = {}
    for name in WORKLOAD_NAMES:
        specs = base_specs(name, profile)
        entry: Dict[str, Any] = {
            "time_scale": scale_for(name, profile),
            "specs": len(specs),
            "backends": sorted({spec.backend for spec in specs}),
            "node_steps": sum(node_steps(spec) for spec in specs),
            "max_nodes": max(node_count(spec) for spec in specs),
        }
        if name == "service_mix":
            entry["specs_per_job"] = SPECS_PER_JOB
            entry["cold_specs"] = SERVICE_COLD_PASSES * len(specs)
            entry["shared_specs"] = SERVICE_SHARED_PASSES * len(specs)
        out[name] = entry
    return out
