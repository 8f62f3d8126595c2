"""The throughput scenario family: ``bench_spec`` and its scalar observers.

A two-group drift adversary over a static line / grid / random-connected
topology with the benchmark edge parameters, an adversarial initial ramp and
the ``toward_observer`` estimate strategy -- the same per-step workload as the
E1--E3 suite.  ``benchmarks/perf`` times it (``scale_static``,
``observed_mid``) and the counted tier-1 gates run it small.

An explicit global skew bound (the analytic per-hop bound of
:func:`repro.core.skew_estimates.suggest_global_skew_bound`, computed in
closed form) keeps materialisation cheap at n >> 10^3, where the generic
weighted-diameter search would dominate.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..core.parameters import Parameters
from .registry import BENCHMARK_EDGE, BENCHMARK_INSERTION_SCALE, BENCHMARK_PARAMS
from .spec import ComponentSpec, ScenarioSpec

#: Observers of ``trace: none`` throughput runs.  Deliberately excludes
#: ``gradient_bound_check`` (and the other all-pairs observers): those are
#: O(n^2) per run by nature and would dominate the throughput measurement at
#: n >> 10^3; the scalar observers here are the per-step streaming workload.
BENCH_OBSERVERS: Tuple[str, ...] = (
    "global_skew",
    "local_skew",
    "convergence_time",
    "mode_counts",
)


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
    raise ValueError(f"unknown bench topology {kind!r}; known: line, grid, random")


def bench_spec(
    kind: str,
    n: int,
    *,
    duration: float = 20.0,
    dt: float = 0.1,
    backend: str = "reference",
) -> ScenarioSpec:
    """The throughput scenario for one (topology, size) point."""
    if n < 2:
        raise ValueError(f"bench scenarios need n >= 2, got {n}")
    if duration <= 0.0:
        raise ValueError(f"duration must be positive, got {duration}")
    topology, hops = _topology_component(kind, n)
    params = Parameters(**BENCHMARK_PARAMS)
    bound = 2.0 * (_per_hop_bound(params) * hops + params.iota) + 1.0
    kappa = params.kappa_for(BENCHMARK_EDGE["epsilon"], BENCHMARK_EDGE["tau"])
    return ScenarioSpec(
        label=f"backend_bench/{kind}/n={n}",
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
        sim={
            "dt": dt,
            "duration": duration,
            "sample_interval": 1.0,
            "estimate_strategy": "toward_observer",
        },
        initial_ramp_per_edge=0.95 * kappa,
        backend=backend,
    )
