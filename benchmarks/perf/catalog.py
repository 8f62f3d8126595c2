"""The metric catalog: names, units, directions, bounds and what moves what.

``BENCHMARK.json`` lists the same names (a self-test keeps the two in step).
``moves`` on a per-layer metric names the end-to-end metric (and workload) it
is expected to move; the README renders the map.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, NamedTuple, Sequence

import spans as spans_mod


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: Sequence[EndToEnd] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child start to first timed op: imports, chaos-pack load, jit C-kernel "
             "compile into a fresh cache dir, one warm-up run per backend, daemon "
             "boot to first /healthz; median of 3 set-ups per run"),
    EndToEnd("cold_node_steps_per_s", "node-steps/s", "higher", 0.25,
             "sum(node_count x steps) of the workload / wall of the cold pass (cold "
             "phase for service_mix), spec to stored result"),
    EndToEnd("warm_specs_per_s", "specs/s", "higher", 0.25,
             "specs served / wall with every spec cached: median run_sweep pass of "
             "the same list (warm phase incl. fetches for service_mix)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25,
             "ru_maxrss of the workload child after its cold and warm passes "
             "(daemon VmHWM for service_mix)"),
    EndToEnd("job_p50_ms", "ms", "lower", 0.25,
             "warm-phase submit to terminal state over HTTP, median"),
)

_COLD = "cold_node_steps_per_s"
PER_LAYER: Sequence[PerLayer] = (
    PerLayer("spec.roundtrip_ms", "ms", "lower",
             "warm_specs_per_s on paper_sweep, job_p50_ms on service_mix"),
    PerLayer("registry.materialise_s", "s", "lower", f"{_COLD} on observed_mid"),
    PerLayer("registry.materialise_share", "ratio", "lower", f"{_COLD} on observed_mid"),
    PerLayer("network.nodes", "count", "lower", "work size (exact)"),
    PerLayer("network.edges", "count", "lower", "work size (exact)"),
    PerLayer("network.graph_events", "count", "lower", "work size (exact)"),
    PerLayer("backend.reference.build_s", "s", "lower", f"{_COLD} on paper_sweep"),
    PerLayer("backend.fast.build_s", "s", "lower", f"{_COLD} on observed_mid"),
    PerLayer("backend.vec.build_s", "s", "lower", f"{_COLD} on scale_static"),
    PerLayer("backend.jit.build_s", "s", "lower", f"{_COLD} on scale_static"),
    PerLayer("metrics.pipeline_build_s", "s", "lower",
             f"{_COLD} on observed_mid and paper_sweep; flat on scale_static"),
    PerLayer("metrics.pipeline_build_share", "ratio", "lower", f"{_COLD} on observed_mid"),
    PerLayer("metrics.finalize_s", "s", "lower", f"{_COLD} on observed_mid"),
    PerLayer("metrics.replay_s", "s", "lower",
             f"observer cost per run without the engine; {_COLD} on observed_mid, paper_sweep"),
    PerLayer("metrics.samples", "count", "lower", "work size (exact)"),
    PerLayer("sim.run_s", "s", "lower", f"{_COLD} on paper_sweep"),
    PerLayer("sim.node_steps", "count", "lower", "work size (exact)"),
    PerLayer("sim.node_steps_per_s", "node-steps/s", "higher", f"{_COLD} on paper_sweep"),
    PerLayer("fastsim.run_s", "s", "lower", f"{_COLD} on observed_mid"),
    PerLayer("fastsim.node_steps", "count", "lower", "work size (exact)"),
    PerLayer("fastsim.node_steps_per_s", "node-steps/s", "higher", f"{_COLD} on observed_mid"),
    PerLayer("vecsim.run_s", "s", "lower", f"{_COLD} on scale_static, observed_mid"),
    PerLayer("vecsim.node_steps", "count", "lower", "work size (exact)"),
    PerLayer("vecsim.node_steps_per_s", "node-steps/s", "higher",
             f"{_COLD} on scale_static, observed_mid"),
    PerLayer("jitsim.run_s", "s", "lower", f"{_COLD} on scale_static, observed_mid"),
    PerLayer("jitsim.node_steps", "count", "lower", "work size (exact)"),
    PerLayer("jitsim.node_steps_per_s", "node-steps/s", "higher",
             f"{_COLD} on scale_static, observed_mid"),
    PerLayer("jitsim.compile_s", "s", "lower", "setup_s on every workload"),
    PerLayer("jitsim.fused_step_share", "ratio", "higher",
             "explains jitsim.run_s: ~1 on scale_static, low on observed_mid"),
    PerLayer("estimate.messages_sent", "count", "lower", "work size (exact)"),
    PerLayer("estimate.messages_delivered", "count", "lower", "work size (exact)"),
    PerLayer("estimate.msgs_per_node_step", "ratio", "lower",
             f"{_COLD} on observed_mid broadcast specs"),
    PerLayer("results.payload_s", "s", "lower", f"{_COLD} on observed_mid, paper_sweep"),
    PerLayer("results.payload_bytes", "B", "lower", f"{_COLD} on observed_mid, paper_sweep"),
    PerLayer("cache.store_s", "s", "lower", f"{_COLD} on observed_mid"),
    PerLayer("cache.store_mb_per_s", "MB/s", "higher", f"{_COLD} on observed_mid"),
    PerLayer("cache.load_s", "s", "lower",
             "warm_specs_per_s on paper_sweep/observed_mid, job_p50_ms on service_mix"),
    PerLayer("cache.load_mb_per_s", "MB/s", "higher",
             "warm_specs_per_s on paper_sweep/observed_mid, job_p50_ms on service_mix"),
    PerLayer("cache.key_for_us", "us", "lower", "warm_specs_per_s, job_p50_ms"),
    PerLayer("cache.bytes", "B", "lower", "warm_specs_per_s, service.result_get_p50_ms"),
    PerLayer("cache.hit_share", "ratio", "higher", "warm_specs_per_s (1.0 expected)"),
    PerLayer("executor.unattributed_s", "s", "lower", f"{_COLD}; must stay under 5% of the traced wall"),
    PerLayer("executor.unattributed_share", "ratio", "lower", "trace coverage check (<= 0.05)"),
    PerLayer("executor.batched_share", "ratio", "higher", f"{_COLD} on scale_static, observed_mid"),
    PerLayer("executor.fallback_share", "ratio", "lower",
             f"{_COLD} and failed ops: a silent fallback is the 100x cliff (0 expected)"),
    PerLayer("service.job_p95_ms", "ms", "lower",
             "demoted end-to-end metric: warm-phase submit to terminal state, 95th percentile"),
    PerLayer("service.result_get_p50_ms", "ms", "lower",
             "demoted end-to-end metric: warm-phase GET /results/{key}, median"),
    PerLayer("service.result_get_p95_ms", "ms", "lower",
             "demoted end-to-end metric: warm-phase GET /results/{key}, 95th percentile"),
    PerLayer("service.submit_ms", "ms", "lower", "job_p50_ms, service.job_p95_ms"),
    PerLayer("service.polls_per_job", "ratio", "lower", "job_p50_ms"),
    PerLayer("service.healthz_ms", "ms", "lower", "setup_s (boot waits on /healthz)"),
    PerLayer("service.job_events_ms", "ms", "lower",
             "service.job_p95_ms (shares the handler threads)"),
    PerLayer("service.result_mb_per_s", "MB/s", "higher",
             "service.result_get_p50_ms, service.result_get_p95_ms"),
    PerLayer("service.cold_job_p50_ms", "ms", "lower", f"{_COLD} on service_mix"),
    PerLayer("service.coalesced_share", "ratio", "higher",
             f"{_COLD} on service_mix (shared phase: 0.5 expected)"),
    PerLayer("service.cached_at_submit_share", "ratio", "higher", "job_p50_ms (1.0 expected)"),
    PerLayer("service.daemon_cpu_s_per_warm_job", "s", "lower",
             "job_p50_ms, service.job_p95_ms, warm_specs_per_s on service_mix"),
    PerLayer("service.daemon_rss_mb", "MB", "lower", "peak_rss_mb on service_mix"),
    PerLayer("telemetry.events", "count", "lower", "work size (exact)"),
    PerLayer("telemetry.jsonl_bytes", "B", "lower", f"{_COLD} on paper_sweep"),
    PerLayer("telemetry.wall_ratio", "ratio", "lower", f"{_COLD} on paper_sweep"),
    PerLayer("cli.cold_start_s", "s", "lower", "what a one-off CLI user waits for; informs setup_s"),
    PerLayer("trace.wall_s", "s", "lower", "the traced wall every *_share is a share of"),
    PerLayer("trace.wall_ratio", "ratio", "lower",
             "tracing overhead (plus the loss of batching on batchable workloads)"),
)

BACKENDS = ("reference", "fast", "vec", "jit")
ENGINE_LAYERS = ("sim", "fastsim", "vecsim", "jitsim")
ROOT_SPAN = "executor.spec"

#: The self times that add up to the traced wall: the root span's direct
#: children (the per-call ``spec.roundtrip`` / ``cache.key_for`` are
#: microseconds) and what none of them covers.
WATERFALL = (
    ("registry.materialise_s", "metrics.pipeline_build_s", "metrics.finalize_s",
     "results.payload_s", "cache.store_s", "cache.load_s", "executor.unattributed_s")
    + tuple(f"backend.{backend}.build_s" for backend in BACKENDS)
    + tuple(f"{layer}.run_s" for layer in ENGINE_LAYERS)
)


def end_to_end_names() -> List[str]:
    return [metric.name for metric in END_TO_END]


def per_layer_names() -> List[str]:
    return [metric.name for metric in PER_LAYER]


_UNITS = {metric.name: metric.unit for metric in tuple(END_TO_END) + tuple(PER_LAYER)}


def unit_of(name: str) -> str:
    return _UNITS[name]


def per_layer_metrics(
    spans: Sequence[spans_mod.Span],
    counts: Mapping[str, float],
    untraced_cold_wall: float,
    compile_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from the traced run's spans and counts.

    A metric whose layer did no work on this workload reads 0.
    """
    totals = spans_mod.totals_by_name(spans)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("count", 0))

    def per_call(name: str, scale: float) -> float:
        return self_s(name) / calls(name) * scale if calls(name) else 0.0

    def median_ms(name: str) -> float:
        values = spans_mod.durations(spans, name)
        return statistics.median(values) * 1e3 if values else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall = totals.get(ROOT_SPAN, {}).get("total_s", 0.0)
    payload_mb = counts.get("results.payload_bytes", 0) / 1e6
    out: Dict[str, float] = {
        "spec.roundtrip_ms": per_call("spec.roundtrip", 1e3),
        "registry.materialise_s": self_s("registry.materialise"),
        "registry.materialise_share": ratio(self_s("registry.materialise"), wall),
        "metrics.pipeline_build_s": self_s("metrics.pipeline_build"),
        "metrics.pipeline_build_share": ratio(self_s("metrics.pipeline_build"), wall),
        "metrics.finalize_s": self_s("metrics.finalize"),
        "metrics.replay_s": self_s("metrics.replay"),
        "jitsim.compile_s": compile_s,
        "jitsim.fused_step_share": ratio(
            counts.get("jitsim.fused_steps", 0),
            counts.get("jitsim.fused_steps", 0) + counts.get("jitsim.stepped_steps", 0),
        ),
        "results.payload_s": self_s("results.payload"),
        "cache.store_s": self_s("cache.store"),
        "cache.store_mb_per_s": ratio(payload_mb, self_s("cache.store")),
        "cache.load_s": self_s("cache.load"),
        "cache.load_mb_per_s": ratio(payload_mb, self_s("cache.load")),
        "cache.key_for_us": per_call("cache.key_for", 1e6),
        "executor.unattributed_s": self_s(ROOT_SPAN),
        "executor.unattributed_share": ratio(self_s(ROOT_SPAN), wall),
        "service.submit_ms": median_ms("service.submit"),
        "service.result_get_p50_ms": median_ms("service.result_get"),
        "service.healthz_ms": median_ms("service.healthz"),
        "service.job_events_ms": median_ms("service.job_events"),
        "service.cold_job_p50_ms": counts.get("service.cold_job_p50_s", 0.0) * 1e3,
        "trace.wall_s": wall,
        "trace.wall_ratio": ratio(wall, untraced_cold_wall),
    }
    for backend in BACKENDS:
        out[f"backend.{backend}.build_s"] = self_s(f"backend.{backend}.build")
    node_steps = 0.0
    for layer in ENGINE_LAYERS:
        steps = counts.get(f"{layer}.node_steps", 0)
        node_steps += steps
        out[f"{layer}.run_s"] = self_s(f"{layer}.run")
        out[f"{layer}.node_steps"] = steps
        out[f"{layer}.node_steps_per_s"] = ratio(steps, self_s(f"{layer}.run"))
    out["estimate.msgs_per_node_step"] = ratio(
        counts.get("estimate.messages_sent", 0), node_steps
    )
    for name in per_layer_names():
        if name not in out:
            out[name] = counts.get(name, 0.0)
    return {name: out[name] for name in per_layer_names()}
