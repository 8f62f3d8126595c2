"""One workload run inside a child process: ``python3 child.py PARAMS.json``.

The parent (``run.py``) starts a fresh interpreter per run so that
``ru_maxrss`` and the import state are clean.  Everything from the child's
start to the first timed operation is ``setup_s``: imports (the chaos pack
loads at import), the jit C-kernel compile into a fresh cache directory, one
untimed warm-up run per backend, and the daemon's boot to its first
``/healthz``.

Phases of a run, untraced (end-to-end metrics, machine-speed normalised, see
``calib.py``)::

    setup -> cold -> warm -> serve -> gates

``cold``/``warm`` are ``run_sweep`` passes in this process; on
``service_mix`` they are the daemon's cold+shared phases and its warm phase.
``serve`` is the daemon's warm phase over the workload's own results (the
same phase as ``warm`` on ``service_mix``).  A traced run repeats the cold
pass untraced (for its digests, ``SweepStats`` and wall), then composes it
layer by layer with spans, and reports raw per-layer figures.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import calib
import catalog
import spans as spans_mod

#: Share of ``--seconds`` given to the time-bounded loops; the cold pass is
#: fixed work sized to take roughly the remainder on the reference machine.
WARM_SHARE = 0.15
SERVE_SHARE = 0.25
SERVICE_WARM_SHARE = 0.4
TRACED_SERVE_SHARE = 0.1
#: Jobs a serve/warm phase completes at least: a traced run's p95 needs ten
#: samples beyond it, an untraced run reports medians only.
MIN_JOBS_TRACED = 200
MIN_JOBS_UNTRACED = 100


def main(params_path: str) -> None:
    """Process entry point: run, write the result dict, exit."""
    params = json.loads(Path(params_path).read_text())
    sys.path.insert(0, params["src_dir"])
    try:
        result = run(params)
    except Exception:  # report, and let the parent count the run as failed
        result = {"error": traceback.format_exc()}
    # Whole or not at all: the parent reads it only after this process ended.
    partial = Path(params["result_path"] + ".partial")
    partial.write_text(json.dumps(result))
    partial.replace(params["result_path"])


def _prepare_environment(params: Dict[str, Any]) -> Dict[str, Path]:
    work = Path(params["work_dir"])
    dirs = {
        "cache": work / "cache",
        "traced_cache": work / "cache-traced",
        "extra_cache": work / "cache-extra",
        "jit": work / "jit",
        "tmp": work / "tmp",
    }
    for path in dirs.values():
        path.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_EXPERIMENTS_CACHE_DIR"] = str(dirs["cache"])
    os.environ["REPRO_JIT_CACHE_DIR"] = str(dirs["jit"])
    os.environ.pop("REPRO_JIT_PROVIDER", None)
    # The C compiler's intermediate files stay inside the checkout too.
    os.environ["TMPDIR"] = str(dirs["tmp"])
    os.environ["PYTHONPATH"] = params["src_dir"]
    dirs["work"] = work
    return dirs


def run(params: Dict[str, Any]) -> Dict[str, Any]:
    # Traced runs report raw per-layer figures and need no calibration.
    sampler = None if params["trace"] else calib.Sampler()
    try:
        return _run(params, sampler)
    finally:
        if sampler is not None:
            sampler.stop()


def _run(params: Dict[str, Any], sampler: Optional[calib.Sampler]) -> Dict[str, Any]:
    dirs = _prepare_environment(params)
    name = params["workload"]

    # ---- setup (timed as setup_s) ------------------------------------
    from repro.experiments import execute_spec
    from repro.experiments.bench import bench_spec
    from repro.experiments.executor import ResultCache
    from repro.fastsim.backend import backend_available
    from repro.jitsim import providers

    import daemon as daemon_mod
    import workloads

    compile_started = time.perf_counter()
    provider = providers.get_provider()
    compile_s = time.perf_counter() - compile_started
    specs = workloads.build_specs(name, params["seed"], params["profile"])
    backends = sorted({spec.backend for spec in specs})
    unavailable = [backend for backend in backends if not backend_available(backend)]
    for backend in backends:
        if backend not in unavailable:
            execute_spec(bench_spec("line", 8, duration=2.0, backend=backend))
    daemon = daemon_mod.Daemon(dirs["cache"], dirs["work"] / "daemon.log")
    try:
        daemon.start()
        if name == "service_mix" and not unavailable:
            warm_up = [bench_spec("line", 8, duration=2.0, backend=b) for b in backends]
            outcome = daemon_mod.run_job(daemon.client(), warm_up)
            if outcome.error:
                raise daemon_mod.DaemonError(f"warm-up job: {outcome.error}")
        # perf_counter is CLOCK_MONOTONIC on Linux: one timeline for the
        # parent (which stamped ``started``), this child and the sampler.
        setup = (params["started"], time.perf_counter())
        jit_provider = provider.name if provider is not None else None
        if params["setup_only"]:
            meter = sampler.stop()
            return {"setup_s": meter.normalised(*setup), "raw_setup_s": setup[1] - setup[0]}
        context = {
            "params": params,
            "dirs": dirs,
            "specs": specs,
            "daemon": daemon,
            "cache": ResultCache(dirs["cache"]),
            "jit_compile_s": compile_s,
        }
        if unavailable:
            # An unavailable backend fails its ops instead of being skipped.
            reason = f"backend(s) unavailable: {unavailable}"
            result = {"attempted": len(specs), "failures": [reason] * len(specs), "metrics": {}}
        elif params["trace"]:
            result = _traced(context)
        else:
            result = _untraced(context, sampler, setup)
        result["jit_provider"] = jit_provider
        return result
    finally:
        daemon.stop()


# ----------------------------------------------------------------------
# Phases shared by the untraced and the traced run
# ----------------------------------------------------------------------
def _golden(params: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The committed seed-0 digests (``None`` while they are being regenerated)."""
    import gates

    return gates.load_golden(params["golden"]) if params["golden_check"] else None


def _disk_bytes(cache, specs: Sequence) -> Dict[str, bytes]:
    return {cache.key_for(spec): cache.path_for(spec).read_bytes() for spec in specs}


def _in_process_cold_and_warm(context: Dict[str, Any], warm_budget: float) -> Dict[str, Any]:
    import gates
    import inprocess
    import workloads

    params, specs, cache = context["params"], context["specs"], context["cache"]
    # Untraced runs sample the machine speed in this thread, between the
    # bytecodes of the passes themselves (see calib.py).
    sampler = None if params["trace"] else calib.ThreadSampler().start()
    try:
        cold = inprocess.cold_pass(specs, cache)
        warm = inprocess.warm_passes(specs, cache, warm_budget)
    finally:
        meter = sampler.stop() if sampler is not None else None
    # Read before the gate's own digest work inflates it.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if meter is not None:
        cold["norm_wall"] = meter.normalised(*cold["interval"], own_thread=True)
        warm["norm_walls"] = [
            meter.normalised(*interval, own_thread=True) for interval in warm["intervals"]
        ]
    failures = cold["failures"] + warm["failures"]
    digests = inprocess.digests_of(specs, cold["runs"])
    failures += gates.check_outcomes(
        params["profile"], params["workload"], params["seed"], specs,
        digests, inprocess.summaries_of(specs, cold["runs"]), _golden(params),
    )
    if warm["first_runs"]:
        failures += gates.check_equal(
            "warm != cold", digests, inprocess.digests_of(specs, warm["first_runs"])
        )
    return {
        "cold": cold,
        "warm": warm,
        "rss": rss,
        "served": specs,
        "traced_specs": specs,
        "failures": failures,
        "digests": digests,
        "node_steps": sum(workloads.node_steps(spec) for spec in specs),
        # ops: each spec executed cold, served warm once per pass, and gated
        "attempted": len(specs) * (2 + len(warm["intervals"])),
    }


def _service_cold_and_shared(context: Dict[str, Any]) -> Dict[str, Any]:
    import daemon as daemon_mod
    import gates
    import workloads

    params, cache, daemon = context["params"], context["cache"], context["daemon"]
    jobs = workloads.service_jobs(params["seed"], params["profile"])
    cold_specs = [spec for client_jobs in jobs["cold"] for job in client_jobs for spec in job]
    shared_specs = [spec for job in jobs["shared"] for spec in job]
    cold = daemon_mod.cold_phase(daemon, jobs["cold"])
    shared = daemon_mod.shared_phase(daemon, jobs["shared"])
    computed = cold_specs + shared_specs
    failures = cold["failures"] + shared["failures"]
    digests: Dict[str, str] = {}
    summaries: Dict[str, Any] = {}
    for spec in computed:
        key = workloads.spec_key(spec)
        payload = cache.load(spec)
        if payload is None:
            failures.append(f"service: {key} has no cache entry after its job")
            continue
        digests[key] = gates.digest_payload(payload)
        summaries[key] = payload["summary"]
    failures += gates.check_outcomes(
        params["profile"], params["workload"], params["seed"], computed,
        digests, summaries, _golden(params),
    )
    return {
        "cold": cold,
        "shared": shared,
        "served": computed,
        "traced_specs": cold_specs,
        "failures": failures,
        "digests": digests,
        "node_steps": sum(workloads.node_steps(spec) for spec in cold_specs),
        "attempted": cold["jobs"] + shared["jobs"] + len(computed),
    }


def _cold_phase(context: Dict[str, Any], warm_budget: float) -> Dict[str, Any]:
    if context["params"]["workload"] == "service_mix":
        return _service_cold_and_shared(context)
    return _in_process_cold_and_warm(context, warm_budget)


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def _untraced(context: Dict[str, Any], sampler: calib.Sampler, setup: tuple) -> Dict[str, Any]:
    import daemon as daemon_mod

    params, daemon, cache = context["params"], context["daemon"], context["cache"]
    seconds = params["seconds"]
    service = params["workload"] == "service_mix"
    phase = _cold_phase(context, WARM_SHARE * seconds)
    serve = daemon_mod.warm_phase(
        daemon, phase["served"], _disk_bytes(cache, phase["served"]),
        seed=params["seed"],
        budget=(SERVICE_WARM_SHARE if service else SERVE_SHARE) * seconds,
        min_jobs=MIN_JOBS_UNTRACED,
    )
    meter = sampler.stop()
    if service:
        phase["cold"]["norm_wall"] = meter.normalised(*phase["cold"]["interval"])
    failures = phase["failures"] + serve["failures"]
    #: name -> (machine-speed normalised, as measured)
    values: Dict[str, tuple] = {"setup_s": (meter.normalised(*setup), setup[1] - setup[0])}
    samples: Dict[str, int] = {"cold_node_steps_per_s": 1, "peak_rss_mb": 1}
    jobs = serve["jobs"]
    samples["job_p50_ms"] = len(jobs)
    if jobs:
        values["job_p50_ms"] = (
            statistics.median(meter.normalised(s, s + length) for s, length in jobs) * 1e3,
            statistics.median(length for _, length in jobs) * 1e3,
        )
    cold = phase["cold"]
    values["cold_node_steps_per_s"] = (
        phase["node_steps"] / cold["norm_wall"],
        phase["node_steps"] / cold["wall"],
    )
    extras: Dict[str, Any] = {"machine_speed": meter.median_speed()}
    if service:
        values["warm_specs_per_s"] = (
            serve["specs_served"] / meter.normalised(*serve["interval"]),
            serve["specs_served"] / serve["wall"],
        )
        samples["warm_specs_per_s"] = len(serve["jobs"])
        peak_rss = daemon.peak_rss_mb()
    else:
        passes = phase["warm"]["intervals"]
        if passes:
            served = len(phase["served"])
            values["warm_specs_per_s"] = (
                served / statistics.median(phase["warm"]["norm_walls"]),
                served / statistics.median(end - start for start, end in passes),
            )
        samples["warm_specs_per_s"] = len(passes)
        peak_rss = phase["rss"]
        extras["backend_wall_s"] = cold["backend_wall"]
    metrics = {name: pair[0] for name, pair in values.items()}
    metrics["peak_rss_mb"] = peak_rss
    extras["raw"] = {name: pair[1] for name, pair in values.items()}
    return {
        "attempted": phase["attempted"] + len(serve["jobs"]) + len(serve["gets"]),
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "digests": phase["digests"],
        "extras": extras,
    }


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def _cli_cold_start(repeats: int) -> List[float]:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.experiments", "run", "quickstart_line", "--no-cache"],
            check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=dict(os.environ),
        )
        times.append(time.perf_counter() - started)
    return times


def _traced(context: Dict[str, Any]) -> Dict[str, Any]:
    import daemon as daemon_mod
    import gates
    import inprocess
    from repro.experiments.executor import ResultCache

    params, daemon, cache, dirs = (
        context["params"], context["daemon"], context["cache"], context["dirs"],
    )
    name = params["workload"]
    rec = spans_mod.Recorder()
    counts: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    phase_s: Dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase_name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase_s[phase_name] = now - mark
        mark = now

    # -- the untraced pass: reference digests, SweepStats, the cold wall
    phase = _cold_phase(context, 0.0)
    if name == "service_mix":
        latencies = phase["cold"]["latencies"]
        counts["service.cold_job_p50_s"] = statistics.median(latencies)
        samples["service.cold_job_p50_ms"] = len(latencies)
        shared = phase["shared"]
        counts["service.coalesced_share"] = shared["coalesced"] / max(shared["submitted"], 1)
    else:
        stats = phase["cold"]["stats"]
        if stats is not None:
            counts["executor.batched_share"] = stats.batched / max(stats.executed, 1)
            counts["executor.fallback_share"] = stats.fallbacks / max(stats.total, 1)
        warm = phase["warm"]
        counts["cache.hit_share"] = warm["hits"] / max(warm["lookups"], 1)
    failures = list(phase["failures"])
    attempted = phase["attempted"]
    cold_wall = phase["cold"]["wall"]
    traced_specs, served = phase["traced_specs"], phase["served"]
    counts["cache.bytes"] = cache.stats()["total_bytes"]
    lap("untraced")

    # -- telemetry overhead: one more cold pass, with the JSONL stream on
    if name == "paper_sweep":
        log_path = dirs["work"] / "telemetry.jsonl"
        extra = inprocess.cold_pass(
            traced_specs, ResultCache(dirs["extra_cache"]), telemetry_path=log_path
        )
        failures += extra["failures"]
        attempted += len(traced_specs)
        counts["telemetry.wall_ratio"] = extra["wall"] / cold_wall
        counts["telemetry.jsonl_bytes"] = log_path.stat().st_size
        with log_path.open() as lines:
            counts["telemetry.events"] = sum(1 for _ in lines)
        lap("telemetry")

    # -- the traced pass
    traced = inprocess.traced_pass(rec, traced_specs, ResultCache(dirs["traced_cache"]))
    failures += traced["failures"]
    failures += gates.check_equal("traced != untraced", phase["digests"], traced["digests"])
    attempted += len(traced_specs)
    counts.update(traced["counts"])
    lap("traced")

    # -- a short warm phase with spans around every client call
    serve = daemon_mod.warm_phase(
        daemon, served, _disk_bytes(cache, served),
        seed=params["seed"], budget=TRACED_SERVE_SHARE * params["seconds"],
        min_jobs=MIN_JOBS_TRACED, rec=rec,
    )
    failures += serve["failures"]
    attempted += len(serve["jobs"]) + len(serve["gets"])
    daemon_mod.probe_endpoints(daemon, serve["job_ids"], rec)
    jobs = max(len(serve["jobs"]), 1)
    counts["service.polls_per_job"] = serve["polls"] / jobs
    counts["service.result_mb_per_s"] = (
        serve["get_bytes"] / 1e6 / max(sum(length for _, length in serve["gets"]), 1e-9)
    )
    counts["service.cached_at_submit_share"] = serve["cached_at_submit"] / max(serve["submitted"], 1)
    counts.setdefault("cache.hit_share", counts["service.cached_at_submit_share"])
    counts["service.daemon_cpu_s_per_warm_job"] = serve["daemon_cpu_s"] / jobs
    counts["service.daemon_rss_mb"] = daemon.peak_rss_mb()
    samples["service.submit_ms"] = len(serve["jobs"])
    for metric, pairs in (
        ("service.job_p95_ms", serve["jobs"]), ("service.result_get_p95_ms", serve["gets"])
    ):
        samples[metric] = len(pairs)
        if spans_mod.percentile_allowed(len(pairs), 95.0):
            counts[metric] = spans_mod.percentile([length for _, length in pairs], 95.0) * 1e3
        else:
            failures.append(f"{metric}: {len(pairs)} samples leave fewer than ten beyond it")
    lap("serve")

    cli_times = _cli_cold_start(params["cli_cold_starts"])
    counts["cli.cold_start_s"] = statistics.median(cli_times)
    samples["cli.cold_start_s"] = len(cli_times)
    lap("cli")

    if params["reference_check"]:
        failures += inprocess.reference_check(traced_specs, ResultCache(dirs["extra_cache"]))
        attempted += inprocess.reference_check_ops(traced_specs)
        lap("reference_check")

    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": catalog.per_layer_metrics(rec.spans, counts, cold_wall, context["jit_compile_s"]),
        "samples": samples,
        "spans": [span.to_dict() for span in rec.spans],
        "digests": phase["digests"],
        "extras": {"untraced_cold_wall_s": cold_wall, "phase_s": phase_s},
    }


if __name__ == "__main__":
    main(sys.argv[1])
