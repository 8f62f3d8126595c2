#!/usr/bin/env python3
"""The repo's spec-to-result benchmark: one command, four workloads.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                   [--trace {0,1}] [--repeat N] [--out FILE]
                                   [--smoke]
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --ladder [--out FILE]

Every workload runs in its own child interpreter against fresh cache directories
under ``.perfbench_work/`` in the checkout; an untraced run measures the
end-to-end metrics, a separate traced run the per-layer waterfall.  With one
``--workload`` and one ``--trace`` the last line of stdout is the result
object of the benchmark contract (``BENCHMARK.json``).  See ``README.md``
beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))

import catalog  # noqa: E402
import compare as compare_mod  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The contract gives a run 180 s; leave room to report.
CHILD_TIMEOUT = 165.0
SETUP_TIMEOUT = 60.0
SMOKE_SECONDS = 4
#: ``cli.cold_start_s`` is the median of this many CLI subprocess runs.
CLI_COLD_STARTS = {"full": 3, "smoke": 1}
#: Every process of this command inherits the variable, so none outlives it.
RUN_MARK = "PERFBENCH_RUN"


def contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def _marked(mark: str) -> List[int]:
    """Live processes, other than this one, started under ``mark``."""
    needle = f"{RUN_MARK}={mark}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:  # a zombie's environment reads empty
            if needle in Path(f"/proc/{entry}/environ").read_bytes().split(b"\0"):
                found.append(int(entry))
        except OSError:
            continue
    return found


def stop_stragglers(timeout: float = 10.0) -> None:
    """Kill what a run left behind (a killed child's daemon and sampler) and
    wait until it is gone.  After a clean run there is nothing to find."""
    mark = os.environ.get(RUN_MARK)
    deadline = time.monotonic() + timeout
    while mark and time.monotonic() < deadline:
        left = _marked(mark)
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.02)


def spawn(params: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run ``child.py`` on ``params`` in a fresh interpreter; return its result.

    A plain subprocess, not ``multiprocessing``: that starts a resource
    tracker process which outlives the command by a moment.
    """
    work_dir = Path(params["work_dir"])
    work_dir.mkdir(parents=True, exist_ok=True)
    params_path, result_path = work_dir / "params.json", work_dir / "result.json"
    # perf_counter is CLOCK_MONOTONIC on Linux, valid across processes.
    params = dict(params, result_path=str(result_path), started=time.perf_counter())
    params_path.write_text(json.dumps(params))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(params_path)], stdin=subprocess.DEVNULL
    )
    timed_out = False
    try:
        process.wait(timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        stop_stragglers()
    if timed_out:
        return {"error": f"child timed out after {timeout:.0f}s"}
    try:
        return json.loads(result_path.read_text())
    except (OSError, ValueError):
        return {"error": f"child exited with {process.returncode} and without a result"}


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    *,
    profile: str,
    golden: Optional[str],
    setup_repeats: int,
    reference_check: Optional[bool] = None,
    golden_check: bool = True,
) -> Dict[str, Any]:
    """One run of one workload; returns the record written to ``--out``."""
    base = WORK_ROOT / f"{workload}-{os.getpid()}"
    params = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "profile": profile,
        "golden": golden,
        "golden_check": golden_check,
        "src_dir": str(SRC),
        "setup_only": False,
        "cli_cold_starts": CLI_COLD_STARTS[profile],
        "reference_check": (seed != 0) if reference_check is None else reference_check,
    }
    began = time.monotonic()
    deadline = began + CHILD_TIMEOUT
    setups: List[float] = []
    raw_setups: List[float] = []
    errors: List[str] = []
    try:
        for index in range(setup_repeats - 1):
            extra = spawn(
                dict(params, setup_only=True, work_dir=str(base / f"setup-{index}")),
                SETUP_TIMEOUT,
            )
            if "error" in extra:
                errors.append(f"setup: {extra['error']}")
            else:
                setups.append(extra["setup_s"])
                raw_setups.append(extra["raw_setup_s"])
        result = spawn(
            dict(params, work_dir=str(base / "run")), max(deadline - time.monotonic(), 1.0)
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if "error" in result:
        errors.append(result["error"])
        result = {"attempted": 1, "failures": [], "metrics": {}, "samples": {}}
    failures = errors + list(result["failures"])
    metrics = dict(result["metrics"])
    samples = dict(result.get("samples", {}))
    extras = dict(result.get("extras", {}))
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"])
        raw_setups.append(extras["raw"]["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        extras["raw"]["setup_s"] = statistics.median(raw_setups)
    expected = catalog.per_layer_names() if trace else catalog.end_to_end_names()
    missing = [name for name in expected if name not in metrics]
    if missing:
        failures.append(f"metrics missing: {', '.join(missing)}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "profile": profile,
        "correct": not failures,
        "attempted": max(int(result["attempted"]), len(failures), 1),
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            name: {"value": metrics[name], "unit": catalog.unit_of(name)}
            for name in expected
            if name in metrics
        },
        "samples": samples,
        "extras": dict(extras, run_wall_s=time.monotonic() - began),
        "digests": result.get("digests", {}),
        "spans": result.get("spans", []),
        "jit_provider": result.get("jit_provider"),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def header(profile: str) -> Dict[str, Any]:
    import numpy

    import workloads

    def first_line(command: Sequence[str]) -> str:
        try:
            out = subprocess.run(command, capture_output=True, text=True, timeout=10, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else "unknown"

    compiler = next((c for c in (os.environ.get("CC"), "cc", "gcc", "clang")
                     if c and shutil.which(c)), None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": first_line([compiler, "--version"]) if compiler else "none",
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "profile": profile,
        "workloads": workloads.describe(profile),
    }


def print_header(info: Dict[str, Any]) -> None:
    print(f"# nproc={info['nproc']} python={info['python']} numpy={info['numpy']} "
          f"compiler={info['compiler']!r} commit={info['git_commit']} profile={info['profile']}")
    for name, sizes in info["workloads"].items():
        print(f"# {name}: " + " ".join(f"{key}={value}" for key, value in sizes.items()))


def print_record(record: Dict[str, Any]) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"\n== {record['workload']} seed={record['seed']} {kind} "
          f"jit_provider={record['jit_provider']}")
    bounds = {metric.name: metric.bound for metric in catalog.END_TO_END}
    raw = record["extras"].get("raw", {})
    for name, entry in record["metrics"].items():
        line = f"{name:36s} {entry['value']:16.6g} {entry['unit']}"
        if name in record["samples"]:
            line += f"  (n={record['samples'][name]})"
        if name in bounds:
            line += f"  [bound {bounds[name]:.0%}]"
        if name in raw:
            line += f"  raw {raw[name]:.6g}"
        print(line)
    for key, value in record["extras"].items():
        if key != "raw":
            print(f"{'  ' + key:36s} {value}")
    share = record["failed"] / record["attempted"]
    print(f"{'failed_share':36s} {share:16.6g} ratio  "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")
    if record["trace"]:
        print_waterfall(record)


def print_waterfall(record: Dict[str, Any]) -> None:
    """Layers by self time, as a share of the traced wall."""
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    wall = values.get("trace.wall_s", 0.0)
    if not wall:
        return
    layers = {
        name[: -len("_s")]: values[name] for name in catalog.WATERFALL if values.get(name, 0.0) > 0.0
    }
    print(f"  waterfall (share of the {wall:.2f} s traced wall):")
    for name, value in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"    {name:32s} {value:9.3f} s  {value / wall:6.1%}")


def contract_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def update_golden(args) -> int:
    """Regenerate ``golden.json`` from traced seed-0 runs (both profiles).

    The traced run also checks traced == untraced, warm == cold, GET ==
    disk, cross-backend equality and the reference cross-check, so a golden
    file is only written from runs that passed every other gate.
    """
    import gates

    golden: Dict[str, Any] = {}
    for profile in ("full", "smoke"):
        golden[profile] = {}
        seconds = SMOKE_SECONDS if profile == "smoke" else contract()["run_seconds"]
        for workload in catalog_workloads():
            record = run_one(
                workload, 0, seconds, 1, profile=profile,
                golden=None, setup_repeats=1, reference_check=True, golden_check=False,
            )
            print_record(record)
            if not record["correct"]:
                print(f"error: {workload}/{profile} failed its gates; golden not written")
                return 1
            golden[profile][workload] = dict(sorted(record["digests"].items()))
    gates.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gates.GOLDEN_PATH}")
    return 0


def catalog_workloads() -> List[str]:
    return [entry["name"] for entry in contract()["workloads"]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; "
                        "default: both, as two runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", default=None, help="write every run (and its spans) as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload shrunk, all gates on")
    parser.add_argument("--golden", default=None, help="golden digest file (default: golden.json)")
    parser.add_argument("--update-golden", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files per workload x end-to-end metric")
    parser.add_argument("--ladder", action="store_true",
                        help="opt-in size ladder: which layer breaks first past n = 4096")
    args = parser.parse_args(argv)

    if args.compare:
        return compare_mod.main(args.compare[0], args.compare[1])
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repo", file=sys.stderr)
        return 2
    os.environ[RUN_MARK] = f"{os.getpid()}.{time.time_ns()}"
    # A terminated run unwinds through every ``finally`` (daemon, children).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run_modes(parser, args)
    finally:
        stop_stragglers()
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run still works in it
        except OSError:
            pass


def _run_modes(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.ladder:
        import ladder

        return ladder.main(args.out, WORK_ROOT, SRC)
    if args.update_golden:
        return update_golden(args)

    known = catalog_workloads()
    selected = args.workload or known
    for name in selected:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {', '.join(known)}")
    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else contract()["run_seconds"]
    traces = [args.trace] if args.trace is not None else [0, 1]
    single = len(selected) == 1 and len(traces) == 1 and args.repeat == 1

    info = header(profile)
    print_header(info)
    records = []
    for repeat in range(args.repeat):
        for workload in selected:
            for trace in traces:
                record = run_one(
                    workload, args.seed + repeat, seconds, trace, profile=profile,
                    golden=args.golden,
                    setup_repeats=1 if (trace or args.smoke) else SETUP_REPEATS,
                )
                print_record(record)
                sys.stdout.flush()
                records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps({"header": info, "runs": records}) + "\n")
    failed = sum(record["failed"] for record in records)
    attempted = sum(record["attempted"] for record in records)
    print(f"\ntotal: {failed} failed of {attempted} attempted")
    if single:
        print(contract_line(records[0]))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
