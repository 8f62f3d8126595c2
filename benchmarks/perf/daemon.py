"""The ``serve`` daemon as a subprocess, and the closed-loop client load.

Load is generated from this process by ``CLIENTS`` threads, each a closed
loop: a client's next request is sent only after the previous one completed.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.service import ClientError, ServiceClient

import workloads
from spans import Recorder

CLIENTS = 2
DAEMON_WORKERS = 2
POLL_INTERVAL = 0.01
BOOT_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0
#: A warm phase that has not reached its job count by now gives up.
WARM_PHASE_CAP = 45.0
_URL_RE = re.compile(r"sweep service on (http://\S+)")


class DaemonError(RuntimeError):
    """The daemon did not come up (or died)."""


class Daemon:
    """``python -m repro.experiments serve`` on an ephemeral port."""

    def __init__(self, cache_dir: Path, log_path: Path):
        self.cache_dir = Path(cache_dir)
        self.log_path = Path(log_path)
        self.process: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None

    def start(self) -> "Daemon":
        command = [
            sys.executable, "-m", "repro.experiments", "serve",
            "--port", "0",
            "--workers", str(DAEMON_WORKERS),
            "--log-file", "",
            "--cache-dir", str(self.cache_dir),
        ]
        with self.log_path.open("wb") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=log, env=dict(os.environ)
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while self.url is None:
            match = _URL_RE.search(self.log_path.read_text(errors="replace"))
            if match:
                self.url = match.group(1)
            elif self.process.poll() is not None:
                raise DaemonError(f"daemon exited with {self.process.returncode}")
            elif time.monotonic() > deadline:
                raise DaemonError("daemon did not print its URL")
            else:
                time.sleep(0.01)
        self.client().wait_until_ready(timeout=BOOT_TIMEOUT, poll_interval=0.01)
        return self

    def client(self) -> ServiceClient:
        return ServiceClient(self.url, timeout=JOB_TIMEOUT)

    def stop(self) -> None:
        """SIGTERM, wait, then kill; always reaps the process."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.process = None

    # -- /proc readings -------------------------------------------------
    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# One job, closed loop
# ----------------------------------------------------------------------
class JobOutcome(NamedTuple):
    job: Optional[Dict[str, Any]]
    latency: float
    polls: int
    error: Optional[str]


def _span_of(rec: Optional[Recorder]) -> Callable:
    """``rec.span``, or a no-op stand-in for untraced runs."""
    return rec.span if rec is not None else (lambda name, ident=None: nullcontext())


def run_job(client: ServiceClient, specs: Sequence, rec: Optional[Recorder] = None) -> JobOutcome:
    """Submit ``specs`` and poll to a terminal state; submit -> done latency."""
    span = _span_of(rec)
    polls = 0
    started = time.perf_counter()
    try:
        with span("service.job"):
            with span("service.submit"):
                job = client.submit(specs)
            deadline = started + JOB_TIMEOUT
            while job["state"] not in ("done", "failed"):
                if time.perf_counter() > deadline:
                    return JobOutcome(job, time.perf_counter() - started, polls, "timed out")
                time.sleep(POLL_INTERVAL)
                with span("service.poll"):
                    job = client.job(job["id"])
                polls += 1
    except ClientError as exc:
        return JobOutcome(None, time.perf_counter() - started, polls, repr(exc))
    latency = time.perf_counter() - started
    error = None
    if job["state"] != "done":
        error = f"ended {job['state']}: {job.get('error')}"
    elif any("fallback_backend" in entry for entry in job["specs"]):
        error = "fell back to reference unasked"
    return JobOutcome(job, latency, polls, error)


def _run_clients(target: Callable[[int], None]) -> None:
    threads = [
        threading.Thread(target=target, args=(index,), name=f"bench-client-{index}")
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def cold_phase(daemon: Daemon, jobs_per_client: Sequence[Sequence[Sequence]]) -> Dict[str, Any]:
    """Disjoint jobs, every spec new: each client works through its own list."""
    latencies: List[float] = []
    failures: List[str] = []
    lock = threading.Lock()

    def client_loop(index: int) -> None:
        client = daemon.client()
        for specs in jobs_per_client[index]:
            outcome = run_job(client, specs)
            with lock:
                latencies.append(outcome.latency)
                if outcome.error:
                    failures.append(f"cold job: {outcome.error}")
                elif outcome.job["counts"]["done"] != len(specs):
                    failures.append(f"cold job: counts {outcome.job['counts']}")

    started = time.perf_counter()
    _run_clients(client_loop)
    ended = time.perf_counter()
    return {
        "interval": (started, ended),
        "wall": ended - started,
        "latencies": latencies,
        "failures": failures,
        "jobs": sum(len(jobs) for jobs in jobs_per_client),
    }


def shared_phase(daemon: Daemon, jobs: Sequence[Sequence]) -> Dict[str, Any]:
    """Both clients submit the same new jobs at the same moment."""
    failures: List[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS)
    before = daemon.client().healthz()["counters"]

    def client_loop(index: int) -> None:
        client = daemon.client()
        for specs in jobs:
            barrier.wait(JOB_TIMEOUT)
            outcome = run_job(client, specs)
            if outcome.error:
                with lock:
                    failures.append(f"shared job: {outcome.error}")

    started = time.perf_counter()
    _run_clients(client_loop)
    wall = time.perf_counter() - started
    after = daemon.client().healthz()["counters"]
    delta = {key: after[key] - before[key] for key in after}
    distinct = sum(len(specs) for specs in jobs)
    if delta["specs_executed"] != distinct:
        failures.append(
            f"shared: executed {delta['specs_executed']} specs for {distinct} distinct ones"
        )
    return {
        "wall": wall,
        "failures": failures,
        "jobs": CLIENTS * len(jobs),
        "coalesced": delta["specs_coalesced"],
        "submitted": delta["specs_submitted"],
    }


def warm_phase(
    daemon: Daemon,
    specs: Sequence,
    disk: Mapping[str, bytes],
    *,
    seed: int,
    budget: float,
    min_jobs: int,
    rec: Optional[Recorder] = None,
) -> Dict[str, Any]:
    """Jobs drawn from already-computed specs, each followed by a
    ``GET /results/{key}`` for every spec of the job.

    Runs until ``budget`` seconds passed *and* ``min_jobs`` jobs completed
    (so the p95 keeps ten samples beyond it), at most ``WARM_PHASE_CAP`` long.
    ``disk`` maps result keys to the on-disk cache bytes every fetch must
    equal.  ``jobs`` and ``gets`` are ``(start, latency)`` pairs.
    """
    span = _span_of(rec)
    jobs: List[Tuple[float, float]] = []
    gets: List[Tuple[float, float]] = []
    failures: List[str] = []
    totals = {"polls": 0, "get_bytes": 0, "specs": 0}
    job_ids: List[str] = []
    lock = threading.Lock()
    before = daemon.client().healthz()["counters"]
    cpu_before = daemon.cpu_seconds()
    started = time.perf_counter()

    def client_loop(index: int) -> None:
        client = daemon.client()
        # Consecutive triples of a seeded permutation, cycled: every spec is
        # drawn equally often, so the job mix does not depend on the seed.
        order = list(specs)
        random.Random(seed * CLIENTS + index).shuffle(order)
        cursor = 0
        while True:
            elapsed = time.perf_counter() - started
            with lock:
                enough = len(jobs) >= min_jobs
            if (elapsed >= budget and enough) or elapsed >= WARM_PHASE_CAP:
                return
            job_specs = [
                order[(cursor + k) % len(order)]
                for k in range(min(workloads.SPECS_PER_JOB, len(order)))
            ]
            cursor += len(job_specs)
            began = time.perf_counter()
            outcome = run_job(client, job_specs, rec)
            fetched: List[Tuple[float, float]] = []
            errors: List[str] = []
            size = 0
            if outcome.error:
                errors.append(f"warm job: {outcome.error}")
            else:
                if outcome.job["counts"]["cached"] != len(job_specs):
                    errors.append(f"warm job: not served from cache {outcome.job['counts']}")
                for entry in outcome.job["specs"]:
                    key = entry["result_key"]
                    got = time.perf_counter()
                    try:
                        with span("service.result_get"):
                            body = client.result_bytes(key)
                    except ClientError as exc:
                        errors.append(f"GET {key[:12]}: {exc!r}")
                        continue
                    fetched.append((got, time.perf_counter() - got))
                    size += len(body)
                    if body != disk.get(key):
                        errors.append(f"GET {key[:12]}: bytes differ from the cache file")
            with lock:
                jobs.append((began, outcome.latency))
                gets.extend(fetched)
                failures.extend(errors)
                totals["specs"] += len(job_specs)
                totals["polls"] += outcome.polls
                totals["get_bytes"] += size
                if outcome.job is not None and len(job_ids) < 8:
                    job_ids.append(outcome.job["id"])

    _run_clients(client_loop)
    ended = time.perf_counter()
    cpu = daemon.cpu_seconds() - cpu_before
    after = daemon.client().healthz()["counters"]
    delta = {key: after[key] - before[key] for key in after}
    return {
        "interval": (started, ended),
        "wall": ended - started,
        "jobs": jobs,
        "gets": gets,
        "failures": failures,
        "job_ids": job_ids,
        "specs_served": totals["specs"],
        "polls": totals["polls"],
        "get_bytes": totals["get_bytes"],
        "daemon_cpu_s": cpu,
        "cached_at_submit": delta["specs_cached_at_submit"],
        "submitted": delta["specs_submitted"],
    }


def probe_endpoints(daemon: Daemon, job_ids: Sequence[str], rec: Recorder, repeats: int = 5) -> None:
    """Time ``/healthz`` and ``/jobs/{id}/events`` a few times each."""
    client = daemon.client()
    for _ in range(repeats):
        with rec.span("service.healthz"):
            client.healthz()
    for job_id in list(job_ids)[:repeats]:
        with rec.span("service.job_events"):
            client.job_events(job_id)
