"""The sweep service core: job store, worker pool, single-flight coalescing.

A :class:`SweepService` owns the :class:`~repro.experiments.executor.ResultCache`
and a queue of :class:`Job` objects drained by background worker threads.
Each worker drives the exact same :func:`repro.experiments.executor.run_sweep`
loop the CLI uses -- the daemon adds *sharing*, not a second executor:

* **Cache first.**  A submitted spec whose result is already cached is
  marked done at submit time and never touches the queue.  The check is
  :meth:`ResultCache.probe`: one ``stat`` per spec against the cache's
  header index, and a read of the file only for an entry this process has
  neither written nor seen before.  A submission never parses a payload it
  does not return -- payloads leave the daemon as bytes, through
  ``GET /results/{key}``.
* **Single-flight.**  Cache-miss specs are keyed by their cache path; the
  first job to submit a key *leases* it (and will execute it), every
  concurrent job submitting the same key *follows* the lease and waits for
  the one execution.  N clients submitting the identical spec cost one
  simulation, then everyone reads the same cache entry.
* **Progress.**  ``run_sweep`` progress events update per-spec job state
  and stream to the JSONL telemetry log, so ``GET /jobs/{id}`` and
  ``tail -f`` both see live sweep progress.

Everything is standard library (``threading``, ``queue``); the
``multiprocessing`` parallelism of the underlying sweep loop is still
available per job via ``ServiceConfig.sweep_workers``.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.executor import ResultCache, SweepEvent, run_sweep
from ..experiments.spec import ScenarioSpec
from ..telemetry.events import JsonlLog
from ..telemetry.sweep import SweepTelemetry

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")

#: Per-spec progress states.  ``cached`` and ``coalesced`` are terminal "done
#: without executing here" states; ``queued -> running -> done|failed`` is the
#: executing path.
SPEC_STATES = ("queued", "running", "cached", "coalesced", "done", "failed")

#: Telemetry events retained per job for ``GET /jobs/{id}/events``.  The
#: buffer is a ring: old events are dropped but their positions stay
#: addressable, so a ``?since=N`` cursor never re-reads or skips events
#: unless it fell behind the ring (reported via ``dropped``).
JOB_EVENT_BUFFER = 1000

_SHUTDOWN = object()


class ServiceError(RuntimeError):
    """Raised on invalid service configuration or submissions."""


class ServiceUnavailableError(ServiceError):
    """Raised by :meth:`SweepService.submit` while the service is draining.

    The HTTP layer maps this to ``503 Service Unavailable``, which the
    hardened client treats as retryable for idempotent requests.
    """


@dataclass
class ServiceConfig:
    """Tunables of a :class:`SweepService` (all have serve-CLI flags)."""

    #: Background worker threads draining the job queue.
    workers: int = 2
    #: ``multiprocessing`` workers *inside* each job's sweep loop.
    sweep_workers: int = 1
    strict_backend: bool = False
    batching: bool = True
    #: Hard cap on specs per submission (one grid expansion can explode).
    max_specs_per_job: int = 4096
    #: Finished jobs retained for ``GET /jobs/{id}`` before being forgotten.
    max_finished_jobs: int = 1000
    #: Janitor cadence; the janitor only runs when a prune policy is set.
    janitor_interval: float = 300.0
    prune_older_than: Optional[float] = None
    max_cache_bytes: Optional[int] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ServiceError(f"workers must be >= 1, got {self.workers}")
        if self.sweep_workers < 1:
            raise ServiceError(
                f"sweep_workers must be >= 1, got {self.sweep_workers}"
            )


class _Inflight:
    """One leased cache key: followers wait on ``event``."""

    __slots__ = ("key", "result_key", "error", "event")

    def __init__(self, key: str):
        self.key = key
        #: Key the result actually landed under (differs from ``key`` only
        #: when the backend fell back to reference).
        self.result_key = key
        self.error: Optional[str] = None
        self.event = threading.Event()


class Job:
    """One sweep submission: a spec list plus per-spec progress.

    All mutation happens through the owning :class:`SweepService`; readers
    take :meth:`to_payload` snapshots under the job lock.
    """

    def __init__(self, job_id: str, specs: Sequence[ScenarioSpec], keys: Sequence[str]):
        self.id = job_id
        self.specs = list(specs)
        self.keys = list(keys)
        self.state = "queued"
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.stats: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        #: Indices this job will execute / indices waiting on another job.
        self.leased: List[int] = []
        self.followed: Dict[int, _Inflight] = {}
        self.progress: List[Dict[str, Any]] = [
            {
                "index": index,
                "label": spec.label or spec.topology.name,
                "spec_hash": spec.content_hash(),
                "result_key": key,
                "backend": spec.backend,
                "state": "queued",
                "from_cache": False,
            }
            for index, (spec, key) in enumerate(zip(self.specs, self.keys))
        ]
        #: Live telemetry ring for ``GET /jobs/{id}/events``.
        self.events: List[Dict[str, Any]] = []
        #: Events dropped off the front of the ring == stream index of
        #: ``events[0]``.
        self.events_dropped = 0

    # -- snapshots ------------------------------------------------------
    def spec_counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(SPEC_STATES, 0)
        for entry in self.progress:
            counts[entry["state"]] += 1
        return counts

    def to_payload(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "id": self.id,
                "state": self.state,
                "error": self.error,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "total": len(self.specs),
                "counts": self.spec_counts(),
                "stats": dict(self.stats) if self.stats else None,
                "specs": [dict(entry) for entry in self.progress],
            }

    def events_payload(self, since: int = 0) -> Dict[str, Any]:
        """The ``GET /jobs/{id}/events?since=N`` body.

        ``since`` is a cursor into the job's event stream (0 = from the
        beginning); pass the returned ``next`` on the following poll to read
        only new events.  ``dropped`` counts events that aged out of the
        ring before being read.
        """
        with self._lock:
            first = self.events_dropped
            cursor = max(int(since), first)
            window = self.events[cursor - first :]
            return {
                "job": self.id,
                "since": cursor,
                "next": first + len(self.events),
                "dropped": first,
                "events": [dict(event) for event in window],
            }

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    # -- mutation (service-internal) ------------------------------------
    def _record_event(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.events.append(record)
            overflow = len(self.events) - JOB_EVENT_BUFFER
            if overflow > 0:
                del self.events[:overflow]
                self.events_dropped += overflow

    def _update_spec(self, index: int, **fields: Any) -> Dict[str, Any]:
        with self._lock:
            self.progress[index].update(fields)
            return dict(self.progress[index])

    def _mark_running(self) -> None:
        with self._lock:
            self.state = "running"
            self.started = time.time()

    def _finalize(self) -> None:
        with self._lock:
            failed = any(entry["state"] == "failed" for entry in self.progress)
            self.state = "failed" if failed else "done"
            if failed and self.error is None:
                self.error = "; ".join(
                    str(entry.get("error"))
                    for entry in self.progress
                    if entry["state"] == "failed" and entry.get("error")
                ) or "spec execution failed"
            self.finished = time.time()
        self._done.set()


class JobStore:
    """Thread-safe job registry with bounded retention of finished jobs."""

    def __init__(self, max_finished: int = 1000):
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_finished = max_finished

    def add(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.id] = job
            finished = [
                job_id
                for job_id, entry in self._jobs.items()
                if entry.state in ("done", "failed")
            ]
            for job_id in finished[: max(0, len(finished) - self.max_finished)]:
                del self._jobs[job_id]

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                counts[job.state] += 1
            counts["total"] = len(self._jobs)
            return counts


class SweepService:
    """Job queue + worker pool + single-flight coalescing over one cache.

    ``start()`` spins up the worker (and optional janitor) threads;
    ``submit()`` is safe from any thread, including the HTTP server's
    per-connection threads; ``stop()`` drains and joins everything.
    """

    def __init__(
        self,
        cache_dir=None,
        *,
        config: Optional[ServiceConfig] = None,
        log: Optional[JsonlLog] = None,
    ):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(cache_dir)
        self.log = log or JsonlLog(None)
        self.jobs = JobStore(self.config.max_finished_jobs)
        self.started_at = time.time()
        self._queue: "queue.Queue" = queue.Queue()
        self._inflight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._janitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._running = False
        self._draining = False
        #: Lifetime totals, exposed on ``/healthz`` (and asserted by the
        #: coalescing tests: ``executed_specs`` counts actual simulations).
        self.counters = {
            "jobs_submitted": 0,
            "specs_submitted": 0,
            "specs_cached_at_submit": 0,
            "specs_coalesced": 0,
            "specs_executed": 0,
            "specs_failed": 0,
            "watchdogs_fired": 0,
        }
        #: Live watchdog firings by watchdog name (replays of cached
        #: results are excluded -- the same cached run would otherwise be
        #: counted once per cache hit).
        self.watchdog_counts: Dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SweepService":
        if self._running:
            return self
        self._stop.clear()
        self._draining = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"sweep-worker-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()
        if self.config.prune_older_than is not None or self.config.max_cache_bytes is not None:
            self._janitor = threading.Thread(
                target=self._janitor_loop, name="cache-janitor", daemon=True
            )
            self._janitor.start()
        self._running = True
        self.log.write(
            "service_start",
            workers=self.config.workers,
            cache_dir=str(self.cache.cache_dir),
        )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if not self._running:
            return
        self._stop.set()
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout)
        if self._janitor is not None:
            self._janitor.join(timeout)
            self._janitor = None
        self._threads = []
        self._running = False
        self.log.write("service_stop")

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Gracefully wind the service down: graceful sibling of :meth:`stop`.

        1. stop accepting submissions (``submit`` raises
           :class:`ServiceUnavailableError`, HTTP 503);
        2. fail every *queued* job with a clear status -- those sweeps never
           started, so clients must resubmit elsewhere;
        3. let in-flight jobs finish, bounded by ``timeout`` seconds total;
           workers still running at the deadline are abandoned (they are
           daemon threads) and counted as ``stuck_workers``.

        Returns a summary dict; ``clean`` is True when nothing was stuck.
        Safe to call on a never-started or already-drained service.
        """
        with self._lock:
            already = self._draining
            self._draining = True
            # Purge under the lock so submit() cannot enqueue concurrently.
            queued: List[Job] = []
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:
                    continue
                queued.append(item)
        if not already:
            self.log.write("service_draining", drain_timeout=timeout, queued=len(queued))
        for job in queued:
            self._abort_job(job, "service shutting down before this job could run")
        # One sentinel per worker: each finishes its in-flight job (the
        # queue is now empty bar sentinels) and exits.
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        deadline = time.monotonic() + max(0.0, timeout)
        stuck = 0
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                stuck += 1
        # Only now wake anything still parked in _await_followed (stuck
        # owners past the deadline) and the janitor.
        self._stop.set()
        if self._janitor is not None:
            self._janitor.join(1.0)
            self._janitor = None
        self._threads = []
        self._running = False
        summary = {
            "failed_queued_jobs": len(queued),
            "stuck_workers": stuck,
            "clean": stuck == 0,
        }
        self.log.write("service_drained", **summary)
        # Final flush point: rotate if the shutdown burst pushed the JSONL
        # log over its size cap, so the next start appends to a fresh file.
        self.log.rotate_if_over()
        return summary

    # -- submission -----------------------------------------------------
    def submit(self, specs: Sequence[ScenarioSpec]) -> Job:
        """Register a sweep; returns its (possibly already finished) job.

        Specs whose results are cached complete instantly; specs another
        in-flight job is already executing are *coalesced* onto that
        execution; only the rest are leased for execution by this job.  A
        fully cache-served submission never enters the queue at all.
        """
        if self._draining:
            raise ServiceUnavailableError(
                "service is draining for shutdown and not accepting new sweeps"
            )
        if not specs:
            raise ServiceError("a sweep submission needs at least one spec")
        if len(specs) > self.config.max_specs_per_job:
            raise ServiceError(
                f"submission of {len(specs)} specs exceeds the per-job cap "
                f"of {self.config.max_specs_per_job}"
            )
        keys = [self.cache.key_for(spec) for spec in specs]
        # ``probe`` costs one ``stat`` per spec and returns the entry's head
        # (validity fields + watchdog bodies), validated against the
        # submitted spec on every call; only an entry this process has never
        # seen is read and parsed, once.  It still runs *before* the service
        # lock: thousands of stats -- or first-sight parses of another
        # process's entries -- under the lock would serialize every
        # concurrent submission and stall workers releasing leases.  The
        # race this opens is benign -- a spec cached between probe and
        # lease gets leased anyway and ``run_sweep``'s own probe serves it
        # from cache without re-executing.
        probes = [self.cache.probe(spec) for spec in specs]
        hits = [head is not None for head in probes]
        job = Job(uuid.uuid4().hex[:12], specs, keys)
        enqueued = False
        with self._lock:
            if self._draining:
                # Re-check under the lock: drain() flips the flag and purges
                # the queue while holding it, so no job can slip in between
                # the purge and the workers exiting.
                raise ServiceUnavailableError(
                    "service is draining for shutdown and not accepting new sweeps"
                )
            leased_here = set()
            for index, (spec, key) in enumerate(zip(specs, keys)):
                if hits[index]:
                    job.progress[index].update(state="cached", from_cache=True)
                elif key in self._inflight:
                    job.followed[index] = self._inflight[key]
                    job.progress[index]["state"] = "coalesced"
                elif key in leased_here:
                    # Duplicate spec within one submission: the first
                    # occurrence executes, the rest follow its lease.
                    job.followed[index] = self._inflight[key]
                    job.progress[index]["state"] = "coalesced"
                else:
                    entry = _Inflight(key)
                    self._inflight[key] = entry
                    leased_here.add(key)
                    job.leased.append(index)
            self.counters["jobs_submitted"] += 1
            self.counters["specs_submitted"] += len(specs)
            self.counters["specs_cached_at_submit"] += sum(
                1 for entry in job.progress if entry["state"] == "cached"
            )
            self.counters["specs_coalesced"] += len(job.followed)
            self.jobs.add(job)
            # Enqueue under the same lock that created the leases so queue
            # order matches lease-creation order.  If a follower could slip
            # into the FIFO ahead of its owner, a worker would park in
            # _await_followed on an event whose owner is still *behind* it
            # in the queue -- a permanent deadlock with workers=1, and a
            # whole-pool wedge once N followers outrun their owners.
            if job.leased or job.followed:
                self._queue.put(job)
                enqueued = True
        self.log.write(
            "job_submitted",
            job=job.id,
            total=len(specs),
            cached=sum(1 for e in job.progress if e["state"] == "cached"),
            coalesced=len(job.followed),
            leased=len(job.leased),
        )
        # Cache-served specs never reach a worker, so their watchdog
        # firings are replayed into the job's event stream here (flagged
        # ``replayed``; live counters are untouched).  Coalesced specs'
        # events appear on the job that owns the execution.
        try:
            if any(hits):
                telemetry = self._telemetry_for(job)
                for index, (spec, head) in enumerate(zip(specs, probes)):
                    if head is not None:
                        telemetry.replay_watchdogs(index, spec, head)
        finally:
            # Even when a corrupt entry makes the replay raise (the HTTP
            # layer answers 500), a registered job must not stay "queued".
            if not enqueued:
                job._finalize()
                self.log.write("job_done", job=job.id, state=job.state, cached=True)
        return job

    # -- workers --------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            try:
                self._run_job(item)
            except Exception as exc:  # pragma: no cover - defensive
                # A worker thread must survive anything a job throws at it;
                # the job is failed, its leases released, the pool lives on.
                self._abort_job(item, f"internal service error: {exc}")

    def _run_job(self, job: Job) -> None:
        job._mark_running()
        self.log.write("job_running", job=job.id)
        if job.leased:
            self._execute_leased(job)
        for index, entry in job.followed.items():
            self._await_followed(job, index, entry)
        job._finalize()
        with self._lock:
            self.counters["specs_failed"] += sum(
                1 for entry in job.progress if entry["state"] == "failed"
            )
        self.log.write("job_done", job=job.id, state=job.state, error=job.error)

    def _telemetry_for(self, job: Job) -> SweepTelemetry:
        """A sweep telemetry emitter fanning out to the service log, the
        job's event ring and the live watchdog counters."""

        def fan_out(record: Dict[str, Any]) -> None:
            self.log.write_record(record)
            job._record_event(record)
            if record.get("event") == "watchdog_fired" and not record.get("replayed"):
                name = str(record.get("watchdog") or "unknown")
                with self._lock:
                    self.counters["watchdogs_fired"] += 1
                    self.watchdog_counts[name] = self.watchdog_counts.get(name, 0) + 1

        return SweepTelemetry(fan_out)

    def _execute_leased(self, job: Job) -> None:
        indices = list(job.leased)
        specs = [job.specs[i] for i in indices]
        error: Optional[str] = None

        def on_event(event: SweepEvent) -> None:
            index = indices[event.index]
            if event.kind == "start":
                fields = {"state": "running"}
            elif event.kind == "cached":
                # Another writer completed this key between our submit-time
                # probe and the sweep's own probe -- still a shared win.
                fields = {"state": "cached", "from_cache": True}
            else:  # executed / fallback
                fields = {
                    "state": "done",
                    "from_cache": event.from_cache,
                    "result_key": self.cache.key_for(event.spec),
                }
                if event.kind == "fallback":
                    fields["fallback_backend"] = event.spec.backend
                if not event.from_cache:
                    with self._lock:
                        self.counters["specs_executed"] += 1
            snapshot = job._update_spec(index, **fields)
            self.log.write("spec_progress", job=job.id, **snapshot)

        try:
            _, stats = run_sweep(
                specs,
                cache=self.cache,
                workers=self.config.sweep_workers,
                use_cache=True,
                strict_backend=self.config.strict_backend,
                batching=self.config.batching,
                on_event=on_event,
                telemetry=self._telemetry_for(job),
            )
            job.stats = {
                "total": stats.total,
                "cached": stats.cached,
                "executed": stats.executed,
                "batched": stats.batched,
                "fallbacks": stats.fallbacks,
                "wall_time": stats.wall_time,
            }
        except Exception as exc:
            error = str(exc) or exc.__class__.__name__
            job.error = error
            for index in indices:
                if job.progress[index]["state"] not in ("done", "cached"):
                    job._update_spec(index, state="failed", error=error)
        finally:
            # Release every lease exactly once, success or not; followers
            # blocked on the events must never hang on a dead owner.
            with self._lock:
                for index in indices:
                    entry = self._inflight.pop(job.keys[index], None)
                    if entry is None:
                        continue
                    entry.result_key = job.progress[index]["result_key"]
                    if job.progress[index]["state"] == "failed":
                        entry.error = error or "execution failed"
                    entry.event.set()

    def _await_followed(self, job: Job, index: int, entry: _Inflight) -> None:
        while not entry.event.wait(timeout=1.0):
            if self._stop.is_set():
                job._update_spec(
                    index, state="failed", error="service stopped while waiting"
                )
                return
        if entry.error is not None:
            job._update_spec(index, state="failed", error=entry.error)
        else:
            snapshot = job._update_spec(
                index,
                state="done",
                from_cache=True,
                coalesced=True,
                result_key=entry.result_key,
            )
            self.log.write("spec_progress", job=job.id, **snapshot)

    def _abort_job(self, job: Job, message: str) -> None:
        job.error = message
        for entry in job.progress:
            if entry["state"] not in ("done", "cached", "failed"):
                entry.update(state="failed", error=message)
        with self._lock:
            for index in job.leased:
                inflight = self._inflight.pop(job.keys[index], None)
                if inflight is not None:
                    inflight.error = message
                    inflight.event.set()
        job._finalize()
        self.log.write("job_done", job=job.id, state=job.state, error=message)

    # -- janitor --------------------------------------------------------
    def run_janitor_once(self) -> Tuple[int, int]:
        """Apply the configured prune policy once; returns (removed, bytes)."""
        self.log.rotate_if_over()
        removed, freed = self.cache.prune(
            older_than=self.config.prune_older_than,
            max_bytes=self.config.max_cache_bytes,
        )
        if removed:
            self.log.write("janitor_pruned", removed=removed, freed_bytes=freed)
        return removed, freed

    def _janitor_loop(self) -> None:
        while not self._stop.wait(self.config.janitor_interval):
            try:
                self.run_janitor_once()
            except Exception:  # pragma: no cover - defensive
                pass

    # -- introspection --------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """The ``/healthz`` payload body (sans HTTP framing)."""
        from .. import __version__
        from ..experiments.executor import CACHE_FORMAT_VERSION
        from ..fastsim.backend import backend_available, backend_names

        with self._lock:
            counters = dict(self.counters)
            watchdogs = dict(self.watchdog_counts)
        return {
            "status": "ok",
            "version": __version__,
            "cache_format_version": CACHE_FORMAT_VERSION,
            "backends": {
                name: backend_available(name) for name in backend_names()
            },
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.config.workers,
            "sweep_workers": self.config.sweep_workers,
            "jobs": self.jobs.counts(),
            "counters": counters,
            "watchdogs": watchdogs,
            "cache": dict(
                self.cache.stats(),
                dir=str(self.cache.cache_dir),
                probe=self.cache.probe_stats(),
            ),
        }
