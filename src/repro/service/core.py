"""The sweep service core: job store, worker pool, single-flight coalescing.

A :class:`SweepService` owns the :class:`~repro.experiments.executor.ResultCache`
and a queue of :class:`Job` objects drained by a pool of worker *processes*.
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
  ``submit`` resolves each spec's backend first (``auto`` becomes the
  engine that runs it, so it shares that engine's key) and refuses a spec
  its named backend cannot run before anything is keyed or queued.
* **Progress.**  ``run_sweep`` progress events update per-spec job state
  and stream to the JSONL telemetry log, so ``GET /jobs/{id}`` and
  ``tail -f`` both see live sweep progress.

**What a worker is.**  ``start()`` resolves every backend (so the engines
and the jit provider are loaded once), then forks ``config.workers``
children, each with a pipe and a *relay thread* in the daemon that takes
jobs off the queue.  The relay sends a job's leased specs down the pipe;
the child (:func:`_worker_main`) runs ``run_sweep`` on them against its own
:class:`ResultCache` over the same directory and sends up three kinds of
small messages: sweep events, finished telemetry records, and a final stats
dict or error string.  The relay feeds them to the same progress and
fan-out code a thread would have called, so leases, coalescing, counters,
the job event ring and the JSONL log all live in the daemon.  A result
payload never crosses the pipe: it goes worker -> disk -> ``GET
/results/{key}``.  What does cross with each stored result is the header
index entry the child's ``store`` produced, which the daemon adopts
(:meth:`ResultCache.adopt`) so that a resubmission is still answered without
a parse.

**When a worker dies** (a crashing native kernel, the OOM killer, ``kill
-9``) only its job fails, with ``worker process <pid> exited with ...``;
its leases are released, so followers fail with the same reason instead of
hanging, and the slot gets a fresh process before its next job.  Children
ignore ``SIGINT`` and take the default ``SIGTERM``: shutting down is the
daemon's decision -- it closes the pipe (the child finishes its job, reads
EOF and exits) or, past the drain bound, terminates the process.  Children
also exit on EOF when the daemon itself is killed.

Everything is standard library (``threading``, ``queue``,
``multiprocessing`` pipes and processes).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.executor import ResultCache, SweepEvent, run_sweep
from ..experiments.spec import ScenarioSpec
from ..fastsim.backend import (
    BackendError,
    backend_available,
    backend_names,
    resolve_backend,
)
from ..fastsim.engine import UnsupportedScenarioError
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
    """Tunables of a :class:`SweepService` (the serve CLI has a flag for
    each but the two ``max_*_job*`` caps)."""

    #: Worker processes draining the job queue (the one parallelism setting).
    workers: int = 2
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


#: How workers are started: ``fork`` where the platform has it -- children
#: inherit the engines and the jit provider ``start()`` loaded -- else the
#: platform default.
_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)

#: The signals ``serve`` handles.  A worker is started with them blocked and
#: unblocks them once it has reset their dispositions, so not even a ^C in
#: the first millisecond of its life runs the daemon's handler in a child.
_SHUTDOWN_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: Grace for a worker that was told to go (pipe closed or terminated) and
#: for its relay thread to notice, before harsher means.
_EXIT_GRACE = 5.0


def _close_inherited_fds(keep: int) -> None:
    """Close every descriptor a forked worker shares with the daemon but
    ``keep`` and stdio.

    A fork copies the listening socket, accepted connections, the log file
    and -- what matters most -- the daemon's ends of every worker pipe,
    this worker's own included.  While any copy stays open, no child reads
    EOF when the daemon dies, and the port outlives the daemon.
    """
    try:
        inherited = [int(name) for name in os.listdir("/dev/fd")]
    except (OSError, ValueError):
        return
    for fd in inherited:
        if fd > 2 and fd != keep:
            try:
                os.close(fd)
            except OSError:
                pass  # the listing's own descriptor, already gone


def _worker_main(conn, cache_dir: str, forked: bool) -> None:
    """One worker process: run each job the daemon sends, until EOF.

    A job arrives as a list of spec dicts.  Up the pipe go
    ``("event", kind, index, from_cache, entry)`` per sweep event --
    ``entry`` is the ``(stat, head)`` of the result this process's cache
    just indexed, for the daemon to adopt --
    ``("record", record)`` per telemetry record, and finally
    ``("done", stats)`` or ``("error", message)``.
    """
    # A terminal ^C reaches the whole process group, and the daemon's own
    # handlers (installed before the fork) would raise inside a kernel.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _SHUTDOWN_SIGNALS)
    if forked:
        _close_inherited_fds(conn.fileno())
    cache = ResultCache(cache_dir)

    def on_event(event: SweepEvent) -> None:
        entry = None
        if event.kind != "start":
            head = cache.probe(event.spec)  # indexed by the store or load: one stat
            if head is not None:
                try:
                    entry = (os.stat(cache.path_for(event.spec)), head)
                except OSError:
                    pass  # pruned underneath us: the daemon will parse on demand
        conn.send(("event", event.kind, event.index, event.from_cache, entry))

    telemetry = SweepTelemetry(lambda record: conn.send(("record", record)))
    while True:
        try:
            spec_dicts = conn.recv()
        except (EOFError, OSError):
            return  # the daemon closed the pipe, or is gone
        try:
            _, stats = run_sweep(
                [ScenarioSpec.from_dict(item) for item in spec_dicts],
                cache=cache,
                workers=1,
                use_cache=True,
                on_event=on_event,
                telemetry=telemetry,
            )
            reply = (
                "done",
                {
                    "total": stats.total,
                    "cached": stats.cached,
                    "executed": stats.executed,
                    "wall_time": stats.wall_time,
                },
            )
        except Exception as exc:
            # The boundary that must keep running: whatever a spec throws
            # fails its job, not the worker.
            reply = ("error", str(exc) or exc.__class__.__name__)
        try:
            conn.send(reply)
        except OSError:
            return


class _Worker:
    """One worker process as the daemon sees it."""

    __slots__ = ("process", "conn", "job", "stop_reason")

    def __init__(self, process, conn):
        self.process = process
        #: The daemon's end of the pipe.
        self.conn = conn
        #: The job the process is running, ``None`` while idle.
        self.job: Optional[Job] = None
        #: Set before the daemon terminates the process on purpose; the
        #: job's error then says why instead of "exited with SIGTERM".
        self.stop_reason: Optional[str] = None

    def reap(self) -> None:
        """Join the process (it was told to go, or is dead) and close the
        pipe; one that lingers past the grace is killed."""
        self.process.join(_EXIT_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(_EXIT_GRACE)
        self.conn.close()

    def exit_description(self) -> str:
        code = self.process.exitcode
        if code is not None and code < 0:
            try:
                return f"signal {signal.Signals(-code).name}"
            except ValueError:
                return f"signal {-code}"
        return f"code {code}"


class _Inflight:
    """One leased cache key: followers wait on ``event``."""

    __slots__ = ("error", "event")

    def __init__(self):
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
        #: Bytes the worker process sent up its pipe for this job (events,
        #: telemetry records, index entries -- never a payload).
        self.pipe_bytes = 0

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

    ``start()`` forks the worker processes and spins up their relay (and
    the optional janitor) threads; ``submit()`` is safe from any thread,
    including the HTTP server's per-connection threads; ``stop()`` and
    ``drain()`` join everything and leave no process behind.
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
        #: Slot ``i``: relay thread ``_threads[i]`` drives process
        #: ``_workers[i]``; only that thread replaces the slot's worker.
        self._threads: List[threading.Thread] = []
        self._workers: List[_Worker] = []
        self._restarts = 0
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
    @property
    def draining(self) -> bool:
        """True from the start of :meth:`drain` until the next :meth:`start`."""
        return self._draining

    def start(self) -> "SweepService":
        if self._running:
            return self
        self._stop.clear()
        self._draining = False
        # Resolve every backend before forking: this imports the engines
        # and loads the jit provider, so children inherit them instead of
        # each paying for them on its first job.
        for name in backend_names():
            backend_available(name)
        # Fork before this call starts any thread of its own.
        self._workers = [self._spawn_worker() for _ in range(self.config.workers)]
        self._threads = [
            threading.Thread(
                target=self._relay, args=(slot,), name=f"sweep-relay-{slot}", daemon=True
            )
            for slot in range(self.config.workers)
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
            pids=[worker.process.pid for worker in self._workers],
            cache_dir=str(self.cache.cache_dir),
        )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Abrupt sibling of :meth:`drain`: queued jobs fail as the relays
        reach them, running jobs get ``timeout`` seconds in total, then
        their processes are terminated."""
        if not self._running:
            return
        self._stop.set()
        self._wind_down(timeout, "service stopped")
        self.log.write("service_stop")

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Gracefully wind the service down: graceful sibling of :meth:`stop`.

        1. stop accepting submissions (``submit`` raises
           :class:`ServiceUnavailableError`, HTTP 503);
        2. fail every *queued* job with a clear status -- those sweeps never
           started, so clients must resubmit elsewhere;
        3. let in-flight jobs finish, bounded by ``timeout`` seconds total;
           a worker process still running at the deadline is terminated,
           its job fails saying so, and it counts as a ``stuck_workers``.

        Returns a summary dict; ``clean`` is True when nothing was stuck.
        Safe to call on a never-started or already-drained service.  No
        worker process survives it.
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
        stuck = self._wind_down(
            timeout, f"service drain timed out after {timeout:g}s"
        )
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

    def _wind_down(self, timeout: float, reason: str) -> int:
        """Retire the pool; returns how many relays outlasted ``timeout``.

        One sentinel per relay: each finishes its in-flight job and exits.
        A relay still alive at the deadline is mid-job (or following one
        that is): its process is terminated, which fails the job with
        ``reason`` and releases its leases.  Idle workers just get their
        pipe closed and exit on EOF.
        """
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        deadline = time.monotonic() + max(0.0, timeout)
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        stuck = [thread.is_alive() for thread in self._threads]
        for worker, busy in zip(self._workers, stuck):
            if busy:
                worker.stop_reason = (
                    f"{reason}: worker process {worker.process.pid} terminated mid-job"
                )
                worker.process.terminate()
            else:
                worker.conn.close()
        # Wakes anything parked in _await_followed, and the janitor.
        self._stop.set()
        for thread in self._threads:
            thread.join(_EXIT_GRACE)
        for worker in self._workers:
            worker.reap()
        if self._janitor is not None:
            self._janitor.join(1.0)
            self._janitor = None
        self._threads = []
        self._workers = []
        self._running = False
        return sum(stuck)

    # -- submission -----------------------------------------------------
    def submit(self, specs: Sequence[ScenarioSpec]) -> Job:
        """Register a sweep; returns its (possibly already finished) job.

        Specs whose results are cached complete instantly; specs another
        in-flight job is already executing are *coalesced* onto that
        execution; only the rest are leased for execution by this job.  A
        fully cache-served submission never enters the queue at all.  A
        spec whose backend is unknown, not installed or declines it raises
        :class:`ServiceError` before anything is counted or queued.
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
        # What will execute, so keys, probes and leases name the file the
        # result will have; a spec its backend will not run is refused here.
        try:
            specs = [resolve_backend(spec) for spec in specs]
        except (BackendError, UnsupportedScenarioError) as exc:
            raise ServiceError(str(exc)) from exc
        keys = [self.cache.key_for(spec) for spec in specs]
        # ``probe`` costs one ``stat`` per spec and returns the entry's head
        # (validity fields + watchdog bodies), validated against the
        # submitted spec's key on every call; only an entry this process has
        # never seen is read and parsed, once.  It still runs *before* the
        # service lock: thousands of stats -- or first-sight parses of
        # another process's entries -- under the lock would serialize every
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
                    entry = _Inflight()
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
                telemetry = SweepTelemetry(self._fan_out_for(job))
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
    def _spawn_worker(self) -> _Worker:
        daemon_end, worker_end = _MP.Pipe()
        process = _MP.Process(
            target=_worker_main,
            args=(
                worker_end,
                str(self.cache.cache_dir),
                _MP.get_start_method() == "fork",
            ),
            name="sweep-worker",
            daemon=True,
        )
        if hasattr(signal, "pthread_sigmask"):
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SHUTDOWN_SIGNALS)
            try:
                process.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        else:  # no signal masks, and no process-group ^C either
            process.start()
        worker_end.close()  # the child holds the only copy: its exit is our EOF
        return _Worker(process, daemon_end)

    def _replace_worker(self, slot: int, job: Optional[Job]) -> str:
        """Bury the dead worker of ``slot``; returns why it is dead.

        Called by the slot's relay thread only.  The slot gets a fresh
        process unless the service is winding down.
        """
        worker = self._workers[slot]
        worker.reap()
        exit_description = worker.exit_description()
        self.log.write(
            "worker_exited",
            pid=worker.process.pid,
            exit=exit_description,
            job=job.id if job is not None else None,
        )
        if not (self._draining or self._stop.is_set()):
            self._workers[slot] = self._spawn_worker()
            with self._lock:
                self._restarts += 1
        return worker.stop_reason or (
            f"worker process {worker.process.pid} exited with {exit_description}"
        )

    def _relay(self, slot: int) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            try:
                if self._stop.is_set():
                    self._abort_job(item, "service stopped before this job could run")
                else:
                    self._run_job(item, slot)
            except Exception as exc:  # pragma: no cover - defensive
                # A relay thread must survive anything a job throws at it;
                # the job is failed, its leases released, the pool lives on.
                self._abort_job(item, f"internal service error: {exc}")

    def _run_job(self, job: Job, slot: int) -> None:
        job._mark_running()
        self.log.write("job_running", job=job.id)
        if job.leased:
            self._execute_leased(job, slot)
        for index, entry in job.followed.items():
            self._await_followed(job, index, entry)
        job._finalize()
        with self._lock:
            self.counters["specs_failed"] += sum(
                1 for entry in job.progress if entry["state"] == "failed"
            )
        self.log.write("job_done", job=job.id, state=job.state, error=job.error)

    def _fan_out_for(self, job: Job):
        """The writer of one job's telemetry records: the service log, the
        job's event ring and the live watchdog counters."""

        def fan_out(record: Dict[str, Any]) -> None:
            self.log.write_record(record)
            job._record_event(record)
            if record.get("event") == "watchdog_fired" and not record.get("replayed"):
                name = str(record.get("watchdog") or "unknown")
                with self._lock:
                    self.counters["watchdogs_fired"] += 1
                    self.watchdog_counts[name] = self.watchdog_counts.get(name, 0) + 1

        return fan_out

    def _execute_leased(self, job: Job, slot: int) -> None:
        indices = list(job.leased)
        fan_out = self._fan_out_for(job)
        error: Optional[str] = None
        started = retried = False

        def on_event(kind: str, index: int, from_cache: bool) -> None:
            nonlocal started
            if kind == "start":
                started = True
                fields = {"state": "running"}
            elif kind == "cached":
                # Another writer completed this key between our submit-time
                # probe and the sweep's own probe -- still a shared win.
                fields = {"state": "cached", "from_cache": True}
            else:  # executed
                fields = {"state": "done", "from_cache": from_cache}
                if not from_cache:
                    with self._lock:
                        self.counters["specs_executed"] += 1
            snapshot = job._update_spec(index, **fields)
            self.log.write("spec_progress", job=job.id, **snapshot)

        if not self._workers[slot].process.is_alive():
            self._replace_worker(slot, None)  # died idle: no job pays for it
        try:
            while True:
                worker = self._workers[slot]
                worker.job = job
                try:
                    error = self._converse(worker, job, indices, on_event, fan_out)
                except (EOFError, OSError):
                    error = self._replace_worker(slot, job)
                    # A worker just sent SIGKILL can still look alive above,
                    # and the job then goes down a dead pipe.  If no spec
                    # started, none of it ran: a result is a pure function of
                    # its spec, so the fresh worker gets the job once more.
                    if not (started or retried) and self._workers[slot] is not worker:
                        retried, error = True, None
                        continue
                except Exception as exc:  # pragma: no cover - defensive
                    # Our half of the conversation broke while the worker is
                    # mid-sweep: it cannot be handed another job, so it goes.
                    worker.stop_reason = f"internal service error: {exc}"
                    worker.process.terminate()
                    error = self._replace_worker(slot, job)
                break
        finally:
            worker.job = None
            if error is not None:
                job.error = error
                for index in indices:
                    if job.progress[index]["state"] not in ("done", "cached"):
                        job._update_spec(index, state="failed", error=error)
            # Release every lease exactly once, success or not; followers
            # blocked on the events must never hang on a dead owner.
            with self._lock:
                for index in indices:
                    entry = self._inflight.pop(job.keys[index], None)
                    if entry is None:
                        continue
                    if job.progress[index]["state"] == "failed":
                        entry.error = error or "execution failed"
                    entry.event.set()

    def _converse(self, worker: _Worker, job: Job, indices, on_event, fan_out):
        """Send the leased specs to ``worker`` and relay what comes back
        until it finishes; returns the worker's error message or ``None``.
        A dead pipe raises ``EOFError`` / ``OSError``."""
        worker.conn.send([job.specs[i].to_dict() for i in indices])
        while True:
            data = worker.conn.recv_bytes()
            job.pipe_bytes += len(data)
            tag, *body = pickle.loads(data)  # written by our own worker
            if tag == "event":
                kind, index, from_cache, entry = body
                index = indices[index]
                if entry is not None:
                    self.cache.adopt(job.keys[index], *entry)
                on_event(kind, index, from_cache)
            elif tag == "record":
                fan_out(*body)
            elif tag == "done":
                (job.stats,) = body
                return None
            else:  # error
                (error,) = body
                return error

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
                index, state="done", from_cache=True, coalesced=True
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

        with self._lock:
            counters = dict(self.counters)
            watchdogs = dict(self.watchdog_counts)
            restarts = self._restarts
        workers = list(self._workers)
        return {
            "status": "ok",
            "version": __version__,
            "cache_format_version": CACHE_FORMAT_VERSION,
            "backends": {
                name: backend_available(name) for name in backend_names()
            },
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": {
                "configured": self.config.workers,
                "alive": sum(worker.process.is_alive() for worker in workers),
                "busy": sum(worker.job is not None for worker in workers),
                "restarts": restarts,
                "pids": [worker.process.pid for worker in workers],
            },
            "jobs": self.jobs.counts(),
            "counters": counters,
            "watchdogs": watchdogs,
            "cache": dict(
                self.cache.stats(),
                dir=str(self.cache.cache_dir),
                probe=self.cache.probe_stats(),
            ),
        }
