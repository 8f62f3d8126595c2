"""Long-running sweep service: job queue, worker pool, HTTP/JSON API.

The one-shot :mod:`repro.experiments` executor already has everything a
shared service needs -- content-hashed :class:`ScenarioSpec` identities, an
on-disk result cache, parallel workers, backend resolution -- but as a CLI
every user pays full simulation cost.  This package turns that machinery
into a daemon that serves many clients from one cache:

* :mod:`repro.service.core` -- :class:`SweepService`: a thread-safe job
  store, a job queue drained by a pool of worker processes that drive the
  *same* :func:`repro.experiments.executor.run_sweep` loop as the CLI, and
  per-cache-key single-flight coalescing, so identical specs submitted by
  concurrent clients execute exactly once;
* :mod:`repro.service.server` -- the stdlib ``ThreadingHTTPServer`` front
  end (``POST /sweeps``, ``GET /jobs/{id}``, ``GET /results/{key}``,
  ``GET /healthz``, ``GET /specs``).  The cache is the API: result payloads
  are served byte-for-byte from the cache files, keyed
  ``{result_hash}.{backend}`` (the hash of the whole spec, observation
  fields included, and the backend that ran it);
* :mod:`repro.service.client` -- a small stdlib-only client
  (:class:`ServiceClient`, one kept ``http.client`` connection per calling
  thread) used by the tests and docs;
* :class:`JsonlLog` (from :mod:`repro.telemetry`, re-exported here) --
  JSONL request/job telemetry, so live sweep progress is ``tail -f``-able.

Everything here is standard library only; the daemon must import and run
without numpy.  Start it with ``repro-experiments serve``.
"""

from ..telemetry import JsonlLog
from .client import ClientError, JobFailed, RetryExhaustedError, ServiceClient
from .core import (
    Job,
    JobStore,
    ServiceConfig,
    ServiceError,
    ServiceUnavailableError,
    SweepService,
)
from .server import SweepServer, build_server

__all__ = [
    "ClientError",
    "Job",
    "JobFailed",
    "JobStore",
    "JsonlLog",
    "RetryExhaustedError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailableError",
    "SweepServer",
    "SweepService",
    "build_server",
]
