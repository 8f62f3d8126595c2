"""Parallel sweep execution with an on-disk result cache.

The executor turns specs into runs:

* :func:`~repro.experiments.results.execute_spec` (re-exported here)
  materialises one spec, runs the engine and returns a plain-JSON payload
  (summary + trace + metadata) -- the *only* thing that crosses process
  boundaries, so workers never pickle engines;
* :class:`ResultCache` is the result-hash-keyed on-disk store
  (``benchmarks/results/cache/`` by default) with atomic writes, stats and
  pruning -- shared by one-shot CLI runs and the long-running sweep service
  (:mod:`repro.service`), whose ``GET /results/{key}`` API serves these
  files verbatim;
* :func:`run_sweep` is THE sweep loop and the one way to run a batch --
  backend resolution (``auto`` picks the engine; a spec its named backend
  declines is refused), cache probe, pool dispatch, cache store -- whose
  optional :class:`~repro.telemetry.SweepTelemetry` stream is the one way
  to follow it.  Because every source of randomness is seeded from the
  spec hash (see :mod:`repro.experiments.registry`), a parallel sweep is
  bit-identical to a serial one, and a repeated sweep is served entirely
  from cache;
* :func:`expand_grid` expands a named scenario and a parameter grid into the
  cartesian product of specs.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import re
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .. import __version__ as _library_version
from ..fastsim.backend import resolve_backend
from ..metrics import ObserverReport
from ..telemetry.sweep import WATCHDOG_PREFIX, SweepTelemetry
from . import registry
from .results import (
    CACHE_FORMAT_VERSION,
    RunSummary,
    execute_spec,
    meta_from_payload,
    trace_from_payload,
)
from .semantics import SEMANTICS
from .spec import ScenarioSpec

_CACHE_DIR_ENV = "REPRO_EXPERIMENTS_CACHE_DIR"


class ExecutorError(RuntimeError):
    """Raised on invalid executor configuration."""


def default_cache_dir() -> Path:
    """Where results go when no cache directory is given explicitly.

    ``$REPRO_EXPERIMENTS_CACHE_DIR`` wins; otherwise
    ``benchmarks/results/cache`` when run from a checkout (the cwd has a
    ``benchmarks/`` directory), falling back to a per-user cache so an
    installed ``repro-experiments`` never litters arbitrary working
    directories with ``benchmarks/`` trees.
    """
    override = os.environ.get(_CACHE_DIR_ENV)
    if override:
        return Path(override)
    if Path("benchmarks").is_dir():
        return Path("benchmarks/results/cache")
    return Path.home() / ".cache" / "repro-experiments"


# ----------------------------------------------------------------------
# Dispatch (what runs where; :mod:`.results` computes each payload)
# ----------------------------------------------------------------------
def _pool_worker(spec_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level (hence picklable) worker entry point."""
    return execute_spec(ScenarioSpec.from_dict(spec_payload))


# ----------------------------------------------------------------------
# Runs and sweep bookkeeping
# ----------------------------------------------------------------------
@dataclass
class ExperimentRun:
    """One executed (or cache-served) spec: summary, report, trace, metadata.

    ``trace`` is ``None`` for ``trace: none`` runs -- the streaming
    ``report`` (an :class:`~repro.metrics.ObserverReport`) then carries
    everything the summary was computed from.  A run built from a result
    payload is handed the payload's ``"trace"`` object -- with a cache,
    executed or hit, the unparsed line of the entry's file
    (:class:`_TraceLine`), without one the payload's trace -- and turns it
    into a :class:`~repro.sim.trace.Trace` when ``trace`` is first read
    (callers that read only the summary never pay for the samples, ``repr``
    included); text and payload form are dropped then, and every later
    read returns that same ``Trace``.
    """

    spec: ScenarioSpec
    summary: RunSummary
    trace: Any = field(repr=False)
    meta: Dict[str, Any]
    report: Optional[ObserverReport] = None
    from_cache: bool = False
    wall_time: float = 0.0
    #: Always ``None`` (nothing falls back); kept for the perf harness.
    requested_backend: Optional[str] = None
    #: Whether an armed watchdog ended the run before the full duration
    #: (``until_stable`` specs only; the report then covers the prefix up
    #: to the trip sample).
    stopped_early: bool = False

    @property
    def graph(self):
        """Rebuild the (pre-run) dynamic graph of this spec on demand."""
        return registry.build_graph(self.spec)[0]


def _read_trace(run: ExperimentRun):
    held = run._trace
    if isinstance(held, _TraceLine):  # still in its file; raises if it cannot be read
        held = run._trace = held.decode()
    elif isinstance(held, dict):  # the payload's "trace" object
        held = run._trace = trace_from_payload(held)
    return held


def _hold_trace(run: ExperimentRun, trace) -> None:
    run._trace = trace


# Installed after the class body: inside it, the name is the dataclass field
# (the generated ``__init__`` assigns through this property).
ExperimentRun.trace = property(_read_trace, _hold_trace)


@dataclass
class SweepStats:
    """How a batch of specs was satisfied."""

    total: int = 0
    cached: int = 0
    executed: int = 0
    #: Always 0: every spec executes on its own engine.  Kept for readers
    #: of the field (the perf harness derives ``executor.batched_share``).
    batched: int = 0
    #: Always 0 (nothing falls back); kept for the perf harness.
    fallbacks: int = 0
    wall_time: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.total} spec(s): {self.cached} from cache, "
            f"{self.executed} executed in {self.wall_time:.1f}s"
        )


def _run_from_payload(
    spec: ScenarioSpec, payload: Dict[str, Any], from_cache: bool
) -> ExperimentRun:
    return ExperimentRun(
        spec=spec,
        summary=RunSummary.from_dict(payload["summary"]),
        trace=payload.get("trace"),  # decoded when first read
        meta=meta_from_payload(payload.get("meta", {})),
        report=ObserverReport.from_payload(payload.get("observers")),
        from_cache=from_cache,
        wall_time=payload.get("wall_time", 0.0),
        stopped_early=payload.get("stopped_early", False),
    )


# ----------------------------------------------------------------------
# The on-disk result cache
# ----------------------------------------------------------------------
#: A cache key (:meth:`ResultCache.key_for`); nothing else may ever be
#: fetched through :meth:`ResultCache.path_for_key`.
_CACHE_KEY_RE = re.compile(r"^[0-9a-f]{64}\.[A-Za-z0-9_-]+$")


#: Most payload heads one :class:`ResultCache` remembers (a head is about
#: 1 kB); the least recently used one is dropped first.
HEADER_INDEX_CAPACITY = 4096

_HEAD_KEYS = ("format", "library_version", "semantics", "spec_hash", "backend")


def _signature(stat: os.stat_result) -> Tuple[int, int, int]:
    """What must be unchanged for a remembered head to still be the file's."""
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _head_of(payload: Any) -> Optional[Dict[str, Any]]:
    """A payload cut down to what validity and watchdog replay read, plus
    ``result_key``: the key of the payload's own ``spec``.

    ``None`` -- a cache miss -- for anything that is not a result payload,
    or one that disagrees with itself (a ``spec_hash`` or ``backend`` that
    is not its spec's).  Fields the payload lacks stay missing.
    """
    if not isinstance(payload, dict):
        return None
    try:
        spec = ScenarioSpec.from_dict(payload["spec"])
    except (LookupError, TypeError, ValueError, AttributeError):  # SpecError too
        return None
    if (
        payload.get("spec_hash") != spec.content_hash()
        or payload.get("backend", "reference") != spec.backend
    ):
        return None
    head = {key: payload[key] for key in _HEAD_KEYS if key in payload}
    head["result_key"] = ResultCache.key_for(spec)
    report = payload.get("observers")
    bodies = report.get("observers") if isinstance(report, dict) else None
    head["observers"] = {
        "observers": {
            name: body
            for name, body in (bodies.items() if isinstance(bodies, dict) else ())
            if name.startswith(WATCHDOG_PREFIX)
        }
    }
    return head


def _matches(head: Mapping[str, Any], key: str) -> bool:
    """THE validity rule of the cache, run on every ``fetch`` and
    ``probe``: the file's own spec has ``key``, and this code wrote it (a
    key names a file, not its content)."""
    return (
        head.get("format") == CACHE_FORMAT_VERSION
        and head.get("library_version") == _library_version
        # Written by code that decides results differently: a miss.
        and head.get("semantics") == SEMANTICS
        and head.get("result_key") == key
    )


#: How a ``"trace"`` member starts in ``json.dumps`` output.
_TRACE_MEMBER = b'"trace": '
#: How much of each end of an entry :func:`_cut_ends` reads.  The first line
#: of a framed entry is about 3 kB (spec, summary, meta, observer report),
#: its last one a few dozen bytes.
_END_BYTES = 1 << 16


def _dumps(value: Any) -> bytes:
    # allow_nan=False: payloads are sanitized at build time, so a non-finite
    # float reaching this point is a bug -- fail loudly rather than cache an
    # unparseable NaN/Infinity token.
    return json.dumps(value, allow_nan=False).encode("ascii")


def _framed(payload: Dict[str, Any]) -> bytes:
    """``json.dumps(payload)`` with a non-null ``"trace"`` member on a line
    of its own: one newline before it, one after it, nothing else moved.

    ``dumps`` emits no newline itself (inside strings it is escaped), so
    these two are the only ones in the file and :func:`_cut` can take the
    trace out again without parsing it.
    """
    if payload.get("trace") is None:
        return _dumps(payload)
    keys = list(payload)
    at = keys.index("trace")
    before = _dumps({key: payload[key] for key in keys[:at]})
    after = _dumps({key: payload[key] for key in keys[at + 1 :]})
    return b"".join((
        before[:-1],
        b", \n" if at else b"\n",
        _TRACE_MEMBER,
        _dumps(payload["trace"]),
        b"\n, " if at + 1 < len(keys) else b"\n",
        after[1:],
    ))


def _cut(data: bytes) -> Tuple[bytes, Optional[bytes]]:
    """A cache file as ``(the document with "trace": null, the trace's text)``.

    That is lines 1 + 3 and line 2 of an entry :func:`_framed` laid out.
    Any other file is ``(data, None)`` and gets parsed whole: the layout
    saves work, it is never what makes an entry valid.  A truncated entry
    has no intact third line, so what is left of it fails to parse either
    way.
    """
    # ``find`` with bounds is a ``memchr``; ``data.split`` would walk a 1 MB
    # trace byte by byte (20x the cost of reading the file).
    first, last = data.find(b"\n"), data.rfind(b"\n")
    if (
        first != last
        and data.find(b"\n", first + 1, last) < 0  # exactly two
        and data.startswith(_TRACE_MEMBER, first + 1)
    ):
        return (
            data[:first] + _TRACE_MEMBER + b"null" + data[last + 1 :],
            data[first + 1 + len(_TRACE_MEMBER) : last],
        )
    return data, None


def _cut_ends(head: bytes, handle, size: int) -> Optional[bytes]:
    """What :func:`_cut` returns first, from the two ends of an entry alone.

    ``head`` is the first :data:`_END_BYTES` of the open file, which is
    ``size`` bytes long and longer than that; as many are read from its end,
    and the trace line between them is not.  ``None`` when the ends do not
    show the layout (the first line does not end within ``head``, no
    ``"trace"`` member follows it, no newline near the end).  The middle is
    not looked at, so what comes back is only *probably* the document: it
    still has to parse, and the caller reads the file whole when it does not.
    """
    first = head.find(b"\n")
    if first < 0 or not head.startswith(_TRACE_MEMBER, first + 1):
        return None
    handle.seek(max(len(head), size - _END_BYTES))
    tail = handle.read()
    last = tail.rfind(b"\n")
    if last < 0:
        return None
    return head[:first] + _TRACE_MEMBER + b"null" + tail[last + 1 :]


class _TraceLine:
    """The ``"trace"`` member of a cache entry, left in its file.

    What a payload from :meth:`ResultCache.fetch`, and the run of a result
    :func:`run_sweep` has just stored, hold in place of the trace object
    until somebody wants it: the entry's path, not the line's text -- no
    sweep, cold or warm, keeps its traces in memory, and a warm one
    allocates nothing whose size depends on them.  :meth:`parse` reads the
    file that is at the path *then*; the same key names the same
    deterministic result, so an entry rewritten in between yields the same
    trace, and only one removed in between has none.
    """

    __slots__ = ("path", "cache")

    def __init__(self, path: Path, cache: "ResultCache"):
        self.path = path
        self.cache = cache

    def parse(self) -> Any:
        try:
            document, trace = _cut(self.path.read_bytes())
            if trace is None:  # some other layout by now: the whole document's
                return self.cache._parse(document)["trace"]
            return self.cache._parse(trace)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ExecutorError(
                f"cache entry {self.path}: its trace cannot be read ({exc!r})"
            ) from exc

    def decode(self) -> Any:
        """The :class:`~repro.sim.trace.Trace` of :meth:`parse`'s payload.

        A line that parses but does not decode fails like one that does not
        parse: the entry is named, whatever the decoder raised.
        """
        payload = self.parse()
        try:
            return trace_from_payload(payload)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise ExecutorError(
                f"cache entry {self.path}: its trace cannot be decoded ({exc!r})"
            ) from exc


class ResultCache:
    """Result-hash-keyed JSON result store shared by CLI and daemon.

    One file per result key (:meth:`key_for`); writes are atomic (unique
    temp file + ``os.replace``), so concurrent writers -- threads in one
    daemon process or independent processes sharing the directory -- can
    never tear an entry, only overwrite it with identical bytes.  A file
    is the ``json.dumps`` of its payload; a trace, ~99 % of the bytes, sits
    on a line of its own (:func:`_framed`) so that readers can leave it
    unread (:meth:`fetch`, :meth:`probe`).

    Each instance also keeps a bounded *header index*: for every file it
    parsed or wrote, the file's ``(st_ino, st_size, st_mtime_ns)`` and its
    head (:func:`_head_of`).  :meth:`probe` answers "is this spec cached?"
    from it for the price of one ``stat``.  The index remembers what a file
    *says*, never a verdict: a head counts only while the file's signature
    is unchanged, and ``_matches`` judges it against the key asked for on
    every call.  (A rewrite in place that keeps inode, size and mtime is
    not seen; every writer of this class replaces the file.)
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        #: cache key -> (file signature, head), least recently used first.
        self._index: "OrderedDict[str, Tuple[Tuple[int, int, int], Dict[str, Any]]]" = (
            OrderedDict()
        )
        self._index_lock = threading.Lock()
        self._probe_hits = 0
        self._probe_parses = 0
        self._parsed_bytes = 0

    # -- keys -----------------------------------------------------------
    @staticmethod
    def key_for(spec: ScenarioSpec) -> str:
        """The cache key (file stem) of a spec, and the API key of ``GET
        /results/{key}``: ``{result_hash}.{backend}``, one entry per
        observation of a scenario, the backend readable for breakdowns."""
        return f"{spec.result_hash()}.{spec.backend}"

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def path_for(self, spec: ScenarioSpec) -> Path:
        return self._path(self.key_for(spec))

    def path_for_key(self, key: str) -> Path:
        """Resolve a client-supplied cache key to its file, strictly.

        Raises :class:`ExecutorError` unless the key is a plain
        ``{result_hash}.{backend}`` stem -- path separators, ``..`` and
        anything else that could escape the cache directory never match.
        """
        if key.endswith(".json"):
            key = key[: -len(".json")]
        if not _CACHE_KEY_RE.match(key):
            raise ExecutorError(f"malformed cache key {key!r}")
        return self._path(key)

    @staticmethod
    def backend_of_key(key: str) -> str:
        """The backend a cache file stem belongs to (for stats breakdowns)."""
        return key.rpartition(".")[2]

    # -- read / write ---------------------------------------------------
    def _remember(self, key: str, signature: Tuple[int, int, int], head: Dict[str, Any]) -> None:
        with self._index_lock:
            self._index[key] = (signature, head)
            self._index.move_to_end(key)
            while len(self._index) > HEADER_INDEX_CAPACITY:
                self._index.popitem(last=False)

    def _forget(self, key: str) -> None:
        # Hygiene, not safety: a stale entry could never answer, because its
        # signature no longer matches the file's.
        with self._index_lock:
            self._index.pop(key, None)

    def _parse(self, data: bytes) -> Any:
        with self._index_lock:
            self._parsed_bytes += len(data)
        return json.loads(data)

    def _read(self, key: str) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Read one cache file into ``(payload, head)`` and index the head.

        Where the file gives the trace a line of its own (:func:`_cut`),
        that line is not parsed -- and in a file longer than
        :data:`_END_BYTES` not read either (:func:`_cut_ends`):
        ``payload["trace"]`` is the :class:`_TraceLine` that knows where it is.

        ``None`` when the file is missing, unreadable, not JSON or not a
        result payload.  The signature is taken from the open descriptor,
        so it belongs to the bytes that were parsed; a file the index knows
        under that signature keeps its head (re-loading one entry over and
        over builds nothing).
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                signature = _signature(stat)
                data = handle.read(_END_BYTES)
                payload = None
                if stat.st_size > len(data):
                    document = _cut_ends(data, handle, stat.st_size)
                    try:
                        payload = self._parse(document) if document else None
                    except ValueError:
                        pass  # not the document after all
                    if payload is None:
                        handle.seek(len(data))
                        data += handle.read()
            traced = payload is not None
            if not traced:
                document, trace = _cut(data)
                payload = self._parse(document)
                traced = trace is not None
        except (OSError, ValueError):
            self._forget(key)
            return None
        if traced and isinstance(payload, dict):
            payload["trace"] = _TraceLine(path, self)
        with self._index_lock:
            entry = self._index.get(key)
        if entry is not None and entry[0] == signature:
            return payload, entry[1]
        head = _head_of(payload)
        if head is None:
            self._forget(key)
            return None
        self._remember(key, signature, head)
        return payload, head

    def fetch(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """:meth:`load` without the trace: where the file gives the trace a
        line of its own, ``payload["trace"]`` is a :class:`_TraceLine`, the
        line itself still in the file.

        :class:`ExperimentRun` takes it as it is and reads and parses the
        line when its ``trace`` is read; a sweep that reads summaries never
        does, and holds no memory for the traces of its cache hits.
        """
        key = self.key_for(spec)
        found = self._read(key)
        if found is not None and _matches(found[1], key):
            return found[0]
        return None

    def load(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        payload = self.fetch(spec)
        if payload is not None and isinstance(payload.get("trace"), _TraceLine):
            try:
                payload["trace"] = payload["trace"].parse()
            except ExecutorError:
                return None
        return payload

    def probe(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """The head of ``spec``'s cached result, or ``None`` on a miss.

        ``probe(spec) is not None`` exactly when ``load(spec)`` is not, but
        a file this instance has already parsed or written costs one
        ``stat``, and any other one a read and a parse of everything but
        its trace line.  (Hence the one exception: garbage inside an otherwise
        intact trace line -- no writer of this class can leave that -- is a
        miss for ``load`` only, and an :class:`ExecutorError` for whoever
        reads the ``trace`` of a run made from the entry.)  The head is
        shared with the index: read it, never mutate it.
        """
        key = self.key_for(spec)
        try:
            signature = _signature(os.stat(self._path(key)))
        except OSError:
            self._forget(key)
            return None
        with self._index_lock:
            entry = self._index.get(key)
            indexed = entry is not None and entry[0] == signature
            if indexed:
                self._index.move_to_end(key)
                self._probe_hits += 1
            else:
                self._probe_parses += 1
        if indexed:
            head = entry[1]
        else:
            found = self._read(key)
            if found is None:
                return None
            head = found[1]
        return head if _matches(head, key) else None

    def probe_stats(self) -> Dict[str, int]:
        """Index size and how probes were answered: ``hits`` from the index,
        ``parses`` by reading the file (probes of missing files are neither).
        ``parsed_bytes`` is how much of its files this instance has handed
        to ``json.loads``, for probes, loads and trace reads together."""
        with self._index_lock:
            return {
                "entries": len(self._index),
                "hits": self._probe_hits,
                "parses": self._probe_parses,
                "parsed_bytes": self._parsed_bytes,
            }

    def adopt(self, key: str, stat: os.stat_result, head: Dict[str, Any]) -> None:
        """Index a head that another process's ``store`` or parse produced.

        ``stat`` is that process's ``os.stat`` of the entry.  This is how the
        sweep service keeps its index warm for results its worker processes
        wrote; nothing is trusted by it -- a probe still compares the
        signature with the file's own ``stat`` and judges the head with
        ``_matches``.
        """
        self._remember(key, _signature(stat), head)

    def _tmp_path(self, path: Path) -> Path:
        # The temp name must be unique per *write*, not just per process:
        # two daemon threads storing the same spec share a pid, and with a
        # pid-only suffix one thread's os.replace would steal (or race) the
        # other's half-written file.  Keep the ``.tmp.`` infix so the
        # ``clear()`` sweep glob still matches leftovers.
        return path.with_suffix(f".tmp.{os.getpid()}-{uuid.uuid4().hex[:12]}")

    def store(self, spec: ScenarioSpec, payload: Dict[str, Any]) -> Path:
        # The one writer of an entry's ``semantics``: the digest of the code
        # that stores it, under which alone :func:`_matches` serves it.
        payload = {**payload, "semantics": SEMANTICS}
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        key = self.key_for(spec)
        path = self._path(key)
        tmp = self._tmp_path(path)
        tmp.write_bytes(_framed(payload))
        # os.replace keeps inode, size and mtime, so the temp file's stat is
        # the entry's signature: a later probe of what this instance wrote
        # never parses it.  The head is taken from the document as a parse
        # finds it (tuples become lists), the spec it is keyed by included.
        signature = _signature(os.stat(tmp))
        os.replace(tmp, path)
        head = _head_of(json.loads(_dumps({**payload, "trace": None})))
        if head is not None:
            self._remember(key, signature, head)
        return path

    # -- lifecycle ------------------------------------------------------
    def entries(self) -> List[Path]:
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed.

        Also sweeps ``*.tmp.*`` leftovers from interrupted writes.
        """
        removed = 0
        if self.cache_dir.is_dir():
            for pattern in ("*.json", "*.tmp.*"):
                for entry in self.cache_dir.glob(pattern):
                    entry.unlink()
                    removed += 1
        with self._index_lock:
            self._index.clear()
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes and a per-backend entry breakdown."""
        by_backend: Dict[str, int] = {}
        total_bytes = 0
        count = 0
        for entry in self.entries():
            try:
                total_bytes += entry.stat().st_size
            except OSError:
                continue  # pruned/replaced underneath us
            count += 1
            backend = self.backend_of_key(entry.name[: -len(".json")])
            by_backend[backend] = by_backend.get(backend, 0) + 1
        return {
            "entries": count,
            "total_bytes": total_bytes,
            "by_backend": dict(sorted(by_backend.items())),
        }

    def prune(
        self,
        *,
        older_than: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Expire cache entries; returns ``(removed, freed_bytes)``.

        ``older_than`` drops entries whose mtime is more than that many
        seconds in the past; ``max_bytes`` then evicts least-recently
        *written* entries (mtime order) until the directory fits.  Both the
        CLI (``repro-experiments cache``) and the daemon's periodic janitor
        use this, so a long-running service never grows without bound.
        A negative bound raises :class:`ExecutorError` before any file is
        touched (it would otherwise expire every entry).
        """
        for name, bound in (("older_than", older_than), ("max_bytes", max_bytes)):
            if bound is not None and bound < 0:
                raise ExecutorError(f"cache prune: {name} must be >= 0, got {bound}")
        removed = 0
        freed = 0
        now = time.time() if now is None else now
        survivors: List[Tuple[float, int, Path]] = []
        for entry in self.entries():
            try:
                stat = entry.stat()
            except OSError:
                continue
            if older_than is not None and now - stat.st_mtime > older_than:
                try:
                    entry.unlink()
                except OSError:
                    continue
                self._forget(entry.name[: -len(".json")])
                removed += 1
                freed += stat.st_size
            else:
                survivors.append((stat.st_mtime, stat.st_size, entry))
        if max_bytes is not None:
            survivors.sort()  # oldest mtime first == LRU-by-write
            total = sum(size for _, size, _ in survivors)
            for _, size, entry in survivors:
                if total <= max_bytes:
                    break
                try:
                    entry.unlink()
                except OSError:
                    continue
                self._forget(entry.name[: -len(".json")])
                removed += 1
                freed += size
                total -= size
        return removed, freed


# ----------------------------------------------------------------------
# The reusable sweep loop (CLI and daemon both drive this)
# ----------------------------------------------------------------------
def run_sweep(
    specs: Sequence[ScenarioSpec],
    *,
    cache: Optional[ResultCache] = None,
    workers: int = 1,
    use_cache: bool = True,
    strict_backend: bool = False,  # ignored; kept for the perf harness
    telemetry: Optional[SweepTelemetry] = None,
) -> Tuple[List[ExperimentRun], SweepStats]:
    """Run a batch of specs, preserving input order.

    This is THE sweep loop -- backend resolution, cache probe, pool
    dispatch, cache store -- shared verbatim by the CLI, the benchmark
    scripts and the sweep service daemon (:mod:`repro.service`); none forks
    its own copy.

    Which backend runs a spec is decided first, from the spec alone, for
    every spec before any is probed or built
    (:func:`~repro.fastsim.backend.resolve_backend`): ``auto`` becomes the
    engine that runs it, and a spec its named backend cannot run raises.
    An engine that still refuses its spec fails the sweep; nothing is
    re-routed.  ``strict_backend`` is accepted and ignored.  Cache hits are
    served directly.  Misses that share a cache key execute once: the
    first occurrence runs and stores, the later ones are handed its result
    and count (and report) as ``cached`` once it exists.  The distinct
    misses execute one spec at a time through
    :func:`~repro.experiments.results.execute_spec`, inline (``workers ==
    1``) or on a ``multiprocessing`` pool.  Each result is
    written to the cache and turned into its :class:`ExperimentRun` as soon
    as it exists.  An executed run, like a cache hit
    (:meth:`ResultCache.fetch`), holds its trace as the line of the entry it
    was stored under and reads it when ``trace`` is first read, so the
    sweep's memory does not grow with the runs it has executed.  The
    contract is the hit's: an entry removed before that read raises
    :class:`ExecutorError`, one rewritten in between yields the same trace.
    With ``use_cache=False`` there is no entry, and each run keeps its
    payload's trace.

    ``telemetry`` (a :class:`~repro.telemetry.SweepTelemetry`) is the one
    way to follow a sweep; the daemon derives job progress from it too.  It
    streams sweep brackets, ``run_started`` per spec about to execute,
    ``run_finished`` (``cached`` or ``done``) as each result exists, and
    ``watchdog_fired`` / ``progress`` *live* from inline runs; pool workers
    and cache hits cannot carry a sink, so their watchdog firings are
    replayed from the payload, flagged ``replayed``.
    """
    if workers < 1:
        raise ExecutorError(f"workers must be >= 1, got {workers}")
    cache = cache if cache is not None else ResultCache()
    started = time.perf_counter()
    batch = SweepStats(total=len(specs))

    resolved = [resolve_backend(spec) for spec in specs]  # what will execute

    if telemetry is not None:
        telemetry.sweep_started(len(specs))

    runs: List[Optional[ExperimentRun]] = [None] * len(resolved)
    #: index of a miss -> later indices with the same cache key, which wait
    #: for its result instead of executing.
    duplicates: Dict[int, List[int]] = {}

    def settle(index, spec, payload, from_cache) -> None:
        # A result becomes its run the moment it exists, so the sweep never
        # holds more than the payload(s) in hand beside the runs.
        runs[index] = _run_from_payload(spec, payload, from_cache)
        if from_cache:
            batch.cached += 1
        if telemetry is not None:
            telemetry.run_finished(index, spec, from_cache)
            # No-op for runs that streamed live; cache hits and pool
            # workers replay from the payload.
            telemetry.replay_watchdogs(index, spec, payload)

    def executed(index, spec, payload) -> None:
        if use_cache:
            path = cache.store(spec, payload)
            if payload.get("trace") is not None:
                # The run holds the entry's trace line, as a hit does.
                payload = {**payload, "trace": _TraceLine(path, cache)}
        batch.executed += 1
        settle(index, spec, payload, False)
        for later in duplicates.get(index, ()):
            settle(later, resolved[later], payload, True)

    missing: List[Tuple[int, ScenarioSpec]] = []
    owners: Dict[str, int] = {}  # cache key -> index of the miss that runs it
    for index, spec in enumerate(resolved):
        payload = cache.fetch(spec) if use_cache else None
        if payload is not None:
            settle(index, spec, payload, True)
            continue
        if use_cache:  # without one every spec executes as asked, repeats too
            owner = owners.setdefault(cache.key_for(spec), index)
            if owner != index:
                duplicates.setdefault(owner, []).append(index)
                continue
        missing.append((index, spec))

    if telemetry is not None:
        for index, spec in missing:
            telemetry.run_started(index, spec)
    if workers > 1 and len(missing) > 1:
        with multiprocessing.Pool(min(workers, len(missing))) as pool:
            payloads = pool.imap(_pool_worker, [spec.to_dict() for _, spec in missing])
            for (index, spec), payload in zip(missing, payloads):
                executed(index, spec, payload)
    else:
        for index, spec in missing:
            sink = telemetry.run_sink(index, spec) if telemetry is not None else None
            executed(index, spec, execute_spec(spec, sink))

    batch.wall_time = time.perf_counter() - started
    if telemetry is not None:
        telemetry.sweep_finished(batch)
    return runs, batch


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def _assign(target: Dict[str, Any], key: str, value: Any) -> None:
    """Set ``value`` at the dotted path ``key`` of ``target``; a mapping
    merges key by key into the mapping already there."""
    *path, last = key.split(".")
    for part in path:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise ExecutorError(f"cannot nest into non-mapping setting {part!r}")
    if isinstance(value, Mapping):
        if not isinstance(target.get(last), dict):
            target[last] = {}
        for sub_key, sub_value in value.items():
            _assign(target[last], sub_key, sub_value)
    else:
        target[last] = value


def expand_grid(
    scenario_name: str,
    grid: Mapping[str, Iterable[Any]],
    *,
    base: Optional[Mapping[str, Any]] = None,
) -> List[ScenarioSpec]:
    """Cartesian product of builder arguments for a named scenario.

    ``expand_grid("line_scaling", {"n": [4, 8], "algorithm": ["AOPT",
    "MaxPropagation"]})`` yields four specs; no axes yield the one spec of
    ``base``, the fixed builder arguments of every point.  A dotted key is a
    path (``sim.dt``), a mapping merges key by key, and the point goes over
    the base: a ``sim.dt`` axis keeps the base's ``sim.duration``.
    """
    keys = list(grid)
    value_lists = [list(grid[key]) for key in keys]
    for key, values in zip(keys, value_lists):
        if not values:
            raise ExecutorError(f"grid axis {key!r} has no values")
    specs = []
    for combo in itertools.product(*value_lists):
        kwargs: Dict[str, Any] = {}
        for key, value in [*(base or {}).items(), *zip(keys, combo)]:
            _assign(kwargs, key, value)
        specs.append(registry.scenario(scenario_name, **kwargs))
    return specs
