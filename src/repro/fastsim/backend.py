"""The engine-backend abstraction: pluggable simulation executors.

A backend turns a materialised scenario (graph + algorithm factory +
:class:`~repro.sim.runner.SimulationConfig`) into an engine object exposing
the surface the executor and the summary code rely on:

* ``run(duration) -> Trace``
* ``nodes`` and ``algorithm(node)`` (per-node introspection for invariant
  checks)
* ``logical_value`` / ``hardware_value`` / ``global_skew`` (tests, analyses)

Four backends ship with the library:

* ``"reference"`` -- the object-oriented :class:`repro.sim.engine.Engine`,
  faithful and fully general;
* ``"fast"`` -- the struct-of-arrays :class:`repro.fastsim.engine.FastEngine`,
  specialized for the AOPT family (oracle *and* broadcast estimate modes)
  and bit-identical to the reference on the scenarios it supports;
* ``"vec"`` -- the NumPy-vectorized :class:`repro.vecsim.engine.VecEngine`,
  same supported scenarios and bit-identity contract as ``fast`` but with
  whole-array kernels per step (see :mod:`repro.vecsim`).  It needs :mod:`numpy` (``pip install repro[vec]``);
  without numpy the backend stays registered but :meth:`VecBackend.build`
  raises :class:`BackendUnavailableError`;
* ``"jit"`` -- the compiled fused-time-loop :class:`repro.jitsim.JitEngine`,
  same supported scenarios and bit-identity contract as ``vec`` but with
  regular step segments executed in one call of the bundled C kernel,
  compiled on demand with the system toolchain.  Without numpy and a C
  compiler, :meth:`JitBackend.build` raises :class:`BackendUnavailableError`.

Backends are selected per scenario through the ``backend`` field of
:class:`repro.experiments.spec.ScenarioSpec` (and hence from the CLI via
``--set backend=vec`` or a ``--grid backend=reference,fast,vec`` sweep
axis).  ``backend="auto"`` names no engine: it runs the spec on the first
of :data:`AUTO_ORDER` that is installed and does not decline it.  The
registry here is intentionally tiny and open: downstream code can register
additional executors (e.g. a process-sharded one) without touching the
experiments subsystem.

The backend object is the one place that says what a backend does.  Beyond
``build`` it may offer ``available()`` (are its optional dependencies
installed?) and ``declines(spec)`` (a reason when it will not run the
spec, decided from the spec alone).  :func:`resolve_backend` is the one
gate every run passes before anything is materialised, built or keyed: it
turns ``auto`` into a backend name, and refuses a spec whose named backend
is unknown, not installed or declines it -- that spec runs nowhere else.
"""

from __future__ import annotations

import functools
import importlib.util

from typing import Dict, List, Optional

from ..core.interfaces import AlgorithmFactory
from ..network.dynamic_graph import DynamicGraph
from ..sim.runner import SimulationConfig, build_engine
from .engine import FastEngine, UnsupportedScenarioError

try:  # Python 3.8+: typing.Protocol is available from 3.8 onwards.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - 3.9 floor guarantees Protocol
    Protocol = object  # type: ignore

    def runtime_checkable(cls):  # type: ignore
        return cls


class BackendError(KeyError):
    """Raised when a backend lookup or registration fails."""

    def __str__(self):  # KeyError wraps its message in quotes; undo that.
        return self.args[0] if self.args else ""


class BackendUnavailableError(BackendError):
    """A registered backend cannot run because an optional dependency is
    missing (e.g. ``backend='vec'`` without numpy installed)."""


@runtime_checkable
class EngineBackend(Protocol):
    """Protocol every engine backend implements."""

    name: str

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        """Return a ready-to-run engine for the materialised scenario."""


class ReferenceBackend:
    """The object-oriented reference engine (fully general)."""

    name = "reference"

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        return build_engine(graph, algorithm_factory, config)


#: Algorithm registry names the columnar engines run.
AOPT_FAMILY = frozenset({"aopt", "immediate_insertion"})

#: Dynamics registry names that schedule node resets.
NODE_RESET_DYNAMICS = frozenset({"crash_restart"})


def _columnar_declines(spec) -> Optional[str]:
    """Why ``fast`` / ``vec`` / ``jit`` will not run ``spec``, or ``None``.

    Three fields of the spec decide it; the guards in
    :class:`~repro.fastsim.engine.FastEngine` check the same features on
    what a constructor is handed, and a generated test holds the two in
    agreement over every registered scenario.
    """
    if spec.algorithm.name not in AOPT_FAMILY:
        return (
            f"the {spec.backend!r} backend runs the AOPT family only, "
            f"got algorithm {spec.algorithm.name!r}"
        )
    if spec.dynamics is not None and spec.dynamics.name in NODE_RESET_DYNAMICS:
        return (
            f"the {spec.backend!r} backend does not implement node "
            f"crash/restart resets (dynamics {spec.dynamics.name!r})"
        )
    if spec.sim.get("track_diameter"):
        return (
            f"the {spec.backend!r} backend does not implement the diameter "
            "tracker (sim.track_diameter)"
        )
    return None


class FastBackend:
    """The struct-of-arrays engine (AOPT, oracle/broadcast estimates, bit-identical)."""

    name = "fast"
    declines = staticmethod(_columnar_declines)

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        return FastEngine(graph, algorithm_factory, config)


@functools.lru_cache(maxsize=None)
def _numpy_available() -> bool:
    """Whether numpy can be imported (looked up once; monkeypatchable in tests)."""
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:
        return False


class VecBackend:
    """The NumPy-vectorized engine (AOPT, oracle/broadcast estimates, bit-identical).

    Registered unconditionally so ``backend='vec'`` is always a *known* name;
    without numpy it raises :class:`BackendUnavailableError` (what it
    ``needs``, and the backends which are actually runnable).
    """

    name = "vec"
    declines = staticmethod(_columnar_declines)
    needs = "numpy, which is not installed (pip install 'repro[vec]')"

    def available(self) -> bool:
        return _numpy_available()

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        _require_available(self.name)
        from ..vecsim.engine import VecEngine

        return VecEngine(graph, algorithm_factory, config)


class JitBackend:
    """The compiled fused-time-loop engine (AOPT, oracle/broadcast, bit-identical).

    Registered unconditionally like ``vec``; building needs numpy plus a
    working C compiler for the bundled kernel source (see
    :mod:`repro.jitsim.providers`).  Every spec routed through the backend
    stays bit-identical to reference/fast/vec.
    """

    name = "jit"
    declines = staticmethod(_columnar_declines)
    needs = "numpy and a C compiler (pip install 'repro[jit]')"

    def available(self) -> bool:
        if not _numpy_available():
            return False
        from ..jitsim import providers

        return providers.provider_available()

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        _require_available(self.name)
        from ..jitsim.engine import JitEngine

        return JitEngine(graph, algorithm_factory, config)


BACKENDS: Dict[str, EngineBackend] = {}


def register_backend(backend: EngineBackend) -> EngineBackend:
    """Register a backend under its ``name``; duplicate names are rejected."""
    name = backend.name
    if not name or not isinstance(name, str):
        raise BackendError("a backend needs a non-empty string name")
    if name in BACKENDS:
        raise BackendError(f"backend {name!r} is already registered")
    BACKENDS[name] = backend
    return backend


def get_backend(name: str) -> EngineBackend:
    """Look up a backend by name, with a helpful error on miss."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise BackendError(f"unknown backend {name!r}; known: {known}") from None


def backend_names() -> List[str]:
    return sorted(BACKENDS)


def backend_available(name: str) -> bool:
    """Whether a backend is runnable (its optional dependencies are present).

    Backends may expose an ``available()`` probe; those that don't are
    assumed always runnable.
    """
    backend = get_backend(name)
    probe = getattr(backend, "available", None)
    return bool(probe()) if callable(probe) else True


def available_backend_names() -> List[str]:
    return [name for name in backend_names() if backend_available(name)]


def _require_available(name: str) -> None:
    """Raise :class:`BackendUnavailableError` -- what the backend ``needs``
    and what is installed -- unless backend ``name`` can run here."""
    if not backend_available(name):
        needs = getattr(BACKENDS[name], "needs", "a dependency that is missing")
        raise BackendUnavailableError(
            f"the {name!r} backend needs {needs}; installed backends: "
            + ", ".join(available_backend_names())
        )


def declined_reason(spec) -> Optional[str]:
    """Why ``spec.backend`` will not run ``spec``; ``None`` when it will.

    The backend's optional ``declines(spec)`` answers from the spec alone;
    nothing is materialised or built.  A name that is not registered
    declines nothing: :func:`resolve_backend` refuses it first.
    """
    declines = getattr(BACKENDS.get(spec.backend), "declines", None)
    return declines(spec) if declines is not None else None


#: The backend name that picks an engine per spec.
AUTO = "auto"

#: What ``auto`` tries, fastest first; ``reference`` declines nothing.
AUTO_ORDER = ("jit", "fast", "reference")


def resolve_backend(spec):
    """``spec`` on the engine that will run it, decided from the spec alone.

    ``backend="auto"`` becomes the first of :data:`AUTO_ORDER` that is
    installed and does not decline the spec.  A named backend runs the spec
    as it is, or the spec is refused before anything is materialised, built
    or keyed: :class:`BackendError` for a name nobody registered,
    :class:`BackendUnavailableError` for a backend that cannot run here,
    and :class:`UnsupportedScenarioError` for one that declines the spec
    (the message says where ``backend=auto`` runs it).
    """
    if spec.backend == AUTO:
        for name in AUTO_ORDER:
            candidate = spec.with_backend(name)
            if backend_available(name) and declined_reason(candidate) is None:
                return candidate
        raise UnsupportedScenarioError(f"no backend of {AUTO_ORDER} runs the spec")
    if spec.backend not in BACKENDS:
        raise BackendError(
            f"unknown backend {spec.backend!r}; registered: "
            + ", ".join([AUTO, *backend_names()])
        )
    _require_available(spec.backend)
    reason = declined_reason(spec)
    if reason is not None:
        auto = resolve_backend(spec.with_backend(AUTO)).backend
        raise UnsupportedScenarioError(f"{reason}; backend=auto runs it on {auto!r}")
    return spec


register_backend(ReferenceBackend())
register_backend(FastBackend())
register_backend(VecBackend())
register_backend(JitBackend())
