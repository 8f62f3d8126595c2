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
axis).  The registry here is intentionally tiny and open: downstream code
can register additional executors (e.g. a process-sharded one) without
touching the experiments subsystem.

The backend object is the one place that says what a backend does.  Beyond
``build`` it may offer ``available()`` (are its optional dependencies
installed?), ``declines(spec)`` (a reason when it will not run the spec,
decided from the spec alone -- the sweep executor then runs the spec's
``reference`` twin).
"""

from __future__ import annotations

import importlib.util

from typing import Dict, List, Optional

from ..core.interfaces import AlgorithmFactory
from ..network.dynamic_graph import DynamicGraph
from ..sim.runner import SimulationConfig, build_engine
from .engine import FastEngine

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


def _numpy_available() -> bool:
    """Whether numpy can be imported (monkeypatchable in tests)."""
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:
        return False


class VecBackend:
    """The NumPy-vectorized engine (AOPT, oracle/broadcast estimates, bit-identical).

    Registered unconditionally so ``backend='vec'`` is always a *known* name;
    building without numpy raises :class:`BackendUnavailableError` that lists
    the backends which are actually runnable.
    """

    name = "vec"
    declines = staticmethod(_columnar_declines)

    def available(self) -> bool:
        return _numpy_available()

    def _require(self) -> None:
        if not self.available():
            raise BackendUnavailableError(
                "the 'vec' backend needs numpy, which is not installed "
                "(pip install 'repro[vec]'); installed backends: "
                + ", ".join(available_backend_names())
            )

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        self._require()
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

    def available(self) -> bool:
        if not _numpy_available():
            return False
        from ..jitsim import providers

        return providers.provider_available()

    def _require(self) -> None:
        if not self.available():
            raise BackendUnavailableError(
                "the 'jit' backend needs numpy and a C compiler "
                "(pip install 'repro[jit]'); "
                "installed backends: " + ", ".join(available_backend_names())
            )

    def build(
        self,
        graph: DynamicGraph,
        algorithm_factory: AlgorithmFactory,
        config: SimulationConfig,
    ):
        self._require()
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


def declined_reason(spec) -> Optional[str]:
    """Why ``spec.backend`` will not run ``spec``; ``None`` when it will.

    The backend's optional ``declines(spec)`` answers from the spec alone;
    nothing is materialised or built.  A backend that is not installed (or
    not registered) declines nothing: building on it is an error, install
    hint included, never a reason to run the spec somewhere else.
    """
    declines = getattr(BACKENDS.get(spec.backend), "declines", None)
    reason = declines(spec) if declines is not None else None
    if reason is not None and not backend_available(spec.backend):
        return None
    return reason


register_backend(ReferenceBackend())
register_backend(FastBackend())
register_backend(VecBackend())
register_backend(JitBackend())
