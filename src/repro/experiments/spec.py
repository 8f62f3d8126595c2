"""Declarative, hashable scenario specifications.

A :class:`ScenarioSpec` is pure data: topology, dynamics, drift, delay and
algorithm are referred to *by registry name* (see
:mod:`repro.experiments.registry`) plus a plain keyword-argument mapping, and
the simulation knobs of :class:`repro.sim.runner.SimulationConfig` are stored
as scalars.  Because a spec contains no live objects it can be

* serialised to JSON and back without loss (``to_dict`` / ``from_dict``),
* hashed to a stable content hash that is identical across processes and
  Python invocations (``content_hash``, the scenario identity), and to a
  result hash of the whole spec (``result_hash``), which keys the on-disk
  result cache,
* pickled cheaply to ``multiprocessing`` workers, which rebuild the heavy
  objects locally from the registries.

Randomness is only ever introduced through seeds.  Components that accept a
``seed`` argument but are not given one explicitly are seeded from the spec's
own content hash at materialisation time, so the same spec always produces
the same run, whether executed serially, in a worker pool, or on another
machine.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

#: Allowed values of :attr:`ScenarioSpec.trace`.
TRACE_MODES = ("full", "none")

#: How a run is *observed* rather than what it simulates: the engine that
#: runs it, the trace stride, whether a trace is kept, which observers run
#: and whether it stops at stability.  :meth:`ScenarioSpec.content_hash`
#: leaves them out -- every backend, stride, trace mode, observer selection
#: and early-exit mode simulates the identical scenario with the identical
#: seeds, so their results stay comparable -- and
#: :meth:`ScenarioSpec.result_hash` takes them in, because each one changes
#: the stored result.  :func:`repro.experiments.registry.scenario` accepts
#: each as a pseudo-override of every named scenario.
OBSERVATION_FIELDS = ("backend", "trace_stride", "trace", "observers", "until_stable")

#: A backend name is one token of a cache file name.
_BACKEND_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")

#: Bumped whenever the canonical serialisation changes shape, so stale cache
#: entries from older layouts can never be mistaken for current results.
SPEC_FORMAT_VERSION = 1


class SpecError(ValueError):
    """Raised on malformed scenario specifications."""


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, default float repr."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ComponentSpec:
    """A registry entry by name plus its keyword arguments."""

    name: str
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise SpecError("a component needs a non-empty name")
        for key in self.args:
            if not isinstance(key, str):
                raise SpecError(f"component argument names must be strings, got {key!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ComponentSpec":
        return cls(name=payload["name"], args=dict(payload.get("args", {})))

    def with_args(self, **updates: Any) -> "ComponentSpec":
        merged = dict(self.args)
        merged.update(updates)
        return ComponentSpec(self.name, merged)

    def __hash__(self):
        return hash(canonical_json(self.to_dict()))


def _component(value: Any) -> Optional[ComponentSpec]:
    """Coerce ``None`` / name / (name, args) / mapping into a ComponentSpec."""
    if value is None or isinstance(value, ComponentSpec):
        return value
    if isinstance(value, str):
        return ComponentSpec(value)
    if isinstance(value, Mapping):
        return ComponentSpec.from_dict(value)
    if isinstance(value, tuple) and len(value) == 2:
        return ComponentSpec(value[0], dict(value[1]))
    raise SpecError(f"cannot interpret {value!r} as a component spec")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one simulation run, as pure data.

    ``params`` holds :class:`repro.core.parameters.Parameters` keyword
    arguments, ``edge`` holds :class:`repro.network.edge.EdgeParams` keyword
    arguments and ``sim`` holds :class:`repro.sim.runner.SimulationConfig`
    keyword arguments (``drift``, ``delay`` and ``initial_logical`` are
    expressed through the dedicated fields instead).
    """

    topology: ComponentSpec
    label: str = ""
    dynamics: Optional[ComponentSpec] = None
    drift: Optional[ComponentSpec] = None
    delay: Optional[ComponentSpec] = None
    algorithm: ComponentSpec = field(default_factory=lambda: ComponentSpec("aopt"))
    # Observation fields (see :data:`OBSERVATION_FIELDS`).
    #: Which engine executes the run: a registered backend name
    #: (``"reference"``, ``"fast"``, ``"vec"`` or ``"jit"``; see
    #: :mod:`repro.fastsim.backend`).
    backend: str = "reference"
    #: Record every k-th sample: the effective sample interval is
    #: ``sample_interval * trace_stride``.
    trace_stride: int = 1
    #: Whether the run keeps a full trace (``"full"``, the default) or only
    #: the streaming observer report (``"none"``: constant memory in the
    #: duration, the trace is dropped).
    trace: str = "full"
    #: Streaming observers to run (names from :data:`repro.metrics.OBSERVERS`).
    #: Empty means the standard set backing :class:`RunSummary`
    #: (:data:`repro.metrics.DEFAULT_OBSERVERS`).
    observers: Tuple[str, ...] = ()
    #: Stop the run as soon as the convergence/stabilization watchdog trips
    #: (``repro-experiments run --until-stable``); the samples fed are a
    #: bit-identical prefix of the full run's.
    until_stable: bool = False
    params: Dict[str, Any] = field(default_factory=dict)
    edge: Dict[str, Any] = field(default_factory=dict)
    sim: Dict[str, Any] = field(default_factory=dict)
    #: Adversarially pre-built skew: node ``i`` (in node order) starts with
    #: logical clock ``i * initial_ramp_per_edge``.
    initial_ramp_per_edge: Optional[float] = None
    #: Explicit initial logical clock values (overrides the ramp).
    initial_logical: Optional[Dict[int, float]] = None
    #: Free-form reference values computed by the scenario builder (e.g. the
    #: analytic insertion span); copied into the run metadata verbatim.
    notes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "topology", _component(self.topology))
        object.__setattr__(self, "dynamics", _component(self.dynamics))
        object.__setattr__(self, "drift", _component(self.drift))
        object.__setattr__(self, "delay", _component(self.delay))
        object.__setattr__(self, "algorithm", _component(self.algorithm))
        if self.topology is None:
            raise SpecError("a scenario spec needs a topology")
        if not isinstance(self.backend, str) or not _BACKEND_NAME_RE.fullmatch(
            self.backend
        ):
            raise SpecError(
                f"backend must be a name of letters, digits, '_' and '-', "
                f"got {self.backend!r}"
            )
        if not isinstance(self.trace_stride, int) or isinstance(self.trace_stride, bool):
            raise SpecError(f"trace_stride must be an int, got {self.trace_stride!r}")
        if self.trace_stride < 1:
            raise SpecError(f"trace_stride must be >= 1, got {self.trace_stride}")
        if self.trace not in TRACE_MODES:
            raise SpecError(
                f"trace must be one of {TRACE_MODES}, got {self.trace!r}"
            )
        observers = self.observers
        if isinstance(observers, str):
            observers = tuple(
                name.strip() for name in observers.split(",") if name.strip()
            )
        object.__setattr__(self, "observers", tuple(observers))
        for name in self.observers:
            if not isinstance(name, str) or not name:
                raise SpecError(
                    f"observer names must be non-empty strings, got {name!r}"
                )
        if not isinstance(self.until_stable, bool):
            raise SpecError(
                f"until_stable must be a bool, got {self.until_stable!r}"
            )
        for forbidden in ("drift", "delay", "initial_logical", "params"):
            if forbidden in self.sim:
                raise SpecError(
                    f"sim knob {forbidden!r} must be expressed through the "
                    "dedicated spec field, not the sim mapping"
                )

    # ------------------------------------------------------------------
    # Serialisation and hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "topology": self.topology.to_dict(),
            "dynamics": self.dynamics.to_dict() if self.dynamics else None,
            "drift": self.drift.to_dict() if self.drift else None,
            "delay": self.delay.to_dict() if self.delay else None,
            "algorithm": self.algorithm.to_dict(),
            "backend": self.backend,
            "trace_stride": self.trace_stride,
            "trace": self.trace,
            "observers": list(self.observers),
            "until_stable": self.until_stable,
            "params": dict(self.params),
            "edge": dict(self.edge),
            "sim": dict(self.sim),
            "initial_ramp_per_edge": self.initial_ramp_per_edge,
            "initial_logical": (
                {str(node): value for node, value in self.initial_logical.items()}
                if self.initial_logical is not None
                else None
            ),
            "notes": dict(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        initial_logical = payload.get("initial_logical")
        if initial_logical is not None:
            initial_logical = {int(node): value for node, value in initial_logical.items()}
        return cls(
            label=payload.get("label", ""),
            topology=_component(payload["topology"]),
            dynamics=_component(payload.get("dynamics")),
            drift=_component(payload.get("drift")),
            delay=_component(payload.get("delay")),
            algorithm=_component(payload.get("algorithm", "aopt")),
            backend=payload.get("backend", "reference"),
            trace_stride=payload.get("trace_stride", 1),
            trace=payload.get("trace", "full"),
            observers=tuple(payload.get("observers", ())),
            until_stable=payload.get("until_stable", False),
            params=dict(payload.get("params", {})),
            edge=dict(payload.get("edge", {})),
            sim=dict(payload.get("sim", {})),
            initial_ramp_per_edge=payload.get("initial_ramp_per_edge"),
            initial_logical=initial_logical,
            notes=dict(payload.get("notes", {})),
        )

    def canonical(self) -> str:
        """Canonical JSON string of the spec without its
        :data:`OBSERVATION_FIELDS` (the :meth:`content_hash` pre-image)."""
        payload = self.to_dict()
        for name in OBSERVATION_FIELDS:
            del payload[name]
        return canonical_json({"version": SPEC_FORMAT_VERSION, "spec": payload})

    def content_hash(self) -> str:
        """SHA-256 of the canonical form; stable across processes and runs.

        The scenario identity: it seeds all randomness and is shared by
        every observation of the same scenario.
        """
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def result_hash(self) -> str:
        """SHA-256 of the whole spec, observation fields included: the
        identity of a stored result (see
        :meth:`repro.experiments.executor.ResultCache.key_for`)."""
        whole = canonical_json({"version": SPEC_FORMAT_VERSION, "spec": self.to_dict()})
        return hashlib.sha256(whole.encode("utf-8")).hexdigest()

    def short_hash(self) -> str:
        return self.content_hash()[:12]

    def base_seed(self) -> int:
        """Deterministic seed derived from the content hash."""
        return int(self.content_hash()[:16], 16)

    def __hash__(self):
        return hash(self.content_hash())

    # ------------------------------------------------------------------
    # Convenience updates
    # ------------------------------------------------------------------
    def with_sim(self, **updates: Any) -> "ScenarioSpec":
        merged = dict(self.sim)
        merged.update(updates)
        return replace(self, sim=merged)

    def with_label(self, label: str) -> "ScenarioSpec":
        return replace(self, label=label)

    def with_backend(self, backend: str) -> "ScenarioSpec":
        """Same scenario (same content hash, same seeds), different engine."""
        return replace(self, backend=backend)

    def with_trace_stride(self, trace_stride: int) -> "ScenarioSpec":
        """Same scenario, recording only every k-th sample."""
        return replace(self, trace_stride=trace_stride)

    def with_trace(self, trace: str) -> "ScenarioSpec":
        """Same scenario, with (``"full"``) or without (``"none"``) a trace."""
        return replace(self, trace=trace)

    def with_observers(self, *names: str) -> "ScenarioSpec":
        """Same scenario (same content hash, same seeds), different
        streaming observer selection."""
        return replace(self, observers=tuple(names))

    def with_until_stable(self, until_stable: bool = True) -> "ScenarioSpec":
        """Same scenario, stopping when the stability watchdog trips."""
        return replace(self, until_stable=until_stable)
