"""Struct-of-arrays fast simulation backend.

``repro.fastsim`` re-implements the fixed-step simulation loop of
:mod:`repro.sim.engine` as tight loops over flat state columns, specialized
for the AOPT algorithm family with oracle clock estimates.  On the scenarios
it supports it is bit-identical to the reference engine (same traces, same
summaries) while running much faster -- ``benchmarks/perf`` measures it
(``fastsim.node_steps_per_s``) and ``tests/test_setup_work.py`` counts why.

Modules:

* :mod:`repro.fastsim.columns` -- per-node state columns and the CSR
  adjacency with precomputed per-edge trigger thresholds and, for the scalar
  loop, each row's digest (which rows ``evaluate_mode_uniform`` decides on
  two extreme leads, which keep ``evaluate_mode_flat``'s level scan);
* :mod:`repro.fastsim.engine` -- :class:`~repro.fastsim.engine.FastEngine`;
* :mod:`repro.fastsim.backend` -- the pluggable
  :class:`~repro.fastsim.backend.EngineBackend` registry and its gate
  :func:`~repro.fastsim.backend.resolve_backend` used by :mod:`repro.experiments`.
"""

from .backend import (
    BACKENDS,
    BackendError,
    BackendUnavailableError,
    EngineBackend,
    FastBackend,
    ReferenceBackend,
    VecBackend,
    available_backend_names,
    backend_available,
    backend_names,
    declined_reason,
    get_backend,
    register_backend,
    resolve_backend,
)
from .engine import FastEngine, FastsimError, UnsupportedScenarioError

__all__ = [
    "BACKENDS",
    "BackendError",
    "BackendUnavailableError",
    "EngineBackend",
    "FastBackend",
    "FastEngine",
    "FastsimError",
    "ReferenceBackend",
    "UnsupportedScenarioError",
    "VecBackend",
    "available_backend_names",
    "backend_available",
    "backend_names",
    "declined_reason",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
