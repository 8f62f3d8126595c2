"""Counted set-up work from spec to payload (no timing).

A static run's set-up -- topology, scenario, CSR build, summary -- touches
each edge through plain tuples and each node's level dict in place: it builds
no ``EdgeKey`` and materialises no level set, and the CSR build reads a row's
parameters from the graph's own rows instead of asking ``edge_params`` per
slot.  The counts below are what that costs, on every columnar backend.
"""

import builtins

import pytest

from repro.core.neighbor_sets import NeighborLevels
from repro.experiments import execute_spec
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.fastsim.backend import backend_available
from repro.fastsim.columns import CSRAdjacency
from repro.network.dynamic_graph import DynamicGraph
from repro.network.edge import EdgeKey

NODES = 1024

backends = pytest.mark.parametrize(
    "backend",
    [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                not backend_available(name), reason=f"backend {name!r} is not installed"
            ),
        )
        for name in ("fast", "vec", "jit")
    ],
)


def static_spec(backend):
    """One ``scale_static`` point, small: no trace, the scalar observers."""
    spec = bench_spec("grid", NODES, duration=2.0, backend=backend)
    return spec.with_trace("none").with_observers(*BENCH_OBSERVERS)


def counting(monkeypatch, owner, name, counts, key, active=lambda: True):
    """Replace ``owner.name`` by a pass-through that counts calls into ``counts[key]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        if active():
            counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@backends
def test_set_up_builds_no_edge_key_and_no_level_set(monkeypatch, backend):
    counts = {"edge_keys": 0, "members": 0}
    # Every construction of the frozen dataclass runs its __post_init__.
    counting(monkeypatch, EdgeKey, "__post_init__", counts, "edge_keys")
    counting(monkeypatch, NeighborLevels, "members", counts, "members")
    payload = execute_spec(static_spec(backend))
    assert payload["summary"]["node_count"] == NODES
    assert payload["summary"]["broken_level_chains"] == 0
    assert counts == {"edge_keys": 0, "members": 0}


@backends
def test_csr_build_sorts_each_row_once_and_never_asks_edge_params(monkeypatch, backend):
    inside = []
    rows = []  # one entry per rebuild: the row count it had to produce
    counts = {"sorted": 0, "edge_params": 0}
    rebuild = CSRAdjacency.rebuild

    def observed_rebuild(self, graph, index, levels):
        rows.append(graph.node_count)
        inside.append(True)
        try:
            rebuild(self, graph, index, levels)
        finally:
            inside.pop()

    monkeypatch.setattr(CSRAdjacency, "rebuild", observed_rebuild)
    counting(monkeypatch, builtins, "sorted", counts, "sorted", lambda: bool(inside))
    counting(
        monkeypatch, DynamicGraph, "edge_params", counts, "edge_params", lambda: bool(inside)
    )
    execute_spec(static_spec(backend))
    assert rows
    assert counts == {"sorted": sum(rows), "edge_params": 0}
