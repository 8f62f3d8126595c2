"""Counted set-up work from spec to payload (no timing).

A static run's set-up -- topology, scenario, CSR build, summary -- touches
each edge through plain tuples and each node's level dict in place: it builds
no ``EdgeKey`` and materialises no level set, and the CSR build reads a row's
parameters from the graph's own rows instead of asking ``edge_params`` per
slot.  The counts below are what that costs, on every columnar backend.
"""

import builtins
import sys
from array import array
from collections import OrderedDict

import pytest

from repro.core.neighbor_sets import NeighborLevels
from repro.experiments import execute_spec, run_sweep
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.fastsim import engine as fast_engine
from repro.fastsim.backend import backend_available
from repro.fastsim.columns import CSRAdjacency
from repro.network import paths, topology
from repro.network.dynamic_graph import DynamicGraph
from repro.network.edge import EdgeKey
from test_fastsim_equivalence import staged_insertion_spec

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


# The all-pairs hop structure: once per adjacency, whatever the weight or backend.


def observed_spec(kind, backend):
    """One static ``observed_mid`` point, small: full trace, default observers."""
    return bench_spec(kind, 100, duration=2.0, backend=backend)


def retained_bytes(hops):
    return sys.getsizeof(hops) + sum(
        sys.getsizeof(entry) + sum(sys.getsizeof(part) for part in entry)
        for entry in hops
    )


@pytest.fixture
def path_counts(monkeypatch):
    """Counts of all-source passes; the kept hop structures start out empty."""
    counts = {"bfs": 0, "dijkstra": 0}
    monkeypatch.setattr(paths, "_hops_kept", OrderedDict())
    counting(monkeypatch, paths, "_bfs_hops", counts, "bfs")
    counting(monkeypatch, paths, "_dijkstra", counts, "dijkstra")
    return counts


def test_three_backends_of_one_scenario_share_one_hop_structure(path_counts):
    names = [name for name in ("fast", "vec", "jit") if backend_available(name)]
    runs, _ = run_sweep([observed_spec("grid", name) for name in names], use_cache=False)
    # The pair table was built and read: the gradient check applied.
    assert all(run.summary.gradient_violations is not None for run in runs)
    assert path_counts == {"bfs": 1, "dijkstra": 0}
    # A second, different adjacency is one more pass.
    run_sweep([observed_spec("line", name) for name in names], use_cache=False)
    assert path_counts == {"bfs": 2, "dijkstra": 0}


def test_kept_hop_structure_holds_no_object_per_pair(path_counts):
    graph = topology.grid(10, 10)
    n, depth = graph.node_count, topology.hop_diameter(graph)  # reads the structure
    (hops,) = paths._hops_kept.values()
    assert all(
        isinstance(part, array) and part.typecode == "i"
        for entry in hops
        for part in entry
    )
    assert sum(len(order) for order, _ in hops) == n * n
    # Per source: one list slot, one 2-tuple, two array headers, the level ends.
    per_source = 8 + sys.getsizeof((0, 0)) + 2 * sys.getsizeof(array("i"))
    assert retained_bytes(hops) <= (
        4 * n * n + n * (per_source + 4 * (depth + 1)) + sys.getsizeof([])
    )


def test_evicting_a_hop_structure_never_changes_a_result(path_counts):
    graph = topology.grid(6, 7)
    first = paths.ordered_pair_distances(graph), paths.weighted_diameter(graph)
    assert path_counts["bfs"] == 1
    for n in range(3, 3 + paths._KEPT_HOPS):
        paths.weighted_diameter(topology.line(n))
    assert len(paths._hops_kept) == paths._KEPT_HOPS
    assert path_counts["bfs"] == 1 + paths._KEPT_HOPS
    again = paths.ordered_pair_distances(graph), paths.weighted_diameter(graph)
    assert again == first
    assert path_counts == {"bfs": 2 + paths._KEPT_HOPS, "dijkstra": 0}


# The scalar control loop: a row is digested once per CSR build and decided on
# two extreme leads; a message's delay bound comes from the CSR.


@pytest.fixture
def row_counts(monkeypatch):
    """Counts of what ``fast`` does per row and per node-step while it runs."""
    counts = dict(rebuilds=0, built=0, refreshed=0, promotions=0, flat=0, edge_params=0)
    running, building = [], []

    def bracket(owner, name, stack):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            stack.append(True)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(owner, name, wrapper)

    bracket(fast_engine.FastEngine, "run_until", running)
    bracket(CSRAdjacency, "row_shapes", building)
    counting(monkeypatch, CSRAdjacency, "rebuild", counts, "rebuilds")
    counting(monkeypatch, CSRAdjacency, "_row_shape", counts, "built", lambda: bool(building))
    counting(
        monkeypatch, CSRAdjacency, "_row_shape", counts, "refreshed", lambda: not building
    )
    counting(monkeypatch, CSRAdjacency, "set_level", counts, "promotions")
    counting(monkeypatch, fast_engine, "evaluate_mode_flat", counts, "flat")
    counting(
        monkeypatch, DynamicGraph, "edge_params", counts, "edge_params", lambda: bool(running)
    )
    return counts


def test_static_fast_run_scans_no_levels_and_asks_the_graph_for_no_edge(row_counts):
    (run,), _ = run_sweep([observed_spec("grid", "fast")], use_cache=False)
    assert run.summary.node_count == 100
    assert row_counts == dict(
        rebuilds=1, built=100, refreshed=0, promotions=0, flat=0, edge_params=0
    )


@pytest.mark.skipif(not backend_available("vec"), reason="numpy is not installed")
def test_vec_never_digests_a_row(row_counts):
    run_sweep([observed_spec("grid", "vec")], use_cache=False)
    assert row_counts["rebuilds"] == 1
    assert row_counts["built"] == row_counts["refreshed"] == 0


def test_rows_are_digested_once_per_rebuild_and_one_per_promotion(row_counts):
    spec = staged_insertion_spec().with_backend("fast")
    run_sweep([spec], use_cache=False)
    # Built at construction, rebuilt when the edge appears; each endpoint then
    # climbs the levels one promotion (one row) at a time.
    assert row_counts["rebuilds"] == 2
    assert row_counts["built"] == 2 * 5
    assert row_counts["promotions"] > 2
    assert row_counts["refreshed"] == row_counts["promotions"]
    # Only the two endpoints' rows ever mix levels, and only while they climb.
    assert 0 < row_counts["flat"] < 2 * 450
