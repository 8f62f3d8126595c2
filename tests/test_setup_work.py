"""Counted set-up work from spec to payload (no timing).

A static run's set-up -- topology, scenario, CSR build, summary -- touches
each edge through plain tuples and each node's level dict in place: it builds
no ``EdgeKey`` and materialises no level set, and the CSR build reads a row's
parameters from the graph's own rows instead of asking ``edge_params`` per
slot.  The counts below are what that costs, on every columnar backend.
"""

import builtins
import sys
import threading
from array import array
from collections import OrderedDict
from dataclasses import replace

import pytest

from conftest import needs_jit, needs_vec, staged_insertion_spec
from repro.core.neighbor_sets import NeighborLevels
from repro.experiments import execute_spec, registry, run_sweep, scenario
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.experiments.registry import BENCHMARK_INSERTION_SCALE
from repro.fastsim import engine as fast_engine
from repro.fastsim.backend import backend_available
from repro.fastsim.columns import CSRAdjacency
from repro.network import paths, topology
from repro.network.dynamic_graph import DynamicGraph
from repro.network.edge import EdgeKey

#: Warnings are errors here: a file handle leaked on a read path, or any other
#: ResourceWarning, fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings("error")

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
    counts = {"bfs": 0, "dijkstra": 0, "pairs": 0}
    monkeypatch.setattr(paths, "_hops_kept", OrderedDict())
    counting(monkeypatch, paths, "_bfs_hops", counts, "bfs")
    counting(monkeypatch, paths, "_dijkstra", counts, "dijkstra")
    counting(monkeypatch, paths, "_level_pairs", counts, "pairs")
    return counts


def test_three_backends_of_one_scenario_share_one_hop_structure(path_counts):
    names = [name for name in ("fast", "vec", "jit") if backend_available(name)]
    runs, _ = run_sweep([observed_spec("grid", name) for name in names], use_cache=False)
    # The pair table was built and read: the gradient check applied.
    assert all(run.summary.gradient_violations is not None for run in runs)
    assert path_counts == {"bfs": 1, "dijkstra": 0, "pairs": 1}
    # A second, different adjacency is one more pass.
    run_sweep([observed_spec("line", name) for name in names], use_cache=False)
    assert path_counts == {"bfs": 2, "dijkstra": 0, "pairs": 2}


def test_observer_and_watchdog_of_one_pipeline_share_one_table(monkeypatch, path_counts):
    counting(monkeypatch, paths, "pair_table", path_counts, "tables")
    path_counts["tables"] = 0
    spec = observed_spec("grid", "fast").with_observers(
        "gradient_bound_check", "watchdog_gradient_bound", "skew_by_distance"
    )
    observers = execute_spec(spec)["observers"]["observers"]
    assert observers["gradient_bound_check"]["applicable"]
    assert observers["watchdog_gradient_bound"]["applicable"]
    assert observers["skew_by_distance"]["distances"]
    assert path_counts == {"bfs": 1, "dijkstra": 0, "pairs": 1, "tables": 1}


def test_kept_hop_structure_holds_no_object_per_pair(path_counts):
    graph = topology.grid(10, 10)
    n, depth = graph.node_count, topology.hop_diameter(graph)  # reads the structure
    ((hops, pairs),) = [(kept.hops, kept.level_pairs) for kept in paths._hops_kept.values()]
    assert pairs is None  # the pair table is built only when asked for
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


def test_kept_pair_table_holds_no_object_per_pair(path_counts):
    graph = topology.grid(10, 10)
    table = paths.pair_table(graph)
    n, depth = graph.node_count, topology.hop_diameter(graph)
    ((hops, kept),) = [(kept.hops, kept.level_pairs) for kept in paths._hops_kept.values()]
    assert all(a is b for a, b in zip(kept, (table.ends, table.first, table.second)))
    assert table.first.typecode == table.second.typecode == "i"
    pairs = n * (n - 1) // 2
    assert len(table.first) == len(table.second) == pairs
    assert len(table.distances) == len(table.ends) == depth
    # Two exactly sized 4-byte columns, the class ends, three array headers.
    assert sum(map(sys.getsizeof, kept)) <= (
        8 * pairs + 16 * depth + 3 * sys.getsizeof(array("q"))
    )
    # A second weight over the same adjacency reads the same columns.
    again = paths.pair_table(graph, paths.hop_weight(graph))
    assert again.first is table.first and again.second is table.second
    assert path_counts == {"bfs": 1, "dijkstra": 0, "pairs": 1}


def test_threads_meeting_one_adjacency_build_its_table_once(monkeypatch, path_counts):
    graph = topology.grid(12, 12)
    paths.weighted_diameter(graph)  # the hop structure is kept; its table is not
    build = paths._level_pairs
    # A build waits (briefly) for a second one: two unguarded builds meet
    # here, while a guarded second caller waits for the first build instead.
    both = threading.Barrier(2, timeout=0.5)

    def slow_build(hops):
        try:
            both.wait()
        except threading.BrokenBarrierError:
            pass
        return build(hops)

    monkeypatch.setattr(paths, "_level_pairs", slow_build)
    tables = []
    threads = [
        threading.Thread(target=lambda: tables.append(paths.pair_table(graph)))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(tables) == 2 and tables[0].first is tables[1].first
    assert path_counts == {"bfs": 1, "dijkstra": 0, "pairs": 1}


def test_evicting_a_hop_structure_never_changes_a_result(path_counts):
    graph = topology.grid(6, 7)
    first = paths.pair_table(graph), paths.weighted_diameter(graph)
    assert path_counts["bfs"] == 1
    for n in range(3, 3 + paths._KEPT_HOPS):
        paths.weighted_diameter(topology.line(n))
    assert len(paths._hops_kept) == paths._KEPT_HOPS
    assert path_counts["bfs"] == 1 + paths._KEPT_HOPS
    again = paths.pair_table(graph), paths.weighted_diameter(graph)
    assert again == first
    assert path_counts == {"bfs": 2 + paths._KEPT_HOPS, "dijkstra": 0, "pairs": 2}


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


@needs_vec
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


# The step kernels: a static run never leaves its fast path.  Counted, not
# timed -- each count names the mechanism a backend's speed comes from, and
# an insertion in flight shows that the count can move.

KINDS = ("grid", "line", "random")
STEPS = 200


def kernel_spec(kind, backend):
    """One ``scale_static`` point, small: 200 steps, no trace, the scalar observers."""
    spec = bench_spec(kind, 64, duration=STEPS * 0.1, backend=backend)
    return spec.with_trace("none").with_observers(*BENCH_OBSERVERS)


@pytest.fixture
def jit_steps(monkeypatch):
    """``(fused, stepped)`` steps, summed over every jit engine that ran."""
    from repro.jitsim.engine import JitEngine

    engines = []
    run_until = JitEngine.run_until

    def recorded(self, end_time):
        if all(engine is not self for engine in engines):
            engines.append(self)
        return run_until(self, end_time)

    monkeypatch.setattr(JitEngine, "run_until", recorded)
    return lambda: (
        sum(engine.fused_steps for engine in engines),
        sum(engine.stepped_steps for engine in engines),
    )


@pytest.fixture
def level_scans(monkeypatch):
    """Calls of ``vec``'s per-edge level scan (the path a mixed row takes)."""
    from repro.vecsim import kernels

    counts = {"firing_levels": 0}
    counting(monkeypatch, kernels, "_firing_levels", counts, "firing_levels")
    return counts


@needs_jit
@pytest.mark.parametrize("kind", KINDS)
def test_static_jit_run_fuses_every_step(jit_steps, kind):
    execute_spec(kernel_spec(kind, "jit"))
    assert jit_steps() == (STEPS, 0)


@needs_jit
def test_an_insertion_in_flight_is_stepped_not_fused(jit_steps):
    execute_spec(staged_insertion_spec().with_backend("jit"))
    fused, stepped = jit_steps()
    assert stepped > 0 and fused > 0


@needs_jit
def test_a_pending_promotion_caps_a_fused_segment_instead_of_blocking_it(jit_steps):
    # The handshake (O(T + tau)) and the steps at each promotion are stepped;
    # the Theta(G~/mu) climb between promotions is fused.
    execute_spec(scenario("end_to_end_insertion", n=10, backend="jit"))
    fused, stepped = jit_steps()
    assert fused + stepped == 10219
    assert stepped <= 100


def verbatim_insertion_spec(n):
    """``end_to_end_insertion`` with equation (10) unscaled.

    The scenario scales the insertion duration by ``BENCHMARK_INSERTION_SCALE``
    and runs for ``insertion_time + 2.4 * span + 120``; this spec keeps the
    duration unscaled and applies the same rule to it.
    """
    spec = scenario("end_to_end_insertion", n=n, backend="jit")
    span = spec.notes["insertion_span"] / BENCHMARK_INSERTION_SCALE
    return replace(
        spec, algorithm=spec.algorithm.with_args(insertion_scale=1.0)
    ).with_sim(
        duration=spec.sim["duration"] + 2.4 * (span - spec.notes["insertion_span"])
    ).with_trace("none")


@needs_jit
def test_a_verbatim_insertion_completes_in_fused_segments():
    """Equation (10) unscaled: ~250k steps, all but the promotions' fused."""
    from repro.core.neighbor_sets import FULLY_INSERTED
    from repro.jitsim import JitEngine

    spec = verbatim_insertion_spec(6)
    materialised = registry.build_scenario(spec)
    engine = JitEngine(
        materialised.graph, materialised.algorithm_factory, materialised.config
    )
    engine.run(materialised.config.duration)
    assert engine.algorithm(0).levels.level_of(5) == FULLY_INSERTED
    assert engine.algorithm(5).levels.level_of(0) == FULLY_INSERTED
    assert engine.fused_steps + engine.stepped_steps > 200_000
    assert engine.stepped_steps <= 100


@needs_jit
def test_a_run_blocked_from_fusion_counts_every_step_as_stepped(jit_steps):
    # Broadcast estimate mode keeps per-pair message state: never fused.
    spec = scenario("line_broadcast", n=6, sim={"duration": 30.0}, backend="jit")
    execute_spec(spec.with_trace("none").with_observers(*BENCH_OBSERVERS))
    assert jit_steps() == (0, 300)


@needs_vec
@pytest.mark.parametrize("kind", KINDS)
def test_static_vec_run_decides_every_row_on_its_extremes(level_scans, kind):
    execute_spec(kernel_spec(kind, "vec"))
    assert level_scans == {"firing_levels": 0}


@needs_vec
def test_an_insertion_makes_vec_scan_levels(level_scans):
    execute_spec(staged_insertion_spec().with_backend("vec"))
    assert level_scans["firing_levels"] > 0
