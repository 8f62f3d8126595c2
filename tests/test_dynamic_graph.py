"""Tests for repro.network.dynamic_graph."""

import random

import pytest

from repro.experiments import registry
from repro.network.dynamic_graph import DynamicGraph, EdgeEvent, GraphError
from repro.network.edge import EdgeKey, EdgeParams


@pytest.fixture
def triangle():
    graph = DynamicGraph(range(3))
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(0, 2)
    return graph


class TestConstruction:
    def test_nodes_sorted_and_deduplicated(self):
        graph = DynamicGraph([3, 1, 2, 1])
        assert graph.nodes == [1, 2, 3]
        assert graph.node_count == 3

    def test_empty_node_set_rejected(self):
        with pytest.raises(GraphError):
            DynamicGraph([])

    def test_has_node(self):
        graph = DynamicGraph([0, 1])
        assert graph.has_node(0)
        assert not graph.has_node(5)


class TestEdges:
    def test_add_edge_creates_both_directions(self, triangle):
        assert triangle.has_directed_edge(0, 1)
        assert triangle.has_directed_edge(1, 0)
        assert triangle.has_edge(0, 1)

    def test_directed_edge_only_one_way(self):
        graph = DynamicGraph(range(2))
        graph.add_directed_edge(0, 1)
        assert graph.has_directed_edge(0, 1)
        assert not graph.has_directed_edge(1, 0)
        assert not graph.has_edge(0, 1)

    def test_neighbors_and_symmetric_neighbors(self):
        graph = DynamicGraph(range(3))
        graph.add_directed_edge(0, 1)
        graph.add_edge(0, 2)
        assert graph.neighbors(0) == {1, 2}
        assert graph.symmetric_neighbors(0) == {2}

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 2)

    def test_self_loop_rejected(self):
        graph = DynamicGraph(range(2))
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_unknown_node_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_edge(0, 9)
        with pytest.raises(GraphError):
            triangle.neighbors(9)

    def test_edges_iterates_undirected_once(self, triangle):
        assert triangle.edge_count() == 3
        edges = {tuple(e) for e in triangle.edges()}
        assert edges == {(0, 1), (1, 2), (0, 2)}

    def test_directed_edges_listing(self):
        graph = DynamicGraph(range(2))
        graph.add_directed_edge(0, 1)
        assert list(graph.directed_edges()) == [(0, 1)]


class TestEdgeParams:
    def test_default_params_returned(self, triangle):
        assert triangle.edge_params(0, 1).epsilon == 1.0

    def test_set_and_get_params(self, triangle):
        custom = EdgeParams(epsilon=3.0, tau=1.0, delay=4.0)
        triangle.set_edge_params(0, 1, custom)
        assert triangle.edge_params(1, 0) == custom

    def test_params_attached_on_add(self):
        graph = DynamicGraph(range(2))
        custom = EdgeParams(epsilon=2.0)
        graph.add_edge(0, 1, custom)
        assert graph.edge_params(0, 1) == custom
        assert len(graph.known_edge_params()) == 1

    def test_self_loop_params_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.edge_params(1, 1)
        with pytest.raises(ValueError):
            triangle.set_edge_params(1, 1, EdgeParams())

    def test_every_setter_lands_under_one_key_per_edge(self):
        graph = DynamicGraph(range(4))
        first, second, third = (EdgeParams(epsilon=e) for e in (2.0, 3.0, 4.0))
        graph.set_edge_params(2, 1, first)
        graph.add_directed_edge(3, 0, params=second)
        graph.schedule_edge_up(1.0, 3, 2, params=third)
        # Overwrites from the other endpoint's side replace, never duplicate.
        graph.set_edge_params(1, 2, third)
        graph.add_directed_edge(0, 3, params=first)
        known = graph.known_edge_params()
        assert list(known.items()) == [
            (EdgeKey(1, 2), third),
            (EdgeKey(0, 3), first),
            (EdgeKey(2, 3), third),
        ]
        assert all(isinstance(key, EdgeKey) for key in known)
        for u, v in ((1, 2), (0, 3), (2, 3)):
            assert graph.edge_params(u, v) is graph.edge_params(v, u) is known[EdgeKey.of(v, u)]

    def test_copy_has_its_own_params(self, triangle):
        custom = EdgeParams(epsilon=3.0)
        triangle.set_edge_params(0, 1, custom)
        clone = triangle.copy()
        clone.set_edge_params(1, 0, EdgeParams(epsilon=5.0))
        clone.set_edge_params(1, 2, custom)
        assert triangle.edge_params(0, 1) is custom
        assert list(triangle.known_edge_params()) == [EdgeKey(0, 1)]
        assert list(clone.known_edge_params()) == [EdgeKey(0, 1), EdgeKey(1, 2)]


class TestSchedule:
    def test_schedule_and_pop_events(self):
        graph = DynamicGraph(range(3))
        graph.schedule_edge_up(5.0, 0, 1)
        graph.schedule_edge_down(7.0, 0, 1)
        due = graph.pop_events_until(5.0)
        assert len(due) == 2  # both directions of the "up"
        assert all(e.kind == "up" for e in due)
        assert len(graph.pending_events()) == 2

    def test_pop_takes_the_due_prefix_and_keeps_the_tail(self):
        graph = DynamicGraph(range(4))
        for time, u, v in ((3.0, 2, 3), (1.0, 1, 2), (1.0, 0, 1), (2.0, 0, 2)):
            graph.schedule_directed_event(EdgeEvent(time, "up", u, v))
        graph.schedule_directed_event(EdgeEvent(1.0, "down", 0, 1))
        assert graph.pop_events_until(0.5) == []
        assert graph.next_event_time() == 1.0
        # Within 1e-12 of the asked time counts as due; equal times come out
        # in the schedule's (time, kind, source, target) order.
        assert graph.pop_events_until(1.0 - 5e-13) == [
            EdgeEvent(1.0, "down", 0, 1),
            EdgeEvent(1.0, "up", 0, 1),
            EdgeEvent(1.0, "up", 1, 2),
        ]
        assert graph.pending_events() == [
            EdgeEvent(2.0, "up", 0, 2),
            EdgeEvent(3.0, "up", 2, 3),
        ]
        # An event pushed behind the popped prefix is still found.
        graph.schedule_directed_event(EdgeEvent(0.25, "up", 3, 0))
        assert graph.next_event_time() == 0.25
        assert graph.pop_events_until(2.0) == [
            EdgeEvent(0.25, "up", 3, 0),
            EdgeEvent(2.0, "up", 0, 2),
        ]
        assert graph.pop_events_until(10.0) == [EdgeEvent(3.0, "up", 2, 3)]
        assert graph.pop_events_until(10.0) == []
        assert graph.next_event_time() is None

    def test_pop_node_resets_takes_the_due_prefix(self):
        graph = DynamicGraph(range(3))
        graph.schedule_node_reset(4.0, 2)
        graph.schedule_node_reset(1.0, 1, value=7.0)
        graph.schedule_node_reset(1.0, 0)
        assert graph.pop_node_resets_until(0.9) == []
        due = graph.pop_node_resets_until(1.0)
        assert [(e.time, e.node, e.value) for e in due] == [(1.0, 0, 0.0), (1.0, 1, 7.0)]
        assert [e.node for e in graph.pending_node_resets()] == [2]
        assert [e.node for e in graph.pop_node_resets_until(4.0)] == [2]
        assert graph.pending_node_resets() == []

    def test_events_sorted_by_time(self):
        graph = DynamicGraph(range(3))
        graph.schedule_edge_up(9.0, 1, 2)
        graph.schedule_edge_up(2.0, 0, 1)
        events = graph.pending_events()
        assert events[0].time <= events[-1].time

    def test_edge_up_skew_respects_tau(self):
        graph = DynamicGraph(range(2))
        graph.set_edge_params(0, 1, EdgeParams(tau=0.5))
        graph.schedule_edge_up(1.0, 0, 1, skew=0.5)
        with pytest.raises(GraphError):
            graph.schedule_edge_up(1.0, 0, 1, skew=0.9)

    def test_apply_event(self):
        graph = DynamicGraph(range(2))
        graph.apply_event(EdgeEvent(0.0, "up", 0, 1))
        assert graph.has_directed_edge(0, 1)
        graph.apply_event(EdgeEvent(1.0, "down", 0, 1))
        assert not graph.has_directed_edge(0, 1)

    def test_bad_event_kind_rejected(self):
        with pytest.raises(GraphError):
            EdgeEvent(0.0, "sideways", 0, 1)

    def test_negative_event_time_rejected(self):
        with pytest.raises(GraphError):
            EdgeEvent(-1.0, "up", 0, 1)


class TestStructure:
    def test_connectivity(self, triangle):
        assert triangle.is_connected()
        graph = DynamicGraph(range(3))
        graph.add_edge(0, 1)
        assert not graph.is_connected()

    def test_adjacency_copy(self, triangle):
        adjacency = triangle.adjacency()
        adjacency[0].clear()
        assert triangle.symmetric_neighbors(0) == {1, 2}

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_copy_preserves_schedule(self):
        graph = DynamicGraph(range(2))
        graph.schedule_edge_up(3.0, 0, 1)
        clone = graph.copy()
        assert len(clone.pending_events()) == 2
        clone.pop_events_until(10.0)
        assert len(graph.pending_events()) == 2


# ----------------------------------------------------------------------
# Row-level set-up operations against their per-edge definitions
# ----------------------------------------------------------------------
def oracle_edge_pairs(graph):
    """``edges()`` as it was first written: every directed edge keyed, a
    ``seen`` set, ``has_edge`` per candidate.  Kept as the order oracle."""
    seen = set()
    pairs = []
    for u in graph.nodes:
        for v in graph.neighbors_view(u):
            key = EdgeKey.of(u, v)
            if key in seen:
                continue
            if graph.has_edge(u, v):
                seen.add(key)
                pairs.append((key.a, key.b))
    return pairs


def built_edge_by_edge(node_count, pairs, params=None):
    graph = DynamicGraph(range(node_count))
    for u, v in pairs:
        graph.add_edge(u, v, params)
    return graph


def same_iteration(left, right):
    """Equal neighbor sets *in iteration order*, equal parameter keys in order."""
    assert left.nodes == right.nodes
    for node in left.nodes:
        assert list(left.neighbors_view(node)) == list(right.neighbors_view(node))
    assert list(left.known_edge_params().items()) == list(right.known_edge_params().items())


def random_pairs(rng, node_count, count):
    pairs = []
    while len(pairs) < count:
        u, v = rng.randrange(node_count), rng.randrange(node_count)
        if u != v:
            pairs.append((u, v))
    return pairs


#: Arguments for every registered topology; a new one has to be listed here.
TOPOLOGY_ARGS = {
    "line": {"n": 9},
    "ring": {"n": 9},
    "star": {"n": 9},
    "complete": {"n": 7},
    "grid": {"rows": 4, "cols": 5},
    "binary_tree": {"depth": 3},
    "random_tree": {"n": 24, "seed": 5},
    "random_connected": {"n": 24, "extra_edge_probability": 0.3, "seed": 5},
    "sliding_window_line": {"n": 9, "window": 3, "shift_period": 4.0, "horizon": 20.0},
}


class TestBulkEdges:
    @pytest.mark.parametrize("seed", range(6))
    def test_add_edges_is_the_same_sequence_of_add_edge_calls(self, seed):
        rng = random.Random(seed)
        # Many neighbors per node and repeated pairs: set order then depends
        # on the order of insertion, which is what has to match.
        pairs = random_pairs(rng, 40, 300)
        params = EdgeParams(0.5, 0.25, 1.0) if seed % 2 else None
        bulk = DynamicGraph(range(40))
        bulk.add_edges(iter(pairs), params)
        single = built_edge_by_edge(40, pairs, params)
        same_iteration(bulk, single)
        same_iteration(bulk.copy(), single.copy())
        assert bool(bulk.known_edge_params()) == (params is not None)

    @pytest.mark.parametrize("bad", [(3, 3), (2, 9), (9, 2), (9, 9), (-1, 0)])
    def test_add_edges_fails_like_add_edge_and_keeps_what_came_before(self, bad):
        pairs = [(0, 1), (1, 2), bad, (2, 3)]
        bulk = DynamicGraph(range(5))
        single = DynamicGraph(range(5))
        with pytest.raises(GraphError) as bulk_error:
            bulk.add_edges(pairs, EdgeParams())
        with pytest.raises(GraphError) as single_error:
            for u, v in pairs:
                single.add_edge(u, v, EdgeParams())
        assert str(bulk_error.value) == str(single_error.value)
        same_iteration(bulk, single)
        assert list(bulk.edge_pairs()) == [(0, 1), (1, 2)]

    def test_distinct_edge_params_lists_each_object_once(self):
        shared, own = EdgeParams(), EdgeParams(2.0, 1.0, 4.0)
        graph = DynamicGraph(range(4))
        assert graph.distinct_edge_params() == []
        graph.add_edges([(0, 1), (1, 2)], shared)
        graph.add_edge(2, 3, own)
        distinct = graph.distinct_edge_params()
        assert len(distinct) == 2 and distinct[0] is shared and distinct[1] is own


class TestEdgePairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_edge_pairs_walks_like_the_seen_set_walk(self, seed):
        rng = random.Random(100 + seed)
        graph = built_edge_by_edge(30, random_pairs(rng, 30, 120))
        # Half-up edges: one direction only is not an undirected edge.
        for u, v in random_pairs(rng, 30, 40):
            graph.add_directed_edge(u, v)
        assert list(graph.edge_pairs()) == oracle_edge_pairs(graph)
        for _ in range(150):
            u, v = random_pairs(rng, 30, 1)[0]
            graph.apply_event(EdgeEvent(0.0, rng.choice(["up", "down"]), u, v))
            assert list(graph.edge_pairs()) == oracle_edge_pairs(graph)
        assert [(key.a, key.b) for key in graph.edges()] == oracle_edge_pairs(graph)
        assert graph.edge_count() == len(oracle_edge_pairs(graph))

    def test_one_direction_alone_is_not_yielded(self):
        graph = DynamicGraph(range(3))
        graph.add_directed_edge(0, 1)
        graph.add_directed_edge(2, 1)
        assert list(graph.edge_pairs()) == []
        graph.add_directed_edge(1, 2)
        assert list(graph.edge_pairs()) == [(1, 2)]

    def test_every_registered_topology(self):
        assert sorted(TOPOLOGY_ARGS) == sorted(registry.TOPOLOGIES.names())
        for name, args in TOPOLOGY_ARGS.items():
            graph = registry.TOPOLOGIES.get(name)(EdgeParams(), **args)
            pairs = list(graph.edge_pairs())
            assert pairs == oracle_edge_pairs(graph), name
            assert len(pairs) == len(set(pairs)) > 0, name

    def test_adjacency_rows_are_sorted_rows_with_their_parameters(self):
        own = EdgeParams(2.0, 1.0, 4.0)
        graph = built_edge_by_edge(5, [(3, 1), (1, 0), (4, 1)], EdgeParams())
        graph.add_directed_edge(1, 2)  # never given parameters: the default
        graph.set_edge_params(1, 4, own)
        rows = {node: (nbrs, params) for node, nbrs, params in graph.adjacency_rows()}
        assert list(rows) == graph.nodes
        for node, (nbrs, params) in rows.items():
            assert nbrs == sorted(graph.neighbors(node))
            assert all(
                got is graph.edge_params(node, nbr) for nbr, got in zip(nbrs, params)
            )
        assert rows[1][0] == [0, 2, 3, 4] and rows[1][1][3] is own
