"""Tests for repro.network.dynamic_graph."""

import pytest

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
