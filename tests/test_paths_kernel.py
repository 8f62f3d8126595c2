"""Differential tests: the shortest-path kernels vs the dict Dijkstra.

``oracle_shortest_distances`` is the per-source dict Dijkstra that
:mod:`repro.network.paths` ran before the indexed kernel replaced it, kept
verbatim.  Non-negative Dijkstra computes the least fixed point of
``dist[v] = min_u fl(dist[u] + w(u, v))``, so the kernel must return equal
floats -- and, because it keeps the neighbour and tie-break order, equal dict
key order too.  The pair table the gradient observers read is held to the
same oracle, pair for pair.  A graph whose
edges all carry one weight takes the level kernel (a sorted-frontier BFS per
source, distances read as ``prefix[level]``) and is held to the same oracle,
item for item.
"""

import heapq
import math
import random

import pytest

from repro.analysis import gradient
from repro.core.parameters import Parameters
from repro.network import paths, topology
from repro.network.dynamic_graph import DynamicGraph, GraphError
from repro.network.edge import EdgeParams
from repro.sim.trace import Trace, TraceSample

#: Warnings are errors here: a file handle leaked on a read path, or any other
#: ResourceWarning, fails the test that leaked it.
pytestmark = pytest.mark.filterwarnings("error")


def oracle_shortest_distances(graph, source, weight=None):
    if weight is None:
        weight = paths.epsilon_weight(graph)
    if not graph.has_node(source):
        raise GraphError(f"unknown node {source}")
    dist = {source: 0.0}
    visited = {}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if visited.get(node):
            continue
        visited[node] = True
        for other in graph.symmetric_neighbors(node):
            w = weight(node, other)
            if w < 0.0:
                raise GraphError(f"negative edge weight on ({node}, {other})")
            nd = d + w
            if nd < dist.get(other, float("inf")):
                dist[other] = nd
                heapq.heappush(heap, (nd, other))
    return dist


def oracle_all_pairs(graph, weight=None):
    result = {}
    for source in graph.nodes:
        for target, d in oracle_shortest_distances(graph, source, weight).items():
            result[(source, target)] = d
    return result


def oracle_diameter(graph, weight=None):
    best = 0.0
    for source in graph.nodes:
        distances = oracle_shortest_distances(graph, source, weight)
        if len(distances) != graph.node_count:
            raise GraphError("weighted_diameter requires a connected graph")
        best = max(best, max(distances.values()))
    return best


def oracle_random_connected(n, extra_edge_probability, params, seed):
    """The generator as it was before the tree-edge membership test."""
    rng = random.Random(seed)
    graph = topology.random_tree(n, params, seed=rng.randrange(2 ** 30))
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.has_edge(i, j) and rng.random() < extra_edge_probability:
                graph.add_edge(i, j, params)
    return graph


def heterogeneous(graph, seed):
    """Give every edge its own ``EdgeParams`` (distinct epsilon and tau)."""
    rng = random.Random(seed)
    for edge in list(graph.edges()):
        graph.set_edge_params(
            edge.a,
            edge.b,
            EdgeParams(epsilon=rng.uniform(0.1, 3.0), tau=rng.uniform(0.0, 1.0)),
        )
    return graph


def sparse_ids():
    graph = DynamicGraph([3, 40, 7, 19, 100])
    for u, v in [(3, 40), (40, 7), (7, 19), (19, 100), (3, 100)]:
        graph.add_edge(u, v, EdgeParams(epsilon=0.5 + 0.1 * (u % 7)))
    graph.add_directed_edge(3, 19)  # one direction only: not a symmetric edge
    return graph


PARAMS = Parameters(rho=0.01, mu=0.1)

GRAPHS = {
    "line": lambda: heterogeneous(topology.line(17), 1),
    "ring": lambda: heterogeneous(topology.ring(12), 2),
    "grid": lambda: heterogeneous(topology.grid(5, 6), 3),
    "grid_uniform": lambda: topology.grid(6, 6),  # many exact distance ties
    "star": lambda: heterogeneous(topology.star(9), 4),
    "random": lambda: heterogeneous(topology.random_connected(40, 0.1, seed=5), 5),
    "single": lambda: topology.line(1),
    "sparse_ids": sparse_ids,
}


def asymmetric_weight(u, v):
    return 1.0 + 0.25 * ((3 * u + v) % 5) + (0.5 if u < v else 0.0)


def zero_weight(u, v):
    return 0.0 if (u + v) % 3 == 0 else 1.5


WEIGHTS = {
    "epsilon": lambda graph: None,
    "kappa": lambda graph: paths.kappa_weight(graph, PARAMS),
    "hop": paths.hop_weight,
    "asymmetric": lambda graph: asymmetric_weight,
    "zero_edges": lambda graph: zero_weight,
}


@pytest.mark.parametrize("weight_name", sorted(WEIGHTS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestKernelMatchesOracle:
    def test_all_pairs_values_and_key_order(self, graph_name, weight_name):
        graph = GRAPHS[graph_name]()
        weight = WEIGHTS[weight_name](graph)
        got = paths.all_pairs_distances(graph, weight)
        want = oracle_all_pairs(graph, weight)
        assert list(got.items()) == list(want.items())

    def test_single_source_diameter_and_pair_filter(self, graph_name, weight_name):
        graph = GRAPHS[graph_name]()
        weight = WEIGHTS[weight_name](graph)
        for source in graph.nodes:
            got = paths.shortest_distances(graph, source, weight)
            want = oracle_shortest_distances(graph, source, weight)
            assert list(got.items()) == list(want.items())
        diameter = oracle_diameter(graph, weight)
        assert paths.weighted_diameter(graph, weight) == diameter
        lower, upper = 0.25 * diameter, 0.75 * diameter
        assert paths.pairs_at_distance(graph, lower, upper, weight) == [
            (u, v)
            for (u, v), d in oracle_all_pairs(graph, weight).items()
            if u < v and lower <= d <= upper
        ]

    def test_shortest_path_realises_the_distance(self, graph_name, weight_name):
        graph = GRAPHS[graph_name]()
        weight = WEIGHTS[weight_name](graph) or paths.epsilon_weight(graph)
        source = graph.nodes[0]
        want = oracle_shortest_distances(graph, source, weight)
        for target in graph.nodes:
            path = paths.shortest_path(graph, source, target, weight)
            assert path[0] == source and path[-1] == target
            assert paths.path_exists(graph, path)
            assert paths.path_weight(path, weight) == pytest.approx(want[target])


def outcome(call):
    """The call's value, or the text of the ``GraphError`` it raised."""
    try:
        return call()
    except GraphError as error:
        return f"GraphError: {error}"


def oracle_table_pairs(graph, weight=None):
    """The pairs ``u < v`` at a positive distance, as ``{(u, v): distance}``."""
    return {
        pair: d
        for pair, d in oracle_all_pairs(graph, weight).items()
        if pair[0] < pair[1] and d > 0.0
    }


def table_pairs(table):
    """A :class:`paths.PairTable` as ``{(u, v): distance}``, its layout checked:
    ascending distinct classes, none empty, every pair once and as ``i < j``."""
    assert table.distances == sorted(set(table.distances))
    assert len(table.ends) == len(table.distances)
    assert table.first.typecode == table.second.typecode == "i"
    assert len(table.first) == len(table.second) == (table.ends[-1] if table.ends else 0)
    got, start = {}, 0
    for distance, end in zip(table.distances, table.ends):
        assert end > start
        for i, j in zip(table.first[start:end], table.second[start:end]):
            assert i < j
            got[table.nodes[i], table.nodes[j]] = distance
        start = end
    assert len(got) == len(table.first)
    return got


def assert_matches_oracle(graph, weight):
    got = paths.all_pairs_distances(graph, weight)
    want = oracle_all_pairs(graph, weight)
    assert list(got.items()) == list(want.items())
    assert table_pairs(paths.pair_table(graph, weight)) == oracle_table_pairs(graph, weight)
    diameter = outcome(lambda: oracle_diameter(graph, weight))
    assert outcome(lambda: paths.weighted_diameter(graph, weight)) == diameter
    upper = max(d for d in want.values() if d < math.inf)
    lower = 0.25 * upper
    assert paths.pairs_at_distance(graph, lower, upper, weight) == [
        (u, v) for (u, v), d in want.items() if u < v and lower <= d <= upper
    ]


def count_dijkstra(monkeypatch):
    calls = []
    dijkstra = paths._dijkstra

    def counted(rows, source):
        calls.append(source)
        return dijkstra(rows, source)

    monkeypatch.setattr(paths, "_dijkstra", counted)
    return calls


def cut_line():
    graph = topology.line(9, ONE_WEIGHT_PARAMS)
    graph.remove_edge(3, 4)
    return graph


def per_hop_weight(graph):
    """The shape of ``suggest_global_skew_bound``'s per-hop estimate error."""

    def weight(u, v):
        edge = graph.edge_params(u, v)
        return edge.epsilon + edge.delay + 2.0 * PARAMS.rho * (5.0 + edge.delay)

    return weight


# 0.1 and 0.3 are not dyadic: the sums round, so the order of additions shows.
ONE_WEIGHT_PARAMS = EdgeParams(epsilon=0.1, tau=0.3, delay=0.3)

ONE_WEIGHT_GRAPHS = {
    "line": lambda: topology.line(17, ONE_WEIGHT_PARAMS),
    "ring": lambda: topology.ring(12, ONE_WEIGHT_PARAMS),
    "star": lambda: topology.star(9, ONE_WEIGHT_PARAMS),
    "complete": lambda: topology.complete(7, ONE_WEIGHT_PARAMS),
    "grid": lambda: topology.grid(5, 6, ONE_WEIGHT_PARAMS),
    "binary_tree": lambda: topology.binary_tree(4, ONE_WEIGHT_PARAMS),
    "random_tree": lambda: topology.random_tree(25, ONE_WEIGHT_PARAMS, seed=3),
    "random_connected": lambda: topology.random_connected(
        40, 0.1, ONE_WEIGHT_PARAMS, seed=5
    ),
    "cut_line": cut_line,
}

ONE_WEIGHTS = {
    "epsilon": paths.epsilon_weight,
    "kappa": lambda graph: paths.kappa_weight(graph, PARAMS),
    "per_hop": per_hop_weight,
}


class TestOneWeightTakesTheLevelKernel:
    @pytest.mark.parametrize("weight_name", sorted(ONE_WEIGHTS))
    @pytest.mark.parametrize("graph_name", sorted(ONE_WEIGHT_GRAPHS))
    def test_levels_match_the_oracle_item_for_item(
        self, monkeypatch, graph_name, weight_name
    ):
        graph = ONE_WEIGHT_GRAPHS[graph_name]()
        weight = ONE_WEIGHTS[weight_name](graph)
        calls = count_dijkstra(monkeypatch)
        assert_matches_oracle(graph, weight)
        assert calls == []

    @pytest.mark.parametrize(
        "weight",
        [
            pytest.param(lambda u, v: 0.0, id="zero"),
            pytest.param(lambda u, v: math.inf, id="inf"),
            pytest.param(
                lambda u, v: 1.0 if (u + v) % 2 else math.nextafter(1.0, 2.0),
                id="one_ulp_apart",
            ),
        ],
    )
    def test_other_weights_take_the_general_kernel(self, monkeypatch, weight):
        graph = ONE_WEIGHT_GRAPHS["grid"]()
        calls = count_dijkstra(monkeypatch)
        assert_matches_oracle(graph, weight)
        assert calls

    @pytest.mark.parametrize("value", [5e-324, 1e308, 2.0 ** 60])
    def test_extreme_single_weights_match_whichever_kernel_runs(self, value):
        # 1e308 overflows at the second hop; 2**60 adds exactly for ever.
        assert_matches_oracle(ONE_WEIGHT_GRAPHS["grid"](), lambda u, v: value)


class TestKernelContract:
    def test_weight_called_once_per_directed_edge(self):
        self.check_weight_calls(spread=4)

    def test_one_weight_called_once_per_directed_edge(self):
        self.check_weight_calls(spread=1)

    @staticmethod
    def check_weight_calls(spread):
        graph = GRAPHS["grid"]()
        calls = []

        def counting(u, v):
            calls.append((u, v))
            return 1.0 + ((u * v) % spread)

        paths.all_pairs_distances(graph, counting)
        directed = [
            (u, v) for u in graph.nodes for v in graph.symmetric_neighbors(u)
        ]
        assert len(calls) == len(set(calls)) == 2 * graph.edge_count()
        assert sorted(calls) == sorted(directed)
        del calls[:]
        paths.weighted_diameter(graph, counting)
        assert len(calls) == 2 * graph.edge_count()

    def test_disconnected_graph(self):
        graph = topology.line(6)
        graph.remove_edge(2, 3)
        with pytest.raises(GraphError):
            paths.weighted_diameter(graph)
        got = paths.all_pairs_distances(graph)
        assert list(got.items()) == list(oracle_all_pairs(graph).items())
        assert (0, 2) in got and (0, 3) not in got and (5, 1) not in got
        with pytest.raises(GraphError):
            paths.shortest_path(graph, 0, 5)
        with pytest.raises(GraphError):
            paths.weighted_distance(graph, 0, 5)

    def test_negative_weight_rejected(self):
        graph = topology.ring(5)

        def weight(u, v):
            return -1.0 if {u, v} == {2, 3} else 1.0

        for call in (
            lambda: paths.shortest_distances(graph, 0, weight),
            lambda: paths.all_pairs_distances(graph, weight),
            lambda: paths.weighted_diameter(graph, weight),
            lambda: paths.pairs_at_distance(graph, 0.0, 9.0, weight),
            lambda: paths.shortest_path(graph, 0, 3, weight),
        ):
            with pytest.raises(GraphError, match="negative edge weight"):
                call()

    def test_negative_weight_raises_before_any_source_is_expanded(self, monkeypatch):
        graph = topology.ring(5)
        calls = count_dijkstra(monkeypatch)
        monkeypatch.setattr(paths, "_bfs_hops", calls.append)
        for call in (
            paths.all_pairs_distances,
            paths.weighted_diameter,
            paths.pair_table,
        ):
            with pytest.raises(GraphError, match="negative edge weight"):
                call(graph, lambda u, v: -1.0)
        assert calls == []

    def test_unknown_endpoints_rejected(self):
        graph = topology.line(3)
        with pytest.raises(GraphError):
            paths.shortest_distances(graph, 7)
        with pytest.raises(GraphError):
            paths.shortest_path(graph, 0, 7)


class TestConsumersUnchanged:
    def test_check_trace_violations_same_list_same_order(self):
        graph = GRAPHS["random"]()
        bound = 40.0
        rng = random.Random(11)
        trace = Trace(1.0)
        for step in range(4):
            logical = {n: rng.uniform(0.0, 120.0) for n in graph.nodes}
            trace.record(
                TraceSample.from_dicts(
                    time=float(step),
                    logical=logical,
                    hardware=dict(logical),
                    multipliers={n: 1.0 for n in graph.nodes},
                    modes={n: "slow" for n in graph.nodes},
                    max_estimates=dict(logical),
                )
            )
        distances = oracle_all_pairs(graph, paths.kappa_weight(graph, PARAMS))
        want = [
            violation
            for sample in trace
            for violation in gradient.check_sample(sample, distances, bound, PARAMS)
        ]
        got = gradient.check_trace(trace, graph, bound, PARAMS)
        assert want and got == want

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,p", [(1, 0.5), (2, 1.0), (30, 0.0), (60, 0.08)])
    def test_random_connected_same_graph_as_old_generator(self, n, p, seed):
        params = EdgeParams(epsilon=0.7, tau=0.2)
        got = topology.random_connected(n, p, params, seed=seed)
        want = oracle_random_connected(n, p, params, seed)
        assert got.nodes == want.nodes
        # list(), not set(): neighbour iteration order feeds the path kernel.
        assert [list(got.neighbors_view(u)) for u in got.nodes] == [
            list(want.neighbors_view(u)) for u in want.nodes
        ]
        assert list(got.known_edge_params().items()) == list(
            want.known_edge_params().items()
        )
