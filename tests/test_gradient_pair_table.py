"""Exactness of the all-pairs observers over the compact pair table.

``gradient_bound_check``, ``watchdog_gradient_bound`` and ``skew_by_distance``
read one :class:`~repro.network.paths.PairTable` per graph, class by class,
through whichever sample view the engine feeds.  Each view must give the
numbers of the plain loop over :func:`paths.all_pairs_distances` with
:meth:`Parameters.gradient_skew_bound` -- on one-weight graphs (hop levels)
and mixed-weight ones (Dijkstra classes), connected or not, with the view's
node order shuffled against the table's sorted one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import DEFAULT_PARAMETERS
from repro.metrics.observers import (
    GradientBoundObserver,
    ObserverContext,
    SkewByDistanceObserver,
)
from repro.metrics.views import ColumnsView
from repro.metrics.watchdogs import GradientBoundWatchdog
from repro.network import paths
from repro.network.dynamic_graph import DynamicGraph
from repro.network.edge import EdgeParams

try:
    import numpy
except ImportError:  # the stdlib views still run
    numpy = None

PARAMS = DEFAULT_PARAMETERS
#: Edge parameters of a one-weight graph, and what mixed-weight edges draw from.
ONE = EdgeParams()
MIXED = [EdgeParams(epsilon=e, tau=t) for e, t in ((1.0, 0.5), (0.25, 0.5), (2.0, 0.1), (0.5, 0.0))]


@st.composite
def graphs(draw):
    ids = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=9)))
    candidates = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
    mixed = draw(st.booleans())
    graph = DynamicGraph(ids)
    for u, v in edges:
        graph.add_edge(u, v, draw(st.sampled_from(MIXED)) if mixed else ONE)
    return graph


def make_view(kind, graph, logical, order):
    """A view of one sample whose columns follow ``order`` (not sorted)."""
    index = {node: i for i, node in enumerate(order)}
    column = [logical[node] for node in order]
    zeros = [0] * len(order)
    if kind == "columns":
        return ColumnsView(order, index).set_columns(0.0, column, list(map(float, zeros)), zeros)
    from repro.metrics.views import ArrayView

    return ArrayView(order, index).set_columns(
        0.0, numpy.asarray(column), numpy.zeros(len(order)), numpy.asarray(zeros)
    )


def brute_force(graph, samples, bound, tolerance):
    """Violations per sample and the ``skew_by_distance`` profile, pair by pair."""
    distances = paths.all_pairs_distances(graph, paths.kappa_weight(graph, PARAMS))
    pairs = [((u, v), d) for (u, v), d in distances.items() if u < v and d > 0.0]
    counts, profile = [], {}
    for logical in samples:
        count = 0
        for (u, v), d in pairs:
            skew = abs(logical[u] - logical[v])
            if skew > PARAMS.gradient_skew_bound(d, bound) + tolerance:
                count += 1
            key = round(d, 9)
            if skew > profile.get(key, 0.0):
                profile[key] = skew
        counts.append(count)
    items = sorted(profile.items())
    return counts, {"distances": [d for d, _ in items], "max_skew": [s for _, s in items]}


VIEWS = [
    "columns",
    pytest.param(
        "array", marks=pytest.mark.skipif(numpy is None, reason="numpy is not installed")
    ),
]


@pytest.mark.parametrize("kind", VIEWS)
@settings(max_examples=60, deadline=None)
@given(
    graph=graphs(),
    seed=st.integers(0, 2**32 - 1),
    bound=st.floats(0.5, 200.0),
    tolerance=st.sampled_from([0.0, 1e-9, 0.5, 3.0]),
    spread=st.floats(0.0, 300.0),
)
def test_every_view_counts_what_the_pair_loop_counts(kind, graph, seed, bound, tolerance, spread):
    rng = random.Random(seed)
    nodes = graph.nodes
    samples = [{u: rng.uniform(0.0, spread) for u in nodes} for _ in range(3)]
    samples.append({u: 1.0 for u in nodes})  # no skew at all
    order = list(nodes)
    rng.shuffle(order)
    context = ObserverContext(graph=graph, params=PARAMS, global_skew_bound=bound)
    check = GradientBoundObserver(context, tolerance=tolerance)
    watchdog = GradientBoundWatchdog(context, tolerance=tolerance)
    profile = SkewByDistanceObserver(context)
    table, limits = context.gradient_limits(tolerance)
    if table.distances:
        # One pair of the largest class exactly at its limit, and in a second
        # sample another pair of that class over it.
        starts = [0, *table.ends]
        c = max(range(len(table.ends)), key=lambda k: starts[k + 1] - starts[k])
        pairs = range(starts[c], starts[c + 1])
        a, b = table.first[pairs[0]], table.second[pairs[0]]
        at_limit = {u: 0.0 for u in nodes}
        at_limit[table.nodes[b]] = limits[c]
        samples.append(at_limit)
        others = [k for k in pairs if not {table.first[k], table.second[k]} & {a, b}]
        if others:
            over = dict(at_limit)
            over[table.nodes[table.second[others[0]]]] = 2 * limits[c] + 1.0
            samples.append(over)
    got, fired = [], []
    for logical in samples:
        view = make_view(kind, graph, logical, order)
        got.append(view.count_exceeding(table, limits))
        before = watchdog.fired
        for observer in (check, watchdog, profile):
            observer.observe(view)
        fired.append(watchdog.fired - before)
    counts, want_profile = brute_force(graph, samples, bound, tolerance)
    assert got == counts
    assert check.finalize() == {"applicable": True, "violations": sum(counts)}
    assert profile.finalize() == want_profile
    # Edge-triggered: a sample fires when it violates and the previous did not.
    assert fired == [
        int(bool(count) and not (i and counts[i - 1])) for i, count in enumerate(counts)
    ]
    recorded = [event["violating_pairs"] for event in watchdog.finalize()["events"]]
    assert recorded == [count for count, fire in zip(counts, fired) if fire]


@pytest.mark.parametrize("kind", VIEWS)
def test_windowing_changes_no_number(monkeypatch, kind):
    from repro.network import topology

    graph = topology.grid(7, 6)  # 861 pairs in 11 classes
    rng = random.Random(5)
    logical = {u: rng.uniform(0.0, 400.0) for u in graph.nodes}
    order = list(graph.nodes)
    rng.shuffle(order)
    want = brute_force(graph, [logical], 50.0, 1e-9)[0][0]
    assert want > 0
    peaks = None
    for size in (paths.PAIR_WINDOW, 1, 2, 7, 100):
        monkeypatch.setattr(paths, "PAIR_WINDOW", size)
        context = ObserverContext(graph=graph, params=PARAMS, global_skew_bound=50.0)
        table, limits = context.gradient_limits(1e-9)
        # Windows are consecutive and at most ``size`` long; runs cut them
        # into pieces of one class each.
        runs = [run for _, _, window in table.windows for run in window]
        assert [lo for lo, _, _ in table.windows] == list(range(0, len(table.first), size))
        assert [start for _, start, _ in runs] == [0] + [end for _, _, end in runs[:-1]]
        assert runs[-1][2] == len(table.first)
        starts = [0, *table.ends]
        assert all(starts[c] <= start < end <= table.ends[c] for c, start, end in runs)
        view = make_view(kind, graph, logical, order)
        group = [c % 3 for c in range(len(limits))]
        got = view.make_group_accumulator(3)
        assert view.count_exceeding(table, limits) == want
        view.group_max_update(table, group, got)
        got = [float(value) for value in got]
        assert peaks is None or got == peaks
        peaks = got
