"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aopt_step import MODE_NAMES, evaluate_mode_flat
from repro.core.clocks import HardwareClock, LogicalClock
from repro.core.insertion import compute_insertion_times
from repro.core.max_estimate import MaxEstimateTracker
from repro.core.neighbor_sets import NeighborLevels
from repro.core.parameters import ParameterError, Parameters
from repro.core.triggers import (
    NeighborView,
    evaluate_triggers,
    fast_trigger_at_level,
    fast_trigger_level,
    slow_trigger_at_level,
    slow_trigger_level,
    views_at_level,
)
from repro.analysis import legality
from repro.analysis.report import Table
from repro.network import paths
from repro.network.dynamic_graph import DynamicGraph
from repro.network.edge import EdgeKey
from test_paths_kernel import oracle_all_pairs, oracle_diameter

# Parameter strategies ------------------------------------------------------

valid_rho = st.floats(min_value=1e-5, max_value=0.02)
valid_mu = st.floats(min_value=0.05, max_value=0.1)


def make_params(rho, mu):
    return Parameters(rho=rho, mu=mu)


class TestParameterProperties:
    @given(rho=valid_rho, mu=valid_mu)
    @settings(max_examples=50, deadline=None)
    def test_sigma_exceeds_one_and_envelope_orders(self, rho, mu):
        params = make_params(rho, mu)
        if not params.is_valid():
            return
        assert params.sigma > 1.0
        assert params.alpha < params.beta
        assert params.self_stabilization_rate > 0

    @given(
        rho=valid_rho,
        mu=valid_mu,
        epsilon=st.floats(min_value=0.01, max_value=10.0),
        tau=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_kappa_and_delta_satisfy_constraints(self, rho, mu, epsilon, tau):
        params = make_params(rho, mu)
        if not params.is_valid():
            return
        kappa = params.kappa_for(epsilon, tau)
        assert kappa > 4 * (epsilon + mu * tau)
        delta = params.delta_for(kappa, epsilon, tau)
        assert 0 < delta < kappa / 2 - 2 * epsilon - 2 * mu * tau

    @given(
        rho=valid_rho,
        mu=valid_mu,
        bound=st.floats(min_value=1.0, max_value=1e4),
        distance=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_gradient_bound_monotone_in_distance(self, rho, mu, bound, distance):
        params = make_params(rho, mu)
        if not params.is_valid():
            return
        # Monotonicity under doubling needs sigma >= sqrt(2): doubling the
        # weight lowers the level s(p) by at most ceil(log_sigma 2) <= 2,
        # which the factor-2 weight increase then dominates.  For sigma
        # arbitrarily close to 1 the (s(p)+1)*kappa_p bound genuinely dips
        # at level boundaries, so the property does not hold there.
        if params.sigma < math.sqrt(2.0):
            return
        shorter = params.gradient_skew_bound(distance, bound)
        longer = params.gradient_skew_bound(2 * distance, bound)
        assert longer >= shorter >= 0


class TestClockProperties:
    @given(
        steps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=-1.0, max_value=1.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_logical_clock_monotone_and_within_envelope(self, steps):
        rho, mu = 0.01, 0.1
        hardware = HardwareClock(rho)
        logical = LogicalClock()
        elapsed = 0.0
        previous = 0.0
        for dt, drift_fraction, fast in steps:
            rate = 1.0 + drift_fraction * rho
            hardware.advance(dt, rate)
            logical.advance(dt, rate, 1.0 + mu if fast else 1.0)
            elapsed += dt
            assert logical.value >= previous - 1e-12
            previous = logical.value
        assert logical.value >= (1 - rho) * elapsed - 1e-9
        assert logical.value <= (1 + rho) * (1 + mu) * elapsed + 1e-9

    @given(
        increments=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3.0),
                st.floats(min_value=0.0, max_value=3.3),
            ),
            min_size=1,
            max_size=40,
        ),
        remotes=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_max_estimate_at_least_own_clock(self, increments, remotes):
        tracker = MaxEstimateTracker(0.01)
        hardware = 0.0
        logical = 0.0
        for hardware_step, logical_step in increments:
            hardware += hardware_step
            logical += min(logical_step, hardware_step * 1.1)
            tracker.advance(hardware, logical)
            assert tracker.value >= logical - 1e-9
        for remote in remotes:
            before = tracker.value
            tracker.observe_remote(remote)
            assert tracker.value >= before


class TestNeighborLevelProperties:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["discover", "promote", "remove", "full"]),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_subset_chain_always_holds(self, operations):
        levels = NeighborLevels(6)
        for op, neighbor, level in operations:
            if op == "discover":
                levels.discover(neighbor)
            elif op == "promote":
                if neighbor in levels:
                    levels.promote(neighbor, level)
            elif op == "remove":
                levels.remove(neighbor)
            else:
                levels.add_fully_inserted(neighbor)
            assert levels.subset_chain_holds()


class TestInsertionScheduleProperties:
    @given(
        anchor=st.floats(min_value=0.0, max_value=1e5),
        duration=st.floats(min_value=1.0, max_value=1e4),
        levels=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_schedule_structure(self, anchor, duration, levels):
        schedule = compute_insertion_times(
            anchor, duration, levels, neighbor=1, global_skew_estimate=10.0
        )
        assert schedule.anchor >= anchor - 1e-6
        assert schedule.anchor - anchor <= duration + 1e-6
        times = schedule.level_times
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        assert times[0] == pytest.approx(schedule.anchor)
        assert times[-1] <= schedule.anchor + duration + 1e-6


def exhaustive_level(at_level, logical, views, params, max_level):
    """Listing 3 without the early exit: try every level, smallest first."""
    for level in range(1, max_level + 1):
        if at_level(logical, level, views_at_level(views, level), params):
            return level
    return None


def threshold_table(view, params, max_level):
    """``aopt_step.ThresholdTable`` of one view, from the view's own constants."""
    levels = range(1, max_level + 1)
    return (
        tuple(s * view.kappa - view.epsilon for s in levels),
        tuple(s * view.kappa + 2.0 * params.mu * view.tau + view.epsilon for s in levels),
        tuple((s + 0.5) * view.kappa - view.delta - view.epsilon for s in levels),
        tuple(
            (s + 0.5) * view.kappa
            + view.delta
            + view.epsilon
            + params.mu * (1.0 + params.rho) * view.tau
            for s in levels
        ),
    )


@st.composite
def trigger_cases(draw):
    """``(params, logical, max_estimate, views, max_level)`` for the level scans.

    Every view draws its own ``kappa`` / ``epsilon`` / ``tau`` / ``delta``;
    levels are mixed (0 = discovered but not inserted) or all clamped to
    ``max_level``; an estimate may sit exactly on one of the four thresholds
    of some level.
    """
    params = Parameters(rho=0.01, mu=0.1)
    max_level = draw(st.integers(min_value=1, max_value=8))
    logical = draw(st.sampled_from([0.0, 64.0]) | st.floats(min_value=0.0, max_value=1000.0))
    constant = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=4.0)
    all_clamped = draw(st.booleans())
    views = []
    for neighbor in range(draw(st.integers(min_value=0, max_value=6))):
        kappa = draw(st.sampled_from([1.0, 4.0]) | st.floats(min_value=0.05, max_value=20.0))
        epsilon, tau, delta = draw(constant), draw(constant), draw(constant)
        level = max_level if all_clamped else draw(st.integers(0, max_level))
        view = NeighborView(neighbor, logical, kappa, epsilon, tau, delta, level)
        s = draw(st.integers(min_value=1, max_value=max_level))
        fast_ahead, fast_behind, slow_behind, slow_ahead = (
            row[s - 1] for row in threshold_table(view, params, max_level)
        )
        offset = draw(
            st.floats(min_value=-10.0, max_value=10.0).map(lambda x: x * kappa)
            | st.sampled_from([fast_ahead, -fast_behind, -slow_behind, slow_ahead])
        )
        views.append(replace(view, estimate=logical + offset))
    max_estimate = logical + draw(
        st.sampled_from([0.0, params.iota / 2.0, params.iota])
        | st.floats(min_value=0.0, max_value=5.0)
    )
    return params, logical, max_estimate, views, max_level


class TestTriggerProperties:
    @given(
        logical=st.floats(min_value=0.0, max_value=1000.0),
        offsets=st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=6
        ),
        levels=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_lemma_5_3_triggers_mutually_exclusive(self, logical, offsets, levels):
        params = Parameters(rho=0.01, mu=0.1)
        epsilon, tau = 1.0, 0.5
        kappa = params.kappa_for(epsilon, tau)
        delta = params.delta_for(kappa, epsilon, tau)
        views = [
            NeighborView(
                neighbor=i,
                estimate=max(0.0, logical + offset),
                kappa=kappa,
                epsilon=epsilon,
                tau=tau,
                delta=delta,
                level=level,
            )
            for i, (offset, level) in enumerate(zip(offsets, levels * len(offsets)))
        ]
        fast = fast_trigger_level(logical, views, params, max_level=4)
        slow = slow_trigger_level(logical, views, params, max_level=4)
        assert fast is None or slow is None

    @given(case=trigger_cases())
    @settings(max_examples=300, deadline=None)
    def test_level_scan_equals_exhaustive_scan(self, case):
        """The early-exit scans return what evaluating every level returns."""
        params, logical, max_estimate, views, max_level = case
        slow = exhaustive_level(slow_trigger_at_level, logical, views, params, max_level)
        fast = exhaustive_level(fast_trigger_at_level, logical, views, params, max_level)
        assert slow_trigger_level(logical, views, params, max_level) == slow
        assert fast_trigger_level(logical, views, params, max_level) == fast

        decision = evaluate_triggers(logical, max_estimate, views, params, max_level)
        lag = max_estimate - logical
        if slow is not None:
            expected = ("slow", slow)
        elif fast is not None:
            expected = ("fast", fast)
        elif lag <= 1e-9:
            expected = ("slow", None)
        elif lag >= params.iota:
            expected = ("fast", None)
        else:
            expected = ("free", None)
        assert (decision.mode, decision.level) == expected

        inserted = views_at_level(views, 1)
        flat = evaluate_mode_flat(
            logical,
            max_estimate,
            params.iota,
            len(inserted),
            [view.estimate - logical for view in inserted],
            [view.level for view in inserted],
            [threshold_table(view, params, max_level) for view in inserted],
        )
        assert MODE_NAMES[flat] == decision.mode


class TestLegalityProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_small_skews_always_legal(self, values):
        params = Parameters(rho=0.01, mu=0.1)
        logical = dict(enumerate(values))
        edges = [(0, 1, 20.0), (1, 2, 20.0), (2, 3, 20.0)]
        sequence = legality.gradient_sequence(100.0, params, 3)
        assert legality.is_legal(logical, {1: edges, 2: edges, 3: edges}, sequence)


class TestMiscProperties:
    @given(a=st.integers(min_value=0, max_value=100), b=st.integers(min_value=0, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_edge_key_symmetric(self, a, b):
        if a == b:
            with pytest.raises(ValueError):
                EdgeKey.of(a, b)
        else:
            assert EdgeKey.of(a, b) == EdgeKey.of(b, a)

    @given(
        rows=st.lists(
            st.tuples(st.integers(min_value=0, max_value=10 ** 6), st.floats(allow_nan=False, allow_infinity=False)),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_table_renders_any_rows(self, rows):
        table = Table("T", ["a", "b"])
        for a, b in rows:
            table.add_row(a, b)
        text = table.render()
        assert "T" in text
        assert len(text.splitlines()) == 4 + len(rows)


@st.composite
def weighted_connected_graphs(draw):
    """A connected graph (random tree + extra edges) with a directed weight table."""
    n = draw(st.integers(min_value=1, max_value=10))
    edges = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    if n > 1:
        node = st.integers(min_value=0, max_value=n - 1)
        extra = draw(st.lists(st.tuples(node, node), max_size=2 * n))
        edges.update((min(u, v), max(u, v)) for u, v in extra if u != v)
    # Few distinct values on purpose: exact ties and zero-weight edges.
    value = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
        st.floats(min_value=0.0, max_value=100.0),
    )
    graph = DynamicGraph(range(n))
    table = {}
    for u, v in sorted(edges):
        graph.add_edge(u, v)
        table[(u, v)] = draw(value)
        table[(v, u)] = draw(value)
    return graph, table


class TestPathKernelProperties:
    @given(case=weighted_connected_graphs())
    @settings(max_examples=100, deadline=None)
    def test_kernel_equals_dict_dijkstra(self, case):
        graph, table = case
        weight = lambda u, v: table[(u, v)]  # noqa: E731
        got = paths.all_pairs_distances(graph, weight)
        assert list(got.items()) == list(oracle_all_pairs(graph, weight).items())
        assert paths.weighted_diameter(graph, weight) == oracle_diameter(graph, weight)
