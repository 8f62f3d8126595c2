"""Property-based tests (hypothesis) for core data structures and invariants."""

import json
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.aopt_step import (
    MODE_NAMES,
    edge_threshold_table,
    evaluate_mode_flat,
    evaluate_mode_uniform,
)
from repro.core.clocks import HardwareClock, LogicalClock
from repro.core.insertion import InsertionSchedule, compute_insertion_times
from repro.core.max_estimate import MaxEstimateTracker
from repro.core.neighbor_sets import NeighborLevels
from repro.core.parameters import Parameters
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
from repro.experiments import execute_spec, scenario
from repro import __version__ as repro_version
from repro.experiments import executor
from repro.experiments.executor import CACHE_FORMAT_VERSION, ResultCache, run_sweep
from repro.experiments.semantics import SEMANTICS
from repro.experiments.spec import ComponentSpec
from repro.experiments.results import (
    trace_from_payload,
    trace_payload_is_finite,
    trace_to_payload,
)
from repro.fastsim.backend import backend_available
from repro.network import paths
from repro.network.dynamic_graph import DynamicGraph, EdgeEvent, GraphError
from repro.network.edge import EdgeKey, EdgeParams
from repro.sim.trace import Trace, TraceError, TraceSample
from repro.telemetry.schema import sanitize_json
from conftest import needs_jit, staged_insertion_spec
from test_dynamic_graph import oracle_edge_pairs, same_iteration
from test_neighbor_sets import exhaustive_chain_holds
from test_paths_kernel import assert_matches_oracle, oracle_all_pairs, oracle_diameter
from test_trace_plumbing import (
    oracle_trace_from_payload,
    oracle_trace_to_payload,
    same_samples,
)

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
            assert exhaustive_chain_holds(levels)


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

    @needs_jit
    @given(
        scale_exponent=st.floats(min_value=-4.0, max_value=-2.0),
        mu=st.sampled_from([0.05, 0.075, 0.1]),
        dt=st.sampled_from([0.05, 0.1, 0.25]),
        drift=st.sampled_from(
            [ComponentSpec("two_group", {"swap_period": 20.0}), ComponentSpec("random_walk", {})]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_jit_segments_capped_at_promotions_equal_reference(
        self, scale_exponent, mu, dt, drift
    ):
        """``jit`` fuses between a schedule's promotions; no fused step may promote.

        The trace of this spec hardly depends on when the new edge climbs a
        level, so each backend's promotions are recorded too -- with the
        clock value that made them due, which a late promotion changes.
        """
        scale = 10.0 ** scale_exponent
        span = scale * Parameters(rho=0.015, mu=mu).insertion_duration(10.0)
        spec = replace(
            staged_insertion_spec(),
            drift=drift,
            algorithm=ComponentSpec(
                "aopt", {"global_skew_bound": 10.0, "insertion_scale": scale}
            ),
            params={"rho": 0.015, "mu": mu},
        ).with_sim(dt=dt, duration=35.0 + 2.0 * span)
        due_levels = InsertionSchedule.due_levels

        def run(backend):
            promotions = []

            def recorded(schedule, logical_now):
                due = due_levels(schedule, logical_now)
                if due:
                    promotions.append((schedule.neighbor, logical_now, due))
                return due

            with mock.patch.object(InsertionSchedule, "due_levels", recorded):
                payload = execute_spec(spec.with_backend(backend))
            return payload, sorted(promotions)

        reference, reference_promotions = run("reference")
        jit, jit_promotions = run("jit")
        assert len(reference_promotions) > 2
        assert jit_promotions == reference_promotions
        assert jit["trace"] == reference["trace"]
        assert jit["summary"] == reference["summary"]


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


@st.composite
def uniform_row_cases(draw):
    """``(logical, max_estimate, iota, leads, level, table)``: one level, one table.

    A lead may be ``0.0`` / ``-0.0`` or sit on, or one ulp either side of,
    any of the table's thresholds; the leads may all be equal.
    """
    params = make_params(draw(valid_rho), draw(valid_mu))
    max_level = draw(st.integers(min_value=1, max_value=8))
    constant = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.01, max_value=4.0)
    table = edge_threshold_table(params, draw(constant), draw(constant), max_level)
    fast_ahead, fast_behind, slow_behind, slow_ahead = table
    on = [*fast_ahead, *slow_ahead, *(-thr for thr in fast_behind + slow_behind)]
    near = [
        value
        for thr in on
        for value in (math.nextafter(thr, -math.inf), thr, math.nextafter(thr, math.inf))
    ]
    top = 1.25 * slow_ahead[-1]
    lead = st.sampled_from([0.0, -0.0] + near) | st.floats(min_value=-top, max_value=top)
    leads = draw(st.lists(lead, min_size=1, max_size=8))
    if draw(st.booleans()):
        leads = [leads[0]] * len(leads)
    logical = draw(st.sampled_from([0.0, 64.0]) | st.floats(min_value=0.0, max_value=1000.0))
    max_estimate = logical + draw(
        st.sampled_from([0.0, params.iota / 2.0, params.iota])
        | st.floats(min_value=0.0, max_value=5.0)
    )
    iota = draw(st.just(params.iota) | st.floats(min_value=0.01, max_value=5.0))
    level = draw(st.integers(min_value=1, max_value=max_level))
    return logical, max_estimate, iota, leads, level, table


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

    @given(case=uniform_row_cases())
    @settings(max_examples=300, deadline=None)
    def test_uniform_row_collapse_equals_level_scan(self, case):
        """One level, one table: the two extreme leads decide what the scan decides."""
        logical, max_estimate, iota, leads, level, table = case
        count = len(leads)
        assert evaluate_mode_uniform(
            logical, max_estimate, iota, min(leads), max(leads), level, table
        ) == evaluate_mode_flat(
            logical, max_estimate, iota, count, leads, [level] * count, [table] * count
        )
        # No view at all (broadcast mode before the first broadcast arrives).
        assert evaluate_mode_uniform(
            logical, max_estimate, iota, math.inf, -math.inf, level, table
        ) == evaluate_mode_flat(logical, max_estimate, iota, 0, [], [], [])


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

    @given(
        case=weighted_connected_graphs(),
        value=st.floats(min_value=0.0, exclude_min=True, max_value=1e308),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_positive_weight_equals_dict_dijkstra(self, case, value):
        # Large values overflow within a few hops and fall back to Dijkstra.
        graph, _ = case
        assert_matches_oracle(graph, lambda u, v: value)


# Row-level graph set-up --------------------------------------------------------

GRAPH_NODES = 12
#: Mostly valid endpoints; -1 and GRAPH_NODES are unknown nodes.
ENDPOINT = st.integers(min_value=-1, max_value=GRAPH_NODES)


class TestGraphSetUpProperties:
    @given(
        pairs=st.lists(st.tuples(ENDPOINT, ENDPOINT), max_size=80),
        with_params=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_add_edges_equals_the_add_edge_sequence(self, pairs, with_params):
        params = EdgeParams(0.5, 0.25, 1.0) if with_params else None
        bulk, single = DynamicGraph(range(GRAPH_NODES)), DynamicGraph(range(GRAPH_NODES))

        def message_of(add):
            try:
                add()
            except GraphError as exc:
                return str(exc)
            return None

        assert message_of(lambda: bulk.add_edges(pairs, params)) == message_of(
            lambda: [single.add_edge(u, v, params) for u, v in pairs]
        )
        same_iteration(bulk, single)
        same_iteration(bulk.copy(), single.copy())

    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["up", "down", "edge"]),
                st.integers(min_value=0, max_value=GRAPH_NODES - 1),
                st.integers(min_value=0, max_value=GRAPH_NODES - 1),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_edge_pairs_equals_the_seen_set_walk(self, events):
        graph = DynamicGraph(range(GRAPH_NODES))
        for kind, u, v in events:
            if u == v:
                continue
            if kind == "edge":
                graph.add_edge(u, v)
            else:  # one direction only: a half-up (or half-down) edge
                graph.apply_event(EdgeEvent(0.0, kind, u, v))
            assert list(graph.edge_pairs()) == oracle_edge_pairs(graph)
        assert [(key.a, key.b) for key in graph.edges()] == oracle_edge_pairs(graph)


# Trace (de)serialisation -----------------------------------------------------

NODE_IDS = st.integers(min_value=-3, max_value=40)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def traces(draw, values=FINITE):
    """A trace whose node set (and node order) may change between samples or
    stay put for long runs.  The five columns of a sample share its order."""
    trace = Trace(draw(st.sampled_from([0.5, 1.0, 2.5])))
    time = 0.0
    ids = draw(st.lists(NODE_IDS, unique=True, max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        change = draw(st.sampled_from(["keep", "keep", "keep", "permute", "redraw"]))
        if change == "permute":
            ids = draw(st.permutations(ids))
        elif change == "redraw":
            ids = draw(st.lists(NODE_IDS, unique=True, max_size=5))
        trace.record(
            TraceSample.from_dicts(
                time=time,
                logical={node: draw(values) for node in ids},
                hardware={node: draw(values) for node in ids},
                multipliers={node: draw(values) for node in ids},
                modes={node: draw(st.sampled_from(MODE_NAMES)) for node in ids},
                max_estimates={node: draw(values) for node in ids},
                diameter=draw(st.one_of(st.none(), values)),
            )
        )
        time += draw(st.sampled_from([0.0, 0.5, 1.0]))
    return trace


PAYLOAD_COLUMNS = ("logical", "hardware", "multipliers", "modes", "max_estimates")


def with_drawn_key_orders(data, payload):
    """``payload`` with every sample column's keys in a drawn order, values
    kept with their keys: a cache file is outside input."""
    for entry in payload["samples"]:
        for name in PAYLOAD_COLUMNS:
            column = entry[name]
            keys = data.draw(st.permutations(list(column)))
            entry[name] = {key: column[key] for key in keys}
    return payload


def mutant_trace_to_payload(trace):
    """The encoder minus its key-order check: the first sample's id strings
    are reused for every column.  The properties below must reject it."""
    names = None
    samples = []
    for sample in trace:
        if names is None:
            names = [str(node) for node in sample.logical]
        entry = {"time": sample.time}
        for name in ("logical", "hardware", "multipliers", "modes", "max_estimates"):
            entry[name] = dict(zip(names, getattr(sample, name).values()))
        entry["diameter"] = sample.diameter
        samples.append(entry)
    return {"sample_interval": trace.sample_interval, "samples": samples}


def assert_encodes_like_the_oracle(encode, trace):
    expected = oracle_trace_to_payload(trace)
    got = encode(trace)
    assert got == expected
    assert json.dumps(got) == json.dumps(expected)  # key for key, order for order


class TestTracePayloadProperties:
    @given(trace=traces())
    @settings(max_examples=200, deadline=None)
    def test_encoder_equals_per_key_oracle(self, trace):
        assert_encodes_like_the_oracle(trace_to_payload, trace)

    def test_none_and_empty_and_one_node(self):
        assert trace_to_payload(None) is None
        assert trace_from_payload(None) is None
        empty = Trace(0.25)
        assert trace_to_payload(empty) == {"sample_interval": 0.25, "samples": []}
        assert same_samples(trace_from_payload(trace_to_payload(empty)), empty)
        one = Trace()
        one.record(TraceSample.from_dicts(0.0, {7: 1.0}, {7: 1.0}, {7: 1.0}, {7: "slow"}, {7: 1.0}))
        assert_encodes_like_the_oracle(trace_to_payload, one)
        assert same_samples(trace_from_payload(trace_to_payload(one)), one)

    def test_the_properties_reject_an_encoder_without_the_key_order_check(self):
        static = Trace()
        moving = Trace()
        for step, ids in enumerate([(0, 1, 2), (0, 1, 2), (2, 0, 1), (0, 5)]):
            for trace, nodes in ((static, (0, 1, 2)), (moving, ids)):
                column = {node: float(node + step) for node in nodes}
                modes = {node: "fast" for node in nodes}
                trace.record(
                    TraceSample.from_dicts(
                        float(step), column, column, column, modes, column
                    )
                )
        assert_encodes_like_the_oracle(mutant_trace_to_payload, static)
        with pytest.raises(AssertionError):
            assert_encodes_like_the_oracle(mutant_trace_to_payload, moving)
        assert_encodes_like_the_oracle(trace_to_payload, moving)

    @given(trace=traces(values=ANY_FLOAT))
    @settings(max_examples=200, deadline=None)
    def test_finite_check_is_sanitising_being_the_identity(self, trace):
        encoded = trace_to_payload(trace)
        text = json.dumps(encoded)
        assert text == json.dumps(oracle_trace_to_payload(trace))
        sanitised = sanitize_json(encoded)
        assert trace_payload_is_finite(encoded) == (json.dumps(sanitised) == text)
        # What ``_payload_for`` stores is strict JSON either way.
        stored = encoded if trace_payload_is_finite(encoded) else sanitised
        assert json.dumps(stored, allow_nan=False) == json.dumps(sanitised)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda payload: payload.update(sample_interval=float("inf")),
            lambda payload: payload["samples"][0].update(time=float("nan")),
            lambda payload: payload["samples"][0].update(diameter=float("-inf")),
            lambda payload: payload["samples"][0]["modes"].update({"0": float("nan")}),
            lambda payload: payload["samples"][0]["hardware"].update({"0": None}),
            lambda payload: payload["samples"][0]["logical"].update({"0": 10**400}),
        ],
    )
    def test_finite_check_reads_every_field(self, spoil):
        trace = Trace()
        trace.record(TraceSample.from_dicts(0.0, {0: 1.0}, {0: 1.0}, {0: 1.0}, {0: "slow"}, {0: 1.0}, 2.0))
        payload = trace_to_payload(trace)
        assert trace_payload_is_finite(payload)
        spoil(payload)
        assert not trace_payload_is_finite(payload)

    @given(trace=traces(), through_json=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_decoder_equals_per_key_oracle_and_round_trips(self, trace, through_json, data):
        payload = oracle_trace_to_payload(trace)
        if through_json:
            payload = json.loads(json.dumps(payload))
        assert same_samples(trace_from_payload(payload), trace)
        payload = with_drawn_key_orders(data, payload)
        decoded = trace_from_payload(payload)
        assert same_samples(decoded, oracle_trace_from_payload(payload))
        assert list(decoded) == list(trace)
        assert same_samples(trace_from_payload(trace_to_payload(trace)), trace)

    @given(trace=traces(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_sample_whose_columns_hold_other_nodes_is_refused(self, trace, data):
        assume(len(trace))
        payload = oracle_trace_to_payload(trace)
        entry = data.draw(st.sampled_from(payload["samples"]))
        column = entry[data.draw(st.sampled_from(PAYLOAD_COLUMNS))]
        if column and data.draw(st.booleans()):
            del column[data.draw(st.sampled_from(sorted(column)))]
        else:
            column[str(max(map(int, column), default=0) + 1)] = column.get("0", "slow")
        for decode in (trace_from_payload, oracle_trace_from_payload):
            with pytest.raises(TraceError, match="node"):
                decode(payload)

    @given(trace=traces(values=ANY_FLOAT))
    @settings(max_examples=100, deadline=None)
    def test_decoder_passes_sanitised_values_through(self, trace):
        payload = sanitize_json(oracle_trace_to_payload(trace))
        assert same_samples(
            trace_from_payload(payload), oracle_trace_from_payload(payload)
        )

    @pytest.mark.parametrize("key", ["abc", "1.0", "", "0x1"])
    def test_non_integer_ids_are_rejected_as_before(self, key):
        column = {"0": 1.0, key: 2.0}
        sample = dict.fromkeys(
            ("logical", "hardware", "multipliers", "modes", "max_estimates"), column
        )
        payload = {"sample_interval": 1.0, "samples": [dict(sample, time=0.0)]}
        for decode in (trace_from_payload, oracle_trace_from_payload):
            with pytest.raises(ValueError):
                decode(payload)

    @pytest.mark.parametrize("backend", ["reference", "fast", "vec", "jit"])
    def test_cached_trace_equals_executed_trace(self, tmp_path, backend):
        if not backend_available(backend):
            pytest.skip(f"backend {backend!r} is not available here")
        spec = scenario(
            "end_to_end_insertion", n=5, insertion_time=4.0, sim={"duration": 12.0}
        ).with_backend(backend)
        cache = ResultCache(tmp_path)
        (executed,), _ = run_sweep([spec], cache=cache)
        (cached,), _ = run_sweep([spec], cache=cache)
        assert cached.from_cache and not executed.from_cache
        assert len(executed.trace) > 0
        assert same_samples(cached.trace, executed.trace)
        assert json.dumps(trace_to_payload(cached.trace)) == json.dumps(
            json.loads(cache.path_for(spec).read_text())["trace"]
        )


# ----------------------------------------------------------------------
# The cache file: the trace on a line of its own
# ----------------------------------------------------------------------
TRACE_MEMBER = b'"trace": '

#: Strings that look like the framing, or like the member it frames.
TRICKY_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ["\n", ",\n", ", \n", '"trace": ', '\n"trace": null\n', '\n"trace": {"a": 1}\n, ']
    ),
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), FINITE, TRICKY_TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(TRICKY_TEXT, children, max_size=3),
    ),
    max_leaves=8,
)

PLUMBING_SPEC = scenario("line_scaling", n=3, sim={"duration": 2.0, "dt": 0.1})

#: What makes a payload a valid cache entry for ``PLUMBING_SPEC``.
VALIDITY_FIELDS = {
    "format": CACHE_FORMAT_VERSION,
    "library_version": repro_version,
    "semantics": SEMANTICS,
    "spec": PLUMBING_SPEC.to_dict(),
    "spec_hash": PLUMBING_SPEC.content_hash(),
    "backend": PLUMBING_SPEC.backend,
}


@st.composite
def payload_dicts(draw, valid=False):
    """A JSON object with ``"trace"`` first, last, in the middle or absent,
    and ``None`` or anything else; with ``valid`` the validity fields are
    mixed in, so that the cache accepts it as ``PLUMBING_SPEC``'s."""
    members = draw(
        st.dictionaries(TRICKY_TEXT.filter(lambda key: key != "trace"), JSON_VALUES, max_size=5)
    )
    if valid:
        members.update(VALIDITY_FIELDS)
    items = draw(st.permutations(list(members.items())))
    where = draw(st.sampled_from(["first", "last", "middle", "absent"]))
    if where != "absent":
        value = draw(st.one_of(st.none(), JSON_VALUES))
        at = {"first": 0, "last": len(items), "middle": len(items) // 2}[where]
        items = items[:at] + [("trace", value)] + items[at:]
    return dict(items)


def with_null_trace(payload):
    return dict(payload, trace=None) if "trace" in payload else payload


def split_parse(cut, data):
    """What a reader makes of a cache file when ``cut`` splits it."""
    document, trace = cut(data)
    payload = json.loads(document)
    if trace is not None:
        payload["trace"] = json.loads(trace)
    return payload


def mutant_cut(data):
    """A splitter that trusts the first ``"trace": `` it finds instead of the
    two newlines.  The properties below must reject it."""
    start = data.find(TRACE_MEMBER)
    if start < 0:
        return data, None
    stop = data.find(b"\n", start)
    stop = len(data) - 1 if stop < 0 else stop
    return (
        data[:start] + TRACE_MEMBER + b"null" + data[stop:].lstrip(b"\n"),
        data[start + len(TRACE_MEMBER) : stop],
    )


def assert_reads_back(cut, payload):
    data = executor._framed(payload)
    whole = json.loads(data)
    assert whole == payload
    assert json.dumps(whole) == json.dumps(payload)  # key order, nested too
    assert data.count(b"\n") == (2 if payload.get("trace") is not None else 0)
    assert data.replace(b"\n", b"") == json.dumps(payload).encode()
    document, trace = cut(data)
    assert (trace is None) == (payload.get("trace") is None)  # it does split
    assert json.loads(document) == with_null_trace(payload)
    split = split_parse(cut, data)
    assert split == whole
    assert json.dumps(split) == json.dumps(whole)


class TestCacheFileFramingProperties:
    @given(payload=payload_dicts())
    @settings(max_examples=300, deadline=None)
    def test_the_file_parses_to_the_payload_and_so_does_the_split_read(self, payload):
        assert_reads_back(executor._cut, payload)

    def test_the_properties_reject_a_splitter_that_finds_the_member_by_name(self):
        # As in every real payload: ``spec`` comes first and says which
        # trace mode was asked for.
        payload = {
            "spec": PLUMBING_SPEC.to_dict(),
            "summary": {"sample_count": 2},
            "trace": {"sample_interval": 1.0, "samples": [{"time": 0.0}, {"time": 1.0}]},
            "wall_time": 0.25,
        }
        assert b'"trace": "full"' in executor._framed(payload).split(b"\n")[0]
        with pytest.raises((AssertionError, ValueError)):
            assert_reads_back(mutant_cut, payload)
        assert_reads_back(executor._cut, payload)
        # ... while on a document whose only ``"trace": `` is the member's
        # own, the mutant is a splitter like any other.
        assert_reads_back(mutant_cut, {"a": 1, "trace": {"b": [2]}, "c": 3})

    @given(payload=payload_dicts(valid=True))
    @settings(max_examples=100, deadline=None)
    def test_store_then_load_round_trips(self, tmp_path_factory, payload):
        directory = tmp_path_factory.mktemp("framing")
        path = ResultCache(directory).store(PLUMBING_SPEC, payload)
        assert json.loads(path.read_bytes()) == payload
        for cache in (ResultCache(directory), ResultCache(directory)):
            cache.probe(PLUMBING_SPEC)  # the second one loads after a probe
            loaded = cache.load(PLUMBING_SPEC)
            assert loaded == payload
            assert json.dumps(loaded) == json.dumps(payload)
            fetched = cache.fetch(PLUMBING_SPEC)
            if payload.get("trace") is not None:
                assert fetched["trace"].parse() == payload["trace"]
                fetched["trace"] = None
            assert fetched == with_null_trace(payload)
