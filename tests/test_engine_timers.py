"""The engines' shared timer heap and run-loop seam.

Timers are driven through ``NodeAPI.schedule`` by a small algorithm on the
reference engine: they fire in ``(time, seq)`` order, each with its
scheduled time, once due within ``1e-12``; a follow-up scheduled at the fire
time fires in the same step; bad input from an algorithm is refused.  The
seam test runs ``fast`` through a subclass that overrides only the run
loop's per-iteration hook.
"""

import json

import pytest

from conftest import staged_insertion_spec
from repro.core.interfaces import ClockSyncAlgorithm, ControlDecision
from repro.experiments import execute_spec
from repro.fastsim import backend as backend_mod
from repro.fastsim.engine import FastEngine
from repro.network import topology
from repro.sim.delay import ZeroDelay
from repro.sim.engine import Engine, EngineError
from repro.sim.runner import SimulationConfig


class TimerAlgorithm(ClockSyncAlgorithm):
    """Calls ``plan(api, fired)`` at start; its timers append to ``fired``."""

    name = "Timers"

    def __init__(self, plan):
        super().__init__()
        self.plan = plan
        self.fired = []

    def on_start(self, t, initial_neighbors):
        self.plan(self.api, self.fired)

    def control(self, t):
        return ControlDecision(multiplier=1.0)


def timer_engine(params, plan, dt=0.1, other_plan=lambda api, fired: None):
    """A two-node reference engine whose node 0 runs ``plan``; and its log.

    Node 1 runs ``other_plan``.
    """
    algorithms = {}

    def factory(node):
        algorithms[node] = TimerAlgorithm(plan if node == 0 else other_plan)
        return algorithms[node]

    engine = Engine(
        topology.line(2), factory, SimulationConfig(params=params, dt=dt, delay=ZeroDelay())
    )
    return engine, algorithms[0].fired


def log(api, fired, label):
    """A callback that logs ``(label, fire time, engine time)``."""
    return lambda t: fired.append((label, t, api.now()))


class TestTimerOrder:
    def test_timers_fire_in_time_order_each_at_its_scheduled_time(self, params):
        def plan(api, fired):
            for delay in (0.25, 0.05, 0.15):
                api.schedule(delay, log(api, fired, delay))

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert [(label, t) for label, t, _ in fired] == [
            (0.05, 0.05), (0.15, 0.15), (0.25, 0.25)
        ]
        # Each fires in the first step at or after its time.
        assert [now for _, _, now in fired] == pytest.approx([0.1, 0.2, 0.3])

    def test_timers_due_in_one_step_fire_in_time_order(self, params):
        def plan(api, fired):
            for delay in (0.5, 0.1, 0.3):
                api.schedule(delay, log(api, fired, delay))

        engine, fired = timer_engine(params, plan, dt=1.0)
        engine.run(2.0)
        assert fired == [(0.1, 0.1, 1.0), (0.3, 0.3, 1.0), (0.5, 0.5, 1.0)]

    def test_ties_fire_in_insertion_order(self, params):
        def plan(api, fired):
            for label in ("first", "second", "third"):
                api.schedule(0.2, log(api, fired, label))

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert [label for label, _, _ in fired] == ["first", "second", "third"]

    def test_a_timer_due_within_1e_12_fires_with_its_scheduled_time(self, params):
        def plan(api, fired):
            api.schedule(0.1 + 5e-13, log(api, fired, "within"))
            api.schedule(0.1 + 1e-11, log(api, fired, "beyond"))

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert fired == [("within", 0.1 + 5e-13, 0.1), ("beyond", 0.1 + 1e-11, 0.2)]

    def test_a_follow_up_at_the_fire_time_fires_in_the_same_step(self, params):
        def plan(api, fired):
            def first(t):
                fired.append(("first", t, api.now()))
                api.schedule(0.0, log(api, fired, "follow-up"))

            api.schedule(0.05, first)

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert fired == [("first", 0.05, 0.1), ("follow-up", 0.1, 0.1)]

    def test_a_follow_up_with_a_positive_delay_fires_in_a_later_step(self, params):
        def plan(api, fired):
            def first(t):
                fired.append(("first", t, api.now()))
                api.schedule(0.15, log(api, fired, "follow-up"))

            api.schedule(0.05, first)

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert [(label, t) for label, t, _ in fired] == [
            ("first", 0.05), ("follow-up", pytest.approx(0.25))
        ]
        assert [now for _, _, now in fired] == pytest.approx([0.1, 0.3])

    def test_timers_of_both_nodes_fire_in_one_time_order(self, params):
        shared = []

        def plan(api, fired):
            for delay in (0.3, 0.1):
                api.schedule(delay, log(api, shared, (api.node_id, delay)))

        engine, _ = timer_engine(params, plan, other_plan=plan)
        engine.run(1.0)
        # Equal times fire in insertion order: node 0 started first.
        assert [label for label, _, _ in shared] == [
            (0, 0.1), (1, 0.1), (0, 0.3), (1, 0.3)
        ]

    def test_a_timer_due_after_the_run_end_fires_when_the_run_continues(
        self, params
    ):
        def plan(api, fired):
            api.schedule(0.2, log(api, fired, "early"))
            api.schedule(1.5, log(api, fired, "late"))

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert [label for label, _, _ in fired] == ["early"]
        engine.run(1.0)
        assert [(label, t) for label, t, _ in fired] == [
            ("early", 0.2), ("late", 1.5)
        ]


class TestRefusedInput:
    def test_a_negative_delay_is_refused(self, params):
        engine, _ = timer_engine(params, lambda api, fired: None)
        with pytest.raises(EngineError, match="past"):
            engine.algorithm(0).api.schedule(-1.0, lambda t: None)

    def test_a_non_callable_callback_is_refused(self, params):
        engine, _ = timer_engine(params, lambda api, fired: None)
        with pytest.raises(EngineError, match="callable"):
            engine.algorithm(0).api.schedule(1.0, "nope")

    def test_a_zero_delay_runaway_raises_instead_of_hanging(self, params):
        def plan(api, fired):
            def reschedule(t):
                fired.append(t)
                api.schedule(0.0, reschedule)

            api.schedule(0.05, reschedule)

        engine, fired = timer_engine(params, plan)
        with pytest.raises(EngineError, match="rescheduling itself"):
            engine.run(1.0)
        assert len(fired) == 10000

    def test_more_than_10000_timers_due_at_once_are_not_a_runaway(self, params):
        def plan(api, fired):
            for _ in range(10001):
                api.schedule(0.05, fired.append)

        engine, fired = timer_engine(params, plan)
        engine.run(1.0)
        assert fired == [0.05] * 10001


class CountingEngine(FastEngine):
    """``fast`` with a per-iteration hook that counts its calls."""

    iterations = 0

    def _advance(self, end_time):
        self.iterations += 1
        self.step()


def test_an_engine_that_overrides_only_the_loop_hook_runs_fast_bit_for_bit(
    monkeypatch,
):
    spec = staged_insertion_spec().with_backend("fast")
    expected = execute_spec(spec)
    engines = []

    def build(graph, algorithm_factory, config):
        engines.append(CountingEngine(graph, algorithm_factory, config))
        return engines[-1]

    monkeypatch.setattr(backend_mod.get_backend("fast"), "build", build)
    payload = execute_spec(spec)
    (engine,) = engines
    assert engine.iterations == round(engine.time / engine.dt) > 0
    for result in (expected, payload):
        result.pop("wall_time")
    assert json.dumps(payload) == json.dumps(expected)
