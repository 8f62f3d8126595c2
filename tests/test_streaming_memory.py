"""The streaming-observer memory contract, counted in bytes.

A ``trace: none`` run keeps only its observers' running state, so its peak
memory does not grow with the run's duration; a full trace keeps every
sample, so the same run with a trace needs several times more.  Peaks are
``tracemalloc``'s, of ``execute_spec`` -- the whole way from spec to payload.
Steps of 0.5 keep the sample count (one per time unit) and cut the stepping,
which ``tracemalloc`` slows tenfold on the stdlib engine.

On ``jit`` a run without drift swaps fuses every step, so the same
contract holds the kernel's buffers: message slots for the messages in
flight only, and at most ``_MAX_SEGMENT_SNAPSHOT`` node-samples of
snapshots per segment.

A finished columnar engine is freed by reference counting when its run
returns, handshake checks still pending or not: they are plain data on the
engine, not closures over it, so it is in no reference cycle and its graph
copy and trace do not wait for the next full collection.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from conftest import needs_jit, needs_vec
from repro.experiments import execute_spec, registry, scenario
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.experiments.spec import ComponentSpec
from repro.fastsim.backend import get_backend


def peak_bytes(spec):
    gc.collect()
    tracemalloc.start()
    try:
        execute_spec(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "backend, n",
    [
        ("fast", 64),
        pytest.param("vec", 256, marks=needs_vec),
    ],
)
def test_trace_none_peak_is_flat_in_duration_and_far_below_a_full_trace(backend, n):
    def spec(duration, trace="none"):
        built = bench_spec("line", n, duration=duration, dt=0.5, backend=backend)
        if trace == "none":
            return built.with_trace("none").with_observers(*BENCH_OBSERVERS)
        return built

    # First-use allocations (numpy's, the kernel tables') stay out of the peaks.
    execute_spec(spec(2.0))
    short = peak_bytes(spec(25.0))
    long = peak_bytes(spec(100.0))
    full = peak_bytes(spec(100.0, "full"))
    assert long <= 1.25 * short, (short, long)
    assert full >= 5 * long, (long, full)


@needs_jit
@pytest.mark.parametrize("n, short_duration", [(1024, 400.0), (256, 1500.0)])
def test_jit_trace_none_peak_is_flat_in_the_length_of_a_fused_segment(
    n, short_duration
):
    def spec(duration):
        built = bench_spec("line", n, duration=duration, dt=0.5, backend="jit")
        built = replace(built, drift=ComponentSpec("none"))
        return built.with_trace("none").with_observers(*BENCH_OBSERVERS)

    execute_spec(spec(2.0))
    short = peak_bytes(spec(short_duration))
    long = peak_bytes(spec(4 * short_duration))
    assert long <= 1.1 * short, (short, long)
    assert long <= 32 * 2**20, long


@pytest.mark.parametrize(
    "backend",
    [
        "fast",
        pytest.param("vec", marks=needs_vec),
        pytest.param("jit", marks=needs_jit),
    ],
)
def test_a_finished_engine_with_checks_pending_leaves_no_cycle(backend):
    # Cut at t = 25 the storm's shortcut churn has handshakes under way.
    spec = scenario("random_broadcast_delay_storm", n=12, duration=25.0)
    spec = spec.with_backend(backend)
    execute_spec(spec)  # first-use allocations (numpy's) stay out of the count
    built = registry.build_scenario(spec)
    engine = get_backend(backend).build(
        built.graph, built.algorithm_factory, built.config
    )
    engine.run(built.config.duration)
    assert engine._timers  # the run ended mid-handshake
    gc.collect()
    gc.disable()
    try:
        freed = weakref.ref(engine)
        del engine
        assert freed() is None
        execute_spec(spec)
        assert gc.collect() == 0  # a whole run leaves nothing to collect
    finally:
        gc.enable()
