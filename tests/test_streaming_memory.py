"""The streaming-observer memory contract, counted in bytes.

A ``trace: none`` run keeps only its observers' running state, so its peak
memory does not grow with the run's duration; a full trace keeps every
sample, so the same run with a trace needs several times more.  Peaks are
``tracemalloc``'s, of ``execute_spec`` -- the whole way from spec to payload.
Steps of 0.5 keep the sample count (one per time unit) and cut the stepping,
which ``tracemalloc`` slows tenfold on the stdlib engine.
"""

import gc
import tracemalloc

import pytest

from repro.experiments import execute_spec
from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
from repro.fastsim.backend import backend_available


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
        pytest.param(
            "vec",
            256,
            marks=pytest.mark.skipif(
                not backend_available("vec"), reason="numpy is not installed"
            ),
        ),
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
