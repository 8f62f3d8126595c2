"""Machine-speed calibration: a control variate against sandbox noise.

The sandboxes this benchmark runs in are small shared VMs whose speed swings
by tens of percent within seconds and for minutes at a time (measured here,
on an otherwise idle machine: a fixed pure-Python loop read 75-150 ms within
one minute; ten consecutive runs of one workload spread by 20-45 %).
Reporting medians does not remove a slowdown that outlasts the run, so every
*timed* end-to-end metric is machine-speed normalised instead: one fixed
calibration loop is timed about nine times a second next to the work,
``ref_s / sample`` is the machine's speed at that moment relative to a
reference reading, and a measured interval counts as ``length x mean speed
over the interval`` seconds -- the time the same work takes on the reference
machine.  On a quiet machine of the reference class the speed is 1 and
nothing changes; under a noisy neighbour both the work and the loop slow down
and the product stays put.

Two samplers, because the loop must run where the work runs:

* :class:`ThreadSampler` -- an interval timer whose handler runs the loop in
  the main thread, between the bytecodes of the work itself.  Used for the
  in-process ``run_sweep`` passes (one busy core: a sampler on the *other*,
  idle core reads that core's wake-up state, not the work's speed).  The
  time spent in the handler is taken out of the measured interval.
* :class:`Sampler` -- a separate process at a 10 % duty cycle.  Used for the
  daemon phases and the set-up, where the work is spread over several
  processes and both cores (measured: correlation 0.9+ with the work).

The raw wall-clock figures are printed beside the normalised ones, and
per-layer metrics (traced runs) stay raw.
"""

from __future__ import annotations

import bisect
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: The calibration loop's duration on the reference machine (2-core 2.1 GHz
#: Xeon VM, CPython 3.11): read hot in the working thread, and read by a
#: process that sleeps between samples (slower: it wakes to a cold core).
REF_THREAD_S = 0.0103
REF_PROCESS_S = 0.0139
#: Pause between two samples (about a 10 % duty cycle).
PAUSE_S = 0.1
#: Short intervals borrow the samples this far on either side.
WINDOW_S = 0.5


_BLOB = json.dumps(
    {
        "samples": [
            {
                "time": float(i),
                "logical": {str(node): node * 0.5 for node in range(24)},
                "modes": {str(node): "fast" for node in range(24)},
            }
            for i in range(60)
        ]
    }
)


def loop() -> int:
    """The calibration loop: the codebase's instruction mix in miniature.

    A third interpreter arithmetic, a third JSON parsing (C code that
    allocates heavily, like every cache load), a third dict/list building.
    Measured on ``paper_sweep``'s warm passes over ten minutes of drifting
    machine speed: raw spread 25.9 %, normalised by an arithmetic-only loop
    12.1 %, by this mix 6.3 % -- a neighbour that thrashes the shared cache
    slows allocation-heavy work more than a register-bound loop shows.
    """
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(6):
        total += len(json.loads(_BLOB))
    table = {}
    for i in range(18_000):
        table[i & 2047] = [i, i * 0.5]
    return total + len(table)


def _sampler_main() -> None:
    """``python3 calib.py``: sample until a line (or EOF) arrives on stdin."""
    samples: List[Tuple[float, float]] = []
    # perf_counter is CLOCK_MONOTONIC on Linux: one timeline for every
    # process of the run.
    while not select.select([sys.stdin], [], [], PAUSE_S)[0]:
        started = time.perf_counter()
        loop()
        samples.append((started, time.perf_counter()))
    if sys.stdin.readline():  # EOF instead: the owner is gone
        sys.stdout.write(json.dumps(samples))


class SpeedMeter:
    """Machine speed over time, from ``(start, end)`` calibration samples."""

    def __init__(self, samples: Sequence[Tuple[float, float]], ref_s: float):
        self.samples = sorted(samples)
        self._mids = [(start + end) / 2.0 for start, end in self.samples]
        self._speeds = [ref_s / (end - start) for start, end in self.samples]

    def speed(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` widened by ``WINDOW_S``; the
        nearest sample's when none falls inside; 1 without any sample."""
        if not self._mids:
            return 1.0
        lo = bisect.bisect_left(self._mids, start - WINDOW_S)
        hi = bisect.bisect_right(self._mids, end + WINDOW_S)
        if lo < hi:
            return statistics.fmean(self._speeds[lo:hi])
        nearest = min(max(lo - 1, 0), len(self._mids) - 1)
        if lo < len(self._mids) and abs(self._mids[lo] - start) < abs(self._mids[nearest] - start):
            nearest = lo
        return self._speeds[nearest]

    def normalised(self, start: float, end: float, *, own_thread: bool = False) -> float:
        """``[start, end]`` in reference-machine seconds.

        ``own_thread``: the samples were taken in the measured thread, so the
        time inside them is not part of the work.
        """
        length = end - start
        if own_thread:
            lo = bisect.bisect_left(self._mids, start)
            hi = bisect.bisect_right(self._mids, end)
            length -= sum(s_end - s_start for s_start, s_end in self.samples[lo:hi])
        return length * self.speed(start, end)

    def median_speed(self) -> float:
        return statistics.median(self._speeds) if self._speeds else 1.0


class Sampler:
    """The calibration process; :meth:`stop` returns its :class:`SpeedMeter`."""

    def __init__(self):
        # A plain subprocess, not ``multiprocessing``: that starts a resource
        # tracker process which outlives the command by a moment.
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._meter: Optional[SpeedMeter] = None

    def stop(self) -> SpeedMeter:
        """Stop the process (once), wait for it, return the meter over its samples."""
        if self._meter is not None:
            return self._meter
        samples: List[Tuple[float, float]] = []
        try:
            out, _ = self._process.communicate(b"stop\n", timeout=10.0)
            samples = [tuple(pair) for pair in json.loads(out)]
        except (subprocess.TimeoutExpired, ValueError, OSError):
            pass
        finally:
            if self._process.poll() is None:
                self._process.kill()
            self._process.wait()
            for pipe in (self._process.stdin, self._process.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass
        self._meter = SpeedMeter(samples, REF_PROCESS_S)
        return self._meter


class ThreadSampler:
    """Runs the loop in the main thread every ``PAUSE_S`` (``SIGALRM``)."""

    def __init__(self):
        self._samples: List[Tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        loop()
        self._samples.append((started, time.perf_counter()))

    def start(self) -> "ThreadSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PAUSE_S, PAUSE_S)
        return self

    def stop(self) -> SpeedMeter:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return SpeedMeter(self._samples, REF_THREAD_S)


if __name__ == "__main__":
    _sampler_main()
