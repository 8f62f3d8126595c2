"""``--ladder``: push the size axis past 4096 until a layer breaks.

Opt-in, outside the benchmark contract's timed runs.  For ``scale_static``'s
grid and random topologies on ``jit`` with ``trace: none`` and the scalar
observers, each size runs the traced composition of one spec in a child
interpreter (``python3 ladder.py PARAMS``).  The child reports every span as
it opens and closes, one JSON line each, so when a single layer span exceeds
``SPAN_CAP_S`` the parent kills the child and records *which* layer hit the
cap; larger sizes of that topology are then skipped.
"""

from __future__ import annotations

import collections
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

import spans as spans_mod

SIZES = (1024, 4096, 16384, 65536)
TOPOLOGIES = ("grid", "random")
STEPS = 200
SPAN_CAP_S = 120.0


class _ReportingRecorder(spans_mod.Recorder):
    """A recorder that tells the parent when a span opens and closes."""

    @contextmanager
    def span(self, name: str, ident: Optional[str] = None) -> Iterator[spans_mod.Span]:
        _report("open", name)
        with super().span(name, ident) as span:
            yield span
        _report("close", name)


def _report(kind: str, payload: Any) -> None:
    print(json.dumps([kind, payload]), flush=True)


def _child(params: Dict[str, Any]) -> None:
    sys.path.insert(0, params["src_dir"])
    work = Path(params["work_dir"])
    os.environ["REPRO_EXPERIMENTS_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_JIT_CACHE_DIR"] = str(work / "jit")
    from repro.experiments.bench import BENCH_OBSERVERS, bench_spec
    from repro.experiments.executor import ResultCache

    import catalog
    import inprocess

    spec = (
        bench_spec(params["kind"], params["n"], duration=STEPS * 0.1, backend="jit")
        .with_trace("none")
        .with_observers(*BENCH_OBSERVERS)
    )
    # Compile and warm up outside the spans.
    inprocess.traced_spec(
        spans_mod.Recorder(), bench_spec("line", 8, duration=2.0, backend="jit"),
        ResultCache(work / "cache"), collections.defaultdict(float),
    )
    rec = _ReportingRecorder()
    inprocess.traced_spec(rec, spec, ResultCache(work / "cache"), collections.defaultdict(float))
    totals = spans_mod.totals_by_name(rec.spans)
    wall = totals[catalog.ROOT_SPAN]["total_s"]
    _report("done", {
        "wall_s": wall,
        "layers": {
            name: {"self_s": entry["self_s"], "share": entry["self_s"] / wall}
            for name, entry in sorted(totals.items(), key=lambda item: -item[1]["self_s"])
        },
    })


def _run_size(kind: str, n: int, work_dir: Path, src_dir: Path) -> Dict[str, Any]:
    params = {"kind": kind, "n": n, "work_dir": str(work_dir), "src_dir": str(src_dir)}
    process = subprocess.Popen(
        [sys.executable, __file__, json.dumps(params)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    reports: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        for line in process.stdout:
            reports.put(line)
        reports.put(None)

    pump_thread = threading.Thread(target=pump, name="ladder-pump")
    pump_thread.start()
    open_span: Optional[str] = None
    finished: List[str] = []
    entry: Dict[str, Any] = {"topology": kind, "n": n, "steps": STEPS}
    try:
        while True:
            try:
                line = reports.get(timeout=SPAN_CAP_S)
            except queue.Empty:
                entry.update(capped_layer=open_span or "setup", cap_s=SPAN_CAP_S,
                             finished_layers=finished)
                break
            if line is None:
                entry.update(error="child died", open_layer=open_span)
                break
            try:
                kind_, payload = json.loads(line)
            except ValueError:
                continue  # something else the child printed
            if kind_ == "open":
                open_span = payload
            elif kind_ == "close":
                finished.append(payload)
                open_span = "executor.spec"
            else:
                entry.update(payload)
                break
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        pump_thread.join()
        process.stdout.close()
    return entry


def main(out: Optional[str], work_root: Path, src_dir: Path) -> int:
    base = Path(work_root) / f"ladder-{os.getpid()}"
    results: List[Dict[str, Any]] = []
    try:
        for kind in TOPOLOGIES:
            for n in SIZES:
                work_dir = base / f"{kind}-{n}"
                work_dir.mkdir(parents=True, exist_ok=True)
                started = time.perf_counter()
                entry = _run_size(kind, n, work_dir, src_dir)
                entry["elapsed_s"] = time.perf_counter() - started
                results.append(entry)
                if "capped_layer" in entry:
                    print(f"{kind:7s} n={n:6d}: {entry['capped_layer']} exceeded "
                          f"{SPAN_CAP_S:.0f} s -- the first layer to break")
                    break
                if "error" in entry:
                    print(f"{kind:7s} n={n:6d}: {entry['error']} in {entry['open_layer']}")
                    break
                top = list(entry["layers"].items())[:4]
                print(f"{kind:7s} n={n:6d}: wall {entry['wall_s']:8.2f} s  "
                      + "  ".join(f"{name} {layer['share']:.0%}" for name, layer in top))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if out:
        Path(out).write_text(json.dumps({"ladder": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    _child(json.loads(sys.argv[1]))
