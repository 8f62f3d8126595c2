"""E11 -- Backend speed: struct-of-arrays and vectorized engines vs reference.

The fast backend (:mod:`repro.fastsim`) and the NumPy-vectorized vec backend
(:mod:`repro.vecsim`) must be bit-identical to the reference engine on the
scenarios they support *and* markedly faster -- the acceptance bars are a
>= 3x speedup of fast over reference on the n = 1024 line (6.9x in
``BENCH_fastsim.json``), and >= 5x of vec over fast at n = 1024 rising to
>= 20x at n = 4096 (see ``BENCH_vecsim.json``).
This benchmark times the backends on the ``backend_bench`` scenario family
(two-group adversary, adversarial initial ramp, ``toward_observer``
estimates) and writes a snapshot to
``benchmarks/results/e11_backend_speed.json``.

The default pytest invocation keeps the grid small so CI stays fast; run

    PYTHONPATH=src python -m repro.experiments bench

for the reference-vs-fast n in {64, 256, 1024} x {line, grid, random} sweep
(the repo's ``BENCH_fastsim.json`` trajectory), and

    PYTHONPATH=src python -m repro.experiments bench \
        --backends fast,vec --sizes 64,256,1024,4096 \
        --output BENCH_vecsim.json

for the fast-vs-vec trajectory up to n = 4096 (``BENCH_vecsim.json``).
"""

import importlib.util
from pathlib import Path

from repro.analysis import report
from repro.experiments.bench import run_backend_bench, write_bench_json

from common import emit

#: Small grid for the pytest/CI run; the CLI covers the full trajectory.
SIZES = (64,)
TOPOLOGIES = ("line",)
DURATION = 10.0

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
BACKENDS = ("reference", "fast", "vec") if HAVE_NUMPY else ("reference", "fast")

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "e11_backend_speed.json"


def run_bench():
    return run_backend_bench(
        sizes=SIZES,
        topologies=TOPOLOGIES,
        duration=DURATION,
        repeats=1,
        backends=BACKENDS,
    )


def test_e11_backend_speed(benchmark):
    payload = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    columns = ["topology", "n", "steps"]
    columns += [f"{name} [s]" for name in BACKENDS]
    columns += ["speedup", "identical"]
    table = report.Table(
        "E11: engine backend speed (reference vs fast vs vec)", columns
    )
    for entry in payload["results"]:
        row = [entry["topology"], entry["n"], entry["steps"]]
        row += [entry[f"{name}_seconds"] for name in BACKENDS]
        row += [entry["speedup"], "yes" if entry["traces_identical"] else "NO"]
        table.add_row(*row)
    emit(table, "e11_backend_speed.txt")
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    write_bench_json(payload, RESULTS_JSON)

    for entry in payload["results"]:
        # Equivalence is non-negotiable; speed must clear a conservative bar
        # even on slow CI machines (the full bench shows 4-7x fast and far
        # more for vec at large n; at n = 64 the numpy dispatch overhead
        # keeps vec modest, so it only has to beat the reference engine).
        assert entry["traces_identical"] is True
        assert entry["speedup"] >= 2.0
        if HAVE_NUMPY:
            assert entry["vec_speedup_over_reference"] >= 1.0
