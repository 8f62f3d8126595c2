"""The benchmark harness's smoke run, as a test.

``benchmarks/perf/run.py --smoke`` runs every workload shrunk, untraced and
traced, with all of its gates on: the seed-0 golden digests in
``benchmarks/perf/golden.json`` pin every result bit.  Running it here means
a change that breaks what the harness imports, or moves a result bit, fails
the suite instead of only the benchmark.  About 30 s.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.jitsim import providers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    providers._find_compiler() is None, reason="no C compiler here"
)


def test_smoke_run_passes_every_gate_on_the_compiled_kernel():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"), "--smoke"],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    out = proc.stdout
    assert proc.returncode == 0, out[-4000:]
    last = out.strip().splitlines()[-1]
    total = re.fullmatch(r"total: 0 failed of (\d+) attempted", last)
    assert total and int(total.group(1)) > 0, last
    records = re.findall(r"^== (\S+) seed=0 .* jit_provider=(\S+)$", out, re.M)
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    expected = sorted(entry["name"] for entry in workloads for _ in (0, 1))
    assert sorted(name for name, _ in records) == expected
    assert {provider for _, provider in records} == {"cc"}
