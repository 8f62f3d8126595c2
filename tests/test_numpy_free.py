"""The numpy-free path, run on any machine.

Without numpy (CI's 3.9 leg) the reference and fast engines still feed the
metrics pipeline, as Python lists reduced by ``ColumnsView``.  This test
runs one ``reference`` and one ``fast`` spec in a subprocess whose import
system refuses ``numpy``, and holds each result's summary, observers and
trace to the same spec run in this process.  The test modules that gate the
``jit`` kernel run under pytest in such a subprocess too: their ``jit``
cases must skip there, not error.  Standard library only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments import execute_spec, scenario

#: Makes ``numpy`` unimportable in the process that runs it.
REFUSE_NUMPY = r"""
import importlib.abc, json, sys

class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is refused in this process", name=name)
        return None

sys.meta_path.insert(0, RefuseNumpy())
"""

#: Runs each spec read from stdin with ``numpy`` unimportable and prints
#: the ``{summary, observers, trace}`` of each result as one JSON list.
CHILD = REFUSE_NUMPY + r"""
from repro.experiments import ScenarioSpec, execute_spec

results = []
for spec in json.loads(sys.stdin.read()):
    payload = execute_spec(ScenarioSpec.from_dict(spec))
    results.append({key: payload[key] for key in ("summary", "observers", "trace")})
assert not any(name.partition(".")[0] == "numpy" for name in sys.modules)
print(json.dumps(results))
"""

#: Runs pytest on its arguments with ``numpy`` unimportable.
PYTEST_CHILD = REFUSE_NUMPY + r"""
import pytest

sys.exit(pytest.main(sys.argv[1:]))
"""

KEYS = ("summary", "observers", "trace")

TESTS = Path(__file__).resolve().parent


def run_child(args, stdin=""):
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c"] + args,
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=TESTS.parent,
        timeout=300,
    )


def test_reference_and_fast_agree_without_numpy():
    base = scenario("quickstart_line", n=6, duration=20.0)
    specs = [base.with_backend("reference"), base.with_backend("fast")]
    child = run_child([CHILD], json.dumps([spec.to_dict() for spec in specs]))
    assert child.returncode == 0, child.stderr
    without_numpy = json.loads(child.stdout)
    assert len(without_numpy) == len(specs)
    for spec, result in zip(specs, without_numpy):
        payload = execute_spec(spec)
        in_process = json.loads(json.dumps({key: payload[key] for key in KEYS}))
        assert result == in_process, spec.backend
        assert result["trace"] and result["observers"]


def test_jit_gates_skip_without_numpy():
    modules = ["test_streaming_memory.py", "test_jitsim_backend.py"]
    child = run_child(
        [PYTEST_CHILD, "-q", "-rs", "-p", "no:cacheprovider"]
        + [str(TESTS / module) for module in modules]
    )
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.splitlines()
    assert not {"error", "errors", "failed"} & set(lines[-1].replace(",", "").split())
    skipped = "\n".join(line for line in lines if line.startswith("SKIPPED"))
    assert "[2] tests/test_streaming_memory.py" in skipped, skipped
    assert "tests/test_jitsim_backend.py" in skipped, skipped
