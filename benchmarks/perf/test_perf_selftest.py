"""Self-tests of the benchmark harness (``pytest benchmarks/perf``).

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import catalog  # noqa: E402
import compare  # noqa: E402
import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None):
    span = spans.Span(name, None, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_child_coverage_once():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 5.0, 7.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children():
    recorded = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 6.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),  # overlaps a on [4, 6]
        _span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 7.0 - 1.0)
    totals = spans.totals_by_name(recorded)
    assert totals["root"]["count"] == 1
    assert totals["a"]["self_s"] == pytest.approx(5.0)


def test_recorder_nests_by_thread_and_inherits_ident():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    with rec.span("root", "abc"):
        with rec.span("child"):
            pass
    root, child = rec.spans
    assert (root.parent, child.parent, child.ident) == (None, 0, "abc")
    assert (root.start, child.start, child.end, root.end) == (0.0, 1.0, 2.0, 3.0)


# ----------------------------------------------------------------------
# The percentile / sample-count rule
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert spans.percentile([1, 2, 3, 4, 5], 50) == 3
    assert spans.percentile([0, 10], 95) == pytest.approx(9.5)


@pytest.mark.parametrize(
    "count, q, allowed",
    [(19, 50.0, False), (20, 50.0, True), (199, 95.0, False), (200, 95.0, True),
     (999, 99.0, False), (1000, 99.0, True), (10000, 99.9, True)],
)
def test_percentile_needs_ten_samples_beyond(count, q, allowed):
    assert spans.percentile_allowed(count, q) is allowed


# ----------------------------------------------------------------------
# Machine-speed normalisation
# ----------------------------------------------------------------------
def test_speed_meter_scales_an_interval_by_the_mean_speed_around_it():
    # reference reading 20 ms: the third sample ran at half speed
    meter = calib.SpeedMeter([(0.0, 0.02), (1.0, 1.02), (2.0, 2.04)], ref_s=0.02)
    assert meter.speed(0.0, 1.1) == pytest.approx(1.0)
    assert meter.speed(1.9, 2.1) == pytest.approx(0.5)
    assert meter.normalised(1.9, 2.1) == pytest.approx(0.1)
    # in-thread samples are not part of the work they interrupt
    assert meter.normalised(1.9, 2.1, own_thread=True) == pytest.approx((0.2 - 0.04) * 0.5)
    # far from every sample: the nearest one; no samples at all: speed 1
    assert meter.speed(10.0, 10.1) == pytest.approx(0.5)
    assert calib.SpeedMeter([], ref_s=0.02).normalised(3.0, 5.0) == pytest.approx(2.0)


def test_thread_sampler_samples_between_bytecodes_of_the_main_thread():
    import time

    sampler = calib.ThreadSampler().start()
    deadline = time.perf_counter() + 0.5
    while time.perf_counter() < deadline:
        pass
    meter = sampler.stop()
    assert 2 <= len(meter.samples) <= 6
    assert meter.normalised(deadline - 0.5, deadline, own_thread=True) > 0.0


# ----------------------------------------------------------------------
# Seed determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_same_seed_same_hashes_and_order(name):
    first = [spec.content_hash() for spec in workloads.build_specs(name, 7, "smoke")]
    second = [spec.content_hash() for spec in workloads.build_specs(name, 7, "smoke")]
    assert first == second


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_other_seed_changes_every_hash_but_no_size(name):
    left = workloads.build_specs(name, 1, "smoke")
    right = workloads.build_specs(name, 2, "smoke")
    assert not {s.content_hash() for s in left} & {s.content_hash() for s in right}

    def sizes(specs):
        return sorted(
            (workloads.spec_key(s), workloads.node_count(s), workloads.step_count(s), s.backend)
            for s in specs
        )

    assert sizes(left) == sizes(right)


def test_service_jobs_are_deterministic_and_disjoint():
    first = workloads.service_jobs(3, "smoke")
    second = workloads.service_jobs(3, "smoke")
    flat = [spec.content_hash() for client in first["cold"] for job in client for spec in job]
    assert flat == [s.content_hash() for client in second["cold"] for job in client for s in job]
    shared = [spec.content_hash() for job in first["shared"] for spec in job]
    # every (scenario, backend) once: hashes repeat only across backends
    keys = [workloads.spec_key(s) for c in first["cold"] for j in c for s in j]
    assert len(set(keys)) == len(keys)
    assert not set(flat) & set(shared)


def test_compress_scales_time_arguments_only():
    spec = workloads.base_specs("observed_mid", "smoke")[0]  # the churn grid
    half = workloads.compress(spec, 0.5)
    assert half.sim["duration"] == spec.sim["duration"] * 0.5
    assert half.sim["dt"] == spec.sim["dt"]
    assert half.dynamics.args["period"] == spec.dynamics.args["period"] * 0.5
    assert half.dynamics.args["n_candidates"] == spec.dynamics.args["n_candidates"]
    assert half.topology == spec.topology


# ----------------------------------------------------------------------
# BENCHMARK.json: names, caps, and agreement with the catalog
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalog_and_the_contract_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER
    ]
    assert set(catalog.WATERFALL) <= set(catalog.per_layer_names())
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME_RE.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in doc["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25
    assert any(
        (m["name"], m["unit"], m["better"]) == ("setup_s", "s", "lower")
        for m in doc["end_to_end"]
    )
    for workload in doc["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_readme_names_every_workload_and_metric():
    readme = (HERE / "README.md").read_text()
    names = list(workloads.WORKLOAD_NAMES) + catalog.end_to_end_names() + catalog.per_layer_names()
    assert [name for name in names if f"`{name}`" not in readme] == []


# ----------------------------------------------------------------------
# --compare verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.10)["verdict"] == "ok"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10)["verdict"] == "worse"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10)["verdict"] == "worse"
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0]
    assert compare.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.10)["verdict"] == "unresolved"
    assert compare.verdict(noisy, [10.0, 20.0, 15.0], "lower", 0.10)["verdict"] == "ok"
    assert compare.verdict(noisy, [400.0, 500.0, 450.0], "lower", 0.10)["verdict"] == "worse"


# ----------------------------------------------------------------------
# The golden gate really gates
# ----------------------------------------------------------------------
def _smoke(*extra):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "scale_static",
         "--trace", "0", "--seed", "0", *extra],
        capture_output=True, text=True, timeout=300,
    )


def test_perturbed_golden_digest_fails_the_command(tmp_path):
    ok = _smoke()
    assert ok.returncode == 0, ok.stdout + ok.stderr
    last = json.loads(ok.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(catalog.end_to_end_names())

    golden = gates.load_golden()
    key = sorted(golden["smoke"]["scale_static"])[0]
    digest = golden["smoke"]["scale_static"][key]
    golden["smoke"]["scale_static"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    perturbed = tmp_path / "golden.json"
    perturbed.write_text(json.dumps(golden))
    bad = _smoke("--golden", str(perturbed))
    assert bad.returncode != 0
    assert "golden:" in bad.stdout
    assert json.loads(bad.stdout.strip().splitlines()[-1])["correct"] is False


# ----------------------------------------------------------------------
# No process outlives the command
# ----------------------------------------------------------------------
def test_stop_stragglers_kills_and_waits_for_marked_processes(monkeypatch):
    import run

    monkeypatch.setenv(run.RUN_MARK, "selftest.1")
    # its own session, like the orphaned daemon of a killed child
    orphan = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                              start_new_session=True)
    try:
        run.stop_stragglers()
        assert orphan.wait(5) == -9
    finally:
        orphan.kill()
        orphan.wait()


def test_no_benchmark_file_uses_multiprocessing():
    # its resource tracker process outlives the command by a moment
    offenders = [
        path.name
        for path in sorted(HERE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            name.split(".")[0] == "multiprocessing"
            for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        )
    ]
    assert not offenders


# ----------------------------------------------------------------------
# Only public names of repro are imported
# ----------------------------------------------------------------------
def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_benchmark_file_imports_a_private_name_from_repro():
    offenders = []
    for path in sorted(HERE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                parts = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                parts = [
                    part
                    for alias in node.names
                    if alias.name.split(".")[0] == "repro"
                    for part in alias.name.split(".")
                ]
            else:
                continue
            offenders += [f"{path.name}: {part}" for part in parts if _private(part)]
    assert not offenders
