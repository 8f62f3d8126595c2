"""``SEMANTICS``: the committed digest of the code that decides results.

The cache serves an entry only when the digest in its head line is the
current one, so a change to that code must bump the constant; the first
test fails until it does and prints the value to commit.
"""

import json
import shutil

from repro.experiments import execute_spec, run_sweep, scenario, semantics
from repro.experiments.executor import ResultCache
from repro.experiments.semantics import SEMANTICS, compute_semantics, result_files


def test_committed_digest_is_current():
    current = compute_semantics()
    assert current == SEMANTICS, (
        "code that decides results changed: set SEMANTICS = "
        f"{current!r} in src/repro/experiments/semantics.py"
    )


def test_digest_covers_every_result_deciding_file():
    names = {path.relative_to(path.parents[1]).as_posix() for path in result_files()}
    assert {
        "core/triggers.py",
        "metrics/observers.py",
        "network/paths.py",
        "jitsim/_fused_loop.c",
        "experiments/registry.py",
        # Spec to payload, and the sanitising every payload goes through.
        "experiments/results.py",
        "telemetry/schema.py",
    } <= names
    assert not any(name.startswith("service/") for name in names)


def test_every_function_that_builds_a_payload_is_digested():
    """What the executor runs a spec with comes from a digested module: the
    executor itself (pool, cache) decides no result bit."""
    from repro.experiments import executor, results

    for name in ("execute_spec", "meta_from_payload"):
        assert getattr(executor, name) is getattr(results, name)
    assert executor.CACHE_FORMAT_VERSION is results.CACHE_FORMAT_VERSION
    names = {path.relative_to(path.parents[1]).as_posix() for path in result_files()}
    for function in (results._payload_for, results.execute_spec, results.sanitize_json):
        module = function.__module__.replace("repro.", "", 1).replace(".", "/") + ".py"
        assert module in names


def test_digest_reads_code_not_prose(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(semantics.result_files()[0].parents[1], root)
    triggers = root / "core" / "triggers.py"
    kernel = root / "jitsim" / "_fused_loop.c"
    source, c_source = triggers.read_text(), kernel.read_bytes()
    base = compute_semantics(root)

    triggers.write_text(
        '"""Reworded."""\n# a new comment\n' + source.replace('"""', '"""Also: ', 1)
    )
    assert compute_semantics(root) == base
    assert ">=" in source
    triggers.write_text(source.replace(">=", ">", 1))
    assert compute_semantics(root) != base
    triggers.write_text(source)
    kernel.write_bytes(c_source + b"\n")
    assert compute_semantics(root) != base


def test_an_entry_written_under_other_semantics_is_run_again(tmp_path):
    spec = scenario("quickstart_line", n=4, sim={"duration": 4.0, "dt": 0.1})
    cache = ResultCache(tmp_path)
    (run,), _ = run_sweep([spec], cache=cache)
    path = cache.path_for(spec)
    stored = json.loads(path.read_text())
    assert stored["semantics"] == SEMANTICS
    stored["semantics"] = "0" * 32  # what an older checkout wrote
    path.write_text(json.dumps(stored))
    (again,), stats = run_sweep([spec], cache=ResultCache(tmp_path))
    assert (stats.cached, stats.executed) == (0, 1)
    assert again.summary == run.summary
    assert json.loads(path.read_text())["semantics"] == SEMANTICS


def test_the_cache_is_the_one_writer_of_semantics(tmp_path):
    spec = scenario("quickstart_line", n=4, sim={"duration": 4.0, "dt": 0.1})
    payload = execute_spec(spec)
    assert "semantics" not in payload  # a result, not yet an entry
    cache = ResultCache(tmp_path)
    cache.store(spec, payload)
    assert "semantics" not in payload  # stamped on the entry, not the caller's dict
    assert json.loads(cache.path_for(spec).read_text())["semantics"] == SEMANTICS
    assert ResultCache(tmp_path).load(spec) is not None
