"""The correctness gate: digests, golden file, cross-backend equality, invariants.

A *failure* is a short human-readable string; every gate returns the list of
failures it found, and each one counts as a failed op in ``failed_share``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.experiments.results import trace_to_payload
from repro.experiments.spec import canonical_json

import workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: ``paper_sweep`` scenarios whose summaries must satisfy the paper's static
#: invariants (static topology, AOPT, legal initial state).  Everything else
#: is covered by the digests only: crash/restart resets legitimately exceed
#: the configured bound and the ``bench_spec`` grid/random ramps start
#: outside the legal state.
INVARIANT_SCENARIOS = (
    "line_scaling",
    "quickstart_line",
    "ring_sinusoidal_drift",
    "line_broadcast",
)


def digest_payload(payload: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical ``{summary, observers, trace}`` of a result."""
    core = {
        "summary": payload["summary"],
        "observers": payload["observers"],
        "trace": payload["trace"],
    }
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


def digest_run(run) -> str:
    """:func:`digest_payload` of an ``ExperimentRun``."""
    return digest_payload(
        {
            "summary": run.summary.to_dict(),
            "observers": run.report.to_payload(),
            "trace": trace_to_payload(run.trace),
        }
    )


def load_golden(path: Optional[Path] = None) -> Dict[str, Any]:
    return json.loads(Path(path or GOLDEN_PATH).read_text())


def check_golden(
    golden: Mapping[str, Any], profile: str, workload: str, digests: Mapping[str, str]
) -> List[str]:
    """Compare ``{spec_key: digest}`` with the committed seed-0 digests."""
    expected = golden.get(profile, {}).get(workload)
    if expected is None:
        return [f"golden: no {profile}/{workload} section"]
    failures = []
    for key, digest in sorted(digests.items()):
        want = expected.get(key)
        if want is None:
            failures.append(f"golden: no digest for {key}")
        elif want != digest:
            failures.append(f"golden: {key} digest {digest[:12]} != {want[:12]}")
    for key in sorted(set(expected) - set(digests)):
        failures.append(f"golden: {key} was not produced")
    return failures


def check_cross_backend(specs: Sequence, digests: Mapping[str, str]) -> List[str]:
    """Specs sharing a content hash must share one digest on every backend."""
    groups: Dict[str, Dict[str, str]] = {}
    for spec in specs:
        key = workloads.spec_key(spec)
        if key in digests:
            groups.setdefault(spec.content_hash(), {})[key] = digests[key]
    failures = []
    for members in groups.values():
        if len(set(members.values())) > 1:
            failures.append(
                "cross-backend: "
                + ", ".join(f"{key}={digest[:12]}" for key, digest in sorted(members.items()))
            )
    return failures


def check_invariants(specs: Sequence, summaries: Mapping[str, Mapping[str, Any]]) -> List[str]:
    """Corollary 5.26 and the global-skew envelope on the static AOPT specs."""
    failures = []
    for spec in specs:
        if spec.label.split("/")[0] not in INVARIANT_SCENARIOS:
            continue
        key = workloads.spec_key(spec)
        summary = summaries[key]
        if summary["gradient_violations"] != 0:
            failures.append(
                f"invariant: {key} gradient_violations={summary['gradient_violations']}"
            )
        bound = summary["global_skew_bound"]
        if bound is None or summary["max_global_skew"] > bound:
            failures.append(
                f"invariant: {key} max_global_skew={summary['max_global_skew']} "
                f"> bound {bound}"
            )
    return failures


def check_equal(what: str, left: Mapping[str, str], right: Mapping[str, str]) -> List[str]:
    """Two ``{spec_key: digest}`` maps must agree on every shared key."""
    return [
        f"{what}: {key} {left[key][:12]} != {right[key][:12]}"
        for key in sorted(set(left) & set(right))
        if left[key] != right[key]
    ]


def check_outcomes(
    profile: str,
    workload: str,
    seed: int,
    specs: Sequence,
    digests: Mapping[str, str],
    summaries: Mapping[str, Mapping[str, Any]],
    golden: Optional[Mapping[str, Any]],
) -> List[str]:
    """Gate (a) + (b): golden digests at seed 0, cross-backend equality
    otherwise; paper invariants on ``paper_sweep``."""
    failures = check_cross_backend(specs, digests)
    if seed == 0 and golden is not None:
        failures += check_golden(golden, profile, workload, digests)
    if workload == "paper_sweep":
        failures += check_invariants(specs, summaries)
    return failures
