"""``--compare A.json B.json``: per workload x end-to-end metric verdicts.

``A`` is the baseline and ``B`` the candidate, both ``--out`` files of
untraced runs.  A metric is ``worse`` when B's median is worse than A's by
more than the metric's bound; where either side's run-to-run spread
(interquartile range over median) is wider than the bound the verdict is
``unresolved`` -- unless every run of B reads better than every run of A
(``ok``) or worse than every run of A (``worse``).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import catalog


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (``None`` under 2 runs)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def _values(payload: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in payload["runs"]
        if run["workload"] == workload and not run["trace"] and metric in run["metrics"]
    ]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worsening = sign * (median_b - median_a) / median_a
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    wide = bool(spreads) and max(spreads) > bound
    if wide:
        if all(sign * y < sign * x for x in a for y in b):
            result = "ok"
        elif worsening > bound and all(sign * y > sign * x for x in a for y in b):
            result = "worse"
        else:
            result = "unresolved"
    else:
        result = "worse" if worsening > bound else "ok"
    return {
        "median_a": median_a,
        "median_b": median_b,
        "ratio": median_b / median_a,
        "worsening": worsening,
        "spread_a": spread(a),
        "spread_b": spread(b),
        "bound": bound,
        "verdict": result,
    }


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    workloads = []
    for run in a["runs"] + b["runs"]:
        if run["workload"] not in workloads:
            workloads.append(run["workload"])
    rows = []
    for workload in workloads:
        for metric in catalog.END_TO_END:
            left, right = _values(a, workload, metric.name), _values(b, workload, metric.name)
            if not left or not right:
                continue
            row = verdict(left, right, metric.better, metric.bound)
            row.update(workload=workload, metric=metric.name, runs_a=len(left), runs_b=len(right))
            rows.append(row)
    return rows


def _percent(value: Optional[float]) -> str:
    return "    -" if value is None else f"{value:5.1%}"


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows = compare(a, b)
    if not rows:
        print("error: the two files share no workload x end-to-end metric")
        return 2
    print(f"{'workload':14s} {'metric':24s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'iqr A':>6s} {'iqr B':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:24s} {row['median_a']:12.5g} "
              f"{row['median_b']:12.5g} {row['ratio']:7.3f} {row['bound']:6.0%} "
              f"{_percent(row['spread_a'])} {_percent(row['spread_b'])}  {row['verdict']}"
              f"  (n={row['runs_a']}/{row['runs_b']})")
    failed = sum(run["failed"] for run in a["runs"] + b["runs"])
    if failed:
        print(f"note: {failed} failed op(s) across both files")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
