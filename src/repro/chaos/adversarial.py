"""Adversarial schedules: the shifting-argument worst cases as scenarios.

:mod:`repro.lower_bounds.shifting` constructs the execution behind the
``Omega(D)`` global-skew lower bound -- hardware rates ramping along a line
while message delays are extremal in opposite directions, so every node's
observations stay consistent with a much smaller skew than the real one.
This module turns that construction into declarative
:class:`~repro.experiments.spec.ScenarioSpec` payloads in two flavours:

* ``hardware_only`` *accumulation* runs: no correction is applied, so the
  measured final global skew is exactly the skew the adversary built,
  ``2 rho t``.  Sized via :func:`shifting.minimum_time_to_accumulate` times a
  ``duration_factor > 1``, the measured skew provably *exceeds* the analytic
  lower bound ``global_skew_lower_bound`` -- the assertion the chaos pack's
  acceptance check runs.
* ``aopt`` runs: the full algorithm under the same adversary, asserted to
  stay *below* its configured global-skew bound (the upper-bound side of the
  same experiment; the lower bound says no algorithm can beat
  ``sum(eps)/2``, the envelope guarantees AOPT never exceeds ``G~``).

Both flavours use ``estimate_mode="broadcast"`` -- the adversary manipulates
*message* delays, which only matters when estimates travel in messages.  The
``fast``, ``vec`` and ``jit`` backends carry broadcast estimates natively
(columnar message transport, since 1.8.0), so the ``aopt`` flavour runs on
every backend without a fallback.  The ``hardware_only`` flavour is declined
there and runs on reference, because those backends run the AOPT family
only -- not because of its estimate mode.

The packaged ``chaos_shifting_*`` scenario files are generated from this
module (``python -m repro.chaos.adversarial``); the validate lint and the
test suite re-derive each file from :data:`PACKAGED_VARIANTS` and compare
content hashes, so the files can never drift from the lower-bound
construction they claim to encode.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..core.parameters import Parameters
from ..core.skew_estimates import suggest_global_skew_bound
from ..lower_bounds import shifting
from ..metrics import DEFAULT_OBSERVERS, WATCHDOG_NAMES
from ..network.edge import EdgeParams
from ..experiments.spec import ScenarioSpec, SpecError

#: Scenario-file observers: the full default report plus every watchdog, so
#: chaos runs emit telemetry firings out of the box.
CHAOS_OBSERVERS: Tuple[str, ...] = tuple(DEFAULT_OBSERVERS) + tuple(WATCHDOG_NAMES)

#: The packaged adversarial scenarios: ``name -> shifting_spec kwargs``.
PACKAGED_VARIANTS: Dict[str, Dict[str, Any]] = {
    "chaos_shifting_accumulate_n6": {
        "n": 6, "algorithm": "hardware_only", "duration_factor": 1.5,
    },
    "chaos_shifting_accumulate_n10": {
        "n": 10, "algorithm": "hardware_only", "duration_factor": 1.5,
    },
    "chaos_shifting_aopt_n6": {
        "n": 6, "algorithm": "aopt", "duration_factor": 2.0,
    },
    "chaos_shifting_aopt_n10": {
        "n": 10, "algorithm": "aopt", "duration_factor": 2.0,
    },
}


def _benchmark() -> Tuple[Dict[str, float], Dict[str, float]]:
    # Lazy: the registry imports repro.chaos at its bottom; by the time a
    # builder runs, the registry module is complete.
    from ..experiments import registry as registry_mod

    return dict(registry_mod.BENCHMARK_PARAMS), dict(registry_mod.BENCHMARK_EDGE)


def shifting_spec(
    name: str,
    *,
    n: int,
    algorithm: str = "hardware_only",
    duration_factor: float = 1.5,
) -> ScenarioSpec:
    """The shifting worst case on a line of ``n`` nodes as a ScenarioSpec.

    ``duration_factor`` scales :func:`shifting.minimum_time_to_accumulate`
    of the analytic bound; it must exceed 1 or the run is too short to
    exhibit the bound by construction.
    """
    if algorithm not in ("hardware_only", "aopt"):
        raise SpecError(
            f"adversarial algorithm must be hardware_only or aopt, got {algorithm!r}"
        )
    if duration_factor <= 1.0:
        raise SpecError(
            "duration_factor must exceed 1 so the run can exhibit the bound, "
            f"got {duration_factor}"
        )
    params_args, edge_args = _benchmark()
    params = Parameters(**params_args)
    edge = EdgeParams(**edge_args)
    scenario = shifting.build(n, params, edge_params=edge)
    bound = scenario.expected_lower_bound
    t_min = shifting.minimum_time_to_accumulate(bound, params)
    duration = duration_factor * t_min
    broadcast_interval = 1.0
    notes: Dict[str, Any] = {
        "chaos_family": "adversarial_shifting",
        "expected_lower_bound": bound,
        "minimum_accumulation_time": t_min,
        "duration_factor": duration_factor,
        "n": n,
    }
    algorithm_spec: Any = algorithm
    if algorithm == "aopt":
        global_skew_bound = suggest_global_skew_bound(
            scenario.graph, params, broadcast_interval=broadcast_interval
        )
        algorithm_spec = ("aopt", {"global_skew_bound": global_skew_bound})
        notes["global_skew_bound"] = global_skew_bound
    return ScenarioSpec(
        label=name,
        topology=("line", {"n": n}),
        drift="ramp",
        delay=("directional", {"slow_towards_higher": True}),
        algorithm=algorithm_spec,
        observers=CHAOS_OBSERVERS,
        params=params_args,
        edge=edge_args,
        sim={
            "dt": 0.1,
            "duration": duration,
            "sample_interval": 1.0,
            "broadcast_interval": broadcast_interval,
            "estimate_mode": "broadcast",
        },
        notes=notes,
    )


def expected_spec(name: str) -> Optional[ScenarioSpec]:
    """Re-derive the spec a packaged adversarial file must contain."""
    kwargs = PACKAGED_VARIANTS.get(name)
    if kwargs is None:
        return None
    return shifting_spec(name, **kwargs)


def file_payload(name: str) -> Dict[str, Any]:
    """The full scenario-file payload for a packaged adversarial variant."""
    kwargs = PACKAGED_VARIANTS[name]
    spec = shifting_spec(name, **kwargs)
    if kwargs["algorithm"] == "hardware_only":
        description = (
            f"Shifting-argument accumulation on a {kwargs['n']}-node line: "
            "ramped rates + directional delays, no correction; final skew "
            "must exceed the analytic lower bound."
        )
        expect = {"min_final_global_skew": spec.notes["expected_lower_bound"]}
    else:
        description = (
            f"Shifting-argument adversary vs AOPT on a {kwargs['n']}-node "
            "line: the algorithm must hold the global skew below its "
            "configured bound despite the worst-case drift/delay schedule."
        )
        expect = {"max_final_global_skew": spec.notes["global_skew_bound"]}
    return {
        "chaos_format": 1,
        "name": name,
        "family": "adversarial_shifting",
        "description": description,
        "spec": spec.to_dict(),
        "expect": expect,
    }


def render_file(name: str) -> str:
    """Scenario-file text (with the generated-file comment header)."""
    payload = file_payload(name)
    return (
        "# Generated by `python -m repro.chaos.adversarial`; derived from\n"
        "# repro.lower_bounds.shifting -- regenerate rather than editing.\n"
        + json.dumps(payload, indent=2, sort_keys=True)
        + "\n"
    )


def generate_packaged_files(directory: Optional[Path] = None) -> List[Path]:
    """(Re)write the packaged ``chaos_shifting_*`` scenario files."""
    from .loader import packaged_scenario_dir

    directory = Path(directory) if directory is not None else packaged_scenario_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in sorted(PACKAGED_VARIANTS):
        path = directory / f"{name}.json"
        path.write_text(render_file(name), encoding="utf-8")
        written.append(path)
    return written


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for path in generate_packaged_files():
        print(path)
