"""Legality checking against the *live* level sets of a running system.

:mod:`repro.analysis.legality` checks the legality condition
(Definition 5.13) for caller-supplied level edge sets.  During a simulation
the level sets ``E_s(t)`` are defined by the algorithm instances themselves
(Definition 5.8: the edge ``{u, v}`` belongs to ``E_s`` when each endpoint has
the other in its level-``s`` neighbor set).  This module extracts those sets
from a running :class:`~repro.sim.engine.Engine` whose nodes execute AOPT and
evaluates legality exactly as the analysis of Section 5 does, which is how
the test-suite checks that edge insertion never lets a level violate its
gradient sequence entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.algorithm import AOPT
from ..core.parameters import Parameters
from ..network.edge import NodeId
from ..sim.engine import Engine
from ..sim.runner import minimum_kappa
from . import legality


class LiveLegalityError(TypeError):
    """Raised when the engine's algorithms do not expose level sets."""


def level_edge_sets(
    engine: Engine, max_level: int, params: Parameters
) -> Dict[int, List[legality.WeightedEdge]]:
    """The level edge sets ``E_s`` (Definition 5.8) of a running engine.

    An undirected edge ``{u, v}`` belongs to ``E_s`` when it currently exists
    in the estimate graph and both endpoints keep the other in their
    level-``s`` neighbor set.  Edge weights are the algorithm weights
    ``kappa_e`` derived from the edge parameters.
    """
    algorithms: Dict[NodeId, AOPT] = {}
    for node in engine.nodes:
        algorithm = engine.algorithm(node)
        if not isinstance(algorithm, AOPT):
            raise LiveLegalityError(
                f"node {node} runs {type(algorithm).__name__}, not AOPT; "
                "level sets are only defined for the gradient algorithm"
            )
        algorithms[node] = algorithm
    sets: Dict[int, List[legality.WeightedEdge]] = {s: [] for s in range(1, max_level + 1)}
    for u, v in engine.graph.edge_pairs():
        level_u = algorithms[u].neighbor_level(v)
        level_v = algorithms[v].neighbor_level(u)
        if level_u is None or level_v is None:
            continue
        shared_level = min(level_u, level_v, max_level)
        if shared_level < 1:
            continue
        edge = engine.graph.edge_params(u, v)
        kappa = params.kappa_for(edge.epsilon, edge.tau)
        for level in range(1, shared_level + 1):
            sets[level].append((u, v, kappa))
    return sets


@dataclass(frozen=True)
class LiveLegalityReport:
    """Outcome of a live legality check."""

    time: float
    levels_checked: int
    violations: List[legality.LegalityViolation]

    @property
    def is_legal(self) -> bool:
        return not self.violations

    @property
    def worst_excess(self) -> float:
        if not self.violations:
            return 0.0
        return max(violation.excess for violation in self.violations)


def check_engine(
    engine: Engine,
    global_skew_bound: float,
    params: Parameters,
    *,
    max_level: Optional[int] = None,
) -> LiveLegalityReport:
    """Evaluate Definition 5.13 on the engine's current state.

    ``max_level`` defaults to the level count implied by the bound and the
    smallest edge weight currently in the graph.
    """
    if max_level is None:
        max_level = params.levels_for(
            global_skew_bound, minimum_kappa(engine.graph, params)
        )
    sets = level_edge_sets(engine, max_level, params)
    sequence = params.gradient_sequence(global_skew_bound, max_level)
    violations = legality.legality_violations(
        engine.logical_snapshot(), sets, sequence
    )
    return LiveLegalityReport(
        time=engine.time, levels_checked=max_level, violations=violations
    )
