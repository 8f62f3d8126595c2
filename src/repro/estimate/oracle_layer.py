"""Oracle estimate layer: true clock values plus bounded, controllable error.

This layer realizes inequality (1) exactly: the estimate equals the subject's
true logical clock perturbed by an error whose magnitude never exceeds the
edge's uncertainty ``epsilon_e``.  The error strategy is pluggable so that the
experiments can exercise both benign and adversarial estimate noise:

* ``"zero"``          -- perfect estimates;
* ``"uniform"``       -- independent uniform noise in ``[-eps, +eps]``;
* ``"underestimate"`` -- always ``-eps`` (neighbors look behind);
* ``"overestimate"``  -- always ``+eps`` (neighbors look ahead);
* ``"toward_observer"`` -- the adversarial strategy that maximally delays
  corrections: each estimate is shifted by ``eps`` toward the observer's own
  clock value, so every skew looks smaller than it is.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..network.dynamic_graph import DynamicGraph
from ..network.edge import NodeId
from .estimate_layer import EstimateLayer, EstimateLayerError

ClockReader = Callable[[NodeId], float]

_STRATEGIES = ("zero", "uniform", "underestimate", "overestimate", "toward_observer")


class OracleEstimateLayer(EstimateLayer):
    """Estimates computed from the true clocks with bounded injected error."""

    def __init__(
        self,
        graph: DynamicGraph,
        clock_reader: ClockReader,
        *,
        strategy: str = "zero",
        seed: Optional[int] = None,
        error_scale: float = 1.0,
    ):
        if strategy not in _STRATEGIES:
            raise EstimateLayerError(
                f"unknown error strategy {strategy!r}; choose one of {_STRATEGIES}"
            )
        if not 0.0 <= error_scale <= 1.0:
            raise EstimateLayerError(
                f"error_scale must lie in [0, 1] so that (1) holds, got {error_scale}"
            )
        self.graph = graph
        self._clock_reader = clock_reader
        self.strategy = strategy
        self.error_scale = float(error_scale)
        self._rng = random.Random(seed)

    def _error(self, observer: NodeId, subject: NodeId, true_value: float) -> float:
        epsilon = self.graph.edge_params(observer, subject).epsilon * self.error_scale
        if epsilon == 0.0 or self.strategy == "zero":
            return 0.0
        if self.strategy == "uniform":
            return self._rng.uniform(-epsilon, epsilon)
        if self.strategy == "underestimate":
            return -epsilon
        if self.strategy == "overestimate":
            return epsilon
        # "toward_observer": shift the estimate toward the observer's clock,
        # clamped so the perturbation never exceeds the true difference.
        observer_value = self._clock_reader(observer)
        difference = observer_value - true_value
        if difference > 0.0:
            return min(epsilon, difference)
        return max(-epsilon, difference)

    def estimate(self, observer: NodeId, subject: NodeId, t: float) -> Optional[float]:
        if subject not in self.graph.neighbors_view(observer):
            return None
        true_value = self._clock_reader(subject)
        return max(0.0, true_value + self._error(observer, subject, true_value))

    def error_bound(self, observer: NodeId, subject: NodeId) -> float:
        return self.graph.edge_params(observer, subject).epsilon
