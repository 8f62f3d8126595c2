"""One engine contract: every engine is built from ``(graph, algorithm_factory, config)``.

Each registered backend names one engine class, and each class takes the
same three arguments.  The run settings an engine derives from the config
(the drift default, a fresh default delay model) are its own: one
``SimulationConfig`` object handed to two engines gives two equal runs, and
both equal the reference engine's.
"""

import importlib
import inspect

import pytest

from conftest import INSTALLED_BACKENDS
from repro.core.algorithm import aopt_factory
from repro.core.parameters import Parameters
from repro.experiments.results import trace_to_payload
from repro.fastsim import backend as backend_mod
from repro.fastsim.backend import get_backend
from repro.network import topology
from repro.sim.drift import ConstantDrift
from repro.sim.runner import SimulationConfig, default_aopt_config

PARAMS = Parameters(rho=0.01, mu=0.1)

#: The two estimate layers, each with a randomised part the config seeds.
ESTIMATES = {
    "oracle_uniform": {"estimate_strategy": "uniform", "estimate_seed": 3},
    "broadcast": {"estimate_mode": "broadcast"},
}


def engine_class(name):
    module, _, attribute = get_backend(name).engine.partition(":")
    return getattr(importlib.import_module(module, backend_mod.__package__), attribute)


@pytest.mark.parametrize("backend", INSTALLED_BACKENDS)
def test_every_engine_class_takes_graph_factory_and_config(backend):
    parameters = list(inspect.signature(engine_class(backend).__init__).parameters)
    assert parameters == ["self", "graph", "algorithm_factory", "config"]


def one_config(estimates):
    """A config with the default delay model (``delay=None``) and real drift."""
    drift = ConstantDrift(PARAMS.rho, {0: PARAMS.rho, 3: -PARAMS.rho, 5: 0.5 * PARAMS.rho})
    return SimulationConfig(
        params=PARAMS,
        dt=0.1,
        duration=30.0,
        drift=drift,
        delay_seed=7,
        **ESTIMATES[estimates],
    )


def run_twice(backend, graph, config):
    """Two runs of ``backend`` built from the one ``config`` object."""
    factory = aopt_factory(default_aopt_config(graph, config))
    payloads = []
    for _ in range(2):
        engine = get_backend(backend).build(graph, factory, config)
        payloads.append(trace_to_payload(engine.run(config.duration)))
    assert config.delay is None
    return payloads


@pytest.mark.parametrize("estimates", sorted(ESTIMATES))
@pytest.mark.parametrize("backend", INSTALLED_BACKENDS)
def test_one_config_object_gives_equal_runs_on_every_engine(backend, estimates):
    graph = topology.line(6)
    config = one_config(estimates)
    first, second = run_twice(backend, graph, config)
    assert first == second
    (reference, _) = run_twice("reference", graph, one_config(estimates))
    assert first == reference
