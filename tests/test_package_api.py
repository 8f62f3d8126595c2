"""Tests for the public package surface (imports and re-exports)."""

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro.core",
    "repro.core.algorithm",
    "repro.core.clocks",
    "repro.core.conditions",
    "repro.core.insertion",
    "repro.core.interfaces",
    "repro.core.max_estimate",
    "repro.core.neighbor_sets",
    "repro.core.parameters",
    "repro.core.skew_estimates",
    "repro.core.triggers",
    "repro.network",
    "repro.network.diameter",
    "repro.network.dynamic_graph",
    "repro.network.dynamics",
    "repro.network.edge",
    "repro.network.paths",
    "repro.network.topology",
    "repro.estimate",
    "repro.estimate.estimate_layer",
    "repro.estimate.message_layer",
    "repro.estimate.messages",
    "repro.estimate.oracle_layer",
    "repro.estimate.transport",
    "repro.sim",
    "repro.sim.delay",
    "repro.sim.drift",
    "repro.sim.engine",
    "repro.sim.runner",
    "repro.sim.trace",
    "repro.baselines",
    "repro.experiments",
    "repro.experiments.cli",
    "repro.experiments.executor",
    "repro.experiments.registry",
    "repro.experiments.results",
    "repro.experiments.spec",
    "repro.analysis",
    "repro.analysis.gradient",
    "repro.analysis.legality",
    "repro.analysis.live_legality",
    "repro.analysis.report",
    "repro.analysis.skew",
    "repro.analysis.stabilization",
    "repro.lower_bounds",
    "repro.lower_bounds.analytic",
    "repro.lower_bounds.insertion_bound",
    "repro.lower_bounds.shifting",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


def test_version_string():
    assert repro.__version__ == "1.8.0"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_top_level_convenience_types():
    params = repro.Parameters(rho=0.01, mu=0.1)
    assert params.is_valid()
    graph = repro.DynamicGraph(range(3))
    graph.add_edge(0, 1, repro.EdgeParams())
    assert graph.has_edge(0, 1)
    config = repro.SimulationConfig(params=params, duration=1.0)
    assert config.duration == 1.0


def test_every_public_module_has_docstring():
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a module docstring"


def test_every_public_class_in_core_has_docstring():
    from repro.core import algorithm, insertion, max_estimate, neighbor_sets, triggers

    for module in (algorithm, insertion, max_estimate, neighbor_sets, triggers):
        for name in dir(module):
            obj = getattr(module, name)
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert obj.__doc__, f"{module.__name__}.{name} is missing a docstring"
