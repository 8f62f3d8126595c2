"""Differential suite: the jit backend must match the reference engine.

Mirror of ``test_vecsim_equivalence.py`` for the compiled fused-time-loop
backend: every named scenario, the staged-insertion handshake, randomized
fuzz specs and every delay model run on both backends with **exact**
payload equality, and the batched execution path must be bit-identical to
running each spec alone.

The whole module is skipped when the jit kernel cannot be built here (no
C compiler); the jit backend would otherwise refuse to build.
"""

import random

import pytest

from conftest import (
    EQUIVALENCE_SCENARIO_OVERRIDES,
    FUZZ_DELAYS,
    FUZZ_STRATEGIES,
    make_delay_sweep_spec,
    make_fuzz_spec,
)
from repro.experiments import execute_spec, execute_specs_batched, registry, scenario
from repro.experiments.spec import ComponentSpec, ScenarioSpec

pytest.importorskip("numpy")

from repro.jitsim import provider_available  # noqa: E402

pytestmark = pytest.mark.skipif(
    not provider_available(),
    reason="no jit kernel (needs a C compiler)",
)

#: Same shortened overrides as the fastsim/vecsim suites (tests/conftest.py).
NAMED_SCENARIO_OVERRIDES = EQUIVALENCE_SCENARIO_OVERRIDES


def assert_equivalent(spec):
    reference = execute_spec(spec.with_backend("reference"))
    jit = execute_spec(spec.with_backend("jit"))
    assert reference["trace"] == jit["trace"], (
        f"trace mismatch for {spec.label or spec.topology.name}"
    )
    assert reference["summary"] == jit["summary"]
    assert reference["meta"] == jit["meta"]
    return reference, jit


class TestNamedScenarioEquivalence:
    def test_every_named_scenario_is_covered(self):
        from conftest import builtin_scenario_names

        assert sorted(NAMED_SCENARIO_OVERRIDES) == builtin_scenario_names()

    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIO_OVERRIDES))
    def test_backends_agree(self, name):
        spec = scenario(name, **NAMED_SCENARIO_OVERRIDES[name])
        reference, jit = assert_equivalent(spec)
        assert reference["summary"]["sample_count"] > 5
        assert reference["spec_hash"] == jit["spec_hash"]

    def test_the_kernel_actually_fuses_steps(self):
        """Guard against the suite passing through the vec fallback path."""
        from repro.jitsim import JitEngine

        spec = scenario("quickstart_line", n=8, sim={"duration": 20.0})
        materialised = registry.build_scenario(spec)
        engine = JitEngine(
            materialised.graph,
            materialised.algorithm_factory,
            materialised.config,
        )
        engine.run(materialised.config.duration)
        context = engine._ctx
        assert context.fused_steps > context.stepped_steps
        assert context.fused_steps > 0


class TestStagedInsertionEquivalence:
    """The full Listing 1/2 handshake on the compiled engine."""

    def insertion_spec(self, algorithm="aopt"):
        return ScenarioSpec(
            label=f"jitsim_insertion/{algorithm}",
            topology=ComponentSpec("line", {"n": 5}),
            dynamics=ComponentSpec(
                "end_to_end_insertion", {"insertion_time": 5.0}
            ),
            drift=ComponentSpec("two_group", {"swap_period": 20.0}),
            algorithm=ComponentSpec(
                algorithm,
                {"global_skew_bound": 10.0, "insertion_scale": 0.001},
            ),
            params={"rho": 0.015, "mu": 0.1},
            edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
            sim={
                "dt": 0.1,
                "duration": 45.0,
                "sample_interval": 1.0,
                "estimate_strategy": "toward_observer",
            },
        )

    def test_staged_insertion_matches_and_completes(self):
        from repro.core.neighbor_sets import FULLY_INSERTED
        from repro.jitsim import JitEngine

        spec = self.insertion_spec()
        assert_equivalent(spec)
        materialised = registry.build_scenario(spec)
        jit = JitEngine(
            materialised.graph,
            materialised.algorithm_factory,
            materialised.config,
        )
        jit.run(materialised.config.duration)
        assert jit.algorithm(0).levels.level_of(4) == FULLY_INSERTED
        assert jit.algorithm(4).levels.level_of(0) == FULLY_INSERTED
        assert jit.algorithm(0).levels.subset_chain_holds()

    def test_immediate_insertion_variant_matches(self):
        assert_equivalent(self.insertion_spec(algorithm="immediate_insertion"))


class TestFuzzEquivalence:
    """Randomized specs over topologies x drifts x delays x strategies.

    The generators live in tests/conftest.py and are shared with the
    fastsim/vecsim differential suites -- same seeds, same cases.
    """

    @pytest.mark.parametrize("case", range(6))
    def test_random_specs_agree(self, case):
        rng = random.Random(47110 + case)
        spec = make_fuzz_spec(rng, case, "jitsim_fuzz")
        assert_equivalent(spec)

    @pytest.mark.parametrize("delay", FUZZ_DELAYS)
    def test_every_delay_model_agrees(self, delay):
        """Deterministic sweep over all delay models (incl. the default)."""
        assert_equivalent(make_delay_sweep_spec(delay, "jitsim_delay"))

    @pytest.mark.parametrize("strategy", FUZZ_STRATEGIES)
    def test_every_estimate_strategy_agrees(self, strategy):
        """All oracle strategies -- incl. 'uniform', which blocks fusion and
        must still be bit-identical through the inherited vec path."""
        spec = ScenarioSpec(
            label=f"jitsim_strategy/{strategy}",
            topology=ComponentSpec("ring", {"n": 6}),
            drift=ComponentSpec("two_group", {"swap_period": 5.0}),
            algorithm=ComponentSpec("aopt", {"global_skew_bound": 25.0}),
            params={"rho": 0.015, "mu": 0.1},
            edge={"epsilon": 1.0, "tau": 0.5, "delay": 2.0},
            sim={
                "dt": 0.1,
                "duration": 10.0,
                "sample_interval": 1.0,
                "estimate_strategy": strategy,
            },
            initial_ramp_per_edge=1.0,
        )
        assert_equivalent(spec)


class TestBatchedEquivalence:
    """A heterogeneous lockstep batch must match per-run execution exactly."""

    def test_mixed_topology_batch_is_bit_identical(self):
        specs = [
            scenario(
                "end_to_end_insertion",
                n=5,
                insertion_time=5.0,
                sim={"duration": 30.0},
                backend="jit",
            ),
            scenario(
                "star_hub_failover",
                n=6,
                failover_time=8.0,
                duration=30.0,
                backend="jit",
            ),
            scenario("ring_sinusoidal_drift", n=7, duration=30.0, backend="jit"),
        ]
        singles = [execute_spec(spec) for spec in specs]
        batched = execute_specs_batched(specs)
        for single, batch in zip(singles, batched):
            assert single["trace"] == batch["trace"]
            assert single["summary"] == batch["summary"]
            assert single["meta"] == batch["meta"]

    def test_batched_jit_matches_reference(self):
        specs = [
            scenario("line_scaling", n=n, sim={"duration": 15.0}, backend="jit")
            for n in (4, 6)
        ]
        batched = execute_specs_batched(specs)
        for spec, payload in zip(specs, batched):
            reference = execute_spec(spec.with_backend("reference"))
            assert reference["trace"] == payload["trace"]
            assert reference["summary"] == payload["summary"]
