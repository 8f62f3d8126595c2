"""Tests for repro.experiments.spec: serialisation and stable hashing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import ComponentSpec, ScenarioSpec, SpecError, registry, scenario
from repro.experiments.executor import ResultCache
from repro.experiments.spec import OBSERVATION_FIELDS
from repro.fastsim.backend import backend_names


def make_spec(**kwargs) -> ScenarioSpec:
    base = dict(
        label="test",
        topology=ComponentSpec("line", {"n": 5}),
        drift=ComponentSpec("two_group", {"swap_period": 10.0}),
        sim={"dt": 0.1, "duration": 5.0},
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


class TestComponentSpec:
    def test_coercion_from_name(self):
        spec = ScenarioSpec(topology="line")
        assert spec.topology == ComponentSpec("line")

    def test_coercion_from_tuple_and_mapping(self):
        from_tuple = ScenarioSpec(topology=("line", {"n": 4}))
        from_mapping = ScenarioSpec(topology={"name": "line", "args": {"n": 4}})
        assert from_tuple.topology == from_mapping.topology

    def test_empty_name_rejected(self):
        with pytest.raises(SpecError):
            ComponentSpec("")

    def test_with_args_merges(self):
        component = ComponentSpec("line", {"n": 4})
        assert component.with_args(n=8).args == {"n": 8}
        assert component.args == {"n": 4}

    def test_hashable(self):
        assert hash(ComponentSpec("line", {"n": 4})) == hash(
            ComponentSpec("line", {"n": 4})
        )


class TestSerialisation:
    def test_round_trip_preserves_equality_and_hash(self):
        spec = make_spec(initial_ramp_per_edge=1.5, notes={"bound": 3.0})
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = ScenarioSpec.from_dict(payload)
        assert restored == spec
        assert restored.content_hash() == spec.content_hash()

    def test_initial_logical_keys_survive_json(self):
        spec = make_spec(initial_logical={0: 0.0, 3: 2.5})
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.initial_logical == {0: 0.0, 3: 2.5}

    def test_named_scenarios_round_trip(self):
        for name in ("line_scaling", "end_to_end_insertion", "grid_periodic_churn"):
            spec = scenario(name)
            restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert restored.content_hash() == spec.content_hash()

    def test_sim_must_not_smuggle_dedicated_fields(self):
        for forbidden in ("drift", "delay", "initial_logical", "params"):
            with pytest.raises(SpecError):
                make_spec(sim={forbidden: None})


class TestContentHash:
    def test_insensitive_to_dict_insertion_order(self):
        a = make_spec(sim={"dt": 0.1, "duration": 5.0})
        b = make_spec(sim={"duration": 5.0, "dt": 0.1})
        assert a.content_hash() == b.content_hash()

    def test_sensitive_to_values(self):
        assert make_spec().content_hash() != make_spec(label="other").content_hash()
        assert (
            make_spec().content_hash()
            != make_spec(topology=ComponentSpec("line", {"n": 6})).content_hash()
        )

    def test_int_and_float_args_hash_differently(self):
        a = make_spec(topology=ComponentSpec("line", {"n": 5}))
        b = make_spec(topology=ComponentSpec("line", {"n": 5.0}))
        assert a.content_hash() != b.content_hash()

    def test_base_seed_is_deterministic(self):
        assert make_spec().base_seed() == make_spec().base_seed()

    def test_stable_across_processes(self):
        """The cache key must be identical in a fresh interpreter."""
        spec = scenario("line_scaling", n=6, algorithm="MaxPropagation")
        code = (
            "import json, sys\n"
            "from repro.experiments import ScenarioSpec\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.content_hash())\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(spec.to_dict())],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == spec.content_hash()


class TestUpdates:
    def test_with_sim_merges_without_mutating(self):
        spec = make_spec()
        shrunk = spec.with_sim(duration=1.0)
        assert shrunk.sim["duration"] == 1.0
        assert shrunk.sim["dt"] == 0.1
        assert spec.sim["duration"] == 5.0

    def test_with_label(self):
        assert make_spec().with_label("renamed").label == "renamed"


#: Every registered scenario's content hash as committed before the result
#: hash existed: the scenario identity seeds every run, so none may move.
CONTENT_HASHES = {
    "chaos_churn_under_storm": "8c288624e77b198e5fabf4a31634b2285999dc9a462a139c37358acef9b60189",
    "chaos_crash_restart_grid": "6253cbbfc72052c25de0553c2e3fe451b24d2cf800d635cbdc5b547d480e464f",
    "chaos_crash_restart_hub": "48cf82cee22928dfdc83279e98e526de6e966ef16e9a14f21e7fc6822cd3775c",
    "chaos_crash_restart_line": "25fc14abb72c49bd21b78c7fbcfb5874982971e0b9d2d6796dab4d444c53aa33",
    "chaos_crash_restart_ring": "e08fa90f674c27e0610f1f9f3a7ad562f9773895a29bcbf9a43e60ee20dac470",
    "chaos_delay_storm_grid": "a90fd4e18cbfbfb144d120b072858d9d10d1d8a3e807131018e3c0ec7b5e9a17",
    "chaos_delay_storm_line": "f0abaedea65f9966b183b343a142c90fce419eff943a60f7d22606638e4ed5cc",
    "chaos_delay_storm_ring_uniform": "c0d1b970bd0937ea085f2987b4b52925b5e7b92f94b9ec812526e90971e2e459",
    "chaos_delay_storm_targeted_cut": "8d5e6897564bcc1540b6f0e1aab67f385fe68a3c3eee943af87b41903cf13b55",
    "chaos_mass_churn_complete": "41d169b8f567cfed5c84cb4937e3e46e9239ed9e35bf1c72327b76bd4a211745",
    "chaos_mass_churn_grid": "546b26e6dc89f8a388c343a2f7e547da2f5e90bb4eafe03789d173df637feb2c",
    "chaos_mass_churn_line": "d97a86e83d7645be59a61433a37a73f87e5f2cb51b52625306b69c5f68790f0d",
    "chaos_mass_churn_ring_pinned": "ed3e9363aa145ffd0bbc853881d0ba6c5750ba7ae726e8f522d316dc1b76ebf5",
    "chaos_mass_churn_star_spokes": "9dde01b867b04b755dbf6ffdb8703d6b12b23de941e008a088070c61635b593b",
    "chaos_partition_during_storm": "f75cd71d619c840f85e184ab4f8e67b92d5ee7295ecbc6f9ef2b27898b6eddde",
    "chaos_partition_grid_rows": "b7571c5a3f0ec85f5469ae851d1761251b8979acf71a05247eee9d7ce601ada7",
    "chaos_partition_line_asymmetric": "5ca888e8773ac3128088623d5e4ec6dbd68714ecd36963a505fb20a42f9662bf",
    "chaos_partition_line_half": "dbf18492dde565ab8f5304b4f21cb53cb14f53a0812d5ac3be0b46359d3e22c5",
    "chaos_partition_ring": "30d98db65a430055e33bcd3f0999e21435ee3cb0b6f2e2c043077ffc78617152",
    "chaos_partition_star_hub": "822cd3f099b0e325c49e0d9c5517f44d406382ab314faf2ee8b04509a852bdbb",
    "chaos_shifting_accumulate_n10": "e59ee648835d7dd6f75dfd2f1f7866dbefafe5097142e3afce50219bb743ce3b",
    "chaos_shifting_accumulate_n6": "3239c21dfb3e26fea5cf2deda586cf1f230a054b16b14249d72a97b5dd2433bb",
    "chaos_shifting_aopt_n10": "1671c50f33726226b27dc7829b90d0ca587450e7453c589470f82a84d98290f3",
    "chaos_shifting_aopt_n6": "e10768c2bdc3658825172625c93bc3f0ddbd0d1e58a6faaecf4197ce23d05f65",
    "end_to_end_insertion": "32540e990112e9cb2290eb0d21df716da3bfc5ca339897df7b8d149e8938f546",
    "grid_broadcast_partition": "d18897aadfec72f75cbd4a4f197e0d4f4471a64a185abd4cc3a379c4ce142a54",
    "grid_periodic_churn": "acf1945148dc9a7b5bf5d35295dc9fe49ab37be91fd7d37667504a35e8587bb3",
    "line_broadcast": "34a206d6bbf2d91e6296233d0a30e1202c6601be5e55a920340d0fc21c236e4c",
    "line_scaling": "a18bdb6915df302a5edd162ff39636c9a972de385ff61714c03ea32496498d6c",
    "quickstart_line": "fd7d10bbddc91c4ce8cdfb53883852295775dcafa2d1f0df629a7755ed07a63c",
    "random_broadcast_delay_storm": "dc3c86e4e4cba464ae0e3b80615e36148a88693c9cbdc6f84e2c8108b12bfb70",
    "random_connected_sliding_window": "008a211cfa313ebdb28e2e1808ea7518331ecf44f6105acd12513aa804831102",
    "ring_sinusoidal_drift": "becc4aa42af3ad1bf3c92caa9f4bb03fdd48095a4b479645df385f77f2acb6f0",
    "star_hub_failover": "acc4a05fa3be2a9592fe3d4fd46b35163901e2cec5696f5556360db800640db7",
}

#: One non-default value per observation field, as a ``scenario`` override.
OBSERVED = {
    "backend": "fast",
    "trace_stride": 2,
    "trace": "none",
    "observers": ("global_skew",),
    "until_stable": True,
}


class TestResultHash:
    def test_observed_covers_exactly_the_observation_fields(self):
        assert set(OBSERVED) == set(OBSERVATION_FIELDS)

    def test_canonical_drops_exactly_the_observation_fields(self):
        spec = make_spec()
        kept = json.loads(spec.canonical())["spec"]
        assert set(spec.to_dict()) - set(kept) == set(OBSERVATION_FIELDS)

    def test_every_scenario_is_registered_and_locked(self):
        assert sorted(registry.SCENARIOS.names()) == sorted(CONTENT_HASHES)

    @pytest.mark.parametrize("name", sorted(CONTENT_HASHES))
    def test_content_hash_is_locked_under_every_observation(self, name):
        plain = scenario(name)
        assert plain.content_hash() == CONTENT_HASHES[name]
        observed = [scenario(name, **{field: value}) for field, value in OBSERVED.items()]
        observed.append(scenario(name, **OBSERVED))
        for spec in observed:
            assert spec.content_hash() == CONTENT_HASHES[name]
        # ... and each observation is a result of its own.
        results = {spec.result_hash() for spec in [plain] + observed}
        assert len(results) == len(observed) + 1

    @pytest.mark.parametrize("name", sorted(CONTENT_HASHES))
    def test_result_hash_survives_json(self, name):
        for spec in (scenario(name), scenario(name, **OBSERVED)):
            restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert restored.result_hash() == spec.result_hash()

    def test_none_means_not_given(self):
        plain = scenario("line_scaling", n=4)
        given = scenario("line_scaling", n=4, **{field: None for field in OBSERVED})
        assert given == plain


class TestBackendName:
    @pytest.mark.parametrize("backend", ["a/b", "", "a.b", "a b", "..", 3, None])
    def test_a_backend_that_is_no_name_token_is_refused(self, backend):
        with pytest.raises(SpecError, match="backend"):
            ScenarioSpec(topology="line", backend=backend)

    @pytest.mark.parametrize("backend", backend_names() + ["not_registered-2"])
    def test_every_backend_name_keys_a_cache_file(self, backend, tmp_path):
        cache = ResultCache(tmp_path)
        spec = scenario("line_scaling", n=4, backend=backend)
        key = cache.key_for(spec)
        assert cache.path_for_key(key) == cache.path_for(spec)
        assert cache.backend_of_key(key) == backend
