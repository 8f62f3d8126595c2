"""The named scenario builders: their parameters and their specs at the
override points that the benchmark and the tests use.

Stdlib only, so it runs on every CI leg: the golden smoke pins the same
points through their results, but only where numpy is installed.
"""

import inspect

import pytest

from repro.experiments import SpecError, registry, scenario
from repro.experiments.bench import bench_spec

#: ``(scenario, overrides, content hash)``.  The scenario identity seeds
#: every run, so none may move.  The points are copied from the benchmark's
#: workload lists (before their time compression), not imported from them.
SCENARIO_POINTS = [
    # benchmarks/perf/workloads.py: paper_sweep (4-24, 6-14) and service_mix (8-32)
    ("line_scaling", {"n": 4}, "93de2f26925686dab3ae922fdb3201beb49e6882548217de5427789d9d0bb7ba"),
    ("line_scaling", {"n": 8}, "a18bdb6915df302a5edd162ff39636c9a972de385ff61714c03ea32496498d6c"),
    ("line_scaling", {"n": 12}, "677201b8140f1820201492096e9c2cf2eb4e1e8ee2e103e310cbdf97bee40449"),
    ("line_scaling", {"n": 16}, "c148e675d82cadad62df3ac7ff2fa6c361ca21b65ec136e5e0b49f4b9d3e816f"),
    ("line_scaling", {"n": 24}, "bfb5080e60f2c48e35b9a840ebc7a116c5205f106b8f6bf6b4743fa23c3febc4"),
    ("line_scaling", {"n": 32}, "ae7c39850494c7a752009c743b4a4d61cc1963b7b341e9f13fed153c2524ce4e"),
    ("end_to_end_insertion", {"n": 6}, "4fa3e16ab1b71dda40c89aaa14ca25f8cf8810b1776c32fb5b84e363f41b635c"),
    ("end_to_end_insertion", {"n": 10}, "32540e990112e9cb2290eb0d21df716da3bfc5ca339897df7b8d149e8938f546"),
    ("end_to_end_insertion", {"n": 14}, "975bad0277f76a23caa7bf531d3af96ecf11df63c7d369458a1a6d3f958c05ab"),
    # workloads.py: observed_mid at its full sizes, then at its smoke sizes
    ("grid_periodic_churn", {"rows": 16, "cols": 16}, "a49647f84a953b723cd7cc0af868a7d96372b330e4dffe4ac7ba3fb4e8dcc647"),
    ("random_connected_sliding_window", {"n": 128}, "812c8411cb718f0706d2952e0afc4ea62c721428c7401df858922a21f76b15a2"),
    ("star_hub_failover", {"n": 256}, "d8c324fe15376f5c82dddd6e6df77635ce1fa858a7b88f8960bdbf9463bf0ac3"),
    ("end_to_end_insertion", {"n": 32}, "df83e8a7e647095d76798e583f4b6c16ea5d3b717d496dd05ebc3d77cde89b2b"),
    ("grid_broadcast_partition", {"rows": 12, "cols": 12}, "d5ccc3ec013daaf2789a32eeee4cec2bd2f601e372de6e60100da699ecd37ffb"),
    ("random_broadcast_delay_storm", {"n": 128}, "412bb2043cc88cf0987f3889fecb5c91eb079863907df6ee39988facdc34ec64"),
    ("grid_periodic_churn", {"rows": 8, "cols": 8}, "9e48986a33601828c23437f29a216a5bedd76a4f7175fdb5fb26b15da9f85ad1"),
    ("random_connected_sliding_window", {"n": 48}, "5d891e79163bbf7f452293d397bb10cffe35135dc4f38c02a91a07f21450d37a"),
    ("star_hub_failover", {"n": 64}, "d4259b43147915167131ebfe456353f597b2036ff6415b9e55f461dd17020a6f"),
    ("end_to_end_insertion", {"n": 16}, "4b5d1f832435643a7552a6989c52f7447ece4fb38b92125b6d34994b16b7b119"),
    ("grid_broadcast_partition", {"rows": 6, "cols": 6}, "9e1d2f91e65667f817abf150c0e0d2866d993d32e78647862fb04b003a7a5400"),
    ("random_broadcast_delay_storm", {"n": 48}, "c20b28b588b3d15fad8109043df615c47d70b9203d7f7f3a8c5f6dca136bf49f"),
    # the CLI and HTTP tests
    ("line_scaling", {"n": 5}, "0488ad2cf1fd42c0883761238281560ad85f6055727eef75908121c7e697591b"),
    ("line_scaling", {"n": 4, "algorithm": "AOPT", "sim": {"duration": 4.0}}, "80e10cd160d3c5a11d986ec86520ce2a89b61836f174b84fb4cbaf36ea481c53"),
    ("line_scaling", {"n": 4, "algorithm": "ImmediateInsertion", "sim": {"duration": 4.0}}, "663eea508506caefa8888773a22d1e66f7b563f2a42f91d97a0e37860af09ee7"),
    ("line_scaling", {"n": 4, "algorithm": "MaxPropagation", "sim": {"duration": 4.0}}, "04e11df6557ba2c65f25bfba7eb8f64dbb30d5b2b9d25ac766bf4f07fbb9e9fd"),
    ("line_scaling", {"n": 5, "algorithm": "AOPT", "sim": {"duration": 4.0}}, "0b21d8dc674f01ef24a494160fdcf9e9ab254c2da5fbeede8e0aec18e28174e9"),
    ("line_scaling", {"n": 5, "algorithm": "ImmediateInsertion", "sim": {"duration": 4.0}}, "99c50ad5af561b83d9cb03b8bf1b4c609b43a00fd572afb5772590a2d73acd8f"),
    ("line_scaling", {"n": 5, "algorithm": "MaxPropagation", "sim": {"duration": 4.0}}, "f06422be20b58d33a53ce008c46ad7d317ffa7fe70d66dda654be66b1e66c27a"),
    ("quickstart_line", {"n": 4}, "702296b851a567c5bbeea04b7f749d3c6987bfc4083ff355b9e390aec85a31b6"),
    ("quickstart_line", {"n": 4, "algorithm": "MaxPropagation"}, "d6cc8a4cc45a86bec43af657b2f61bec5cc3b4f5670fb2b65228ca0bef72ad26"),
    ("quickstart_line", {"n": 4, "algorithm": "MaxPropagation", "sim": {"duration": 2.0}}, "0bee523c8596b7c34f4629677c72c329e3b512cee05cab8aa7ed45e37c131a65"),
    ("quickstart_line", {"n": 4, "sim": {"duration": 4.0}}, "340dcd5ab07753c609c1a563d614292a82f34af92d6126d74d4c65b7f5012190"),
    ("quickstart_line", {"algorithm": "AOPT", "sim": {"duration": 2.0}}, "093a9b27d80811c876c8da8e02d827626637191f81b5559a8aaa68392f12d02a"),
    ("quickstart_line", {"algorithm": "MaxPropagation", "sim": {"duration": 2.0}}, "33f148bb5d0be0fa6fba00fc89e857a65cb826732b95c94d6f651d331d07d631"),
    ("quickstart_line", {"n": 4, "sim": {"duration": 4.0, "dt": 0.1}}, "cfaff4551a2e5474f32a87958e5b9a5fce38f69b118ff06f26c9bf56ce0e403f"),
    ("quickstart_line", {"n": 5, "sim": {"duration": 4.0, "dt": 0.1}}, "9b4f3da0406260d7ca6c52b3dfab5759c6c835e982d213ef923193970cd78afa"),
    # the settings of a run, given in sim
    ("quickstart_line", {"n": 3, "duration": 33.0, "sim": {"dt": 0.07}}, "b0b81a53de8aad1a3b428d828de008bf232029213e6e80cace51400bdecddf93"),
    ("line_broadcast", {"n": 7, "sim": {"broadcast_interval": 0.5, "duration": 25.0}}, "0912276e852affc19b2581a2318020448b1e8d075ea75cac5148a6b24f1be0df"),
    ("grid_broadcast_partition", {"sim": {"broadcast_interval": 0.5, "dt": 0.05}}, "c6a2ff8bd412a717528b4dfe6232af6def3e8f7b744e3c5a9e110451796c0bb9"),
    ("random_broadcast_delay_storm", {"n": 6, "duration": 25.0, "sim": {"broadcast_interval": 2.0}}, "655f8e08534545525337d37421d79ec1c6fee38d559d96b44fad6f4e136ff2f2"),
]

#: ``((kind, n), keyword arguments, content hash)`` of ``bench_spec``.
BENCH_POINTS = [
    # scale_static at its full sizes, then at its smoke sizes
    (("grid", 4096), {"duration": 600.0}, "fb6631d14b51efbd68bc65fe52b8ba67b6ee3e623c61a74de681946caf6cf18b"),
    (("line", 4096), {"duration": 600.0}, "41ffd77fa8d739cf1f1698f94fab16ee6ffb8edeee40fd75dc606395db88a13e"),
    (("random", 2048), {"duration": 600.0}, "deb668e0148339e2dced0690a3d27613f9611f2c61584a9731bb4d4612e8ef18"),
    (("grid", 16384), {"duration": 200.0}, "7ff048ed817e4a6ba52f2b32ab9c7adf44487c68c9cd006147cb57cf0eba8491"),
    (("grid", 1024), {"duration": 600.0}, "6914d8902e830363e853b3fc3fc273725fec89d35b544b5de84645d2cd329caa"),
    (("line", 1024), {"duration": 600.0}, "a4a91d901e419868360cddc8262ffe1815ad75b640f55fe8328f2ebb480d678d"),
    (("random", 512), {"duration": 600.0}, "9b4921f7341e1811f5358b124524c56f8ea0074ace88d57949f7a7f42413d30c"),
    (("grid", 4096), {"duration": 200.0}, "ea68017e26de72e7c2d1685cf5edef248cdff9e13ff48105f8a1dd682bb07271"),
    # observed_mid's static points, full then smoke
    (("grid", 400), {"duration": 60.0}, "8c3dec32cdf51b6705a57e7a09dda0025ba1a3ea7d5ff9ab84323755905bc1b4"),
    (("line", 384), {"duration": 60.0}, "64afdb786ef3b55c7da57c03b605970923bfc932804503faddfd2e17316dc334"),
    (("grid", 100), {"duration": 60.0}, "be74c35b84a7e7a37976b56b08e8372340476522c2fa234ed25274c4f9b94580"),
    (("line", 96), {"duration": 60.0}, "1278e0352674cc9d3dc0c6b5c165c134c2afa2a99246ac689f317309903789f9"),
    # tests/test_vecsim_backend.py and tests/test_streaming_memory.py
    (("grid", 64), {"duration": 12.0, "dt": 0.05}, "b30d3ba3a643737a3d11bfaca2449dd59dbd7408ed323d88dfe552354a5c5a86"),
    (("line", 80), {"duration": 12.0, "dt": 0.05}, "b713b13ed3b068afc678eb745e33354c2294741a2a7cae2ebc3f81bd01f5c45c"),
    (("random", 8), {"duration": 12.0, "dt": 0.05}, "68c72d8856e9cd28c7714a75ff98864038ddb7c25a8cbf3c4358aa1a93f0b064"),
    (("line", 64), {"duration": 6.0, "dt": 0.5}, "4a6ec2842a48738a792345e0280259f38fc371b657af0b6d8aa852f1b4924d1c"),
]

#: Every parameter of each built-in builder.  A run setting (``dt``,
#: ``broadcast_interval``, ...) goes in ``sim``; a new builder parameter is
#: added here on purpose.
BUILDER_PARAMETERS = {
    "end_to_end_insertion": ("n", "algorithm", "insertion_time", "ramp_fraction", "sim"),
    "grid_broadcast_partition": (
        "rows", "cols", "algorithm", "split_time", "heal_time", "duration", "sim",
    ),
    "grid_periodic_churn": (
        "rows", "cols", "algorithm", "churn_period", "up_fraction", "n_candidates",
        "duration", "sim",
    ),
    "line_broadcast": (
        "n", "algorithm", "swap_period", "ramp_fraction", "duration", "sim",
    ),
    "line_scaling": ("n", "algorithm", "swap_period", "ramp_fraction", "duration", "sim"),
    "quickstart_line": ("n", "algorithm", "duration", "sim"),
    "random_broadcast_delay_storm": (
        "n", "algorithm", "storm_period", "storm_width", "storm_factor", "duration", "sim",
    ),
    "random_connected_sliding_window": (
        "n", "extra_edge_probability", "window", "shift_period", "algorithm",
        "duration", "sim",
    ),
    "ring_sinusoidal_drift": ("n", "drift_period", "algorithm", "duration", "sim"),
    "star_hub_failover": (
        "n", "failover_time", "overlap", "algorithm", "duration", "sim",
    ),
}


def _id(point):
    return f"{point[0]}-{point[1]}"


@pytest.mark.parametrize("name,overrides,expected", SCENARIO_POINTS, ids=map(_id, SCENARIO_POINTS))
def test_scenario_content_hash_is_locked(name, overrides, expected):
    assert scenario(name, **overrides).content_hash() == expected


@pytest.mark.parametrize("args,kwargs,expected", BENCH_POINTS, ids=map(_id, BENCH_POINTS))
def test_bench_spec_content_hash_is_locked(args, kwargs, expected):
    for backend in ("reference", "jit"):
        spec = bench_spec(*args, backend=backend, **kwargs)
        assert spec.content_hash() == expected


def _builders():
    """The built-in builders: every scenario that is not a chaos-pack file."""
    return {
        name: registry.SCENARIOS.get(name)
        for name in registry.SCENARIOS.names()
        if not hasattr(registry.SCENARIOS.get(name), "chaos_path")
    }


def test_builder_parameters_are_counted():
    taken = {
        name: tuple(inspect.signature(builder).parameters)
        for name, builder in _builders().items()
    }
    assert taken == BUILDER_PARAMETERS
    assert sum(map(len, taken.values())) == 61
    assert not any({"dt", "broadcast_interval"} & set(names) for names in taken.values())


@pytest.mark.parametrize("name", sorted(BUILDER_PARAMETERS))
def test_an_unknown_argument_is_refused_with_what_the_builder_takes(name):
    with pytest.raises(SpecError) as err:
        scenario(name, dt=0.05)
    message = str(err.value)
    assert f"scenario {name!r} has no argument 'dt'" in message
    assert "it takes " + ", ".join(BUILDER_PARAMETERS[name]) in message
    assert "sim.dt=0.05" in message
