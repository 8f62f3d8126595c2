"""The time structure drift and delay models declare to the engines.

The columnar engines trust ``DriftModel.rate_epoch`` (rates constant while
``int(t // rate_epoch)`` is) and ``DelayModel.static`` (delay independent of
``t``, nothing drawn) instead of calling the models every step; these
properties hold the declarations to the models' own ``rate`` / ``delay``.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.delay import (
    CallableDelay,
    DelaySpikeStorm,
    DirectionalDelay,
    FixedFractionDelay,
    UniformRandomDelay,
    ZeroDelay,
)
from repro.sim.drift import (
    ConstantDrift,
    NoDrift,
    RampAdversary,
    RandomConstantDrift,
    RandomWalkDrift,
    SinusoidalDrift,
    SurpriseSwapAdversary,
    TwoGroupAdversary,
    half_split,
)

RHO = 0.05
NODES = list(range(6))
_periods = st.floats(0.25, 20.0)
_optional_periods = st.none() | _periods
_seeds = st.integers(0, 2**16)


@st.composite
def drift_models(draw):
    kind = draw(
        st.sampled_from(
            ["none", "constant", "random_constant", "random_walk", "two_group",
             "ramp", "sinusoidal", "surprise"]
        )
    )
    if kind == "none":
        return NoDrift(RHO)
    if kind == "constant":
        offsets = draw(st.lists(st.floats(-RHO, RHO), min_size=len(NODES), max_size=len(NODES)))
        return ConstantDrift(RHO, dict(zip(NODES, offsets)))
    if kind == "random_constant":
        return RandomConstantDrift(RHO, NODES, seed=draw(_seeds))
    if kind == "random_walk":
        return RandomWalkDrift(RHO, NODES, period=draw(_periods), seed=draw(_seeds))
    if kind == "two_group":
        slow, fast = half_split(NODES)
        return TwoGroupAdversary(RHO, fast, slow, swap_period=draw(_optional_periods))
    if kind == "ramp":
        return RampAdversary(RHO, NODES, reverse_period=draw(_optional_periods))
    if kind == "sinusoidal":
        return SinusoidalDrift(RHO, period=draw(_periods))
    slow, fast = half_split(NODES)
    return SurpriseSwapAdversary(
        RHO, NoDrift(RHO), TwoGroupAdversary(RHO, fast, slow), draw(st.floats(0.0, 50.0))
    )


@settings(max_examples=300, deadline=None)
@given(
    model=drift_models(),
    t1=st.floats(0.0, 100.0),
    t_any=st.floats(0.0, 100.0),
    fraction=st.floats(0.0, 1.0, exclude_max=True),
)
def test_rates_are_constant_within_a_declared_epoch(model, t1, t_any, fraction):
    epoch = model.rate_epoch
    assume(epoch is not None)
    if epoch == math.inf:
        t2 = t_any
    else:
        key = int(t1 // epoch)
        t2 = (key + fraction) * epoch
        assume(int(t2 // epoch) == key)
    first = [model.rate(node, t1) for node in NODES]
    assert [model.rate(node, t2) for node in NODES] == first


def test_declared_epochs():
    slow, fast = half_split(NODES)
    assert NoDrift(RHO).rate_epoch == math.inf
    assert RandomConstantDrift(RHO, NODES, seed=1).rate_epoch == math.inf
    assert TwoGroupAdversary(RHO, fast, slow).rate_epoch == math.inf
    assert TwoGroupAdversary(RHO, fast, slow, swap_period=3.0).rate_epoch == 3.0
    assert RampAdversary(RHO, NODES).rate_epoch == math.inf
    assert RampAdversary(RHO, NODES, reverse_period=4.0).rate_epoch == 4.0
    assert RandomWalkDrift(RHO, NODES, period=5.0, seed=1).rate_epoch == 5.0
    assert SinusoidalDrift(RHO).rate_epoch is None
    assert SurpriseSwapAdversary(RHO, NoDrift(RHO), NoDrift(RHO), 1.0).rate_epoch is None


def test_overriding_rate_drops_the_inherited_declaration():
    class Wobble(NoDrift):
        def rate(self, node, t):
            return 1.0 + RHO * (int(t) % 2)

    class Unit(NoDrift):
        pass

    assert Wobble(RHO).rate_epoch is None
    assert Unit(RHO).rate_epoch == math.inf


@st.composite
def delay_models(draw):
    kind = draw(
        st.sampled_from(
            ["zero", "fixed", "directional", "uniform", "storm", "callable"]
        )
    )
    if kind == "zero":
        return ZeroDelay()
    if kind == "fixed":
        return FixedFractionDelay(draw(st.floats(0.0, 1.0)))
    if kind == "directional":
        return DirectionalDelay(draw(st.booleans()))
    if kind == "uniform":
        return UniformRandomDelay(0.1, 0.9, seed=draw(_seeds))
    if kind == "storm":
        return DelaySpikeStorm(ZeroDelay(), period=10.0, width=5.0, factor=2.0)
    return CallableDelay(lambda sender, receiver, t, bound: bound * (t % 1.0))


@settings(max_examples=200, deadline=None)
@given(
    model=delay_models(),
    sender=st.integers(0, 9),
    receiver=st.integers(0, 9),
    bound=st.floats(0.01, 10.0),
    t1=st.floats(0.0, 100.0),
    t2=st.floats(0.0, 100.0),
)
def test_static_delays_ignore_time(model, sender, receiver, bound, t1, t2):
    assume(model.static)
    first = model.delay(sender, receiver, t1, bound)
    assert model.delay(sender, receiver, t2, bound) == first


def test_declared_static_delays():
    assert ZeroDelay.static and FixedFractionDelay.static and DirectionalDelay.static
    assert not UniformRandomDelay.static
    assert not DelaySpikeStorm(ZeroDelay(), period=1.0, width=0.5).static
    assert not CallableDelay(lambda sender, receiver, t, bound: 0.0).static
