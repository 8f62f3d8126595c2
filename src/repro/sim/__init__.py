"""Simulation engine, adversarial drift/delay models, traces and runners."""

from .delay import (
    CallableDelay,
    DelayModel,
    DirectionalDelay,
    FixedFractionDelay,
    UniformRandomDelay,
    ZeroDelay,
)
from .drift import (
    ConstantDrift,
    DriftModel,
    NoDrift,
    RampAdversary,
    RandomConstantDrift,
    RandomWalkDrift,
    SinusoidalDrift,
    SurpriseSwapAdversary,
    TwoGroupAdversary,
    half_split,
)
from .engine import Engine, EngineError
from .runner import (
    SimulationConfig,
    SimulationResult,
    build_engine,
    default_aopt_config,
    run_aopt,
    run_simulation,
)
from .trace import Trace, TraceSample

__all__ = [
    "CallableDelay",
    "DelayModel",
    "DirectionalDelay",
    "FixedFractionDelay",
    "UniformRandomDelay",
    "ZeroDelay",
    "ConstantDrift",
    "DriftModel",
    "NoDrift",
    "RampAdversary",
    "RandomConstantDrift",
    "RandomWalkDrift",
    "SinusoidalDrift",
    "SurpriseSwapAdversary",
    "TwoGroupAdversary",
    "half_split",
    "Engine",
    "EngineError",
    "SimulationConfig",
    "SimulationResult",
    "build_engine",
    "default_aopt_config",
    "run_aopt",
    "run_simulation",
    "Trace",
    "TraceSample",
]
