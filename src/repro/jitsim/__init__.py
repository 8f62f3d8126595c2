"""repro.jitsim -- the compiled fused-time-loop backend ("jit").

A fourth :class:`~repro.fastsim.backend.EngineBackend` that keeps vecsim's
semantics (and bit-identical results) while replacing the per-step Python
round-trips with one compiled kernel invocation per regular step segment.
See :mod:`repro.jitsim.engine` for the driver, ``_fused_loop.c`` for the
fused loop, and :mod:`repro.jitsim.providers` for how it is compiled and
loaded.
"""

from .engine import JitEngine
from .providers import (
    ProviderUnavailableError,
    get_provider,
    provider_available,
    reset_provider_cache,
)

__all__ = [
    "JitEngine",
    "ProviderUnavailableError",
    "get_provider",
    "provider_available",
    "reset_provider_cache",
]
