"""repro.jitsim -- the compiled fused-time-loop backend ("jit").

A fourth :class:`~repro.fastsim.backend.EngineBackend` that keeps vecsim's
semantics (and bit-identical results) while replacing the per-step Python
round-trips with one compiled kernel invocation per regular step segment.
See :mod:`repro.jitsim.engine` for the driver, :mod:`repro.jitsim.kernel`
for the (numba-njittable) fused loop, ``_fused_loop.c`` for its line-for-line
C port, and :mod:`repro.jitsim.providers` for how an executable kernel form
(numba or on-demand-compiled C) is resolved.
"""

from .engine import JitContext, JitEngine, build_batch
from .providers import (
    ProviderUnavailableError,
    get_provider,
    provider_available,
    reset_provider_cache,
)

__all__ = [
    "JitContext",
    "JitEngine",
    "ProviderUnavailableError",
    "build_batch",
    "get_provider",
    "provider_available",
    "reset_provider_cache",
]
