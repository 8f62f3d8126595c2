"""The compiled kernel of the jit backend.

The fused segment kernel is ``_fused_loop.c``, compiled on demand into a
cached shared library with the system C compiler and called through
:mod:`ctypes`.  Compile flags are ``-O3 -ffp-contract=off`` and
deliberately *not* ``-march=native`` / ``-ffast-math``: plain IEEE-754
double ops in source order, so the library is bit-identical to the
reference engine.  Without numpy or a working C compiler the jit backend
reports unavailable.  ``REPRO_JIT_CACHE_DIR`` overrides where compiled
shared libraries are cached (default ``~/.cache/repro-jitsim``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

__all__ = [
    "KernelProvider",
    "ProviderUnavailableError",
    "get_provider",
    "provider_available",
    "reset_provider_cache",
]

CACHE_DIR_ENV = "REPRO_JIT_CACHE_DIR"

#: Bump when the kernel ABI (argument list) changes so stale cached shared
#: libraries are never loaded.
_KERNEL_ABI = 2

#: ctypes argument spec for ``fused_segment`` in canonical order (``real``
#: is the C kernel's name for double).
_ARG_KINDS = (
    "i64",  # n_nodes
    "i64",  # steps
    "f64",  # dt
    "f64*",  # t_steps
    "real*",  # hardware
    "real*",  # logical
    "real*",  # last_hardware
    "real*",  # max_estimate
    "real*",  # next_broadcast
    "real*",  # multiplier
    "i64*",  # mode
    "f64",  # iota
    "f64",  # fast_mult
    "f64",  # max_factor
    "real*",  # rates
    "f64",  # interval
    "i64",  # strat
    "i64*",  # indptr
    "i64*",  # nbr
    "real*",  # eps
    "i64*",  # level
    "i64*",  # table_id
    "real*",  # thresholds
    "i64",  # n_levels
    "i64*",  # sb_indptr
    "i64*",  # sb_recv
    "f64*",  # sb_bound
    "f64*",  # sb_static
    "i64",  # uniform_delay
    "f64",  # low
    "f64",  # span
    "i64*",  # mt_state (624 words + position)
    "i64",  # n_pend
    "i64*",  # pend_recv
    "real*",  # pend_val
    "f64*",  # pend_time
    "i64",  # cap_total
    "i64*",  # bh_head
    "i64*",  # bh_next
    "i64*",  # b_recv
    "real*",  # b_val
    "f64*",  # b_time
    "i64",  # n_snap
    "i64*",  # snap_step
    "real*",  # snap_logical
    "real*",  # snap_hardware
    "real*",  # snap_multiplier
    "real*",  # snap_max_estimate
    "i64*",  # snap_mode
    "i64*",  # left_recv
    "real*",  # left_val
    "f64*",  # left_time
    "i64*",  # out_counts
    "real*",  # ahead_scratch
    "i64*",  # level_scratch
    "i64*",  # tid_scratch
)


class ProviderUnavailableError(RuntimeError):
    """No C toolchain can build the jit kernel."""


class KernelProvider:
    """The compiled C kernel, loaded via ctypes on first use.

    ``name`` is ``cc``; ``fused_segment`` runs one segment (canonical
    argument order, returns the int status).
    """

    name = "cc"

    def __init__(self, compiler: str):
        self._compiler = compiler
        self._fn = None

    def fused_segment(self, *args):
        fn = self._fn
        if fn is None:
            lib = ctypes.CDLL(str(_compiled_library(self._compiler)))
            fn = self._fn = lib.fused_segment
            fn.restype = ctypes.c_int64
        cargs = []
        for kind, value in zip(_ARG_KINDS, args):
            if kind == "i64":
                cargs.append(ctypes.c_int64(int(value)))
            elif kind == "f64":
                cargs.append(ctypes.c_double(float(value)))
            else:
                if not value.flags["C_CONTIGUOUS"]:  # pragma: no cover
                    raise ValueError("kernel arrays must be C-contiguous")
                cargs.append(ctypes.c_void_p(value.ctypes.data))
        return int(fn(*cargs))


def _source_path() -> Path:
    return Path(__file__).with_name("_fused_loop.c")


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-jitsim"


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compiled_library(compiler: str) -> Path:
    """Compile (or reuse the cached) shared library of the C kernel.

    The cache key hashes the kernel source, the ABI version, the compiler
    name and the flags, so editing the kernel or switching toolchains never
    loads a stale library.  Compilation is atomic (build to a temp file,
    ``os.replace`` into place) so concurrent sweep workers race benignly.
    A cache directory that cannot be created or written declines the
    kernel like a failed compile does.
    """
    source = _source_path()
    payload = source.read_bytes()
    # -O3 without any of the value-changing flags: no -ffast-math, no
    # -march=native, contraction off -- plain IEEE-754 ops in source order,
    # so the library stays bit-identical to the reference engine.
    flags = ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]
    tag = hashlib.sha256(
        b"|".join(
            [
                payload,
                str(_KERNEL_ABI).encode(),
                compiler.encode(),
                " ".join(flags).encode(),
            ]
        )
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"fused_loop_{tag}.so"
    if lib_path.exists():
        return lib_path
    tmp = None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        subprocess.run(
            [compiler] + flags + ["-o", tmp, str(source)],
            check=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        os.replace(tmp, lib_path)
    except (OSError, subprocess.CalledProcessError) as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise ProviderUnavailableError(
            f"compiling the jit kernel with {compiler!r} into {cache} failed: {exc}"
        ) from exc
    return lib_path


def _numpy_available() -> bool:
    import importlib.util

    return importlib.util.find_spec("numpy") is not None


def _cc_usable() -> bool:
    """Whether the C kernel can actually produce a library (cached)."""
    compiler = _find_compiler()
    if compiler is None:
        return False
    try:
        _compiled_library(compiler)
    except ProviderUnavailableError:
        return False
    return True


_RESOLVED: Optional[tuple] = None


def reset_provider_cache() -> None:
    """Forget the resolved kernel (tests flip env vars / monkeypatches)."""
    global _RESOLVED
    _RESOLVED = None


def _resolve() -> Optional[KernelProvider]:
    if _numpy_available() and _cc_usable():
        return KernelProvider(_find_compiler())
    return None


def get_provider() -> Optional[KernelProvider]:
    """The compiled kernel for this process, or ``None``.

    Resolution (compile self-check) runs once; tests that monkeypatch
    availability call :func:`reset_provider_cache`.
    """
    global _RESOLVED
    if _RESOLVED is None:
        _RESOLVED = (_resolve(),)
    return _RESOLVED[0]


def provider_available() -> bool:
    return get_provider() is not None
