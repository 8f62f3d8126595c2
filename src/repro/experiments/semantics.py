"""The fingerprint of the code that decides a result's bits.

A cached result stays valid only while the code that produced it is
unchanged.  The cache format version tracks the file layout and the library
version is bumped by hand, so neither notices an edit to the simulation.
:data:`SEMANTICS` does: it is a digest of every module that decides a
result's bits (:func:`result_files`), taken over each module's syntax tree
with docstrings dropped, so a comment or docstring edit leaves it alone.
The cache writes it into each entry's head line and serves an entry only
under the same digest.

Hashing the trees takes about half a second, so the digest is a committed
constant, not computed at import.  ``tests/test_semantics.py`` recomputes
it: a change that moves a digested line fails that test, which prints the
new value to commit here -- and every cached result written before it is
re-run on first use.
"""

from __future__ import annotations

import ast
from hashlib import blake2b
from pathlib import Path
from typing import List, Optional

#: Packages of ``repro`` whose every module decides results.
RESULT_PACKAGES = (
    "baselines",
    "chaos",
    "core",
    "estimate",
    "fastsim",
    "jitsim",
    "lower_bounds",
    "metrics",
    "network",
    "sim",
    "vecsim",
)
#: Single modules that decide results: what a spec means, how it runs to its
#: payload, and the strict-JSON form every payload and report is put in.
RESULT_MODULES = (
    "experiments/registry.py",
    "experiments/results.py",
    "experiments/spec.py",
    "telemetry/schema.py",
)
#: Files read at run time, digested byte for byte: the jit kernel source and
#: the chaos pack (a chaos spec names its scenario file, not its content).
RESULT_DATA = ("jitsim/_fused_loop.c", "chaos/scenarios/*.json")

SEMANTICS = "c09adf4f1a0d0d3aacca28be2c26220c"


def result_files(root: Optional[Path] = None) -> List[Path]:
    """Every file the digest covers, sorted by path below the package root."""
    root = Path(__file__).resolve().parents[1] if root is None else root
    files = {root / module for module in RESULT_MODULES}
    for package in RESULT_PACKAGES:
        files.update((root / package).rglob("*.py"))
    for pattern in RESULT_DATA:
        files.update(root.glob(pattern))
    return sorted(files, key=lambda path: path.relative_to(root).as_posix())


def _is_docstring(node) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _canonical(node) -> str:
    """A syntax tree as text, the same on every supported Python: fields by
    name, empty and absent ones skipped (newer versions add fields that are
    empty on older syntax), string statements (docstrings) dropped."""
    if isinstance(node, ast.AST):
        fields = []
        for name in sorted(node._fields):
            value = getattr(node, name, None)
            if value is not None and value != []:
                fields.append(f"{name}={_canonical(value)}")
        return f"{type(node).__name__}({','.join(fields)})"
    if isinstance(node, list):
        return "[" + ",".join(_canonical(item) for item in node if not _is_docstring(item)) + "]"
    return repr(node)


def compute_semantics(root: Optional[Path] = None) -> str:
    """The digest :data:`SEMANTICS` must equal for the code under ``root``."""
    root = Path(__file__).resolve().parents[1] if root is None else root
    digest = blake2b(digest_size=16)
    for path in result_files(root):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        data = path.read_bytes()
        if path.suffix == ".py":
            data = _canonical(ast.parse(data, filename=str(path))).encode()
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()
