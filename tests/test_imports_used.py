"""Every name a module of ``src/repro`` imports at top level is read there.

No third-party linter is needed: the standard library's ``ast`` finds each
name bound by a top-level ``import`` / ``from ... import`` of a module
(package ``__init__.py`` files re-export, so they are left out) and looks
for a read of it.  A read is a ``Name`` node that loads it, or the name as a
word inside a string constant other than a docstring, which covers
``__all__`` entries and quoted annotations (a name that only a docstring
mentions is not read).
"""

import ast
import re
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def imported_names(tree: ast.Module):
    """``(name, line)`` per name bound by a top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def docstrings(tree: ast.Module):
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def read_names(tree: ast.Module):
    skip = {id(node) for node in docstrings(tree)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in skip:
                reads.update(WORD.findall(node.value))
    return reads


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = read_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in reads]


def test_every_top_level_import_is_read():
    unused = [
        f"{path.relative_to(PACKAGE.parent)}:{line} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_the_rule_sees_annotations_all_and_aliases(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Dict, List, Optional, Tuple\n"
        "import os.path\n"
        "import json as j\n"
        "__all__ = ['Dict']\n"
        "def f(x: 'Optional[int]'):\n"
        '    """Returns a List."""\n'
        "    return os.path.join(x)\n"
    )
    assert unused_imports(module) == [("List", 1), ("Tuple", 1), ("j", 3)]
