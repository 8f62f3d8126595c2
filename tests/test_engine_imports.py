"""The columnar engines learn a model's time structure from its declaration.

Drift and delay models declare ``rate_epoch`` / ``static`` in the modules
that define them; an engine that imports a concrete model class to switch on
its type re-derives that knowledge.  The only concrete classes an engine may
import are the defaults it builds (``NoDrift``, ``UniformRandomDelay``) and
the uniform model its batched draw replays.

The jit engine is one object per run, so it reads underscored fields off
``self`` only, never off another object (the delay model's rng excepted).
"""

import ast
import re
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
ENGINES = ["fastsim/engine.py", "vecsim/engine.py", "jitsim/engine.py"]
ALLOWED = {
    "repro.sim.drift": {"DriftModel", "NoDrift"},
    "repro.sim.delay": {"UniformRandomDelay"},
}


def imports(relative: str):
    """``(module, name)`` per imported name; ``name`` is ``None`` for ``import m``."""
    path = PACKAGE / relative
    package = ["repro"] + list(Path(relative).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_import_no_concrete_models(engine):
    bad = []
    for module, name in imports(engine):
        full = module if name is None else f"{module}.{name}"
        # A whole model module, or a class it does not allow.
        if full in ALLOWED or (module in ALLOWED and name not in ALLOWED[module]):
            bad.append(full)
    assert bad == []


def test_jit_imports_no_plan_classes():
    plans = [
        name
        for _, name in imports("jitsim/engine.py")
        if name and re.fullmatch(r"_\w*Plan", name)
    ]
    assert plans == []


#: The one foreign underscored read the jit engine keeps: the delay model's
#: Python rng, whose Mersenne-Twister state the kernel takes over.
FOREIGN_ALLOWED = {"_rng"}


def is_self(owner: ast.expr) -> bool:
    """``self`` or ``super()``: the engine reading its own fields."""
    if isinstance(owner, ast.Call):
        owner = owner.func
        return isinstance(owner, ast.Name) and owner.id == "super"
    return isinstance(owner, ast.Name) and owner.id == "self"


def test_jit_reads_no_underscored_field_off_another_object():
    """Every ``x._name`` in the jit engine has ``x`` = ``self`` (or is ``_rng``)."""
    tree = ast.parse((PACKAGE / "jitsim/engine.py").read_text())
    foreign = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and node.attr not in FOREIGN_ALLOWED
        and not is_self(node.value)
    ]
    assert foreign == []
