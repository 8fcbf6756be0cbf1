"""Each module loads only its own layer.

The package namespace is empty, so ``import arcbricks`` loads no module of
it, and importing one module loads exactly the modules its top-level
``from .x import`` and ``from . import x`` lines name, transitively, plus
the package itself.  The expected sets are read from the source, so the
test needs no list of modules; one fresh interpreter imports each module
in turn, with every ``arcbricks`` entry cleared from ``sys.modules``
before each import.

Each module also keeps its internals: no module imports or reads a
single-underscore name of another package module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import arcbricks

PACKAGE = Path(arcbricks.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

PROBE = """
import importlib, json, sys
loaded = {}
for name in ["arcbricks", *(f"arcbricks.{m}" for m in sys.argv[1:])]:
    for key in [k for k in sys.modules if k.split(".")[0] == "arcbricks"]:
        del sys.modules[key]
    importlib.import_module(name)
    loaded[name] = sorted(k for k in sys.modules if k.split(".")[0] == "arcbricks")
print(json.dumps(loaded))
"""


def direct_imports(module: str) -> set[str]:
    """The package modules named by a module's top-level relative imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(direct_imports(m))
    return seen


def loaded_modules() -> dict[str, list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *MODULES],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_each_module_loads_exactly_its_import_closure():
    loaded = loaded_modules()
    assert loaded["arcbricks"] == ["arcbricks"]
    for module in MODULES:
        expected = {"arcbricks", *(f"arcbricks.{m}" for m in closure(module))}
        assert set(loaded[f"arcbricks.{module}"]) == expected, module
    # the bottom layer, as the source says today
    assert loaded["arcbricks.permutations"] == [
        "arcbricks",
        "arcbricks.lazy",
        "arcbricks.permutations",
    ]
    # the graph-map route: string combinatorics, no quiver or linear algebra
    assert loaded["arcbricks.strings"] == [
        "arcbricks",
        "arcbricks.arcs",
        "arcbricks.lazy",
        "arcbricks.permutations",
        "arcbricks.strings",
    ]


def private_reads(module: str) -> list[str]:
    """``module -> other._name`` for each single-underscore name of another
    package module that a module imports or reads, anywhere in its source:
    ``from .other import _name``, or ``other._name`` on a module bound by
    ``from . import other``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    found.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                found.append((aliases[node.value.id], node.attr))
    return [
        f"{module} -> {other}.{name}"
        for other, name in found
        if other != module and name.startswith("_") and not name.startswith("__")
    ]


def test_no_module_reads_another_modules_private_names():
    assert [read for module in MODULES for read in private_reads(module)] == []
