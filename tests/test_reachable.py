"""Every public function, class and method of the package has a caller.

A caller is a reference by name in other package code or in
``benchmarks/*.py``: the CLI, a criterion or the benchmark.  A name in a
string counts, since the benchmark's tracer names the functions it wraps
that way.  References in tests, in ``__init__.py`` and inside the definition
itself do not count, so a helper that only tests need lives in the tests.
A top-level function is reached only by its bare name, a string, or an
attribute read off a package module (``linalg.identity``,
``arcbricks.strings.graph_maps``), so a method call such as ``f.mat(v)``
does not reach a function ``mat``.  Methods and classes are matched by name
alone, so two methods with one name count as one.
"""

import ast
from pathlib import Path

import arcbricks

PACKAGE = Path(arcbricks.__file__).parent
BENCHMARKS = PACKAGE.parent.parent / "benchmarks"
MODULES = {"arcbricks", *(path.stem for path in PACKAGE.glob("*.py"))}


def parse(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def public(node) -> bool:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return isinstance(node, kinds) and not node.name.startswith("_")


def public_definitions(modules) -> list[tuple[str, ast.AST, bool]]:
    """``(qualified name, node, is a top-level function)`` for every public
    top-level function and class and every public method of those classes."""
    found = []
    for path, tree in modules.items():
        for node in filter(public, tree.body):
            function = isinstance(node, ast.FunctionDef)
            found.append((f"{path.stem}.{node.name}", node, function))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item, False)
                    for item in filter(public, node.body)
                )
    return found


def on_module(node: ast.Attribute) -> bool:
    """Whether an attribute is read off a package module, by a dotted path
    of module names such as ``linalg`` or ``arcbricks.strings``."""
    value = node.value
    while isinstance(value, ast.Attribute) and value.attr in MODULES:
        value = value.value
    return isinstance(value, ast.Name) and value.id in MODULES


def references(trees) -> list[tuple[str, frozenset[int], bool]]:
    """Every name used in the trees, as a variable, an attribute or a string,
    with the ids of the definitions it sits inside and whether it can name a
    top-level function: every name but an attribute on something other than
    a package module."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            found.append((node.id, inside, True))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside, on_module(node)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, inside, True))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees:
        visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller():
    modules = parse(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    benchmarks = parse(sorted(BENCHMARKS.glob("*.py")))
    definitions = public_definitions(modules)
    assert len(definitions) > 100
    used = references([*modules.values(), *benchmarks.values()])
    unreached = [
        qualname
        for qualname, node, function in definitions
        if not any(
            name == node.name and id(node) not in inside and (direct or not function)
            for name, inside, direct in used
        )
    ]
    assert unreached == []
