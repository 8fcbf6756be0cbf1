"""Every public function, class and method of the package has a caller.

A caller is a reference by name in other package code or in
``benchmarks/*.py``: the CLI, a criterion or the benchmark.  A name in a
string counts, since the benchmark's tracer names the functions it wraps
that way.  References in tests, in ``__init__.py`` and inside the definition
itself do not count, so a helper that only tests need lives in the tests.
The scan matches by name alone, so two methods with one name count as one.
"""

import ast
from pathlib import Path

import arcbricks

PACKAGE = Path(arcbricks.__file__).parent
BENCHMARKS = PACKAGE.parent.parent / "benchmarks"


def parse(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def public(node) -> bool:
    kinds = (ast.FunctionDef, ast.ClassDef)
    return isinstance(node, kinds) and not node.name.startswith("_")


def public_definitions(modules) -> list[tuple[str, ast.AST]]:
    """``(qualified name, node)`` for every public top-level function and
    class and every public method of those classes."""
    found = []
    for path, tree in modules.items():
        for node in filter(public, tree.body):
            found.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item)
                    for item in filter(public, node.body)
                )
    return found


def references(trees) -> list[tuple[str, frozenset[int]]]:
    """Every name used in the trees, as a variable, an attribute or a string,
    with the ids of the definitions it sits inside."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(node, ast.Name):
            found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.append((node.value, inside))
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
        for qualname, node in definitions
        if not any(
            name == node.name and id(node) not in inside for name, inside in used
        )
    ]
    assert unreached == []
