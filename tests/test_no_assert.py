"""Checks in the package must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import arcbricks

PACKAGE = Path(arcbricks.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
