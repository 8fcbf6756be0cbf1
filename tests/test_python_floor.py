"""Every source file parses at the ``requires-python`` floor.

``ast.parse`` with ``feature_version`` rejects syntax newer than the floor
(``except*`` or a PEP 695 ``type`` statement, say), so a newer interpreter
catches what only a CI job on the oldest supported version would.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def requires_python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_file_parses_at_the_python_floor():
    floor = requires_python_floor()
    paths = sorted(
        path
        for part in ("src", "tests", "benchmarks")
        for path in (ROOT / part).rglob("*.py")
    )
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
