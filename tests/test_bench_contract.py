"""The package names the benchmark traces and patches must stay bound.

``benchmarks/tracer.py`` wraps every function in ``TRACED`` and reads
``cache_info()`` from every function in ``CACHED``; the benchmark self-test
replaces ``graph_map_count`` in ``arcbricks.strings`` and
``arcbricks.mutation``.  Removing one of these names breaks the benchmark,
which the package tests would not otherwise notice.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(name):
    module_name, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"arcbricks.{module_name}"), attr, None)


def test_traced_and_patched_names_are_bound():
    tracer = load_tracer()
    for module_name, functions in tracer.TRACED.items():
        for fn in functions:
            assert callable(bound(f"{module_name}.{fn}")), f"{module_name}.{fn}"
    for name in tracer.CACHED:
        assert hasattr(bound(name), "cache_info"), name
    for name in (
        "mutation.graph_map_count",
        "strings.graph_map_count",
        "strings.graph_maps",
    ):
        assert callable(bound(name)), name
