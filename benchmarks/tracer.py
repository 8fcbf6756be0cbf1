"""In-memory span tracing around the package's public functions.

``Tracer.install()`` replaces each function in ``TRACED`` by a wrapper, at
every ``arcbricks.*`` module namespace that binds it (``mutation`` imports
``hom_basis`` by name, ``cli`` imports ``family_count``, and so on).  The
wrappers sit outside any ``@cache``.  Each call records a span: name,
start, end, parent span and case id, in flat arrays so that a few hundred
thousand spans stay small.  A generator function gets one span per
resumption, so its self time excludes the consumer's work between items.

A span's self time is its duration minus the durations of its child
spans; spans nest strictly because the benchmark runs on one thread.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

TRACED = {
    "linalg": ("rref", "nullspace", "solve_matrix"),
    "quiver": ("hom_basis", "arc_module", "morphism_parts", "is_isomorphic", "ext1_dim"),
    "strings": ("graph_map_count",),
    "arcs": ("double_diagram", "is_crossing", "check_nad", "iter_compatible_index_sets"),
    "mutation": (
        "mutate_smc_collection",
        "mutate_dad",
        "smc_leq",
        "psi",
        "collections_match",
    ),
    "permutations": ("join", "weak_leq"),
    "quotients": ("family_count",),
    "cli": ("main",),
    "render": ("render_svg",),
}

# Functions behind functools.cache whose cache_info() is reported.
CACHED = ("quiver.hom_basis", "quiver.arc_module")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_case = array("l")
        self._stack = [-1]
        self.case = -1
        self.rref_cells = 0
        self.graph_map_pairs: set = set()
        self.graph_map_repeats = 0
        self._caches: dict = {}
        self._cache_before: dict = {}

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "arcbricks" or name.startswith("arcbricks.")
        ]
        hooks = {
            "linalg.rref": self._count_cells,
            "strings.graph_map_count": self._count_repeat,
        }
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"arcbricks.{module_name}")
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name)
                if name in CACHED:
                    self._caches[name] = original
                wrapper = self._wrap(name, original, hooks.get(name))
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)

    def start_cases(self) -> None:
        """Snapshot the cache counters; call just before the first case."""
        self._cache_before = {
            name: fn.cache_info() for name, fn in self._caches.items()
        }

    def _wrap(self, name, fn, hook):
        k = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                calls[k] += 1
                return self._resumptions(k, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                calls[k] += 1
                if hook is not None:
                    hook(*args)
                span = self._open(k)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _resumptions(self, k, generator):
        while True:
            span = self._open(k)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(span)
            yield item

    def _open(self, k: int) -> int:
        span = len(self.span_name)
        self.span_name.append(k)
        self.span_parent.append(self._stack[-1])
        self.span_case.append(self.case)
        self.span_end.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def _count_cells(self, m, *_):
        self.rref_cells += len(m) * (len(m[0]) if m else 0)

    def _count_repeat(self, alpha, beta, *_):
        pair = (alpha, beta)
        if pair in self.graph_map_pairs:
            self.graph_map_repeats += 1
        else:
            self.graph_map_pairs.add(pair)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures: calls and self time for every traced function,
        plus rref cells, cache counters and graph-map repeats."""
        spans = len(self.span_name)
        covered = array("d", bytes(8 * spans))
        for i in range(spans):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        self_s = [0.0] * len(self.names)
        for i in range(spans):
            self_s[self.span_name[i]] += (
                self.span_end[i] - self.span_start[i] - covered[i]
            )
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out["linalg.rref.cells"] = self.rref_cells
        for name, fn in self._caches.items():
            after, before = fn.cache_info(), self._cache_before[name]
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            calls = out[f"{name}.calls"]
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
        calls = out["strings.graph_map_count.calls"]
        out["strings.graph_map_count.repeat_frac"] = (
            self.graph_map_repeats / calls if calls else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span; times are seconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tcase\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - origin:.9f}\t"
                    f"{self.span_end[i] - origin:.9f}\t"
                    f"{self.span_parent[i]}\t{self.span_case[i]}\n"
                )
