"""One cold benchmark process: set up one workload, run its cases, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``, so every ``@cache`` starts empty.  Prints one JSON object on
stdout.  Times that ``run.py`` compares with its own spawn time are
``CLOCK_MONOTONIC`` readings, which are shared by all processes.

``--mode calibrate`` times a fixed stdlib-only job instead, in a process
that never imports the package, so no change to the package can move it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import tempfile
import time
from fractions import Fraction


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def calibrate() -> float:
    """Seconds for exact Fraction elimination plus hashing and lookups over
    a few MB of tuples: the same kinds of work as the workloads."""
    start = time.perf_counter()
    size = 9
    for rep in range(10):
        m = [[Fraction(i * j + rep + 1, i + j + 1) for j in range(size)] for i in range(size)]
        for c in range(size):
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(size):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    rng = random.Random(1)
    items = [(i, frozenset((i % 5, i % 7, i))) for i in range(60000)]
    index = {item: Fraction(item[0], 7) for item in items}
    total = Fraction(0)
    for _ in range(60000):
        total += index[items[rng.randrange(len(items))]]
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--mode", choices=["calibrate", "setup", "run", "trace"], required=True)
    parser.add_argument("--scratch", required=True, help="directory for CLI output and spans")
    args = parser.parse_args(argv)
    if args.mode == "calibrate":
        print(json.dumps({"calibrate_s": calibrate()}))
        return 0

    from workloads import WORKLOADS

    build = WORKLOADS[args.workload]
    sizes = {} if args.n is None else {"n": args.n}
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmpdir:
        cases, totals = build(args.seed, tmpdir=tmpdir, **sizes)
        ready = monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0

        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.start_cases()

        latencies = []
        failed = 0
        for index, (fn, case_args) in enumerate(cases):
            if tracer is not None:
                tracer.case = index
            error = ""
            start = time.perf_counter_ns()
            try:
                ok = fn(*case_args)
            except Exception as exc:  # a raising case is a failed case
                ok = False
                error = f": {type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter_ns() - start)
            if not ok:
                failed += 1
                if failed <= 5:
                    label = ", ".join(map(str, case_args))
                    print(f"case failed: {fn.__name__}({label}){error}", file=sys.stderr)
        problems = totals()
        done = monotonic()

    for problem in problems:
        print(f"totals check failed: {problem}", file=sys.stderr)
    if problems:
        # A run whose totals disagree verified nothing.
        failed = len(cases)
    latencies.sort()
    record = {
        "ready": ready,
        "done": done,
        "cases": len(cases),
        "failed": failed,
        "case_p50_us": percentile(latencies, 0.50) / 1e3,
        "case_p99_us": percentile(latencies, 0.99) / 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write_spans(
            os.path.join(args.scratch, f"spans-{args.workload}-seed{args.seed}.tsv")
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
