"""Cold-process benchmark of arcbricks.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload hom-table --seed 1 --seconds 40 --trace 0

The load is a closed loop with one client: one child process at a time,
each a fresh interpreter (so every ``@cache`` starts empty) that runs the
workload's whole case set in sequence and verifies it.  Rounds of children
repeat while another round fits in ``--seconds``.  Every child of a run
uses the same seed, so each repeats the same cold check.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's children.  A round is one full child, two set-up-only children (so
``setup_s`` is a median of many samples) and one calibration child, which
times a fixed stdlib-only job; one more calibration runs first.  Other tenants of a shared VM slow every
process down for tens of seconds at a time (by up to 2x on a shared
2-core VM), so each timing is divided by its round's slowdown: the
mean of the calibration times before and after the round, over
``REFERENCE_CALIBRATE_S``.  Timings thus read as
seconds at the reference speed.  The unscaled medians and every round's
calibration are kept in the full record.

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (medians), plus the tracing overhead
(median traced ``wall_s`` / median untraced ``wall_s``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment and every child's raw figures, is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("hom-table", "module-mutation", "weak-order")
DEFAULT_SEED = 1
# Never used while tuning a change; re-check any gain claim on it.
HOLDOUT_SEED = 9973
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
# The calibration job's time on a quiet 2-core Xeon VM (2.0 GHz,
# Python 3.11.7): the reference speed of the scaled timings.
REFERENCE_CALIBRATE_S = 0.40
TIMINGS = ("setup_s", "wall_s", "case_p50_us", "case_p99_us")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_us": "us",
    "case_p99_us": "us",
    "peak_rss_mib": "MiB",
    "pass_frac": "ratio",
}


class ChildError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat == "self_s":
        return "s"
    if stat in ("hit_ratio", "repeat_frac", "trace_overhead"):
        return "ratio"
    return "count"


def spawn(root: Path, out_dir: Path, workload: str, seed: int, n, mode: str) -> dict:
    """Run one child to completion and return its record, timed from spawn."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--scratch", str(out_dir),
    ]
    if n is not None:
        cmd += ["--n", str(n)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spawned = monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
    if "done" in record:
        record["wall_s"] = record["done"] - spawned
    return record


def measure(root, out_dir, workload, seed, seconds, trace, n=None):
    """Repeat rounds of children while another round fits in ``seconds``
    (at least one round); return (full, setup-only, calibration) records.

    Untraced rounds end with a calibration, and one more runs first, so
    each round's slowdown is the mean of the calibrations around it.
    """
    started = monotonic()
    full, probes, calibrations = [], [], []
    if not trace:
        calibrations.append(spawn(root, out_dir, workload, seed, n, "calibrate"))
    round_s = 0.0
    while not full or monotonic() - started + round_s <= seconds:
        round_start = monotonic()
        full.append(spawn(root, out_dir, workload, seed, n, "run"))
        if trace:
            full.append(spawn(root, out_dir, workload, seed, n, "trace"))
        else:
            round_records = [full[-1]]
            for _ in range(SETUP_PROBES):
                round_records.append(spawn(root, out_dir, workload, seed, n, "setup"))
            probes += round_records[1:]
            calibrations.append(spawn(root, out_dir, workload, seed, n, "calibrate"))
            around = (calibrations[-2]["calibrate_s"] + calibrations[-1]["calibrate_s"]) / 2
            for record in round_records:
                record["slowdown"] = around / REFERENCE_CALIBRATE_S
        round_s = monotonic() - round_start
    return full, probes, calibrations


def summarize(full: list[dict], probes: list[dict], trace: bool) -> dict:
    """The run's result, plus the unscaled medians of an untraced run."""
    untraced = [r for r in full if "layers" not in r]
    attempted = sum(r["cases"] for r in full)
    failed = sum(r["failed"] for r in full)
    median = statistics.median
    if trace:
        traced = [r for r in full if "layers" in r]
        values = {
            name: median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace_overhead"] = median(r["wall_s"] for r in traced) / median(
            r["wall_s"] for r in untraced
        )
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in values.items()
        }
        extra = {}
    else:
        samples = {name: untraced for name in TIMINGS}
        samples["setup_s"] = untraced + probes
        values = {
            name: median(r[name] / r["slowdown"] for r in records)
            for name, records in samples.items()
        }
        values["peak_rss_mib"] = median(r["peak_rss_mib"] for r in untraced)
        values["pass_frac"] = 1 - failed / attempted
        extra = {
            "unscaled": {
                name: median(r[name] for r in records)
                for name, records in samples.items()
            }
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **extra,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, n=None) -> dict:
    """Measure one workload; write the full record to ``.bench_out`` and return it."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    full, probes, calibrations = measure(root, out_dir, workload, seed, seconds, trace, n)
    result = summarize(full, probes, trace)
    record = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(root, seed),
        "children": full,
        "setup_probes": probes,
        "calibrations": calibrations,
        **result,
    }
    path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Cold-process benchmark of arcbricks; run from the checkout root."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"draws sampled cases and shuffles case order (default {DEFAULT_SEED}; "
        f"{HOLDOUT_SEED} is the holdout seed)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "arcbricks" / "__init__.py").is_file():
        print("error: run from the root of an arcbricks checkout (src/arcbricks missing)",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": record["env"]}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
