"""Self-test of the benchmark at n=3.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import arcbricks.mutation
import arcbricks.strings
import child
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record = run.run(workload, seed=1, seconds=0, trace=bool(trace), root=ROOT, n=3)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in record["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        calls = {
            name: m["value"]
            for name, m in record["metrics"].items()
            if name.endswith(".calls")
        }
        # The bypass predictions of the workload design.
        if workload == "weak-order":
            for name in ("linalg.rref", "linalg.nullspace", "quiver.hom_basis"):
                assert calls[f"{name}.calls"] == 0
        if workload == "hom-table":
            assert all(v == 0 for k, v in calls.items() if k.startswith("mutation."))
        assert record["metrics"]["trace_overhead"]["value"] > 0


def off_by_one(alpha, beta):
    return len(arcbricks.strings.graph_maps(alpha, beta)) + 1


@pytest.mark.parametrize("workload", ["hom-table", "weak-order"])
def test_a_wrong_route_fails_the_run(workload, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(arcbricks.strings, "graph_map_count", off_by_one)
    monkeypatch.setattr(arcbricks.mutation, "graph_map_count", off_by_one)
    argv = ["--workload", workload, "--seed", "1", "--n", "3", "--mode", "run"]
    assert child.main([*argv, "--scratch", str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["failed"] > 0
    record.update(setup_s=0.1, wall_s=1.0, slowdown=1.0)
    result = run.summarize([record], [], trace=False)
    assert not result["correct"]
    assert result["failed"] == record["failed"]
    assert result["metrics"]["pass_frac"]["value"] < 1


def test_missing_package_exits_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "hom-table", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
