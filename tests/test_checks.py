"""The criteria table: its names and suites, and that a broken route fails."""

import arcbricks.checks as checks
from arcbricks.checks import CRITERIA, run_criterion, run_suite
from arcbricks.cli import main
from arcbricks.permutations import weak_leq
from arcbricks.strings import graph_map_count


def criterion(number):
    return next(c for c in CRITERIA if c.number == number)


def off_by_one(alpha, beta):
    return graph_map_count(alpha, beta) + 1


def test_suites_run_their_criteria_in_table_order():
    names = {suite: [r.name for r in run_suite(suite, 1)] for suite in checks.SUITES}
    assert names == {
        "all": [c.name for c in CRITERIA],
        "bijection": [
            "bijection-counts",
            "brick-classification",
            "semibrick-oracle",
            "canonical-join-representations",
        ],
        "homs": ["graph-maps-equal-linear-algebra", "orthogonality-iff-noncrossing"],
        "mutation": ["mutation-compatibility", "module-mutation-oracle"],
        "order": ["order-criterion", "hasse-structure"],
        "quotients": ["quotient-families"],
    }


def test_max_n_below_the_range_skips_the_criterion():
    result = run_criterion(criterion("05"), max_n=2)
    assert result.passed and result.detail == "skipped (range starts at n=3)"


def test_wrong_graph_map_count_fails_criterion_03(monkeypatch):
    monkeypatch.setattr(checks, "graph_map_count", off_by_one)
    result = run_criterion(criterion("03"), max_n=3)
    assert not result.passed
    assert result.counterexample.startswith("n=3 ")
    assert result.detail.endswith("121 failure(s)")


def test_negated_weak_order_fails_criterion_08(monkeypatch):
    monkeypatch.setattr(checks, "weak_leq", lambda u, w: not weak_leq(u, w))
    assert not run_criterion(criterion("08"), max_n=3).passed


def test_identity_mutation_fails_criterion_06(monkeypatch):
    monkeypatch.setattr(checks, "mutate_dad", lambda diagram, i, direction: diagram)
    assert not run_criterion(criterion("06"), max_n=3).passed


def test_check_command_exits_1_while_a_route_is_broken(monkeypatch, capsys):
    monkeypatch.setattr(checks, "graph_map_count", off_by_one)
    assert main(["check", "--suite", "homs", "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL graph-maps-equal-linear-algebra" in out
    assert out.endswith("CHECK FAILURES (1/2)\n")
