"""The criteria table: its names and suites, and that a broken route fails."""

import arcbricks.arcs as arcs
import arcbricks.checks as checks
import arcbricks.mutation as mutation
import arcbricks.quiver as quiver
import arcbricks.strings as strings
from arcbricks.arcs import double_diagram
from arcbricks.checks import CRITERIA, run_criterion, run_suite
from arcbricks.cli import main
from arcbricks.permutations import all_permutations, descents, weak_leq
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


def test_wrong_graph_map_count_fails_criterion_08_after_a_warm_run(monkeypatch):
    # The out-mask table is cached per n; a count patched in after a run
    # that warmed it must still be the one smc_leq uses.
    assert run_criterion(criterion("08"), max_n=3).passed
    monkeypatch.setattr(mutation, "graph_map_count", off_by_one)
    result = run_criterion(criterion("08"), max_n=3)
    assert not result.passed
    assert result.counterexample.startswith("n=3 ")


def test_identity_mutation_fails_criterion_06(monkeypatch):
    monkeypatch.setattr(checks, "mutate_dad", lambda diagram, i, direction: diagram)
    assert not run_criterion(criterion("06"), max_n=3).passed


def test_mutation_criteria_build_each_diagram_once(monkeypatch):
    calls = []

    def counting(w):
        calls.append(w)
        return double_diagram(w)

    monkeypatch.setattr(checks, "double_diagram", counting)
    for number in ("06", "07"):
        calls.clear()
        assert list(criterion(number).cases(3))
        assert sorted(calls, key=lambda w: w.word) == all_permutations(3)


HALF_TWIST = mutation.half_twist


def flipped_half_twist(pivot, other, twist="left"):
    return HALF_TWIST(pivot, other, "right" if twist == "left" else "left")


def test_a_route_that_raises_fails_its_rank(monkeypatch, capsys):
    # A flipped twist puts the shared point on the wrong side, so the
    # mutated entries are no diagram D_w and ``from_entries`` raises.
    monkeypatch.setattr(mutation, "half_twist", flipped_half_twist)
    result = run_criterion(criterion("06"), max_n=3)
    assert not result.passed
    assert result.counterexample.startswith("n=3 raised ValueError: ")
    result = run_criterion(criterion("11"), max_n=3)
    assert not result.passed
    assert result.counterexample.startswith("n=2 raised ValueError: ")
    assert result.detail.endswith("over n=2..3; 2 failure(s)")
    assert main(["check", "--suite", "mutation", "--max-n", "3"]) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL mutation-compatibility: 0 cases at n=3; 1 failure(s)\n"
        "     counterexample: n=3 raised ValueError: "
    )


def test_check_command_exits_1_while_a_route_is_broken(monkeypatch, capsys):
    monkeypatch.setattr(checks, "graph_map_count", off_by_one)
    assert main(["check", "--suite", "homs", "--max-n", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL graph-maps-equal-linear-algebra" in out
    assert out.endswith("CHECK FAILURES (1/2)\n")


def test_clear_caches_empties_every_package_cache(clear_caches):
    caches = (
        quiver.hom_basis,
        quiver.arc_module,
        quiver.morphism_parts,
        mutation._mutate_member,
        checks._hom_table,
        arcs.nad_table,
        arcs._interned_arc,
        mutation._graph_map_out_masks,
        strings.factorizations,
        strings._submodules_by_middle,
    )
    assert run_criterion(criterion("04"), max_n=1).passed
    assert run_criterion(criterion("08"), max_n=3).passed
    assert run_criterion(criterion("10"), max_n=1).passed
    assert run_criterion(criterion("07"), max_n=3).passed
    assert all(cached.cache_info().currsize for cached in caches)
    clear_caches()
    assert not any(cached.cache_info().currsize for cached in caches)


def test_swapped_kernel_and_cokernel_fail_criterion_07(clear_caches, monkeypatch):
    def swapped(f):
        kernel, cokernel = quiver.morphism_parts(f)
        return cokernel, kernel

    monkeypatch.setattr(mutation, "morphism_parts", swapped)
    result = run_criterion(criterion("07"), max_n=3)
    assert not result.passed
    assert result.counterexample.startswith("n=3 ")


def test_module_mutation_is_the_same_cold_and_warm(clear_caches):
    cases = [
        (mutation.psi(double_diagram(w)), i)
        for w in all_permutations(4)
        for i in descents(w)
    ]
    assert len(cases) == 240
    cold = []
    for members, i in cases:
        clear_caches()
        cold.append(mutation.mutate_smc_collection(members, i))
    warm = [mutation.mutate_smc_collection(members, i) for members, i in cases]
    assert warm == cold
