"""The criteria table: its names and suites, and that a broken route fails."""

import arcbricks.arcs as arcs
import arcbricks.linalg as linalg
import arcbricks.checks as checks
import arcbricks.mutation as mutation
import arcbricks.quiver as quiver
import arcbricks.strings as strings
from arcbricks.arcs import double_diagram
from arcbricks.checks import CRITERIA, run_criterion, run_suite
from arcbricks.cli import main
from arcbricks.permutations import (
    all_permutations,
    descents,
    identity_permutation,
    join,
    weak_leq,
)
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


def test_duplicated_graph_maps_fail_criterion_03(monkeypatch):
    # the counts still come from graph_map_count: only the basis cases fail
    monkeypatch.setattr(checks, "graph_maps", lambda a, b: strings.graph_maps(a, b) * 2)
    result = run_criterion(criterion("03"), max_n=3)
    assert not result.passed
    assert "are independent morphisms: got False" in result.counterexample


def test_graph_maps_one_vertex_too_wide_fail_criterion_03(monkeypatch):
    # identity on every vertex both modules support: a commuting square
    # breaks wherever only one module carries an arrow
    def too_wide(alpha, beta, middle, n):
        f = strings.materialize(alpha, beta, middle, n)
        mats = tuple(
            linalg.identity(1) if f.source.dim(v) == f.target.dim(v) == 1 else m
            for v, m in enumerate(f.mats, start=1)
        )
        return quiver.Morphism(f.source, f.target, mats)

    monkeypatch.setattr(checks, "materialize", too_wide)
    result = run_criterion(criterion("03"), max_n=3)
    assert not result.passed
    assert "are independent morphisms: got False" in result.counterexample


def test_a_module_off_the_mesh_relations_fails_criterion_02(clear_caches, monkeypatch):
    # both arrows between v1 and v2 carry the identity, so the two 2-cycles
    # at v1 and v2 disagree
    def doubled(arc, n):
        module = quiver.arc_module(arc, n)
        if (arc.left, arc.right) != (1, 3):
            return module
        one = linalg.identity(1)
        return quiver.Representation(n, module.dims, {(1, 1): one, (1, -1): one})

    monkeypatch.setattr(checks, "arc_module", doubled)
    result = run_criterion(criterion("02"), max_n=2)
    assert not result.passed
    assert result.counterexample == (
        "n=2 arc(1,3;2v) satisfies the relations: got False, expected True"
    )


def test_a_repeated_member_fails_the_axioms_of_criterion_07(monkeypatch):
    monkeypatch.setattr(checks, "psi", lambda d: (mutation.psi(d)[0],) * d.n)
    result = run_criterion(criterion("07"), max_n=3)
    assert not result.passed
    assert result.counterexample == (
        "n=3 w=1234 collection axioms: got False, expected True"
    )


def test_a_wrong_join_irreducible_fails_criterion_09(monkeypatch):
    monkeypatch.setattr(
        arcs, "arc_to_join_irreducible", lambda arc, n: identity_permutation(n)
    )
    result = run_criterion(criterion("09"), max_n=2)
    assert not result.passed
    assert result.counterexample.startswith("n=1 w=21 join of joinands: got 12")


def test_a_join_that_keeps_the_lower_of_a_comparable_pair_fails_criterion_09(
    monkeypatch,
):
    monkeypatch.setattr(
        arcs, "join", lambda u, w: u if weak_leq(u, w) else join(u, w)
    )
    result = run_criterion(criterion("09"), max_n=2)
    assert not result.passed
    assert result.counterexample == "n=1 w=21 join of joinands: got 12, expected 21"


def test_negated_weak_order_fails_criterion_08(monkeypatch):
    monkeypatch.setattr(checks, "weak_leq", lambda u, w: not weak_leq(u, w))
    result = run_criterion(criterion("08"), max_n=3)
    assert not result.passed
    assert result.counterexample == "n=3 u=1234 w=1234 order: got True, expected False"


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
    result = run_criterion(criterion("06"), max_n=3)
    assert not result.passed
    assert result.counterexample.startswith("n=3 w=1234 i=1 (right): got ")


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
        quiver.hom_dim,
        quiver.arc_module,
        quiver.morphism_parts,
        quiver.ext1_dim,
        mutation._mutate_member,
        checks._hom_table,
        arcs.nad_table,
        arcs._interned_arc,
        arcs.arc_to_join_irreducible,
        mutation._graph_map_out_masks,
        strings.factorizations,
    )
    assert run_criterion(criterion("04"), max_n=1).passed
    assert run_criterion(criterion("08"), max_n=3).passed
    assert run_criterion(criterion("10"), max_n=1).passed
    assert run_criterion(criterion("07"), max_n=3).passed
    assert run_criterion(criterion("09"), max_n=1).passed
    assert all(cached.cache_info().currsize for cached in caches)
    clear_caches()
    assert not any(cached.cache_info().currsize for cached in caches)


def test_a_cold_hom_table_keeps_no_hom_basis(clear_caches):
    table = checks._hom_table(5)
    assert len(table) == len(arcs.enumerate_arcs(5))
    assert quiver.hom_basis.cache_info().currsize == 0
    assert quiver.hom_dim.cache_info().currsize == len(table) ** 2


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
