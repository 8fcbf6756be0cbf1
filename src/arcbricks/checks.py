"""Cross-oracle verification suites.

Every check compares two independent routes to the same answer: string
combinatorics against explicit linear algebra, local diagram rewrites
against the symmetric-group action, closed counting formulas against
exhaustive enumeration.  ``CRITERIA`` states each acceptance criterion once:
its number, name, suite, full rank range, and a generator of
``(label, got, expected)`` cases at one rank.  ``run_criterion`` sweeps every
case exhaustively; the CLI ``check`` subcommand and the acceptance tests
both iterate the same table.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Iterator

from .arcs import (
    Arc,
    ColoredDiagram,
    arc_table,
    check_nad,
    diagram_to_permutation,
    double_diagram,
    enumerate_nad,
    is_crossing,
    iter_compatible_index_sets,
    joins_without_each,
    restrict_green,
)
from .mutation import (
    MutationError,
    collections_match,
    hasse,
    mutate_dad,
    mutate_smc_collection,
    psi,
    smc_axiom_check,
    smc_leq,
    weak_order_hasse,
)
from .permutations import (
    all_permutations,
    descents,
    left_multiply_simple,
    weak_leq,
)
from .linalg import identity
from .quiver import (
    Representation,
    arc_module,
    are_independent_vertex_maps,
    check_relations,
    ext1_dim,
    hom_dim,
    is_brick,
    is_semibrick,
    quad,
)
from .quotients import (
    arc_killed_by,
    family_count,
    is_alternating_arc,
    is_right_arc,
    linear_ideal,
    nad_ideal_filter,
    radical_square_ideal,
    two_cycle_ideal,
)
from .strings import graph_map_count, graph_maps

Case = tuple[str, Any, Any]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    counterexample: str = ""
    seconds: float = field(default=0.0)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name}: {self.detail}"
        if not self.passed and self.counterexample:
            out += f"\n     counterexample: {self.counterexample}"
        return out


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion: ``cases(n)`` yields its ``(label, got,
    expected)`` comparisons at rank n, for every n in ``ranks``."""

    number: str
    suite: str
    ranks: range
    cases: Callable[[int], Iterator[Case]]

    @property
    def name(self) -> str:
        """The case generator's name, hyphenated: ``_order_criterion`` gives
        ``order-criterion``."""
        return self.cases.__name__.strip("_").replace("_", "-")


@cache
def _hom_table(n: int) -> tuple[tuple[int, ...], ...]:
    """hom_dim between the arc modules of every ordered pair of arcs,
    indexed like ``arc_table(n)``'s arcs; built on first use, once per n."""
    modules = [arc_module(arc, n) for arc in arc_table(n)[0]]
    return tuple(tuple(hom_dim(a, b) for b in modules) for a in modules)


def _bijection_counts(n: int) -> Iterator[Case]:
    """Distinct green diagrams over W number (n+1)! and pass the diagram test."""
    bit = arc_table(n)[1]
    greens = set()
    for w in all_permutations(n):
        green = restrict_green(double_diagram(w))
        yield f"w={w} green restriction is noncrossing", check_nad(green), True
        greens.add(sum(bit[arc] for arc in green))
    yield "distinct green diagrams", len(greens), math.factorial(n + 1)


def _both_arrows_at_one(module: Representation, i: int) -> Representation:
    """The module with its stored maps and both arrows a_i and a_i^- set to
    1, where it has dimension 1 at v_i and at v_{i+1}: a_i^- a_i is then 1
    at v_i, so the mesh relation fails there."""
    both = {(i, 1): identity(1), (i, -1): identity(1)}
    return Representation(module.dims, {**dict(module.maps), **both})


def _plus_simple(module: Representation, v: int) -> Representation:
    """The direct sum of the module and the simple S_v, for a vertex v
    outside the module's support; no nonzero map touches v, so the module's
    stored maps carry over unchanged."""
    dims = list(module.dims)
    dims[v - 1] = 1
    return Representation(dims, module.maps)


def _brick_classification(n: int) -> Iterator[Case]:
    """Arc counts match the closed formula and the single-descent count;
    every arc module satisfies the mesh relations and is a brick of
    quadratic value 2 with no self-extension.  On the negative side, each
    arc module with an interior point fails the relations once both arrows
    under its first interior point carry 1, and each arc module with a
    vertex next to its support is no brick once summed with the simple
    there."""
    arcs = arc_table(n)[0]
    yield "arcs", len(arcs), 2 ** (n + 1) - n - 2
    single = sum(1 for w in all_permutations(n) if len(descents(w)) == 1)
    yield "single-descent words", single, len(arcs)
    for arc in arcs:
        module = arc_module(arc, n)
        yield f"{arc} satisfies the relations", check_relations(module), True
        yield f"{arc} is a brick", is_brick(module), True
        yield f"{arc} quadratic value", quad(module.dims), 2
        yield f"{arc} self-extension", ext1_dim(module, module), 0
        if arc.interior:
            i = arc.left
            label = f"{arc} with a{i} and a{i}- at 1 satisfies the relations"
            yield label, check_relations(_both_arrows_at_one(module, i)), False
        v = arc.left - 1 if arc.left > 1 else arc.right
        if v <= n:
            yield f"{arc} + S_{v} is a brick", is_brick(_plus_simple(module, v)), False


def _graph_maps_equal_linear_algebra(n: int) -> Iterator[Case]:
    """Graph maps form a basis of Hom on every ordered arc pair: they are
    independent morphisms, as many as the hom dimension.  A graph map is the
    identity on each vertex its middle covers and zero elsewhere, so
    ``quiver.are_independent_vertex_maps`` checks all of a pair's maps on
    the pair's one hom system.  Both the count and the list of graph maps
    must match the hom dimension, so neither route can drop or add a map
    unseen."""
    arcs = arc_table(n)[0]
    modules = [arc_module(arc, n) for arc in arcs]
    homs = _hom_table(n)
    for i, a in enumerate(arcs):
        for j, b in enumerate(arcs):
            label = f"{a}->{b} graph maps"
            yield f"{label} vs hom dimension", graph_map_count(a, b), homs[i][j]
            middles = graph_maps(a, b)
            supports = [
                range(first, first + len(letters) + 1) for first, letters in middles
            ]
            independent = are_independent_vertex_maps(modules[i], modules[j], supports)
            basis = len(middles) == homs[i][j] and independent
            yield f"{label} are independent morphisms", basis, True


def _orthogonality_iff_noncrossing(n: int) -> Iterator[Case]:
    """Hom-orthogonality coincides with the noncrossing conditions, and the
    shared-endpoint case split behaves as stated."""
    arcs = arc_table(n)[0]
    homs = _hom_table(n)
    for i, a in enumerate(arcs):
        for j in range(i + 1, len(arcs)):
            b, h = arcs[j], (homs[i][j], homs[j][i])
            yield f"{a},{b} homs {h}: nad vs orthogonal", check_nad([a, b]), h == (0, 0)
            if not is_crossing(a, b):
                shared = (a.left == b.left) + (a.right == b.right)
                if shared == 1:
                    yield f"{a},{b}: one shared endpoint, homs", sorted(h), [0, 1]
                if shared == 2:
                    yield f"{a},{b} homs {h}: both endpoints shared", min(h) > 0, True


def _semibrick_oracle(n: int) -> Iterator[Case]:
    """The pairwise hom-orthogonal arc sets, read off the hom table, are
    exactly the (n+1)! green diagrams; the modules of each green diagram
    form a semibrick, and the modules of each pair of distinct arcs that
    fails ``check_nad`` do not.  Arc sets are compared as ``arc_table``
    bitmasks; arc names are decoded only for a mismatch."""
    arcs, bit, _ = arc_table(n)
    homs = _hom_table(n)
    masks = [
        sum(bit[b] for j, b in enumerate(arcs) if j != i and homs[i][j] == homs[j][i] == 0)
        for i in range(len(arcs))
    ]
    orthogonal = {
        sum(bit[arcs[j]] for j in idx) for idx in iter_compatible_index_sets(masks)
    }
    greens = set()
    for w in all_permutations(n):
        green = restrict_green(double_diagram(w))
        modules = [arc_module(arc, n) for arc in green]
        yield f"w={w} green modules form a semibrick", is_semibrick(modules), True
        greens.add(sum(bit[arc] for arc in green))
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            if not check_nad([a, b]):
                pair = [arc_module(a, n), arc_module(b, n)]
                yield f"{a},{b} not noncrossing: semibrick", is_semibrick(pair), False
    yield "orthogonal sets", len(orthogonal), math.factorial(n + 1)
    for label, extra in (
        ("orthogonal sets that are not green diagrams", orthogonal - greens),
        ("green diagrams that are not orthogonal", greens - orthogonal),
    ):
        named = ([str(a) for a in arcs if m & bit[a]] for m in extra)
        yield label, sorted(sorted(s) for s in named), []


def _mutation_compatibility(n: int) -> Iterator[Case]:
    """Diagram mutation agrees with the simple-generator action everywhere."""
    diagrams = {w: double_diagram(w) for w in all_permutations(n)}
    for w, diagram in diagrams.items():
        down = descents(w)
        text = str(w)
        for i in range(1, n + 1):
            direction = "left" if i in down else "right"
            got = mutate_dad(diagram, i)
            expected = diagrams[left_multiply_simple(i, w)]
            yield f"w={text} i={i} ({direction})", got, expected


def _module_mutation_oracle(n: int) -> Iterator[Case]:
    """Every image psi(D_w) satisfies the collection axioms, and fails them
    once any one member moves to the other shift; module-level mutation
    matches the diagram route member by member, at every descent of every
    word.  A module route that gives up (a glued module that is not the
    extension middle, say) is a failed case, not an abort of the sweep."""
    images = {w: psi(double_diagram(w)) for w in all_permutations(n)}
    for w, members in images.items():
        text = str(w)
        yield f"w={text} collection axioms", smc_axiom_check(members), True
        for k, (module, shift) in enumerate(members):
            flipped = (*members[:k], (module, 1 - shift), *members[k + 1 :])
            label = f"w={text} member {k + 1} at shift {1 - shift} collection axioms"
            yield label, smc_axiom_check(flipped), False
        for i in descents(w):
            expected = images[left_multiply_simple(i, w)]
            try:
                match = collections_match(mutate_smc_collection(members, i), expected)
            except MutationError as exc:
                match = f"MutationError: {exc}"
            yield f"w={text} i={i} members match", match, True


def _order_criterion(n: int) -> Iterator[Case]:
    """The no-graph-map criterion reproduces the weak order on every pair."""
    words = [(w, str(w), double_diagram(w)) for w in all_permutations(n)]
    for u, u_text, lower in words:
        for w, w_text, upper in words:
            got, expected = smc_leq(lower, upper), weak_leq(u, w)
            yield f"u={u_text} w={w_text} order", got, expected


def _canonical_join_representations(n: int) -> Iterator[Case]:
    """Green arcs are join-irreducible joinands of w, irredundantly: the
    join of all of them is w (``diagram_to_permutation``), and the join of
    all but any one is strictly below w (``joins_without_each``, from
    prefix and suffix joins)."""
    for w in all_permutations(n):
        greens = restrict_green(double_diagram(w))
        yield f"w={w} join of joinands", diagram_to_permutation(greens, n), w
        drops = joins_without_each(greens, n)
        for arc, sub in zip(sorted(greens, key=Arc.sort_key), drops, strict=True):
            yield f"w={w} dropping {arc} is strict", sub != w and weak_leq(sub, w), True


def _quotient_families(n: int) -> Iterator[Case]:
    """Ideal filters against the closed families and counting formulas."""
    catalan = math.comb(2 * n + 2, n + 1) // (n + 2)
    yield "rnad count", family_count(n, "rnad"), catalan
    filtered = nad_ideal_filter(n, two_cycle_ideal(n))
    yield "two-cycle filter size", len(filtered), math.factorial(n + 1)
    yield "two-cycle filter is all of nad", set(filtered) == set(enumerate_nad(n)), True
    lin, rad2 = linear_ideal(n), radical_square_ideal(n)
    for arc in arc_table(n)[0]:
        killed = arc_killed_by(arc, lin, n), arc_killed_by(arc, rad2, n)
        yield f"{arc} right-arc predicate", is_right_arc(arc), killed[0]
        yield f"{arc} alternating predicate", is_alternating_arc(arc), killed[1]
    yield "anad count", family_count(n, "anad"), family_count(n, rad2)


def _hasse_structure(n: int) -> Iterator[Case]:
    """The mutation graph is the weak-order cover digraph, sizes included."""
    diagrams, edges = hasse(n)
    perms, weak_edges = weak_order_hasse(n)
    yield "vertices", len(diagrams), math.factorial(n + 1)
    yield "edges", len(edges), math.factorial(n + 1) * n // 2
    # each vertex is read back from its entries, so the labels are not
    # just the words the diagrams were built from
    labels = [ColoredDiagram.from_entries(d.entries).w for d in diagrams]
    yield "vertex labelings agree", labels == perms, True
    yield "edge sets agree", sorted(edges) == sorted(weak_edges), True


CRITERIA = (
    Criterion("01", "bijection", range(1, 8), _bijection_counts),
    Criterion("02", "bijection", range(1, 9), _brick_classification),
    Criterion("03", "homs", range(3, 8), _graph_maps_equal_linear_algebra),
    Criterion("04", "homs", range(1, 9), _orthogonality_iff_noncrossing),
    Criterion("05", "bijection", range(3, 8), _semibrick_oracle),
    Criterion("06", "mutation", range(3, 7), _mutation_compatibility),
    Criterion("07", "mutation", range(3, 7), _module_mutation_oracle),
    Criterion("08", "order", range(3, 6), _order_criterion),
    Criterion("09", "bijection", range(1, 8), _canonical_join_representations),
    Criterion("10", "quotients", range(1, 8), _quotient_families),
    Criterion("11", "order", range(2, 7), _hasse_structure),
)

SUITES = ("all", *dict.fromkeys(c.suite for c in CRITERIA))


def run_criterion(criterion: Criterion, max_n: int | None = None) -> CheckResult:
    """Every case at each rank up to ``max_n``; a rank that raises fails once."""
    start = time.perf_counter()
    ranks = [n for n in criterion.ranks if max_n is None or n <= max_n]
    cases = 0
    failures: list[str] = []
    for n in ranks:
        try:
            for label, got, expected in criterion.cases(n):
                cases += 1
                if got != expected:
                    failures.append(f"n={n} {label}: got {got}, expected {expected}")
        except (ValueError, IndexError, ArithmeticError) as exc:
            failures.append(f"n={n} raised {type(exc).__name__}: {exc}")
    if not ranks:
        detail = f"skipped (range starts at n={criterion.ranks[0]})"
    elif len(ranks) == 1:
        detail = f"{cases} cases at n={ranks[0]}"
    else:
        detail = f"{cases} cases over n={ranks[0]}..{ranks[-1]}"
    if failures:
        detail += f"; {len(failures)} failure(s)"
    return CheckResult(
        name=criterion.name,
        passed=not failures,
        detail=detail,
        counterexample=failures[0] if failures else "",
        seconds=time.perf_counter() - start,
    )


def run_suite(suite: str, max_n: int) -> list[CheckResult]:
    if suite not in SUITES:
        raise KeyError(suite)
    return [run_criterion(c, max_n) for c in CRITERIA if suite in ("all", c.suite)]
