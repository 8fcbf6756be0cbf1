import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcbricks.arcs as arcs
from arcbricks.arcs import (
    Arc,
    ColoredDiagram,
    _interned_arc,
    arc_to_join_irreducible,
    check_nad,
    diagram_to_permutation,
    double_diagram,
    enumerate_arcs,
    enumerate_nad,
    is_crossing,
    iter_compatible_index_sets,
    joins_without_each,
    nad_table,
    restrict_green,
)
from arcbricks.permutations import (
    Permutation,
    all_permutations,
    descents,
    identity_permutation,
    parse_permutation,
)
from arcbricks.quiver import arc_module
from arcbricks.quotients import (
    FAMILIES,
    arc_killed_by,
    family_count,
    radical_square_ideal,
)

from expected_diagrams import DAD_RANK2, DAD_RANK3, EXAMPLE_53271468, G, R


def P(text):
    return parse_permutation(text)


def red_arcs(diagram):
    return frozenset(diagram.red_arcs())


def entries_of(diagram):
    return [
        (arc.left, arc.right, tuple(sorted(arc.above)), color)
        for arc, color in diagram.entries
    ]


def test_arc_validation():
    with pytest.raises(ValueError):
        Arc(3, 2)
    with pytest.raises(ValueError):
        Arc(1, 3, frozenset({3}))


@pytest.mark.parametrize(
    "left, right, above",
    [(True, 3, ()), (1.5, 3, ()), (1, 3.0, ()), (1, 3, (2.0,)), (1, 4, (True,))],
)
def test_arc_points_must_be_ints(left, right, above):
    # a bool end would print as "left": true in JSON, and a float end would
    # fail later inside range()
    with pytest.raises(ValueError, match="need int points"):
        Arc(left, right, frozenset(above))


def test_arc_hash_is_kept_and_agrees_with_equality(clear_caches):
    built = Arc(1, 3, frozenset({2}))
    interned = _interned_arc(1, 3, 1 << 2)
    assert built is not interned and built == interned
    assert hash(built) == hash(interned) == hash((1, 3, frozenset({2})))
    assert vars(built)["_hash"] == hash(built)
    # each finds the arc_module cache entry that the other made
    assert arc_module(built, 3) is arc_module(interned, 3)
    assert arc_module(interned, 2) is arc_module(built, 2)
    for arc in enumerate_arcs(4):
        copy = Arc(arc.left, arc.right, frozenset(arc.above))
        assert copy is not arc and copy == arc and hash(copy) == hash(arc)
        assert {arc: arc.left}[copy] == arc.left
    assert [f.name for f in dataclasses.fields(Arc)] == ["left", "right", "above"]
    assert repr(built) == "Arc(left=1, right=3, above=frozenset({2}))"
    assert "_hash" not in repr(built) and str(hash(built)) not in repr(built)


def test_arc_json_round_trip():
    arc = Arc(2, 7, frozenset({4, 6}))
    data = arc.to_json()
    assert data == {"left": 2, "right": 7, "above": [4, 6]}
    assert Arc(data["left"], data["right"], frozenset(data["above"])) == arc


def test_is_crossing_examples():
    assert is_crossing(Arc(1, 3, frozenset({2})), Arc(2, 4, frozenset({3})))
    assert not is_crossing(Arc(1, 3), Arc(3, 5))
    assert is_crossing(Arc(1, 4, frozenset({3})), Arc(2, 3))
    with pytest.raises(ValueError):
        is_crossing(Arc(1, 2), Arc(1, 2))


def test_is_crossing_symmetry():
    arcs = enumerate_arcs(3)
    for a, b in itertools.combinations(arcs, 2):
        assert is_crossing(a, b) == is_crossing(b, a)


def reference_is_crossing(alpha, beta):
    """The crossing test as three cases per point of the closed overlap: an
    endpoint of one arc inside the other, or an interior point of both."""

    def side(arc, m):
        return "above" if m in arc.above else "below"

    seen_plus = seen_minus = False
    for m in range(max(alpha.left, beta.left), min(alpha.right, beta.right) + 1):
        a_end = m in (alpha.left, alpha.right)
        b_end = m in (beta.left, beta.right)
        if a_end and b_end:
            continue
        if a_end:
            sign = 1 if side(beta, m) == "below" else -1
        elif b_end:
            sign = 1 if side(alpha, m) == "above" else -1
        else:
            sa, sb = side(alpha, m), side(beta, m)
            if sa == sb:
                continue
            sign = 1 if sa == "above" else -1
        seen_plus = seen_plus or sign > 0
        seen_minus = seen_minus or sign < 0
    return seen_plus and seen_minus


def test_is_crossing_matches_the_three_case_reference():
    for n in range(1, 8):
        for a, b in itertools.permutations(enumerate_arcs(n), 2):
            assert is_crossing(a, b) == reference_is_crossing(a, b), (a, b)


def test_nad_table_is_the_pairwise_check_nad_relation():
    for n in range(1, 5):
        arcs, masks = nad_table(n)
        assert list(arcs) == enumerate_arcs(n)
        for i, a in enumerate(arcs):
            assert not masks[i] >> i & 1
            for j, b in enumerate(arcs):
                assert (masks[i] >> j & 1) == (masks[j] >> i & 1)
                if i != j:
                    assert bool(masks[i] >> j & 1) == check_nad([a, b]), (a, b)


def test_nad_table_is_built_once_per_n(clear_caches):
    assert len(enumerate_nad(5)) == math.factorial(6)
    for family in FAMILIES:
        family_count(5, family)
    family_count(5, "custom", radical_square_ideal(5))
    info = nad_table.cache_info()
    assert (info.misses, info.hits) == (1, len(FAMILIES) + 1)


def test_check_nad_examples():
    assert not check_nad([Arc(1, 3, frozenset({2})), Arc(1, 2)])  # shared left
    assert check_nad(
        [Arc(2, 8, frozenset({5, 7})), Arc(3, 4), Arc(4, 6, frozenset({5}))]
    )
    assert check_nad([])


def test_double_diagram_worked_example():
    d = double_diagram(P("53271468"))
    greens = {(a.left, a.right, tuple(sorted(a.above))) for a in d.green_arcs()}
    reds = {(a.left, a.right, tuple(sorted(a.above))) for a in d.red_arcs()}
    assert greens == {(l, r, tuple(ab)) for l, r, ab in EXAMPLE_53271468["green"]}
    assert reds == {(l, r, tuple(ab)) for l, r, ab in EXAMPLE_53271468["red"]}


@pytest.mark.parametrize("word,expected", sorted(DAD_RANK2.items()))
def test_double_diagram_rank2(word, expected):
    d = double_diagram(P(word))
    assert entries_of(d) == [(l, r, tuple(ab), c) for l, r, ab, c in expected]


@pytest.mark.parametrize("word,expected", sorted(DAD_RANK3.items()))
def test_double_diagram_rank3(word, expected):
    d = double_diagram(P(word))
    assert entries_of(d) == [(l, r, tuple(ab), c) for l, r, ab, c in expected]


def test_double_diagram_matches_the_per_point_construction():
    for n in range(1, 7):
        for w in all_permutations(n):
            pos = {v: i for i, v in enumerate(w.word, start=1)}
            entries = []
            for i in range(1, n + 1):
                a, b = w[i], w[i + 1]
                p, q = min(a, b), max(a, b)
                above = frozenset(k for k in range(p + 1, q) if pos[k] > i + 1)
                entries.append((Arc(p, q, above), G if a > b else R))
            assert double_diagram(w).entries == tuple(entries)


def test_double_diagrams_share_their_arcs():
    first = double_diagram(parse_permutation("2143"))
    second = double_diagram(parse_permutation("3421"))
    assert first.arc(1) == second.arc(3) == Arc(1, 2)
    assert first.arc(1) is second.arc(3)


def test_identity_diagram_is_red_chain():
    d = double_diagram(identity_permutation(3))
    assert entries_of(d) == [(1, 2, (), R), (2, 3, (), R), (3, 4, (), R)]
    assert restrict_green(d) == frozenset()
    assert red_arcs(double_diagram(P("4321"))) == frozenset()


def test_diagram_arcs_never_cross():
    for n in (2, 3, 4):
        for w in all_permutations(n):
            d = double_diagram(w)
            assert len(d.entries) == n
            arcs = [arc for arc, _ in d.entries]
            for a, b in itertools.combinations(arcs, 2):
                assert not is_crossing(a, b)
            assert check_nad(restrict_green(d))
            assert check_nad(red_arcs(d))


def test_green_marks_descents():
    for w in all_permutations(3):
        d = double_diagram(w)
        assert [i for i in range(1, 4) if d.color(i) == G] == descents(w)


def test_colored_diagram_rejects_crossing_entries():
    with pytest.raises(ValueError):
        ColoredDiagram.from_entries(((Arc(1, 3, frozenset({2})), G), (Arc(2, 3), R)))
    # chains into 1324 with matching colors, but D_1324 passes above 2
    with pytest.raises(ValueError, match="not the diagram of 1324"):
        ColoredDiagram.from_entries(((Arc(1, 3), R), (Arc(2, 3), G), (Arc(2, 4), R)))


@pytest.mark.parametrize("n", [2, 3])
def test_colored_diagram_accepts_exactly_the_diagrams_of_words(n):
    accepted = set()
    for arcs in itertools.product(enumerate_arcs(n), repeat=n):
        for colors in itertools.product((G, R), repeat=n):
            entries = tuple(zip(arcs, colors))
            try:
                diagram = ColoredDiagram.from_entries(entries)
            except ValueError:
                continue
            assert diagram.entries == entries
            accepted.add(diagram)
    assert len(accepted) == math.factorial(n + 1)
    assert accepted == {double_diagram(w) for w in all_permutations(n)}


def test_colored_diagram_rejects_broken_chains():
    with pytest.raises(ValueError, match="do not chain"):
        ColoredDiagram.from_entries(((Arc(1, 2), R), (Arc(1, 3), R)))
    # chains into 123, whose second entry is red
    with pytest.raises(ValueError, match="not the diagram of 123"):
        ColoredDiagram.from_entries(((Arc(1, 2), R), (Arc(2, 3), G)))


def test_colored_diagram_rejects_empty_entries_bad_colors_and_escaping_arcs():
    with pytest.raises(ValueError, match="at least one entry"):
        ColoredDiagram.from_entries(())
    with pytest.raises(ValueError):
        ColoredDiagram.from_entries(((Arc(1, 2), "blue"), (Arc(2, 3), R)))
    with pytest.raises(ValueError):
        ColoredDiagram.from_entries(((Arc(1, 2), R), (Arc(2, 4, frozenset({3})), R)))


def test_permutation_round_trip():
    for n in (1, 2, 3, 4):
        for w in all_permutations(n):
            assert ColoredDiagram.from_entries(double_diagram(w).entries).w == w


def test_double_diagram_builds_its_entries_once_and_only_when_read(clear_caches):
    d = double_diagram(P("2143"))
    assert _interned_arc.cache_info().misses == 0
    assert d.entries is d.entries
    assert _interned_arc.cache_info().misses == 3


def test_enumerate_arcs_returns_the_arcs_diagrams_use():
    assert double_diagram(P("2143")).arc(1) is enumerate_arcs(3)[0]


def test_joins_without_each_drops_each_arc_in_sort_order():
    for n in range(1, 5):
        for w in all_permutations(n):
            greens = restrict_green(double_diagram(w))
            ordered = sorted(greens, key=Arc.sort_key)
            expected = [diagram_to_permutation(greens - {a}, n) for a in ordered]
            assert joins_without_each(greens, n) == expected
    assert joins_without_each([], 3) == []


def test_joins_without_each_takes_about_three_joins_per_arc(monkeypatch):
    calls = []
    join = arcs.join
    monkeypatch.setattr(arcs, "join", lambda u, w: calls.append(1) or join(u, w))
    for w in all_permutations(5):
        greens = restrict_green(double_diagram(w))
        calls.clear()
        joins_without_each(greens, 5)
        assert len(calls) <= max(3 * len(greens) - 2, 0)


def test_arc_to_join_irreducible_examples():
    assert arc_to_join_irreducible(Arc(1, 3, frozenset({2})), 2) == P("312")
    assert arc_to_join_irreducible(Arc(1, 3), 2) == P("231")
    assert arc_to_join_irreducible(Arc(1, 2), 2) == P("213")


def test_arc_to_join_irreducible_inverts_green():
    for n in (2, 3, 4):
        for arc in enumerate_arcs(n):
            w = arc_to_join_irreducible(arc, n)
            assert len(descents(w)) == 1
            assert restrict_green(double_diagram(w)) == frozenset({arc})


def test_diagram_to_permutation_examples():
    assert diagram_to_permutation([Arc(1, 2), Arc(2, 3)], 2) == P("321")
    assert diagram_to_permutation([], 2) == P("123")
    assert diagram_to_permutation([Arc(1, 3)], 2) == P("231")
    with pytest.raises(ValueError):
        diagram_to_permutation([Arc(1, 3, frozenset({2})), Arc(1, 2)], 2)


def test_diagram_to_permutation_inverts_restrict_green():
    for n in range(1, 5):
        for w in all_permutations(n):
            greens = restrict_green(double_diagram(w))
            assert diagram_to_permutation(greens, n) == w


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(1, 7))))
def test_diagram_to_permutation_round_trip_random(word):
    w = Permutation(tuple(word))
    greens = restrict_green(double_diagram(w))
    assert diagram_to_permutation(greens, w.rank) == w


def test_red_restriction_is_injective():
    for n in (2, 3, 4):
        reds = {red_arcs(double_diagram(w)) for w in all_permutations(n)}
        assert len(reds) == math.factorial(n + 1)


def test_enumerate_arcs_counts_and_order():
    assert len(enumerate_arcs(1)) == 1
    assert len(enumerate_arcs(2)) == 4
    assert len(enumerate_arcs(3)) == 11
    for n in (2, 3, 4, 5, 6):
        arcs = enumerate_arcs(n)
        assert len(arcs) == 2 ** (n + 1) - n - 2
        assert arcs == sorted(arcs, key=Arc.sort_key)
        assert len(set(arcs)) == len(arcs)
    with pytest.raises(ValueError):
        enumerate_arcs(9)


def test_enumerate_nad_counts():
    assert len(enumerate_nad(1)) == 2
    assert len(enumerate_nad(2)) == 6
    assert len(enumerate_nad(3)) == 24
    assert len(enumerate_nad(4)) == 120
    diagrams = enumerate_nad(3)
    assert len(set(diagrams)) == len(diagrams)
    assert all(check_nad(d) for d in diagrams)


def reference_compatible_index_sets(masks, allowed=None):
    """The explicit-stack walk: pop a set, yield it, and push its one-index
    extensions by higher compatible candidates, lowest on top."""
    pool = (1 << len(masks)) - 1 if allowed is None else allowed
    stack = [((), pool)]
    while stack:
        chosen, candidates = stack.pop()
        yield chosen
        pending = []
        cand = candidates
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            higher = ~((1 << (j + 1)) - 1)
            pending.append((chosen + (j,), candidates & masks[j] & higher))
        stack.extend(reversed(pending))


def compatible_subsets(masks, allowed):
    """Every pairwise-compatible subset of the pool, sorted."""
    pool = [j for j in range(len(masks)) if allowed is None or allowed >> j & 1]
    return sorted(
        subset
        for size in range(len(pool) + 1)
        for subset in itertools.combinations(pool, size)
        if all(masks[a] >> b & 1 for a, b in itertools.combinations(subset, 2))
    )


def family_pools(n):
    """``allowed`` as each arc family passes it: none, then the ``FAMILIES``
    masks and the radical-square ideal's."""
    arcs, _ = nad_table(n)
    ideal = radical_square_ideal(n)
    keeps = [*FAMILIES.values(), lambda arc: arc_killed_by(arc, ideal, n)]
    pools = [sum(1 << j for j, a in enumerate(arcs) if keep(a)) for keep in keeps]
    return [None, *pools]


def test_compatible_walk_matches_the_stack_walk():
    for n in range(1, 7):
        _, masks = nad_table(n)
        for allowed in family_pools(n):
            walk = list(iter_compatible_index_sets(masks, allowed))
            assert walk == list(reference_compatible_index_sets(masks, allowed))


def test_compatible_walk_lists_every_compatible_subset_in_order():
    # a loop at j is a bit of masks[j] not above j, which the walk must not read
    for n in range(1, 4):
        _, masks = nad_table(n)
        looped = [mask | 1 << j for j, mask in enumerate(masks)]
        for allowed in family_pools(n):
            expected = compatible_subsets(masks, allowed)
            assert list(iter_compatible_index_sets(masks, allowed)) == expected
            assert list(iter_compatible_index_sets(looped, allowed)) == expected


@st.composite
def symmetric_graphs(draw):
    """Masks of a symmetric graph on at most 10 vertices, some with a loop,
    which the walk must not read, and a pool that may leave vertices out."""
    size = draw(st.integers(0, 10))
    masks = [0] * size
    for a, b in itertools.combinations_with_replacement(range(size), 2):
        if draw(st.booleans()):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    allowed = draw(st.none() | st.integers(0, (1 << size) - 1))
    return masks, allowed


@settings(max_examples=200, deadline=None)
@given(symmetric_graphs())
def test_compatible_walk_on_random_graphs(graph):
    masks, allowed = graph
    assert list(iter_compatible_index_sets(masks, allowed)) == compatible_subsets(
        masks, allowed
    )


def test_enumerate_nad_matches_green_images():
    for n in (2, 3):
        greens = {restrict_green(double_diagram(w)) for w in all_permutations(n)}
        assert set(enumerate_nad(n)) == greens


def test_diagram_round_trip_from_diagram_side():
    for n in (1, 2, 3):
        for diagram in enumerate_nad(n):
            w = diagram_to_permutation(diagram, n)
            assert restrict_green(double_diagram(w)) == diagram
