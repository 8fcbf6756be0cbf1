import itertools

import pytest

from arcbricks import linalg
from arcbricks.arcs import Arc, enumerate_arcs
from arcbricks.quiver import arc_module, hom_dim
from arcbricks.strings import (
    QUOTIENT,
    SUBMODULE,
    factorizations,
    graph_map_count,
    graph_maps,
    materialize,
)

A13U = Arc(1, 3, frozenset({2}))
A13D = Arc(1, 3)


def letters_of(arc):
    """The arc's signed letters, left to right: a direct letter under a
    below point, an inverse one under an above point."""
    return tuple((m - 1, -1 if m in arc.above else 1) for m in arc.interior)


def reference_middles(arc, kind):
    """The middle of every cut ``(lo, hi)`` of the arc's letters into
    ``b c d`` under the sign rules, one per cut: a quotient ``b`` ends with
    an inverse letter and its ``d`` begins with a direct one, a submodule
    cut the other way round."""
    letters = letters_of(arc)
    b_sign = -1 if kind == QUOTIENT else 1
    middles = []
    for lo, hi in itertools.combinations_with_replacement(range(len(letters) + 1), 2):
        b_ok = lo == 0 or letters[lo - 1][1] == b_sign
        d_ok = hi == len(letters) or letters[hi][1] == -b_sign
        if b_ok and d_ok:
            middles.append((arc.left + lo, letters[lo:hi]))
    return middles


def reference_graph_maps(alpha, beta):
    """One quotient middle per pair of a quotient cut of alpha and a
    submodule cut of beta with equal middles."""
    return [
        middle
        for middle in reference_middles(alpha, QUOTIENT)
        for other in reference_middles(beta, SUBMODULE)
        if middle == other
    ]


def test_graph_maps_match_the_cut_enumeration():
    for n in range(1, 7):
        arcs = enumerate_arcs(n)
        for arc in arcs:
            for kind in (QUOTIENT, SUBMODULE):
                middles = reference_middles(arc, kind)
                # the middle fixes the cut
                assert len(set(middles)) == len(middles), (str(arc), kind)
        for a, b in itertools.product(arcs, repeat=2):
            expected = reference_graph_maps(a, b)
            assert sorted(expected) == graph_maps(a, b)
            assert len(expected) == graph_map_count(a, b)


def test_factorization_examples():
    assert factorizations(A13D, QUOTIENT) == {(1, ()), (1, ((1, 1),))}
    assert factorizations(A13U, SUBMODULE) == {(1, ()), (1, ((1, -1),))}
    assert factorizations(Arc(3, 4), QUOTIENT) == {(3, ())}
    with pytest.raises(ValueError):
        factorizations(A13D, "both")


def test_quotient_middles_are_peaks():
    # inside a quotient middle the flanking letters point toward it:
    # an inverse letter on the left, a direct letter on the right; a
    # submodule middle is a valley, flanked the other way round
    for n in (3, 4):
        for arc in enumerate_arcs(n):
            letters = letters_of(arc)
            for kind, left, right in ((QUOTIENT, -1, 1), (SUBMODULE, 1, -1)):
                for first, middle in factorizations(arc, kind):
                    lo = first - arc.left
                    hi = lo + len(middle)
                    assert letters[lo:hi] == middle
                    if lo > 0:
                        assert letters[lo - 1][1] == left
                    if hi < len(letters):
                        assert letters[hi][1] == right


def test_graph_map_count_examples():
    assert graph_map_count(A13D, Arc(1, 2)) == 1
    assert graph_map_count(Arc(1, 2), A13D) == 0
    for arc in enumerate_arcs(3):
        assert graph_map_count(arc, arc) == 1
    assert graph_map_count(Arc(1, 2), Arc(3, 4)) == 0


def test_graph_maps_match_hom_dims():
    for n in (2, 3):
        arcs = enumerate_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            assert graph_map_count(a, b) == hom_dim(arc_module(a, n), arc_module(b, n))


def test_graph_map_count_is_the_number_of_graph_maps():
    for n in range(1, 6):
        arcs = enumerate_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            assert graph_map_count(a, b) == len(graph_maps(a, b))


def test_materialized_maps_are_independent_morphisms():
    for n in (2, 3):
        arcs = enumerate_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            maps = [materialize(a, b, middle, n) for middle in graph_maps(a, b)]
            for f in maps:
                assert f.is_valid()
                # int entries, like the rows of _hom_system that is_valid reads
                entries = [x for m in f.mats for row in m for x in row]
                assert entries and all(type(x) is int for x in entries)
            # distinct middles have disjoint vertex supports
            supports = [
                frozenset(
                    v for v in range(1, n + 1) if not linalg.is_zero(f.mat(v))
                )
                for f in maps
            ]
            for s, t in itertools.combinations(supports, 2):
                assert not s & t
            assert len(set(supports)) == len(supports)


def test_submodule_convention_regression():
    # the inverse-letter string has its socle at v_1: the unit submodule
    # middle must sit at the left vertex, the unit quotient at the right
    subs = factorizations(A13U, SUBMODULE)
    assert (1, ()) in subs and (2, ()) not in subs
    quots = factorizations(A13U, QUOTIENT)
    assert (2, ()) in quots and (1, ()) not in quots


def test_factorizations_are_cached_frozensets():
    for kind in (QUOTIENT, SUBMODULE):
        first = factorizations(A13D, kind)
        assert isinstance(first, frozenset)
        assert factorizations(A13D, kind) is first


def test_graph_maps_order_is_pinned():
    # middles sorted by their first vertex
    zigzag = Arc(1, 6, frozenset({3, 5}))
    assert graph_maps(zigzag, Arc(1, 6, frozenset({2, 4}))) == [
        (1, ()),
        (3, ()),
        (5, ()),
    ]
    assert graph_maps(Arc(1, 5, frozenset({3})), Arc(1, 5, frozenset({2}))) == [
        (1, ()),
        (3, ((3, 1),)),
    ]
    assert graph_maps(Arc(1, 5), Arc(1, 5)) == [(1, ((1, 1), (2, 1), (3, 1)))]
    assert graph_maps(A13D, Arc(1, 2)) == [(1, ())]
    assert graph_maps(Arc(1, 2), A13D) == []


def test_graph_maps_returns_a_fresh_list():
    first = graph_maps(A13D, A13D)
    assert len(first) == 1
    first.clear()
    first_again = graph_maps(A13D, A13D)
    assert len(first_again) == 1 and first_again is not first
    assert graph_map_count(A13D, A13D) == 1
