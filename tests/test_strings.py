import itertools

import pytest

from arcbricks import linalg
from arcbricks.arcs import Arc, enumerate_arcs
from arcbricks.quiver import arc_module, hom_dim
from arcbricks.strings import (
    QUOTIENT,
    SUBMODULE,
    arrow_sequence,
    factorizations,
    graph_map_count,
    graph_maps,
    materialize,
)

A13U = Arc(1, 3, frozenset({2}))
A13D = Arc(1, 3)


def test_arrow_sequence_examples():
    seq = arrow_sequence(Arc(1, 7, frozenset({4, 6})))
    assert str(seq) == "a1 a2 a3- a4 a5-"
    assert str(arrow_sequence(Arc(3, 4))) == "e3"
    assert str(arrow_sequence(A13U)) == "a1-"


def test_factorization_examples():
    quots = factorizations(A13D, QUOTIENT)
    assert [(f.lo, f.hi) for f in quots] == [(0, 0), (0, 1)]
    assert {f.middle() for f in quots} == {(1, ()), (1, ((1, 1),))}

    subs = factorizations(A13U, SUBMODULE)
    assert {f.middle() for f in subs} == {(1, ()), (1, ((1, -1),))}

    assert [f.middle() for f in factorizations(Arc(3, 4), QUOTIENT)] == [(3, ())]
    with pytest.raises(ValueError):
        factorizations(A13D, "both")


def test_factorizations_sorted_by_cut():
    arc = Arc(1, 5, frozenset({2, 4}))
    for kind in (QUOTIENT, SUBMODULE):
        cuts = [(f.lo, f.hi - f.lo) for f in factorizations(arc, kind)]
        assert cuts == sorted(cuts)


def test_quotient_middles_are_peaks():
    # inside a quotient middle the flanking letters point toward it:
    # an inverse letter on the left, a direct letter on the right
    for n in (3, 4):
        for arc in enumerate_arcs(n):
            letters = arrow_sequence(arc).letters
            for f in factorizations(arc, QUOTIENT):
                if f.lo > 0:
                    assert letters[f.lo - 1][1] == -1
                if f.hi < len(letters):
                    assert letters[f.hi][1] == 1
            for f in factorizations(arc, SUBMODULE):
                if f.lo > 0:
                    assert letters[f.lo - 1][1] == 1
                if f.hi < len(letters):
                    assert letters[f.hi][1] == -1


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
    # the count sums the middle lookups without building the list, so only
    # this ties it to graph_maps
    for n in range(1, 6):
        arcs = enumerate_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            assert graph_map_count(a, b) == len(graph_maps(a, b))


def test_materialized_maps_are_independent_morphisms():
    for n in (2, 3):
        arcs = enumerate_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            maps = [materialize(gm, n) for gm in graph_maps(a, b)]
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
    subs = {f.middle() for f in factorizations(A13U, SUBMODULE)}
    assert (1, ()) in subs and (2, ()) not in subs
    quots = {f.middle() for f in factorizations(A13U, QUOTIENT)}
    assert (2, ()) in quots and (1, ()) not in quots


def test_factorizations_are_cached_tuples():
    for kind in (QUOTIENT, SUBMODULE):
        first = factorizations(A13D, kind)
        assert isinstance(first, tuple)
        assert factorizations(A13D, kind) is first


def test_graph_maps_order_is_pinned():
    def spelled(alpha, beta):
        return [f"{gm.quotient} {gm.submodule}" for gm in graph_maps(alpha, beta)]

    zigzag = Arc(1, 6, frozenset({3, 5}))
    assert spelled(zigzag, Arc(1, 6, frozenset({2, 4}))) == [
        "(- | - | a1 a2- a3 a4-) (- | - | a1- a2 a3- a4)",
        "(a1 a2- | - | a3 a4-) (a1- a2 | - | a3- a4)",
        "(a1 a2- a3 a4- | - | -) (a1- a2 a3- a4 | - | -)",
    ]
    assert spelled(Arc(1, 5, frozenset({3})), Arc(1, 5, frozenset({2}))) == [
        "(- | - | a1 a2- a3) (- | - | a1- a2 a3)",
        "(a1 a2- | a3 | -) (a1- a2 | a3 | -)",
    ]
    assert spelled(A13D, Arc(1, 2)) == ["(- | - | a1) (- | - | -)"]
    assert spelled(Arc(1, 2), A13D) == []


def test_graph_maps_returns_a_fresh_list():
    first = graph_maps(A13D, A13D)
    assert len(first) == 1
    first.clear()
    first_again = graph_maps(A13D, A13D)
    assert len(first_again) == 1 and first_again is not first
    assert graph_map_count(A13D, A13D) == 1
