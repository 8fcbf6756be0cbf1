import math

import pytest

from arcbricks.arcs import Arc, double_diagram, enumerate_arcs, enumerate_nad, restrict_green
from arcbricks.permutations import all_permutations
from arcbricks.quiver import arc_module, path_action_is_zero
from arcbricks.quotients import (
    MonomialIdealSpec,
    arc_killed_by,
    family_count,
    is_alternating_arc,
    is_right_arc,
    linear_ideal,
    nad_ideal_filter,
    parse_ideal,
    radical_square_ideal,
    two_cycle_ideal,
)


@pytest.mark.parametrize("ideal", [two_cycle_ideal, linear_ideal, radical_square_ideal])
@pytest.mark.parametrize("n", [0, -1, True, 2.0])
def test_a_named_ideal_refuses_a_bad_rank(ideal, n):
    # 0, -1 and True gave the empty ideal and 2.0 a bare TypeError from range
    with pytest.raises(ValueError, match=rf"rank must be an integer >= 1, got {n!r}"):
        ideal(n)


def test_ideal_spec_validation():
    with pytest.raises(ValueError, match="path a1 a1 is not composable"):
        MonomialIdealSpec((((1, 1), (1, 1)),))
    with pytest.raises(ValueError):
        MonomialIdealSpec(((),))
    spec = parse_ideal(["a1-", "a2 a3"])
    assert spec.generators == (((1, -1),), ((2, 1), (3, 1)))


def test_a_path_gets_one_message_from_both_callers():
    # MonomialIdealSpec and path_action_is_zero each checked a path, with
    # different messages
    rep = arc_module(Arc(1, 4), 3)
    for path, message in (
        ((), "a path must be nonempty"),
        (((1, 1), (1, 1)), "path a1 a1 is not composable"),
        (((1, -1), (2, 1), (2, -1)), "path a1- a2 a2- is not composable"),
        (((1, 1), (1, 0)), r"\(1, 0\) is not an arrow"),
    ):
        with pytest.raises(ValueError, match=message):
            MonomialIdealSpec((path,))
        with pytest.raises(ValueError, match=message):
            path_action_is_zero(rep, path)


@pytest.mark.parametrize("arrow", [(1, 0), (0, 1), (1, 2)])
def test_an_ideal_refuses_a_pair_that_is_no_arrow(arrow):
    # [[(1, 0)]] was accepted, and family_count(3, ...) of it was 24: every
    # arc was killed by the arrow that does not exist
    with pytest.raises(ValueError, match=r"is not an arrow \(i, 1\) or \(i, -1\)"):
        MonomialIdealSpec([[arrow]])
    with pytest.raises(ValueError, match="is not an arrow"):
        MonomialIdealSpec([[(1, 1), arrow]])


@pytest.mark.parametrize("generators", [[[(1, 1)]], [[[1, 1]]], ([(1, 1)],)])
def test_an_ideal_is_stored_as_tuples(generators):
    # list generators used to be stored as given: unhashable, and unequal
    # to the spec of the same tuples
    spec, tupled = MonomialIdealSpec(generators), MonomialIdealSpec((((1, 1),),))
    assert spec.generators == (((1, 1),),)
    assert spec == tupled and hash(spec) == hash(tupled) and {tupled: 1}[spec] == 1


def test_two_cycle_filter_keeps_everything():
    for n in (1, 2, 3, 4):
        filtered = nad_ideal_filter(n, two_cycle_ideal(n))
        assert len(filtered) == math.factorial(n + 1)
        assert set(filtered) == set(enumerate_nad(n))


def test_empty_ideal_keeps_everything():
    spec = MonomialIdealSpec(())
    assert len(nad_ideal_filter(3, spec)) == 24


def test_linear_ideal_counts():
    assert len(nad_ideal_filter(2, linear_ideal(2))) == 5
    for n in (1, 2, 3, 4):
        assert len(nad_ideal_filter(n, linear_ideal(n))) == family_count(n, "rnad")


def test_right_arc_predicate():
    assert is_right_arc(Arc(1, 3))
    assert not is_right_arc(Arc(1, 3, frozenset({2})))
    assert is_right_arc(Arc(2, 3))
    for n in (2, 3, 4, 5):
        lin = linear_ideal(n)
        for arc in enumerate_arcs(n):
            assert is_right_arc(arc) == arc_killed_by(arc, lin, n)


def test_alternating_arc_predicate():
    assert is_alternating_arc(Arc(1, 4, frozenset({3})))  # below 2, above 3
    assert not is_alternating_arc(Arc(1, 4))
    assert is_alternating_arc(Arc(2, 3))
    for n in (2, 3, 4, 5):
        rad2 = radical_square_ideal(n)
        for arc in enumerate_arcs(n):
            assert is_alternating_arc(arc) == arc_killed_by(arc, rad2, n)


def test_family_counts():
    assert [family_count(n, "rnad") for n in (1, 2, 3, 4)] == [2, 5, 14, 42]
    assert family_count(3, "nad") == 24
    assert family_count(2, "anad") == 6
    for n in (1, 2, 3, 4):
        assert family_count(n, "anad") == family_count(n, radical_square_ideal(n))
    for name in ("wide", "custom"):
        with pytest.raises(ValueError, match="unknown family"):
            family_count(2, name)


def test_filtered_diagrams_are_annihilated_semibricks():
    n = 3
    rad2 = radical_square_ideal(n)
    greens = {restrict_green(double_diagram(w)) for w in all_permutations(n)}
    for diagram in nad_ideal_filter(n, rad2):
        assert diagram in greens
        for arc in diagram:
            module = arc_module(arc, n)
            for gen in rad2.generators:
                assert path_action_is_zero(module, gen)
