"""A fault table for the criteria: each row breaks one route name where
``checks`` looks it up, runs every criterion at max-n 3 with empty caches,
and names exactly the criteria that must fail.

A criterion that still passes with one of its routes broken checks nothing
through that route.  Names that ``tests/test_checks.py`` already faults are
not repeated here.
"""

import pytest

import arcbricks.checks as checks
from arcbricks.checks import CRITERIA, run_criterion
from arcbricks.permutations import identity_permutation


def negated(route):
    return lambda *args: not route(*args)


def plus_one(route):
    return lambda *args: route(*args) + 1


def returns(value):
    return lambda route: lambda *args: value


def identity_word(route):
    return lambda arcs, n: identity_permutation(n)


def edges_reversed(route):
    def reversed_hasse(n):
        perms, edges = route(n)
        return perms, [(target, source, i) for source, target, i in edges]

    return reversed_hasse


def input_unchanged(route):
    return lambda i, w: w


def first_dropped(route):
    return lambda *args: route(*args)[1:]


def row(name, fault, failing):
    return pytest.param(name, fault, failing, id=name)


FAULTS = [
    row("check_nad", negated, {"01", "04", "05"}),
    row("is_crossing", negated, {"04"}),
    row("smc_leq", negated, {"08"}),
    row("collections_match", returns(False), {"07"}),
    row("diagram_to_permutation", identity_word, {"09"}),
    row("family_count", plus_one, {"10"}),
    row("arc_killed_by", negated, {"10"}),
    row("ext1_dim", plus_one, {"02"}),
    row("quad", plus_one, {"02"}),
    row("hom_dim", plus_one, {"03", "04", "05"}),
    row("restrict_green", returns(frozenset()), {"01", "05", "09"}),
    row("weak_order_hasse", edges_reversed, {"11"}),
    row("left_multiply_simple", input_unchanged, {"06", "07"}),
    row("is_right_arc", negated, {"10"}),
    row("nad_ideal_filter", first_dropped, {"10"}),
    row("smc_axiom_check", returns(True), {"07"}),
    row("is_semibrick", returns(True), {"05"}),
    row("check_relations", returns(True), {"02"}),
    row("is_brick", returns(True), {"02"}),
]


@pytest.mark.parametrize("name, fault, failing", FAULTS)
def test_a_broken_route_fails_exactly_its_criteria(
    clear_caches, monkeypatch, name, fault, failing
):
    monkeypatch.setattr(checks, name, fault(getattr(checks, name)))
    failed = {c.number for c in CRITERIA if not run_criterion(c, max_n=3).passed}
    assert failed == failing
