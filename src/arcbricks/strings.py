"""Factorizations and graph maps, each one a middle.

Reading an arc left to right produces one signed letter per interior point:
``a_{m-1}`` (direct) under a below point ``m``, ``a_{m-1}^-`` (inverse) under
an above one.  The letters occupy the vertex interval from ``arc.left`` to
``arc.right - 1``; a unit arc has no letters and one support vertex.

A factorization cuts the letters into contiguous pieces ``b c d``; it is a
quotient factorization when ``b`` is empty or ends with an inverse letter and
``d`` is empty or begins with a direct letter, and a submodule factorization
with the two conditions swapped.  Its middle is ``(first vertex, letters of
c)``, and in an arc the middle fixes the cut: ``|b|`` is the first vertex
minus ``arc.left`` and ``|c|`` is the number of letters.  So a factorization
is stored as its middle, and ``factorizations`` is ``@cache``d on ``(arc,
kind)`` and returns a frozenset of middles.

A graph map pairs a quotient factorization of the source arc with a
submodule factorization of the target arc that has the same middle, so the
graph maps are the intersection of the two sets, and counting them computes
the hom dimension combinatorially, which the linear-algebra route must
reproduce.  ``materialize`` makes a graph map a concrete ``Morphism``.
"""

from __future__ import annotations

from functools import cache

from .arcs import Arc
from .quiver import Arrow, Morphism, arc_module

QUOTIENT = "quotient"
SUBMODULE = "submodule"

Middle = tuple[int, tuple[Arrow, ...]]  # (first vertex, letters)


@cache
def factorizations(arc: Arc, kind: str) -> frozenset[Middle]:
    """The middles of the arc's factorizations of the given kind."""
    if kind not in (QUOTIENT, SUBMODULE):
        raise ValueError(f"kind must be quotient or submodule, got {kind!r}")
    letters = tuple((m - 1, -1 if m in arc.above else 1) for m in arc.interior)
    length = len(letters)
    b_sign = -1 if kind == QUOTIENT else 1
    return frozenset(
        (arc.left + lo, letters[lo:hi])
        for lo in range(length + 1)
        if lo == 0 or letters[lo - 1][1] == b_sign
        for hi in range(lo, length + 1)
        if hi == length or letters[hi][1] == -b_sign
    )


def graph_map_count(alpha: Arc, beta: Arc) -> int:
    """How many graph maps run from alpha to beta."""
    return len(factorizations(alpha, QUOTIENT) & factorizations(beta, SUBMODULE))


def graph_maps(alpha: Arc, beta: Arc) -> list[Middle]:
    """The middle of every graph map from alpha to beta, sorted; a new list
    per call."""
    return sorted(factorizations(alpha, QUOTIENT) & factorizations(beta, SUBMODULE))


def materialize(alpha: Arc, beta: Arc, middle: Middle, n: int) -> Morphism:
    """The graph map from alpha to beta with this middle as a concrete
    morphism: the identity over the middle's vertex interval and zero
    elsewhere, with ``int`` entries, so ``Morphism.is_valid`` evaluates the
    integer hom rows on them in ints."""
    source = arc_module(alpha, n)
    target = arc_module(beta, n)
    first, letters = middle
    last = first + len(letters)
    mats = tuple(
        ((1,),) if first <= v <= last else ((0,) * source.dim(v),) * target.dim(v)
        for v in range(1, n + 1)
    )
    return Morphism(source, target, mats)
