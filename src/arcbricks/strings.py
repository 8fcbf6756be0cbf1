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
reproduce.  A letter is written as its arrow ``(i, sign)``, so this module
needs no module of the linear-algebra route.
"""

from __future__ import annotations

from functools import cache

from .arcs import Arc

QUOTIENT = "quotient"
SUBMODULE = "submodule"

Middle = tuple[int, tuple[tuple[int, int], ...]]  # (first vertex, letters)


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
