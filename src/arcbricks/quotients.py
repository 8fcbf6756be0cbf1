"""Diagram families cut out by monomial ideals of the doubled quiver.

A monomial ideal is specified by composable arrow paths; a diagram survives
the filter when every generator acts as zero on every one of its arc
modules.  ``family_count(n, family)`` counts a closed family, named in
``FAMILIES``, or the family that a ``MonomialIdealSpec`` cuts out, so an
ideal needs no name beside it.  Three families have closed combinatorial
descriptions that the test suite pins against the path filters: all
diagrams (the two-cycle ideal changes nothing), right diagrams (inverse
arrows killed: every interior side below), and alternating diagrams
(radical square: interior sides constant on each parity class and opposite
between them).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .arcs import Arc, arc_table, iter_compatible_index_sets
from .permutations import check_rank
from .quiver import Arrow, arc_module, check_path, parse_arrow, path_action_is_zero

Path = tuple[Arrow, ...]


@dataclass(frozen=True)
class MonomialIdealSpec:
    generators: tuple[Path, ...]

    def __post_init__(self):
        generators = tuple(tuple(map(tuple, path)) for path in self.generators)
        object.__setattr__(self, "generators", generators)
        for path in generators:
            check_path(path)


def parse_ideal(tokens: list[str]) -> MonomialIdealSpec:
    """Generators as whitespace-joined arrow names, e.g. ["a1-", "a2 a3"]."""
    return MonomialIdealSpec(
        tuple(tuple(parse_arrow(tok) for tok in gen.split()) for gen in tokens)
    )


def two_cycle_ideal(n: int) -> MonomialIdealSpec:
    check_rank(n)
    gens = []
    for i in range(1, n):
        gens.append(((i, 1), (i, -1)))
        gens.append(((i, -1), (i, 1)))
    return MonomialIdealSpec(tuple(gens))


def linear_ideal(n: int) -> MonomialIdealSpec:
    """Kill every inverse arrow, leaving the linearly oriented path algebra."""
    check_rank(n)
    return MonomialIdealSpec(tuple(((i, -1),) for i in range(1, n)))


def radical_square_ideal(n: int) -> MonomialIdealSpec:
    """All composable paths of length two."""
    check_rank(n)
    gens = []
    for i in range(1, n):
        gens.append(((i, 1), (i, -1)))
        gens.append(((i, -1), (i, 1)))
        if i + 1 < n:
            gens.append(((i, 1), (i + 1, 1)))
            gens.append(((i + 1, -1), (i, -1)))
    return MonomialIdealSpec(tuple(gens))


def arc_killed_by(arc: Arc, spec: MonomialIdealSpec, n: int) -> bool:
    module = arc_module(arc, n)
    return all(path_action_is_zero(module, path) for path in spec.generators)


def is_right_arc(arc: Arc) -> bool:
    """Never passes above an interior point."""
    return not arc.above


def is_alternating_arc(arc: Arc) -> bool:
    """Sides constant on each parity class and opposite between nonempty ones."""
    evens = {m in arc.above for m in arc.interior if m % 2 == 0}
    odds = {m in arc.above for m in arc.interior if m % 2 == 1}
    if len(evens) > 1 or len(odds) > 1:
        return False
    if evens and odds and evens == odds:
        return False
    return True


FAMILIES = {"nad": lambda arc: True, "rnad": is_right_arc, "anad": is_alternating_arc}


def _family_index_sets(
    n: int, family: str | MonomialIdealSpec
) -> tuple[tuple[Arc, ...], Iterator[tuple[int, ...]]]:
    """The arcs of ``arc_table(n)`` and the family's diagrams as index tuples:
    a closed family named in ``FAMILIES``, or the diagrams whose arc modules
    an ideal kills."""
    arcs, bit, masks = arc_table(n)
    if isinstance(family, MonomialIdealSpec):
        keep = lambda arc: arc_killed_by(arc, family, n)
    elif family in FAMILIES:
        keep = FAMILIES[family]
    else:
        raise ValueError(f"unknown family {family!r}")
    allowed = sum(bit[arc] for arc in arcs if keep(arc))
    return arcs, iter_compatible_index_sets(masks, allowed)


def nad_ideal_filter(n: int, spec: MonomialIdealSpec) -> list[frozenset[Arc]]:
    """All noncrossing diagrams whose arc modules the ideal annihilates."""
    arcs, index_sets = _family_index_sets(n, spec)
    return [frozenset(arcs[j] for j in idx) for idx in index_sets]


def family_count(n: int, family: str | MonomialIdealSpec) -> int:
    """The size of a closed family (``FAMILIES``) or of the family an ideal
    cuts out."""
    _, index_sets = _family_index_sets(n, family)
    return sum(1 for _ in index_sets)
