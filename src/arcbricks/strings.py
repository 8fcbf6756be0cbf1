"""Arrow sequences, factorizations and graph maps.

Reading an arc left to right produces one signed letter per interior point:
``a_{m-1}`` (direct) under a below point ``m``, ``a_{m-1}^-`` (inverse) under
an above one.  Unit arcs carry the idempotent of their single support vertex.

A factorization cuts the sequence into contiguous pieces ``b c d``; it is a
quotient factorization when ``b`` is empty or ends with an inverse letter and
``d`` is empty or begins with a direct letter, and a submodule factorization
with the two conditions swapped.  A graph map pairs a quotient factorization
of the source arc with a submodule factorization of the target arc whose
middles agree letter-for-letter on the same vertex interval; counting them
computes the hom dimension combinatorially, which the linear-algebra route
must reproduce.

``factorizations`` is ``@cache``d on ``(arc, kind)`` and returns a tuple,
each factorization builds its middle once, and each arc's submodule
factorizations are indexed by middle once, in a per-arc cache;
``graph_maps`` reads both, so a pair costs one lookup per quotient
factorization of its source.  ``graph_map_count`` sums the sizes those
lookups find and builds no ``GraphMap``; only callers that read the maps
themselves, such as criterion 03 through ``materialize``, build the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .arcs import Arc
from .quiver import Arrow, Morphism, arc_module, arrow_name

QUOTIENT = "quotient"
SUBMODULE = "submodule"


@dataclass(frozen=True)
class ArrowSequence:
    """Letters of an arc; ``start`` is the left endpoint, so the letters
    occupy the vertex interval [start, start + len(letters)]."""

    start: int
    letters: tuple[Arrow, ...]

    def __post_init__(self):
        for k, (i, _) in enumerate(self.letters):
            if i != self.start + k:
                raise ValueError("letter indices must increase by one")

    def __str__(self) -> str:
        if not self.letters:
            return f"e{self.start}"
        return " ".join(arrow_name(a) for a in self.letters)


def arrow_sequence(arc: Arc) -> ArrowSequence:
    letters = tuple(
        (m - 1, 1 if m not in arc.above else -1) for m in arc.interior
    )
    return ArrowSequence(arc.left, letters)


@dataclass(frozen=True)
class Factorization:
    """Cut points 0 <= lo <= hi <= len(letters): b = letters[:lo],
    c = letters[lo:hi], d = letters[hi:].  The middle, c with its first
    vertex, is built once, with the factorization."""

    sequence: ArrowSequence
    kind: str
    lo: int
    hi: int
    _middle: tuple[int, tuple[Arrow, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        middle = (self.sequence.start + self.lo, self.sequence.letters[self.lo : self.hi])
        object.__setattr__(self, "_middle", middle)

    @property
    def middle_letters(self) -> tuple[Arrow, ...]:
        return self._middle[1]

    @property
    def middle_interval(self) -> tuple[int, int]:
        """Vertex interval [first, last] supporting the middle piece."""
        return (self.sequence.start + self.lo, self.sequence.start + self.hi)

    def middle(self) -> tuple[int, tuple[Arrow, ...]]:
        return self._middle

    def __str__(self) -> str:
        seq = self.sequence
        parts = []
        for piece in (seq.letters[: self.lo], self.middle_letters, seq.letters[self.hi :]):
            parts.append(" ".join(arrow_name(a) for a in piece) if piece else "-")
        return f"({parts[0]} | {parts[1]} | {parts[2]})"


@cache
def factorizations(arc: Arc, kind: str) -> tuple[Factorization, ...]:
    """All factorizations of the given kind, ordered by (|b|, |c|)."""
    if kind not in (QUOTIENT, SUBMODULE):
        raise ValueError(f"kind must be quotient or submodule, got {kind!r}")
    seq = arrow_sequence(arc)
    letters = seq.letters
    length = len(letters)
    b_sign = -1 if kind == QUOTIENT else 1
    d_sign = 1 if kind == QUOTIENT else -1
    out = []
    for lo in range(length + 1):
        if lo > 0 and letters[lo - 1][1] != b_sign:
            continue
        for hi in range(lo, length + 1):
            if hi < length and letters[hi][1] != d_sign:
                continue
            out.append(Factorization(seq, kind, lo, hi))
    return tuple(out)


@dataclass(frozen=True)
class GraphMap:
    source: Arc
    target: Arc
    quotient: Factorization
    submodule: Factorization


@cache
def _submodules_by_middle(arc: Arc) -> dict[tuple, tuple[Factorization, ...]]:
    """The arc's submodule factorizations, grouped by middle in their
    ``factorizations`` order."""
    subs: dict[tuple, list[Factorization]] = {}
    for f in factorizations(arc, SUBMODULE):
        subs.setdefault(f.middle(), []).append(f)
    return {middle: tuple(fs) for middle, fs in subs.items()}


def graph_maps(alpha: Arc, beta: Arc) -> list[GraphMap]:
    """Every graph map from alpha to beta, ordered by the quotient
    factorization and then by the submodule one; a new list per call."""
    subs = _submodules_by_middle(beta)
    return [
        GraphMap(alpha, beta, q, s)
        for q in factorizations(alpha, QUOTIENT)
        for s in subs.get(q.middle(), ())
    ]


def graph_map_count(alpha: Arc, beta: Arc) -> int:
    """How many graph maps run from alpha to beta, counted off the same
    lookups as ``graph_maps`` without building one."""
    subs = _submodules_by_middle(beta)
    return sum(len(subs.get(q.middle(), ())) for q in factorizations(alpha, QUOTIENT))


def materialize(gm: GraphMap, n: int) -> Morphism:
    """The graph map as a concrete morphism: the identity over the shared
    middle's vertex interval and zero elsewhere, with ``int`` entries, so
    ``Morphism.is_valid`` evaluates the integer hom rows on them in ints."""
    source = arc_module(gm.source, n)
    target = arc_module(gm.target, n)
    lo, hi = gm.quotient.middle_interval
    mats = tuple(
        ((1,),) if lo <= v <= hi else ((0,) * source.dim(v),) * target.dim(v)
        for v in range(1, n + 1)
    )
    return Morphism(source, target, mats)
