"""Arcs on the points 1..n+1 and the diagrams attached to permutations.

An arc joins ``left < right`` and records, for every strictly interior
point, whether it passes above or below; that data is a complete isotopy
invariant.  An ``Arc`` computes its field hash once and keeps it, as
``quiver.Representation`` does, so every cache and dict keyed on arcs
hashes a stored int per lookup; that hash, an arc's point masks and a
diagram's entries are ``lazy.lazy_attribute``s, built on first read and
kept on the instance.  A ``ColoredDiagram`` is the n-entry
colored diagram D_w of a permutation w (green entry = descent, red =
ascent), and w is all it stores: ``double_diagram(w)`` is that diagram,
its entries are read off w on first use in one right-to-left pass over the
word, and ``ColoredDiagram.from_entries`` is the one decoder of entries
built elsewhere, accepting them exactly when they are D_w for the word
their endpoint chain spells; that word goes through the validating
``Permutation`` constructor.  The crossing and diagram tests decide the
noncrossing conditions on arc sets:

  (nc1)  no two arcs cross at a non-endpoint,
  (nc2)  no two arcs share a left endpoint or share a right endpoint.

The half twist reconnects two arcs meeting at a single point: the new arc
joins the two non-shared endpoints, passes above the shared point when the
pivot sits to its left (below when to its right), and takes every other
interior side from the OR of the two arcs' above-point masks; it is built
through the same interned constructor as every other arc.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache

from .lazy import lazy_attribute
from .permutations import (
    Permutation,
    check_rank,
    identity_permutation,
    join,
    one_based,
)

GREEN = "green"
RED = "red"


@dataclass(frozen=True)
class Arc:
    left: int
    right: int
    above: frozenset[int] = frozenset()

    def __post_init__(self):
        points = (self.left, self.right, *self.above)
        if {*map(type, points)} != {int} or not 1 <= self.left < self.right:
            raise ValueError(f"need int points and 1 <= left < right, got {points}")
        interior = set(range(self.left + 1, self.right))
        if not set(self.above) <= interior:
            raise ValueError(f"above-points {set(self.above)} escape the open span")
        object.__setattr__(self, "above", frozenset(self.above))

    @lazy_attribute
    def _hash(self) -> int:
        return hash((self.left, self.right, self.above))

    def __hash__(self) -> int:
        """The dataclass field hash, computed on first use and kept; the
        fields are frozen, so it cannot go stale."""
        return self._hash

    @property
    def interior(self) -> range:
        return range(self.left + 1, self.right)

    @lazy_attribute
    def point_masks(self) -> tuple[int, int]:
        """(up, down): bit m set for each interior point m the arc passes
        above, respectively below; the endpoints are in neither."""
        up = sum(1 << m for m in self.above)
        interior = (1 << self.right) - (2 << self.left)
        return up, interior & ~up

    def sort_key(self) -> tuple[int, int, int]:
        """(left, right, above-point bits shifted to start at left + 1)."""
        return (self.left, self.right, self.point_masks[0] >> (self.left + 1))

    def __str__(self) -> str:
        tags = "".join(
            f";{m}{'^' if m in self.above else 'v'}" for m in self.interior
        )
        return f"arc({self.left},{self.right}{tags})"

    def to_json(self) -> dict:
        return {"left": self.left, "right": self.right, "above": sorted(self.above)}


def is_crossing(alpha: Arc, beta: Arc) -> bool:
    """Whether the two arcs must cross at a non-endpoint.

    Over the closed overlap of the spans, alpha lies strictly higher at a
    point where it passes above and beta does not, or where beta passes
    below and alpha does not; a shared endpoint, or an interior point both
    pass on the same side, gives no information.  The arcs cross exactly
    when each lies higher somewhere.
    """
    if alpha == beta:
        raise ValueError("crossing test needs distinct arcs")
    lo, hi = max(alpha.left, beta.left), min(alpha.right, beta.right)
    if lo >= hi:
        return False
    overlap = (2 << hi) - (1 << lo)
    a_up, a_down = alpha.point_masks
    b_up, b_down = beta.point_masks
    higher = (a_up & ~b_up) | (b_down & ~a_down)
    lower = (b_up & ~a_up) | (a_down & ~b_down)
    return bool(higher & overlap) and bool(lower & overlap)


def _compatible(a: Arc, b: Arc) -> bool:
    """(nc1) and (nc2) for one pair: the arcs may share a diagram."""
    return a.left != b.left and a.right != b.right and not is_crossing(a, b)


def check_nad(arcs) -> bool:
    """(nc1) pairwise non-crossing and (nc2) no shared same-side endpoints."""
    return all(_compatible(a, b) for a, b in itertools.combinations(arcs, 2))


@dataclass(frozen=True)
class ColoredDiagram:
    """The diagram D_w of a permutation w, stored as w alone: entry i is the
    arc of the pair (w_i, w_{i+1}), green at a descent, so the arcs never
    cross.  Entries built elsewhere come in through ``from_entries``."""

    w: Permutation

    @property
    def n(self) -> int:
        return self.w.rank

    @lazy_attribute
    def entries(self) -> tuple[tuple[Arc, str], ...]:
        """Entry i joins w_i and w_{i+1}; an interior value k passes below
        when it sits at a position left of the pair, above when right of it.
        Built on first read, in one right-to-left scan of the word that
        keeps the values right of the pair as one bitmask."""
        word = self.w.word
        n = len(word) - 1
        entries = [None] * n
        later = 0  # bit k set for each value k right of the current pair
        b = word[-1]
        for i in range(n - 1, -1, -1):
            a = word[i]
            if a > b:
                entries[i] = (_interned_arc(b, a, later & ((1 << a) - (2 << b))), GREEN)
            else:
                entries[i] = (_interned_arc(a, b, later & ((1 << b) - (2 << a))), RED)
            later |= 1 << b
            b = a
        return tuple(entries)

    @classmethod
    def from_entries(cls, entries) -> ColoredDiagram:
        """The diagram whose entries these are.  Walks the endpoint chain once
        to read the word w it spells, then accepts only the entries of D_w,
        which also rules out bad colors and arcs outside 1..n+1."""
        entries = tuple(entries)
        if not entries:
            raise ValueError("need at least one entry")
        first, color = entries[0]
        word = [first.right if color == GREEN else first.left]
        for arc, _ in entries:
            if word[-1] not in (arc.left, arc.right):
                raise ValueError("entries do not chain into a permutation")
            word.append(arc.left + arc.right - word[-1])
        diagram = cls(Permutation(tuple(word)))
        if diagram.entries != entries:
            raise ValueError(f"entries are not the diagram of {diagram.w}")
        return diagram

    def arc(self, i: int) -> Arc:
        """The arc at position i in 1..n; any other position raises
        ``IndexError``."""
        return one_based(self.entries, i, "position")[0]

    def color(self, i: int) -> str:
        """The color at position i in 1..n; any other position raises
        ``IndexError``."""
        return one_based(self.entries, i, "position")[1]

    def green_arcs(self) -> list[Arc]:
        return [arc for arc, color in self.entries if color == GREEN]

    def red_arcs(self) -> list[Arc]:
        return [arc for arc, color in self.entries if color == RED]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "arcs": [
                {**arc.to_json(), "color": color, "position": i}
                for i, (arc, color) in enumerate(self.entries, start=1)
            ],
        }


def double_diagram(w: Permutation) -> ColoredDiagram:
    """The colored diagram D_w of w."""
    return ColoredDiagram(w)


@cache
def _interned_arc(left: int, right: int, above: int) -> Arc:
    """One shared ``Arc`` per (left, right, above-point bits), so its point
    masks are computed once; every arc the package builds comes from here."""
    return Arc(left, right, frozenset(m for m in range(left + 1, right) if above >> m & 1))


def half_twist(pivot: Arc, other: Arc, twist: str = "left") -> Arc:
    """Reconnect the non-shared endpoints of two arcs meeting at one point.

    When the shared point lands inside the new span (the arcs met end to
    end), the left twist passes above it if the pivot sat to the left of the
    other arc and below if to the right; the right twist is the inverse
    transformation and flips that side.  Every other interior point of the
    new span is interior to exactly one input arc, so its side is read from
    the OR of the inputs' above masks: arcs that meet end to end tile the
    new span at the shared point, and arcs that leave it on the same side
    put the new span inside the longer arc and outside the shorter one's.
    """
    if twist not in ("left", "right"):
        raise ValueError(f"twist must be 'left' or 'right', got {twist!r}")
    shared = {pivot.left, pivot.right} & {other.left, other.right}
    if len(shared) != 1:
        raise ValueError(
            f"{pivot} and {other} share {len(shared)} endpoints, need exactly one"
        )
    s = shared.pop()
    a = pivot.left if pivot.right == s else pivot.right
    b = other.left if other.right == s else other.right
    left, right = min(a, b), max(a, b)
    up = (pivot.point_masks[0] | other.point_masks[0]) & ((1 << right) - (2 << left))
    if left < s < right and (pivot.right == s) == (twist == "left"):
        up |= 1 << s
    return _interned_arc(left, right, up)


def check_arc(arc: Arc, n) -> None:
    """Raise ``ValueError`` unless n is a rank (``check_rank``) and the arc
    lies on its points 1..n+1."""
    check_rank(n)
    if arc.right > n + 1:
        raise ValueError(f"{arc} escapes the point range 1..{n + 1}")


def restrict_green(diagram: ColoredDiagram) -> frozenset[Arc]:
    return frozenset(diagram.green_arcs())


@lru_cache(maxsize=None, typed=True)
def arc_to_join_irreducible(arc: Arc, n: int) -> Permutation:
    """The single-descent permutation whose lone green arc is the given one,
    built once per ``(arc, n)``.

    The word is two ascending runs: values left of the span, the below
    points, then the right endpoint; followed by the left endpoint, the
    above points, then the values right of the span.  The rank and the arc
    go through ``check_arc`` and the cache is typed, so ``(arc, True)`` and
    ``(arc, 2.0)`` are rejected, never answered from ``(arc, 1)`` or
    ``(arc, 2)``.
    """
    check_arc(arc, n)
    below = set(arc.interior) - arc.above
    first = sorted(set(range(1, arc.left)) | below | {arc.right})
    second = sorted({arc.left} | set(arc.above) | set(range(arc.right + 1, n + 2)))
    return Permutation(tuple(first + second))


def diagram_to_permutation(arcs, n: int) -> Permutation:
    """Join of the per-arc join-irreducibles; inverse to restrict_green."""
    arcs = sorted(arcs, key=Arc.sort_key)
    if not check_nad(arcs):
        raise ValueError("arcs do not form a noncrossing diagram")
    w = identity_permutation(n)
    for arc in arcs:
        w = join(w, arc_to_join_irreducible(arc, n))
    return w


def joins_without_each(arcs, n: int) -> list[Permutation]:
    """For each arc, in ``Arc.sort_key`` order, the join of the other arcs'
    join-irreducibles.

    Each is the join of a prefix and a suffix of the sorted
    join-irreducibles, and every prefix and suffix join is taken once, so k
    arcs cost about 3k joins, not k(k - 1).  Every subset of a noncrossing
    diagram is one, so the arcs are not tested again; a caller checks the
    whole set, as ``diagram_to_permutation`` does.
    """
    irreducibles = [
        arc_to_join_irreducible(arc, n) for arc in sorted(arcs, key=Arc.sort_key)
    ]
    bottom = identity_permutation(n)
    prefixes = [bottom]  # prefixes[i]: the join of the first i
    for x in irreducibles[:-1]:
        prefixes.append(join(prefixes[-1], x))
    joins = [None] * len(irreducibles)
    suffix = bottom  # the join of the irreducibles after position i
    for i in reversed(range(len(irreducibles))):
        joins[i] = join(prefixes[i], suffix)
        if i:
            suffix = join(irreducibles[i], suffix)
    return joins


ARC_ENUM_CAP = 8


def enumerate_arcs(n: int) -> list[Arc]:
    """All arcs on 1..n+1, ordered by (left, right, side bitmask); they are
    the shared objects that diagrams use."""
    check_rank(n)
    if n > ARC_ENUM_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ARC_ENUM_CAP}")
    return [
        _interned_arc(left, right, mask << (left + 1))
        for left in range(1, n + 1)
        for right in range(left + 1, n + 2)
        for mask in range(1 << (right - left - 1))
    ]


@lru_cache(maxsize=None, typed=True)
def arc_table(n: int) -> tuple[tuple[Arc, ...], dict[Arc, int], tuple[int, ...]]:
    """The arcs on 1..n+1 in ``enumerate_arcs`` order; ``bit``, the one map
    of an arc to its bit ``1 << index``, which every per-n arc bitmask reads;
    and per arc, the mask of the arcs it can share a noncrossing diagram
    with.  Built once per n, in a typed cache, so a ``bool`` or ``float``
    rank reaches ``enumerate_arcs``'s check instead of the table of the
    equal ``int``."""
    arcs = tuple(enumerate_arcs(n))
    bit = {a: 1 << j for j, a in enumerate(arcs)}
    masks = [0] * len(arcs)
    for (i, a), (j, b) in itertools.combinations(enumerate(arcs), 2):
        if _compatible(a, b):
            masks[i] |= bit[b]
            masks[j] |= bit[a]
    return arcs, bit, tuple(masks)


def iter_compatible_index_sets(masks: list[int], allowed: int | None = None):
    """Yield every subset (as an index tuple) of a pairwise-compatible family.

    ``masks[j]`` is the bitmask of indices compatible with ``j``; only its
    bits above ``j`` are read.  Compatibility is hereditary, so depth-first
    extension by the remaining candidates, lowest first and each removed
    once taken, visits each subset once, in lexicographic index order.
    ``allowed`` restricts the pool to a bitmask.  The recursion is one level
    deeper than the largest yielded set, so at most n+1 deep on the arcs of
    1..n+1, where a diagram has at most n arcs.
    """

    def extend(chosen, candidates):
        yield chosen
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            yield from extend(chosen + (j,), candidates & masks[j])

    yield from extend((), (1 << len(masks)) - 1 if allowed is None else allowed)


def enumerate_nad(n: int) -> list[frozenset[Arc]]:
    """All noncrossing arc diagrams on 1..n+1, one per permutation."""
    arcs, _, masks = arc_table(n)
    return [frozenset(arcs[j] for j in idx) for idx in iter_compatible_index_sets(masks)]
