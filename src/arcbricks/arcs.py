"""Arcs on the points 1..n+1 and the diagrams attached to permutations.

An arc joins ``left < right`` and records, for every strictly interior
point, whether it passes above or below; that data is a complete isotopy
invariant.  A ``ColoredDiagram`` is the n-entry colored diagram D_w of a
permutation w (green entry = descent, red = ascent), and w is all it stores:
``double_diagram(w)`` is that diagram, its entries are read off w on first
use, and ``ColoredDiagram.from_entries`` is the one decoder of entries built
elsewhere, accepting them exactly when they are D_w for the word their
endpoint chain spells.  The crossing and diagram tests decide the
noncrossing conditions on arc sets:

  (nc1)  no two arcs cross at a non-endpoint,
  (nc2)  no two arcs share a left endpoint or share a right endpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .permutations import (
    Permutation,
    identity_permutation,
    join,
)

GREEN = "green"
RED = "red"


@dataclass(frozen=True)
class Arc:
    left: int
    right: int
    above: frozenset[int] = frozenset()

    def __post_init__(self):
        if not 1 <= self.left < self.right:
            raise ValueError(f"need 1 <= left < right, got ({self.left}, {self.right})")
        interior = set(range(self.left + 1, self.right))
        if not set(self.above) <= interior:
            raise ValueError(f"above-points {set(self.above)} escape the open span")
        object.__setattr__(self, "above", frozenset(self.above))

    @property
    def interior(self) -> range:
        return range(self.left + 1, self.right)

    @cached_property
    def point_masks(self) -> tuple[int, int]:
        """(up, down): bit m set for each interior point m the arc passes
        above, respectively below; the endpoints are in neither."""
        up = sum(1 << m for m in self.above)
        interior = (1 << self.right) - (2 << self.left)
        return up, interior & ~up

    def sort_key(self) -> tuple[int, int, int]:
        mask = sum(1 << (m - self.left - 1) for m in self.above)
        return (self.left, self.right, mask)

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

    @cached_property
    def entries(self) -> tuple[tuple[Arc, str], ...]:
        """Entry i joins w_i and w_{i+1}; an interior value k passes below
        when it sits at a position left of the pair, above when right of it.
        Built on first read."""
        word = self.w.word
        # later[i]: bit k set for each value k at a 0-based position >= i
        later = [0] * (len(word) + 1)
        for i in range(len(word) - 1, -1, -1):
            later[i] = later[i + 1] | 1 << word[i]
        entries = []
        for i in range(self.n):
            a, b = word[i], word[i + 1]
            p, q = min(a, b), max(a, b)
            above = later[i + 2] & ((1 << q) - (2 << p))
            entries.append((_interned_arc(p, q, above), GREEN if a > b else RED))
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
        return self.entries[i - 1][0]

    def color(self, i: int) -> str:
        return self.entries[i - 1][1]

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
    masks are computed once."""
    return Arc(left, right, frozenset(m for m in range(left + 1, right) if above >> m & 1))


def restrict_green(diagram: ColoredDiagram) -> frozenset[Arc]:
    return frozenset(diagram.green_arcs())


@cache
def arc_to_join_irreducible(arc: Arc, n: int) -> Permutation:
    """The single-descent permutation whose lone green arc is the given one,
    built once per ``(arc, n)``.

    The word is two ascending runs: values left of the span, the below
    points, then the right endpoint; followed by the left endpoint, the
    above points, then the values right of the span.
    """
    if arc.right > n + 1:
        raise ValueError(f"{arc} escapes the point range 1..{n + 1}")
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


ARC_ENUM_CAP = 8


def enumerate_arcs(n: int) -> list[Arc]:
    """All arcs on 1..n+1, ordered by (left, right, side bitmask); they are
    the shared objects that diagrams use."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > ARC_ENUM_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ARC_ENUM_CAP}")
    return [
        _interned_arc(left, right, mask << (left + 1))
        for left in range(1, n + 1)
        for right in range(left + 1, n + 2)
        for mask in range(1 << (right - left - 1))
    ]


@cache
def nad_table(n: int) -> tuple[tuple[Arc, ...], tuple[int, ...]]:
    """The arcs on 1..n+1 and, per arc, the bitmask of the arcs it can share
    a noncrossing diagram with: the compatibility graph whose cliques are
    the noncrossing diagrams.  Built once per n."""
    arcs = tuple(enumerate_arcs(n))
    masks = [0] * len(arcs)
    for (i, a), (j, b) in itertools.combinations(enumerate(arcs), 2):
        if _compatible(a, b):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return arcs, tuple(masks)


def iter_compatible_index_sets(masks: list[int], allowed: int | None = None):
    """Yield every subset (as an index tuple) of a pairwise-compatible family.

    ``masks[j]`` is the bitmask of indices compatible with ``j``.  Pairwise
    compatibility is hereditary, so depth-first extension by compatible
    higher indices visits each subset exactly once, in lexicographic index
    order.  ``allowed`` restricts the pool to a bitmask.
    """
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


def enumerate_nad(n: int) -> list[frozenset[Arc]]:
    """All noncrossing arc diagrams on 1..n+1, one per permutation."""
    arcs, masks = nad_table(n)
    return [frozenset(arcs[j] for j in idx) for idx in iter_compatible_index_sets(masks)]
