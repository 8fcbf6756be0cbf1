"""Arcs on the points 1..n+1 and the diagrams attached to permutations.

An arc joins ``left < right`` and records, for every strictly interior
point, whether it passes above or below; that data is a complete isotopy
invariant.  ``double_diagram`` builds the n-entry colored diagram of a
permutation (green entry = descent, red = ascent), and crossing / diagram
tests decide the noncrossing conditions:

  (nc1)  no two arcs cross at a non-endpoint,
  (nc2)  no two arcs share a left endpoint or share a right endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def side(self, m: int) -> str:
        if m not in self.interior:
            raise ValueError(f"{m} is not interior to {self}")
        return "above" if m in self.above else "below"

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


def arc_from_json(data: dict) -> Arc:
    return Arc(data["left"], data["right"], frozenset(data.get("above", ())))


def is_crossing(alpha: Arc, beta: Arc) -> bool:
    """Whether the two arcs must cross at a non-endpoint.

    The relative vertical order is sampled at every integer point in the
    closed overlap of the spans: an endpoint of one arc strictly inside the
    other is ordered by the passing arc's side, interior points of both by
    their sides when these differ, and shared endpoints give no information.
    The arcs cross exactly when both orders occur.
    """
    if alpha == beta:
        raise ValueError("crossing test needs distinct arcs")
    lo = max(alpha.left, beta.left)
    hi = min(alpha.right, beta.right)
    seen_plus = seen_minus = False
    for m in range(lo, hi + 1):
        a_end = m in (alpha.left, alpha.right)
        b_end = m in (beta.left, beta.right)
        if a_end and b_end:
            continue
        if a_end:
            sign = 1 if beta.side(m) == "below" else -1
        elif b_end:
            sign = 1 if alpha.side(m) == "above" else -1
        else:
            sa, sb = alpha.side(m), beta.side(m)
            if sa == sb:
                continue
            sign = 1 if sa == "above" else -1
        if sign > 0:
            seen_plus = True
        else:
            seen_minus = True
        if seen_plus and seen_minus:
            return True
    return False


def check_nad(arcs) -> bool:
    """(nc1) pairwise non-crossing and (nc2) no shared same-side endpoints."""
    arcs = sorted(arcs, key=Arc.sort_key)
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            if a.left == b.left or a.right == b.right:
                return False
            if is_crossing(a, b):
                return False
    return True


@dataclass(frozen=True)
class ColoredDiagram:
    """Position-indexed arcs with colors; entry i comes from the pair (w_i, w_{i+1})."""

    n: int
    entries: tuple[tuple[Arc, str], ...]

    def __post_init__(self):
        if len(self.entries) != self.n:
            raise ValueError(f"need exactly {self.n} entries, got {len(self.entries)}")
        for arc, color in self.entries:
            if color not in (GREEN, RED):
                raise ValueError(f"bad color {color!r}")
            if arc.right > self.n + 1:
                raise ValueError(f"{arc} escapes the point range 1..{self.n + 1}")
        for i, (a, _) in enumerate(self.entries):
            for b, _ in self.entries[i + 1 :]:
                if a != b and is_crossing(a, b):
                    raise ValueError(f"{a} and {b} cross")
        self.permutation()  # chain and color consistency

    def arc(self, i: int) -> Arc:
        return self.entries[i - 1][0]

    def color(self, i: int) -> str:
        return self.entries[i - 1][1]

    def permutation(self) -> Permutation:
        """Recover w by walking the endpoint chain, orienting by the colors."""
        pairs = [{arc.left, arc.right} for arc, _ in self.entries]
        first_green = self.entries[0][1] == GREEN
        word = [max(pairs[0]) if first_green else min(pairs[0])]
        word.append((pairs[0] - {word[0]}).pop())
        for i in range(2, self.n + 1):
            if word[-1] not in pairs[i - 1]:
                raise ValueError("entries do not chain into a permutation")
            nxt = (pairs[i - 1] - {word[-1]}).pop()
            descending = word[-1] > nxt
            if descending != (self.entries[i - 1][1] == GREEN):
                raise ValueError(f"color at position {i} contradicts the word")
            word.append(nxt)
        return Permutation(tuple(word))

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
    """The colored diagram of w.

    Entry i joins w_i and w_{i+1}; an interior value k passes below when it
    sits at a position left of the pair, above when right of it.  Green marks
    descents.
    """
    pos = w.positions
    entries = []
    for i in range(1, w.rank + 1):
        a, b = w[i], w[i + 1]
        p, q = min(a, b), max(a, b)
        above = frozenset(k for k in range(p + 1, q) if pos[k] > i + 1)
        entries.append((Arc(p, q, above), GREEN if a > b else RED))
    return ColoredDiagram(w.rank, tuple(entries))


def restrict_green(diagram: ColoredDiagram) -> frozenset[Arc]:
    arcs = frozenset(diagram.green_arcs())
    if not check_nad(arcs):
        raise ValueError(f"green arcs of {diagram} are not a noncrossing diagram")
    return arcs


def restrict_red(diagram: ColoredDiagram) -> frozenset[Arc]:
    arcs = frozenset(diagram.red_arcs())
    if not check_nad(arcs):
        raise ValueError(f"red arcs of {diagram} are not a noncrossing diagram")
    return arcs


def arc_to_join_irreducible(arc: Arc, n: int) -> Permutation:
    """The single-descent permutation whose lone green arc is the given one.

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
    """All arcs on 1..n+1, ordered by (left, right, side bitmask)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > ARC_ENUM_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ARC_ENUM_CAP}")
    out = []
    for left in range(1, n + 1):
        for right in range(left + 1, n + 2):
            interior = list(range(left + 1, right))
            for mask in range(1 << len(interior)):
                above = frozenset(
                    m for j, m in enumerate(interior) if mask >> j & 1
                )
                out.append(Arc(left, right, above))
    return out


def _nad_compatibility(arcs: list[Arc]) -> list[int]:
    """Bitmask per arc of the arcs it can share a noncrossing diagram with."""
    masks = [0] * len(arcs)
    for i, a in enumerate(arcs):
        for j in range(i + 1, len(arcs)):
            b = arcs[j]
            if a.left == b.left or a.right == b.right or is_crossing(a, b):
                continue
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


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


def iter_nad_index_sets(arcs: list[Arc], allowed: int | None = None):
    """Yield every noncrossing subset of ``arcs`` as a tuple of indices."""
    yield from iter_compatible_index_sets(_nad_compatibility(arcs), allowed)


def enumerate_nad(n: int) -> list[frozenset[Arc]]:
    """All noncrossing arc diagrams on 1..n+1, one per permutation."""
    if n > ARC_ENUM_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ARC_ENUM_CAP}")
    arcs = enumerate_arcs(n)
    return [
        frozenset(arcs[j] for j in idx) for idx in iter_nad_index_sets(arcs)
    ]
