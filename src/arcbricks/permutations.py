"""Permutations of [n+1] under the weak order.

A permutation is stored in one-line notation as a tuple of the values
``1..n+1``; ``rank`` is ``n``.  The weak order is containment of inversion
sets, where an inversion is a VALUE pair ``(a, b)`` with ``a < b`` and ``a``
appearing after ``b`` in the word.  Covers swap adjacent positions, and the
left action of the simple generator ``s_i`` swaps positions ``i`` and
``i + 1`` (1-based).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

InversionSet = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Permutation:
    word: tuple[int, ...]

    def __post_init__(self):
        n1 = len(self.word)
        if n1 < 2 or sorted(self.word) != list(range(1, n1 + 1)):
            raise ValueError(f"not a permutation of 1..{n1}: {self.word!r}")

    @property
    def rank(self) -> int:
        return len(self.word) - 1

    @cached_property
    def positions(self) -> dict[int, int]:
        """value -> 1-based position in the word."""
        return {v: i for i, v in enumerate(self.word, start=1)}

    def __getitem__(self, i: int) -> int:
        """1-based entry access: w[i] = w_i."""
        return self.word[i - 1]

    def __str__(self) -> str:
        if len(self.word) <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


def parse_permutation(text: str) -> Permutation:
    """Parse "4312" (single digits) or "10,3,1,..." (comma separated)."""
    text = text.strip()
    if "," in text:
        values = tuple(int(tok) for tok in text.split(","))
    else:
        if not text.isdigit():
            raise ValueError(f"malformed permutation: {text!r}")
        values = tuple(int(ch) for ch in text)
    return Permutation(values)


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 2)))


def longest_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(n + 1, 0, -1)))


def all_permutations(n: int) -> list[Permutation]:
    """All of W_n in lexicographic word order."""
    return [Permutation(word) for word in itertools.permutations(range(1, n + 2))]


def inversions(w: Permutation) -> InversionSet:
    """Value pairs (a, b), a < b, with a appearing after b in the word."""
    pos = w.positions
    n1 = len(w.word)
    return frozenset(
        (a, b)
        for a in range(1, n1)
        for b in range(a + 1, n1 + 1)
        if pos[a] > pos[b]
    )


def weak_leq(u: Permutation, w: Permutation) -> bool:
    if u.rank != w.rank:
        raise ValueError("rank mismatch")
    return inversions(u) <= inversions(w)


def descents(w: Permutation) -> list[int]:
    """Positions i with w_i > w_{i+1}."""
    return [i for i in range(1, len(w.word)) if w.word[i - 1] > w.word[i]]


def left_multiply_simple(i: int, w: Permutation) -> Permutation:
    """s_i w: exchange the entries at positions i and i+1."""
    if not 1 <= i <= w.rank:
        raise ValueError(f"generator index {i} out of range 1..{w.rank}")
    word = list(w.word)
    word[i - 1], word[i] = word[i], word[i - 1]
    return Permutation(tuple(word))


def covers(w: Permutation, direction: str) -> list[Permutation]:
    """Adjacent-swap covers: "down" swaps descent pairs, "up" swaps ascents."""
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    out = []
    for i in range(1, len(w.word)):
        descending = w.word[i - 1] > w.word[i]
        if descending == (direction == "down"):
            out.append(left_multiply_simple(i, w))
    return out


def _transitive_closure(pairs: set[tuple[int, int]], n1: int) -> frozenset[tuple[int, int]]:
    """Warshall's closure: one pass over the middle value b suffices."""
    closed = set(pairs)
    for b in range(2, n1):
        closed |= {
            (a, c)
            for a in range(1, b)
            if (a, b) in closed
            for c in range(b + 1, n1 + 1)
            if (b, c) in closed
        }
    return frozenset(closed)


def from_inversions(pairs: InversionSet, n: int) -> Permutation:
    """The unique permutation with the given inversion set.

    A value u precedes v (for u < v) exactly when (u, v) is not an inversion;
    the candidate word built from that comparison is validated against the
    input, which rejects non-biclosed sets such as {(1, 3)}.
    """
    n1 = n + 1
    position = {}
    for v in range(1, n1 + 1):
        ahead = sum(1 for u in range(1, v) if (u, v) not in pairs)
        ahead += sum(1 for u in range(v + 1, n1 + 1) if (v, u) in pairs)
        position[v] = ahead + 1
    word = [0] * n1
    for v, p in position.items():
        if not 1 <= p <= n1 or word[p - 1]:
            raise ValueError("inversion set is not biclosed")
        word[p - 1] = v
    w = Permutation(tuple(word))
    if inversions(w) != frozenset(pairs):
        raise ValueError("inversion set is not biclosed")
    return w


def join(u: Permutation, w: Permutation) -> Permutation:
    """Lattice join: transitive closure of the union of inversion sets."""
    if u.rank != w.rank:
        raise ValueError("rank mismatch")
    closed = _transitive_closure(set(inversions(u) | inversions(w)), len(u.word))
    return from_inversions(closed, u.rank)


def complement(w: Permutation) -> Permutation:
    """Value complement c(w)_i = n + 2 - w_i, an anti-automorphism."""
    n2 = len(w.word) + 1
    return Permutation(tuple(n2 - v for v in w.word))


def meet(u: Permutation, w: Permutation) -> Permutation:
    return complement(join(complement(u), complement(w)))
