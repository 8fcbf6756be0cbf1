"""Permutations of [n+1] under the weak order.

A permutation is stored in one-line notation as a tuple of the values
``1..n+1``; ``rank`` is ``n``.  The weak order is containment of inversion
sets, where an inversion is a VALUE pair ``(a, b)`` with ``a < b`` and ``a``
appearing after ``b`` in the word.  Covers swap adjacent positions, and the
left action of the simple generator ``s_i`` swaps positions ``i`` and
``i + 1`` (1-based).

An inversion set is a tuple of bitmask rows, one per value ``a``, with
bit ``b - 1`` set when ``(a, b)`` is an inversion: containment is
``x & ~y == 0`` row by row.  The join ORs the rows and returns the upper
input when the OR is its rows; otherwise it closes the OR and decodes the
closed rows into a word from their popcounts, which are the word's
inversion table, and checks the word's own rows against them once.

``Permutation(word)`` is the one validating constructor: it sorts the word
and scans its types, and every word from outside comes in through it
(``parse_permutation``, the chained word of
``arcs.ColoredDiagram.from_entries``, direct construction).  The words
that are permutations by construction skip that check through the private
``_trusted``: ``all_permutations`` (after checking n), ``identity_permutation``
(likewise), ``left_multiply_simple`` (after its index check) and
``_from_rows`` (which keeps its biclosure check).  ``inversion_rows`` is a
``lazy.lazy_attribute``, built on first read and kept on the instance.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .lazy import lazy_attribute


@dataclass(frozen=True)
class Permutation:
    word: tuple[int, ...]

    def __post_init__(self):
        n1 = len(self.word)
        ints = {*map(type, self.word)} == {int}  # no bool, float or str entry
        if n1 < 2 or not ints or sorted(self.word) != list(range(1, n1 + 1)):
            raise ValueError(f"not a permutation of 1..{n1}: {self.word!r}")

    @property
    def rank(self) -> int:
        return len(self.word) - 1

    @lazy_attribute
    def inversion_rows(self) -> tuple[int, ...]:
        """Row a - 1 has bit b - 1 set when (a, b) is an inversion: the
        larger values seen before a in a left-to-right scan."""
        rows = [0] * len(self.word)
        seen = 0
        for v in self.word:
            rows[v - 1] = seen >> v << v
            seen |= 1 << (v - 1)
        return tuple(rows)

    def __getitem__(self, i: int) -> int:
        """1-based entry access: w[i] = w_i."""
        return self.word[i - 1]

    def __str__(self) -> str:
        if len(self.word) <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


def parse_permutation(text: str) -> Permutation:
    """Parse "4312" (single digits) or "10,3,1,..." (comma separated); only
    ASCII digits count as digits."""
    text = text.strip()
    tokens = [tok.strip() for tok in text.split(",")] if "," in text else list(text)
    if not tokens or not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError(f"malformed permutation: {text!r}")
    return Permutation(tuple(int(tok) for tok in tokens))


def _trusted(word: tuple[int, ...]) -> Permutation:
    """The permutation of a word that is one by construction, built without
    ``Permutation``'s sort and type scan."""
    w = object.__new__(Permutation)
    object.__setattr__(w, "word", word)
    return w


def _check_rank(n) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"rank must be an integer >= 1, got {n!r}")


def identity_permutation(n: int) -> Permutation:
    _check_rank(n)
    return _trusted(tuple(range(1, n + 2)))


def all_permutations(n: int) -> list[Permutation]:
    """All of W_n in lexicographic word order."""
    _check_rank(n)
    return list(map(_trusted, itertools.permutations(range(1, n + 2))))


def weak_leq(u: Permutation, w: Permutation) -> bool:
    if len(u.word) != len(w.word):
        raise ValueError("rank mismatch")
    return not any(x & ~y for x, y in zip(u.inversion_rows, w.inversion_rows))


def descents(w: Permutation) -> list[int]:
    """Positions i with w_i > w_{i+1}."""
    return [i for i in range(1, len(w.word)) if w.word[i - 1] > w.word[i]]


def left_multiply_simple(i: int, w: Permutation) -> Permutation:
    """s_i w: exchange the entries at positions i and i+1."""
    if not 1 <= i <= w.rank:
        raise ValueError(f"generator index {i} out of range 1..{w.rank}")
    word = list(w.word)
    word[i - 1], word[i] = word[i], word[i - 1]
    return _trusted(tuple(word))


def _from_rows(rows: list[int]) -> Permutation:
    """The unique permutation with the given inversion rows.

    Popcount(row v) is the number of larger values before v in the word,
    its inversion table entry, so inserting the values from n + 1 down to 1,
    each after that many of the larger values already placed, spells the
    word.  The one check is that the word's inversion rows are the given
    rows; it rejects rows that are not biclosed or have a bit outside the
    strict upper triangle, and it fills the word's ``inversion_rows``.
    """
    word = []
    for v in range(len(rows), 0, -1):
        word.insert(rows[v - 1].bit_count(), v)
    w = _trusted(tuple(word))
    if w.inversion_rows != tuple(rows):
        raise ValueError("inversion set is not biclosed")
    return w


def join(u: Permutation, w: Permutation) -> Permutation:
    """Lattice join: transitive closure of the union of inversion sets.

    When the union is one input's rows, that input is above the other and
    is the join, since a biclosed set is already closed.  Otherwise Warshall
    over the rows, one pass over the middle value: every row of a smaller
    value that holds the middle value's bit absorbs the middle row; the
    closed rows are decoded by ``_from_rows``, whose check also fills the
    join's ``inversion_rows`` for the next join in a chain.
    """
    if len(u.word) != len(w.word):
        raise ValueError("rank mismatch")
    u_rows, w_rows = u.inversion_rows, w.inversion_rows
    union = tuple(map(operator.or_, u_rows, w_rows))
    if union == w_rows:
        return w
    if union == u_rows:
        return u
    rows = list(union)
    for b in range(1, len(rows)):
        row_b = rows[b]
        if row_b:
            bit = 1 << b
            for a in range(b):
                if rows[a] & bit:
                    rows[a] |= row_b
    return _from_rows(rows)
