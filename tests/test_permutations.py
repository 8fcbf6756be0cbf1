import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcbricks.permutations import (
    Permutation,
    _from_rows,
    all_permutations,
    descents,
    identity_permutation,
    join,
    left_multiply_simple,
    parse_permutation,
    weak_leq,
)


def P(text):
    return parse_permutation(text)


def inversions(w):
    """The value pairs (a, b), a < b, read off the inversion rows."""
    n1 = len(w.word)
    return frozenset(
        (a, b)
        for a, row in enumerate(w.inversion_rows, start=1)
        for b in range(a + 1, n1 + 1)
        if row >> (b - 1) & 1
    )


def from_inversions(pairs, n):
    """``_from_rows`` on the rows of a set of value pairs; a pair outside
    1..n+1 is not biclosed."""
    rows = [0] * (n + 1)
    for a, b in pairs:
        if not 1 <= a < b <= n + 1:
            raise ValueError("inversion set is not biclosed")
        rows[a - 1] |= 1 << (b - 1)
    return _from_rows(rows)


def covers(w, direction):
    """s_i w at each ascent ("up") or descent ("down") i of w."""
    return [
        left_multiply_simple(i, w)
        for i in range(1, w.rank + 1)
        if (w[i] > w[i + 1]) == (direction == "down")
    ]


def longest_permutation(n):
    return Permutation(tuple(range(n + 1, 0, -1)))


def complement(w):
    """Value complement c(w)_i = n + 2 - w_i, an anti-automorphism."""
    n2 = len(w.word) + 1
    return Permutation(tuple(n2 - v for v in w.word))


def meet(u, w):
    """The meet, through the complement: c(join(c(u), c(w)))."""
    return complement(join(complement(u), complement(w)))


def reference_from_inversions(pairs, n):
    """The word read off a frozenset of inversions, validated against it."""
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


def reference_join(u, w):
    """Join by a frozenset Warshall closure of the union of inversion sets."""
    n1 = len(u.word)
    closed = set(inversions(u) | inversions(w))
    for b in range(2, n1):
        closed |= {
            (a, c)
            for a in range(1, b)
            if (a, b) in closed
            for c in range(b + 1, n1 + 1)
            if (b, c) in closed
        }
    return reference_from_inversions(frozenset(closed), u.rank)


def test_word_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


@pytest.mark.parametrize(
    "word", [(True, 2), (2, True), (2.0, 1.0, 3.0), (1, 2.0), ("1", 2)]
)
def test_word_entries_must_be_ints(word):
    # (True, 2) would equal 12 and print as True2, and a float word would
    # fail later inside inversion_rows
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation(word)


@pytest.mark.parametrize("word", [[2, 3, 1], iter((2, 3, 1)), (v for v in (2, 3, 1))])
def test_a_word_is_stored_as_a_tuple(word):
    # a list word used to be stored as given: unhashable, and unequal to
    # the permutation of the same tuple
    w, v = Permutation(word), Permutation((2, 3, 1))
    assert type(w.word) is tuple
    assert w == v and hash(w) == hash(v) and {v: "v"}[w] == "v"


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_identity_and_all_permutations_need_an_int_rank_of_at_least_1(n):
    # 2.0 raised TypeError from range, and True gave the words of rank 1
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        identity_permutation(n)
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        all_permutations(n)


@pytest.mark.parametrize("i", [0, -1, 4, True, 1.0])
def test_an_entry_outside_1_to_n_plus_1_raises(i):
    # w[0] read the last entry, w[-1] the one before it; past the end
    # raised a bare "tuple index out of range", 1.0 raised TypeError and
    # True read position 1
    with pytest.raises(IndexError, match=rf"position {i!r} out of range 1\.\.3"):
        Permutation((2, 1, 3))[i]


def test_a_permutation_is_not_iterable():
    # the old iteration protocol started at w[0], so list(w) was
    # [3, 2, 1, 3] and 3 in w was True for the word 213
    w = Permutation((2, 1, 3))
    with pytest.raises(TypeError):
        list(w)
    with pytest.raises(TypeError):
        3 in w
    assert list(w.word) == [2, 1, 3]


def test_join_of_two_ranks_raises():
    with pytest.raises(ValueError, match="rank mismatch"):
        join(P("21"), P("213"))


def assert_validated(w):
    """w equals, hashes and reads like the permutation that the validating
    constructor builds from w's word."""
    v = Permutation(w.word)
    assert type(w) is Permutation and type(w.word) is tuple
    assert w == v and hash(w) == hash(v) and str(w) == str(v)
    assert w.inversion_rows == v.inversion_rows


def test_every_word_built_without_validation_is_a_permutation():
    for n in range(1, 5):
        words = all_permutations(n)
        assert len(words) == len(set(words))
        assert_validated(identity_permutation(n))
        for w in words:
            assert_validated(w)
            for i in range(1, n + 1):
                assert_validated(left_multiply_simple(i, w))
        if n <= 3:
            for u in words:
                for w in words:
                    assert_validated(join(u, w))
    assert_validated(_from_rows([0b110, 0b100, 0]))


def test_parse_and_str_round_trip():
    assert str(P("4312")) == "4312"
    big = Permutation(tuple([10] + list(range(1, 10))))
    assert parse_permutation(str(big)) == big
    assert str(big) == "10,1,2,3,4,5,6,7,8,9"


@pytest.mark.parametrize("text", ["1²3", "1٣2", "1,٢,3", "²,1", "", "12a", "1,,2"])
def test_parse_permutation_accepts_only_ascii_digits(text):
    with pytest.raises(ValueError, match="malformed permutation"):
        parse_permutation(text)


def test_inversions_examples():
    assert inversions(P("231")) == {(1, 2), (1, 3)}
    assert inversions(identity_permutation(3)) == frozenset()
    assert inversions(P("321")) == {(1, 2), (1, 3), (2, 3)}


def test_inversion_count_is_length():
    # direct pair-scan oracle: the count of out-of-order value pairs
    for w in all_permutations(3):
        brute = sum(
            1
            for i, j in itertools.combinations(range(4), 2)
            if w.word[i] > w.word[j]
        )
        assert len(inversions(w)) == brute


def test_inversions_match_a_position_scan():
    # direct pair-scan oracle: the out-of-order value pairs of the word
    for n in range(1, 5):
        for w in all_permutations(n):
            pos = {v: i for i, v in enumerate(w.word)}
            brute = {
                (a, b)
                for a, b in itertools.combinations(range(1, n + 2), 2)
                if pos[a] > pos[b]
            }
            assert inversions(w) == brute


def test_weak_leq_examples():
    assert weak_leq(P("132"), P("312"))
    assert not weak_leq(P("213"), P("312"))
    for w in all_permutations(2):
        assert weak_leq(w, w)
    with pytest.raises(ValueError):
        weak_leq(P("12"), P("123"))


def test_weak_leq_matches_cover_reachability():
    # independent oracle: reflexive-transitive closure of the cover relation
    for n in (2, 3):
        perms = all_permutations(n)
        reach = {w: {w.word} for w in perms}
        changed = True
        while changed:
            changed = False
            for w in perms:
                for up in covers(w, "up"):
                    if not reach[w] <= reach[up]:
                        reach[up] |= reach[w]
                        changed = True
        for u in perms:
            for w in perms:
                assert weak_leq(u, w) == (u.word in reach[w])


def test_covers_examples():
    assert {str(w) for w in covers(P("123"), "up")} == {"213", "132"}
    assert covers(P("321"), "up") == []
    assert [str(w) for w in covers(P("231"), "down")] == ["213"]


def test_covers_change_one_inversion():
    for w in all_permutations(3):
        for v in covers(w, "up"):
            assert len(inversions(v) - inversions(w)) == 1
            assert inversions(w) < inversions(v)
        for v in covers(w, "down"):
            assert len(inversions(w) - inversions(v)) == 1


def test_join_meet_examples():
    assert join(P("132"), P("213")) == P("321")
    assert join(P("231"), P("312")) == P("321")
    assert meet(P("231"), P("312")) == P("123")
    for w in all_permutations(2):
        assert join(w, identity_permutation(2)) == w
        assert meet(w, longest_permutation(2)) == w


def test_join_meet_are_lattice_operations():
    # least upper bound / greatest lower bound, checked against weak_leq
    for n in (2, 3):
        perms = all_permutations(n)
        for u, w in itertools.product(perms, repeat=2):
            j = join(u, w)
            assert weak_leq(u, j) and weak_leq(w, j)
            for z in perms:
                if weak_leq(u, z) and weak_leq(w, z):
                    assert weak_leq(j, z)
            m = meet(u, w)
            assert weak_leq(m, u) and weak_leq(m, w)
            for z in perms:
                if weak_leq(z, u) and weak_leq(z, w):
                    assert weak_leq(z, m)


def test_join_is_the_brute_force_least_upper_bound():
    for n in (1, 2, 3):
        inv = {z: inversions(z) for z in all_permutations(n)}
        for u, w in itertools.product(inv, repeat=2):
            uppers = [z for z in inv if inv[u] | inv[w] <= inv[z]]
            least = [z for z in uppers if all(inv[z] <= inv[y] for y in uppers)]
            assert least == [join(u, w)]


def test_bitmask_order_matches_the_frozenset_reference():
    for n in range(1, 5):
        perms = all_permutations(n)
        inv = {w: inversions(w) for w in perms}
        for u, w in itertools.product(perms, repeat=2):
            assert join(u, w) == reference_join(u, w)
            assert weak_leq(u, w) == (inv[u] <= inv[w])


def test_absorption_laws():
    for n in (3, 4):
        for u, w in itertools.product(all_permutations(n), repeat=2):
            assert join(u, meet(u, w)) == u
            assert meet(u, join(u, w)) == u


def test_from_rows_rejects_rows_that_are_not_biclosed():
    # (1, 3) without (1, 2) or (2, 3) is not transitively closed
    with pytest.raises(ValueError, match="not biclosed"):
        _from_rows([0b100, 0, 0])
    # a bit past the last value, a bit on or below the diagonal, and a
    # popcount above the number of larger values
    for rows in ([0b1000, 0, 0], [0, 0b001, 0], [0b110, 0b110, 0]):
        with pytest.raises(ValueError, match="not biclosed"):
            _from_rows(rows)
    assert _from_rows([0b110, 0b100, 0]) == P("321")


def test_from_inversions_examples():
    assert from_inversions({(1, 2), (1, 3), (2, 3)}, 2) == P("321")
    assert from_inversions(frozenset(), 2) == P("123")
    with pytest.raises(ValueError):
        from_inversions({(1, 3)}, 2)


def assert_accepts_exactly_the_biclosed_sets(n, counts):
    pairs = list(itertools.combinations(range(1, n + 2), 2))
    biclosed = {inversions(w): w for w in all_permutations(n)}
    accepted = rejected = 0
    for k in range(len(pairs) + 1):
        for subset in map(frozenset, itertools.combinations(pairs, k)):
            if subset in biclosed:
                assert from_inversions(subset, n) == biclosed[subset]
                accepted += 1
            else:
                with pytest.raises(ValueError, match="not biclosed"):
                    from_inversions(subset, n)
                rejected += 1
    assert (accepted, rejected) == counts


def test_from_inversions_accepts_exactly_the_biclosed_sets():
    assert_accepts_exactly_the_biclosed_sets(3, (24, 40))


def test_from_inversions_accepts_exactly_the_biclosed_sets_of_rank_4():
    assert_accepts_exactly_the_biclosed_sets(4, (120, 904))


def test_from_inversions_rejects_pairs_outside_the_range():
    for pairs in ({(0, 1)}, {(2, 1)}, {(1, 4)}):
        with pytest.raises(ValueError, match="not biclosed"):
            from_inversions(pairs, 2)


def test_from_inversions_round_trip_small():
    for n in range(1, 6):
        for w in all_permutations(n):
            assert from_inversions(inversions(w), n) == w


@settings(max_examples=200, deadline=None)
@given(st.permutations(list(range(1, 8))))
def test_from_inversions_round_trip_random(word):
    w = Permutation(tuple(word))
    assert from_inversions(inversions(w), w.rank) == w


def test_left_multiply_simple():
    assert left_multiply_simple(1, P("321")) == P("231")
    assert left_multiply_simple(3, P("4321")) == P("4312")
    for w in all_permutations(3):
        for i in (1, 2, 3):
            assert left_multiply_simple(i, left_multiply_simple(i, w)) == w
    # True read index 1 and 1.0 raised TypeError before one_based
    for i in (0, -1, 3, True, 1.0):
        message = rf"generator index {i!r} out of range 1\.\.2"
        with pytest.raises(IndexError, match=message):
            left_multiply_simple(i, P("321"))


def test_descents_examples():
    assert descents(P("53271468")) == [1, 2, 4]
    assert descents(identity_permutation(4)) == []
    assert descents(P("4321")) == [1, 2, 3]


def test_single_descent_is_join_irreducible():
    # one descent <=> exactly one down-cover <=> not a join of strictly
    # smaller elements
    for n in (2, 3):
        perms = all_permutations(n)
        for w in perms:
            one_descent = len(descents(w)) == 1
            strictly_below = [
                u for u in perms if weak_leq(u, w) and u != w
            ]
            down_covers = [
                u for u in strictly_below
                if not any(weak_leq(u, z) and z != u for z in strictly_below)
            ]
            assert one_descent == (len(down_covers) == 1)
            reducible = any(
                join(u, v) == w
                for u, v in itertools.combinations_with_replacement(strictly_below, 2)
            )
            if w != identity_permutation(n):
                assert one_descent == (not reducible)


def test_antisymmetry():
    for u, w in itertools.product(all_permutations(3), repeat=2):
        if weak_leq(u, w) and weak_leq(w, u):
            assert u == w


def test_complement_is_anti_automorphism():
    for u, w in itertools.product(all_permutations(2), repeat=2):
        assert weak_leq(u, w) == weak_leq(complement(w), complement(u))
