import random
from fractions import Fraction

import pytest

from arcbricks.linalg import (
    identity,
    mat,
    matmul,
    nullspace,
    rref,
    solve_matrix,
    transpose,
    zeros,
)


def test_rref_and_rank():
    m = mat([[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert red == mat([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_nullspace_canonical():
    m = mat([[1, 2, 3]])
    basis = nullspace(m)
    assert basis == [
        (Fraction(-2), Fraction(1), Fraction(0)),
        (Fraction(-3), Fraction(0), Fraction(1)),
    ]
    for vec in basis:
        assert matmul(m, transpose((vec,))) == zeros(1, 1)
    assert nullspace((), ncols=2) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_solve_matrix():
    a = mat([[1, 1], [0, 1]])
    b = mat([[3], [1]])
    x = solve_matrix(a, b)
    assert matmul(a, x) == b
    with pytest.raises(ValueError):
        solve_matrix(mat([[1], [1]]), mat([[1], [2]]))


def test_empty_shapes():
    assert matmul(zeros(2, 0), (), b_ncols=3) == zeros(2, 3)
    assert transpose((), ncols=2) == ((), ())


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        matmul(identity(2), identity(3))


def reference_rref(m):
    """Textbook Gauss-Jordan over Fractions: the reference for ``rref``."""
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_nullspace(m, ncols):
    red, pivots = reference_rref(m)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -red[r][f]
            basis.append(tuple(vec))
    return basis


def random_matrix(rng, nrows, ncols):
    """Entries with negative values and denominators, some zero rows, and
    some rows that are combinations of earlier ones (rank-deficient)."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * ncols
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [
                Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))
                if rng.random() < 0.6
                else 0
                for _ in range(ncols)
            ]
        rows.append(row)
    return mat(rows)


def random_matrices(seed, count=400):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        yield random_matrix(rng, nrows, ncols), ncols


def all_fractions(m):
    return all(type(x) is Fraction for row in m for x in row)


def test_rref_rank_nullspace_match_reference():
    # empty, all-zero and 0-column inputs first, then random ones
    degenerate = [((), 0), (zeros(3, 4), 4), (zeros(1, 1), 1), (((), ()), 0)]
    for m, ncols in [*degenerate, *random_matrices(seed=7)]:
        red, pivots = rref(m)
        assert (red, pivots) == reference_rref(m)
        assert all_fractions(red)
        basis = nullspace(m)
        assert basis == reference_nullspace(m, ncols)
        assert all(all_fractions((vec,)) for vec in basis)
        assert len(basis) == ncols - len(pivots)
        # each vector's last nonzero entry is 1 and every other vector is 0 there
        for i, vec in enumerate(basis):
            free = max(j for j, x in enumerate(vec) if x)
            assert [other[free] for other in basis] == [int(k == i) for k in range(len(basis))]
        for vec in basis:
            assert matmul(m, transpose((vec,))) == zeros(len(m), 1)


def test_solve_matrix_matches_reference():
    rng = random.Random(11)
    inconsistent = 0
    for m, ncols in random_matrices(seed=11):
        bcols = rng.randint(1, 3)
        if rng.random() < 0.5:
            b = matmul(m, random_matrix(rng, ncols, bcols))
        else:
            b = random_matrix(rng, len(m), bcols)
        red, pivots = reference_rref(tuple(ra + rb for ra, rb in zip(m, b)))
        if any(p >= ncols for p in pivots):
            inconsistent += 1
            with pytest.raises(ValueError):
                solve_matrix(m, b)
            continue
        x = solve_matrix(m, b)
        assert all_fractions(x)
        assert matmul(m, x) == b
        expected = [[Fraction(0)] * bcols for _ in range(ncols)]
        for r, p in enumerate(pivots):
            expected[p] = list(red[r][ncols:])
        assert x == tuple(tuple(row) for row in expected)
    assert inconsistent > 0


def test_degenerate_shapes():
    assert rref(((), (), ())) == (((), (), ()), ())
    assert rref(()) == ((), ())
    assert nullspace(((), ()), ncols=0) == []
    assert nullspace((), ncols=3) == list(identity(3))
    assert nullspace(zeros(2, 3)) == list(identity(3))
    assert solve_matrix(((), ()), zeros(2, 2)) == ()
    with pytest.raises(ValueError):
        solve_matrix(((), ()), mat([[0], [1]]))
    red, pivots = rref(zeros(3, 2))
    assert red == zeros(3, 2) and pivots == () and all_fractions(red)
