from fractions import Fraction

import pytest

from arcbricks.linalg import (
    column_space_basis,
    identity,
    mat,
    matmul,
    matsub,
    nullspace,
    rank,
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
    assert rank(m) == 1
    assert rank(identity(3)) == 3
    assert rank(zeros(2, 3)) == 0


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


def test_column_space_basis():
    m = mat([[1, 2, 0], [2, 4, 1]])
    cols = column_space_basis(m)
    assert cols == mat([[1, 0], [2, 1]])


def test_empty_shapes():
    assert matmul(zeros(2, 0), (), b_ncols=3) == zeros(2, 3)
    assert matsub(zeros(2, 2), zeros(2, 2)) == zeros(2, 2)
    assert transpose((), ncols=2) == ((), ())


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        matmul(identity(2), identity(3))
