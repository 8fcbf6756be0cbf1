"""Small exact linear algebra over the rationals.

Matrices are tuples of row tuples of ``fractions.Fraction`` (``int`` entries
are accepted too).  Elimination is fraction-free: ``_echelon`` scales each row
to integers by the lcm of its denominators, eliminates with integer row
operations, and keeps every row primitive by dividing out the gcd of its
entries.  ``Fraction``s are built only at the end, when a row is divided by
its pivot, so the results are the unique reduced row echelon form and the
canonical kernel basis it determines.  An ``r x 0`` or ``0 x c`` matrix is a
legitimate value; it is represented by ``r`` empty rows plus an explicit
column count where one is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows: Sequence[Sequence]) -> Matrix:
    """Normalize nested sequences of numbers into a Matrix."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(nrows: int, ncols: int) -> Matrix:
    return tuple(tuple(ZERO for _ in range(ncols)) for _ in range(nrows))


def identity(size: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size)
    )


def matmul(a: Matrix, b: Matrix, b_ncols: int | None = None) -> Matrix:
    """Product ``a @ b``.

    When ``b`` has zero rows its column count is unrecoverable, so ``b_ncols``
    must supply it if the caller needs a correctly shaped (all-zero) result.
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a[0])} columns by {len(b)} rows")
    k = len(b)
    ncols = len(b[0]) if b else (b_ncols or 0)
    out = []
    for row in a:
        out.append(
            tuple(sum((row[t] * b[t][j] for t in range(k)), ZERO) for j in range(ncols))
        )
    return tuple(out)


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m for x in row)


def transpose(m: Matrix, ncols: int | None = None) -> Matrix:
    if not m:
        return tuple(() for _ in range(ncols or 0))
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def _echelon(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination.

    Returns integer rows, one per pivot, and their pivot columns.  Row ``r``
    is nonzero in column ``pivots[r]`` and zero in every other pivot column,
    so dividing it by that entry gives row ``r`` of the reduced row echelon
    form.  Eliminating with pivot ``p`` replaces a row whose entry is ``f``
    by ``p * row - f * prow`` and then divides it by its content.
    """
    rows = []
    for row in m:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(ints):
            rows.append(ints)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows, pivots = _echelon(m)
    ncols = len(m[0]) if m else 0
    red = [
        tuple(Fraction(x, row[p]) if x else ZERO for x in row)
        for row, p in zip(rows, pivots)
    ]
    red += [(ZERO,) * ncols] * (len(m) - len(red))
    return tuple(red), tuple(pivots)


def rank(m: Matrix) -> int:
    return len(_echelon(m)[1])


def nullspace(m: Matrix, ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Canonical kernel basis of ``m`` (acting on column vectors).

    Each free column, in increasing index order, contributes one basis vector
    with a 1 in that coordinate; the result is the standard reduced echelon
    parametrization, so callers get a deterministic basis.  The entries are
    read straight from the integer rows of ``_echelon``.

    Contract: a vector's free coordinate is its last nonzero entry, which is
    1, and every other basis vector is 0 there.  So the basis, as columns,
    is the identity on the rows of its free coordinates.
    """
    n = ncols if ncols is not None else (len(m[0]) if m else 0)
    if not m or n == 0:
        return [
            tuple(ONE if j == i else ZERO for j in range(n)) for i in range(n)
        ]
    rows, pivots = _echelon(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        vec = [ZERO] * n
        vec[f] = ONE
        for row, p in zip(rows, pivots):
            if row[f]:
                vec[p] = Fraction(-row[f], row[p])
        basis.append(tuple(vec))
    return basis


def solve_matrix(a: Matrix, b: Matrix) -> Matrix:
    """One exact solution ``x`` of ``a @ x = b``; raises if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    if nrows == 0:
        return zeros(ncols, bcols)
    aug = tuple(tuple(a[i]) + tuple(b[i]) for i in range(nrows))
    red, pivots = rref(aug)
    if any(p >= ncols for p in pivots):
        raise ValueError("inconsistent linear system")
    x = [[ZERO] * bcols for _ in range(ncols)]
    for r, p in enumerate(pivots):
        for j in range(bcols):
            x[p][j] = red[r][ncols + j]
    return tuple(tuple(row) for row in x)
