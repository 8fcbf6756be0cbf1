"""Small exact linear algebra over the rationals.

Matrices are tuples of row tuples of ``fractions.Fraction`` (``int`` entries
are accepted too).  There is one elimination routine, ``echelon``, and it
works on sparse integer rows: a ``Row`` maps a column to its nonzero ``int``
entry.  ``integer_rows`` scales each rational row by the lcm of its
denominators; the dense entry points ``rref``, ``nullspace`` and
``solve_matrix`` go through it, and ``quiver`` assembles its hom systems
directly as ``Row``s.  Elimination is fraction-free and keeps the rows it
produces primitive.  ``Fraction``s are built only at the end, when a row is
divided by its pivot, so the results are the unique reduced row echelon form
and the canonical kernel basis it determines.  An ``r x 0`` or ``0 x c``
matrix is a legitimate value; it is represented by ``r`` empty rows plus an
explicit column count where one is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
Row = dict[int, int]  # column -> nonzero integer entry

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


def integer_rows(rows: Iterable[Iterable[tuple[int, Fraction | int]]]) -> list[Row]:
    """Sparse integer rows from rows of ``(column, rational)`` pairs, each
    scaled by the lcm of its denominators; zero entries and zero rows are
    dropped."""
    out = []
    for row in rows:
        row = [(j, x) for j, x in row if x]
        if row:
            den = lcm(*(x.denominator for _, x in row))
            out.append({j: x.numerator * (den // x.denominator) for j, x in row})
    return out


def _eliminate(row: Row, prow: Row, c: int) -> Row:
    """``row`` with its column-``c`` entry cleared by the pivot row ``prow``
    (``p * row - f * prow``, with ``p`` and ``f`` the two column-``c``
    entries over their gcd), divided by its content."""
    f, p = row[c], prow[c]
    g = gcd(f, p)
    f, p = f // g, p // g
    out = {k: p * x for k, x in row.items()} if p != 1 else dict(row)
    for k, y in prow.items():
        x = out.get(k, 0) - f * y
        if x:
            out[k] = x
        else:
            del out[k]
    g = gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def echelon(rows: Iterable[Row]) -> dict[int, Row]:
    """Fraction-free elimination of sparse integer rows; the one
    elimination routine.

    Rows are added one at a time: each is reduced against the pivot rows by
    its leading column until that column has no pivot row, and then becomes
    the pivot row of it.  A back-reduction then clears every pivot row's
    entries in the other pivot columns, latest pivots first.  The result
    maps each pivot column to its row; dividing a row by its pivot entry
    gives that row of the reduced row echelon form.  The input rows are not
    modified.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = row
                break
            row = _eliminate(row, prow, c)
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for c in [c for c in row if c != p and c in pivots]:
            row = _eliminate(row, pivots[c], c)
        pivots[p] = row
    return pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    pivots = echelon(integer_rows(map(enumerate, m)))
    ncols = len(m[0]) if m else 0
    order = tuple(sorted(pivots))
    red = []
    for p in order:
        row = pivots[p]
        d = row[p]
        red.append(
            tuple(Fraction(row[j], d) if j in row else ZERO for j in range(ncols))
        )
    red += [(ZERO,) * ncols] * (len(m) - len(red))
    return tuple(red), order


def kernel(rows: Iterable[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical kernel basis of sparse integer rows in ``ncols`` unknowns.

    Each free column, in increasing index order, contributes one basis vector
    with a 1 in that coordinate; the result is the standard reduced echelon
    parametrization, so callers get a deterministic basis.  The entries are
    read straight from the integer rows of ``echelon``.

    Contract: a vector's free coordinate is its last nonzero entry, which is
    1, and every other basis vector is 0 there.  So the basis, as columns,
    is the identity on the rows of its free coordinates.
    """
    pivots = echelon(rows)
    basis = {f: [ZERO] * ncols for f in range(ncols) if f not in pivots}
    for f, vec in basis.items():
        vec[f] = ONE
    for p, row in pivots.items():
        d = row[p]
        for f, x in row.items():
            if f != p:
                basis[f][p] = Fraction(-x, d)
    return [tuple(vec) for vec in basis.values()]


def nullspace(m: Matrix, ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """``kernel`` of a dense matrix, acting on column vectors; ``ncols`` is
    needed only when ``m`` has no rows."""
    n = ncols if ncols is not None else (len(m[0]) if m else 0)
    return kernel(integer_rows(map(enumerate, m)), n)


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
