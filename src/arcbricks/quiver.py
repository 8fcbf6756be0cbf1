"""Representations of the doubled type-A quiver over exact rationals.

Vertices are ``v_1 .. v_n``; for each ``1 <= i <= n-1`` there is a direct
arrow ``a_i : v_i -> v_{i+1}`` and an inverse arrow ``a_i^- : v_{i+1} -> v_i``.
An arrow is the pair ``(i, sign)`` with sign ``+1`` (direct) or ``-1``
(inverse); a map is a matrix acting on column vectors.  A representation
is admissible when the mesh relation

    (go right then back) - (go left then back) = 0

holds at every vertex.  Arc modules are the 0/1-dimensional string
representations read off an arc: below an interior point means the direct
arrow carries the identity, above means the inverse one does.

``Representation(n, dims, maps)`` is the one constructor and validator.
It takes a nonnegative ``int`` rank, ``n`` nonnegative ``int`` dims and
``int`` or ``Fraction`` entries; a ``bool`` is none of these, so ``True``
never stands in for 1 in a stored module.
``maps`` names the nonzero maps, as a dict or ``(arrow, matrix)`` pairs;
it is stored as the nonzero pairs in ``arrows(n)`` order, so equal modules
have equal fields and hashes, and ``map(a)`` is zero on an arrow left out.

Hom spaces are computed from the commuting-square equations, which
``_hom_system`` assembles as sparse integer rows.  It is the one place
those equations are written: ``hom_basis`` takes their ``linalg.kernel``,
``hom_dim`` their ``linalg.rank``, and ``Morphism.is_valid`` evaluates
them on a morphism's entries.  Ext^1 comes from the symmetric Euler-type
form and is never computed any other way here.  ``morphism_parts`` gives
the kernel and cokernel of a morphism; their arrow maps are read off the
canonical kernel bases of ``linalg.nullspace``, with no linear solve, on
the arrows its source or target maps; a map is injective when its kernel
is zero.  ``is_isomorphic`` returns ``True`` on equal representations
first; the package's own checks compare modules with ``==``.

Five functions are cached: ``hom_basis``, ``hom_dim`` and ``ext1_dim`` on
the pair of representations and ``morphism_parts`` on the morphism
(``@cache``), and ``arc_module`` on ``(arc, n)``, in a typed cache, so a
rank that is not an ``int`` is rejected, never answered for the equal
``int``.  ``hom_dim`` is the number of
unknowns minus the forward-pass rank of the system (rank-nullity,
``linalg.rank``), so it builds no ``Morphism``, keeps no basis and skips
the back-reduction.  A ``Representation`` computes its hash once and keeps
it, so these keys hash their ``Fraction`` entries once per object, not once
per lookup.  It also builds, once and on first use, three arrow bitmasks
(``mapped``: a nonzero map; ``tails`` and ``heads``: the arrow's source,
respectively target, vertex in the support) and its arrow table, which
holds per arrow the source and target indices, the nonzero entries of each
column and the negated nonzero entries of each row.  So a module's
matrices are scanned once, not once per pair it takes part in.  The hash,
the masks, the table and the ``integral`` flag are ``lazy.lazy_attribute``s,
kept on the instance after their first read.
``_hom_system`` reads the two tables only on the arrows of
``(source.mapped | target.mapped) & source.tails & target.heads``: an arrow
from s to t has equations only for a nonzero target.dim(t) x source.dim(s)
block, and only where a map is nonzero, so these are exactly the arrows
that write one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate
from operator import mul

from . import linalg
from .arcs import Arc
from .lazy import lazy_attribute
from .linalg import Matrix

Arrow = tuple[int, int]  # (index i, sign +1/-1)


def _exact(x: Fraction) -> Fraction | int:
    """``x`` as an ``int`` when it is integral, so elimination needs no
    scaling for it."""
    return x.numerator if x.denominator == 1 else x


def arrows(n: int) -> list[Arrow]:
    return [(i, sign) for i in range(1, n) for sign in (1, -1)]


def _arrow_index(a: Arrow) -> int:
    """The index of a quiver arrow in ``arrows(n)``, whatever n."""
    i, sign = a
    return 2 * i - 2 + (sign < 0)


def arrow_source(a: Arrow) -> int:
    i, sign = a
    return i if sign > 0 else i + 1


def arrow_target(a: Arrow) -> int:
    i, sign = a
    return i + 1 if sign > 0 else i


def arrow_name(a: Arrow) -> str:
    i, sign = a
    return f"a{i}" if sign > 0 else f"a{i}-"


def parse_arrow(name: str) -> Arrow:
    name = name.strip()
    sign = -1 if name.endswith("-") else 1
    body = name[:-1] if sign < 0 else name
    digits = body[1:]
    if not (body.startswith("a") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad arrow name {name!r}")
    return (int(digits), sign)


@dataclass(frozen=True)
class Representation:
    n: int
    dims: tuple[int, ...]
    maps: tuple[tuple[Arrow, Matrix], ...]  # nonzero maps, in arrows(n) order

    def __post_init__(self):
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"rank must be a nonnegative integer, got {self.n!r}")
        dims = tuple(self.dims)
        if len(dims) != self.n or any(type(d) is not int or d < 0 for d in dims):
            raise ValueError(f"dims must be {self.n} nonnegative integers, got {dims}")
        given = tuple(self.maps.items() if isinstance(self.maps, dict) else self.maps)
        named = dict(given)
        if len(named) != len(given):
            raise ValueError("an arrow is given two maps")
        pairs = []
        for a in arrows(self.n):
            m = named.pop(a, None)
            if m is None:
                continue
            m = tuple(map(tuple, m))
            rows, cols = dims[arrow_target(a) - 1], dims[arrow_source(a) - 1]
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ValueError(f"matrix for {arrow_name(a)} is not {rows} x {cols}")
            if any(type(x) not in (int, Fraction) for row in m for x in row):
                name = arrow_name(a)
                raise ValueError(f"matrix for {name} has an entry not int or Fraction")
            if not linalg.is_zero(m):
                pairs.append((a, m))
        if named:
            names = ", ".join(sorted(map(arrow_name, named)))
            raise ValueError(f"arrows {names} outside the rank-{self.n} quiver")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", tuple(pairs))

    @lazy_attribute
    def _hash(self) -> int:
        return hash((self.n, self.dims, self.maps))

    def __hash__(self) -> int:
        """The dataclass field hash, computed on first use and kept; the
        fields are frozen, so it cannot go stale."""
        return self._hash

    @lazy_attribute
    def integral(self) -> bool:
        """Whether every map entry is an integer."""
        return all(x.denominator == 1 for _, m in self.maps for row in m for x in row)

    @lazy_attribute
    def mapped(self) -> int:
        """Bitmask of the arrows with a nonzero map: bit j for arrow j of
        ``arrows(n)``."""
        return sum(1 << _arrow_index(a) for a, _ in self.maps)

    @lazy_attribute
    def tails(self) -> int:
        """Bitmask of the arrows whose source vertex is in the support."""
        ends = map(arrow_source, arrows(self.n))
        return sum(1 << j for j, v in enumerate(ends) if self.dim(v))

    @lazy_attribute
    def heads(self) -> int:
        """Bitmask of the arrows whose target vertex is in the support."""
        ends = map(arrow_target, arrows(self.n))
        return sum(1 << j for j, v in enumerate(ends) if self.dim(v))

    @lazy_attribute
    def arrow_table(self) -> tuple[tuple[int, int, tuple, tuple], ...]:
        """Per arrow, indexed like ``arrows(n)``: the 0-based source and
        target vertices, each column's nonzero entries as ``(row, x)`` and
        each row's negated nonzero entries as ``(column, -x)``.  Integral
        entries are stored as ``int``."""
        table = []
        for a in arrows(self.n):
            s, t = arrow_source(a) - 1, arrow_target(a) - 1
            entries = [[_exact(x) for x in row] for row in self.map(a)]
            cols = tuple(
                tuple((k, row[c]) for k, row in enumerate(entries) if row[c])
                for c in range(self.dims[s])
            )
            rows = tuple(
                tuple((k, -x) for k, x in enumerate(row) if x) for row in entries
            )
            table.append((s, t, cols, rows))
        return tuple(table)

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    def map(self, a: Arrow) -> Matrix:
        """The map on arrow ``a``: its stored matrix, or zero."""
        i, _ = a
        if not 1 <= i < self.n:
            raise ValueError(f"arrow {arrow_name(a)} outside the rank-{self.n} quiver")
        for b, m in self.maps:
            if b == a:
                return m
        return linalg.zeros(self.dim(arrow_target(a)), self.dim(arrow_source(a)))

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "arrows": {
                arrow_name(a): [[str(x) for x in row] for row in m]
                for a, m in self.maps
            },
        }


@lru_cache(maxsize=None, typed=True)
def arc_module(arc: Arc, n: int) -> Representation:
    """The string representation of an arc: support v_p .. v_{q-1}, identity
    on the direct arrow a_{m-1} under each below point m and on the inverse
    arrow a_{m-1}^- under each above point.

    The cache is typed, so a ``bool`` or ``float`` rank never finds the
    module of the equal ``int`` rank; it is rejected here instead."""
    if type(n) is not int:
        raise ValueError(f"rank must be a nonnegative integer, got {n!r}")
    if arc.right > n + 1:
        raise ValueError(f"{arc} escapes the point range 1..{n + 1}")
    p, q = arc.left, arc.right
    dims = tuple(1 if p <= v <= q - 1 else 0 for v in range(1, n + 1))
    named = {}
    for m in arc.interior:
        sign = 1 if m not in arc.above else -1
        named[(m - 1, sign)] = linalg.identity(1)
    return Representation(n, dims, named)


def check_relations(rep: Representation) -> bool:
    """Mesh relation at every vertex, with the boundary arrows read as zero."""
    for v in range(1, rep.n + 1):
        d = rep.dim(v)
        right = (
            linalg.matmul(rep.map((v, -1)), rep.map((v, 1)), b_ncols=d)
            if v < rep.n
            else linalg.zeros(d, d)
        )
        left = (
            linalg.matmul(rep.map((v - 1, 1)), rep.map((v - 1, -1)), b_ncols=d)
            if v > 1
            else linalg.zeros(d, d)
        )
        if right != left:
            return False
    return True


@dataclass(frozen=True)
class Morphism:
    source: Representation
    target: Representation
    mats: tuple[Matrix, ...]  # one per vertex

    def mat(self, v: int) -> Matrix:
        return self.mats[v - 1]

    def is_valid(self) -> bool:
        """Every square commutes: each vertex matrix is target dim x source
        dim, and every row of ``_hom_system`` vanishes on the entries of the
        vertex matrices, read in (vertex, row, column) order."""
        equations, _ = _hom_system(self.source, self.target)
        if len(self.mats) != self.source.n or any(
            len(m) != rows or any(len(row) != cols for row in m)
            for m, rows, cols in zip(self.mats, self.target.dims, self.source.dims)
        ):
            return False
        entries = [x for m in self.mats for row in m for x in row]
        return not any(
            sum(x * entries[j] for j, x in row.items()) for row in equations
        )


def _equation_arrows(source: Representation, target: Representation) -> int:
    """Bitmask of the arrows on which Hom(source, target) has an equation.

    Arrow j from s to t writes at most one equation per entry of a
    target.dim(t) x source.dim(s) block: the one at (r, c) when column c of
    the source's map or row r of the target's map is nonzero.  So j writes
    at least one exactly when it is in this mask: one of the two maps is
    nonzero, s is in the source's support and t is in the target's.
    """
    return (source.mapped | target.mapped) & source.tails & target.heads


def _hom_system(
    source: Representation, target: Representation
) -> tuple[list[linalg.Row], list[int]]:
    """The commuting-square equations of Hom(source, target) as sparse
    integer rows, and the offset of each vertex's unknowns.

    Unknowns are the entries of the per-vertex matrices, ordered by
    (vertex, row, column); one equation per arrow and entry of the
    commuting square.  Equations are assembled from the source's column
    entries and the target's negated row entries in their arrow tables, on
    the arrows of ``_equation_arrows`` in increasing order, and equations
    that are identically zero are never written; a pair with no unknowns
    has no such arrow, so no rows.  The arrow tables hold integral entries as
    ``int``, so only a pair with a non-integral entry needs its rows
    scaled.  Modules of different rank raise ``ValueError``.
    """
    if source.n != target.n:
        raise ValueError("rank mismatch")
    sdims, tdims = source.dims, target.dims
    offsets = list(accumulate(map(mul, sdims, tdims), initial=0))
    rows = []
    source_table, target_table = source.arrow_table, target.arrow_table
    arrows_left = _equation_arrows(source, target)
    while arrows_left:
        # the lowest set bit first, so the rows keep arrows(n)'s order
        low = arrows_left & -arrows_left
        arrows_left ^= low
        j = low.bit_length() - 1
        s, t, ms_cols, _ = source_table[j]
        mt_rows = target_table[j][3]
        # (phi_t @ ms - mt @ phi_s)[r][c] = 0: phi_t[r][k] has coefficient
        # ms[k][c] and phi_s[k][c] has coefficient -mt[r][k].
        base_t, width_t = offsets[t], sdims[t]
        base_s, width_s = offsets[s], sdims[s]
        for r, mt_row in enumerate(mt_rows):
            at_r = base_t + r * width_t
            for c, ms_col in enumerate(ms_cols):
                if not (ms_col or mt_row):
                    continue
                row = {}
                for k, x in ms_col:
                    row[at_r + k] = x
                for k, x in mt_row:
                    row[base_s + k * width_s + c] = x
                rows.append(row)
    if not (source.integral and target.integral):
        rows = linalg.integer_rows(row.items() for row in rows)
    return rows, offsets


@cache
def hom_basis(source: Representation, target: Representation) -> tuple[Morphism, ...]:
    """Deterministic echelon basis of the space of morphisms: the canonical
    kernel basis of ``_hom_system``, each basis matrix cut out of its kernel
    vector one row slice at a time."""
    rows, offsets = _hom_system(source, target)
    shapes = list(zip(offsets, target.dims, source.dims))
    basis = []
    for vec in linalg.kernel(rows, offsets[-1]):
        mats = tuple(
            tuple(
                vec[base + r * cols_v : base + (r + 1) * cols_v]
                for r in range(rows_v)
            )
            for base, rows_v, cols_v in shapes
        )
        basis.append(Morphism(source, target, mats))
    return tuple(basis)


@cache
def hom_dim(source: Representation, target: Representation) -> int:
    """dim Hom(source, target) by rank-nullity: the number of unknowns of
    ``_hom_system`` minus its rank, read off the forward pass alone
    (``linalg.rank``).  No basis is built or kept."""
    rows, offsets = _hom_system(source, target)
    return offsets[-1] - linalg.rank(rows)


def _dot(x, y) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), linalg.ZERO)


def _free_coordinates(basis) -> list[int]:
    """Where each canonical kernel basis vector is 1 and the others are 0:
    its last nonzero entry (see ``linalg.nullspace``)."""
    return [max(j for j, x in enumerate(vec) if x) for vec in basis]


@cache
def morphism_parts(f: Morphism) -> tuple[Representation, Representation]:
    """Kernel and cokernel with their induced arrow maps, computed once per
    morphism and with no linear solve.

    ``K_v`` has the canonical basis of ker(f_v) as columns and ``C_v`` that
    of ker(f_v^T) as rows; each is the identity at its free coordinates.  On
    ``a : s -> t``, with X_a and Y_a the source's and the target's maps, the
    kernel map is ``X_a K_s`` read at the rows of K_t's free coordinates.
    The unit columns at C_s's free coordinates are a right inverse of C_s,
    so the cokernel map is ``C_t Y_a`` read at those columns; any right
    inverse gives the same map, since ``C_t Y_a`` kills the image of f_s.
    """
    n = f.source.n
    ker, cok = [], []
    for v in range(1, n + 1):
        fvt = linalg.transpose(f.mat(v), ncols=f.source.dim(v))
        ker.append(linalg.nullspace(f.mat(v), ncols=f.source.dim(v)))
        cok.append(linalg.nullspace(fvt, ncols=f.target.dim(v)))
    ker_free = [_free_coordinates(basis) for basis in ker]
    cok_free = [_free_coordinates(basis) for basis in cok]
    ker_maps, cok_maps = {}, {}
    # an arrow that neither module maps has zero kernel and cokernel maps
    for a in dict.fromkeys(a for a, _ in f.source.maps + f.target.maps):
        s, t = arrow_source(a) - 1, arrow_target(a) - 1
        ms, mt = f.source.map(a), f.target.map(a)
        ker_maps[a] = tuple(
            tuple(_dot(ms[p], k) for k in ker[s]) for p in ker_free[t]
        )
        cok_maps[a] = tuple(
            tuple(_dot(c, [row[q] for row in mt]) for q in cok_free[s]) for c in cok[t]
        )
    kernel = Representation(n, [len(basis) for basis in ker], ker_maps)
    cokernel = Representation(n, [len(basis) for basis in cok], cok_maps)
    return kernel, cokernel


def bilinear(x, y) -> int:
    """Symmetric form 2*sum(x_i y_i) - sum over both arrow directions."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    n = len(x)
    total = 2 * sum(a * b for a, b in zip(x, y))
    total -= sum(x[i] * y[i + 1] + x[i + 1] * y[i] for i in range(n - 1))
    return total


def quad(x) -> int:
    return bilinear(x, x)


@cache
def ext1_dim(m: Representation, n: Representation) -> int:
    value = hom_dim(m, n) + hom_dim(n, m) - bilinear(m.dims, n.dims)
    if value < 0:
        raise ArithmeticError(
            f"negative Ext^1 dimension {value}; dims {m.dims} vs {n.dims}"
        )
    return value


def is_brick(m: Representation) -> bool:
    return hom_dim(m, m) == 1


def is_semibrick(reps) -> bool:
    reps = list(reps)
    if not all(is_brick(m) for m in reps):
        return False
    for i, m in enumerate(reps):
        for j, other in enumerate(reps):
            if i != j and hom_dim(m, other) != 0:
                return False
    return True


def path_action_is_zero(rep: Representation, path) -> bool:
    """Whether a nonempty composable arrow path acts as zero: at once when
    one of its arrows has a zero map (read off ``rep.mapped``), otherwise by
    multiplying the maps."""
    path = list(path)
    if not path:
        raise ValueError("need a nonempty path")
    for prev, nxt in zip(path, path[1:]):
        if arrow_target(prev) != arrow_source(nxt):
            raise ValueError(
                f"path not composable: {arrow_name(prev)} then {arrow_name(nxt)}"
            )
    maps = [rep.map(a) for a in path]  # raises on an arrow outside the quiver
    if any(not rep.mapped >> _arrow_index(a) & 1 for a in path):
        return True
    total = maps[0]
    current = arrow_source(path[0])
    for a, m in zip(path[1:], maps[1:]):
        total = linalg.matmul(m, total, rep.dim(current))
    return linalg.is_zero(total)


def _small_dims(m: Representation) -> bool:
    return all(d <= 1 for d in m.dims)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Isomorphism test: ``True`` on equal representations, whatever their
    dimensions (the package's one equality test for it); otherwise only for
    0/1-dimensional ones, and others raise ``ValueError``.

    With scalar vertex maps, an isomorphism exists exactly when, at every
    support vertex, some hom-basis element is nonzero: a rational combination
    avoiding finitely many hyperplanes is then invertible everywhere.
    """
    if m == n:
        return True
    if m.dims != n.dims:
        return False
    if not (_small_dims(m) and _small_dims(n)):
        raise ValueError("isomorphism test only supports 0/1 dimension vectors")
    basis = hom_basis(m, n)
    for v in range(1, m.n + 1):
        if m.dim(v) == 0:
            continue
        if not any(b.mat(v)[0][0] != 0 for b in basis):
            return False
    return True
