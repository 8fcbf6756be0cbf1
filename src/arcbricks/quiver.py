"""Representations of the doubled type-A quiver over exact rationals.

Vertices are ``v_1 .. v_n``; for each ``1 <= i <= n-1`` there is a direct
arrow ``a_i : v_i -> v_{i+1}`` and an inverse arrow ``a_i^- : v_{i+1} -> v_i``.
An arrow is the pair ``(i, sign)`` with sign ``+1`` (direct) or ``-1``
(inverse); ``check_arrow`` is the one test of that form, wherever an arrow
is read: the ``Representation`` constructor, ``map`` and ``check_path``,
the one test that a path composes, for ``path_action_is_zero`` and
``quotients.MonomialIdealSpec``.  A map is a matrix acting on column
vectors.  A representation is admissible when the mesh relation

    (go right then back) - (go left then back) = 0

holds at every vertex.  Arc modules are the 0/1-dimensional string
representations read off an arc: below an interior point means the direct
arrow carries the identity, above means the inverse one does.

``Representation(dims, maps)`` is the one constructor and validator.
The dims fix the rank: ``n`` is ``len(dims)``, a property, not a field.
It takes nonnegative ``int`` dims and ``int`` or ``Fraction`` entries, and
stores each integral entry as an ``int`` (``integral`` is then a type test);
a ``bool`` is neither, so ``True`` never stands in for 1 in a stored module.
``maps`` names the nonzero maps, as a dict or ``(arrow, matrix)`` pairs;
it is stored as the nonzero pairs in ``arrows(n)`` order, so equal modules
have equal fields and hashes, and ``map(a)`` is zero on an arrow left out.
A ``Morphism`` stores its vertex matrices as tuples, whatever it is given,
and refuses modules of different rank, a matrix count other than n and a
block that is not target.dim(v) x source.dim(v).
``dim(v)`` and ``mat(v)`` are 1-based and refuse a vertex outside 1..n.

Hom spaces are computed from the commuting-square equations, which
``_hom_system`` assembles as sparse integer rows.  It is the one place
those equations are written: ``hom_basis`` takes their ``linalg.kernel``,
``hom_dim`` their ``linalg.rank``, and ``are_independent_vertex_maps``
sums them over the unknowns that each map, the identity on a set of
vertices and zero elsewhere, sets to 1.  Ext^1 comes from the symmetric
Euler-type form and is never computed any other way here.
``morphism_parts`` gives the kernel and cokernel of a morphism; their arrow
maps are read off the canonical kernel bases of ``linalg.nullspace``, with
no linear solve: the kernel's on the arrows the source maps, the
cokernel's on those the target maps, each only where both of its vertex
spaces are nonzero.  A map is injective when its kernel is zero.
``is_isomorphic`` returns ``True`` on equal representations first; the
package's own checks compare modules with ``==``.

Six functions are cached: ``hom_basis``, ``hom_dim`` and ``ext1_dim`` on
the pair of representations and ``morphism_parts`` on the morphism
(``@cache``); the private ``_vertex_parts`` on a vertex matrix and its
shape (``@cache``), so each distinct vertex matrix is eliminated once for
its kernel and cokernel bases, not once per morphism; and ``arc_module``
on ``(arc, n)``, in a typed cache, so a rank that ``arcs.check_arc``
refuses is rejected, never answered for the equal ``int``.  ``hom_dim`` is
the number of unknowns minus the forward-pass rank of the system
(rank-nullity, ``linalg.rank``), so it builds no ``Morphism``, keeps no
basis and skips the back-reduction.  A ``Representation`` computes its
hash once and keeps it, so these keys hash their ``Fraction`` entries once
per object, not once per lookup.  It also builds, once and on first use,
three arrow bitmasks (``mapped``: a nonzero map; ``tails`` and ``heads``:
the arrow's source, respectively target, vertex in the support) and its
arrow table, which holds per arrow the source and target indices, the
nonzero entries of each column and the negated nonzero entries of each row.
All four are read off the stored nonzero maps and ``dims``, so an arrow
without a map costs no zero matrix, and a module's matrices are scanned
once, not once per pair it takes part in.  The hash, the masks, the table
and the ``integral`` flag are ``lazy.lazy_attribute``s, kept on the
instance after their first read.
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
from .arcs import Arc, check_arc
from .lazy import lazy_attribute
from .linalg import Matrix
from .permutations import one_based

Arrow = tuple[int, int]  # (index i, sign +1/-1)


def arrows(n: int) -> list[Arrow]:
    return [(i, sign) for i in range(1, n) for sign in (1, -1)]


def check_arrow(a, n: int | None = None) -> None:
    """Raise ``ValueError`` unless ``a`` is an arrow, a tuple ``(i, 1)`` or
    ``(i, -1)`` with an ``int`` i >= 1, and i < n when a rank n is given;
    the message names the pair as given."""
    if not (
        type(a) is tuple
        and len(a) == 2
        and type(a[0]) is type(a[1]) is int
        and a[0] >= 1
        and a[1] in (1, -1)
    ):
        raise ValueError(f"{a!r} is not an arrow (i, 1) or (i, -1) with i >= 1")
    if n is not None and a[0] >= n:
        raise ValueError(f"arrow {arrow_name(a)} outside the rank-{n} quiver")


def check_path(path, n: int | None = None) -> None:
    """Raise ``ValueError`` unless ``path`` is a nonempty sequence of arrows
    (``check_arrow``, with the rank n when given) in which each arrow ends
    where the next one starts; the message names the path."""
    if not path:
        raise ValueError("a path must be nonempty")
    for a in path:
        check_arrow(a, n)
    for prev, nxt in zip(path, path[1:]):
        if arrow_target(prev) != arrow_source(nxt):
            names = " ".join(map(arrow_name, path))
            raise ValueError(f"path {names} is not composable")


def _support_mask(direct_dims, inverse_dims) -> int:
    """Bitmask over ``arrows(n)``: bit 2i-2 (a_i) when the i-th of
    ``direct_dims`` is nonzero and bit 2i-1 (a_i^-) when the i-th of
    ``inverse_dims`` is; the shorter of the two fixes the length."""
    pairs = enumerate(zip(direct_dims, inverse_dims))
    return sum((bool(d) | bool(e) << 1) << 2 * i for i, (d, e) in pairs)


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


def _entry(x: int | Fraction) -> int | Fraction:
    """A map entry as stored: an ``int`` when it is integral, so elimination
    needs no scaling for it; a type but ``int`` or ``Fraction`` raises."""
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    if type(x) is not int:
        raise TypeError(x)
    return x


@dataclass(frozen=True)
class Representation:
    dims: tuple[int, ...]
    maps: tuple[tuple[Arrow, Matrix], ...]  # nonzero maps, in arrows(n) order

    def __post_init__(self):
        dims = tuple(self.dims)
        if any(type(d) is not int or d < 0 for d in dims):
            raise ValueError(f"dims must be nonnegative integers, got {dims}")
        object.__setattr__(self, "dims", dims)
        given = tuple(self.maps.items() if isinstance(self.maps, dict) else self.maps)
        named = dict(given)
        # before any key is matched, so a pair that only equals an arrow,
        # such as (True, 1), is refused rather than stored as that arrow
        for a, _ in given:
            check_arrow(a, self.n)
        if len(named) != len(given):
            raise ValueError("an arrow is given two maps")
        pairs = []
        for a in sorted(named, key=_arrow_index):
            try:
                m = tuple(tuple(map(_entry, row)) for row in named[a])
            except TypeError:
                what = f"matrix for {arrow_name(a)}"
                raise ValueError(f"{what} has an entry not int or Fraction") from None
            rows, cols = dims[arrow_target(a) - 1], dims[arrow_source(a) - 1]
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ValueError(f"matrix for {arrow_name(a)} is not {rows} x {cols}")
            if not linalg.is_zero(m):
                pairs.append((a, m))
        object.__setattr__(self, "maps", tuple(pairs))

    @property
    def n(self) -> int:
        """The rank: one vertex per dimension."""
        return len(self.dims)

    @lazy_attribute
    def _hash(self) -> int:
        return hash((self.dims, self.maps))

    def __hash__(self) -> int:
        """The dataclass field hash, computed on first use and kept; the
        fields are frozen, so it cannot go stale."""
        return self._hash

    @lazy_attribute
    def integral(self) -> bool:
        """Whether every map entry is an integer: the constructor stores each
        integral one as an ``int``, so whether no entry is a ``Fraction``."""
        entries = (x for _, m in self.maps for row in m for x in row)
        return Fraction not in map(type, entries)

    @lazy_attribute
    def mapped(self) -> int:
        """Bitmask of the arrows with a nonzero map: bit j for arrow j of
        ``arrows(n)``."""
        return sum(1 << _arrow_index(a) for a, _ in self.maps)

    @lazy_attribute
    def tails(self) -> int:
        """Bitmask of the arrows whose source vertex is in the support:
        a_i starts at v_i and a_i^- at v_{i+1}."""
        return _support_mask(self.dims, self.dims[1:])

    @lazy_attribute
    def heads(self) -> int:
        """Bitmask of the arrows whose target vertex is in the support:
        a_i ends at v_{i+1} and a_i^- at v_i."""
        return _support_mask(self.dims[1:], self.dims)

    @lazy_attribute
    def arrow_table(self) -> tuple[tuple[int, int, tuple, tuple], ...]:
        """Per arrow, indexed like ``arrows(n)``: the 0-based source and
        target vertices, each column's nonzero entries as ``(row, x)`` and
        each row's negated nonzero entries as ``(column, -x)``, with the
        stored entries' types.  Built from the stored maps alone: an arrow
        with none has an empty tuple per column and per row."""
        dims = self.dims
        table = []
        for a in arrows(self.n):
            s, t = arrow_source(a) - 1, arrow_target(a) - 1
            table.append((s, t, ((),) * dims[s], ((),) * dims[t]))
        for a, m in self.maps:
            j = _arrow_index(a)
            s, t = table[j][:2]
            cols = tuple(
                tuple((k, row[c]) for k, row in enumerate(m) if row[c])
                for c in range(dims[s])
            )
            rows = tuple(tuple((k, -x) for k, x in enumerate(row) if x) for row in m)
            table[j] = (s, t, cols, rows)
        return tuple(table)

    def dim(self, v: int) -> int:
        """The dimension at vertex v in 1..n; any other vertex raises
        ``IndexError``."""
        return one_based(self.dims, v, "vertex")

    def map(self, a: Arrow) -> Matrix:
        """The map on arrow ``a``: its stored matrix, or zero on an arrow
        of the quiver that carries none (``check_arrow`` refuses the rest,
        first, so a pair that only equals an arrow never reads its map)."""
        check_arrow(a, self.n)
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
    module of the equal ``int`` rank; ``arcs.check_arc`` rejects it here, as
    it does a rank below 1 and an arc off the points 1..n+1."""
    check_arc(arc, n)
    p, q = arc.left, arc.right
    dims = tuple(1 if p <= v <= q - 1 else 0 for v in range(1, n + 1))
    named = {}
    for m in arc.interior:
        sign = 1 if m not in arc.above else -1
        named[(m - 1, sign)] = linalg.identity(1)
    return Representation(dims, named)


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

    def __post_init__(self):
        if self.source.n != self.target.n:
            raise ValueError("rank mismatch")
        mats = tuple(tuple(map(tuple, m)) for m in self.mats)
        if len(mats) != self.source.n:
            raise ValueError(f"need {self.source.n} vertex matrices, got {len(mats)}")
        for v, (m, rows, cols) in enumerate(
            zip(mats, self.target.dims, self.source.dims), start=1
        ):
            if len(m) != rows or rows and {*map(len, m)} != {cols}:
                raise ValueError(f"matrix at vertex {v} is not {rows} x {cols}")
        object.__setattr__(self, "mats", mats)

    def mat(self, v: int) -> Matrix:
        """The matrix at vertex v in 1..n; any other vertex raises
        ``IndexError``."""
        return one_based(self.mats, v, "vertex")


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


def are_independent_vertex_maps(
    source: Representation, target: Representation, supports
) -> bool:
    """Whether the maps from source to target that are the identity on each
    vertex of one support and zero elsewhere are independent morphisms.

    Such a map sets one unknown of ``_hom_system`` to 1 per vertex of its
    support and every other unknown to 0.  The maps pass when every vertex
    is in 1..n and a 1x1 block, the supports are nonempty (an empty one
    gives the zero map) and pairwise disjoint, and every equation sums to 0
    over each map's unknowns.  The system is assembled once for all the
    maps, and not at all when there are none."""
    supports = list(supports)
    if not supports:
        return True
    equations, offsets = _hom_system(source, target)
    n, covered = source.n, set()
    for vertices in map(set, supports):
        if not vertices or not covered.isdisjoint(vertices):
            return False
        if any(not 1 <= v <= n or offsets[v] - offsets[v - 1] != 1 for v in vertices):
            return False
        covered |= vertices
        ones = {offsets[v - 1] for v in vertices}
        if any(sum(x for j, x in row.items() if j in ones) for row in equations):
            return False
    return True


def _dot(x, y) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), linalg.ZERO)


def _free_coordinates(basis) -> list[int]:
    """Where each canonical kernel basis vector is 1 and the others are 0:
    its last nonzero entry (see ``linalg.nullspace``)."""
    return [max(j for j, x in enumerate(vec) if x) for vec in basis]


@cache
def _vertex_parts(m: Matrix, rows: int, cols: int) -> tuple[tuple, ...]:
    """The canonical bases of ker(m) and ker(m^T) for a ``rows x cols``
    vertex matrix, each with its free coordinates.  The shape is part of the
    key, since a matrix with no rows does not carry its column count.  Few
    distinct vertex matrices occur, so each is eliminated once, not once per
    morphism that has it."""
    ker = tuple(linalg.nullspace(m, ncols=cols))
    cok = tuple(linalg.nullspace(linalg.transpose(m, ncols=cols), ncols=rows))
    return ker, tuple(_free_coordinates(ker)), cok, tuple(_free_coordinates(cok))


@cache
def morphism_parts(f: Morphism) -> tuple[Representation, Representation]:
    """Kernel and cokernel with their induced arrow maps, computed once per
    morphism and with no linear solve.

    ``K_v`` has the canonical basis of ker(f_v) as columns and ``C_v`` that
    of ker(f_v^T) as rows; each is the identity at its free coordinates
    (``_vertex_parts``).  On ``a : s -> t``, with X_a and Y_a the source's
    and the target's maps, the kernel map is ``X_a K_s`` read at the rows of
    K_t's free coordinates.  The unit columns at C_s's free coordinates are
    a right inverse of C_s, so the cokernel map is ``C_t Y_a`` read at those
    columns; any right inverse gives the same map, since ``C_t Y_a`` kills
    the image of f_s.  So the kernel map is zero where the source stores no
    map, the cokernel map where the target stores none, and each is zero
    where its source or target space is; only the others are computed.
    """
    parts = [
        _vertex_parts(m, rows, cols)
        for m, rows, cols in zip(f.mats, f.target.dims, f.source.dims)
    ]
    ker_maps, cok_maps = {}, {}
    for a, ms in f.source.maps:
        s, t = arrow_source(a) - 1, arrow_target(a) - 1
        ker_s, ker_free_t = parts[s][0], parts[t][1]
        if ker_s and ker_free_t:
            ker_maps[a] = tuple(
                tuple(_dot(ms[p], k) for k in ker_s) for p in ker_free_t
            )
    for a, mt in f.target.maps:
        s, t = arrow_source(a) - 1, arrow_target(a) - 1
        cok_free_s, cok_t = parts[s][3], parts[t][2]
        if cok_free_s and cok_t:
            cok_maps[a] = tuple(
                tuple(_dot(c, [row[q] for row in mt]) for q in cok_free_s)
                for c in cok_t
            )
    kernel = Representation([len(part[0]) for part in parts], ker_maps)
    cokernel = Representation([len(part[2]) for part in parts], cok_maps)
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
    check_path(path, rep.n)
    if any(not rep.mapped >> _arrow_index(a) & 1 for a in path):
        return True
    # every arrow is mapped, so every vertex on the path has a nonzero
    # dimension and each product has rows
    total = rep.map(path[0])
    for a in path[1:]:
        total = linalg.matmul(rep.map(a), total)
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
