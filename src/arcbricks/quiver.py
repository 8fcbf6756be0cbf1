"""Representations of the doubled type-A quiver over exact rationals.

Vertices are ``v_1 .. v_n``; for each ``1 <= i <= n-1`` there is a direct
arrow ``a_i : v_i -> v_{i+1}`` and an inverse arrow ``a_i^- : v_{i+1} -> v_i``.
An arrow is the pair ``(i, sign)`` with sign ``+1`` (direct) or ``-1``
(inverse).  A representation stores one matrix per arrow, acting on column
vectors, and is admissible when the mesh relation

    (go right then back) - (go left then back) = 0

holds at every vertex.  Arc modules are the 0/1-dimensional string
representations read off an arc: below an interior point means the direct
arrow carries the identity, above means the inverse one does.

Hom spaces are computed by solving the commuting-square equations exactly;
Ext^1 comes from the symmetric Euler-type form and is never computed any
other way here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .arcs import Arc
from .linalg import Matrix

Arrow = tuple[int, int]  # (index i, sign +1/-1)


def arrows(n: int) -> list[Arrow]:
    return [(i, sign) for i in range(1, n) for sign in (1, -1)]


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
    if not body.startswith("a") or not body[1:].isdigit():
        raise ValueError(f"bad arrow name {name!r}")
    return (int(body[1:]), sign)


@dataclass(frozen=True)
class Representation:
    n: int
    dims: tuple[int, ...]
    maps: tuple[Matrix, ...]  # indexed like arrows(n)

    def __post_init__(self):
        if len(self.dims) != self.n or any(d < 0 for d in self.dims):
            raise ValueError("dims must be n nonnegative integers")
        arrs = arrows(self.n)
        if len(self.maps) != len(arrs):
            raise ValueError("need one matrix per arrow")
        for a, m in zip(arrs, self.maps):
            r, c = linalg.shape(m, self.dim(arrow_source(a)))
            if (r, c) != (self.dim(arrow_target(a)), self.dim(arrow_source(a))):
                raise ValueError(
                    f"matrix for {arrow_name(a)} has shape {(r, c)}, expected "
                    f"{(self.dim(arrow_target(a)), self.dim(arrow_source(a)))}"
                )

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    def map(self, a: Arrow) -> Matrix:
        i, sign = a
        if not 1 <= i < self.n:
            raise ValueError(f"arrow {arrow_name(a)} outside the rank-{self.n} quiver")
        return self.maps[2 * (i - 1) + (0 if sign > 0 else 1)]

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "arrows": {
                arrow_name(a): [[str(x) for x in row] for row in m]
                for a, m in zip(arrows(self.n), self.maps)
                if not linalg.is_zero(m)
            },
        }


def representation_from_json(data: dict, n: int) -> Representation:
    dims = tuple(data["dims"])
    named = {name: m for name, m in data.get("arrows", {}).items()}
    maps = []
    for a in arrows(n):
        raw = named.get(arrow_name(a))
        if raw is None:
            maps.append(linalg.zeros(dims[arrow_target(a) - 1], dims[arrow_source(a) - 1]))
        else:
            maps.append(tuple(tuple(Fraction(x) for x in row) for row in raw))
    return Representation(n, dims, tuple(maps))


def make_representation(n: int, dims, named_maps: dict[Arrow, Matrix]) -> Representation:
    """Build a representation from the nonzero maps; the rest are zero."""
    dims = tuple(dims)
    maps = []
    for a in arrows(n):
        m = named_maps.get(a)
        if m is None:
            m = linalg.zeros(dims[arrow_target(a) - 1], dims[arrow_source(a) - 1])
        maps.append(m)
    return Representation(n, dims, tuple(maps))


def zero_representation(n: int) -> Representation:
    return make_representation(n, (0,) * n, {})


def simple_representation(n: int, v: int) -> Representation:
    dims = tuple(1 if i == v else 0 for i in range(1, n + 1))
    return make_representation(n, dims, {})


@cache
def arc_module(arc: Arc, n: int) -> Representation:
    """The string representation of an arc: support v_p .. v_{q-1}, identity
    on the direct arrow a_{m-1} under each below point m and on the inverse
    arrow a_{m-1}^- under each above point."""
    if arc.right > n + 1:
        raise ValueError(f"{arc} escapes the point range 1..{n + 1}")
    p, q = arc.left, arc.right
    dims = tuple(1 if p <= v <= q - 1 else 0 for v in range(1, n + 1))
    named = {}
    for m in arc.interior:
        sign = 1 if m not in arc.above else -1
        named[(m - 1, sign)] = linalg.identity(1)
    return make_representation(n, dims, named)


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
        if not linalg.is_zero(linalg.matsub(right, left)):
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
        for a in arrows(self.source.n):
            s, t = arrow_source(a), arrow_target(a)
            lhs = linalg.matmul(self.mat(t), self.source.map(a), self.source.dim(s))
            rhs = linalg.matmul(self.target.map(a), self.mat(s), self.source.dim(s))
            if not linalg.is_zero(linalg.matsub(lhs, rhs)):
                return False
        return True

    def is_injective(self) -> bool:
        return all(
            linalg.rank(self.mat(v)) == self.source.dim(v)
            for v in range(1, self.source.n + 1)
        )

    def is_surjective(self) -> bool:
        return all(
            linalg.rank(self.mat(v)) == self.target.dim(v)
            for v in range(1, self.source.n + 1)
        )


def zero_morphism(source: Representation, target: Representation) -> Morphism:
    mats = tuple(
        linalg.zeros(target.dim(v), source.dim(v)) for v in range(1, source.n + 1)
    )
    return Morphism(source, target, mats)


def identity_morphism(rep: Representation) -> Morphism:
    return Morphism(rep, rep, tuple(linalg.identity(d) for d in rep.dims))


@cache
def hom_basis(source: Representation, target: Representation) -> tuple[Morphism, ...]:
    """Deterministic echelon basis of the space of morphisms.

    Unknowns are the entries of the per-vertex matrices, ordered by
    (vertex, row, column); one linear equation per arrow and entry of the
    commuting square.  Equations are assembled sparsely, from the nonzero
    entries of the two arrow matrices only, and equations that are
    identically zero are never written.  The reduced-echelon kernel basis
    fixes the output.
    """
    sdims, tdims = source.dims, target.dims
    offsets = [0]
    for ds, dt in zip(sdims, tdims):
        offsets.append(offsets[-1] + dt * ds)
    total = offsets[-1]

    equations = []
    for a, ms, mt in zip(arrows(source.n), source.maps, target.maps):
        s, t = arrow_source(a) - 1, arrow_target(a) - 1
        rows_t, cols_s = tdims[t], sdims[s]
        cols_t, rows_s = sdims[t], tdims[s]
        if rows_t * cols_s == 0 or cols_t == rows_s == 0:
            continue
        # (phi_t @ ms - mt @ phi_s)[r][c] = 0: phi_t[r][k] has coefficient
        # ms[k][c] and phi_s[k][c] has coefficient -mt[r][k].
        ms_cols = [
            [(k, ms[k][c]) for k in range(cols_t) if ms[k][c]] for c in range(cols_s)
        ]
        mt_rows = [[(k, -x) for k, x in enumerate(row) if x] for row in mt]
        for r in range(rows_t):
            for c in range(cols_s):
                if not (ms_cols[c] or mt_rows[r]):
                    continue
                row = [0] * total
                for k, x in ms_cols[c]:
                    row[offsets[t] + r * cols_t + k] = x
                for k, x in mt_rows[r]:
                    row[offsets[s] + k * cols_s + c] = x
                equations.append(row)
    basis = []
    for vec in linalg.nullspace(tuple(equations), ncols=total):
        mats = tuple(
            tuple(
                tuple(vec[base + r * cols_v + c] for c in range(cols_v))
                for r in range(rows_v)
            )
            for base, rows_v, cols_v in zip(offsets, tdims, sdims)
        )
        basis.append(Morphism(source, target, mats))
    return tuple(basis)


def hom_dim(source: Representation, target: Representation) -> int:
    return len(hom_basis(source, target))


def combine_morphisms(basis, coeffs) -> Morphism:
    first = basis[0]
    n = first.source.n
    mats = []
    for v in range(1, n + 1):
        rows_v = first.target.dim(v)
        cols_v = first.source.dim(v)
        mats.append(
            tuple(
                tuple(
                    sum((c * b.mat(v)[r][s] for c, b in zip(coeffs, basis)), linalg.ZERO)
                    for s in range(cols_v)
                )
                for r in range(rows_v)
            )
        )
    return Morphism(first.source, first.target, tuple(mats))


def morphism_parts(f: Morphism) -> tuple[Representation, Representation, Representation]:
    """Vertex-wise kernel, image and cokernel with their induced arrow maps."""
    n = f.source.n
    ker_cols, im_cols, cok_rows = {}, {}, {}
    for v in range(1, n + 1):
        m = f.mat(v)
        ker_cols[v] = linalg.transpose(
            tuple(linalg.nullspace(m, ncols=f.source.dim(v))), ncols=f.source.dim(v)
        )
        im_cols[v] = linalg.column_space_basis(m)
        mt = linalg.transpose(m, ncols=f.source.dim(v))
        cok_rows[v] = tuple(linalg.nullspace(mt, ncols=f.target.dim(v)))

    def dims_of(cols, kind):
        if kind == "rows":
            return tuple(len(cols[v]) for v in range(1, n + 1))
        return tuple(len(cols[v][0]) if cols[v] else 0 for v in range(1, n + 1))

    ker_dims = dims_of(ker_cols, "cols")
    im_dims = dims_of(im_cols, "cols")
    cok_dims = dims_of(cok_rows, "rows")

    ker_maps, im_maps, cok_maps = {}, {}, {}
    for a in arrows(n):
        s, t = arrow_source(a), arrow_target(a)
        ker_maps[a] = linalg.solve_matrix(
            ker_cols[t],
            linalg.matmul(f.source.map(a), ker_cols[s], b_ncols=ker_dims[s - 1]),
            a_cols=ker_dims[t - 1],
        )
        im_maps[a] = linalg.solve_matrix(
            im_cols[t],
            linalg.matmul(f.target.map(a), im_cols[s], b_ncols=im_dims[s - 1]),
            a_cols=im_dims[t - 1],
        )
        # Right inverse of the projection rows at the source vertex.
        proj_s = cok_rows[s]
        if cok_dims[s - 1] and f.target.dim(s):
            rinv = linalg.solve_matrix(
                proj_s, linalg.identity(cok_dims[s - 1]), a_cols=f.target.dim(s)
            )
        else:
            rinv = linalg.zeros(f.target.dim(s), cok_dims[s - 1])
        cok_maps[a] = linalg.matmul(
            linalg.matmul(cok_rows[t], f.target.map(a), f.target.dim(s)),
            rinv,
            f.target.dim(s),
        )
    kernel = make_representation(n, ker_dims, ker_maps)
    image = make_representation(n, im_dims, im_maps)
    cokernel = make_representation(n, cok_dims, cok_maps)
    return kernel, image, cokernel


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


def path_action_is_zero(rep: Representation, path, at_vertex: int | None = None) -> bool:
    """Whether a composable arrow path acts as zero; an empty path is the
    idempotent at ``at_vertex`` and acts as the identity there."""
    path = list(path)
    if not path:
        if at_vertex is None:
            raise ValueError("empty path needs a vertex")
        return rep.dim(at_vertex) == 0
    for prev, nxt in zip(path, path[1:]):
        if arrow_target(prev) != arrow_source(nxt):
            raise ValueError(
                f"path not composable: {arrow_name(prev)} then {arrow_name(nxt)}"
            )
    total = rep.map(path[0])
    current = arrow_source(path[0])
    for a in path[1:]:
        total = linalg.matmul(rep.map(a), total, rep.dim(current))
    return linalg.is_zero(total)


def _small_dims(m: Representation) -> bool:
    return all(d <= 1 for d in m.dims)


def is_isomorphic(m: Representation, n: Representation) -> bool:
    """Isomorphism test for 0/1-dimensional representations.

    With scalar vertex maps, an isomorphism exists exactly when, at every
    support vertex, some hom-basis element is nonzero: a rational combination
    avoiding finitely many hyperplanes is then invertible everywhere.
    """
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
