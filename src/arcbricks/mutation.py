"""Mutation of colored diagrams and of two-term collections.

``mutate_dad`` applies ``arcs.half_twist`` at a position of a colored
diagram (a green pivot mutates left, a red one right, so the position fixes
the direction) and must land on the diagram of ``s_i w``; that equality is
the package's central cross-check, not an assumption of the implementation.
``mutate_smc_collection`` is the independent module-level oracle: it
mutates the image under ``psi`` using only hom/ext computations, extension
middles glued along one arrow and kernel/cokernel constructions, never the
half twist; a glued middle stands only when the cokernel of its one map
from the pivot equals the neighbor.
Each non-pivot member goes through ``_mutate_member``, which is ``@cache``d
on ``(module, shift, pivot)``: a member that recurs across collections is
solved once, by the same route.
"""

from __future__ import annotations

from functools import cache

from .arcs import (
    GREEN,
    RED,
    Arc,
    ColoredDiagram,
    arc_table,
    double_diagram,
    half_twist,
)
from .linalg import echelon, identity
from .permutations import Permutation, all_permutations, left_multiply_simple, one_based
from .quiver import (
    Representation,
    arc_module,
    ext1_dim,
    hom_basis,
    hom_dim,
    is_semibrick,
    morphism_parts,
)
from .strings import graph_map_count

ShiftedModule = tuple[Representation, int]
TwoTermCollection = tuple[ShiftedModule, ...]
SHIFT = {GREEN: 0, RED: 1}  # the shift of an arc module in psi, by the arc's color


def is_shift(shift) -> bool:  # the int 0 or 1, and neither False nor 1.0
    return type(shift) is int and shift in (0, 1)


class MutationError(ValueError):
    """A mutation failed: a shift precondition, a glued module that is not
    the extension middle, or an Ext or Hom dimension other than 0 or 1."""


def mutate_dad(diagram: ColoredDiagram, i: int) -> ColoredDiagram:
    """Mutate at position i, read by ``one_based``: the pivot arc keeps its
    place and flips color, the neighbors are half-twisted around it and
    recolored by the new adjacent comparisons.  The pivot's color fixes the
    direction: a green pivot mutates left and a red one right."""
    pivot_color = diagram.color(i)
    direction = "left" if pivot_color == GREEN else "right"
    w = diagram.w
    pivot = diagram.arc(i)
    entries = list(diagram.entries)
    entries[i - 1] = (pivot, RED if pivot_color == GREEN else GREEN)
    if i - 1 >= 1:
        new_arc = half_twist(pivot, diagram.arc(i - 1), twist=direction)
        entries[i - 2] = (new_arc, GREEN if w[i - 1] > w[i + 1] else RED)
    if i < diagram.n:
        new_arc = half_twist(pivot, diagram.arc(i + 1), twist=direction)
        entries[i] = (new_arc, GREEN if w[i] > w[i + 2] else RED)
    return ColoredDiagram.from_entries(entries)


def psi(diagram: ColoredDiagram) -> TwoTermCollection:
    """Arc modules of the diagram: green members at shift 0, red at shift 1."""
    n = diagram.n
    return tuple(
        (arc_module(arc, n), SHIFT[color])
        for arc, color in diagram.entries
    )


def smc_axiom_check(members: TwoTermCollection) -> bool:
    """The collection axioms for a semibrick pair (Asai, "Semibricks", IMRN
    2020, arXiv:1610.05860), with the basis proxy for generation.

    The members fix the rank n: n modules of rank n, each at the ``int``
    shift 0 (top) or 1 (bottom); an empty collection has no rank and fails.
    sm1, sm2: tops and bottoms are each a semibrick.  sm3: every top X and
    bottom Y have Hom(X, Y[1][k]) = 0 for k = -1, 0 (Koenig-Yang), that is
    Hom(X, Y) = Ext^1(X, Y) = 0; such a Hom from a bottom to a top is
    automatically zero.
    sm4 proxy: the signed dimension vectors (+ at shift 0, - at shift 1) form
    a Z-basis of Z^n.  The proxy is necessary, not known to be sufficient.
    """
    members = tuple(members)
    n = len(members)
    tops = [m for m, shift in members if shift == 0]
    bottoms = [m for m, shift in members if shift == 1]
    if not members or not all(is_shift(s) and m.n == n for m, s in members):
        return False
    if not (is_semibrick(tops) and is_semibrick(bottoms)):
        return False
    if any(hom_dim(x, y) or ext1_dim(x, y) for x in tops for y in bottoms):
        return False
    # The signed matrix M is unimodular iff each pivot of [M | I] in the
    # first n columns is +-1.  After back-reduction the pivot row of column
    # p < n is a multiple l * (e_p | row p of M^-1) of a row of [I | M^-1].
    # Every input row has a 1 in its identity column and every row echelon
    # produces is divided by its content, so every pivot row is primitive,
    # and |l| is the lcm of the denominators of row p of M^-1: the pivot is
    # +-1 exactly when that row of the inverse is integral.  A singular M
    # leaves some column j < n without a pivot.
    pivots = echelon(
        {j: d if c == 0 else -d for j, d in enumerate(m.dims) if d} | {n + k: 1}
        for k, (m, c) in enumerate(members)
    )
    return all(abs(pivots.get(j, {}).get(j, 0)) == 1 for j in range(n))


@cache
def _graph_map_out_masks(n: int, count) -> tuple[dict[Arc, int], dict[Arc, int]]:
    """``arc_table(n)``'s arc bits and, per arc on 1..n+1, its out-mask: the
    bits of the arcs it has a graph map to, by ``count``.

    Keyed on the counting function as well as n, so a table built with one
    ``graph_map_count`` is never read for another."""
    arcs, bit, _ = arc_table(n)
    return bit, {a: sum(bit[b] for b in arcs if count(a, b) != 0) for a in arcs}


def smc_leq(lower: ColoredDiagram, upper: ColoredDiagram) -> bool:
    """Order criterion: no graph map from a green arc of the lower diagram
    to a red arc of the upper one.  Must agree with the weak order."""
    if lower.n != upper.n:
        raise ValueError("rank mismatch")
    bit, out = _graph_map_out_masks(lower.n, graph_map_count)
    reach = 0
    for g in lower.green_arcs():
        reach |= out[g]
    return not any(reach & bit[r] for r in upper.red_arcs())


def _extension_middle(
    pivot: Representation, neighbor: Representation
) -> Representation:
    """The middle E of the nonsplit extension 0 -> pivot -> E -> neighbor -> 0.

    With disjoint, adjacent supports E is forced: the pivot is a submodule
    and the neighbor the quotient, so E carries both modules' maps, and the
    one arrow from the neighbor's boundary vertex into the pivot's carries a
    scalar that is nonzero (else E splits) and so rescales to 1; the
    supports are disjoint, so no arrow is given twice.  E meets the mesh
    relations: each 2-cycle through the two joining vertices passes through
    the arrow from the pivot into the neighbor, which is zero.  The glue is
    checked: Hom(pivot, E) is one map, with zero kernel and with cokernel
    equal to the neighbor, stored form for stored form.
    """
    n = pivot.n
    dims = tuple(p + q for p, q in zip(pivot.dims, neighbor.dims))
    support = [v for v in range(1, n + 1) if dims[v - 1]]
    v = next((u for u in support if pivot.dim(u) != pivot.dim(support[0])), None)
    if v is None or any(d > 1 for d in dims) or support != list(
        range(support[0], support[0] + len(support))
    ):
        raise MutationError(f"{pivot.dims} and {neighbor.dims} do not tile an interval")
    glue = ((v - 1, -1 if pivot.dim(v - 1) else 1), identity(1))
    middle = Representation(dims, (*pivot.maps, *neighbor.maps, glue))
    basis = hom_basis(pivot, middle)
    if len(basis) == 1:
        kernel, cokernel = morphism_parts(basis[0])
        if not any(kernel.dims) and cokernel == neighbor:
            return middle
    raise MutationError("the glued module is not the extension middle")


def mutate_smc_collection(members: TwoTermCollection, i: int) -> TwoTermCollection:
    """Module-level left mutation at position i, read by ``one_based``.

    Every member must sit at the ``int`` shift 0 or 1.  The pivot must sit
    at shift 0 and moves to shift 1; every other member is mutated against
    it by ``_mutate_member``.
    """
    members = tuple(members)
    pivot, pivot_shift = one_based(members, i, "position")
    for j, (_, shift) in enumerate(members, start=1):
        if not is_shift(shift):
            raise MutationError(f"position {j} has shift {shift}, need 0 or 1")
    if pivot_shift != 0:
        raise MutationError(f"member at position {i} sits at shift 1, need shift 0")
    return tuple(
        (pivot, 1) if j == i else _mutate_member(module, shift, pivot)
        for j, (module, shift) in enumerate(members, start=1)
    )


@cache
def _mutate_member(
    module: Representation, shift: int, pivot: Representation
) -> ShiftedModule:
    """One non-pivot member after left mutation at a shift-0 pivot, computed
    once per ``(module, shift, pivot)``.

    A shift-0 member with a one-dimensional extension space against the
    pivot is replaced by the extension middle; a shift-1 member with a
    one-dimensional hom space to the pivot is replaced by the cokernel
    (shift 0) of that map when it is injective (its kernel is 0), or by the
    kernel (shift 1) when it is surjective (its cokernel is 0), both read
    from one ``morphism_parts`` call.  Members with no approximation target
    are untouched.
    """
    if shift == 0:
        d = ext1_dim(module, pivot)
        if d == 0:
            return module, 0
        if d == 1:
            return _extension_middle(pivot, module), 0
        raise MutationError(f"extension space against the pivot has dimension {d}")
    d = hom_dim(module, pivot)
    if d == 0:
        return module, 1
    if d != 1:
        raise MutationError(f"hom space against the pivot has dimension {d}")
    kernel, cokernel = morphism_parts(hom_basis(module, pivot)[0])
    if not any(kernel.dims):
        return cokernel, 0
    if not any(cokernel.dims):
        return kernel, 1
    raise MutationError("approximation map is neither injective nor surjective")


def collections_match(x: TwoTermCollection, y: TwoTermCollection) -> bool:
    """Exact equality of the two collections: the same members in the same
    order, each with the same shift and the same stored module.  A
    ``Representation`` stores its nonzero maps in one canonical form, so a
    member that is only isomorphic to its target does not match."""
    return x == y


HASSE_CAP = 6


def hasse(n: int):
    """The left-mutation graph on all colored diagrams.

    Returns (diagrams, edges): diagrams sorted by their permutation word,
    and one edge (source_index, target_index, i) per green position i.
    """
    if n > HASSE_CAP:
        raise ValueError(f"n={n} exceeds the mutation-graph cap {HASSE_CAP}")
    perms = all_permutations(n)
    diagrams = [double_diagram(w) for w in perms]
    index = {w.word: k for k, w in enumerate(perms)}
    edges = []
    for k, diagram in enumerate(diagrams):
        for i in range(1, n + 1):
            if diagram.color(i) == GREEN:
                target = mutate_dad(diagram, i)
                edges.append((k, index[target.w.word], i))
    return diagrams, edges


def hasse_dot(n: int) -> str:
    """Deterministic DOT rendering of the mutation graph."""
    diagrams, edges = hasse(n)
    lines = ["digraph mutation {"]
    for k, diagram in enumerate(diagrams):
        lines.append(f'  w{k} [label="{diagram.w}"];')
    for src, dst, i in sorted(edges):
        lines.append(f'  w{src} -> w{dst} [label="mu{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_json(n: int) -> dict:
    diagrams, edges = hasse(n)
    return {
        "n": n,
        "vertices": [
            {
                "permutation": str(d.w),
                "arcs": [
                    {**arc.to_json(), "color": color, "shift": SHIFT[color]}
                    for arc, color in d.entries
                ],
            }
            for d in diagrams
        ],
        "edges": [
            {"source": src, "target": dst, "mutation": i}
            for src, dst, i in sorted(edges)
        ],
    }


def weak_order_hasse(n: int) -> tuple[list[Permutation], list[tuple[int, int, int]]]:
    """Cover digraph of the weak order: w -> s_i w at each descent i."""
    perms = all_permutations(n)
    index = {w.word: k for k, w in enumerate(perms)}
    edges = []
    for k, w in enumerate(perms):
        for i in range(1, n + 1):
            if w[i] > w[i + 1]:
                edges.append((k, index[left_multiply_simple(i, w).word], i))
    return perms, edges
