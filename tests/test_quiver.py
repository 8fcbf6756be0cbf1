import hashlib
import itertools
from fractions import Fraction

import pytest

from arcbricks import linalg
from arcbricks.arcs import Arc, double_diagram, enumerate_arcs, restrict_green
from arcbricks.permutations import all_permutations
from arcbricks.quiver import (
    Morphism,
    arc_module,
    arrows,
    bilinear,
    check_relations,
    combine_morphisms,
    ext1_dim,
    hom_basis,
    hom_dim,
    identity_morphism,
    is_brick,
    is_isomorphic,
    is_semibrick,
    make_representation,
    morphism_parts,
    parse_arrow,
    path_action_is_zero,
    quad,
    representation_from_json,
    simple_representation,
    zero_morphism,
    zero_representation,
)

A13U = Arc(1, 3, frozenset({2}))
A13D = Arc(1, 3)


def test_arrow_names():
    assert parse_arrow("a3") == (3, 1)
    assert parse_arrow("a3-") == (3, -1)
    with pytest.raises(ValueError):
        parse_arrow("b2")


def test_arc_module_worked_example():
    arc = Arc(1, 7, frozenset({4, 6}))
    rep = arc_module(arc, 7)
    assert rep.dims == (1, 1, 1, 1, 1, 1, 0)
    nonzero = {a for a in arrows(7) if not linalg.is_zero(rep.map(a))}
    assert nonzero == {(1, 1), (2, 1), (3, -1), (4, 1), (5, -1)}
    assert check_relations(rep)


def test_arc_module_simples_and_sides():
    for k in (1, 2, 3):
        assert arc_module(Arc(k, k + 1), 3) == simple_representation(3, k)
    rep = arc_module(A13U, 2)
    assert rep.dims == (1, 1)
    assert rep.map((1, -1)) == linalg.identity(1)
    assert linalg.is_zero(rep.map((1, 1)))


def test_all_arc_modules_satisfy_relations():
    for n in (2, 3, 4):
        for arc in enumerate_arcs(n):
            assert check_relations(arc_module(arc, n))


def test_check_relations_rejects_double_identity():
    rep = make_representation(
        2, (1, 1), {(1, 1): linalg.identity(1), (1, -1): linalg.identity(1)}
    )
    assert not check_relations(rep)
    assert check_relations(zero_representation(3))


def test_hom_dim_examples():
    assert hom_dim(arc_module(A13D, 2), arc_module(Arc(1, 2), 2)) == 1
    assert hom_dim(arc_module(Arc(1, 2), 2), arc_module(A13D, 2)) == 0
    for arc in enumerate_arcs(3):
        assert hom_dim(arc_module(arc, 3), arc_module(arc, 3)) == 1
    assert hom_dim(arc_module(Arc(1, 2), 3), arc_module(Arc(3, 4), 3)) == 0


def test_hom_basis_elements_are_morphisms():
    arcs = enumerate_arcs(2)
    for a, b in itertools.product(arcs, repeat=2):
        for f in hom_basis(arc_module(a, 2), arc_module(b, 2)):
            assert f.is_valid()


def test_morphism_parts_examples():
    s1 = arc_module(Arc(1, 2), 2)
    big = arc_module(A13U, 2)
    f = hom_basis(s1, big)[0]
    kernel, image, cokernel = morphism_parts(f)
    assert kernel.dims == (0, 0)
    assert image.dims == (1, 0)
    assert is_isomorphic(cokernel, simple_representation(2, 2))

    ident = identity_morphism(big)
    kernel, image, cokernel = morphism_parts(ident)
    assert kernel.dims == (0, 0) and cokernel.dims == (0, 0)
    assert is_isomorphic(image, big)

    zero = zero_morphism(s1, big)
    kernel, image, cokernel = morphism_parts(zero)
    assert is_isomorphic(kernel, s1)
    assert is_isomorphic(cokernel, big)


def test_morphism_parts_exactness():
    # rank-nullity at every vertex, over all hom bases at n=3
    arcs = enumerate_arcs(3)
    for a, b in itertools.product(arcs, repeat=2):
        for f in hom_basis(arc_module(a, 3), arc_module(b, 3)):
            kernel, image, cokernel = morphism_parts(f)
            for rep in (kernel, image, cokernel):
                assert check_relations(rep)
            for v in range(3):
                assert kernel.dims[v] + image.dims[v] == f.source.dims[v]
                assert image.dims[v] + cokernel.dims[v] == f.target.dims[v]


def test_bilinear_and_quad():
    assert bilinear((1, 0), (0, 1)) == -1
    assert quad((1, 1, 1, 1)) == 2
    assert quad((0, 0, 0)) == 0
    with pytest.raises(ValueError):
        bilinear((1, 0), (1, 0, 0))
    # closed form of the quadratic value
    for dims in itertools.product(range(3), repeat=3):
        boundary = dims[0] ** 2 + dims[-1] ** 2
        steps = sum((dims[i] - dims[i + 1]) ** 2 for i in range(2))
        assert quad(dims) == boundary + steps


def test_ext1_examples():
    assert ext1_dim(simple_representation(2, 1), simple_representation(2, 2)) == 1
    for n in (2, 3):
        for arc in enumerate_arcs(n):
            assert ext1_dim(arc_module(arc, n), arc_module(arc, n)) == 0
    assert ext1_dim(arc_module(Arc(1, 2), 3), arc_module(Arc(3, 4), 3)) == 0


def test_ext1_symmetry():
    arcs = enumerate_arcs(3)
    for a, b in itertools.combinations(arcs, 2):
        ma, mb = arc_module(a, 3), arc_module(b, 3)
        assert ext1_dim(ma, mb) == ext1_dim(mb, ma)


def test_brick_and_semibrick():
    for arc in enumerate_arcs(3):
        assert is_brick(arc_module(arc, 3))
    lazy = make_representation(2, (1, 1), {})
    assert not is_brick(lazy)  # two-dimensional endomorphism algebra
    for w in all_permutations(3):
        greens = restrict_green(double_diagram(w))
        assert is_semibrick([arc_module(a, 3) for a in greens])
    assert not is_semibrick(
        [arc_module(Arc(1, 2), 2), arc_module(A13D, 2)]
    )


def test_path_action_examples():
    rep = arc_module(Arc(1, 4), 3)
    assert not path_action_is_zero(rep, [(1, 1), (2, 1)])
    rep_up = arc_module(A13U, 2)
    assert path_action_is_zero(rep_up, [(1, 1), (1, -1)])
    assert not path_action_is_zero(rep_up, [], at_vertex=1)
    assert path_action_is_zero(rep_up, [], at_vertex=2) is False
    assert path_action_is_zero(simple_representation(3, 1), [], at_vertex=2)
    with pytest.raises(ValueError):
        path_action_is_zero(rep, [(1, 1), (1, 1)])


def test_is_isomorphic():
    m = arc_module(A13U, 2)
    assert is_isomorphic(m, m)
    assert not is_isomorphic(m, arc_module(A13D, 2))
    assert not is_isomorphic(
        simple_representation(2, 1), simple_representation(2, 2)
    )
    assert is_isomorphic(zero_representation(2), zero_representation(2))


def test_arc_module_injective_up_to_iso():
    for n in (2, 3, 4):
        mods = [arc_module(a, n) for a in enumerate_arcs(n)]
        for i, m in enumerate(mods):
            for other in mods[i + 1 :]:
                assert not is_isomorphic(m, other)


def test_every_small_brick_is_an_arc_module():
    # exhaust interval-support 0/1 representations with identity-or-zero
    # arrow entries and check the bricks among them are exactly arc modules
    n = 3
    arc_mods = [arc_module(a, n) for a in enumerate_arcs(n)]
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            dims = tuple(1 if lo <= v <= hi else 0 for v in range(1, n + 1))
            inner = list(range(lo, hi))
            for signs in itertools.product((1, -1), repeat=len(inner)):
                for drop in itertools.product((0, 1), repeat=len(inner)):
                    named = {}
                    for i, sign, dead in zip(inner, signs, drop):
                        if not dead:
                            named[(i, sign)] = linalg.identity(1)
                    rep = make_representation(n, dims, named)
                    if not check_relations(rep):
                        continue
                    if is_brick(rep):
                        assert any(is_isomorphic(rep, m) for m in arc_mods)


def test_representation_json_round_trip():
    rep = arc_module(Arc(1, 7, frozenset({4, 6})), 7)
    data = rep.to_json()
    assert data["dims"] == [1, 1, 1, 1, 1, 1, 0]
    assert data["arrows"]["a1"] == [["1"]]
    assert "a1-" not in data["arrows"]
    assert representation_from_json(data, 7) == rep
    halved = make_representation(
        2, (1, 1), {(1, 1): ((Fraction(1, 2),),)}
    )
    again = representation_from_json(halved.to_json(), 2)
    assert again.map((1, 1)) == ((Fraction(1, 2),),)


def test_combine_morphisms():
    m = arc_module(A13U, 2)
    basis = hom_basis(m, m)
    doubled = combine_morphisms(basis, [Fraction(2)])
    assert doubled.mat(1) == ((Fraction(2),),)
    assert doubled.is_valid()


# sha256 of every hom basis at n=4, as computed by the Fraction Gauss-Jordan
# elimination the package used before fraction-free elimination; the reduced
# echelon basis is unique, so any correct elimination reproduces it exactly,
# down to the Fraction type of every entry.
HOM_BASES_N4_SHA256 = "b5c0f8f1c127854f43ba5a5b691055c7c5de4e3e0b661762a98d085b6ad0d10f"


def test_hom_bases_are_pinned():
    digest = hashlib.sha256()
    modules = [arc_module(arc, 4) for arc in enumerate_arcs(4)]
    for source in modules:
        for target in modules:
            for b in hom_basis(source, target):
                digest.update(repr(b.mats).encode())
            digest.update(b"|")
    assert digest.hexdigest() == HOM_BASES_N4_SHA256
