import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from arcbricks import linalg
from arcbricks.arcs import Arc, double_diagram, enumerate_arcs, restrict_green
from arcbricks.permutations import all_permutations
from arcbricks.quiver import (
    Morphism,
    Representation,
    _equation_arrows,
    _hom_system,
    arc_module,
    arrow_source,
    arrow_target,
    arrows,
    bilinear,
    check_relations,
    ext1_dim,
    hom_basis,
    hom_dim,
    is_brick,
    is_isomorphic,
    is_semibrick,
    morphism_parts,
    parse_arrow,
    path_action_is_zero,
    quad,
)

A13U = Arc(1, 3, frozenset({2}))
A13D = Arc(1, 3)


def mat(rows):
    """Nested sequences of numbers as a matrix of ``Fraction``s."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def simple(n, v):
    """The simple module at vertex v: the arc module of the unit arc."""
    return arc_module(Arc(v, v + 1), n)


def zero_module(n):
    return Representation(n, (0,) * n, {})


def zero_morphism(source, target):
    mats = tuple(
        linalg.zeros(target.dim(v), source.dim(v)) for v in range(1, source.n + 1)
    )
    return Morphism(source, target, mats)


def injective(f):
    """Whether every vertex matrix has a pivot in each source column."""
    return all(
        len(linalg.rref(f.mat(v))[1]) == f.source.dim(v)
        for v in range(1, f.source.n + 1)
    )


def identity_morphism(rep):
    return Morphism(rep, rep, tuple(linalg.identity(d) for d in rep.dims))


def combine_morphisms(basis, coeffs):
    """The linear combination of morphisms with the given coefficients."""
    first = basis[0]
    mats = []
    for v in range(1, first.source.n + 1):
        mats.append(
            tuple(
                tuple(
                    sum((c * b.mat(v)[r][s] for c, b in zip(coeffs, basis)), linalg.ZERO)
                    for s in range(first.source.dim(v))
                )
                for r in range(first.target.dim(v))
            )
        )
    return Morphism(first.source, first.target, tuple(mats))


def test_arrow_names():
    assert parse_arrow("a3") == (3, 1)
    assert parse_arrow("a3-") == (3, -1)
    with pytest.raises(ValueError):
        parse_arrow("b2")


@pytest.mark.parametrize("name", ["a²", "a٣", "a²-", "a", "a-", "a1a"])
def test_parse_arrow_accepts_only_ascii_digits(name):
    with pytest.raises(ValueError, match="bad arrow name"):
        parse_arrow(name)


def test_arc_module_worked_example():
    arc = Arc(1, 7, frozenset({4, 6}))
    rep = arc_module(arc, 7)
    assert rep.dims == (1, 1, 1, 1, 1, 1, 0)
    nonzero = {a for a in arrows(7) if not linalg.is_zero(rep.map(a))}
    assert nonzero == {(1, 1), (2, 1), (3, -1), (4, 1), (5, -1)}
    assert check_relations(rep)


def test_arc_module_simples_and_sides():
    for k in (1, 2, 3):
        dims = tuple(1 if v == k else 0 for v in range(1, 4))
        assert arc_module(Arc(k, k + 1), 3) == Representation(3, dims, {})
    rep = arc_module(A13U, 2)
    assert rep.dims == (1, 1)
    assert rep.map((1, -1)) == linalg.identity(1)
    assert linalg.is_zero(rep.map((1, 1)))


def test_all_arc_modules_satisfy_relations():
    for n in (2, 3, 4):
        for arc in enumerate_arcs(n):
            assert check_relations(arc_module(arc, n))


def test_check_relations_rejects_double_identity():
    rep = Representation(
        2, (1, 1), {(1, 1): linalg.identity(1), (1, -1): linalg.identity(1)}
    )
    assert not check_relations(rep)
    assert check_relations(zero_module(3))


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
    kernel, cokernel = morphism_parts(f)
    assert kernel.dims == (0, 0)
    assert is_isomorphic(cokernel, simple(2, 2))

    ident = identity_morphism(big)
    kernel, cokernel = morphism_parts(ident)
    assert kernel.dims == (0, 0) and cokernel.dims == (0, 0)

    zero = zero_morphism(s1, big)
    kernel, cokernel = morphism_parts(zero)
    assert is_isomorphic(kernel, s1)
    assert is_isomorphic(cokernel, big)


def test_morphism_parts_exactness():
    # rank-nullity at every vertex, over all hom bases at n=3
    arcs = enumerate_arcs(3)
    for a, b in itertools.product(arcs, repeat=2):
        for f in hom_basis(arc_module(a, 3), arc_module(b, 3)):
            kernel, cokernel = morphism_parts(f)
            for rep in (kernel, cokernel):
                assert check_relations(rep)
            for v in range(1, 4):
                r = len(linalg.rref(f.mat(v))[1])
                assert kernel.dim(v) + r == f.source.dim(v)
                assert r + cokernel.dim(v) == f.target.dim(v)


def reference_parts(f):
    """Kernel and cokernel by exact solves: the kernel map solves
    ``K_t X = M_a K_s`` and the cokernel map is ``C_t M_a R_s`` for the right
    inverse ``R_s`` that solves ``C_s R_s = I``.  ``K_v`` has the kernel
    basis of f_v as columns and ``C_v`` the kernel basis of f_v^T as rows."""
    n = f.source.n
    ker, cok = {}, {}
    for v in range(1, n + 1):
        ker[v] = linalg.transpose(
            tuple(linalg.nullspace(f.mat(v), ncols=f.source.dim(v))),
            ncols=f.source.dim(v),
        )
        fvt = linalg.transpose(f.mat(v), ncols=f.source.dim(v))
        cok[v] = tuple(linalg.nullspace(fvt, ncols=f.target.dim(v)))
    ker_dims = [len(ker[v][0]) if ker[v] else 0 for v in range(1, n + 1)]
    cok_dims = [len(cok[v]) for v in range(1, n + 1)]
    ker_maps, cok_maps = {}, {}
    for a in arrows(n):
        s, t = arrow_source(a), arrow_target(a)
        k_s, k_t, c_s = ker_dims[s - 1], ker_dims[t - 1], cok_dims[s - 1]
        image = linalg.matmul(f.source.map(a), ker[s], b_ncols=k_s)
        ker_maps[a] = (
            linalg.solve_matrix(ker[t], image) if ker[t] else linalg.zeros(k_t, k_s)
        )
        if c_s:
            rinv = linalg.solve_matrix(cok[s], linalg.identity(c_s))
        else:
            rinv = linalg.zeros(f.target.dim(s), 0)
        pushed = linalg.matmul(cok[t], f.target.map(a), f.target.dim(s))
        cok_maps[a] = linalg.matmul(pushed, rinv, c_s)
    return (
        Representation(n, ker_dims, ker_maps),
        Representation(n, cok_dims, cok_maps),
    )


def direct_sum(x, y):
    named = {}
    for a in arrows(x.n):
        pad_x, pad_y = x.dim(arrow_source(a)), y.dim(arrow_source(a))
        named[a] = tuple(row + (linalg.ZERO,) * pad_y for row in x.map(a)) + tuple(
            (linalg.ZERO,) * pad_x + row for row in y.map(a)
        )
    dims = [p + q for p, q in zip(x.dims, y.dims)]
    return Representation(x.n, dims, named)


def assert_parts_match_reference(f):
    kernel, cokernel = morphism_parts(f)
    assert repr((kernel, cokernel)) == repr(reference_parts(f))
    assert check_relations(kernel) and check_relations(cokernel)


def test_morphism_parts_match_solve_reference_on_arc_modules():
    for n in (1, 2, 3):
        modules = [arc_module(arc, n) for arc in enumerate_arcs(n)]
        for source, target in itertools.product(modules, repeat=2):
            basis = hom_basis(source, target)
            cases = [*basis, zero_morphism(source, target)]
            if basis:
                coeffs = [Fraction(k + 2, k + 1) for k in range(len(basis))]
                cases.append(combine_morphisms(basis, coeffs))
            for f in cases:
                assert_parts_match_reference(f)


def test_morphism_parts_match_solve_reference_on_direct_sums():
    # two-dimensional vertices give kernel and cokernel bases with more
    # than one nonzero entry, so the free coordinates matter
    rng = random.Random(3)
    for n in (2, 3):
        modules = [arc_module(arc, n) for arc in enumerate_arcs(n)]
        sums = [
            direct_sum(x, y)
            for x, y in itertools.combinations_with_replacement(modules, 2)
        ]
        for _ in range(150):
            source, target = rng.choice(sums), rng.choice(sums)
            basis = hom_basis(source, target)
            if not basis:
                continue
            coeffs = [
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis
            ]
            assert_parts_match_reference(combine_morphisms(basis, coeffs))


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
    assert ext1_dim(simple(2, 1), simple(2, 2)) == 1
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
    lazy = Representation(2, (1, 1), {})
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
    with pytest.raises(ValueError):
        path_action_is_zero(rep_up, [])
    with pytest.raises(ValueError):
        path_action_is_zero(rep, [(1, 1), (1, 1)])


def test_a_path_through_a_zero_map_is_zero_without_a_product(monkeypatch):
    rep = arc_module(Arc(1, 4), 3)  # maps on a1 and a2 only
    monkeypatch.setattr(linalg, "matmul", None)
    assert path_action_is_zero(rep, [(1, -1), (1, 1)])
    assert path_action_is_zero(rep, [(1, 1), (2, 1), (2, -1)])


def test_a_path_is_checked_before_its_zero_maps():
    rep = arc_module(Arc(1, 3), 3)  # a2 carries zero
    with pytest.raises(ValueError, match="not composable"):
        path_action_is_zero(rep, [(2, 1), (1, 1)])
    with pytest.raises(ValueError, match="outside the rank-3 quiver"):
        path_action_is_zero(rep, [(2, 1), (3, 1)])


def test_is_isomorphic():
    m = arc_module(A13U, 2)
    assert is_isomorphic(m, m)
    assert not is_isomorphic(m, arc_module(A13D, 2))
    assert not is_isomorphic(simple(2, 1), simple(2, 2))
    assert is_isomorphic(zero_module(2), zero_module(2))


def test_is_isomorphic_on_modules_with_a_vertex_of_dimension_2():
    def module(row):
        return Representation(2, (2, 1), {(1, 1): mat([row])})

    assert is_isomorphic(module([1, 0]), module([1, 0]))
    with pytest.raises(ValueError, match="0/1 dimension vectors"):
        is_isomorphic(module([1, 0]), module([0, 1]))


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
                    rep = Representation(n, dims, named)
                    if not check_relations(rep):
                        continue
                    if is_brick(rep):
                        assert any(is_isomorphic(rep, m) for m in arc_mods)


def from_json(data, n):
    """The representation that ``to_json`` wrote, arrows it left out zero."""
    named = {parse_arrow(key): mat(m) for key, m in data["arrows"].items()}
    return Representation(n, data["dims"], named)


def test_representation_json_round_trip():
    rep = arc_module(Arc(1, 7, frozenset({4, 6})), 7)
    data = rep.to_json()
    assert data["dims"] == [1, 1, 1, 1, 1, 1, 0]
    assert data["arrows"]["a1"] == [["1"]]
    assert "a1-" not in data["arrows"]
    assert from_json(data, 7) == rep
    halved = Representation(
        2, (1, 1), {(1, 1): ((Fraction(1, 2),),)}
    )
    assert halved.to_json() == {"dims": [1, 1], "arrows": {"a1": [["1/2"]]}}
    assert from_json(halved.to_json(), 2) == halved


def test_one_module_built_four_ways_is_stored_once():
    # arc(1,4;2^) at n=3: a1- and a2 carry 1
    module = arc_module(Arc(1, 4, frozenset({2})), 3)
    one = mat([[1]])
    builds = [
        Representation(3, (1, 1, 1), {(1, 1): mat([[0]]), (1, -1): one, (2, 1): one}),
        Representation(3, (1, 1, 1), (((2, 1), one), ((1, -1), one))),
        Representation(3, [1, 1, 1], {(1, -1): one, (2, 1): one}),
        Representation(3, (1, 1, 1), {(1, -1): [[1]], (2, 1): ((1,),)}),
    ]
    stored = (3, (1, 1, 1), (((1, -1), one), ((2, 1), one)))
    for rep in builds:
        assert tuple(getattr(rep, f.name) for f in dataclasses.fields(rep)) == stored
        assert type(rep.dims) is tuple
        assert rep == module and hash(rep) == hash(module)
        assert [a for a, _ in rep.maps] == [a for a in arrows(3) if a in dict(rep.maps)]
        assert not any(linalg.is_zero(m) for _, m in rep.maps)
        assert rep.map((1, 1)) == linalg.zeros(1, 1)
    assert Representation(3, (0, 0, 0), {(2, -1): ()}).maps == ()


@pytest.mark.parametrize("dims", [(1.0, 1), (True, True), (1, -1), (1,), (1, 1, 0)])
def test_dims_must_be_n_nonnegative_ints(dims):
    # a float dim would pass until hom_dim raised TypeError on it
    with pytest.raises(ValueError, match="dims must be 2 nonnegative integers"):
        Representation(2, dims, {})


@pytest.mark.parametrize("n, dims", [(True, (1,)), (2.0, (1, 1)), (-1, ())])
def test_rank_must_be_a_nonnegative_int(n, dims):
    # True passed as the n=1 module, and 2.0 raised TypeError from arrows
    with pytest.raises(ValueError, match="rank must be a nonnegative integer"):
        Representation(n, dims, {})


@pytest.mark.parametrize("bad, good", [(2.0, 2), (True, 1)])
@pytest.mark.parametrize("good_first", [True, False])
def test_arc_module_rejects_a_rank_that_is_not_an_int_in_either_order(
    clear_caches, bad, good, good_first
):
    # (arc, 2.0) and (arc, True) are equal keys to (arc, 2) and (arc, 1), so
    # an untyped cache answered them once the int rank was cached
    arc = Arc(1, 2)
    if good_first:
        assert arc_module(arc, good).n == good
    with pytest.raises(ValueError, match="rank must be a nonnegative integer"):
        arc_module(arc, bad)
    assert type(arc_module(arc, good).n) is int


def test_arc_module_never_caches_a_bool_rank(clear_caches):
    # the cache key (arc, True) equals (arc, 1), so a module built with
    # n=True would be returned for n=1 too
    with pytest.raises(ValueError, match="rank must be a nonnegative integer"):
        arc_module(Arc(1, 2), True)
    assert type(arc_module(Arc(1, 2), 1).n) is int


@pytest.mark.parametrize("x", [True, 1.5, 2.0, "x", None])
def test_map_entries_must_be_ints_or_fractions(x):
    # True matched arc_module(Arc(1, 3), 2) but printed "True" in to_json;
    # the others passed until hom_dim raised AttributeError on them
    with pytest.raises(ValueError, match="a1 has an entry not int or Fraction"):
        Representation(2, (1, 1), {(1, 1): ((x,),)})


def test_each_map_is_checked_once_given():
    one = linalg.identity(1)
    with pytest.raises(ValueError, match="matrix for a1 is not 1 x 2"):
        Representation(2, (2, 1), {(1, 1): one})
    with pytest.raises(ValueError, match="matrix for a1- is not 2 x 1"):
        Representation(2, (2, 1), {(1, -1): ((1, 0),)})
    with pytest.raises(ValueError, match="given two maps"):
        Representation(2, (1, 1), (((1, 1), one), ((1, 1), one)))


def test_maps_on_arrows_outside_the_quiver_are_rejected():
    with pytest.raises(ValueError, match="a5 outside the rank-2 quiver"):
        Representation(2, (1, 1), {(5, 1): ((1,),)})
    with pytest.raises(ValueError, match="a5- outside the rank-2 quiver"):
        Representation(2, (1, 1), {(5, -1): ((1,),)})


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


def test_representation_hash_is_kept_and_agrees_with_equality():
    for arc in enumerate_arcs(4):
        built = arc_module(arc, 4)
        parsed = from_json(built.to_json(), 4)
        assert parsed is not built
        assert parsed == built
        assert hash(parsed) == hash(built) == hash(built)
        assert {built: arc}[parsed] == arc
    assert [f.name for f in dataclasses.fields(built)] == ["n", "dims", "maps"]
    assert repr(parsed) == repr(built)
    assert "_hash" not in repr(built) and str(hash(built)) not in repr(built)


def reference_hom_basis(source, target):
    """Hom basis from a dense equation matrix: every entry of every
    commuting square is written, zero rows included, and each basis matrix
    is read from the kernel vector entry by entry."""
    offsets = [0]
    for v in range(1, source.n + 1):
        offsets.append(offsets[-1] + target.dim(v) * source.dim(v))
    total = offsets[-1]
    equations = []
    for a in arrows(source.n):
        s, t = arrow_source(a), arrow_target(a)
        ms, mt = source.map(a), target.map(a)
        for r in range(target.dim(t)):
            for c in range(source.dim(s)):
                row = [linalg.ZERO] * total
                for k in range(source.dim(t)):
                    row[offsets[t - 1] + r * source.dim(t) + k] += ms[k][c]
                for k in range(target.dim(s)):
                    row[offsets[s - 1] + k * source.dim(s) + c] -= mt[r][k]
                equations.append(tuple(row))
    basis = []
    for vec in linalg.nullspace(tuple(equations), ncols=total):
        mats = tuple(
            tuple(
                tuple(
                    vec[offsets[v - 1] + r * source.dim(v) + c]
                    for c in range(source.dim(v))
                )
                for r in range(target.dim(v))
            )
            for v in range(1, source.n + 1)
        )
        basis.append(Morphism(source, target, mats))
    return tuple(basis)


def assert_hom_basis_matches_reference(source, target):
    basis = hom_basis(source, target)
    assert repr(basis) == repr(reference_hom_basis(source, target))
    for f in basis:
        assert f.is_valid() and reference_is_valid(f)
        assert all(type(x) is Fraction for m in f.mats for row in m for x in row)


def test_hom_dim_is_the_size_of_the_hom_basis_on_arc_modules():
    for n in range(1, 6):
        modules = [arc_module(arc, n) for arc in enumerate_arcs(n)]
        for source, target in itertools.product(modules, repeat=2):
            assert hom_dim(source, target) == len(hom_basis(source, target))


def test_hom_basis_matches_dense_reference_on_arc_modules():
    modules = [arc_module(arc, 4) for arc in enumerate_arcs(4)]
    for source, target in itertools.product(modules, repeat=2):
        assert_hom_basis_matches_reference(source, target)


def modules_beyond_arc_modules():
    """Representations with two-dimensional vertices and non-integral
    entries: kernels and cokernels of combined maps between direct sums, and
    a module with halves on its arrows; then the arc modules at n=3."""
    half = Fraction(1, 2)
    halves = Representation(
        3,
        (2, 2, 1),
        {
            (1, 1): ((half, 0), (0, Fraction(3, 2))),
            (1, -1): ((0, half), (0, 0)),
            (2, 1): ((half, Fraction(-1, 3)),),
            (2, -1): ((Fraction(2),), (0,)),
        },
    )
    modules = [arc_module(arc, 3) for arc in enumerate_arcs(3)]
    sums = [direct_sum(x, y) for x, y in itertools.combinations(modules, 2)]
    rng = random.Random(11)
    reps = [halves, *rng.sample(sums, 4)]
    for _ in range(40):
        source, target = rng.choice(sums), rng.choice(sums)
        basis = hom_basis(source, target)
        if basis:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
            reps.extend(morphism_parts(combine_morphisms(basis, coeffs)))
    assert any(max(rep.dims) >= 2 for rep in reps)
    assert any(
        x.denominator > 1 for rep in reps for _, m in rep.maps for row in m for x in row
    )
    return reps, modules


def test_hom_basis_matches_dense_reference_beyond_arc_modules(clear_caches):
    reps, modules = modules_beyond_arc_modules()
    clear_caches()
    for source in reps:
        for target in [*reps[:6], *modules]:
            assert_hom_basis_matches_reference(source, target)
            assert_hom_basis_matches_reference(target, source)
            assert hom_dim(source, target) == len(hom_basis(source, target))
            assert hom_dim(target, source) == len(hom_basis(target, source))


def reference_hom_system(source, target):
    """``_hom_system``'s rows and offsets, assembled by zipping the two
    arrow tables over all 2(n-1) arrows, also those where both maps are
    zero, and with no early return for a pair without unknowns."""
    sdims, tdims = source.dims, target.dims
    offsets = [0]
    for ds, dt in zip(sdims, tdims):
        offsets.append(offsets[-1] + dt * ds)
    rows = []
    for (s, t, ms_cols, _), (_, _, _, mt_rows) in zip(
        source.arrow_table, target.arrow_table
    ):
        for r, mt_row in enumerate(mt_rows):
            at_r = offsets[t] + r * sdims[t]
            for c, ms_col in enumerate(ms_cols):
                if not (ms_col or mt_row):
                    continue
                row = {at_r + k: x for k, x in ms_col}
                for k, x in mt_row:
                    row[offsets[s] + k * sdims[s] + c] = x
                rows.append(row)
    if not (source.integral and target.integral):
        rows = linalg.integer_rows(row.items() for row in rows)
    return rows, offsets


def reference_equation_arrows(source, target):
    """Bitmask of the arrows on which ``reference_hom_system`` writes a row."""
    mask = 0
    for j, ((_, _, ms_cols, _), (_, _, _, mt_rows)) in enumerate(
        zip(source.arrow_table, target.arrow_table)
    ):
        if any(ms_col or mt_row for mt_row in mt_rows for ms_col in ms_cols):
            mask |= 1 << j
    return mask


def test_hom_system_skips_no_equation(clear_caches):
    pairs = []
    for n in range(1, 5):
        modules = [arc_module(arc, n) for arc in enumerate_arcs(n)]
        pairs += itertools.product(modules, repeat=2)
    reps, modules = modules_beyond_arc_modules()
    pairs += itertools.product([*reps, *modules], repeat=2)
    # S_1 + S_1 at n=2: two dimensions at v_1 and every map zero
    double = Representation(2, (2, 0), {})
    assert double.mapped == 0
    pairs.append((double, double))
    # S_1 + S_3 at n=3, with a hole at v_2, both ways against the arc module
    # 1 -> 2 <- 3: its two maps point into the hole, so they write rows out
    # of S_1 + S_3 and none into it
    holed = direct_sum(simple(3, 1), simple(3, 3))
    through = arc_module(Arc(1, 4, frozenset({3})), 3)
    pairs += [(holed, through), (through, holed)]
    for source, target in pairs:
        assert _hom_system(source, target) == reference_hom_system(source, target)
        assert _equation_arrows(source, target) == reference_equation_arrows(
            source, target
        )
    assert hom_dim(double, double) == 4
    assert [len(_hom_system(*pair)[0]) for pair in pairs[-2:]] == [2, 0]
    assert (hom_dim(holed, through), hom_dim(through, holed)) == (0, 2)


def test_hom_between_modules_of_different_rank_raises():
    short, long = arc_module(Arc(1, 3), 2), arc_module(Arc(1, 3), 3)
    for source, target in ((short, long), (long, short)):
        with pytest.raises(ValueError, match="rank mismatch"):
            hom_dim(source, target)
        with pytest.raises(ValueError, match="rank mismatch"):
            hom_basis(source, target)
    one = linalg.identity(1)
    with pytest.raises(ValueError, match="rank mismatch"):
        Morphism(short, long, (one, one)).is_valid()


def reference_is_valid(f):
    """Every square commutes, by dense products: f_t X_a = Y_a f_s on each
    arrow a : s -> t, with X_a and Y_a the source's and the target's maps."""
    for a in arrows(f.source.n):
        s, t = arrow_source(a), arrow_target(a)
        lhs = linalg.matmul(f.mat(t), f.source.map(a), f.source.dim(s))
        rhs = linalg.matmul(f.target.map(a), f.mat(s), f.source.dim(s))
        if lhs != rhs:
            return False
    return True


def random_morphism(rng, source, target, values):
    mats = tuple(
        tuple(
            tuple(Fraction(rng.choice(values)) for _ in range(source.dim(v)))
            for _ in range(target.dim(v))
        )
        for v in range(1, source.n + 1)
    )
    return Morphism(source, target, mats)


def assert_is_valid_matches_reference(cases):
    outcomes = set()
    for f in cases:
        valid = f.is_valid()
        assert valid == reference_is_valid(f), f
        outcomes.add(valid)
    assert outcomes == {True, False}


def test_is_valid_matches_dense_reference_on_arc_modules():
    rng = random.Random(5)
    values = (0, 0, 1, -1, 2, Fraction(1, 2))
    cases = []
    for n in (1, 2, 3):
        modules = [arc_module(arc, n) for arc in enumerate_arcs(n)]
        for source, target in itertools.product(modules, repeat=2):
            cases += [*hom_basis(source, target), zero_morphism(source, target)]
            cases += [random_morphism(rng, source, target, values) for _ in range(3)]
    assert_is_valid_matches_reference(cases)


def test_is_valid_matches_dense_reference_beyond_arc_modules():
    rng = random.Random(7)
    values = (0, 1, -1, Fraction(1, 3))
    reps, modules = modules_beyond_arc_modules()
    cases = []
    for source in reps:
        for target in [*reps[:6], *modules]:
            for x, y in ((source, target), (target, source)):
                basis = hom_basis(x, y)
                cases += [*basis, zero_morphism(x, y), random_morphism(rng, x, y, values)]
                if basis:
                    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
                    cases.append(combine_morphisms(basis, coeffs))
    assert_is_valid_matches_reference(cases)


def test_is_valid_rejects_wrongly_shaped_matrices():
    s1 = simple(2, 1)  # dims (1, 0)
    one = linalg.identity(1)
    assert identity_morphism(s1).is_valid()
    assert not Morphism(s1, s1, (one, one)).is_valid()
    assert not Morphism(s1, s1, (one,)).is_valid()


def injective_choices(basis, source):
    """Every candidate a generic search for an injective map would try: the
    basis elements, then the combinations with coefficients (1, t, t^2, ...)
    for t = 2 .. len(basis) * n + 2, which dodge the vanishing loci."""
    yield from basis
    if len(basis) > 1:
        for t in range(2, len(basis) * source.n + 3):
            coeffs = [Fraction(t) ** k for k in range(len(basis))]
            yield combine_morphisms(basis, coeffs)


def test_an_injective_map_between_arc_modules_spans_its_hom():
    # mutation._extension_middle accepts its glued middle only when
    # Hom(pivot, middle) is one injective map; that loses no middle, since no
    # Hom of dimension 2 or more between arc modules holds an injective map
    injective_homs = wide = 0
    for n in range(1, 6):
        modules = [arc_module(arc, n) for arc in enumerate_arcs(n)]
        for source, target in itertools.product(modules, repeat=2):
            basis = hom_basis(source, target)
            wide += len(basis) >= 2
            if any(injective(f) for f in injective_choices(basis, source)):
                injective_homs += 1
                assert len(basis) == 1
    assert (injective_homs, wide) == (351, 171)
