import itertools
import random
from fractions import Fraction

import pytest

from arcbricks import linalg, mutation
from arcbricks.arcs import Arc, arc_table, double_diagram, enumerate_arcs
from arcbricks.mutation import (
    MutationError,
    _extension_middle,
    collections_match,
    half_twist,
    hasse,
    hasse_dot,
    hasse_json,
    mutate_dad,
    mutate_smc_collection,
    psi,
    smc_axiom_check,
    smc_leq,
    weak_order_hasse,
)
from arcbricks.permutations import (
    all_permutations,
    descents,
    left_multiply_simple,
    parse_permutation,
    weak_leq,
)
from arcbricks.quiver import (
    Representation,
    arc_module,
    check_relations,
    ext1_dim,
    hom_basis,
    is_isomorphic,
    morphism_parts,
)
from arcbricks.strings import graph_map_count

from expected_diagrams import MUTATION_EDGES_RANK3


def P(text):
    return parse_permutation(text)


def D(text):
    return double_diagram(P(text))


def test_half_twist_examples():
    assert half_twist(Arc(1, 2), Arc(2, 3)) == Arc(1, 3, frozenset({2}))
    assert half_twist(Arc(3, 4), Arc(2, 3)) == Arc(2, 4, frozenset())
    nested = half_twist(
        Arc(3, 6, frozenset({4})),
        Arc(1, 6, frozenset({3, 4})),
    )
    assert nested == Arc(1, 3, frozenset())
    nested_up = half_twist(
        Arc(3, 6, frozenset({4})),
        Arc(1, 6, frozenset({2, 3, 4})),
    )
    assert nested_up == Arc(1, 3, frozenset({2}))


def test_half_twist_right_flips_junction_only():
    assert half_twist(Arc(1, 2), Arc(2, 3), twist="right") == Arc(1, 3)
    assert half_twist(Arc(3, 4), Arc(2, 3), twist="right") == Arc(
        2, 4, frozenset({3})
    )
    # non-junction configurations are direction independent
    assert half_twist(
        Arc(3, 6, frozenset({4})), Arc(1, 6, frozenset({3, 4})), twist="right"
    ) == Arc(1, 3)


def test_half_twist_errors():
    with pytest.raises(ValueError):
        half_twist(Arc(1, 2), Arc(3, 4))
    with pytest.raises(ValueError):
        half_twist(Arc(1, 3), Arc(1, 3, frozenset({2})))
    with pytest.raises(ValueError):
        half_twist(Arc(1, 2), Arc(2, 3), twist="up")


def reference_half_twist(pivot, other, twist="left"):
    """The half twist point by point: the shared point's side from the
    twist, every other side from the input arc whose open span holds it."""
    (s,) = {pivot.left, pivot.right} & {other.left, other.right}
    a = pivot.left if pivot.right == s else pivot.right
    b = other.left if other.right == s else other.right
    left, right = min(a, b), max(a, b)
    above = set()
    for m in range(left + 1, right):
        if m == s:
            pivot_on_left = pivot.right == s == other.left
            if pivot_on_left == (twist == "left"):
                above.add(m)
        elif m in pivot.interior:
            if m in pivot.above:
                above.add(m)
        elif m in other.interior:
            if m in other.above:
                above.add(m)
        else:
            raise AssertionError(f"point {m} inside neither input arc")
    return Arc(left, right, frozenset(above))


def test_half_twist_matches_the_per_point_rule_and_returns_the_shared_arc():
    calls = []
    for n in range(2, 7):
        arcs = enumerate_arcs(n)
        shared = {arc: arc for arc in arcs}
        count = 0
        for pivot, other in itertools.permutations(arcs, 2):
            if len({pivot.left, pivot.right} & {other.left, other.right}) != 1:
                continue
            for twist in ("left", "right"):
                got = half_twist(pivot, other, twist)
                assert got == reference_half_twist(pivot, other, twist)
                assert got is shared[got]
                count += 1
        calls.append(count)
    assert calls == [20, 152, 780, 3456, 14388]


def test_mutate_dad_figure_steps():
    assert mutate_dad(D("4321"), 3) == D("4312")
    assert mutate_dad(D("4321"), 1) == D("3421")
    assert mutate_dad(D("321"), 2) == D("312")


def test_mutate_dad_preconditions():
    # only the position can be wrong: the pivot's color fixes the direction;
    # True read position 1 and 1.0 raised TypeError before one_based
    for i in (0, -1, 3, True, 1.0):
        message = rf"position {i!r} out of range 1\.\.2"
        with pytest.raises(IndexError, match=message):
            mutate_dad(D("321"), i)


def test_mutate_dad_direction_inferred():
    # a green pivot mutates left, down the weak order; a red one right, up it
    assert mutate_dad(D("4321"), 2) == D("4231")
    assert mutate_dad(D("1234"), 2) == D("1324")


def test_mutation_involution():
    for n in (2, 3):
        for w in all_permutations(n):
            diagram = double_diagram(w)
            for i in range(1, n + 1):
                once = mutate_dad(diagram, i)
                assert mutate_dad(once, i) == diagram


def test_mutation_matches_simple_action():
    for n in (2, 3):
        for w in all_permutations(n):
            diagram = double_diagram(w)
            for i in range(1, n + 1):
                expected = double_diagram(left_multiply_simple(i, w))
                assert mutate_dad(diagram, i) == expected


def test_psi_examples():
    members = psi(D("312"))
    assert members[0] == (arc_module(Arc(1, 3, frozenset({2})), 2), 0)
    assert members[1] == (arc_module(Arc(1, 2), 2), 1)

    lazy = psi(double_diagram(P("1234")))
    assert sorted((m.dims, s) for m, s in lazy) == [
        ((0, 0, 1), 1),
        ((0, 1, 0), 1),
        ((1, 0, 0), 1),
    ]
    top = psi(double_diagram(P("4321")))
    assert {(m.dims, s) for m, s in top} == {
        ((1, 0, 0), 0),
        ((0, 1, 0), 0),
        ((0, 0, 1), 0),
    }


def test_psi_shift_zero_part_is_green():
    for w in all_permutations(3):
        diagram = double_diagram(w)
        shift_zero = [m for m, s in psi(diagram) if s == 0]
        green_modules = [arc_module(a, 3) for a in diagram.green_arcs()]
        assert shift_zero == green_modules


def test_smc_axiom_check():
    for n in (2, 3):
        for w in all_permutations(n):
            assert smc_axiom_check(psi(double_diagram(w)))
    s1 = arc_module(Arc(1, 2), 2)  # the simple module at vertex 1
    assert not smc_axiom_check(((s1, 0), (s1, 1)))
    assert not smc_axiom_check(((s1, 0), (arc_module(Arc(1, 3), 2), 0)))
    assert not smc_axiom_check(((s1, 0),))  # wrong size
    # Hom(S1, S2) = 0 but Ext^1(S1, S2) = 1: S1 and S2[1] fail the degree-0
    # condition of a simple-minded collection.
    s2 = arc_module(Arc(2, 3), 2)
    assert not smc_axiom_check(((arc_module(Arc(1, 2), 2), 0), (s2, 1)))
    # only shifts 0 and 1 belong to a 2-term collection
    members = psi(D("132"))
    for moved in ({1: 2}, {0: -1}):
        shifted = tuple((m, moved.get(c, c)) for m, c in members)
        assert not smc_axiom_check(shifted)
    assert not smc_axiom_check(members + ((members[0][0], 2),))
    # the shifts are the ints 0 and 1: False, True, 0.0 and 1.0 only equal them
    (top, _), (bottom, _) = psi(D("312"))
    for shifts in ((False, True), (0.0, 1.0)):
        assert not smc_axiom_check(((top, shifts[0]), (bottom, shifts[1])))
    # the members fix the rank: as many members as their one rank
    assert not smc_axiom_check(())
    for arc in (Arc(1, 2), Arc(2, 3)):
        for shift in (0, 1):
            assert not smc_axiom_check(((arc_module(arc, 2), shift),))  # rank 2
    mixed = ((arc_module(Arc(1, 2), 1), 0), (arc_module(Arc(2, 3), 2), 1))
    assert not smc_axiom_check(mixed)


def test_smc_axiom_check_sm4_proxy_needs_a_unimodular_matrix(monkeypatch):
    # no collection of arc modules fails sm4 alone, so sm1-sm3 are made to
    # pass on modules with zero maps, all at shift 0
    monkeypatch.setattr(mutation, "is_semibrick", lambda modules: True)
    monkeypatch.setattr(mutation, "hom_dim", lambda x, y: 0)
    monkeypatch.setattr(mutation, "ext1_dim", lambda x, y: 0)

    def collection(*dims):
        return tuple((Representation(d, {}), 0) for d in dims)

    assert not smc_axiom_check(collection((1, 1, 0), (0, 1, 1), (1, 1, 0)))
    assert not smc_axiom_check(collection((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert smc_axiom_check(collection((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def reference_sm4(members, n):
    """sm4 as a rational inverse: the signed dimension matrix is invertible
    and its inverse, from ``solve_matrix``, has integer entries."""
    signed = tuple(
        tuple(Fraction(d if c == 0 else -d) for d in m.dims) for m, c in members
    )
    try:
        inverse = linalg.solve_matrix(signed, linalg.identity(n))
    except ValueError:
        return False
    return all(x.denominator == 1 for row in inverse for x in row)


def test_smc_axiom_check_sm4_matches_the_rational_inverse(monkeypatch):
    monkeypatch.setattr(mutation, "is_semibrick", lambda modules: True)
    monkeypatch.setattr(mutation, "hom_dim", lambda x, y: 0)
    monkeypatch.setattr(mutation, "ext1_dim", lambda x, y: 0)
    rng = random.Random(0)
    outcomes = []
    for _ in range(2000):
        n = rng.randint(1, 5)
        members = []
        for _ in range(n):
            dims = tuple(rng.randint(0, 2) for _ in range(n))
            members.append((Representation(dims, {}), rng.randint(0, 1)))
        got = smc_axiom_check(members)
        assert got == reference_sm4(members, n), members
        outcomes.append(got)
    assert set(outcomes) == {False, True}


@pytest.mark.parametrize("n,count", [(2, 6), (3, 24)])
def test_smc_axiom_check_accepts_exactly_the_images_of_psi(n, count):
    shifted = [(arc_module(a, n), c) for a in enumerate_arcs(n) for c in (0, 1)]
    accepted = {
        frozenset(members)
        for members in itertools.combinations(shifted, n)
        if smc_axiom_check(members)
    }
    images = {frozenset(psi(double_diagram(w))) for w in all_permutations(n)}
    assert len(images) == count
    assert accepted == images


def test_smc_leq_examples():
    assert smc_leq(D("132"), D("312"))
    assert not smc_leq(D("213"), D("312"))
    for w in all_permutations(2):
        d = double_diagram(w)
        assert smc_leq(d, d)
    with pytest.raises(ValueError):
        smc_leq(D("132"), D("1234"))


def test_graph_map_out_masks_read_the_arc_table_bits():
    for n in range(1, 5):
        arcs, bit, _ = arc_table(n)
        table_bit, out = mutation._graph_map_out_masks(n, graph_map_count)
        assert table_bit is bit
        for a, b in itertools.product(arcs, repeat=2):
            assert (out[a] & bit[b] != 0) == (graph_map_count(a, b) != 0), (a, b)


def test_smc_leq_matches_weak_order():
    for u, w in itertools.product(all_permutations(3), repeat=2):
        assert smc_leq(double_diagram(u), double_diagram(w)) == weak_leq(u, w)


def test_mutate_smc_examples():
    got = mutate_smc_collection(psi(D("321")), 1)
    assert collections_match(got, psi(D("231")))
    assert got[1][0].dims == (1, 1)

    got = mutate_smc_collection(psi(D("312")), 1)
    assert collections_match(got, psi(D("132")))


def test_mutate_smc_far_members_unchanged():
    members = psi(D("4321"))
    got = mutate_smc_collection(members, 1)
    assert got[2] == members[2]


def test_mutate_smc_pivot_shift_guard():
    with pytest.raises(MutationError):
        mutate_smc_collection(psi(D("1234")), 1)
    # True mutated at position 1 and 1.0 raised TypeError before one_based
    for i in (0, -1, 3, True, 1.0):
        message = rf"position {i!r} out of range 1\.\.2"
        with pytest.raises(IndexError, match=message):
            mutate_smc_collection(psi(D("321")), i)


@pytest.mark.parametrize("shift", [5, -1, True, 1.0])
def test_mutate_smc_rejects_a_member_outside_shifts_0_and_1(monkeypatch, shift):
    # psi(D_132) at n=2 is [(M(1,3), 1), (S_2, 0)]; mutating at position 2
    # would treat a member at any shift other than 0 as one at shift 1, and
    # True and 1.0 equal 1 but are not the int shift 1
    (module, _), pivot = psi(D("132"))
    monkeypatch.setattr(mutation, "_mutate_member", None)  # never reached
    with pytest.raises(MutationError, match=f"position 1 has shift {shift}"):
        mutate_smc_collection(((module, shift), pivot), 2)


@pytest.mark.parametrize(
    "n,pivot,member,shift,message",
    [
        (
            4,
            Arc(1, 5, frozenset({3})),
            Arc(1, 4, frozenset({2})),
            0,
            "extension space against the pivot has dimension 2",
        ),
        (
            3,
            Arc(1, 4, frozenset({2})),
            Arc(1, 4, frozenset({3})),
            1,
            "hom space against the pivot has dimension 2",
        ),
        (
            2,
            Arc(1, 3, frozenset({2})),
            Arc(1, 3),
            1,
            "approximation map is neither injective nor surjective",
        ),
    ],
)
def test_the_module_route_refuses_a_member_without_one_approximation(
    clear_caches, n, pivot, member, shift, message
):
    # psi(D_w) never reaches these refusals: its members have a zero- or
    # one-dimensional space against the pivot and a mono or epi map to it
    members = ((arc_module(pivot, n), 0), (arc_module(member, n), shift))
    with pytest.raises(MutationError, match=message):
        mutate_smc_collection(members, 1)


def test_mutate_smc_matches_diagram_route():
    for w in all_permutations(3):
        diagram = double_diagram(w)
        for i in descents(w):
            expected = psi(double_diagram(left_multiply_simple(i, w)))
            got = mutate_smc_collection(psi(diagram), i)
            assert collections_match(got, expected)


def test_module_route_returns_the_target_modules_exactly():
    # the module route must build the stored form of each target module,
    # so a member carrying a zero map or rescaled entries fails here
    mutations = 0
    for w in all_permutations(5):
        diagram = double_diagram(w)
        for i in descents(w):
            expected = psi(double_diagram(left_multiply_simple(i, w)))
            assert mutate_smc_collection(psi(diagram), i) == expected, (str(w), i)
            mutations += 1
    assert mutations == 1800


def injective(f):
    """Whether every vertex matrix has a pivot in each source column."""
    return all(
        len(linalg.rref(f.mat(v))[1]) == f.source.dim(v)
        for v in range(1, f.source.n + 1)
    )


def reference_extension_middle(pivot, neighbor):
    """Every arc module over the summed interval whose hom space from the
    pivot is one injective map with cokernel the neighbor."""
    dims = [p + q for p, q in zip(pivot.dims, neighbor.dims)]
    p = dims.index(1) + 1
    q = p + sum(dims)
    matches = []
    for bits in itertools.product((False, True), repeat=q - p - 1):
        above = frozenset(m for m, up in zip(range(p + 1, q), bits) if up)
        candidate = arc_module(Arc(p, q, above), pivot.n)
        basis = hom_basis(pivot, candidate)
        if len(basis) != 1 or not injective(basis[0]):
            continue
        if is_isomorphic(morphism_parts(basis[0])[1], neighbor):
            matches.append(candidate)
    return matches


def test_glued_extension_middle_is_the_one_arc_module_found_by_search():
    pairs = 0
    for n in range(1, 6):
        arcs = enumerate_arcs(n)
        for a, b in itertools.product(arcs, repeat=2):
            if b.left != a.right:
                continue
            for pivot, neighbor in itertools.permutations(
                (arc_module(a, n), arc_module(b, n))
            ):
                pairs += 1
                assert ext1_dim(neighbor, pivot) == 1
                middle = _extension_middle(pivot, neighbor)
                assert reference_extension_middle(pivot, neighbor) == [middle]
                assert check_relations(middle)
    assert pairs == 204


def test_extension_middle_needs_disjoint_adjacent_supports():
    with pytest.raises(MutationError):  # overlap: summed dims (1, 2)
        _extension_middle(arc_module(Arc(1, 3), 2), arc_module(Arc(2, 3), 2))
    with pytest.raises(MutationError):  # gap: summed dims (1, 0, 1)
        _extension_middle(arc_module(Arc(1, 2), 3), arc_module(Arc(3, 4), 3))


def test_extension_middle_needs_a_zero_kernel(monkeypatch):
    pivot, neighbor = arc_module(Arc(1, 2), 2), arc_module(Arc(2, 3), 2)
    glued = arc_module(Arc(1, 3, frozenset({2})), 2)  # S_2 -> S_1 is nonzero
    assert _extension_middle(pivot, neighbor) == glued
    # a basis map whose kernel is the pivot and whose cokernel is the neighbor
    monkeypatch.setattr(mutation, "morphism_parts", lambda f: (pivot, neighbor))
    with pytest.raises(MutationError, match="not the extension middle"):
        _extension_middle(pivot, neighbor)


def test_extension_middle_needs_the_cokernel_to_equal_the_neighbor(monkeypatch):
    pivot, neighbor = arc_module(Arc(1, 2), 3), arc_module(Arc(2, 4), 3)
    glued = arc_module(Arc(1, 4, frozenset({2})), 3)  # S_2 -> S_1 is nonzero
    assert _extension_middle(pivot, neighbor) == glued
    # a zero kernel and a cokernel only isomorphic to the neighbor
    rescaled = Representation((0, 1, 1), {(2, 1): ((Fraction(2),),)})
    assert rescaled != neighbor and is_isomorphic(rescaled, neighbor)
    zero = Representation((0, 0, 0), {})
    monkeypatch.setattr(mutation, "morphism_parts", lambda f: (zero, rescaled))
    with pytest.raises(MutationError, match="not the extension middle"):
        _extension_middle(pivot, neighbor)


def test_collections_match_is_shift_sensitive():
    s1 = arc_module(Arc(1, 2), 2)  # the simple module at vertex 1
    assert collections_match(((s1, 0),), ((s1, 0),))
    assert not collections_match(((s1, 0),), ((s1, 1),))
    assert not collections_match(((s1, 0),), ((s1, 0), (s1, 1)))


def test_collections_match_rejects_a_module_only_isomorphic_to_its_target():
    module = arc_module(Arc(1, 3), 2)
    rescaled = Representation((1, 1), {(1, 1): ((Fraction(2),),)})
    other = arc_module(Arc(1, 3, frozenset({2})), 2)
    assert rescaled != module and other.dims == module.dims
    assert is_isomorphic(rescaled, module)
    assert not collections_match(((module, 0),), ((rescaled, 0),))
    assert not collections_match(((module, 0),), ((other, 0),))
    rebuilt = Representation((1, 1), {(1, 1): ((1,),)})
    assert collections_match(((module, 0),), ((rebuilt, 0),))


def test_hasse_sizes():
    diagrams, edges = hasse(1)
    assert (len(diagrams), len(edges)) == (2, 1)
    diagrams, edges = hasse(2)
    assert (len(diagrams), len(edges)) == (6, 6)
    diagrams, edges = hasse(3)
    assert (len(diagrams), len(edges)) == (24, 36)
    with pytest.raises(ValueError):
        hasse(7)


def test_hasse_matches_known_edge_list():
    diagrams, edges = hasse(3)
    words = [str(d.w) for d in diagrams]
    got = {(words[src], words[dst]) for src, dst, _ in edges}
    assert got == set(MUTATION_EDGES_RANK3)
    for src, dst, i in edges:
        upper = P(words[src])
        assert left_multiply_simple(i, upper) == P(words[dst])


def test_hasse_agrees_with_weak_order_covers():
    for n in (2, 3):
        diagrams, edges = hasse(n)
        perms, weak_edges = weak_order_hasse(n)
        assert [d.w for d in diagrams] == perms
        assert sorted(edges) == sorted(weak_edges)


def test_hasse_dot_deterministic():
    out = hasse_dot(2)
    assert out == hasse_dot(2)
    assert out.startswith("digraph mutation {")
    assert '  w5 [label="321"];' in out
    assert out.count("->") == 6
    data = hasse_json(2)
    assert len(data["vertices"]) == 6 and len(data["edges"]) == 6
    assert data["vertices"][0]["arcs"][0]["shift"] == 1
