"""Arc diagrams, the weak order, and semibricks over the doubled type-A quiver.

Everything is exact and deterministic: permutation combinatorics under the
weak order, arc diagrams with crossing tests, 0/1-dimensional quiver
representations over the rationals, string-combinatorial hom bases, diagram
and module mutation, and ideal-filtered diagram families.  The check suites
replay every structural statement through two independent routes.
"""

from .arcs import (
    Arc,
    ColoredDiagram,
    arc_to_join_irreducible,
    check_nad,
    diagram_to_permutation,
    double_diagram,
    enumerate_arcs,
    enumerate_nad,
    is_crossing,
    restrict_green,
)
from .mutation import (
    MutationError,
    half_twist,
    hasse,
    mutate_dad,
    mutate_smc_collection,
    psi,
    smc_axiom_check,
    smc_leq,
)
from .permutations import (
    Permutation,
    descents,
    join,
    left_multiply_simple,
    parse_permutation,
    weak_leq,
)
from .quiver import (
    Morphism,
    Representation,
    arc_module,
    bilinear,
    check_relations,
    ext1_dim,
    hom_basis,
    hom_dim,
    is_brick,
    is_isomorphic,
    is_semibrick,
    morphism_parts,
    path_action_is_zero,
    quad,
)
from .quotients import (
    MonomialIdealSpec,
    family_count,
    is_alternating_arc,
    is_right_arc,
    nad_ideal_filter,
)
from .strings import factorizations, graph_map_count, graph_maps

__all__ = [name for name in dir() if not name.startswith("_")]
