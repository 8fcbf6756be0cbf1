"""Arc diagrams, the weak order, and semibricks over the doubled type-A quiver.

Everything is exact and deterministic: permutation combinatorics under the
weak order, arc diagrams with crossing tests, 0/1-dimensional quiver
representations over the rationals, string-combinatorial hom bases, diagram
and module mutation, and ideal-filtered diagram families.  The check suites
replay every structural statement through two independent routes.

The package namespace is empty: each name is imported from its module
(``from arcbricks.arcs import Arc``), so importing one module loads only
that module and the ones it imports.
"""
