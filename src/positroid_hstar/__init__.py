"""Exact Ehrhart h*-polynomials of positroid polytopes.

Four independent routes to the same polynomial, each cross-validating the
others:

- the cover statistic of a shelling of the circuit triangulation, each
  label's count of walls separating its alcove from the base alcove
  (``triangulation.hstar_shelling``; the dual graph's breadth-first search
  is the reference that ``verify`` compares against),
- permutation descents for the half-open polytope plus Moebius
  inclusion-exclusion over the removed upper facets
  (``halfopen.hstar_closed_via_inclusion_exclusion``),
- lattice-point counting and the binomial transform, for any positroid
  (``ehrhart.hstar_by_counting``; a disconnected one's count is the product
  of its summands', ``ehrhart.ehrhart_by_route``),
- the same cover statistic over the circular extensions of a bicolored
  subdivision's chain order, for tree positroids; the extensions are
  asserted to be the triangulation labels (``tree.hstar_tree``).

Every route returns the h*-vector as a tuple of ints in ascending degree,
trailing zeros trimmed; a half-open h* keeps its leading 0.  An Ehrhart
polynomial is its h* and dimension (``EhrhartPolynomial``); only its
coefficients, computed where they are printed, are rational.

Names resolve lazily (PEP 562): ``from positroid_hstar import hstar_shelling``
imports ``triangulation`` and what it needs, and nothing else, so a process
that uses one route does not load the others.
"""

import importlib

# The public names of each module, the module itself included.
_EXPORTS = {
    "core": "",
    "ehrhart": """EhrhartPolynomial ehrhart_of_positroid ehrhart_product face_hstar
        hstar_by_counting hstar_from_counts lattice_counts""",
    "halfopen": """face_poset_of_uppers hstar_closed_via_inclusion_exclusion hstar_half_open
        hstar_half_open_by_counting moebius""",
    "positroid": """DecoratedPermutation DisconnectedPositroidError GrassmannNecklace
        HRepresentation IntervalInequality NecklaceError PositroidBases bases_from_necklace
        decompose_direct_sum decorated_from_necklace facet_representation h_representation
        is_connected necklace_from_bases necklace_from_decorated validate_necklace""",
    "tree": """BicoloredSubdivision SubdivisionError arcs circular_extensions
        h_rep_from_subdivision hstar_tree random_subdivision tau_order validate_subdivision""",
    "triangulation": """AffineLabelingReport ShellingPoset TriangulationGraph
        affine_consistency_check build_graph enumerate_labels hstar_from_covers hstar_shelling
        shelling_poset simplex_facets simplex_vertices wall_covers""",
}
# Each public name -> the module that defines it (a module maps to itself).
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names.split())}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
