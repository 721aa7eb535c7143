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
  (``ehrhart.hstar_by_counting``; a disconnected one is counted in its own
  affine hull),
- the same cover statistic over the circular extensions of a bicolored
  subdivision's chain order, for tree positroids; the extensions are
  asserted to be the triangulation labels (``tree.hstar_tree``).

Every route returns the h*-vector as a tuple of ints in ascending degree,
trailing zeros trimmed; a half-open h* keeps its leading 0.  Only the
Ehrhart polynomial has rational coefficients (``ExactPolynomial``).
"""

from .core import ExactPolynomial
from .ehrhart import (
    CountProfile,
    EhrhartPolynomial,
    count_points,
    ehrhart_interpolate,
    ehrhart_of_positroid,
    ehrhart_product,
    face_hstar,
    hstar_by_counting,
    hstar_from_counts,
)
from .halfopen import (
    face_poset_of_uppers,
    hstar_closed_via_inclusion_exclusion,
    hstar_half_open,
    hstar_half_open_by_counting,
    moebius,
)
from .positroid import (
    CanonicalFacet,
    DecoratedPermutation,
    DisconnectedPositroidError,
    GrassmannNecklace,
    HRepresentation,
    IntervalInequality,
    NecklaceError,
    PositroidBases,
    bases_from_necklace,
    canonical_facets,
    decompose_direct_sum,
    decorated_from_necklace,
    h_representation,
    is_connected,
    necklace_from_bases,
    necklace_from_decorated,
    rank_of,
    validate_necklace,
    vertices,
)
from .tree import (
    BicoloredSubdivision,
    SubdivisionError,
    arcs,
    circular_extensions,
    h_rep_from_subdivision,
    hstar_tree,
    random_subdivision,
    tau_order,
    validate_subdivision,
)
from .triangulation import (
    AffineLabelingReport,
    ShellingPoset,
    TriangulationGraph,
    affine_consistency_check,
    build_graph,
    enumerate_labels,
    hstar_from_covers,
    hstar_shelling,
    shelling_poset,
    simplex_facets,
    simplex_vertices,
    wall_covers,
)

__all__ = [name for name in dir() if not name.startswith("_")]
