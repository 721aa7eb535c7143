"""Half-open positroid polytopes: descents, upper facets, inclusion-exclusion.

Project the polytope onto the first n-1 coordinates (eliminating x_n through
the sum equality) and write every facet as a bound on a contiguous block
x_lo + ... + x_{hi-1}: the rows of ``positroid.facet_representation``.  A
facet is *upper* when its sense is <=; upper facet i is the i-th such row.
Removing all upper facets leaves the half-open polytope, whose h*-polynomial
is the descent generating function z^(des+1) over triangulation labels.  The closed h* is then
recovered by Moebius inclusion-exclusion over the poset of intersections of
upper facets, in integer arithmetic on the h*-vectors (tuples of ints).
A face is the bitmask of the upper facets that hold it, bit i for upper
facet i: the AND of its bases' masks, each basis masked by the upper rows it
lies on.  So the faces are the AND-closure of the bases' masks, a face's bases
are those whose mask contains its own, and its dimension is read off their
matroid's connected components (``positroid.dimension_of_bases``).
Each face's counts are read off one lattice count of the closed body per
dilate, tallied by the upper facets each point lies on
(``ehrhart.upper_tally``), and read as a 0/1 polytope's, E_F(1) checked
against its bases (``ehrhart._face_hstar_from_counts``); the faces are not
counted one by one.  The faces of one codimension k are summed before
(1-z)^k is applied.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import _trim, descent_count
from .ehrhart import (
    _face_hstar_from_counts,
    count_to_degree,
    upper_tally,
)
from .positroid import (
    GrassmannNecklace,
    IntervalInequality,
    bases_from_necklace,
    dimension_of_bases,
    facet_representation,
)
from .triangulation import _histogram, enumerate_labels


def hstar_half_open(necklace: GrassmannNecklace) -> tuple[int, ...]:
    """h* of the projected polytope with all upper facets removed.

    Equals the descent generating function sum of z^(des(w_1..w_{n-1}) + 1)
    over the triangulation labels; the constant term is always zero.
    Defined for n >= 2 (a point has no projection to chop facets from).
    """
    if necklace.n == 1:
        raise ValueError("half-open form needs n >= 2")
    return _histogram(descent_count(word[:-1]) + 1 for word in necklace.fact(enumerate_labels))


def hstar_half_open_by_counting(necklace: GrassmannNecklace) -> tuple[int, ...]:
    """Oracle half-open h*: counts up to the h*-degree, checked by reciprocity
    against the body with the lower facets strict (``ehrhart.count_to_degree``).
    Defined for n >= 2, as ``hstar_half_open`` is."""
    if necklace.n == 1:
        raise ValueError("half-open form needs n >= 2")
    return count_to_degree(necklace, half_open=True).hstar


class FaceNode(NamedTuple):
    """A nonempty intersection of upper facets, identified by its bases (as
    bitmasks); ``generators`` has bit i set when upper facet i holds it."""

    vertex_set: frozenset[int]
    dim: int
    generators: int


class FacePoset(NamedTuple):
    """All faces of P obtained by intersecting upper facets, plus P on top."""

    top: FaceNode
    nodes: tuple[FaceNode, ...]  # includes top; sorted by (-dim, vertices)
    facet_list: tuple[IntervalInequality, ...]  # the upper facets


def face_poset_of_uppers(necklace: GrassmannNecklace) -> FacePoset:
    """Distinct nonempty intersections of upper facets with P, ordered by inclusion."""
    uppers = tuple(f for f in necklace.fact(facet_representation).inequalities if f.sense == "<=")
    rows = [(f.mask(necklace.n), f.bound) for f in uppers]
    on_rows = {b: sum(1 << i for i, (block, bound) in enumerate(rows)
                      if (b & block).bit_count() == bound)
               for b in necklace.fact(bases_from_necklace).bases}
    closure = {0}  # P, then every AND of the bases' masks
    for mask in set(on_rows.values()):
        closure |= {mask, *(mask & gens for gens in closure)}
    nodes = []
    for gens in closure:
        vertices = frozenset(b for b, mask in on_rows.items() if mask & gens == gens)
        rows = gens.bit_count()  # P has none and a facet one: their dimensions are known
        dim = necklace.n - 1 - rows if rows < 2 else dimension_of_bases(vertices, necklace.n)
        nodes.append(FaceNode(vertices, dim, gens))
    nodes.sort(key=lambda f: (-f.dim, sorted(f.vertex_set)))
    return FacePoset(nodes[0], tuple(nodes), uppers)


def moebius(poset: FacePoset) -> dict[FaceNode, int]:
    """Moebius values mu(F, P): 1 on top, and -sum over everything above.

    A face is the intersection of the upper facets that contain it, so G lies
    strictly above F exactly when G's generators are a proper subset of F's.
    The nodes above F are those outside every generator's node set that F
    lacks; their mu values are summed by popcount, one node set per value.
    """
    nodes = poset.nodes
    # upper facet i -> the nodes it holds, as a bitset
    holding = [sum(1 << k for k, node in enumerate(nodes) if node.generators >> i & 1)
               for i in range(len(poset.facet_list))]
    mu: dict[FaceNode, int] = {}
    valued: dict[int, int] = {}  # mu value -> the nodes done with it, as a bitset
    for k, node in enumerate(nodes):  # decreasing dimension, so everything above is done
        if node == poset.top:
            value = 1
        else:
            above = (1 << len(nodes)) - 1
            for i, members in enumerate(holding):
                if not node.generators >> i & 1:
                    above &= ~members
            value = -sum(v * (above & done).bit_count() for v, done in valued.items())
        mu[node] = value
        valued[value] = valued.get(value, 0) | 1 << k
    return mu


def hstar_closed_via_inclusion_exclusion(necklace: GrassmannNecklace) -> tuple[int, ...]:
    """Closed h* from the half-open one and the faces of the removed facets.

    h*(P) = h*(half-open) - sum over proper faces F of
    mu(F, P) (1-z)^(dim P - dim F) h*(F).  The faces of one codimension k
    are summed first, and (1-z)^k applied once to their sum.  Each face's
    counts are read off one tally of the closed body's points by the upper
    facets they lie on, as the module docstring says.  The sum runs in
    integers: every term has degree at most dim P = n - 1.  The result must
    have nonnegative coefficients and constant term 1.
    """
    n = necklace.n
    if n == 1:
        return (1,)
    poset = face_poset_of_uppers(necklace)
    mu = moebius(poset)
    tally = necklace.fact(upper_tally)
    half = necklace.fact(hstar_half_open)
    total = list(half) + [0] * (n - len(half))
    dim_p = n - 1
    by_dim = [[0] * (d + 1) for d in range(dim_p)]  # d -> sum of mu(F) h*(F), dim F = d
    for node, value in mu.items():
        if node == poset.top or value == 0:
            continue
        rows = [row for mask, row in tally.items() if mask & node.generators == node.generators]
        counts = tuple(map(sum, zip(*rows)))
        acc = by_dim[node.dim]
        for j, h in enumerate(_face_hstar_from_counts(counts, node.dim, len(node.vertex_set))):
            acc[j] += value * h
    for d, acc in enumerate(by_dim):
        k = dim_p - d  # the codimension: one factor (1-z)^k per d
        for i in range(k + 1):
            c = (-1) ** i * math.comb(k, i)
            for j, h in enumerate(acc):
                total[i + j] -= c * h
    coeffs = _trim(total)
    if any(c < 0 for c in coeffs) or coeffs[:1] != (1,):
        raise ArithmeticError(f"inclusion-exclusion produced invalid h* {coeffs}")
    return coeffs
