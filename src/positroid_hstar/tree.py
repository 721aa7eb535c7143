"""Bicolored subdivisions of a convex polygon and their positroid polytopes.

A subdivision partitions the clockwise-labeled n-gon into black and white
cells with alternating colors across shared edges; its type counts the black
triangles in any triangulation of the black cells.  Arcs between polygon
vertices that stay inside one cell carry an "area" (black triangles to their
left), and the two-sided area bounds cut out a positroid polytope with sum
equality k+1.  Its 0/1 points, bitmasks from the one filter of
``positroid.zero_one_points``, are the bases; the compatible arcs are read
once per subdivision.  Reading white cells clockwise and black cells
counterclockwise produces chains whose circular extensions are exactly the
triangulation labels of that polytope (asserted), so the shelling h* of its
necklace, the wall covers summed over those labels, is the tree route's h*.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, NamedTuple, Sequence

from .core import Word, descent_bounded_words
from .positroid import (
    GrassmannNecklace,
    HRepresentation,
    IntervalInequality,
    PositroidBases,
    bases_from_necklace,
    necklace_from_bases,
    zero_one_points,
)
from .triangulation import enumerate_labels, hstar_shelling


class SubdivisionError(ValueError):
    """Raised when cells do not form a bicolored subdivision."""


class BicoloredSubdivision(NamedTuple):
    """Cells of a subdivision of the convex n-gon, each a colored vertex set.

    Cell vertex lists are stored sorted; the clockwise boundary order of a
    cell in convex position is its increasing order, so no embedding data is
    needed.  Bigons (2-vertex cells) are accepted but contribute no area and
    no chain.
    """

    n: int
    cells: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def type_count(self) -> int:
        """Number of black triangles: sum of (size - 2) over black cells."""
        return sum(len(vs) - 2 for color, vs in self.cells if color == "black" and len(vs) >= 3)

    @property
    def rank(self) -> int:
        return self.type_count + 1

    def black_cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vs for color, vs in self.cells if color == "black")


def _cell_edges(vs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Boundary chords of a cell in convex position (unordered pairs)."""
    if len(vs) == 2:
        return [vs]
    return [tuple(sorted((vs[k], vs[(k + 1) % len(vs)]))) for k in range(len(vs))]


def _chords_cross(a: tuple[int, int], b: tuple[int, int], n: int) -> bool:
    """Strict crossing of two chords of the n-gon (shared endpoints never cross)."""
    if set(a) & set(b):
        return False
    p, q = a
    inside = lambda v: 0 < (v - p) % n < (q - p) % n
    return inside(b[0]) != inside(b[1])


def validate_subdivision(n: int, cells: Sequence[tuple[str, Iterable[int]]]) -> BicoloredSubdivision:
    """Check cells for non-crossing boundaries, area partition, and coloring.

    Cells are given as (color, vertices); vertex order is ignored.  Errors
    name the offending cell or cell pair.
    """
    if n < 3:
        raise SubdivisionError("polygon needs at least 3 vertices")
    norm = []
    for color, raw in cells:
        if color not in ("black", "white"):
            raise SubdivisionError(f"bad color {color!r}")
        vs = tuple(sorted(raw))
        if len(vs) < 2 or len(set(vs)) != len(vs):
            raise SubdivisionError(f"cell {vs} must list at least 2 distinct vertices")
        if any(not 1 <= v <= n for v in vs):
            raise SubdivisionError(f"cell {vs} has vertices outside 1..{n}")
        norm.append((color, vs))
    if not norm:
        raise SubdivisionError("no cells")
    norm.sort(key=lambda c: (c[1], c[0]))

    polygon_cells = [(color, vs) for color, vs in norm if len(vs) >= 3]
    bigon_chords = {vs for color, vs in norm if len(vs) == 2}

    all_chords = sorted({e for _, vs in norm for e in _cell_edges(vs)})
    for a, b in itertools.combinations(all_chords, 2):
        if _chords_cross(a, b, n):
            raise SubdivisionError(f"boundary chords {a} and {b} cross")

    if sum(len(vs) - 2 for _, vs in polygon_cells) != n - 2:
        raise SubdivisionError("cell areas do not partition the polygon")

    incident: dict[tuple[int, int], list[tuple[str, tuple[int, ...]]]] = {}
    for color, vs in polygon_cells:
        for e in _cell_edges(vs):
            incident.setdefault(e, []).append((color, vs))
    sides = {tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)}
    for e, cs in incident.items():
        if e in bigon_chords:
            continue  # stacked bigons cannot be ordered from vertex data; skip
        if e in sides:
            if len(cs) != 1:
                raise SubdivisionError(f"polygon side {e} bounds {len(cs)} cells")
        else:
            if len(cs) != 2:
                raise SubdivisionError(f"chord {e} bounds {len(cs)} cells, expected 2")
            if cs[0][0] == cs[1][0]:
                raise SubdivisionError(
                    f"cells {cs[0][1]} and {cs[1][1]} share edge {e} with equal color")
    for e in sides:
        if e not in incident and e not in bigon_chords:
            raise SubdivisionError(f"polygon side {e} is not covered by any cell")

    return BicoloredSubdivision(n, tuple(norm))


def _in_closed_cyclic(v: int, i: int, j: int, n: int) -> bool:
    return (v - i) % n <= (j - i) % n


def _left_area(tau: BicoloredSubdivision, i: int, j: int) -> int:
    """Black triangles left of a compatible arc, in any adapted triangulation.

    Per black cell the part left of the chord is the sub-polygon on the
    cell's vertices inside the closed clockwise interval [i, j], of area
    (number of vertices - 2); cells on the right meet the interval in at
    most the two endpoints and contribute nothing.  This equals the triangle
    count for every triangulation in which no triangle straddles the chord.
    """
    return sum(max(0, sum(_in_closed_cyclic(v, i, j, tau.n) for v in vs) - 2)
               for vs in tau.black_cells())


class ArcInfo(NamedTuple):
    """Facet status and left area of one compatible directed arc."""

    start: int
    end: int
    facet_defining: bool
    area: int


def arcs(tau: BicoloredSubdivision) -> tuple[ArcInfo, ...]:
    """The compatible arcs of the polygon, in (start, end) order.

    An arc is compatible when some cell contains both endpoints (edges and
    interior diagonals of cells); it is facet-defining when it is an edge of
    a black cell lying entirely on its left.  Areas of opposite arcs must
    add up to the type count (the chord splits the black triangles); checked.
    """
    n, k = tau.n, tau.type_count
    cells = [set(vs) for _, vs in tau.cells]
    black_edges = [(set(e), set(vs)) for vs in tau.black_cells() if len(vs) >= 3
                   for e in _cell_edges(vs)]
    out = []
    for i, j in itertools.permutations(range(1, n + 1), 2):
        if not any({i, j} <= c for c in cells):
            continue
        area = _left_area(tau, i, j)
        if area + _left_area(tau, j, i) != k:
            raise AssertionError(f"areas of arcs {i}->{j} and {j}->{i} do not split {k}")
        facet = any({i, j} == e and all(_in_closed_cyclic(v, i, j, n) for v in cell)
                    for e, cell in black_edges)
        out.append(ArcInfo(i, j, facet, area))
    return tuple(out)


def h_rep_from_subdivision(tau: BicoloredSubdivision,
                           compatible: Sequence[ArcInfo] | None = None) -> HRepresentation:
    """Two-sided area bounds over the compatible arcs (``arcs(tau)`` unless
    given), with sum equality k+1."""
    return HRepresentation(tau.n, tau.rank, tuple(
        IntervalInequality(a.start, a.end, a.area + upper, "<=" if upper else ">=")
        for a in (arcs(tau) if compatible is None else compatible) for upper in (0, 1)))


def positroid_from_subdivision(tau: BicoloredSubdivision,
                               compatible: Sequence[ArcInfo] | None = None) -> GrassmannNecklace:
    """Necklace of the positroid that the compatible arcs
    (``arcs(tau)`` unless given) cut out, by ``h_rep_from_subdivision`` and
    by x_v >= 0 plus the lower bound of each facet-defining arc: the two
    must select the same 0/1 points; asserted."""
    compatible = arcs(tau) if compatible is None else compatible
    points = zero_one_points(h_rep_from_subdivision(tau, compatible))
    facet_only = HRepresentation(tau.n, tau.rank, tuple(
        IntervalInequality(a.start, a.end, a.area, ">=") for a in compatible if a.facet_defining))
    if points != zero_one_points(facet_only):
        raise AssertionError("area-bound and facet-arc descriptions disagree on 0/1 points")
    if not points:
        raise SubdivisionError("subdivision polytope has no 0/1 points")
    bases = PositroidBases(tau.n, tau.rank, points)
    necklace = necklace_from_bases(bases)
    if necklace.fact(bases_from_necklace).bases != bases.bases:
        raise AssertionError("subdivision polytope vertices are not a positroid")
    return necklace


def tau_order(tau: BicoloredSubdivision) -> tuple[Word, ...]:
    """One chain per cell with >= 3 vertices.

    White cells are read clockwise (increasing order) starting at their least
    vertex; black cells counterclockwise (decreasing) starting at the
    largest.  Cells of fewer than 3 vertices force no triples and are
    skipped.
    """
    return tuple(sorted(vs if color == "white" else vs[::-1]
                        for color, vs in tau.cells if len(vs) >= 3))


def circular_extensions(chains: Sequence[Sequence[int]], n: int) -> tuple[Word, ...]:
    """All words w with w_n = n whose cyclic order extends every chain, sorted.

    A chain is respected when reading its elements around the cycle of w,
    starting from the chain's first element, reproduces the chain: when the
    restriction of w has at most one cyclic descent in the chain's order.
    """
    return descent_bounded_words(n, [(chain, 1) for chain in chains])


class TreePositroid(NamedTuple):
    """What the tree pipeline derives from one subdivision, each fact once;
    the bases are the necklace's ``bases_from_necklace`` fact."""

    necklace: GrassmannNecklace
    compatible_arcs: tuple[ArcInfo, ...]
    chains: tuple[Word, ...]
    extensions: tuple[Word, ...]


def tree_positroid(tau: BicoloredSubdivision) -> TreePositroid:
    """The subdivision's positroid, arcs, chain order and circular extensions.

    The extensions are exactly the triangulation labels of the positroid cut
    out by the subdivision; asserted on every call.
    """
    compatible = arcs(tau)
    necklace = positroid_from_subdivision(tau, compatible)
    chains = tau_order(tau)
    ext = circular_extensions(chains, tau.n)
    if not ext:
        raise SubdivisionError("the chain order has no circular extension")
    if necklace.fact(enumerate_labels) != ext:
        raise AssertionError("circular extensions differ from the triangulation labels")
    return TreePositroid(necklace, compatible, chains, ext)


def hstar_tree(tau: BicoloredSubdivision, base: Sequence[int] | None = None) -> tuple[int, ...]:
    """h* of the subdivision's polytope by the cover statistic on extensions.

    The circular extensions are the necklace's triangulation labels
    (`tree_positroid` asserts it), so this is the shelling h* of the necklace.
    """
    return hstar_shelling(tree_positroid(tau).necklace, base)


def random_subdivision(n: int, rng: random.Random) -> BicoloredSubdivision:
    """A uniform-ish random bicolored subdivision: random non-crossing chords
    from a random triangulation, then a random proper 2-coloring of the cells.
    """
    diagonals = _random_triangulation(tuple(range(1, n + 1)), rng)
    kept = [d for d in diagonals if rng.random() < 0.6]
    cells = _cells_from_chords(tuple(range(1, n + 1)), kept)
    adjacency: dict[int, set[int]] = {k: set() for k in range(len(cells))}
    edge_owner: dict[tuple[int, int], int] = {}
    for k, cell in enumerate(cells):
        for e in _cell_edges(cell):
            if e in edge_owner:
                adjacency[k].add(edge_owner[e])
                adjacency[edge_owner[e]].add(k)
            edge_owner[e] = k
    colors: dict[int, str] = {}
    for k in range(len(cells)):
        if k in colors:
            continue
        colors[k] = rng.choice(("black", "white"))
        stack = [k]
        while stack:
            cur = stack.pop()
            for nb in adjacency[cur]:
                if nb not in colors:
                    colors[nb] = "white" if colors[cur] == "black" else "black"
                    stack.append(nb)
    return validate_subdivision(n, [(colors[k], cells[k]) for k in range(len(cells))])


def _random_triangulation(region: tuple[int, ...], rng: random.Random) -> list[tuple[int, int]]:
    """Diagonals of a random triangulation of a convex region (recursive split)."""
    size = len(region)
    if size <= 3:
        return []
    while True:
        k, m = sorted(rng.sample(range(size), 2))
        if m - k not in (0, 1) and (k, m) != (0, size - 1):
            break
    first = region[k:m + 1]
    second = region[m:] + region[:k + 1]
    diag = tuple(sorted((region[k], region[m])))
    return [diag] + _random_triangulation(first, rng) + _random_triangulation(second, rng)


def _cells_from_chords(region: tuple[int, ...], chords: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Cells of the region cut by pairwise non-crossing chords."""
    inner = [c for c in chords
             if set(c) <= set(region) and c not in _cell_edges(region)]
    if not inner:
        return [region]
    a, b = inner[0]
    ka, kb = region.index(a), region.index(b)
    if ka > kb:
        ka, kb = kb, ka
    first = region[ka:kb + 1]
    second = region[kb:] + region[:ka + 1]
    rest = inner[1:]
    in_first = [c for c in rest if set(c) <= set(first)]
    in_second = [c for c in rest if c not in in_first]
    return _cells_from_chords(first, in_first) + _cells_from_chords(second, in_second)
