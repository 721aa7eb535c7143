"""Circuit triangulations of connected positroid polytopes.

A triangulation label is a permutation w ending in n, kept as its word; its
simplex has the indicator vectors of the cyclic-descent sets of the
rotations of w as vertices, listed in circuit order.  Both the circuit
(`core.circuit_masks`) and the vertices are read off the word whenever a
function needs them, and a public function given a word that is not a
permutation ending in n raises ValueError.  The labels whose circuit
subsets are all bases triangulate the polytope; a prefix-pruned search
finds them by the equivalent bounds on the cyclic descents of restrictions,
one per necklace inequality (`positroid.h_representation`), and
`labels_by_bases` keeps the basis filter as a reference.

Every wall of a label simplex is read off its word: the wall opposite
circuit vertex p bounds the block sum between the letters w_p and w_(p+1)
(Lam-Postnikov alcoves in prefix-sum coordinates), and is asserted on the
simplex's vertices.  Ordering the labels by distance from any base label
shells the triangulation, and cover(w), the number of walls of w's alcove
whose hyperplane separates it from the base alcove, counts the facets glued
to earlier simplices; counting the labels by cover gives the h*-vector,
a tuple of ints (`wall_covers`, `hstar_shelling`).  The walls do not depend
on the base: `label_walls` reads them once for scoring many bases.

The dual graph (two simplices share a facet exactly when the cycles differ
by one adjacent transposition of non-cyclically-adjacent values) and its
breadth-first search are the reference: `triangulate` reports them and
`verify` compares their covers with the wall covers.  Each alcove is an
affine permutation; read against the base alcove it gives the label's
window, and a consistency check verifies that every dual-graph edge crosses
one simple affine transposition and that Coxeter length is BFS distance.
Each label and each edge is visited once: a swap away from the letter n
is the word with two letters exchanged, the alcove's centroid is read off
the word in O(n) (`_alcove`), and an edge compares only the window entries
its transposition moves.

Every label simplex is unimodular (`simplex_is_unimodular`), and the check
needs no elimination: consecutive circuit vertices of a label differ by
e_v - e_(v-1), so the simplex's edge matrix reduces to the incidence matrix
of its cycle edges {v-1, v} with one vertex grounded, whose determinant is
+-1 exactly when those edges form a spanning tree of [n].  A union-find
decides that; a step of any other form is a broken circuit and raises
AssertionError.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (
    Word,
    circuit_masks,
    cyclic_interval,
    descent_bounded_words,
    label_word,
)
from .positroid import (
    GrassmannNecklace,
    HRepresentation,
    IntervalInequality,
    basis_masks,
    h_representation,
)


def enumerate_labels(necklace: GrassmannNecklace) -> tuple[Word, ...]:
    """Triangulation labels of a connected positroid polytope, sorted.

    One prefix-pruned search keeps the words w with w_n = n that have r
    cyclic left descents (at most r, and at most n-r in the reversed order)
    and whose restriction to [i, a] has at most the bound of the necklace
    inequality on x_[i,a] (`h_representation`).  Their circuit subsets must
    be bases (asserted); `labels_by_bases` is the brute-force reference.
    """
    n, r = necklace.n, necklace.rank
    if n == 1:
        return ((1,),)
    necklace.require_connected("triangulation")
    rows = [(tuple(range(1, n + 1)), r), (tuple(range(n, 0, -1)), n - r)] + [
        (cyclic_interval(q.start, q.stop, n), q.bound)
        for q in necklace.fact(h_representation).inequalities]
    words = descent_bounded_words(n, rows)
    labels = _labels_of_bases(words, necklace)
    if len(labels) != len(words):
        raise AssertionError("a label has a circuit subset that is not a basis")
    return labels


def labels_by_bases(necklace: GrassmannNecklace) -> tuple[Word, ...]:
    """Reference for `enumerate_labels`: the (n-1)! words w with w_n = n
    filtered by their circuit subsets being bases of rank r.  Uncached;
    `verify` and the tests compare the two, no production path calls it.
    """
    n = necklace.n
    if n == 1:
        return ((1,),)
    necklace.require_connected("triangulation")
    words = (head + (n,) for head in itertools.permutations(range(1, n)))
    return _labels_of_bases(words, necklace)


def _labels_of_bases(words: Iterable[Word], necklace: GrassmannNecklace) -> tuple[Word, ...]:
    """The words whose circuit subsets are all bases, in order (bases as bitmasks)."""
    bases = necklace.fact(basis_masks)
    return tuple(w for w in words if bases.issuperset(circuit_masks(w)))


def simplex_vertices(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Indicator vectors of the circuit subsets, in circuit order."""
    n = len(word)
    return tuple(tuple(m >> k & 1 for k in range(1, n + 1))
                 for m in circuit_masks(label_word(word)))


def simplex_facets(word: Sequence[int]) -> HRepresentation:
    """Facet inequalities of the projected simplex, one per circuit vertex.

    The facet opposite circuit vertex p bounds the sum over the block
    between the letters a = w_p and b = w_(p+1) (cyclically), that is
    x_min(a,b) + ... + x_(max(a,b)-1), at its value at the next circuit
    vertex; `_wall` asserts it on the vertices.  Facets are listed in
    circuit order (entry p is opposite vertex p).

    >>> for q in simplex_facets((3, 2, 4, 1, 5)).inequalities:
    ...     print(q.start, q.stop, q.sense, q.bound)
    2 3 <= 1
    2 4 >= 1
    1 4 <= 2
    1 5 >= 2
    3 5 <= 1
    """
    word = label_word(word)
    inequalities = [IntervalInequality(lo + 1, hi + 1, m, "<=" if at_p < m else ">=")
                    for lo, hi, m, at_p in _walls(word)]
    return HRepresentation(len(word), circuit_masks(word)[0].bit_count(), tuple(inequalities))


def _descent_prefix(word: Word) -> list[int]:
    """The word's own cyclic descent set in prefix sums z_0, ..., z_(n-1):
    z_q counts the letters a <= q that stand right of a + 1."""
    pos = [0] * (len(word) + 1)
    for p, v in enumerate(word):
        pos[v] = p
    return list(itertools.accumulate(map(int.__gt__, pos[1:-1], pos[2:]), initial=0))


def _z_vertices(word: Word) -> tuple[tuple[int, ...], ...]:
    """Circuit vertices in prefix sums z_q = x_1 + ... + x_q, q = 0..n-1.

    The last vertex is the word's own cyclic descent set (`_descent_prefix`);
    passing from one vertex to the next places the next letter v of the
    word, which lowers z_(v-1) by 1 for v >= 2 and raises z_1, ..., z_(n-1)
    by 1 for v = 1.
    """
    n = len(word)
    z = _descent_prefix(word)
    out = []
    for v in word:
        if v == 1:
            for q in range(1, n):
                z[q] += 1
        else:
            z[v - 1] -= 1
        out.append(tuple(z))
    return tuple(out)


def _wall(word: Word, z: Sequence[tuple[int, ...]], p: int) -> tuple[int, int, int, int]:
    """The wall opposite circuit vertex p, read off the word: (lo, hi, m, at_p).

    With a = w_p and b = w_(p+1) (cyclically), lo = min(a, b) - 1 and
    hi = max(a, b) - 1, the wall is z_hi - z_lo = m, its value at circuit
    vertex p + 1; at_p is the value at vertex p.  Asserted on the simplex
    (vertices ``z``): the value is m at the other n-1 vertices, which are
    affinely independent, and differs at vertex p.
    """
    n = len(word)
    a, b = word[p], word[(p + 1) % n]
    lo, hi = min(a, b) - 1, max(a, b) - 1
    values = [row[hi] - row[lo] for row in z]
    m, at_p = values[(p + 1) % n], values[p]
    if at_p == m or values.count(m) != n - 1:
        raise AssertionError(f"block {lo + 1}..{hi} is not the wall of {word} opposite vertex {p}")
    return lo, hi, m, at_p


def simplex_is_unimodular(word: Sequence[int]) -> bool:
    """Edge vectors from the first circuit vertex span the lattice (det +-1).

    The rows are the edge vectors v_q - v_0, q = 1..n-1, without their last
    coordinate.  Subtracting from each row the one before it keeps the
    determinant and leaves the steps v_q - v_(q-1) between consecutive
    circuit vertices.  When every step is one bit in and one bit out,
    e_i - e_j, the rows form the incidence matrix of a graph on [n] with
    n-1 edges and the column of vertex n deleted, whose determinant is +-1
    exactly when the edges form a spanning tree; a union-find over the
    steps decides that.  Edges that close a cycle are linearly dependent
    rows, so a cycle means det 0.
    The steps of a label word are its distinct cycle edges {v-1, v}, so a
    step of any other form means `circuit_masks` is wrong: AssertionError.
    """
    masks = circuit_masks(label_word(word))
    parent = list(range(len(masks) + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for before, after in zip(masks, masks[1:]):
        gained, lost = after & ~before, before & ~after
        if gained.bit_count() != 1 or lost.bit_count() != 1:
            raise AssertionError(f"a circuit step of {tuple(word)} is not e_i - e_j")
        i, j = find(gained.bit_length() - 1), find(lost.bit_length() - 1)
        if i == j:
            return False
        parent[i] = j
    return True


class TriangulationGraph(NamedTuple):
    """Dual graph of the triangulation, edges annotated with swap positions.

    ``swap_position[(u, v)]`` is the cyclic position p in u's word such that
    exchanging the entries at positions p, p+1 (indices mod n) of the cycle
    of u yields the cycle of v.  The two directions of an edge can carry
    different positions when the swap moves the letter n.
    """

    words: tuple[Word, ...]
    neighbors: Mapping[Word, tuple[Word, ...]]
    swap_position: Mapping[tuple[Word, Word], int]

    def edges(self) -> tuple[tuple[Word, Word], ...]:
        """Each edge once as (u, v) with u < v, sorted: ``words`` and every
        neighbor tuple are sorted, and the adjacency is symmetric."""
        return tuple((u, v) for u in self.words for v in self.neighbors[u] if u < v)


def build_graph(words: Iterable[Sequence[int]]) -> TriangulationGraph:
    """Adjacency by the swap rule, restricted to the given label set.

    u and v are adjacent iff the cycle of v is that of u with entries at
    cyclic positions p, p+1 exchanged and the exchanged values are not
    cyclically consecutive.  Away from the letter n the swap exchanges two
    letters of the word; the two swaps beside n (positions n-1 and n) carry
    a letter round to the other end.  The rule is symmetric, so each edge is
    asserted once, from its smaller word: the simplices share exactly n-1
    circuit subsets.
    """
    words = tuple(sorted(map(label_word, words)))
    ns = {len(w) for w in words}
    if len(ns) != 1:
        raise ValueError("labels have mixed ground-set sizes")
    n = ns.pop()
    circuits = {w: frozenset(circuit_masks(w)) for w in words}
    neighbors: dict[Word, tuple[Word, ...]] = {}
    swap_position: dict[tuple[Word, Word], int] = {}
    for word, circuit in circuits.items():
        adjacent = []
        for p in range(n):
            a, b = word[p], word[(p + 1) % n]
            if (a - b) % n in (1, n - 1):
                continue
            if p < n - 2:
                other = word[:p] + (b, a) + word[p + 2:]
            elif p == n - 2:
                other = (a,) + word[:p] + (b,)
            else:
                other = word[1:p] + (b, a)
            shared = circuits.get(other)
            if shared is None:
                continue
            if word < other and len(shared := circuit & shared) != n - 1:
                raise AssertionError(
                    f"swap rule joined {word} and {other} sharing {len(shared)} subsets")
            adjacent.append(other)
            swap_position[(word, other)] = p + 1
        neighbors[word] = tuple(sorted(adjacent))
    return TriangulationGraph(words, neighbors, swap_position)


class ShellingPoset(NamedTuple):
    """BFS distances and cover counts from a base label.

    cover(w) counts the neighbors of w one layer closer to the base; any
    linear extension by distance shells the triangulation, and cover(w) is
    the number of facets of the simplex of w glued to earlier simplices.
    """

    base: Word
    dist: Mapping[Word, int]
    cover: Mapping[Word, int]


def shelling_poset(graph: TriangulationGraph, base: Word) -> ShellingPoset:
    if base not in graph.neighbors:
        raise ValueError(f"{base} is not a label of the graph")
    dist = {base: 0}
    frontier = [base]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = sorted(nxt)
    if len(dist) != len(graph.words):
        raise AssertionError("triangulation graph is disconnected")
    cover = {w: sum(1 for v in graph.neighbors[w] if dist[v] == dist[w] - 1)
             for w in dist}
    return ShellingPoset(base, dist, cover)


Walls = tuple[tuple[int, int, int, int], ...]  # (lo, hi, m, at_p) per circuit vertex


def label_walls(words: Iterable[Sequence[int]]) -> dict[Word, Walls]:
    """Each label's walls (lo, hi, m, at_p) in circuit order, read by `_wall` (asserted).

    They do not depend on a base, so `wall_covers` can score many bases
    against one table.  A one-point simplex has no walls.
    """
    return {w: _walls(w) for w in map(label_word, words)}


def _walls(word: Word) -> Walls:
    n = len(word)
    z = _z_vertices(word)
    return tuple(_wall(word, z, p) for p in range(n if n > 1 else 0))


def wall_covers(labels: Sequence[Word] | Mapping[Word, Walls],
                base: Word) -> dict[Word, int]:
    """cover(w) of every label: the walls of its alcove that separate it from the base's.

    With floor[lo][hi] the least value of z_hi - z_lo on the base alcove,
    the wall z_hi - z_lo = m of a label (`_wall`, asserted) separates it
    from the base alcove when floor >= m if the label lies below the wall
    (at_p < m), and when floor < m if it lies above.  A separating wall is
    never on the boundary of the polytope, which is convex and holds the
    base alcove, so it is glued to a label closer to the base; the counts
    equal the BFS covers of `shelling_poset` (Lam-Postnikov, "Alcoved
    polytopes II"), which `verify` checks.  ``labels`` may be their
    `label_walls`, which are then not read again.
    """
    if base not in labels:
        raise ValueError(f"{base} is not a label of the graph")
    n = len(base)
    z0 = _z_vertices(label_word(base))
    floor = [[min(v[hi] - v[lo] for v in z0) for hi in range(n)] for lo in range(n)]
    walls = (labels.items() if isinstance(labels, Mapping)
             else ((w, _walls(w)) for w in map(label_word, labels)))
    return {w: sum(floor[lo][hi] >= m if at_p < m else floor[lo][hi] < m
                   for lo, hi, m, at_p in its_walls)
            for w, its_walls in walls}


def hstar_from_covers(cover: Mapping[Word, int]) -> tuple[int, ...]:
    """Sum of z^cover(w) over all labels, from `wall_covers` or
    `ShellingPoset.cover`, as an h*-vector: entry c counts the labels of cover c."""
    coeffs = [0] * (max(cover.values()) + 1)
    for c in cover.values():
        coeffs[c] += 1
    return tuple(coeffs)


def hstar_shelling(necklace: GrassmannNecklace, base: Word | None = None) -> tuple[int, ...]:
    """h*-polynomial of a connected positroid polytope by the cover statistic."""
    labels = necklace.fact(enumerate_labels)
    return hstar_from_covers(wall_covers(labels, labels[0] if base is None else base))


# ---------------------------------------------------------------------------
# Affine relabeling.  Working coordinates are prefix sums z_q = x_1 + ... +
# x_q for q = 0..n-1 (z_0 = 0); there the simplices are alcoves of the
# arrangement z_p - z_q in Z, and an alcove is an affine permutation whose
# window orders the shifted centroid coordinates (`_alcove`).  A label's
# window is its alcove read against the base alcove; the check confirms that
# each dual-graph edge multiplies it by one simple affine transposition and
# that its Coxeter length is the label's shelling distance.
# ---------------------------------------------------------------------------

Window = tuple[int, ...]


def window_length(window: Window) -> int:
    """Coxeter length of an affine permutation from its window: the sum of
    |floor((w_b - w_a) / n)| over the pairs a < b."""
    n = len(window)
    return sum([abs((b - a) // n) for a, b in itertools.combinations(window, 2)])


def _alcove(word: Word) -> Window:
    """The alcove of a label's simplex, as the window g of an affine map.

    With c_j the sum of z_j over the circuit vertices (n times the centroid)
    and k_j = -floor(c_j / n), the indices j sorted by c_j + n*k_j give
    g = [j + 1 + n*k_j], rotated to start at the word's first letter (entries
    that wrap gain n).  The sum needs no vertex table.  Vertex p is the
    descent-prefix vector z0 (`_descent_prefix`) after placing w_1, ..., w_p;
    placing the letter 1 raises every z_j (j >= 1) and placing j+1 lowers
    z_j, so over the n vertices, with pos the 0-based positions,
    c_j = n*z0_j + pos(j+1) - pos(1).  Hence c_j mod n orders j by the
    position of the letter j+1 read cyclically from the letter 1,
    k_j = [pos(j+1) < pos(1)] - z0_j, and after the rotation
    g_p = w_p + n*(e - z0_(w_p - 1)) with e = 0 if w_1 = 1, else 1.
    Asserted on the vertex table: the residues of g read the word, the n
    vertices are distinct, and every vertex lies in the closed alcove, i.e.
    z_((a-1) mod n) + floor((a-1)/n) is non-decreasing along g(1), ...,
    g(n), g(n+1) = g(1) + n (so its span is at most 1).  Together these say
    the simplex is that alcove.
    """
    n = len(word)
    z = _z_vertices(word)
    z0 = _descent_prefix(word)
    g = [a + n * ((word[0] != 1) - z0[a - 1]) for a in word]
    steps = [divmod(a - 1, n) for a in g + [g[0] + n]]  # (shift, residue) pairs
    inside = True
    for v in z:
        prev = v[steps[0][1]] + steps[0][0]
        for shift, residue in steps:
            value = v[residue] + shift
            if value < prev:
                inside = False
            prev = value
    if [(a - 1) % n + 1 for a in g] != list(word) or len(set(z)) != n or not inside:
        raise AssertionError(f"the simplex of {word} is not the alcove {g}")
    return tuple(g)


class AffineLabelingReport(NamedTuple):
    """Result of the affine-window consistency check on a triangulation graph."""

    base: Word
    windows: Mapping[Word, Window]
    ok: bool
    problems: tuple[str, ...]


def affine_consistency_check(graph: TriangulationGraph,
                             poset: ShellingPoset) -> AffineLabelingReport:
    """Read every label's window off its alcove and verify it on the dual graph.

    With g0 the base alcove and g the label's, the window is
    i -> g0^-1(g(i + k)), the shift k making the entries sum to n(n+1)/2; the
    base gets the identity.  The check fails if an edge u -> v at swap
    position p does not relate the windows by the simple transposition with
    index i = (p - 1 - k_u) mod n + 1 (right multiplication swaps entries i
    and i+1, or for i = n gives the first w_n - n and the last w_1 + n), or
    if a window's Coxeter length differs from its distance in the shelling
    poset.
    Problems list the failed edges in sorted order, then the lengths.
    """
    n = len(poset.base)
    inverse = [0] * n  # the window of g0^-1
    for r, a in enumerate(_alcove(poset.base)):
        inverse[(a - 1) % n] = r + 1 - n * ((a - 1) // n)
    windows: dict[Word, Window] = {}
    shifts: dict[Word, int] = {}
    for word in graph.words:
        relative = [inverse[(a - 1) % n] + n * ((a - 1) // n) for a in _alcove(word)]
        k = (n * (n + 1) // 2 - sum(relative)) // n
        q, r = divmod(k, n)
        windows[word] = tuple([a + n * q for a in relative[r:]]
                              + [a + n * (q + 1) for a in relative[:r]])
        shifts[word] = k

    failed = []
    for (u, v), p in graph.swap_position.items():
        i = (p - 1 - shifts[u]) % n
        wu, wv = windows[u], windows[v]
        if i < n - 1:
            moved = (wu[i] == wv[i + 1] and wu[i + 1] == wv[i]
                     and wu[:i] == wv[:i] and wu[i + 2:] == wv[i + 2:])
        else:
            moved = wu[0] + n == wv[-1] and wu[-1] - n == wv[0] and wu[1:-1] == wv[1:-1]
        if not moved:
            failed.append(((u, v), i + 1))
    problems = [f"edge {u} -> {v}: window {windows[v]} is not windows[{u}] * s_{generator}"
                for (u, v), generator in sorted(failed)]
    for w, win in windows.items():
        if (length := window_length(win)) != poset.dist[w]:
            problems.append(
                f"window length {length} of {w} differs from BFS distance {poset.dist[w]}")
    return AffineLabelingReport(poset.base, windows, not problems, tuple(problems))
