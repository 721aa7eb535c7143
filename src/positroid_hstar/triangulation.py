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
`labels_by_bases` keeps the basis filter as a reference.  Both keep the
circuit table their basis filter read (`Labels`).

Every wall of a label simplex is read off its word: the wall opposite
circuit vertex p bounds the block sum between the letters w_p and w_(p+1)
(Lam-Postnikov alcoves in prefix-sum coordinates), and `simplex_facets`
asserts it on the simplex's vertices.  Ordering the labels by distance from
any base label shells the triangulation, and cover(w), the number of walls
of w's alcove that separate it from the base alcove, counts the facets
glued to earlier simplices.  It is the number of cyclic descents of w's
window read against the base alcove, so `wall_covers` reads no wall;
counting the labels by cover gives the h*-vector, a tuple of ints
(`hstar_shelling`).  A label's alcove depends on its word alone, so
`_alcove` keeps it in a bounded memo (`_WORDS_KEPT`): a batch derives and
asserts each word's once, however many positroids have it as a label.

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
its transposition moves.  The graph, the search and the check run over
label indices: the sorted words are looked up once per swap, and every
per-label table (circuits, neighbors and swap positions, distances,
windows and shifts) is a list aligned with the words.  Word-keyed mappings
are built once, for the results.

Every label simplex is unimodular (`simplex_is_unimodular`), and the check
needs no elimination: consecutive circuit vertices of a label differ by
e_v - e_(v-1), so the simplex's edge matrix reduces to the incidence matrix
of its cycle edges {v-1, v} with one vertex grounded, whose determinant is
+-1 exactly when those edges form a spanning tree of [n].  A union-find
decides that; a step of any other form is a broken circuit and raises
AssertionError.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from array import array
from types import MappingProxyType
from typing import Iterable, Mapping, MutableSequence, NamedTuple, Sequence

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
    bases_from_necklace,
    h_representation,
)


class Labels(tuple):
    """Sorted label words that carry their circuit masks.

    ``circuits`` is the flat table the basis assertion read (`_mask_table`):
    the `core.circuit_masks` of word i are ``circuits[i*n:(i+1)*n]``.
    `build_graph` reuses it, so each label's circuit is computed once on the
    way to the dual graph.  Slices and copies are plain tuples.
    """

    circuits: Sequence[int]


def _mask_table(n: int) -> MutableSequence[int]:
    """An empty flat table for the circuit masks of words of length n, which
    have bits 1..n: an array of 2-byte or 8-byte items, so that a table costs
    less memory than the words."""
    return array("H") if n < 16 else array("Q") if n < 64 else []


def enumerate_labels(necklace: GrassmannNecklace) -> tuple[Word, ...]:
    """Triangulation labels of a connected positroid polytope, sorted.

    One prefix-pruned search keeps the words w with w_n = n that have r
    cyclic left descents (at most r, and at most n-r in the reversed order)
    and whose restriction to [i, a] has at most the bound of the necklace
    inequality on x_[i,a] (`h_representation`).  Their circuit subsets must
    be bases (asserted); `labels_by_bases` is the brute-force reference.
    Past n = 1 the result is `Labels`, with the circuit table the assertion read.
    """
    n, r = necklace.n, necklace.rank
    if n == 1:
        return ((1,),)
    necklace.require_connected("triangulation")
    rows = [(tuple(range(1, n + 1)), r), (tuple(range(n, 0, -1)), n - r)] + [
        (cyclic_interval(q.start, q.stop, n), q.bound)
        for q in necklace.fact(h_representation).inequalities]
    words = descent_bounded_words(n, rows)
    labels = _labels_of_bases(zip(words, map(circuit_masks, words)), necklace)
    if len(labels) != len(words):
        raise AssertionError("a label has a circuit subset that is not a basis")
    return labels


def labels_by_bases(necklace: GrassmannNecklace) -> tuple[Word, ...]:
    """Reference for `enumerate_labels`: the (n-1)! words w with w_n = n
    filtered by their circuit subsets being bases of rank r.  `verify` and
    the tests compare the two, no production path calls it.
    """
    n = necklace.n
    if n == 1:
        return ((1,),)
    necklace.require_connected("triangulation")
    return _labels_of_bases(_every_word(n), necklace)


@functools.lru_cache(maxsize=8)
def _every_word(n: int) -> tuple[tuple[Word, tuple[int, ...]], ...]:
    """The (n-1)! words w with w_n = n, each with its circuit masks.  They
    depend on n only, so the tables of the last 8 values of n are kept: a
    batch that interleaves n builds each n's table once, and every n <= 8
    together holds 5,913 words."""
    return tuple((w, circuit_masks(w)) for w in
                 (head + (n,) for head in itertools.permutations(range(1, n))))


def _labels_of_bases(circuits: Iterable[tuple[Word, Sequence[int]]], necklace: GrassmannNecklace) -> Labels:
    """The words whose circuit subsets are all bases, in order (bases as
    bitmasks), with their circuits, from (word, circuit masks) pairs."""
    bases = necklace.fact(bases_from_necklace).bases
    kept, table = [], _mask_table(necklace.n)
    for w, masks in circuits:
        if bases.issuperset(masks):
            kept.append(w)
            table.extend(masks)
    labels = Labels(kept)
    labels.circuits = table
    return labels


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
    circuit order (entry p is opposite vertex p); a one-point simplex has none.

    >>> for q in simplex_facets((3, 2, 4, 1, 5)).inequalities:
    ...     print(q.start, q.stop, q.sense, q.bound)
    2 3 <= 1
    2 4 >= 1
    1 4 <= 2
    1 5 >= 2
    3 5 <= 1
    """
    word = label_word(word)
    n, z = len(word), _z_vertices(word)
    inequalities = [IntervalInequality(lo + 1, hi + 1, m, "<=" if at_p < m else ">=")
                    for lo, hi, m, at_p in (_wall(word, z, p) for p in range(n if n > 1 else 0))]
    return HRepresentation(n, circuit_masks(word)[0].bit_count(), tuple(inequalities))


def _descent_prefix(word: Word) -> list[int]:
    """The word's own cyclic descent set in prefix sums z_0, ..., z_(n-1):
    z_q counts the letters a <= q that stand right of a + 1."""
    pos = [0] * (len(word) + 1)
    for p, v in enumerate(word):
        pos[v] = p
    return list(itertools.accumulate(map(int.__gt__, pos[1:-1], pos[2:]), initial=0))


def _z_vertices(word: Word, z0: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """Circuit vertices in prefix sums z_q = x_1 + ... + x_q, q = 0..n-1.

    The last vertex is the word's own cyclic descent set z0
    (`_descent_prefix`, computed unless given); passing from one vertex to
    the next places the next letter v of the word, which lowers z_(v-1) by 1
    for v >= 2 and raises z_1, ..., z_(n-1) by 1 for v = 1.
    """
    n = len(word)
    z = _descent_prefix(word) if z0 is None else list(z0)
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
    return labels_are_unimodular([label_word(word)])


def labels_are_unimodular(labels: Sequence[Word]) -> bool:
    """`simplex_is_unimodular` of every label, off the circuit table of `Labels`."""
    table = (labels.circuits if isinstance(labels, Labels)
             else [m for w in labels for m in circuit_masks(w)])

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for k, word in enumerate(labels):
        n = len(word)
        masks, parent = table[k * n:(k + 1) * n], list(range(n + 1))
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
    """Dual graph of the triangulation over label indices.

    ``words`` is sorted, and every per-label table is aligned with it:
    ``adjacent[i]`` lists the indices of word i's neighbors and
    ``positions[i]`` their swap positions, in increasing position.  The
    neighbor at position p is reached by exchanging the entries at cyclic
    positions p, p+1 (indices mod n) of the cycle of word i.  The two
    directions of an edge can carry different positions when the swap moves
    the letter n.  ``neighbors`` and ``swap_position`` are word-keyed
    read-only views, built on each access.
    """

    words: tuple[Word, ...]
    adjacent: tuple[tuple[int, ...], ...]
    positions: tuple[tuple[int, ...], ...]

    @property
    def neighbors(self) -> Mapping[Word, tuple[Word, ...]]:
        """Each word's neighbors, sorted."""
        words = self.words
        return MappingProxyType({w: tuple([words[j] for j in sorted(adj)])
                                 for w, adj in zip(words, self.adjacent)})

    @property
    def swap_position(self) -> Mapping[tuple[Word, Word], int]:
        """The position of each directed edge (u, v), by u and then by position."""
        words = self.words
        return MappingProxyType({(u, words[j]): p for u, adj, pos in
                                 zip(words, self.adjacent, self.positions)
                                 for j, p in zip(adj, pos)})

    def index_edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (i, j) with i < j, sorted (the adjacency is symmetric)."""
        return tuple((i, j) for i, adj in enumerate(self.adjacent) for j in sorted(adj) if i < j)

    def edges(self) -> tuple[tuple[Word, Word], ...]:
        """`index_edges` as word pairs (u, v) with u < v, sorted like ``words``."""
        words = self.words
        return tuple((words[i], words[j]) for i, j in self.index_edges())


def build_graph(words: Iterable[Sequence[int]]) -> TriangulationGraph:
    """Adjacency by the swap rule, restricted to the given label set.

    u and v are adjacent iff the cycle of v is that of u with entries at
    cyclic positions p, p+1 exchanged and the exchanged values are not
    cyclically consecutive.  Away from the letter n the swap exchanges two
    letters of the word; the two swaps beside n (positions n-1 and n) carry
    a letter round to the other end.  The rule is symmetric, so each edge is
    asserted once, from its smaller word: the simplices share exactly n-1
    circuit subsets.  `Labels` bring their circuit table; other words are
    checked (`core.label_word`) and sorted, and their circuits computed.
    """
    circuits = words.circuits if isinstance(words, Labels) else None
    words = tuple(words) if circuits is not None else tuple(sorted(map(label_word, words)))
    ns = {len(w) for w in words}
    if len(ns) != 1:
        raise ValueError("labels have mixed ground-set sizes")
    n = ns.pop()
    if circuits is None:
        circuits = _mask_table(n)
        for w in words:
            circuits.extend(circuit_masks(w))
    index = {w: i for i, w in enumerate(words)}
    adjacent, positions = [], []
    for i, word in enumerate(words):
        adj, pos = [], []
        circuit = None
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
            j = index.get(other)
            if j is None:
                continue
            if i < j:
                if circuit is None:
                    circuit = frozenset(circuits[i * n:i * n + n])
                if len(shared := circuit.intersection(circuits[j * n:j * n + n])) != n - 1:
                    raise AssertionError(
                        f"swap rule joined {word} and {other} sharing {len(shared)} subsets")
            adj.append(j)
            pos.append(p + 1)
        adjacent.append(tuple(adj))
        positions.append(tuple(pos))
    return TriangulationGraph(words, tuple(adjacent), tuple(positions))


class ShellingPoset(NamedTuple):
    """BFS distances and cover counts from a base label, keyed by word in
    the order of the graph's ``words``.

    cover(w) counts the neighbors of w one layer closer to the base; any
    linear extension by distance shells the triangulation, and cover(w) is
    the number of facets of the simplex of w glued to earlier simplices.
    """

    base: Word
    dist: Mapping[Word, int]
    cover: Mapping[Word, int]


def shelling_poset(graph: TriangulationGraph, base: Sequence[int]) -> ShellingPoset:
    words, adjacent, base = graph.words, graph.adjacent, tuple(base)
    b = bisect.bisect_left(words, base)
    if b == len(words) or words[b] != base:
        raise ValueError(f"{base} is not a label of the graph")
    dist = [-1] * len(words)
    dist[b] = 0
    frontier, layer = [b], 0
    while frontier:
        layer += 1
        nxt = []
        for u in frontier:
            for v in adjacent[u]:
                if dist[v] < 0:
                    dist[v] = layer
                    nxt.append(v)
        frontier = nxt
    if -1 in dist:
        raise AssertionError("triangulation graph is disconnected")
    cover = [sum([dist[v] == d - 1 for v in adj]) for d, adj in zip(dist, adjacent)]
    return ShellingPoset(base, dict(zip(words, dist)), dict(zip(words, cover)))


def wall_covers(labels: Sequence[Word], base: Sequence[int]) -> dict[Word, int]:
    """cover(w) of every label: the walls of its alcove that separate it from the base's.

    With g the label's alcove and g0 the base's, those walls are the right
    descents of g0^-1 g (Bjorner-Brenti, "Combinatorics of Coxeter Groups",
    ch. 8; Lam-Postnikov, "Alcoved polytopes II"): the p in 1..n where its
    window x has x_p > x_(p+1), with x_(n+1) = x_1 + n.  By `_alcove`'s
    formula that window is x_p = inverse[w_p - 1] - n*z0_(w_p - 1) up to a
    constant shift (`_inverse_window`, z0 the label's `_descent_prefix`), so
    no wall is read.  A separating wall is never on the boundary of the
    polytope, which holds the base alcove, so it is glued to a label closer
    to the base: the counts equal the BFS covers of `shelling_poset`, which
    `verify` checks.
    """
    return _covers_by_base(labels, [base])[0]


def _covers_by_base(labels: Sequence[Word], bases: Sequence[Sequence[int]]) -> list[dict[Word, int]]:
    """`wall_covers` from each base, in one pass over the labels: each label
    is checked and its descent prefix z0 derived once, for every base."""
    bases = [tuple(base) for base in bases]
    for base in bases:
        if base not in labels:
            raise ValueError(f"{base} is not a label of the graph")
    n = len(bases[0])
    inverses = [_inverse_window(label_word(base)) for base in bases]
    covers = [{} for _ in bases]
    for w in map(label_word, labels):
        if len(w) != n:
            raise ValueError("labels have mixed ground-set sizes")
        z0 = _descent_prefix(w)
        for inverse, cover in zip(inverses, covers):
            x = [inverse[a - 1] - n * z0[a - 1] for a in w]
            cover[w] = sum(map(int.__gt__, x, x[1:] + [x[0] + n]))
    return covers


def _histogram(values: Iterable[int]) -> tuple[int, ...]:
    """Entry c counts the values equal to c, in one pass: the h* of a label statistic.

    >>> _histogram([2, 0, 2, 3])
    (1, 0, 2, 1)
    """
    counts: list[int] = []
    for c in values:
        if c >= len(counts):
            counts.extend([0] * (c + 1 - len(counts)))
        counts[c] += 1
    if not counts:
        raise ValueError("no values to count")
    return tuple(counts)


def hstar_from_covers(cover: Mapping[Word, int]) -> tuple[int, ...]:
    """Sum of z^cover(w) over all labels, from `wall_covers` or
    `ShellingPoset.cover`, as an h*-vector: entry c counts the labels of cover c."""
    return _histogram(cover.values())


def hstar_shelling(necklace: GrassmannNecklace,
                   base: Sequence[int] | None = None) -> tuple[int, ...]:
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


# Alcoves kept: every word with n <= 7 (874) and most of the 5,040 with n = 8.
_WORDS_KEPT = 4096


@functools.lru_cache(maxsize=_WORDS_KEPT)
def _alcove(word: Word) -> Window:
    """The alcove of a label's simplex, as the window g of an affine map,
    kept per word (`_WORDS_KEPT`).

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
    z0 = _descent_prefix(word)
    z = _z_vertices(word, z0)
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


def _inverse_window(base: Word) -> list[int]:
    """The window of g0^-1, g0 the base label's alcove (`_alcove`)."""
    n = len(base)
    inverse = [0] * n
    for r, a in enumerate(_alcove(base)):
        inverse[(a - 1) % n] = r + 1 - n * ((a - 1) // n)
    return inverse


class AffineLabelingReport(NamedTuple):
    """Result of the affine-window consistency check on a triangulation graph;
    ``windows`` is keyed by word in the order of the graph's ``words``."""

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
    words = graph.words
    inverse = _inverse_window(poset.base)
    windows, shifts = [], []
    for word in words:
        relative = [inverse[(a - 1) % n] + n * ((a - 1) // n) for a in _alcove(word)]
        k = (n * (n + 1) // 2 - sum(relative)) // n
        q, r = divmod(k, n)
        windows.append(tuple([a + n * q for a in relative[r:]]
                             + [a + n * (q + 1) for a in relative[:r]]))
        shifts.append(k)

    failed = []
    for u, (adj, pos) in enumerate(zip(graph.adjacent, graph.positions)):
        wu, k = windows[u], shifts[u]
        for v, p in zip(adj, pos):
            i = (p - 1 - k) % n
            wv = windows[v]
            if i < n - 1:
                moved = (wu[i] == wv[i + 1] and wu[i + 1] == wv[i]
                         and wu[:i] == wv[:i] and wu[i + 2:] == wv[i + 2:])
            else:
                moved = wu[0] + n == wv[-1] and wu[-1] - n == wv[0] and wu[1:-1] == wv[1:-1]
            if not moved:
                failed.append((u, v, i + 1))
    problems = [f"edge {words[u]} -> {words[v]}: window {windows[v]} is not "
                f"windows[{words[u]}] * s_{generator}" for u, v, generator in sorted(failed)]
    dist = poset.dist
    for w, win in zip(words, windows):
        if (length := window_length(win)) != dist[w]:
            problems.append(
                f"window length {length} of {w} differs from BFS distance {dist[w]}")
    return AffineLabelingReport(poset.base, dict(zip(words, windows)), not problems,
                                tuple(problems))
