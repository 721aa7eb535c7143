"""Exact references that only the tests use."""

import itertools
from fractions import Fraction

from positroid_hstar import triangulation as tg
from positroid_hstar.core import (
    circuit_masks,
    cyclic_interval,
    i_order_key,
    label_word,
    mask_elements,
)
from positroid_hstar.ehrhart import _body, _run
from positroid_hstar.positroid import (
    GrassmannNecklace,
    IntervalInequality,
    PositroidBases,
)


def masks_of(subsets):
    """Bases written as element lists, as bitmasks (bit k for element k).

    >>> sorted(masks_of([(1, 3), (2,)]))
    [4, 10]
    """
    return frozenset(sum(1 << v for v in b) for b in subsets)


def element_bases(n, r, subsets):
    """``PositroidBases`` on 1..n of rank r, from bases as element lists."""
    return PositroidBases(n, r, masks_of(subsets))


def element_sets(bases):
    """The bases of a ``PositroidBases`` as element frozensets."""
    return frozenset(frozenset(mask_elements(b)) for b in bases.bases)


def vertices(bases):
    """Indicator vectors of the bases, sorted lexicographically: the tuple
    form of a basis, the reference for face dimensions and tight sets.

    >>> vertices(element_bases(3, 2, [(2, 3), (1, 3)]))
    ((0, 1, 1), (1, 0, 1))
    """
    return tuple(sorted(tuple(b >> k & 1 for k in range(1, bases.n + 1)) for b in bases.bases))


def reference_is_matroid(bases):
    """``positroid.is_matroid`` in set algebra: the exhaustive basis-exchange
    check on element sets."""
    coll = element_sets(bases)
    for left, right in itertools.product(coll, repeat=2):
        for i in left - right:
            if not any(left - {i} | {j} in coll for j in right - left):
                return False
    return True


def reference_stabilized_intervals(perm):
    """The proper cyclic intervals I of 1..n, wrapping ones included, with
    perm(I) = I; the positroid is connected exactly when there is none
    (``positroid.necklace_connected``).

    >>> reference_stabilized_intervals((2, 1, 3))
    [(1, 2), (3,)]
    """
    n = len(perm)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            interval = cyclic_interval(i, j, n)
            members = set(interval)
            if len(interval) < n and {perm[v - 1] for v in members} == members:
                out.append(interval)
    return out


def determinant(rows):
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination: the signed last pivot, every division exact.

    >>> determinant([[2, 1], [1, 1]]), determinant([[1, 2], [2, 4]]), determinant([])
    (1, 0, 1)
    """
    work = [list(row) for row in rows]
    prev, sign = 1, 1
    for c in range(len(work)):
        pivot = next((k for k, row in enumerate(work) if row[c]), None)
        if pivot is None:
            return 0
        if pivot % 2:
            sign = -sign
        top = work.pop(pivot)
        p = top[c]
        work = [[(p * x - row[c] * y) // prev for x, y in zip(row, top)] for row in work]
        prev = p
    return sign * prev


def affine_rank(points):
    """Dimension of the affine hull of integer points (-1 if empty), by
    fraction-free (Bareiss) elimination of their differences from the first.

    >>> affine_rank([]), affine_rank([(0, 1), (1, 0), (2, -1)])
    (-1, 1)
    >>> affine_rank([(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    2
    """
    pts = [list(p) for p in points]
    if not pts:
        return -1
    work = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    rank, prev = 0, 1
    for c in range(len(pts[0])):
        pivot = next((k for k, row in enumerate(work) if row[c]), None)
        if pivot is None:
            continue
        top = work.pop(pivot)
        p = top[c]
        work = [[(p * x - row[c] * y) // prev for x, y in zip(row, top)] for row in work]
        rank, prev = rank + 1, p
    return rank


def gale_leq(s, t, i, n):
    """Gale partial order on equal-size subsets of 1..n with respect to <_i.

    S <= T holds iff, after sorting both sides by <_i, every element of S
    is <=_i the element of T in the same position.

    >>> gale_leq({1, 3}, {2, 3}, 1, 4)
    True
    >>> gale_leq({1, 2}, {1, 3}, 2, 3), gale_leq({1, 3}, {1, 2}, 2, 3)
    (True, False)
    """
    s, t = frozenset(s), frozenset(t)
    if len(s) != len(t):
        raise ValueError(f"subsets have different sizes {len(s)} and {len(t)}")
    if any(not 1 <= v <= n for v in s | t):
        raise ValueError("subset elements outside 1..n")
    key = i_order_key(i, n)
    return all(key(a) <= key(b) for a, b in zip(sorted(s, key=key), sorted(t, key=key)))


def unwrapped(q, r):
    """The same row on a block that does not wrap past n: with
    x_1 + ... + x_n = r, a wrapping sum is r minus the sum over the
    complementary block [stop, start), so bound and sense flip.  The
    complement rule that ``IntervalInequality.difference_bound`` replaced."""
    if q.start <= q.stop:
        return q
    return IntervalInequality(q.stop, q.start, r - q.bound, ">=" if q.sense == "<=" else "<=",
                              q.strict)


def reference_difference_bound(q, r):
    """``IntervalInequality.difference_bound`` by unwrapping and flipping: a
    "<=" row on x_start, ..., x_(stop-1) bounds z_(stop-1) - z_(start-1), a
    ">=" row the reverse difference.

    >>> reference_difference_bound(IntervalInequality(4, 3, 2, "<="), 2)
    (3, 2, 0)
    """
    q = unwrapped(q, r)
    return ((q.start - 1, q.stop - 1, q.bound) if q.sense == "<="
            else (q.stop - 1, q.start - 1, -q.bound))


def reference_turned(hrep, cut):
    """The rows of an H-representation as bounds (u, v, c, sense) in the
    coordinates x_(cut+1), ..., x_n, x_1, ..., x_cut: each cyclic block
    relabelled, then read by ``reference_difference_bound``; the sense is
    the row's own.  ``ehrhart._facet_rows`` keeps the facets so."""
    n, r = hrep.n, hrep.r
    return tuple((*reference_difference_bound(IntervalInequality(
        (q.start - 1 - cut) % n + 1, (q.stop - 1 - cut) % n + 1, q.bound, q.sense), r), q.sense)
        for q in hrep.inequalities)


def contains(hrep, point, dilate=1):
    """Membership of a point in the ``dilate``-th dilate of an
    ``HRepresentation``: the reference for rational points and strict rows.

    Strict inequalities are taken literally on rational points.  A point
    of ints is tested in ints; any other entries are read as Fractions.

    >>> from positroid_hstar.positroid import HRepresentation, IntervalInequality
    >>> H = HRepresentation(3, 1, (IntervalInequality(1, 2, 1, "<=", strict=True),))
    >>> contains(H, (0, 1, 0)), contains(H, (1, 0, 0)), contains(H, (Fraction(1, 2), 0, 0.5))
    (True, False, True)
    """
    x = list(point)
    if not all(type(v) is int for v in x):
        x = [Fraction(v) for v in x]
    if len(x) != hrep.n:
        raise ValueError("wrong dimension")
    if sum(x) != dilate * hrep.r:
        return False
    if any(v < 0 or v > dilate for v in x):
        return False
    for ineq in hrep.inequalities:
        total = sum(x[k - 1] for k in ineq.support(hrep.n))
        bound = dilate * ineq.bound
        if ineq.strict:
            if (total >= bound) if ineq.sense == "<=" else (total <= bound):
                return False
        else:
            if (total > bound) if ineq.sense == "<=" else (total < bound):
                return False
    return True


def cyclic_left_descents(word, order=None):
    """Cyclic left descent set of a word over a totally ordered ground set.

    ``order`` lists the ground set increasingly and defaults to sorted(word).
    A letter is a descent when it appears to the right of its cyclic
    successor (the minimal letter succeeds the maximal one), so singleton
    words have no descents.

    >>> sorted(cyclic_left_descents((2, 4, 1, 3, 5)))
    [1, 3, 5]
    >>> sorted(cyclic_left_descents((3, 4, 1, 5), order=(3, 4, 5, 1)))
    [1, 5]
    """
    ground = tuple(sorted(word)) if order is None else tuple(order)
    if len(word) != len(ground) or set(word) != set(ground) or len(set(word)) != len(word):
        raise ValueError("word is not a permutation of the ground set")
    pos = {v: p for p, v in enumerate(word)}
    return frozenset(a for a, b in zip(ground, ground[1:] + ground[:1]) if pos[a] > pos[b])


def face_equalities(poset, node):
    """The equalities (start, stop, bound) of the upper facets that cut out a
    node of ``halfopen.face_poset_of_uppers``: bit i of its generators."""
    return [(f.start, f.stop, f.bound)
            for i, f in enumerate(poset.facet_list) if node.generators >> i & 1]


def tally_dilates(n):
    """The dilates ``ehrhart.upper_tally`` counts: t = 0..max(1, n - 3), and
    t = 0 alone at n = 2, where every face of an upper facet is a vertex.

    >>> [list(tally_dilates(n)) for n in range(2, 8)]
    [[0], [0, 1], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]]
    """
    return range(1) if n == 2 else range(max(1, n - 3) + 1)


def below_the_top(dim):
    """The dilates that fix the h* of a ``dim``-dimensional 0/1 polytope:
    t = 0..dim - 1, as h*_dim = 0, and t = 1 for the check of E(1) against
    its vertices; t = 0 alone for a point.

    >>> [list(below_the_top(dim)) for dim in range(5)]
    [[0], [0, 1], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
    """
    return range(max(dim - 1, min(dim, 1)) + 1)


def face_counts(tally, generators):
    """Counts at the tally's dilates of the face where the upper facets of
    the ``generators`` mask are tight, read off ``ehrhart.upper_tally``: the
    rows whose mask contains them, summed, as inclusion-exclusion reads them."""
    rows = [row for mask, row in tally.items() if mask & generators == generators]
    return tuple(map(sum, zip(*rows)))


def half_open_profile(necklace):
    """Counts of the half-open polytope at every dilate t = 0..n-1: the
    facets with the upper ones strict.  The reference for
    ``halfopen.hstar_half_open_by_counting``, which stops at the h*-degree."""
    body = _body(necklace, {"<="})
    return tuple(sum(_run(body, t).values()) for t in range(necklace.n))


def reference_interpolate(counts):
    """Coefficients, in ascending degree, of the polynomial of degree d
    through (t, E(t)) for t = 0..d, d = len(counts) - 1, by Lagrange
    interpolation over plain Fraction lists.  The reference for
    ``EhrhartPolynomial.coefficients``; every body counted is
    full-dimensional in its affine hull, so the interpolant must have
    degree d (asserted).

    >>> [str(c) for c in reference_interpolate((1, 5, 14, 30))]
    ['1', '13/6', '3/2', '1/3']
    """
    d = len(counts) - 1
    total = [Fraction(0)] * (d + 1)
    for k, value in enumerate(counts):
        term = [Fraction(value)]
        for m in range(d + 1):
            if m != k:  # multiply by (t - m) / (k - m)
                term = [(below - m * c) / (k - m) for c, below in zip(term + [0], [0] + term)]
        total = [a + b for a, b in zip(total, term)]
    assert total[-1] != 0, f"interpolant of degree below {d}"
    return tuple(total)


def reference_necklace_from_bases(bases):
    """``positroid.necklace_from_bases`` by sorted comparisons: J_i is the
    <_i-lexicographically least basis, checked Gale-below every basis with
    ``gale_leq``, else the same ValueError."""
    n, coll = bases.n, element_sets(bases)
    subsets = []
    for i in range(1, n + 1):
        key = i_order_key(i, n)
        best = min(coll, key=lambda b: tuple(sorted(key(v) for v in b)))
        if not all(gale_leq(best, other, i, n) for other in coll):
            raise ValueError(f"no Gale minimum for <_{i}; input is not a matroid")
        subsets.append(best)
    return GrassmannNecklace(n, tuple(subsets))


def reference_cut_costs(hrep):
    """``ehrhart._cut_costs`` in its arc model, which restates the kernel's
    rules by hand.  At any t >= 1 a row on z_b - z_a is read unless the box
    implies it: an upper row's bound is at least b - a, or a lower row's is
    at most 0.  Then z_a is held after the steps a+1..b-1.  In the cycle of
    prefix sums a row is one of two complementary blocks, the one that
    neither wraps at the cut nor ends there, so every row offers two arcs,
    each read from its first point, and the cut picks one; z_0 costs
    nothing."""
    n, r = hrep.n, hrep.r
    t = n - 2
    if t < 1:
        return [0] * n
    arcs = []  # (a, b, the arc read when the cut is not in a+1..b, the arc when it is)
    for q in hrep.inequalities:
        a, b, bound, upper = q.start - 1, q.stop - 1, q.bound, q.sense == "<="
        length = b - a
        kept = bound < length if upper else bound > 0
        kept_flip = r - bound > 0 if upper else r - bound < n - length
        arcs.append((a, b, (a, length) if kept else None, (b, n - length) if kept_flip else None))
    weight = [(t + 1) ** (k + 1) for k in range(n)]
    costs = []
    for cut in range(n):
        reach = [0] * n  # reach[p]: the longest arc read from the prefix sum at p
        for a, b, plain, flipped in arcs:
            arc = flipped if a < cut <= b else plain
            if arc and arc[0] != cut and arc[1] > reach[arc[0]]:
                reach[arc[0]] = arc[1]
        live = [0] * (n + 1)
        for p, length in enumerate(reach):
            if length > 1:
                q = (p - cut) % n
                live[q + 1] += 1
                live[q + length] -= 1
        cost = held = 0
        for change in live[1:]:
            held += change
            cost += weight[held]
        costs.append(cost)
    return costs


def _canonical_cycle_word(cycle):
    """Rotate a cyclic sequence so that it ends with its maximum (= n)."""
    k = cycle.index(max(cycle))
    return tuple(cycle[k + 1:]) + tuple(cycle[:k + 1])


def reference_build_graph(words):
    """``triangulation.build_graph`` by rotating every swapped cycle: each
    swap copies the cycle, exchanges two entries and rotates n to the end,
    and each edge direction asserts the shared circuit subsets.  Neighbors
    are listed in the order of their swap positions."""
    words = tuple(sorted(map(label_word, words)))
    ns = {len(w) for w in words}
    if len(ns) != 1:
        raise ValueError("labels have mixed ground-set sizes")
    n = ns.pop()
    circuits = {w: frozenset(circuit_masks(w)) for w in words}
    neighbors = {w: [] for w in circuits}
    swap_position = {}
    for word, circuit in circuits.items():
        for p in range(n):
            a, b = word[p], word[(p + 1) % n]
            if (a - b) % n in (1, n - 1):
                continue
            cycle = list(word)
            cycle[p], cycle[(p + 1) % n] = cycle[(p + 1) % n], cycle[p]
            other = _canonical_cycle_word(cycle)
            if other in circuits:
                shared = circuit & circuits[other]
                if len(shared) != n - 1:
                    raise AssertionError(
                        f"swap rule joined {word} and {other} sharing {len(shared)} subsets")
                neighbors[word].append(other)
                swap_position[(word, other)] = p + 1
    index = {w: i for i, w in enumerate(words)}
    return tg.TriangulationGraph(
        words,
        tuple(tuple(index[v] for v in neighbors[w]) for w in words),
        tuple(tuple(swap_position[(w, v)] for v in neighbors[w]) for w in words),
    )


def reference_window_length(window):
    """``triangulation.window_length`` as a double loop over the pairs."""
    n = len(window)
    total = 0
    for a in range(n):
        for b in range(a + 1, n):
            total += abs((window[b] - window[a]) // n)
    return total


def _at(g, i):
    """Evaluate the affine map with window g: g(i) = g[(i-1) mod n] + n*floor((i-1)/n)."""
    q, r = divmod(i - 1, len(g))
    return g[r] + len(g) * q


def reference_alcove(word):
    """``triangulation._alcove`` from the column sums c_j of the vertex table
    (``tg._z_vertices``, so a test's injected vertices reach both): the
    indices j sorted by c_j mod n, each lifted by -n*floor(c_j / n), rotated
    to the word's first letter, then the same assertion."""
    n = len(word)
    z = tg._z_vertices(word)
    c = list(map(sum, zip(*z)))
    g = [j + 1 - n * (c[j] // n) for j in sorted(range(n), key=lambda j: c[j] % n)]
    start = next(i for i, a in enumerate(g) if (a - 1) % n + 1 == word[0])
    g = g[start:] + [a + n for a in g[:start]]
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


def reference_wall_covers(facets, base):
    """``triangulation.wall_covers`` wall by wall.  ``facets`` maps each label
    to its ``simplex_facets`` (one wall z_hi - z_lo = m per circuit vertex,
    asserted), which do not depend on the base.  With floor[lo][hi] the least
    value of z_hi - z_lo on the base alcove, a wall separates its label from
    the base alcove when floor >= m if the label lies below it (sense "<="),
    and when floor < m if it lies above."""
    n = len(base)
    z0 = tg._z_vertices(label_word(base))
    floor = [[min(v[hi] - v[lo] for v in z0) for hi in range(n)] for lo in range(n)]
    return {w: sum(floor[q.start - 1][q.stop - 1] >= q.bound if q.sense == "<="
                   else floor[q.start - 1][q.stop - 1] < q.bound for q in hrep.inequalities)
            for w, hrep in facets.items()}


def window_times_s(window, i):
    """Right multiplication by the simple affine transposition with index i.

    For i < n this swaps window entries i and i+1; i = n wraps affinely:
    the first entry becomes w_n - n and the last w_1 + n.
    """
    n = len(window)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} outside 1..{n}")
    out = list(window)
    if i < n:
        out[i - 1], out[i] = out[i], out[i - 1]
    else:
        out[0], out[-1] = window[-1] - n, window[0] + n
    return tuple(out)


def reference_affine_consistency_check(graph, poset):
    """``triangulation.affine_consistency_check`` with every window built
    by ``_at`` evaluations, every edge checked in sorted order against a
    ``window_times_s`` product, and lengths by the pair loop."""
    n = len(poset.base)
    base_alcove = reference_alcove(poset.base)
    inverse = [0] * n  # the window of g0^-1
    for r, a in enumerate(base_alcove):
        inverse[(a - 1) % n] = r + 1 - n * ((a - 1) // n)
    windows = {}
    shifts = {}
    for word in graph.words:
        relative = [_at(inverse, a) for a in reference_alcove(word)]
        k = (n * (n + 1) // 2 - sum(relative)) // n
        windows[word] = tuple(_at(relative, i + k) for i in range(1, n + 1))
        shifts[word] = k

    problems = []
    for (u, v), p in sorted(graph.swap_position.items()):
        generator = (p - 1 - shifts[u]) % n + 1
        if windows[v] != window_times_s(windows[u], generator):
            problems.append(
                f"edge {u} -> {v}: window {windows[v]} is not windows[{u}] * s_{generator}")
    for w, win in windows.items():
        if reference_window_length(win) != poset.dist[w]:
            problems.append(
                f"window length {reference_window_length(win)} of {w} differs from BFS "
                f"distance {poset.dist[w]}")
    return tg.AffineLabelingReport(poset.base, windows, not problems, tuple(problems))
