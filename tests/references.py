"""Exact references that only the tests use."""

from positroid_hstar.core import i_order_key
from positroid_hstar.positroid import GrassmannNecklace


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


def reference_necklace_from_bases(bases):
    """``positroid.necklace_from_bases`` by sorted comparisons: J_i is the
    <_i-lexicographically least basis, checked Gale-below every basis with
    ``gale_leq``, else the same ValueError."""
    n = bases.n
    subsets = []
    for i in range(1, n + 1):
        key = i_order_key(i, n)
        best = min(bases.bases, key=lambda b: tuple(sorted(key(v) for v in b)))
        if not all(gale_leq(best, other, i, n) for other in bases.bases):
            raise ValueError(f"no Gale minimum for <_{i}; input is not a matroid")
        subsets.append(best)
    return GrassmannNecklace(n, tuple(subsets))


def reference_cut_costs(n, r, compiled):
    """``ehrhart._cut_costs`` in its arc model, which restates the kernel's
    rules by hand.  At any t >= 1 a row on z_b - z_a is read unless the box
    implies it: an upper row's bound is at least b - a, or a lower row's is
    at most 0.  Then z_a is held after the steps a+1..b-1.  In the cycle of
    prefix sums a row is one of two complementary blocks, the one that
    neither wraps at the cut nor ends there, so every row offers two arcs,
    each read from its first point, and the cut picks one; z_0 costs
    nothing."""
    t = n - 2
    if t < 1:
        return [0] * n
    arcs = []  # (a, b, the arc read when the cut is not in a+1..b, the arc when it is)
    for a, b, bound, upper, _, _ in compiled:
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
