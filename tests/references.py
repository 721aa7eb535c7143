"""Exact references that only the tests use."""


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
