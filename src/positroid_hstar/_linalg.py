"""Tiny exact linear algebra over the integers (dimensions here are <= 8)."""

from __future__ import annotations

from typing import Sequence


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix.

    Returns the nonzero echelon rows, which span the row space, and the
    signed last pivot, which is the determinant of a square matrix of full
    rank.  Every division is exact.
    """
    work = [list(row) for row in rows]
    echelon: list[list[int]] = []
    prev, sign = 1, 1
    for c in range(len(work[0]) if work else 0):
        pivot = next((k for k, row in enumerate(work) if row[c]), None)
        if pivot is None:
            continue
        if pivot % 2:
            sign = -sign
        top = work.pop(pivot)
        p = top[c]
        work = [[(p * x - row[c] * y) // prev for x, y in zip(row, top)] for row in work]
        echelon.append(top)
        prev = p
        if not work:
            break
    return echelon, sign * prev


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    echelon, det = _eliminate(rows)
    return det if len(echelon) == len(rows) else 0


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of the given points (-1 if empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return len(_eliminate([[a - b for a, b in zip(p, base)] for p in pts[1:]])[0])

