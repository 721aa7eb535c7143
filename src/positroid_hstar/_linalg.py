"""Tiny exact linear algebra over the rationals (dimensions here are <= 8)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vector = tuple[Fraction, ...]


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Row-reduce in place; returns (rows, pivot columns, signed pivot product)."""
    scale = Fraction(1)
    if not rows:
        return rows, [], scale
    cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        scale *= inv if pivot == r else -inv
        rows[r] = [v / inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, scale


def matrix_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    work = [[Fraction(v) for v in row] for row in rows]
    return len(_echelon(work)[1])


def determinant(rows: Sequence[Sequence[int | Fraction]]) -> Fraction:
    """Determinant of a square matrix."""
    work = [[Fraction(v) for v in row] for row in rows]
    _, pivots, scale = _echelon(work)
    return scale if len(pivots) == len(work) else Fraction(0)


def affine_rank(points: Sequence[Sequence[int | Fraction]]) -> int:
    """Dimension of the affine hull of the given points (-1 if empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return matrix_rank([[Fraction(a) - Fraction(b) for a, b in zip(p, base)] for p in pts[1:]])


def kernel_basis(rows: Sequence[Sequence[int | Fraction]], cols: int) -> list[Vector]:
    """Basis of the right kernel of the matrix (rows may be empty)."""
    work = [[Fraction(v) for v in row] for row in rows]
    work, pivots, _ = _echelon(work)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        basis.append(tuple(vec))
    return basis


def primitive_integer(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("zero vector")
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def hyperplane_through(points: Sequence[Sequence[int | Fraction]]) -> tuple[tuple[int, ...], int]:
    """Primitive integer (normal, offset) of the hyperplane spanned by the points.

    The points must affinely span a hyperplane (codimension 1) and have
    integer entries; raises otherwise.
    """
    pts = [tuple(Fraction(v) for v in p) for p in points]
    dim = len(pts[0])
    rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    kern = kernel_basis(rows, dim)
    if len(kern) != 1:
        raise ValueError(f"points span codimension {len(kern)}, expected a hyperplane")
    normal = primitive_integer(kern[0])
    offset = sum(a * b for a, b in zip(normal, pts[0]))
    if offset.denominator != 1:
        raise ValueError("non-integral offset")
    return normal, int(offset)
