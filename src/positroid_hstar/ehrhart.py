"""Independent ground truth: exact lattice-point counting and transforms.

Counting is a bounded depth-first search over coordinates with running
interval-sum pruning.  Everything downstream of the counts is exact: Lagrange
interpolation recovers Ehrhart polynomials, and the standard binomial
alternating sum turns a count profile (E(0), ..., E(d)) into the h*-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ExactPolynomial, interval_support
from .positroid import (
    GrassmannNecklace,
    HRepresentation,
    PositroidBases,
    decompose_direct_sum,
    h_representation,
    necklace_from_bases,
)

_INF = 1 << 62


@dataclass(frozen=True)
class CountProfile:
    """Lattice counts E(0), ..., E(d) of the dilates of a d-dimensional body."""

    dim: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.dim + 1:
            raise ValueError(f"need {self.dim + 1} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Exact Ehrhart polynomial of a d-dimensional lattice polytope."""

    poly: ExactPolynomial
    dim: int

    def __call__(self, t: int | Fraction) -> Fraction:
        return self.poly(t)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.poly.coefficients[-1]


# A counting constraint is (support, lo, hi): 0-based coordinate indices and
# inclusive integer bounds (use -_INF/_INF for one-sided constraints).
Constraint = tuple[tuple[int, ...], int, int]


def count_constrained(dim: int, constraints: Sequence[Constraint], box: int) -> int:
    """Integer vectors in [0, box]^dim meeting every constraint.

    DFS over coordinates 0..dim-1; each constraint keeps an accumulated value
    and the maximum amount its still-unassigned support can contribute, so
    infeasible branches are cut as soon as a bound becomes unreachable.
    """
    if box < 0:
        return 0
    live = []
    for support, lo, hi in constraints:
        if not support:
            if not lo <= 0 <= hi:
                return 0
            continue
        live.append((tuple(support), lo, hi))
    by_coord: list[list[int]] = [[] for _ in range(dim)]
    for idx, (support, _, _) in enumerate(live):
        for c in support:
            by_coord[c].append(idx)
    acc = [0] * len(live)
    slack = [len(support) * box for support, _, _ in live]
    lo_arr = [lo for _, lo, _ in live]
    hi_arr = [hi for _, _, hi in live]

    def feasible(idx: int) -> bool:
        return acc[idx] <= hi_arr[idx] and acc[idx] + slack[idx] >= lo_arr[idx]

    def rec(coord: int) -> int:
        if coord == dim:
            return 1
        touched = by_coord[coord]
        for idx in touched:
            slack[idx] -= box
        total = 0
        for value in range(box + 1):
            if value:
                for idx in touched:
                    acc[idx] += 1
            if all(feasible(idx) for idx in touched):
                total += rec(coord + 1)
        for idx in touched:
            acc[idx] -= box
            slack[idx] += box
        return total

    if dim == 0:
        return 1
    return rec(0)


def _scaled_bounds(sense: str, bound: int, strict: bool, t: int) -> tuple[int, int]:
    if sense == "<=":
        return -_INF, t * bound - (1 if strict else 0)
    return t * bound + (1 if strict else 0), _INF


def count_points(hrep: HRepresentation, t: int,
                 equalities: Iterable[tuple[int, int, int]] = ()) -> int:
    """Lattice points of the t-th dilate of an H-representation.

    Counts integer x with sum(x) = t*r and 0 <= x_i <= t satisfying every
    stored inequality scaled by t; strict inequalities tighten to
    f <= t*bound - 1 (resp. >= +1).  ``equalities`` are extra cyclic interval
    equalities (start, stop, value), also scaled by t; they carve faces.
    """
    if t < 0:
        raise ValueError("negative dilate")
    n = hrep.n
    constraints: list[Constraint] = [(tuple(range(n)), t * hrep.r, t * hrep.r)]
    for ineq in hrep.inequalities:
        lo, hi = _scaled_bounds(ineq.sense, ineq.bound, ineq.strict, t)
        constraints.append((tuple(k - 1 for k in ineq.support(n)), lo, hi))
    for start, stop, value in equalities:
        support = tuple(k - 1 for k in interval_support(start, stop, n))
        constraints.append((support, t * value, t * value))
    return count_constrained(n, constraints, t)


def closed_profile(hrep: HRepresentation, dim: int) -> CountProfile:
    """Counts of the closed polytope at t = 0..dim."""
    return CountProfile(dim, tuple(count_points(hrep, t) for t in range(dim + 1)))


def ehrhart_interpolate(profile: CountProfile) -> EhrhartPolynomial:
    """Unique polynomial of degree <= d through (t, E(t)) for t = 0..d.

    The computed polynomial must actually have degree d (every body counted
    here is full-dimensional in its own affine hull); asserted.
    """
    d = profile.dim
    result = ExactPolynomial.zero()
    for k, value in enumerate(profile.counts):
        if value == 0:
            continue
        term = ExactPolynomial.one() * Fraction(value)
        for m in range(d + 1):
            if m == k:
                continue
            term = term * ExactPolynomial.from_coefficients([Fraction(-m, k - m), Fraction(1, k - m)])
        result = result + term
    if result.degree != d:
        raise ValueError(f"interpolant has degree {result.degree}, expected {d}")
    return EhrhartPolynomial(result, d)


def hstar_from_counts(profile: CountProfile) -> ExactPolynomial:
    """h*-vector from a count profile: h_j = sum_i (-1)^i C(d+1, i) E(j-i).

    The result must have nonnegative integer coefficients; a violation means
    the counts do not come from a (half-open) lattice polytope of dimension d
    and is reported as an internal consistency failure.
    """
    d = profile.dim
    coeffs = []
    for j in range(d + 1):
        h = sum((-1) ** i * math.comb(d + 1, i) * profile.counts[j - i]
                for i in range(j + 1))
        if h < 0:
            raise ArithmeticError(f"negative h*-coefficient {h} at degree {j}: counting bug")
        coeffs.append(h)
    return ExactPolynomial.from_coefficients(coeffs)


def hstar_from_ehrhart(ehr: EhrhartPolynomial) -> ExactPolynomial:
    """h*-vector of a polytope given its Ehrhart polynomial."""
    counts = []
    for t in range(ehr.dim + 1):
        value = ehr(t)
        if value.denominator != 1:
            raise ValueError(f"E({t}) = {value} is not an integer")
        counts.append(int(value))
    return hstar_from_counts(CountProfile(ehr.dim, tuple(counts)))


def ehrhart_product(factors: Sequence[EhrhartPolynomial]) -> EhrhartPolynomial:
    """Ehrhart polynomial of a product of polytopes: multiply, add dimensions."""
    poly = ExactPolynomial.one()
    dim = 0
    for f in factors:
        poly = poly * f.poly
        dim += f.dim
    return EhrhartPolynomial(poly, dim)


def face_hstar(hrep: HRepresentation, face_equalities: Sequence[tuple[int, int, int]],
               face_dim: int) -> ExactPolynomial:
    """h*-polynomial of the face cut out by the given interval equalities."""
    counts = tuple(count_points(hrep, t, equalities=face_equalities)
                   for t in range(face_dim + 1))
    if counts[0] != 1 or (face_dim > 0 and counts[1] == 0):
        raise ValueError("face is empty or not of the stated dimension")
    return hstar_from_counts(CountProfile(face_dim, counts))


def _connected_profile(necklace: GrassmannNecklace) -> CountProfile:
    """Closed counts of a connected positroid polytope (dimension n - 1)."""
    return closed_profile(necklace.fact(h_representation), necklace.n - 1)


def ehrhart_of_connected(necklace: GrassmannNecklace) -> EhrhartPolynomial:
    """Ehrhart polynomial of a connected positroid polytope, by counting."""
    return ehrhart_interpolate(necklace.fact(_connected_profile))


def ehrhart_of_positroid(bases: PositroidBases) -> EhrhartPolynomial:
    """Ehrhart polynomial of any positroid polytope.

    Disconnected positroids factor as products over their direct-sum
    components, and the Ehrhart polynomial multiplies along the factorization.
    """
    parts = decompose_direct_sum(bases)
    factors = [ehrhart_of_connected(necklace_from_bases(comp)) for _, comp in parts]
    return ehrhart_product(factors)


def hstar_by_counting(necklace: GrassmannNecklace) -> ExactPolynomial:
    """Oracle h* of a connected positroid polytope: count, then transform."""
    necklace.require_connected("counting oracle")
    return hstar_from_counts(necklace.fact(_connected_profile))


def hstar_of_positroid_by_counting(bases: PositroidBases) -> ExactPolynomial:
    """Oracle h* of any positroid polytope, via the product Ehrhart polynomial."""
    return hstar_from_ehrhart(ehrhart_of_positroid(bases))
