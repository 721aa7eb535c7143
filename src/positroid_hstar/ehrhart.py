"""Independent ground truth: exact lattice-point counting and transforms.

Counting is a forward dynamic program over prefix sums: every interval bound
of a positroid, a face or a half-open body bounds a difference of two prefix
sums (these bodies are alcoved polytopes).  A count has one of two forms:
the tuple E(0), ..., E(k) of a body's dilates (``lattice_counts``), or the
Ehrhart polynomial they fix, stored as its h*-vector and dimension d
(``EhrhartPolynomial``): L(t) = sum_j h*_j C(t + d - j, d) (Beck-Robins,
ch. 3).  Every h* is read by one rule, in ints (``_hstar_from_ends``):
E(0..a) give h*_0..h*_a and the reciprocal body's counts R(1..b) give
h*_d down to h*_(d-b+1), as sum_t R(t) z^(t-1) = sum_j h*_(d-j) z^j /
(1 - z)^(d+1) by Ehrhart-Macdonald reciprocity (Beck-Robins, "Computing the
Continuous Discretely", ch. 4; Beck-Sanyal, "Combinatorial Reciprocity
Theorems", for a half-open body, whose reciprocal has the facets it keeps
made strict).  With a + b >= d they fix h*; where they overlap they must
agree.  ``count_to_degree`` runs the reciprocal up to its first nonempty
dilate c and the body up to s = d + 1 - c, overlapping in h*_s.  A 0/1
polytope, or a face of one, has only its vertices at t = 1, so R(1) = 0
for d >= 1 and E(0..d - 1) fix h* (``_face_hstar_from_counts``, E(1)
checked against the bases): the faces of ``upper_tally``, and any
positroid's full necklace H-representation in its own affine hull
(``_hrep_ehrhart``), the oracle's reference in the sweep and in ``verify``.
``face_hstar`` counts a face up to t = dim F, so its ends overlap in
h*_{dim F} = 0.  Rational coefficients are computed only where a report
prints them.

One DP body does all counting.  ``_plan`` fixes which rows each step reads
(``_first_read``) and which prefix sums it keeps, each bound a form t*X + s;
``_run(plan, t)`` runs the state loop at box t: a head (the mask of tight
rows met and the older prefix sums still read) maps the current prefix sum
to a count, and each successor range is filled at once.  The dilates tP
share their facet normals, and each bound of a counted body is t times a
facet's bound, moved by one where strict; with such unit offsets the plan is
free of t >= 1, so each body is planned once and run at every dilate.
``upper_tally`` counts a connected positroid once per dilate, tallied by
the upper (<=) facet rows each point lies on, as a dict from mask to counts,
and inclusion-exclusion reads every face's counts off that table: a face cut
out by upper facets G holds the points whose mask contains G (``face_hstar``,
one face alone at t = 0..dim F, is the reference).

Every closed route takes a connected positroid's h* as a fact of its
necklace and a disconnected one's polytope as the product of its summands'
(``ehrhart_by_route``, ``necklace_summands``), each run once per batch and
route (``_summand_ehrhart``, one bounded memo).  The oracle
(``counted_hstar``) counts a connected positroid, with no bases derived,
from its irredundant facets, the rows of ``facet_representation``, each
read once as a bound z_v - z_u <= c on two prefix sums
(``IntervalInequality.difference_bound``) and kept with its sense
(``_facet_rows``): the redundant necklace inequalities would each keep
extra prefix sums alive in the counting state.
The closed body, its interior, the half-open body and its reciprocal differ
only in which senses of these bounds are strict; ``_linear`` orients each
bound into a prefix-sum row.  A cut of the cycle, to the coordinates
x_(cut+1), ..., x_n, x_1, ..., x_cut, only relabels the nodes; the cost of
the DP depends on the cut a hundredfold at n = 12-13.
``_facet_rows`` picks one cut per necklace, the least by an estimate of the
states the DP holds (``_cut_costs``), and keeps the bounds relabelled to it,
so every body above and ``upper_tally`` count in that cut.
``lattice_counts`` of any H-representation, and so ``face_hstar`` and the
count of ``h_representation`` (``_hrep_ehrhart``), stays at the first cut,
as a reference.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Callable, Collection, Iterable, NamedTuple, Sequence

from .core import _trim
from .positroid import (
    GrassmannNecklace,
    HRepresentation,
    IntervalInequality,
    bases_from_necklace,
    facet_representation,
    h_representation,
    necklace_components,
    necklace_connected,
    necklace_summands,
)

if TYPE_CHECKING:
    from fractions import Fraction

_INF = 1 << 62


class EhrhartPolynomial(NamedTuple):
    """Ehrhart polynomial of a d-dimensional lattice polytope, stored as its
    h*-vector and d: L(t) = sum_j h*_j C(t + d - j, d).

    >>> pyramid = EhrhartPolynomial((1, 1), 3)
    >>> [pyramid(t) for t in range(4)], [str(c) for c in pyramid.coefficients]
    ([1, 5, 14, 30], ['1', '13/6', '3/2', '1/3'])
    """

    hstar: tuple[int, ...]
    dim: int

    def __call__(self, t: int) -> int:
        """L(t) at an integer t >= 0 (deg h* <= d, so no binomial has a negative top)."""
        return sum(h * math.comb(t + self.dim - j, self.dim) for j, h in enumerate(self.hstar))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The rational coefficients of L(t), in ascending degree: the integer
        polynomials d! C(t + d - j, d) = (t + 1 - j)(t + 2 - j)...(t + d - j)
        are summed, and the sum is divided by d! once."""
        from fractions import Fraction

        total = [0] * (self.dim + 1)
        for j, h in enumerate(self.hstar):
            if h:
                poly = [1]
                for m in range(1 - j, self.dim + 1 - j):  # multiply by (t + m)
                    poly = [m * c + below for c, below in zip(poly + [0], [0] + poly)]
                for k, c in enumerate(poly):
                    total[k] += h * c
        scale = math.factorial(self.dim)
        return _trim([Fraction(c, scale) for c in total])


# A linear row (a, b, lo, hi) asks lo <= z_b - z_a <= hi of the prefix sums
# z_q = x_1 + ... + x_q (z_0 = 0), each bound a pair (X, s) worth t * X + s at
# box t; (0, -_INF) or (0, _INF) leaves a side open.  A tight row (a, b, value,
# bit) sets ``bit`` in a vector's mask when z_b - z_a == value; it constrains
# nothing.
LinearRow = tuple[int, int, tuple[int, int], tuple[int, int]]
LinearTightRow = tuple[int, int, tuple[int, int], int]


def _plan(dim: int, rows: Sequence[LinearRow], box: int,
          tight: Sequence[LinearTightRow] = ()) -> tuple:
    """The plan (dim, rows, tight, mask, steps) of the DP at ``box`` >= 1:
    the mask of the empty tight rows and, per step q, the window of x_q, the
    rows read (``_first_read`` to b: z_q - z_a stays within reach of
    [lo, hi]) and tight rows (a, q) tested, with each z_a's head index, and
    the head kept; no steps if an empty row (a == b) fails.  For bounds
    t*X + (0 or 1) below, t*Y - (0 or 1) above and values t*V it holds at
    every t >= 1: ``_first_read`` is free of t, and so are the greatest lower
    bound at a step (ties to the greater X) and the least upper one."""
    for kind, table in (("row", rows), ("tight row", tight)):
        for a, b, _, _ in table:
            if not 0 <= a <= b <= dim:
                raise ValueError(f"{kind} ({a}, {b}) outside 0 <= a <= b <= {dim}")
    # checks[q][a] = (lo, hi): z_q - z_a must lie in [lo, hi] after step q,
    # each bound as (its value at box, X, s), so max and min merge them.
    checks: list[dict[int, tuple]] = [{} for _ in range(dim + 1)]
    # marks[q]: the tight rows (a, X, s, bit) tested after step q.
    marks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(dim + 1)]
    last_read: dict[int, int] = {}
    for a, b, (lx, ls), (hx, hs) in rows:
        lo, hi = lx * box + ls, hx * box + hs
        if a == b and not lo <= 0 <= hi:
            return dim, rows, tight, 0, None
        if (first := _first_read(a, b, lo, hi, box)) is None:
            continue
        for q in range(first, b + 1):
            lo_q, hi_q = (lo - (b - q) * box, lx - b + q, ls), (hi, hx, hs)
            old_lo, old_hi = checks[q].get(a, (lo_q, hi_q))
            checks[q][a] = max(lo_q, old_lo), min(hi_q, old_hi)
        if last_read.get(a, 0) < b:
            last_read[a] = b
    mask = 0
    for a, b, (vx, vs), bit in tight:
        if a < b:
            marks[b].append((a, vx, vs, bit))
            last_read[a] = max(b, last_read.get(a, 0))
        elif vx * box + vs == 0:
            mask |= bit
    live, steps = [], []  # live: the a whose z_a the head holds after the mask
    for q in range(1, dim + 1):
        (_, dlx, dls), (_, dhx, dhs) = checks[q].pop(q - 1, ((0, 0, 0), (box, 1, 0)))
        reads = [(live.index(a) + 1, lx, ls, hx, hs)
                 for a, ((_, lx, ls), (_, hx, hs)) in checks[q].items()]
        tests = [(a < q - 1 and live.index(a) + 1, vx, vs, bit) for a, vx, vs, bit in marks[q]]
        keep = [0] + [k for k, a in enumerate(live, start=1) if last_read[a] > q]
        cut = len(keep) if keep[-1] == len(keep) - 1 else 0  # keep is a prefix of the head
        carry = last_read.get(q - 1, 0) > q  # z_{q-1} moves into the head
        live = [a for a in live if last_read[a] > q] + [q - 1] * carry
        steps.append((dlx, dls, dhx, dhs, reads, tests, keep, cut, carry))
    return dim, rows, tight, mask, steps


def _run(plan: tuple, t: int) -> dict[int, int]:
    """The planned vectors in [0, t]^dim by tight mask.  Each head (the mask
    so far and each z_a, a < q, a later step reads) maps z_q to its number
    of partial vectors; step q bounds x_q and z_q once per head, so the
    successors of (head, z_{q-1}) are one range, filled at once.  Box 0 is
    read off the rows (`_origin_tally`)."""
    dim, rows, tight, mask, steps = plan
    if t < 1 or steps is None:
        return _origin_tally(rows, tight) if t == 0 else {}
    states = {(mask,): {0: 1}}
    histogram: dict[int, int] = {}
    for q, (dlx, dls, dhx, dhs, reading, testing, keep, cut, carry) in enumerate(steps, 1):
        dlo, dhi = max(dlx * t + dls, 0), min(dhx * t + dhs, t)  # the window of x_q
        reads = [(k, lx * t + ls, hx * t + hs) for k, lx, ls, hx, hs in reading]
        tests = [(k, vx * t + vs, bit) for k, vx, vs, bit in testing]
        step: dict[tuple[int, ...], dict[int, int]] = {}
        for head, inner in states.items():
            low_abs, high_abs = -_INF, _INF
            for k, lo, hi in reads:
                if head[k] + lo > low_abs:
                    low_abs = head[k] + lo
                if head[k] + hi < high_abs:
                    high_abs = head[k] + hi
            base = head[:cut] if cut else tuple([head[k] for k in keep])
            for zp, ways in inner.items():
                low = zp + dlo if zp + dlo > low_abs else low_abs
                high = zp + dhi if zp + dhi < high_abs else high_abs
                if low > high:
                    continue
                special: dict[int, int] = {}  # z_q -> mask, where a test holds
                if tests:
                    for k, value, bit in tests:  # k = 0 (False) tests x_q
                        if low <= (z := (head[k] if k else zp) + value) <= high:
                            special[z] = special.get(z, head[0]) | bit
                if q == dim and not special:  # no later step reads z_dim
                    histogram[head[0]] = histogram.get(head[0], 0) + (high - low + 1) * ways
                    continue
                key = (*base, zp) if carry else base
                if (target := step.get(key)) is None:
                    step[key] = target = dict.fromkeys(range(low, high + 1), ways)
                else:
                    for z in range(low, high + 1):
                        target[z] = target.get(z, 0) + ways
                if special:  # the range is filled at once; move the marked points
                    for z, bits in special.items():
                        if left := target[z] - ways:
                            target[z] = left
                        else:
                            del target[z]
                        marked = step.setdefault((bits, *key[1:]), {})
                        marked[z] = marked.get(z, 0) + ways
        if not (states := step):
            break
    for head, inner in states.items():
        if ways := sum(inner.values()):  # moving marked points can empty a range
            histogram[head[0]] = histogram.get(head[0], 0) + ways
    return histogram


def _first_read(a: int, b: int, lo: int, hi: int, box: int) -> int | None:
    """The first step of the DP (box >= 1) that reads the row; it reads it
    up to step b.  Step q reads it if lo - (b - q) * box > 0 or
    hi < (q - a) * box: both grow with q.  None if the box implies the row.

    >>> _first_read(0, 3, 2, 2, 1), _first_read(0, 3, -_INF, 3, 1), _first_read(1, 1, 0, 0, 1)
    (2, None, None)
    """
    first = b - (lo - 1) // box
    if (other := a + hi // box + 1) < first:
        first = other
    if first <= a:
        first = a + 1
    return first if first <= b else None


def _origin_tally(rows: Sequence[LinearRow], tight: Sequence[LinearTightRow]) -> dict[int, int]:
    """The tally at box 0, whose one vector x = 0 has every prefix sum 0: it
    meets a row, or a tight row, whose forms admit 0 at t = 0.

    >>> _origin_tally([(0, 2, (1, 0), (1, 0))], [(0, 1, (0, 0), 1), (1, 2, (0, 1), 2)])
    {1: 1}
    """
    if not all(lo[1] <= 0 <= hi[1] for _, _, lo, hi in rows):
        return {}
    mask = 0
    for _, _, value, bit in tight:
        if value[1] == 0:
            mask |= bit
    return {mask: 1}


def _linear(n: int, r: int, bounds: Iterable[tuple[int, int, int, bool]]) -> list[LinearRow]:
    """Linear rows of every dilate: the sum equality z_n = r and each bound
    (u, v, c, strict), z_v - z_u <= c, oriented to a row on z_b - z_a with
    a <= b and moved by one where strict."""
    rows: list[LinearRow] = [(0, n, (r, 0), (r, 0))]
    for u, v, c, strict in bounds:
        rows.append((u, v, (0, -_INF), (c, -strict)) if u < v
                    else (v, u, (-c, +strict), (0, _INF)))
    return rows


def _cut_costs(n: int, bounds: Sequence[tuple]) -> list[int]:
    """For each cut of the facet bounds (u, v, ...) (``_facet_rows``), an
    estimate of the states its counting DP holds: the sum over the steps
    q = 1..n of (t+1)^(|live_q| + 1) at t = n - 2, where live_q are the older
    prefix sums the DP holds after step q.  ``_facet_rows`` takes the first
    least.

    A bound's two relabelled nodes p < p' make an arc, whose row the DP
    reads from z_p, held over the steps p + 1..p' - 1; z_0 costs nothing.
    The DP skips a row the box implies (``_first_read``), but on facets that
    never changes the cost: such a facet is one coordinate, x_i >= 0 or
    x_i <= 1, whose nodes are adjacent, or 0 and n - 1 in the cut between them.
    """
    t = n - 2
    if t < 1:
        return [0] * n
    weight = [(t + 1) ** (k + 1) for k in range(n)]
    costs = []
    for cut in range(n):
        reach = [0] * n  # reach[p]: the furthest node an arc from z_p reads
        for u, v, *_ in bounds:
            p, end = sorted(((u - cut) % n, (v - cut) % n))
            reach[p] = max(reach[p], end)
        costs.append(sum(weight[sum(end > q for end in reach[1:q])] for q in range(1, n + 1)))
    return costs


def lattice_counts(hrep: HRepresentation, tmax: int,
                   equalities: Iterable[tuple[int, int, int]] = ()) -> tuple[int, ...]:
    """Lattice points E(0), ..., E(tmax) of the dilates of an H-representation,
    planned once.

    E(t) counts integer x with sum(x) = t*r and 0 <= x_i <= t satisfying every
    stored inequality scaled by t, as rows of ``_linear``: a strict one is
    f <= t*bound - 1 (resp. >= +1).  ``equalities`` are extra cyclic interval
    equalities (start, stop, value), also scaled by t; they carve faces.
    """
    rows = (*hrep.inequalities, *(IntervalInequality(*equality, sense)
                                  for equality in equalities for sense in ("<=", ">=")))
    bounds = ((*q.difference_bound(hrep.r), q.strict) for q in rows)
    plan = _plan(hrep.n, _linear(hrep.n, hrep.r, bounds), 1)
    return tuple(sum(_run(plan, t).values()) for t in range(tmax + 1))


def hstar_from_counts(counts: Sequence[int]) -> tuple[int, ...]:
    """h*-vector from the counts E(0..d) of a d-dimensional body, d = len - 1:
    h_j = sum_i (-1)^i C(d+1, i) E(j-i).  A negative coefficient, from counts
    of no (half-open) lattice polytope of dimension d, is an ArithmeticError."""
    return _hstar_from_ends(len(counts) - 1, counts)


def _hstar_from_ends(dim: int, counts: Sequence[int],
                     interior: Sequence[int] = ()) -> tuple[int, ...]:
    """h* of a ``dim``-dimensional body from its counts E(0..a) and its
    reciprocal body's counts R(1..b), a + b >= dim, by the module
    docstring's one reading rule (``_hstar_head`` at each end).  Two ends
    that overlap must agree, and no coefficient may be negative (an
    ArithmeticError); a + b < dim is a ValueError.

    >>> _hstar_from_ends(4, (1, 8, 31), (0, 0, 1))  # a prism: s = 2, codegree 3
    (1, 3, 1)
    """
    head = _hstar_head(dim, counts[:dim + 1])
    tail = _hstar_head(dim, interior[:dim + 1])[::-1]
    start = dim + 1 - len(tail)  # the tail's first coefficient
    if len(head) < start:
        raise ValueError(f"a body of dimension {dim} needs its counts up to t = {start - 1}")
    for j in range(start, len(head)):
        if head[j] != tail[j - start]:
            raise ArithmeticError(f"h*_{j} = {head[j]} by the body's counts but "
                                  f"{tail[j - start]} by the reciprocal body's: counting bug")
    for j, h in enumerate(hstar := head[:start] + tail):
        if h < 0:
            raise ArithmeticError(f"negative h*-coefficient {h} at degree {j}: counting bug")
    return _trim(hstar)


def _hstar_head(dim: int, counts: Sequence[int]) -> list[int]:
    """h*_0, ..., h*_k of a ``dim``-dimensional body from its counts E(0..k):
    the series sum_t E(t) z^t times (1 - z)^(dim + 1), cut at z^k, so h*_j
    reads only E(0..j)."""
    coeffs = list(counts)
    for _ in range(dim + 1):  # times 1 - z, in place from the top degree down
        for j in range(len(coeffs) - 1, 0, -1):
            coeffs[j] -= coeffs[j - 1]
    return coeffs


def ehrhart_product(factors: Sequence[EhrhartPolynomial]) -> EhrhartPolynomial:
    """Ehrhart polynomial of a product of polytopes: the dimensions add, and
    its counts at t = 0..dim, the products of the factors' counts, fix its h*.

    >>> segment = EhrhartPolynomial((1,), 1)
    >>> ehrhart_product([EhrhartPolynomial((1,), 2), segment])  # a triangular prism
    EhrhartPolynomial(hstar=(1, 2), dim=3)
    """
    dim = sum(f.dim for f in factors)
    counts = [math.prod(f(t) for f in factors) for t in range(dim + 1)]
    return EhrhartPolynomial(_hstar_from_ends(dim, counts), dim)


def face_hstar(hrep: HRepresentation, face_equalities: Sequence[tuple[int, int, int]],
               face_dim: int) -> tuple[int, ...]:
    """h*-polynomial of the face cut out by the given interval equalities,
    counted alone at every dilate t = 0..face_dim."""
    return _face_hstar_from_counts(lattice_counts(hrep, face_dim, face_equalities), face_dim)


def _face_hstar_from_counts(counts: Sequence[int], dim: int,
                            vertices: int | None = None) -> tuple[int, ...]:
    """h* of a ``dim``-dimensional face of a 0/1 polytope, or of the polytope,
    from its counts E(0), E(1), ... at t = 0..``_last_dilate(dim)`` or
    further: the reading rule with R(1) = 0 when dim >= 1 (a point is its
    own relative interior, so dim 0 reads no R).  Checked: E(0) = 1 and
    E(1) > dim (a ValueError: the face is empty or of lower dimension), and
    E(1) = ``vertices``, its number of bases, where given (an
    ArithmeticError: a point other than a vertex at t = 1, or one missed).

    >>> _face_hstar_from_counts((1, 4), 2, 4), _face_hstar_from_counts((1, 4, 9), 2)
    ((1, 1), (1, 1))
    """
    if not counts or counts[0] != 1 or len(counts) > 1 and counts[1] <= dim:
        raise ValueError("face is empty or not of the stated dimension")
    if vertices is not None and len(counts) > 1 and counts[1] != vertices:
        raise ArithmeticError(f"a face with {vertices} bases has E(1) = {counts[1]} "
                              f"lattice points: counting bug")
    return _hstar_from_ends(dim, counts, [0] * (dim >= 1))


def _last_dilate(dim: int) -> int:
    """The last dilate a ``dim``-dimensional 0/1 polytope is counted at for
    ``_face_hstar_from_counts``: t = dim - 1, and t = 1 for its check.

    >>> [_last_dilate(dim) for dim in range(5)]
    [0, 1, 1, 2, 3]
    """
    return max(dim - 1, min(dim, 1))


def upper_tally(necklace: GrassmannNecklace) -> dict[int, list[int]]:
    """The lattice points of the closed dilates t = 0..max(1, n - 3) of a
    connected positroid (t = 0 alone at n = 2), tallied by the upper facets
    each lies on: {mask: [count at each t]} over the masks that occur, bit i
    of a mask standing for the i-th upper (<=) row of
    ``facet_representation``.

    A face cut out by upper facets G is P meet the hyperplanes of G, so its
    t-th dilate holds exactly the points of tP whose mask contains G.  Such
    a face F has dimension at most n - 2, and is read as a 0/1 polytope
    (``_face_hstar_from_counts``), so the tally stops at ``_last_dilate``
    of n - 2.  Rows and tight rows (``_upper_marks``) both come from
    ``_facet_rows``, so they are counted in its cut, from one plan.

    >>> from .positroid import validate_necklace
    >>> pyramid = validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
    >>> sorted(upper_tally(pyramid).items())  # n = 4: dilates 0 and 1
    [(1, [0, 1]), (3, [0, 1]), (4, [0, 1]), (6, [0, 1]), (7, [1, 1])]
    """
    facets = necklace.fact(_facet_rows)
    plan = _plan(necklace.n, _linear(necklace.n, necklace.rank, (
        (u, v, c, False) for u, v, c, _ in facets)), 1, _upper_marks(facets))
    counts = [_run(plan, t) for t in range(_last_dilate(necklace.n - 2) + 1)]
    return {mask: [c.get(mask, 0) for c in counts] for mask in set().union(*counts)}


def _upper_marks(bounds: Iterable[tuple[int, int, int, str]]) -> list[LinearTightRow]:
    """Tight rows of the upper (<=) bounds, z_v - z_u == t * c oriented as
    ``_linear`` orients them, bit i for the i-th: in any cut, the bit of
    ``upper_tally``."""
    uppers = [(u, v, c) for u, v, c, sense in bounds if sense == "<="]
    return [(u, v, (c, 0), 1 << i) if u < v else (v, u, (-c, 0), 1 << i)
            for i, (u, v, c) in enumerate(uppers)]


def _facet_rows(necklace: GrassmannNecklace) -> tuple[tuple[int, int, int, str], ...]:
    """A connected positroid's facets as bounds (u, v, c, sense),
    z_v - z_u <= c, in the order of ``facet_representation``, relabelled to
    the cheapest cut (``_cut_costs``) and kept once per necklace: every
    count of its closed, interior, half-open and reciprocal bodies
    (``_body``), and of ``upper_tally``, reads them.

    In the coordinates x_(cut+1), ..., x_n, x_1, ..., x_cut, node p is
    (p - cut) mod n, and z_p is the new prefix sum there plus the old z_cut,
    less r when p < cut; so c gains r for v < cut and loses it for u < cut.
    """
    facets = necklace.fact(facet_representation)
    n, r = facets.n, facets.r
    bounds = [(*q.difference_bound(r), q.sense) for q in facets.inequalities]
    costs = _cut_costs(n, bounds)
    cut = costs.index(min(costs))
    return tuple(((u - cut) % n, (v - cut) % n, c + r * ((v < cut) - (u < cut)), sense)
                 for u, v, c, sense in bounds)


def _body(necklace: GrassmannNecklace, strict: Collection[str]) -> tuple:
    """The plan of a connected positroid, its facets of the senses in ``strict`` strict."""
    return _plan(necklace.n, _linear(necklace.n, necklace.rank, (
        (u, v, c, sense in strict) for u, v, c, sense in necklace.fact(_facet_rows))), 1)


def count_to_degree(necklace: GrassmannNecklace, half_open: bool = False) -> EhrhartPolynomial:
    """Ehrhart polynomial of a connected positroid's closed (or half-open)
    body, from its counts up to its h*-degree s and its reciprocal's up to
    the codegree d + 1 - s, by the module docstring's reading rule.  The
    body has no facets strict (half-open: the upper ones, of sense "<=");
    its reciprocal exactly the other facets.  Each is planned once (``_body``).
    """
    dim = necklace.n - 1
    removed = {"<="} if half_open else set()
    reciprocal = _body(necklace, {"<=", ">="} - removed)
    interior = []
    for codegree in range(1, dim + 2):
        interior.append(sum(_run(reciprocal, codegree).values()))
        if interior[-1]:
            break
    else:
        raise ArithmeticError(f"the reciprocal body has no lattice point up to dilate "
                              f"{dim + 1}: counting bug")
    body = _body(necklace, removed)
    counts = [sum(_run(body, t).values()) for t in range(dim + 2 - codegree)]
    return EhrhartPolynomial(_hstar_from_ends(dim, counts, interior), dim)


def _hrep_ehrhart(necklace: GrassmannNecklace) -> tuple[tuple[int, ...], EhrhartPolynomial]:
    """Any positroid's full necklace H-representation (``h_representation``)
    counted in its own affine hull, of dimension d = n minus its direct
    summands (``necklace_components``), at t = 0..``_last_dilate(d)``, and
    the Ehrhart polynomial the counts fix (``_face_hstar_from_counts``, E(1)
    against the bases).  It shares neither the facets nor the summands with
    the oracle (``counted_hstar``), so it is the oracle's reference: in the
    sweep (``cli._exhaustive_worker``) and in ``verify --input`` on a
    disconnected positroid."""
    bases = necklace.fact(bases_from_necklace).bases
    dim = necklace.n - len(necklace.fact(necklace_components))
    counts = lattice_counts(necklace.fact(h_representation), _last_dilate(dim))
    return counts, EhrhartPolynomial(_face_hstar_from_counts(counts, dim, len(bases)), dim)


# every summand of a positroid with n <= 8 (1,728), by each closed route
_SUMMANDS_KEPT = 3 * 2048


@functools.lru_cache(maxsize=_SUMMANDS_KEPT)
def _summand_ehrhart(route: Callable[[GrassmannNecklace], tuple[int, ...]],
                     summand: GrassmannNecklace) -> EhrhartPolynomial:
    """``route``'s Ehrhart polynomial of a connected summand, kept by the
    route and the summand's necklace value (``_SUMMANDS_KEPT``)."""
    return EhrhartPolynomial(route(summand), summand.n - 1)


def ehrhart_by_route(necklace: GrassmannNecklace,
                     route: Callable[[GrassmannNecklace], tuple[int, ...]]) -> EhrhartPolynomial:
    """Ehrhart polynomial of any positroid polytope by ``route``, a closed
    h* route of a connected positroid, kept as a fact of a connected one.
    A disconnected one's polytope is the product of its summands', so their
    Ehrhart polynomials multiply, each through ``_summand_ehrhart``."""
    if necklace.fact(necklace_connected):
        return EhrhartPolynomial(necklace.fact(route), necklace.n - 1)
    return ehrhart_product([_summand_ehrhart(route, summand)
                            for summand in necklace.fact(necklace_summands)])


def counted_hstar(necklace: GrassmannNecklace) -> tuple[int, ...]:
    """The counting oracle's route: a connected positroid's ``count_to_degree``."""
    return count_to_degree(necklace).hstar


def ehrhart_of_positroid(necklace: GrassmannNecklace) -> EhrhartPolynomial:
    """Ehrhart polynomial of any positroid polytope, from its counted h*
    (``counted_hstar``); no bases are derived."""
    return ehrhart_by_route(necklace, counted_hstar)


def hstar_by_counting(necklace: GrassmannNecklace) -> tuple[int, ...]:
    """Oracle h* of any positroid polytope: count, then transform."""
    return ehrhart_of_positroid(necklace).hstar
