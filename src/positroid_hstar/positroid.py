"""Positroids: necklaces, decorated permutations, bases, and the polytope.

A positroid on 1..n can be handed around in three equivalent forms:

- a Grassmann necklace (J_1, ..., J_n) of r-subsets obeying the one-step
  exchange rule  J_{i+1} = J_i - {i} + {j}  (when i is in J_i),
- a decorated permutation: a permutation with black/white colored fixed points,
- its set of bases.

Both directions between necklace and bases read the Gale order one way,
as prefix counts on bitmasks (``_gale_limits``).  Every interval bound on an
r-subset takes one form, at most ``bound`` elements of a segment bitmask, so
one filter (``_r_subsets_within``) yields both the bases of a necklace and
the 0/1 points, as bitmasks, of any H-representation (``zero_one_points``).

This module validates and converts between the three, reads a positroid's
direct sum off its decorated permutation with no bases (its blocks,
``necklace_components``, and their necklaces, ``necklace_summands``), and
produces two H-representations of the polytope conv{e_B : B a basis}:
every cyclic-interval inequality of the necklace (``h_representation``),
and for a connected positroid its irredundant facets, each an
``IntervalInequality`` row on a block that never reads x_n, read off a
shortest-path closure of the necklace with no bases
(``facet_representation``).  Any row, wrapping or not, reads as a
bound z_v - z_u <= c on two prefix sums (``difference_bound``): the closure
and the counting DP take every row that way.
Bases are bitmasks, bit k for element k: ``PositroidBases`` holds them so,
and so does every face.  A face is the polytope of a matroid, whose
dimension (``dimension_of_bases``) is n minus the number of connected
components of its fundamental graph, so faces need no linear algebra.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .core import (
    _Record,
    cyclic_interval,
    i_order_key,
    is_permutation_word,
    mask_elements,
)

_T = TypeVar("_T")


class NecklaceError(ValueError):
    """Raised when a sequence of subsets is not a Grassmann necklace."""


class DisconnectedPositroidError(ValueError):
    """Raised when a connected-only route is given a disconnected positroid.

    The counting oracle (``ehrhart.hstar_by_counting``) takes any positroid:
    it counts each summand and multiplies their Ehrhart polynomials.  For the
    other routes, split it the same way (``necklace_summands`` on the
    necklace, ``decompose_direct_sum`` on the bases) and combine the
    per-component results with ``ehrhart.ehrhart_product``.
    """


class GrassmannNecklace(_Record):
    """Sequence (J_1, ..., J_n) of equal-size subsets obeying the exchange rule.

    Rank 0 (all subsets empty) is admitted so that the loop-only positroid on
    a singleton ground set has a necklace; ranks 1..n are the usual case.

    It is also the per-input context: ``fact`` keeps what the routes derive
    from it for as long as it lives, outside equality, hashing and repr.
    """

    _fields = ("n", "subsets")
    __slots__ = _fields + ("_facts",)

    def __init__(self, n: int, subsets: tuple[frozenset[int], ...]):
        if n < 1:
            raise NecklaceError("ground set must be nonempty")
        if len(subsets) != n:
            raise NecklaceError(f"expected {n} subsets, got {len(subsets)}")
        sizes = {len(s) for s in subsets}
        if len(sizes) != 1:
            raise NecklaceError(f"subsets have unequal sizes {sorted(sizes)}")
        r = sizes.pop()
        if r > n:
            raise NecklaceError(f"rank {r} exceeds ground set size {n}")
        for i in range(1, n + 1):
            cur = subsets[i - 1]
            nxt = subsets[i % n]
            if any(not 1 <= v <= n for v in cur):
                raise NecklaceError(f"subset {i} has elements outside 1..{n}")
            if i in cur:
                if not cur - {i} <= nxt:
                    raise NecklaceError(f"exchange rule fails at index {i}")
            elif nxt != cur:
                raise NecklaceError(f"exchange rule fails at index {i}: J_{i} must repeat")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "_facts", {})

    @property
    def rank(self) -> int:
        return len(self.subsets[0])

    def fact(self, derive: Callable[[GrassmannNecklace], _T]) -> _T:
        """``derive(self)``, computed on the first request only.

        Facts are keyed by the function: pass a module-level one by name.
        """
        if derive not in self._facts:
            self._facts[derive] = derive(self)
        return self._facts[derive]

    def require_connected(self, what: str) -> None:
        """Raise DisconnectedPositroidError unless the positroid is connected."""
        if not self.fact(necklace_connected):
            raise DisconnectedPositroidError(
                f"the {what} needs a connected positroid; split with decompose_direct_sum "
                "and combine via ehrhart_product")

    def sorted_subset(self, i: int) -> tuple[int, ...]:
        """Elements of J_i listed in increasing <_i order."""
        return tuple(sorted(self.subsets[i - 1], key=i_order_key(i, self.n)))

    def compact(self) -> str:
        """Digit-string form like '12,23,13,14' (only valid for n <= 9); an
        empty J_i is written "-", as `cli.parse_compact_necklace` reads it."""
        if self.n > 9:
            raise ValueError("compact form needs single-digit labels")
        return ",".join("".join(str(v) for v in sorted(s)) or "-" for s in self.subsets)


def validate_necklace(raw: Sequence[Iterable[int]], n: int | None = None) -> GrassmannNecklace:
    """Validate raw subsets as a Grassmann necklace; n defaults to len(raw)."""
    subsets = tuple(frozenset(s) for s in raw)
    return GrassmannNecklace(len(subsets) if n is None else n, subsets)


class PositroidBases(_Record):
    """Explicit basis collection of a matroid on 1..n, all of size r, each
    basis a bitmask with bit k for element k."""

    __slots__ = _fields = ("n", "r", "bases")

    def __init__(self, n: int, r: int, bases: Iterable[int]):
        bases = frozenset(bases)
        if not bases:
            raise ValueError("basis set must be nonempty")
        for b in bases:
            if b.bit_count() != r:
                raise ValueError(f"basis {list(mask_elements(b))} does not have size {r}")
            if b & 1 or b >> max(n, 0) + 1:  # bit 0 or a bit above n
                raise ValueError(f"basis {list(mask_elements(b))} has elements outside 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "bases", bases)

    def sorted_bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(mask_elements(b) for b in self.bases))


def is_matroid(bases: PositroidBases) -> bool:
    """Exhaustive basis-exchange check (fine at desk scale)."""
    coll = bases.bases
    for left, right in itertools.product(coll, repeat=2):
        for i in mask_elements(left & ~right):
            if not any(left ^ 1 << i | 1 << j in coll for j in mask_elements(right & ~left)):
                return False
    return True


def _gale_limits(subset: Iterable[int], i: int, n: int, r: int) -> list[tuple[int, int]]:
    """An r-subset B (bit k for element k) is Gale-above ``subset`` = J in
    <_i exactly when popcount(B & S) <= bound for each returned (S, bound):
    the k-th element of J is <=_i the k-th of B exactly when the initial
    segment S of <_i ending at the latter holds at least k elements of J.
    Pairs that no r-subset can break are dropped.

    >>> [(bin(segment), bound) for segment, bound in _gale_limits({2, 3}, 1, 4, 2)]
    [('0b10', 0), ('0b110', 1)]
    """
    j_mask, segment, limits = sum(1 << v for v in subset), 0, []
    for k in range(n - 1):
        segment |= 1 << (i - 1 + k) % n + 1
        if (bound := (j_mask & segment).bit_count()) < min(k + 1, r):
            limits.append((segment, bound))
    return limits


def _r_subsets_within(n: int, r: int, limits: Iterable[tuple[int, int]]) -> frozenset[int]:
    """The r-subsets of 1..n (bit k for element k) with at most ``bound``
    elements in ``segment`` for each (segment, bound) limit, equal limits
    tested once: the one rule for 0/1 points, bases and H-representations alike."""
    limits = set(limits)
    masks = map(sum, itertools.combinations([1 << v for v in range(1, n + 1)], r))
    return frozenset(mask for mask in masks
                     if all((mask & segment).bit_count() <= bound for segment, bound in limits))


def bases_from_necklace(necklace: GrassmannNecklace) -> PositroidBases:
    """All r-subsets Gale-above every J_i (``_gale_limits``); the bases of the
    positroid of J."""
    n, r = necklace.n, necklace.rank
    return PositroidBases(n, r, _r_subsets_within(n, r, (
        limit for i, subset in enumerate(necklace.subsets, start=1)
        for limit in _gale_limits(subset, i, n, r))))


def necklace_from_bases(bases: PositroidBases) -> GrassmannNecklace:
    """Necklace of Gale-minimal bases; requires the input to be a matroid.

    J_i is the <_i-lexicographic minimum, which for a matroid is the Gale
    minimum for <_i; every basis is checked Gale-above it (``_gale_limits``),
    and a ValueError is raised if one is not (non-matroid input).  With
    element v at bit n - v, turning the mask left by i - 1 (within n bits)
    puts the elements in <_i order from the top bit down, so the minimum is
    the basis of largest turned mask.
    """
    n, r, masks = bases.n, bases.r, bases.bases
    full = (1 << n) - 1
    reversed_masks = [(sum(1 << n - v for v in mask_elements(b)), b) for b in masks]
    subsets = []
    for i in range(1, n + 1):
        best = mask_elements(max(
            reversed_masks, key=lambda mb: (mb[0] << i - 1 | mb[0] >> n + 1 - i) & full)[1])
        limits = _gale_limits(best, i, n, r)
        if not all((mask & segment).bit_count() <= bound
                   for mask in masks for segment, bound in limits):
            raise ValueError(f"no Gale minimum for <_{i}; input is not a matroid")
        subsets.append(frozenset(best))
    return GrassmannNecklace(n, tuple(subsets))


class DecoratedPermutation(_Record):
    """Permutation of 1..n with each fixed point colored black or white."""

    __slots__ = _fields = ("perm", "white")

    def __init__(self, perm: Sequence[int], white: Iterable[int] = frozenset()):
        if not is_permutation_word(perm):
            raise ValueError("not a permutation in one-line notation")
        object.__setattr__(self, "perm", tuple(perm))
        white = frozenset(white)
        if not white <= self.fixed_points:
            raise ValueError("white set contains non-fixed points")
        object.__setattr__(self, "white", white)

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def fixed_points(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.perm, start=1) if v == i)

    def colors(self) -> dict[int, str]:
        return {i: ("white" if i in self.white else "black") for i in sorted(self.fixed_points)}


def decorated_from_necklace(necklace: GrassmannNecklace) -> DecoratedPermutation:
    """The decorated permutation of a necklace: pi(i) is the element swapped in at step i."""
    n = necklace.n
    perm = [0] * n
    white = set()
    for i in range(1, n + 1):
        cur = necklace.subsets[i - 1]
        nxt = necklace.subsets[i % n]
        if nxt == cur:
            perm[i - 1] = i
            if i in cur:
                white.add(i)
        else:
            new = nxt - (cur - {i})
            assert len(new) == 1
            perm[i - 1] = next(iter(new))
    return DecoratedPermutation(tuple(perm), frozenset(white))


def _in_half_open_cyclic(m: int, a: int, b: int, n: int) -> bool:
    """Membership of m in the cyclic half-open interval (a, b], for a != b."""
    return 1 <= (m - a) % n <= (b - a) % n


def necklace_from_decorated(dec: DecoratedPermutation) -> GrassmannNecklace:
    """Inverse of ``decorated_from_necklace``.

    j belongs to J_m exactly when j is white-fixed or m lies in the cyclic
    interval (pi^{-1}(j), j]; this membership rule inverts the forward map
    (round trips are exercised exhaustively in the tests).  The necklace
    keeps ``dec`` as its ``decorated_from_necklace`` fact, so the routes that
    read pi (``necklace_components``) do not derive it again.
    """
    n = dec.n
    inv = {v: i for i, v in enumerate(dec.perm, start=1)}
    subsets = []
    for m in range(1, n + 1):
        members = set(dec.white)
        for j in range(1, n + 1):
            src = inv[j]
            if src != j and _in_half_open_cyclic(m, src, j, n):
                members.add(j)
        subsets.append(frozenset(members))
    necklace = GrassmannNecklace(n, tuple(subsets))
    necklace._facts[decorated_from_necklace] = dec
    return necklace


def is_connected(bases: PositroidBases) -> bool:
    """True iff no proper nonempty subset splits the rank additively; exponential
    in n, it is the reference for ``necklace_connected``."""
    full = (1 << bases.n + 1) - 2

    def rank(s: int) -> int:
        return max((b & s).bit_count() for b in bases.bases)

    # the subsets that hold element 1 meet each split once
    return all(rank(s) + rank(full ^ s) != bases.r for s in range(2, full, 4))


def necklace_components(necklace: GrassmannNecklace) -> tuple[tuple[int, ...], ...]:
    """The ground sets of the direct summands, ordered by their least element,
    read off the decorated permutation with no bases (Ardila-Rincon-Williams,
    "Positroids and non-crossing partitions"): the blocks of the finest
    non-crossing partition that keeps each cycle of pi, so each pair v, pi(v),
    in one block.  ``decompose_direct_sum``, on the bases, is the reference.

    One left-to-right scan keeps the open blocks on a stack.  Meeting v, whose
    lesser partner pi(v) or pi^-1(v) lies in an open block, merges every block
    opened since, as each crosses it; a block closes at its farthest partner.

    >>> necklace_components(necklace_from_decorated(DecoratedPermutation((3, 2, 1, 5, 4))))
    ((1, 3), (2,), (4, 5))
    """
    perm = necklace.fact(decorated_from_necklace).perm
    inverse = {v: i for i, v in enumerate(perm, start=1)}
    blocks, stack = [], []  # the open blocks: [farthest partner of a member, members]
    for v, image in enumerate(perm, start=1):
        near, far = (image, source) if image < (source := inverse[v]) else (source, image)
        if near >= v:
            stack.append([far, [v]])
        else:
            while stack[-1][1][0] > near:  # opened since near's block, so crossing it
                last, members = stack.pop()
                stack[-1][0] = max(stack[-1][0], last)
                stack[-1][1] += members
            stack[-1][0] = max(stack[-1][0], far)
            stack[-1][1].append(v)
        if stack[-1][0] == v:
            blocks.append(tuple(stack.pop()[1]))
    return tuple(sorted(blocks))


def necklace_connected(necklace: GrassmannNecklace) -> bool:
    """One block (``necklace_components``), so no bases are derived;
    ``is_connected`` is the reference."""
    return len(necklace.fact(necklace_components)) == 1


def necklace_summands(necklace: GrassmannNecklace) -> tuple[GrassmannNecklace, ...]:
    """The necklaces of the direct summands, one per block B of
    ``necklace_components``, with no bases: J_i meet B for each i in B,
    relabelled order-preservingly to 1..|B|.  Restricted to B, the order <_i
    is B's own cyclic order from i, and a direct sum's <_i-least basis is
    the union of its summands', so these are the summands' necklaces;
    ``GrassmannNecklace`` checks each.  A connected necklace is its own one
    summand.

    >>> square = validate_necklace([[1, 3], [2, 3], [1, 3], [1, 4]])  # U(1,2) + U(1,2)
    >>> [summand.compact() for summand in necklace_summands(square)]
    ['1,2', '1,2']
    """
    blocks = necklace.fact(necklace_components)
    if len(blocks) == 1:
        return (necklace,)
    summands = []
    for block in blocks:
        label = {v: k for k, v in enumerate(block, start=1)}
        summands.append(GrassmannNecklace(len(block), tuple(
            frozenset(label[v] for v in necklace.subsets[i - 1] if v in label) for i in block)))
    return tuple(summands)


def _restrict_bases(bases: PositroidBases, ground: tuple[int, ...]) -> PositroidBases:
    """Component bases on ``ground``, relabeled order-preservingly to 1..m."""
    restricted = frozenset(sum(1 << k for k, v in enumerate(ground, start=1) if b >> v & 1)
                           for b in bases.bases)
    sizes = {b.bit_count() for b in restricted}
    assert len(sizes) == 1, "a component produced unequal restrictions"
    return PositroidBases(len(ground), sizes.pop(), restricted)


def decompose_direct_sum(bases: PositroidBases) -> list[tuple[tuple[int, ...], PositroidBases]]:
    """Finest direct-sum decomposition of any matroid, as (ground subset,
    relabeled component) pairs ordered by their smallest ground element: the
    components of the fundamental graph (``_fundamental_union_find``).  Loops
    and coloops come out as singleton components of rank 0 and 1.

    >>> [(g, part.r) for g, part in decompose_direct_sum(PositroidBases(2, 1, {0b010}))]
    [((1,), 1), ((2,), 0)]
    """
    find, _ = _fundamental_union_find(bases.bases, bases.n)
    grounds: dict[int, list[int]] = {}
    for x in range(1, bases.n + 1):
        grounds.setdefault(find(x), []).append(x)
    return [(g, _restrict_bases(bases, g)) for g in map(tuple, grounds.values())]


class IntervalInequality(_Record):
    """A bound on the cyclic interval sum x_start + ... + x_{stop-1}."""

    __slots__ = _fields = ("start", "stop", "bound", "sense", "strict")

    def __init__(self, start: int, stop: int, bound: int, sense: str, strict: bool = False):
        if sense != "<=" and sense != ">=":
            raise ValueError(f"bad sense {sense!r}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "stop", stop)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "sense", sense)  # "<=" or ">="
        object.__setattr__(self, "strict", strict)

    def support(self, n: int) -> tuple[int, ...]:
        return cyclic_interval(self.start, self.stop, n)[:-1]

    def difference_bound(self, r: int) -> tuple[int, int, int]:
        """The row as a bound z_v - z_u <= c on the prefix sums
        z_q = x_1 + ... + x_q, returned as (u, v, c).

        With x_1 + ... + x_n = r the block sum is z_(stop-1) - z_(start-1),
        plus r when the block wraps past x_n; a ">=" row bounds its negation.

        >>> IntervalInequality(4, 1, 0, ">=").difference_bound(2)  # x_4 >= 0 at n = 4
        (0, 3, 2)
        """
        u, v, c = self.start - 1, self.stop - 1, self.bound - r * (self.start > self.stop)
        return (u, v, c) if self.sense == "<=" else (v, u, -c)


class HRepresentation(NamedTuple):
    """Inequality description of a polytope in the simplex slice of [0,1]^n.

    The constraints x_1 + ... + x_n = r and x_i >= 0 are implicit; the listed
    interval inequalities come on top.  Every polytope handled here lies in
    the unit cube, which lattice counting relies on.
    """

    n: int
    r: int
    inequalities: tuple[IntervalInequality, ...]


def h_representation(necklace: GrassmannNecklace) -> HRepresentation:
    """Interval-sum inequalities of the positroid polytope of a necklace.

    For each i and each j = 1..r the sum x_i + ... + x_{a-1} with a the j-th
    element of J_i in <_i order is at most j-1; empty sums (a == i) are
    dropped as vacuous.  The pairs (i, a) are distinct, so no row repeats.
    """
    return HRepresentation(necklace.n, necklace.rank, tuple(
        IntervalInequality(i, a, j, "<=") for i in range(1, necklace.n + 1)
        for j, a in enumerate(necklace.sorted_subset(i)) if a != i))


def zero_one_points(hrep: HRepresentation) -> frozenset[int]:
    """The 0/1 points, as r-subset bitmasks (bit k for x_k), by the one filter:
    x(S) <= b is the limit (S, b), and x(S) >= b the limit (complement of S,
    r - b), as every point has r ones; a strict row tightens its limit by one."""
    n, r = hrep.n, hrep.r
    full = (1 << n + 1) - 2
    limits = []
    for q in hrep.inequalities:
        segment = sum(1 << k for k in q.support(n))
        limits.append((segment, q.bound - q.strict) if q.sense == "<="
                      else (full ^ segment, r - q.bound - q.strict))
    return _r_subsets_within(n, r, limits)


def _fundamental_union_find(masks: frozenset[int], n: int) -> tuple[Callable[[int], int], int]:
    """The components of a matroid on 1..n, given by its basis bitmasks, as a
    union-find: they are those of the fundamental graph of any one basis B,
    which joins i in B and j not in B when B - i + j is a basis
    (Feichtner-Sturmfels 2005).  Returns its find and the number of unions
    that joined two components.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    base = next(iter(masks))
    outside = [j for j in range(1, n + 1) if not base >> j & 1]
    unions = 0
    for i in range(1, n + 1):
        if base >> i & 1:
            for j in outside:
                if base ^ 1 << i | 1 << j in masks and (a := find(i)) != (b := find(j)):
                    parent[a] = b
                    unions += 1
    return find, unions


def dimension_of_bases(masks: frozenset[int], n: int) -> int:
    """Dimension of conv{e_B} over the basis bitmasks of a matroid on 1..n: n
    minus the number of components, so one per joining union.

    >>> dimension_of_bases(frozenset({0b010, 0b100}), 2)  # a segment
    1
    >>> dimension_of_bases(frozenset({0b010}), 2)  # a coloop and a loop
    0
    >>> square = frozenset({0b01010, 0b01100, 0b10010, 0b10100})  # U(1,2) + U(1,2)
    >>> dimension_of_bases(square, 4)
    2
    """
    return _fundamental_union_find(masks, n)[1]


def facet_representation(necklace: GrassmannNecklace) -> HRepresentation:
    """The facets of the projected polytope, read off the necklace with no bases.

    In prefix sums z_q = x_1 + ... + x_q, x_i >= 0 says
    0 = z_0 <= z_1 <= ... <= z_(n-1) <= r, and each necklace inequality
    bounds a difference (``difference_bound``): the polytope is alcoved
    (Lam-Postnikov, "Alcoved polytopes I").  So z_v - z_u <= c[u][v] on the
    nodes 0..n-1, from 0 for v < u and r for u < v; shortest paths close the
    bounds, and c[u][v] is a facet unless a third node w has
    c[u][w] + c[w][v] = c[u][v].  For u < v it is x_(u+1) + ... + x_v <= c[u][v],
    and c[v][u] is x_(u+1) + ... + x_v >= -c[v][u]: blocks that never read x_n,
    so with the sum equality they cut out the polytope, with no redundant
    row.  Sorted by (start, stop, bound, upper).  Needs a connected positroid.
    """
    n, r = necklace.n, necklace.rank
    necklace.require_connected("facet representation")
    nodes = range(n)
    c = [[0 if v <= u else r for v in nodes] for u in nodes]
    for q in necklace.fact(h_representation).inequalities:
        u, v, bound = q.difference_bound(r)
        c[u][v] = min(c[u][v], bound)
    for w in nodes:
        for row in c:
            row[:] = [min(a, row[w] + b) for a, b in zip(row, c[w])]
    rows = [IntervalInequality(u + 1, v + 1, c[u][v], "<=") if u < v
            else IntervalInequality(v + 1, u + 1, -c[u][v], ">=")
            for u in nodes for v in nodes
            if u != v and all(c[u][w] + c[w][v] != c[u][v] for w in nodes if w != u and w != v)]
    return HRepresentation(n, r, tuple(sorted(
        rows, key=lambda q: (q.start, q.stop, q.bound, q.sense == "<="))))
