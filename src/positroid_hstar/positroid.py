"""Positroids: necklaces, decorated permutations, bases, and the polytope.

A positroid on 1..n can be handed around in three equivalent forms:

- a Grassmann necklace (J_1, ..., J_n) of r-subsets obeying the one-step
  exchange rule  J_{i+1} = J_i - {i} + {j}  (when i is in J_i),
- a decorated permutation: a permutation with black/white colored fixed points,
- its set of bases.

An r-subset is Gale-above J_i in <_i exactly when it obeys J_i's necklace
inequalities (``_necklace_rows``), each read on bitmasks as at most ``bound``
ones in its block (``IntervalInequality.mask``).  So a necklace's bases are
the 0/1 points of its H-representation (``zero_one_points``), and a basis
set is checked to be a positroid's by its exchanges (``positroid_necklace``).

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
    """Raised when the triangulation (its labels, a --w0 base label) or a
    half-open body is asked of a disconnected positroid.  Every closed route
    takes any positroid, as the product of its summands
    (``ehrhart.ehrhart_by_route``)."""


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


def bases_from_necklace(necklace: GrassmannNecklace) -> PositroidBases:
    """The bases of the positroid of J: the r-subsets Gale-above every J_i,
    so the 0/1 points of the necklace inequalities (``h_representation``)."""
    return PositroidBases(necklace.n, necklace.rank,
                          zero_one_points(necklace.fact(h_representation)))


def necklace_from_bases(bases: PositroidBases) -> GrassmannNecklace:
    """Necklace of Gale-minimal bases; requires the input to be a matroid.

    J_i is the <_i-lexicographic minimum, which for a matroid is the Gale
    minimum for <_i; every basis is checked Gale-above it (``_necklace_rows``),
    and a ValueError is raised if one is not (non-matroid input).  With
    element v at bit n - v, turning the mask left by i - 1 (within n bits)
    puts the elements in <_i order from the top bit down, so the minimum is
    the basis of largest turned mask.
    """
    n, masks = bases.n, bases.bases
    full = (1 << n) - 1
    reversed_masks = [(sum(1 << n - v for v in mask_elements(b)), b) for b in masks]
    subsets = []
    for i in range(1, n + 1):
        best = mask_elements(max(
            reversed_masks, key=lambda mb: (mb[0] << i - 1 | mb[0] >> n + 1 - i) & full)[1])
        rows = [(q.mask(n), q.bound) for q in _necklace_rows(best, i, n)]
        if not all((mask & block).bit_count() <= bound for mask in masks for block, bound in rows):
            raise ValueError(f"no Gale minimum for <_{i}; input is not a matroid")
        subsets.append(frozenset(best))
    return GrassmannNecklace(n, tuple(subsets))


def positroid_necklace(bases: PositroidBases) -> GrassmannNecklace:
    """The necklace J of a positroid's bases, kept as its ``bases_from_necklace``
    fact; a ValueError unless they are a positroid's.  ``necklace_from_bases``
    puts them among J's bases, which are connected by exchanges: they are
    all of them unless an exchange b - i + j of one leaves them and obeys
    every necklace inequality."""
    necklace = necklace_from_bases(bases)
    n, masks = bases.n, bases.bases
    ground = (1 << n + 1) - 2
    rows = [(q.mask(n), q.bound) for q in necklace.fact(h_representation).inequalities]
    exchanges = {b ^ 1 << i | 1 << j for b in masks
                 for i in mask_elements(b) for j in mask_elements(ground & ~b)}
    if any(all((c & block).bit_count() <= bound for block, bound in rows)
           for c in exchanges - masks):
        raise ValueError("basis set is not a positroid's")
    necklace._facts[bases_from_necklace] = bases
    return necklace


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
    ``GrassmannNecklace`` checks each.  A connected necklace's one summand
    equals it.

    >>> square = validate_necklace([[1, 3], [2, 3], [1, 3], [1, 4]])  # U(1,2) + U(1,2)
    >>> [summand.compact() for summand in necklace_summands(square)]
    ['1,2', '1,2']
    """
    summands = []
    for block in necklace.fact(necklace_components):
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

    def mask(self, n: int) -> int:
        """The block as a bitmask, bit k for x_k: bits start..stop-1, or when
        it wraps the complement of bits stop..start-1 within bits 1..n."""
        if self.start <= self.stop:
            return (1 << self.stop) - (1 << self.start)
        return (1 << n + 1) - 2 - (1 << self.start) + (1 << self.stop)

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


def _necklace_rows(subset: Iterable[int], i: int, n: int) -> list[IntervalInequality]:
    """The necklace inequalities of J_i = ``subset``: for each j = 1..r the sum
    x_i + ... + x_{a-1} with a the j-th element of J_i in <_i order is at
    most j-1; the empty sum (a == i) is dropped as vacuous."""
    return [IntervalInequality(i, a, j, "<=")
            for j, a in enumerate(sorted(subset, key=i_order_key(i, n))) if a != i]


def h_representation(necklace: GrassmannNecklace) -> HRepresentation:
    """The positroid polytope's interval-sum inequalities: every J_i's rows
    (``_necklace_rows``).  The pairs (i, a) are distinct, so no row repeats."""
    n = necklace.n
    return HRepresentation(n, necklace.rank, tuple(
        q for i in range(1, n + 1) for q in _necklace_rows(necklace.subsets[i - 1], i, n)))


def zero_one_points(hrep: HRepresentation) -> frozenset[int]:
    """The 0/1 points, as r-subset bitmasks (bit k for x_k), by one filter: at
    most ``bound`` ones in ``block`` for each limit, equal limits tested once.
    x(S) <= b is the limit (S, b), and x(S) >= b the limit (complement of S,
    r - b), as every point has r ones; a strict row tightens its limit by one."""
    n, r = hrep.n, hrep.r
    full = (1 << n + 1) - 2
    limits = {(q.mask(n), q.bound - q.strict) if q.sense == "<="
              else (full ^ q.mask(n), r - q.bound - q.strict) for q in hrep.inequalities}
    masks = map(sum, itertools.combinations([1 << v for v in range(1, n + 1)], r))
    return frozenset(mask for mask in masks
                     if all((mask & block).bit_count() <= bound for block, bound in limits))


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
