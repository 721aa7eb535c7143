"""Permutation, cyclic-order and record primitives.

Conventions used package-wide:

- permutations are tuples in one-line notation with entries 1..n,
- the rotated order ``<_i`` on 1..n is  i < i+1 < ... < n < 1 < ... < i-1,
- the cyclic interval ``[i, j]`` is the totally ordered set {i, i+1, ..., j}
  taken mod n; it wraps through n exactly when i > j,
- the interval sum ``x_[i,j]`` covers the coordinates i, i+1, ..., j-1 mod n,
  ``cyclic_interval(i, j, n)[:-1]``, so it is empty when j == i,
- an h*-vector is a tuple of ints in ascending degree, trailing zeros
  trimmed (`_trim`); with the dimension it is the Ehrhart polynomial
  (`ehrhart.EhrhartPolynomial`).

Every slotted record of the package derives from one immutable base, ``_Record``.

All arithmetic is exact (ints and Fractions); nothing here uses floats.
``fractions`` is imported only for an Ehrhart polynomial's coefficients,
so a process that only computes h*-vectors never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Word = tuple[int, ...]


def is_permutation_word(word: Sequence[int]) -> bool:
    """True if ``word`` is a permutation of 1..n in one-line notation."""
    return len(word) >= 1 and sorted(word) == list(range(1, len(word) + 1))


def i_order_key(i: int, n: int) -> Callable[[int], int]:
    """Sort key realising the total order i <_i i+1 <_i ... <_i i-1 on 1..n."""
    if not 1 <= i <= n:
        raise ValueError(f"base point {i} outside 1..{n}")
    return lambda x: (x - i) % n


def cyclic_interval(i: int, j: int, n: int) -> Word:
    """The totally ordered set [i, j], listed in increasing <_i order.

    >>> cyclic_interval(3, 1, 4)
    (3, 4, 1)
    >>> cyclic_interval(2, 2, 5)
    (2,)
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"interval endpoints ({i}, {j}) outside 1..{n}")
    span = (j - i) % n
    return tuple((i - 1 + s) % n + 1 for s in range(span + 1))


def descent_bounded_words(n: int, rows: Iterable[tuple[Sequence[int], int]]) -> tuple[Word, ...]:
    """Words w with w_n = n, in lexicographic order, whose restriction to each
    row's ground (its letters in cyclic order) has at most the row's bound
    of cyclic left descents; a negative bound is a ValueError.  Serves both
    the label search and `tree.circular_extensions`.

    Letters are placed left to right, n last, so placing v makes its
    predecessor in a ground a descent exactly when that one is still
    unplaced: counts only grow, and a prefix is cut once a row exceeds its
    bound.  The unplaced letters are a bitmask (bit v for letter v), the
    prefix is one list filled by backtracking, and the remaining room per
    row is copied only when a placement charges it.

    >>> descent_bounded_words(4, [((1, 3, 2), 1)])
    ((1, 3, 2, 4), (2, 1, 3, 4), (3, 2, 1, 4))
    """
    charges: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    bounds = []
    for k, (ground, bound) in enumerate(rows):
        if bound < 0:
            raise ValueError(f"row {k} has negative bound {bound}")
        for pred, v in zip(ground[-1:] + ground[:-1], ground):
            if pred != v:
                charges[v].append((k, 1 << pred))
        bounds.append(bound)
    out: list[Word] = []
    prefix = list(range(1, n + 1))  # prefix[n - 1] = n throughout

    def extend(depth: int, free: int, room: list[int]) -> None:
        if depth == n - 1:
            out.append(tuple(prefix))
            return
        for v in range(1, n):
            bit = 1 << v
            if not free & bit:
                continue
            rest = free ^ bit
            left = room
            for k, pred_bit in charges[v]:
                if rest & pred_bit:
                    if left is room:
                        left = room.copy()
                    left[k] -= 1
                    if left[k] < 0:
                        break
            else:
                prefix[depth] = v
                extend(depth + 1, rest, left)

    extend(0, (1 << n + 1) - 2, bounds)
    return tuple(out)


def circuit_subsets(word: Sequence[int]) -> tuple[frozenset[int], ...]:
    """Cyclic-descent sets of all rotations of ``word``, in circuit order.

    ``word`` must end with n.  Entry p is the descent set of the rotation
    ending at word[p]; all n sets are distinct and have equal size.  The
    sets are those of `circuit_masks`, checked and unpacked.

    >>> [''.join(map(str, sorted(s))) for s in circuit_subsets((3, 2, 4, 1, 5))]
    ['135', '235', '245', '124', '125']
    """
    return tuple(frozenset(mask_elements(m)) for m in circuit_masks(label_word(word)))


def mask_elements(mask: int) -> Word:
    """The set bits of a bitmask in increasing order, bit k read as element k.

    >>> mask_elements(0b10110)
    (1, 2, 4)
    """
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def label_word(word: Sequence[int]) -> Word:
    """``word`` as a tuple; a ValueError unless it is a permutation of 1..n
    ending with n, the form of a triangulation label."""
    if not is_permutation_word(word):
        raise ValueError("not a permutation word")
    if word[-1] != len(word):
        raise ValueError("circuit labels must end with n")
    return tuple(word)


def circuit_masks(word: Sequence[int]) -> tuple[int, ...]:
    """`circuit_subsets` as bitmasks (bit k for letter k), for a word already
    known to be a permutation of 1..n ending with n; unchecked.

    The word's cyclic left descents are the letters a whose cyclic
    successor (a + 1, or 1 for a = n) stands left of them.  Moving the
    first letter v of a rotation to the back makes v a descent and then
    its cyclic predecessor v - 1 (mod n) not one.

    >>> [bin(m) for m in circuit_masks((2, 3, 1, 4))]
    ['0b10100', '0b11000', '0b1010', '0b10010']
    """
    n = len(word)
    pos = [0] * (n + 2)
    for p, v in enumerate(word):
        pos[v] = p
    pos[n + 1] = pos[1]
    mask = 0
    for a in range(1, n + 1):
        if pos[a] > pos[a + 1]:
            mask |= 1 << a
    out = []
    for v in word:
        mask = (mask | 1 << v) & ~(1 << (v - 2) % n + 1)
        out.append(mask)
    return tuple(out)


def descent_count(word: Sequence[int]) -> int:
    """Number of positions p with word[p] > word[p+1].

    >>> descent_count((2, 4, 1, 3))
    1
    """
    if not word:
        raise ValueError("empty word")
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def _trim(coeffs: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
    """``coeffs`` as a tuple without trailing zeros."""
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


class _Record:
    """Base of the immutable slotted records: equality (same type only), hash,
    repr and pickling read the slots named in ``_fields``, in order; other
    slots (a necklace's facts) stay out.  ``__init__`` sets each slot once
    through ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        fields = ", ".join(f"{name}={_sorted_repr(getattr(self, name))}"
                           for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


def _sorted_repr(value) -> str:
    """``repr(value)`` with each frozenset's members in increasing order, also
    inside a tuple, so equal records print alike.

    >>> _sorted_repr((frozenset({8, 7}),)), _sorted_repr(frozenset())
    ('(frozenset({7, 8}),)', 'frozenset()')
    """
    if type(value) is frozenset and value:
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    if type(value) is tuple:
        return f"({', '.join(map(_sorted_repr, value))}{',' * (len(value) == 1)})"
    return repr(value)
