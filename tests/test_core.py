import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from positroid_hstar.core import (
    circuit_masks,
    circuit_subsets,
    cyclic_interval,
    descent_bounded_words,
    descent_count,
    is_permutation_word,
)
from positroid_hstar.positroid import IntervalInequality
from references import cyclic_left_descents, gale_leq


def restriction(word, i, j):
    """Restrict a permutation of 1..n to the cyclic interval [i, j].

    Returns (subword, ground) where the subword keeps the left-to-right order
    of ``word`` and ``ground`` lists [i, j] in increasing <_i order.
    """
    if not is_permutation_word(word):
        raise ValueError("not a permutation word")
    ground = cyclic_interval(i, j, len(word))
    members = set(ground)
    return tuple(v for v in word if v in members), ground


def rotation_ending_at(word, a):
    """The cyclic rotation of ``word`` whose last letter is ``a``."""
    if a not in word:
        raise ValueError(f"letter {a} does not occur in the word")
    k = word.index(a)
    return tuple(word[k + 1:]) + tuple(word[:k + 1])


class TestGaleOrder:
    def test_componentwise_natural_order(self):
        assert gale_leq({1, 3}, {2, 3}, 1, 4)

    def test_rotated_order(self):
        # order 3 < 4 < 1 < 2 on [4]
        assert gale_leq({3, 1}, {4, 2}, 3, 4)

    def test_antisymmetric_pair(self):
        # order 2 < 3 < 1: {1,2} sorts to (2,1) and {1,3} to (3,1), so
        # {1,2} <= {1,3} holds and the reverse fails
        assert gale_leq({1, 2}, {1, 3}, 2, 3)
        assert not gale_leq({1, 3}, {1, 2}, 2, 3)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gale_leq({1}, {1, 2}, 1, 3)
        with pytest.raises(ValueError):
            gale_leq({1, 2}, {1, 3}, 5, 4)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_partial_order_axioms(self, n, k):
        subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
        for i in range(1, n + 1):
            for s in subsets:
                assert gale_leq(s, s, i, n)
            for s, t in itertools.combinations(subsets, 2):
                assert not (gale_leq(s, t, i, n) and gale_leq(t, s, i, n))
            import random
            rng = random.Random(n * 10 + k)
            for _ in range(200):
                s, t, u = (rng.choice(subsets) for _ in range(3))
                if gale_leq(s, t, i, n) and gale_leq(t, u, i, n):
                    assert gale_leq(s, u, i, n)


class TestCyclicDescents:
    def test_descents_of_24135(self):
        assert cyclic_left_descents((2, 4, 1, 3, 5)) == frozenset({1, 3, 5})

    def test_restriction_of_32415(self):
        sub, ground = restriction((3, 2, 4, 1, 5), 1, 3)
        assert sub == (3, 2, 1)
        assert cyclic_left_descents(sub, order=ground) == frozenset({1, 2})

    def test_restriction_wrapping(self):
        sub, ground = restriction((3, 2, 4, 1, 5), 3, 1)
        assert sub == (3, 4, 1, 5)
        assert ground == (3, 4, 5, 1)
        assert cyclic_left_descents(sub, order=ground) == frozenset({5, 1})

    def test_identity_has_only_wrap_descent(self):
        for n in range(2, 7):
            assert cyclic_left_descents(tuple(range(1, n + 1))) == frozenset({n})

    def test_singleton_has_no_descents(self):
        assert cyclic_left_descents((1,)) == frozenset()

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            cyclic_left_descents((1, 1, 2))

    @given(st.permutations(list(range(1, 7))))
    def test_rotation_cardinality_invariance(self, word):
        word = tuple(word)
        sizes = {len(cyclic_left_descents(rotation_ending_at(word, a))) for a in word}
        assert len(sizes) == 1


class TestIntervals:
    def test_interval_elements(self):
        assert cyclic_interval(1, 3, 5) == (1, 2, 3)
        assert cyclic_interval(4, 2, 5) == (4, 5, 1, 2)
        assert cyclic_interval(2, 2, 5) == (2,)

    def test_support_drops_endpoint(self):
        def support(i, j, n):
            return IntervalInequality(i, j, 0, "<=").support(n)

        assert support(1, 3, 5) == (1, 2)
        assert support(4, 2, 5) == (4, 5, 1)
        assert support(3, 3, 5) == ()

    def test_restrict_to_point(self):
        sub, ground = restriction((3, 2, 4, 1, 5), 2, 2)
        assert sub == (2,) and ground == (2,)


class TestRotations:
    def test_rotation_to_inner_letter(self):
        assert rotation_ending_at((3, 2, 4, 1, 5), 3) == (2, 4, 1, 5, 3)

    def test_rotation_noop(self):
        assert rotation_ending_at((3, 2, 4, 1, 5), 5) == (3, 2, 4, 1, 5)

    def test_rotation_of_identity(self):
        assert rotation_ending_at((1, 2, 3, 4), 1) == (2, 3, 4, 1)

    def test_missing_letter_rejected(self):
        with pytest.raises(ValueError):
            rotation_ending_at((1, 2, 3), 5)


def bounded_by_brute_force(n, rows):
    """Filter all (n-1)! words w with w_n = n by the rows' descent bounds."""
    words = (head + (n,) for head in itertools.permutations(range(1, n)))
    return tuple(w for w in words if all(
        len(cyclic_left_descents(tuple(v for v in w if v in ground), order=ground)) <= bound
        for ground, bound in rows))


class TestDescentBoundedWords:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_no_rows_give_every_word(self, n):
        words = descent_bounded_words(n, [])
        assert words == bounded_by_brute_force(n, []) and len(words) == math.factorial(n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_letter_grounds_impose_nothing(self, n):
        rows = [((v,), 0) for v in range(1, n + 1)]
        assert descent_bounded_words(n, rows) == bounded_by_brute_force(n, [])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_rows_keep_the_rotations_of_the_chain(self, n):
        rng = random.Random(n)
        for _ in range(10):
            chain = tuple(rng.sample(range(1, n + 1), rng.randrange(2, n + 1)))
            rotations = {chain[k:] + chain[:k] for k in range(len(chain))}
            words = descent_bounded_words(n, [(chain, 1)])
            assert words == bounded_by_brute_force(n, [(chain, 1)])
            assert words == tuple(w for w in bounded_by_brute_force(n, [])
                                  if tuple(v for v in w if v in chain) in rotations)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_rows_match_brute_force(self, n):
        rng = random.Random(100 + n)
        for _ in range(20):
            rows = []
            for _ in range(rng.randrange(1, 5)):
                ground = tuple(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
                rows.append((ground, rng.randrange(len(ground))))
            assert descent_bounded_words(n, rows) == bounded_by_brute_force(n, rows)

    def test_negative_bound_is_rejected(self):
        with pytest.raises(ValueError, match="negative bound"):
            descent_bounded_words(4, [((1, 2, 3), 1), ((2, 4), -1)])


class TestCircuits:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_masks_are_the_descent_sets_of_the_rotations(self, n):
        for head in itertools.permutations(range(1, n)):
            word = head + (n,)
            expected = tuple(sum(1 << a for a in cyclic_left_descents(word[p + 1:] + word[:p + 1]))
                             for p in range(n))
            assert circuit_masks(word) == expected, word
            assert circuit_subsets(word) == tuple(
                frozenset(k for k in range(1, n + 1) if m >> k & 1) for m in expected)

    def test_circuit_of_32415(self):
        chain = [tuple(sorted(s)) for s in circuit_subsets((3, 2, 4, 1, 5))]
        assert chain == [(1, 3, 5), (2, 3, 5), (2, 4, 5), (1, 2, 4), (1, 2, 5)]

    def test_circuit_of_identity(self):
        for n in range(2, 7):
            word = tuple(range(1, n + 1))
            assert circuit_subsets(word) == tuple(frozenset({a}) for a in word)

    def test_circuit_of_singleton_is_empty_set(self):
        # cyclic descents of a one-letter word are empty by convention
        assert circuit_subsets((1,)) == (frozenset(),)

    def test_circuit_of_2314(self):
        # circuit order I_2, I_3, I_1, I_4
        chain = [tuple(sorted(s)) for s in circuit_subsets((2, 3, 1, 4))]
        assert chain == [(2, 4), (3, 4), (1, 3), (1, 4)]

    def test_requires_trailing_n(self):
        with pytest.raises(ValueError):
            circuit_subsets((2, 3, 4, 1))

    @given(st.permutations(list(range(1, 6))))
    def test_circuits_distinct_equal_size_affinely_independent(self, head):
        word = tuple(head) + (6,)
        circuit = circuit_subsets(word)
        assert len(set(circuit)) == 6
        assert len({len(s) for s in circuit}) == 1
        from references import affine_rank
        pts = [[1 if k in s else 0 for k in range(1, 7)] for s in circuit]
        assert affine_rank(pts) == 5


class TestDescentCount:
    @pytest.mark.parametrize("word,count", [
        ((2, 4, 1, 3), 1),
        ((1, 2, 3), 0),
        ((3, 4, 2, 1), 2),
    ])
    def test_examples(self, word, count):
        assert descent_count(word) == count

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            descent_count(())
