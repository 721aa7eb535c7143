import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroid_hstar import positroid as po
from positroid_hstar.core import i_order_key
from positroid_hstar.positroid import (
    DecoratedPermutation,
    HRepresentation,
    IntervalInequality,
    NecklaceError,
    bases_from_necklace,
    decompose_direct_sum,
    decorated_from_necklace,
    dimension_of_bases,
    h_representation,
    is_connected,
    is_matroid,
    necklace_components,
    necklace_connected,
    necklace_from_bases,
    necklace_from_decorated,
    necklace_summands,
    validate_necklace,
    zero_one_points,
)

from references import (
    affine_rank,
    contains,
    element_bases,
    element_sets,
    masks_of,
    reference_is_matroid,
    reference_necklace_from_bases,
    reference_stabilized_intervals,
    vertices,
)

PYRAMID = validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
UNIFORM25 = validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
PRISM = validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])


def contained_points(hrep):
    """The 0/1 points of ``hrep`` as bitmasks, by the membership reference."""
    n = hrep.n
    return masks_of(b for b in itertools.combinations(range(1, n + 1), hrep.r)
                    if contains(hrep, [int(k in b) for k in range(1, n + 1)]))


def decorated_permutations(n):
    for perm in itertools.permutations(range(1, n + 1)):
        fixed = [i for i, v in enumerate(perm, 1) if v == i]
        for mask in range(1 << len(fixed)):
            white = frozenset(f for k, f in enumerate(fixed) if mask >> k & 1)
            yield DecoratedPermutation(perm, white)


class TestNecklaceValidation:
    def test_pyramid_type(self):
        assert (PYRAMID.n, PYRAMID.rank) == (4, 2)

    def test_wheel_type(self):
        J = validate_necklace([[1, 2, 3], [2, 3, 5], [3, 4, 5], [1, 4, 5], [1, 2, 5]])
        assert (J.n, J.rank) == (5, 3)

    def test_truncated_rejected(self):
        with pytest.raises(NecklaceError):
            validate_necklace([[1, 2], [3, 4]], n=4)

    def test_successor_violation_names_index(self):
        with pytest.raises(NecklaceError, match="index 2"):
            validate_necklace([[1, 2], [2, 3], [2, 4], [1, 4]])

    def test_unequal_sizes_rejected(self):
        with pytest.raises(NecklaceError):
            validate_necklace([[1, 2], [2], [1, 3], [1, 4]])

    def test_out_of_range_rejected(self):
        with pytest.raises(NecklaceError):
            validate_necklace([[1, 7], [2, 7], [1, 3], [1, 4]])


class TestBasesFromNecklace:
    def test_pyramid(self):
        assert bases_from_necklace(PYRAMID).sorted_bases() == (
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4))

    def test_uniform(self):
        assert len(bases_from_necklace(UNIFORM25).bases) == 10

    def test_rank3_example(self):
        assert bases_from_necklace(PRISM).sorted_bases() == (
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
            (1, 4, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5))


def gale_sorted_bases(necklace):
    """Reference for `bases_from_necklace`: the r-subsets B such that, for
    every i, J_i and B sorted by <_i compare entry by entry."""
    n, r = necklace.n, necklace.rank
    j_ranks = [sorted_ranks(necklace.subsets[i - 1], i, n) for i in range(1, n + 1)]
    return masks_of(comb for comb, ranks in ranked_subsets(n, r)
                    if all(a <= b for j_i, b_i in zip(j_ranks, ranks)
                           for a, b in zip(j_i, b_i)))


def sorted_ranks(subset, i, n):
    """The positions of the elements of ``subset`` in <_i, sorted."""
    return sorted(map(i_order_key(i, n), subset))


@functools.cache
def ranked_subsets(n, r):
    """Each r-subset of 1..n with its `sorted_ranks` for i = 1..n."""
    return tuple((comb, tuple(sorted_ranks(comb, i, n) for i in range(1, n + 1)))
                 for comb in itertools.combinations(range(1, n + 1), r))


class TestBasesByPrefixCounts:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_decorated_permutation(self, n):
        for k, dec in enumerate(decorated_permutations(n)):
            necklace = necklace_from_decorated(dec)
            bases = bases_from_necklace(necklace)
            assert bases.bases == gale_sorted_bases(necklace), dec
            if n < 7 or k % 8 == 0:  # and back, against the gale_leq form
                assert necklace_from_bases(bases) == reference_necklace_from_bases(bases) \
                    == necklace, dec

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_seeded_draws(self, n):
        rng = random.Random(n)
        for _ in range(4):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            white = frozenset(v for v in range(1, n + 1)
                              if perm[v - 1] == v and rng.random() < 0.5)
            necklace = necklace_from_decorated(DecoratedPermutation(tuple(perm), white))
            assert bases_from_necklace(necklace).bases == gale_sorted_bases(necklace), perm


def necklace_or_message(bases, convert):
    """``convert(bases)``, or the message of the ValueError it raises."""
    try:
        return convert(bases)
    except ValueError as err:
        return str(err)


class TestNecklaceFromBases:
    def test_pyramid_round_trip(self):
        assert necklace_from_bases(bases_from_necklace(PYRAMID)) == PYRAMID

    def test_uniform_gale_minima(self):
        J = necklace_from_bases(element_bases(5, 2, itertools.combinations(range(1, 6), 2)))
        assert J == validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
        assert J.sorted_subset(5) == (5, 1)

    def test_direct_sum_round_trip(self):
        B = element_bases(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        J = necklace_from_bases(B)
        assert bases_from_necklace(J).bases == B.bases

    def test_non_positroid_matroid_grows(self):
        # direct sum over the crossing pair {1,3} | {2,4}: a matroid, not a positroid
        B = element_bases(4, 2, [(1, 2), (1, 4), (2, 3), (3, 4)])
        assert is_matroid(B)
        J = necklace_from_bases(B)
        assert bases_from_necklace(J).bases > B.bases

    def test_random_basis_sets_give_the_same_necklace_or_message(self):
        # and the exchange scan on bitmasks agrees with the one on element sets
        rng = random.Random(23)
        messages = matroids = 0
        for _ in range(800):
            n = rng.randint(2, 6)
            r = rng.randint(1, n - 1)
            subsets = list(itertools.combinations(range(1, n + 1), r))
            bases = element_bases(n, r, rng.sample(subsets, rng.randint(1, len(subsets))))
            got = necklace_or_message(bases, necklace_from_bases)
            assert got == necklace_or_message(bases, reference_necklace_from_bases), bases
            messages += isinstance(got, str)
            assert is_matroid(bases) == reference_is_matroid(bases), bases
            matroids += is_matroid(bases)
        assert 50 < messages < 750  # both outcomes occur often
        assert 50 < matroids < 750

    def test_the_700_bases_of_a_direct_sum_give_the_reference_necklace_or_message(self):
        # U(3,7) + U(3,6) on 1..13, then without some of its bases: without
        # J_1 no basis is Gale-least for <_1
        left = itertools.combinations(range(1, 8), 3)
        right = list(itertools.combinations(range(8, 14), 3))
        bases = [a + b for a in left for b in right]  # sorted
        assert len(bases) == 700
        outcomes = []
        for dropped in ([], bases[:1], bases[350:351], bases[-2:]):
            basis_set = element_bases(13, 6, [b for b in bases if b not in dropped])
            got = necklace_or_message(basis_set, necklace_from_bases)
            assert got == necklace_or_message(basis_set, reference_necklace_from_bases)
            outcomes.append(got if isinstance(got, str) else "necklace")
        assert outcomes == ["necklace", "no Gale minimum for <_1; input is not a matroid",
                            "necklace", "necklace"]


class TestDecoratedBijection:
    def test_pyramid_forward(self):
        dec = decorated_from_necklace(PYRAMID)
        assert dec.perm == (3, 1, 4, 2) and not dec.fixed_points

    def test_coloop_and_loop(self):
        J = validate_necklace([[1], [1]])
        dec = decorated_from_necklace(J)
        assert dec.perm == (1, 2)
        assert dec.colors() == {1: "white", 2: "black"}

    def test_uniform_forward(self):
        dec = decorated_from_necklace(UNIFORM25)
        assert dec.perm == (3, 4, 5, 1, 2)
        assert necklace_from_decorated(dec) == UNIFORM25

    def test_all_white_identity(self):
        n = 4
        dec = DecoratedPermutation(tuple(range(1, n + 1)), frozenset(range(1, n + 1)))
        J = necklace_from_decorated(dec)
        assert all(s == frozenset(range(1, n + 1)) for s in J.subsets)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trips_exhaustive(self, n):
        for dec in decorated_permutations(n):
            J = necklace_from_decorated(dec)
            assert decorated_from_necklace(J) == dec
            assert necklace_from_decorated(decorated_from_necklace(J)) == J

    def test_colors_must_cover_fixed_points(self):
        with pytest.raises(ValueError):
            DecoratedPermutation((2, 1, 3), frozenset({1}))


class TestRecordsNormalizeTheirInputs:
    @pytest.mark.parametrize("perm, white", [
        ([2, 1, 3], frozenset({3})), ((2, 1, 3), {3}), ([2, 1, 3], [3])])
    def test_decorated_permutation(self, perm, white):
        normal = DecoratedPermutation((2, 1, 3), frozenset({3}))
        dec = DecoratedPermutation(perm, white)
        assert dec == normal and hash(dec) == hash(normal) and repr(dec) == repr(normal)

    @pytest.mark.parametrize("form", [set, list, tuple])
    def test_positroid_bases(self, form):
        normal = bases_from_necklace(PYRAMID)
        bases = po.PositroidBases(4, 2, form(normal.bases))
        assert bases == normal and hash(bases) == hash(normal)


class TestRankAndConnectivity:
    def test_connected_examples(self):
        assert is_connected(bases_from_necklace(PYRAMID))
        assert is_connected(bases_from_necklace(UNIFORM25))
        disco = element_bases(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert not is_connected(disco)

    def test_connected_polytopes_have_full_dimension(self):
        for n in range(2, 6):
            for dec in decorated_permutations(n):
                B = bases_from_necklace(necklace_from_decorated(dec))
                if is_connected(B):
                    assert dimension_of_bases(B.bases, n) == n - 1

    def test_polytope_dimension_matches_the_affine_rank_of_the_vertices(self):
        # disconnected positroids included: n minus the number of components
        for n in range(1, 6):
            for dec in decorated_permutations(n):
                B = bases_from_necklace(necklace_from_decorated(dec))
                assert dimension_of_bases(B.bases, n) == affine_rank(vertices(B)), dec

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sif_agrees_with_rank_split(self, n):
        for dec in decorated_permutations(n):
            J = necklace_from_decorated(dec)
            conn = is_connected(bases_from_necklace(J))
            assert conn == necklace_connected(J), dec

    def test_connectivity_fact_derives_no_bases(self, monkeypatch):
        def refuse(necklace):
            raise AssertionError("connectivity is read off the decorated permutation")

        monkeypatch.setattr(po, "bases_from_necklace", refuse)
        pyramid = necklace_from_decorated(DecoratedPermutation((3, 1, 4, 2)))
        disco = necklace_from_decorated(DecoratedPermutation((2, 1, 4, 3)))
        assert pyramid.fact(necklace_connected) and not disco.fact(necklace_connected)
        # U(6,12): a rank split would scan thousands of subsets against 924 bases
        uniform = validate_necklace([[(i + k) % 12 + 1 for k in range(6)] for i in range(12)])
        assert necklace_connected(uniform)
        # n = 24: U(2,4) on 1..4 with its crossing cycles (1 3)(2 4), a loop at
        # 5, the 7-cycle 6..12, and the nested transpositions (13 24)(14 23)
        # around the 8-cycle 15..22; a rank split would scan 2^23 subsets
        perm = [3, 4, 1, 2, 5, *range(7, 12), 12, 6, 24, 23, *range(16, 23), 15, 14, 13]
        disco = necklace_from_decorated(DecoratedPermutation(perm))
        assert disco.fact(necklace_components) == (
            (1, 2, 3, 4), (5,), (6, 7, 8, 9, 10, 11, 12), (13, 24), (14, 23),
            tuple(range(15, 23)))
        assert not disco.fact(necklace_connected)

    def test_a_necklace_built_from_pi_keeps_it(self, monkeypatch):
        # necklace_from_decorated keeps pi as a fact, so the blocks read it
        # with no second derivation; a necklace given by its subsets derives
        # it once, and verify's round trip derives it itself, once for each
        # decorated permutation
        from positroid_hstar import verify

        derived, derive = [], po.decorated_from_necklace
        monkeypatch.setattr(po, "decorated_from_necklace",
                            lambda necklace: derived.append(necklace) or derive(necklace))
        for dec in decorated_permutations(5):
            J = po.necklace_from_decorated(dec)
            assert J.fact(po.decorated_from_necklace) is dec
            J.fact(necklace_components)
        assert derived == []
        J = validate_necklace(PYRAMID.subsets)
        assert J.fact(necklace_connected) and J.fact(necklace_components) == ((1, 2, 3, 4),)
        assert derived == [J]
        derived.clear()
        assert all(ok for _, ok, _ in verify.verify_roundtrips(4))
        assert len(derived) == 88

    @pytest.mark.parametrize("n", range(1, 8))
    def test_block_scan_matches_the_cyclic_intervals(self, n):
        # every permutation of 1..n, so every decorated permutation (the
        # colors do not enter), against the cyclic rule that also tests the
        # intervals wrapping past n
        for perm in itertools.permutations(range(1, n + 1)):
            necklace = necklace_from_decorated(DecoratedPermutation(perm))
            assert necklace_connected(necklace) == (not reference_stabilized_intervals(perm))


class TestDecomposition:
    def test_two_blocks(self):
        B = element_bases(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        parts = decompose_direct_sum(B)
        assert [g for g, _ in parts] == [(1, 2), (3, 4)]
        for _, comp in parts:
            assert comp.sorted_bases() == ((1,), (2,))

    def test_connected_is_single_component(self):
        parts = decompose_direct_sum(bases_from_necklace(PYRAMID))
        assert len(parts) == 1 and parts[0][0] == (1, 2, 3, 4)

    def test_all_coloops(self):
        n = 4
        J = necklace_from_decorated(
            DecoratedPermutation(tuple(range(1, n + 1)), frozenset(range(1, n + 1))))
        parts = decompose_direct_sum(bases_from_necklace(J))
        assert [g for g, _ in parts] == [(1,), (2,), (3,), (4,)]
        assert all(comp.r == 1 for _, comp in parts)

    def test_components_of_every_disconnected_positroid(self):
        # n <= 6, against the rank-split reference: the components partition
        # [n], each is connected, and the bases are the products of theirs
        for n in range(2, 7):
            for dec in decorated_permutations(n):
                J = necklace_from_decorated(dec)
                if necklace_connected(J):
                    continue
                B = bases_from_necklace(J)
                parts = decompose_direct_sum(B)
                grounds = [g for g, _ in parts]
                assert len(parts) > 1 and grounds == sorted(grounds, key=min), dec
                assert sorted(v for g in grounds for v in g) == list(range(1, n + 1)), dec
                assert all(is_connected(comp) for _, comp in parts), dec
                products = {frozenset(g[k - 1] for (g, _), b in zip(parts, choice) for k in b)
                            for choice in itertools.product(
                                *(element_sets(comp) for _, comp in parts))}
                assert products == element_sets(B), dec

    @pytest.mark.parametrize("n", range(1, 8))
    def test_blocks_are_the_fundamental_graph_components(self, n):
        # every decorated permutation: the non-crossing blocks of pi's cycles
        # against the grounds that the fundamental graph of the bases gives
        for dec in decorated_permutations(n):
            J = necklace_from_decorated(dec)
            grounds = tuple(g for g, _ in decompose_direct_sum(bases_from_necklace(J)))
            assert necklace_components(J) == grounds, dec

    @pytest.mark.parametrize("n", range(1, 7))
    def test_summand_necklaces_are_the_components(self, n):
        # every decorated permutation: J_i meet each block B, i in B, is the
        # necklace of the component that the bases split off on B, and a
        # connected necklace is its own one summand
        for dec in decorated_permutations(n):
            J = necklace_from_decorated(dec)
            summands = necklace_summands(J)
            assert summands == tuple(necklace_from_bases(comp) for _, comp in
                                     decompose_direct_sum(bases_from_necklace(J))), dec
            assert (summands == (J,)) == necklace_connected(J), dec

    def test_blocks_restrict_pi_to_the_components(self):
        # seeded draws at n = 8..10: each block is closed under pi, and pi
        # restricted to it is the decorated permutation of that component,
        # whose necklace is the block's summand
        rng = random.Random(44)
        for n in (8, 9, 10):
            for _ in range(12):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                J = necklace_from_decorated(DecoratedPermutation(perm))
                parts = decompose_direct_sum(bases_from_necklace(J))
                assert necklace_components(J) == tuple(g for g, _ in parts), perm
                for (ground, comp), summand in zip(parts, necklace_summands(J), strict=True):
                    label = {v: k for k, v in enumerate(ground, start=1)}
                    assert decorated_from_necklace(necklace_from_bases(comp)).perm == tuple(
                        label[perm[v - 1]] for v in ground), perm
                    assert summand == necklace_from_bases(comp), perm

    def test_loop_components_have_rank_zero(self):
        # 1 and 3 swapped, 2 is a black fixed point (a loop)
        dec = DecoratedPermutation((3, 2, 1), frozenset())
        B = bases_from_necklace(necklace_from_decorated(dec))
        parts = decompose_direct_sum(B)
        assert [(g, comp.r) for g, comp in parts] == [((1, 3), 1), ((2,), 0)]


class TestHRepresentation:
    def test_pyramid_inequalities(self):
        H = h_representation(PYRAMID)
        stored = {(q.start, q.stop, q.bound) for q in H.inequalities}
        assert stored == {(1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 1, 1)}
        assert all(q.sense == "<=" for q in H.inequalities)

    def test_uniform_is_box(self):
        H = h_representation(UNIFORM25)
        stored = {(q.start, q.stop, q.bound) for q in H.inequalities}
        assert stored == {(i, i % 5 + 1, 1) for i in range(1, 6)}

    def test_rank3_contains_expected_inequalities(self):
        H = h_representation(PRISM)
        stored = {(q.start, q.stop, q.bound) for q in H.inequalities}
        assert (3, 1, 2) in stored  # x_3+x_4+x_5 <= 2, i.e. x_1+x_2 >= 1
        assert (1, 4, 2) in stored  # x_1+x_2+x_3 <= 2
        assert zero_one_points(H) == bases_from_necklace(PRISM).bases

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM])
    def test_zero_one_points_match_vertices(self, necklace):
        assert zero_one_points(h_representation(necklace)) == \
            bases_from_necklace(necklace).bases

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_one_points_match_vertices_exhaustive(self, n):
        # the bitmask filter against the necklace's bases and against the
        # membership reference, point by point
        for dec in decorated_permutations(n):
            J = necklace_from_decorated(dec)
            H = h_representation(J)
            assert zero_one_points(H) == bases_from_necklace(J).bases == contained_points(H)

    def test_lower_and_strict_rows_match_the_membership_reference(self):
        rng = random.Random(34)
        for _ in range(300):
            n = rng.randrange(2, 7)
            r = rng.randrange(0, n + 1)
            H = HRepresentation(n, r, tuple(
                IntervalInequality(rng.randrange(1, n + 1), rng.randrange(1, n + 1),
                                   rng.randrange(-1, r + 2), rng.choice(("<=", ">=")),
                                   rng.random() < 0.5)
                for _ in range(rng.randrange(0, 4))))
            assert zero_one_points(H) == contained_points(H), H


class TestVertices:
    def test_pyramid_vertices(self):
        assert set(vertices(bases_from_necklace(PYRAMID))) == {
            (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}

    def test_uniform_count(self):
        assert len(vertices(bases_from_necklace(UNIFORM25))) == 10

    def test_single_basis(self):
        B = element_bases(4, 2, [(1, 2)])
        assert vertices(B) == ((1, 1, 0, 0),)


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_random_decorated_round_trip(n, data):
    perm = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    fixed = sorted(i for i, v in enumerate(perm, 1) if v == i)
    white = frozenset(data.draw(st.sets(st.sampled_from(fixed)))) if fixed else frozenset()
    dec = DecoratedPermutation(perm, white)
    assert decorated_from_necklace(necklace_from_decorated(dec)) == dec
