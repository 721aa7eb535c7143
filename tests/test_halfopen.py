import collections
import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from positroid_hstar import ehrhart as eh
from positroid_hstar import halfopen as ho
from positroid_hstar.cli import connected_necklaces
from positroid_hstar.ehrhart import (
    _face_hstar_from_counts,
    count_to_degree,
    face_hstar,
    hstar_by_counting,
    hstar_from_counts,
    lattice_counts,
    upper_tally,
)
from positroid_hstar.halfopen import (
    face_poset_of_uppers,
    hstar_closed_via_inclusion_exclusion,
    hstar_half_open,
    hstar_half_open_by_counting,
    moebius,
)
from positroid_hstar.positroid import (
    DecoratedPermutation,
    HRepresentation,
    IntervalInequality,
    bases_from_necklace,
    dimension_of_bases,
    facet_representation,
    h_representation,
    necklace_connected,
    necklace_from_bases,
    necklace_from_decorated,
    validate_necklace,
)
from positroid_hstar.triangulation import (
    enumerate_labels,
    hstar_shelling,
    simplex_facets,
    simplex_vertices,
)
from positroid_hstar.verify import _facets_by_bases

from references import (
    affine_rank,
    contains,
    element_bases,
    face_counts,
    face_equalities,
    half_open_profile,
    tally_dilates,
    vertices,
)
from test_ehrhart import (
    body_rows,
    connected_through,
    dilated,
    faulty_bodies,
    hypersimplex_hstar,
    one_box_tally,
    uniform,
)
from test_triangulation import phi_inverse_point

PYRAMID = validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
UNIFORM25 = validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
PRISM = validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
# Three connected positroids with n = 7, of ranks 3, 4 and 5.
SEVENS = tuple(validate_necklace([[int(c) for c in part] for part in text.split(",")])
               for text in ("123,235,345,457,567,267,237",
                            "1234,2345,3456,4567,1567,1367,1237",
                            "12345,23456,13456,14567,12567,12467,12347"))


def half_open_simplex(label):
    """The simplex facets with strict flags on the upper (<=) ones."""
    closed = simplex_facets(label)
    return HRepresentation(closed.n, closed.r, tuple(
        IntervalInequality(q.start, q.stop, q.bound, q.sense, strict=(q.sense == "<="))
        for q in closed.inequalities))


def facet_strings(necklace, upper):
    """The facet rows of one sense as text, "x_1+x_2+x_3 <= 2"."""
    sense = "<=" if upper else ">="
    return ["+".join(f"x_{k}" for k in range(f.start, f.stop)) + f" {sense} {f.bound}"
            for f in facet_representation(necklace).inequalities if f.sense == sense]


class TestCanonicalFacets:
    def test_pyramid(self):
        assert facet_strings(PYRAMID, True) == [
            "x_1 <= 1", "x_1+x_2+x_3 <= 2", "x_2 <= 1"]
        assert facet_strings(PYRAMID, False) == ["x_1+x_2 >= 1", "x_3 >= 0"]

    def test_rank3(self):
        assert facet_strings(PRISM, True) == [
            "x_1 <= 1", "x_1+x_2+x_3 <= 2", "x_2 <= 1", "x_4 <= 1"]
        lowers = facet_strings(PRISM, False)
        assert "x_1+x_2 >= 1" in lowers and "x_3 >= 0" in lowers

    def test_uniform(self):
        assert facet_strings(UNIFORM25, True) == [
            "x_1 <= 1", "x_1+x_2+x_3+x_4 <= 2", "x_2 <= 1", "x_3 <= 1", "x_4 <= 1"]

    def test_redundant_inequalities_pruned(self):
        # x_1+x_2+x_3 >= 1 holds on the pyramid but is not a facet
        assert "x_1+x_2+x_3 >= 1" not in facet_strings(PYRAMID, False)


def tight_vertex_sets(necklace):
    """Each candidate facet's tight vertices e_B, all n coordinates.  The
    candidates, as (lo, hi, bound, upper): x_i >= 0 and the necklace
    inequalities, each on a block x_lo + ... + x_{hi-1} that does not wrap
    (x_n >= 0 is x_1 + ... + x_{n-1} <= r), in the order of
    ``facet_representation``."""
    n, r = necklace.n, necklace.rank
    candidates = {(i, i + 1, 0, False) for i in range(1, n)} | {(1, n, r, True)}
    for q in h_representation(necklace).inequalities:
        candidates.add((q.start, q.stop, q.bound, q.sense == "<=") if q.start < q.stop
                       else (q.stop, q.start, r - q.bound, q.sense == ">="))
    verts = vertices(bases_from_necklace(necklace))
    return {IntervalInequality(lo, hi, bound, "<=" if upper else ">="):
            [v for v in verts if sum(v[lo - 1:hi - 1]) == bound]
            for lo, hi, bound, upper in sorted(candidates)}


def masks_of(verts):
    return frozenset(sum(x << k for k, x in enumerate(v, start=1)) for v in verts)


def random_connected(rng, n):
    while True:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        necklace = necklace_from_decorated(DecoratedPermutation(tuple(perm)))
        if necklace.fact(necklace_connected):
            return necklace


class TestFaceDimensions:
    """Dimensions read off the fundamental graph, against Bareiss elimination."""

    NECKLACES = [*(necklace for n in range(2, 7) for necklace in connected_necklaces(n)),
                 *SEVENS]

    def test_every_candidate_and_upper_face(self):
        assert len(self.NECKLACES) == 250 + 3  # every connected 2 <= n <= 6, and three n = 7
        for necklace in self.NECKLACES:
            n = necklace.n
            for tight in tight_vertex_sets(necklace).values():
                assert dimension_of_bases(masks_of(tight), n) == affine_rank(tight)
            for node in face_poset_of_uppers(necklace).nodes:
                verts = [tuple(m >> k & 1 for k in range(1, n + 1)) for m in node.vertex_set]
                assert node.dim == affine_rank(verts), (necklace.compact(), node)

    def test_canonical_facets_match_the_affine_rank_reference_past_the_sweep(self):
        # the affine rank of the tight vertices through n = 12; past it, the
        # dimension of the tight bases (``verify._facets_by_bases``)
        rng = random.Random(19)
        for n in range(9, 17):
            necklace = random_connected(rng, n)
            reference = (tuple(f for f, tight in tight_vertex_sets(necklace).items()
                               if affine_rank(tight) == n - 2) if n <= 12
                         else _facets_by_bases(necklace))
            assert facet_representation(necklace).inequalities == reference, necklace

    def test_closure_facets_match_the_bases_reference_through_n7(self):
        # rows and order: a dropped facet, or a redundant row kept, is seen
        necklaces = connected_through(7)
        assert len(necklaces) == 1726
        for necklace in necklaces:
            assert facet_representation(necklace).inequalities == _facets_by_bases(necklace), (
                necklace.compact())


class TestHalfOpenDescents:
    def test_values(self):
        assert hstar_half_open(PYRAMID) == (0, 0, 2)
        assert hstar_half_open(PRISM) == (0, 0, 1, 4)
        assert hstar_half_open(UNIFORM25) == (0, 0, 10, 1)

    def test_matches_strict_counting(self):
        for necklace in (PYRAMID, PRISM, UNIFORM25):
            assert hstar_half_open(necklace) == hstar_half_open_by_counting(necklace)

    def test_zero_constant_term_and_simplex_count(self):
        for necklace in (PYRAMID, PRISM, UNIFORM25):
            h = hstar_half_open(necklace)
            assert h[0] == 0
            assert sum(h) == len(enumerate_labels(necklace))

    def test_half_open_profile_starts_at_zero(self):
        assert half_open_profile(PYRAMID) == (0, 0, 2, 8)


class TestHalfOpenReciprocity:
    """The half-open oracle counts up to the h*-degree s; its reciprocal, the
    polytope with its lower facets strict, first has points at d + 1 - s,
    h*_s of them (Beck-Sanyal)."""

    def test_truncated_counts_agree_with_the_full_profile(self):
        necklaces = [necklace for n in range(2, 7) for necklace in connected_necklaces(n)]
        assert len(necklaces) == 250
        for necklace in necklaces:
            dim = necklace.n - 1
            full = half_open_profile(necklace)
            got = count_to_degree(necklace, half_open=True)
            degree = len(got.hstar) - 1
            assert got.hstar == hstar_half_open_by_counting(necklace) == hstar_from_counts(full)
            assert got.dim == dim and tuple(map(got, range(dim + 1))) == full
            closed = facet_representation(necklace)
            reciprocal = HRepresentation(closed.n, closed.r, tuple(
                IntervalInequality(q.start, q.stop, q.bound, q.sense, q.sense == ">=")
                for q in closed.inequalities))
            counts = lattice_counts(reciprocal, dim + 1)
            codegree, points = next((t, c) for t, c in enumerate(counts) if t and c)
            assert (codegree, points) == (dim + 1 - degree, got.hstar[-1]), necklace.compact()

    def test_a_reciprocal_count_off_by_one_is_caught(self, monkeypatch):
        faulty_bodies(monkeypatch, lambda strict: strict == {">="},
                      lambda points: points + bool(points))
        for necklace in (PYRAMID, PRISM, UNIFORM25):
            with pytest.raises(ArithmeticError, match="reciprocal body"):
                hstar_half_open_by_counting(validate_necklace(necklace.subsets))


class TestHalfOpenSimplex:
    def test_identity_label_only_top_facet_strict(self):
        H = half_open_simplex((1, 2, 3, 4))
        strict = {(q.start, q.stop) for q in H.inequalities if q.strict}
        assert strict == {(1, 4)}

    def test_strictness_matches_chain_of_3241(self):
        # points of the projected simplex lie in the half-open simplex exactly
        # when their fractional image satisfies 0 < y_3 < y_2 <= y_4 < y_1 <= 1
        word = (3, 2, 4, 1, 5)
        H = half_open_simplex(word)
        verts = [v[:-1] for v in simplex_vertices(word)]
        import random
        rng = random.Random(11)
        points = [tuple(v) for v in verts]
        for _ in range(40):
            weights = [Fraction(rng.randrange(0, 4)) for _ in verts]
            if sum(weights) == 0:
                continue
            total = sum(weights)
            points.append(tuple(
                sum(w * Fraction(v[k]) for w, v in zip(weights, verts)) / total
                for k in range(4)))
        for p in points:
            y = phi_inverse_point(p)
            y = [v if v != 0 else Fraction(1) for v in y]  # wrap 0 to 1 on the circle
            in_chain = (0 < y[2] < y[1] <= y[3] < y[0] <= 1)
            lifted = p + (H.r - sum(p),)
            assert contains(H, lifted) == in_chain, p

    def test_half_open_simplices_partition_the_half_open_polytope(self):
        labels = enumerate_labels(PRISM)
        totals = map(sum, zip(*(lattice_counts(half_open_simplex(w), 4) for w in labels)))
        assert tuple(totals) == half_open_profile(PRISM)

    def test_pyramid_partition(self):
        labels = enumerate_labels(PYRAMID)
        totals = map(sum, zip(*(lattice_counts(half_open_simplex(w), 3) for w in labels)))
        assert tuple(totals) == half_open_profile(PYRAMID)


def reference_moebius(poset):
    """``halfopen.moebius`` by its definition: mu is 1 on top, and minus the
    sum over every node whose basis set strictly contains the node's."""
    mu = {}
    for node in poset.nodes:  # decreasing dimension
        mu[node] = 1 if node == poset.top else -sum(
            mu[g] for g in poset.nodes if node.vertex_set < g.vertex_set)
    return mu


class TestFacePoset:
    def test_pyramid_poset_shape(self):
        poset = face_poset_of_uppers(PYRAMID)
        dims = sorted(node.dim for node in poset.nodes)
        assert dims == [0, 1, 1, 2, 2, 2, 3]

    def test_pyramid_moebius(self):
        poset = face_poset_of_uppers(PYRAMID)
        mu = moebius(poset)
        by_dim = {}
        for node, value in mu.items():
            by_dim.setdefault(node.dim, []).append(value)
        assert sorted(by_dim[2]) == [-1, -1, -1]
        assert sorted(by_dim[1]) == [1, 1]
        assert by_dim[0] == [0]

    def test_rank3_poset_shape(self):
        poset = face_poset_of_uppers(PRISM)
        dims = sorted(node.dim for node in poset.nodes)
        assert dims == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4]
        sizes = sorted(len(node.vertex_set) for node in poset.nodes if node.dim == 3)
        assert sizes == [5, 5, 5, 6]  # three pyramids and one prism

    def test_rank3_moebius(self):
        mu = moebius(face_poset_of_uppers(PRISM))
        by_dim = {}
        for node, value in mu.items():
            by_dim.setdefault(node.dim, []).append(value)
        assert sorted(by_dim[3]) == [-1, -1, -1, -1]
        assert sorted(by_dim[2]) == [1, 1, 1, 1, 1]
        assert sorted(by_dim[1]) == [-1, -1, 0]
        assert by_dim[0] == [0]

    def test_antichain_when_uppers_disjoint(self):
        # rank-1 simplex: single upper facet, poset is top plus that facet
        J = validate_necklace([[1], [2], [3]])
        poset = face_poset_of_uppers(J)
        assert sorted(node.dim for node in poset.nodes) == [1, 2]
        assert moebius(poset)[poset.nodes[1]] == -1

    @pytest.mark.parametrize("necklace", [PYRAMID, PRISM, UNIFORM25])
    def test_moebius_rows_sum_to_zero(self, necklace):
        poset = face_poset_of_uppers(necklace)
        mu = moebius(poset)
        for node in poset.nodes:
            if node == poset.top:
                continue
            total = mu[node] + sum(mu[g] for g in poset.nodes
                                   if node.vertex_set < g.vertex_set)
            assert total == 0

    def test_moebius_matches_the_basis_set_reference_up_to_n7(self):
        necklaces = connected_through(7)
        assert len(necklaces) == 250 + 1476
        for necklace in necklaces:
            poset = face_poset_of_uppers(necklace)
            assert moebius(poset) == reference_moebius(poset), necklace.compact()

    def test_faces_count_alike_from_facets_and_full_h_representation(self):
        # every face that inclusion-exclusion counts, with n <= 5
        for n in range(2, 6):
            for necklace in connected_necklaces(n):
                poset = face_poset_of_uppers(necklace)
                facets, full = facet_representation(necklace), h_representation(necklace)
                for node, mu in moebius(poset).items():
                    if node == poset.top or mu == 0:
                        continue
                    eqs = face_equalities(poset, node)
                    assert face_hstar(facets, eqs, node.dim) == face_hstar(full, eqs, node.dim)


def dilate_histograms(necklace):
    """Per dilate t of ``tally_dilates``, the points of tP by their mask of
    tight upper facets: the histograms that ``upper_tally`` merges."""
    facets = necklace.fact(eh._facet_rows)
    return [one_box_tally(necklace.n, dilated(body_rows(necklace, facets), t), t,
                          dilated(eh._upper_marks(facets), t)) for t in tally_dilates(necklace.n)]


def tight_upper_mask(basis, uppers):
    """Bit i set when the 0/1 point of the ``basis`` bitmask is tight on the
    i-th upper row, x_start + ... + x_{stop-1} == bound."""
    return sum(1 << i for i, f in enumerate(uppers)
               if sum(basis >> k & 1 for k in range(f.start, f.stop)) == f.bound)


class TestUpperTally:
    def test_face_counts_equal_the_face_oracle(self):
        # every face that inclusion-exclusion counts, with n <= 5 and at n = 7
        necklaces = [nk for n in range(2, 6) for nk in connected_necklaces(n)]
        for necklace in necklaces + list(SEVENS):
            poset = face_poset_of_uppers(necklace)
            tally = upper_tally(necklace)
            facets = facet_representation(necklace)
            for node, mu in moebius(poset).items():
                if node == poset.top or mu == 0:
                    continue
                eqs = face_equalities(poset, node)
                counts = face_counts(tally, node.generators)
                assert _face_hstar_from_counts(counts, node.dim, len(node.vertex_set)) \
                    == face_hstar(facets, eqs, node.dim)

    def test_face_counts_read_the_merged_masks_as_the_dilates(self):
        # every face, mu(F, P) = 0 included: the per-mask rows give what a scan
        # of each dilate's histogram gives, at every dilate the tally counts
        for necklace in [nk for n in range(2, 6) for nk in connected_necklaces(n)]:
            tally = upper_tally(necklace)
            counts = dilate_histograms(necklace)
            assert set(tally) == set().union(*counts)
            assert {len(row) for row in tally.values()} == {len(tally_dilates(necklace.n))}
            for node in face_poset_of_uppers(necklace).nodes[1:]:
                need = node.generators
                assert face_counts(tally, need) == tuple(
                    sum(ways for mask, ways in histogram.items() if mask & need == need)
                    for histogram in counts)

    def test_bit_i_is_the_ith_upper_row_of_the_facet_representation(self):
        # a face's generators are the upper rows that hold all its bases, and
        # its bases are those tight on every row of its generators
        for necklace in [nk for n in range(2, 7) for nk in connected_necklaces(n)]:
            uppers = [f for f in facet_representation(necklace).inequalities
                      if f.sense == "<="]
            poset = face_poset_of_uppers(necklace)
            assert list(poset.facet_list) == uppers
            tight = {b: tight_upper_mask(b, uppers)
                     for b in bases_from_necklace(necklace).bases}
            for node in poset.nodes:
                assert node.vertex_set == {b for b, mask in tight.items()
                                           if mask & node.generators == node.generators}
                assert node.generators == functools.reduce(
                    operator.and_, (tight[b] for b in node.vertex_set))

    def test_the_first_dilate_tallies_the_bases_by_their_tight_upper_rows(self):
        # a positroid polytope's lattice points are its 0/1 vertices e_B, and
        # the origin is the only point of the zeroth dilate (n >= 3, so the
        # tally's dilates t = 0..max(1, n - 3) reach t = 1)
        for necklace in [nk for n in range(3, 7) for nk in connected_necklaces(n)]:
            uppers = [f for f in facet_representation(necklace).inequalities
                      if f.sense == "<="]
            tally = upper_tally(necklace)
            assert {mask: row[0] for mask, row in tally.items() if row[0]} == {
                (1 << len(uppers)) - 1: 1}
            assert {mask: row[1] for mask, row in tally.items() if row[1]} == collections.Counter(
                tight_upper_mask(b, uppers) for b in bases_from_necklace(necklace).bases)

    def test_pyramid_tally(self):
        # n = 4: the dilates t = 0 and 1
        tally = upper_tally(PYRAMID)
        counts = dilate_histograms(PYRAMID)
        everything = (1 << len(face_poset_of_uppers(PYRAMID).facet_list)) - 1
        assert len(counts) == 2 and counts[0] == {everything: 1}
        closed = lattice_counts(facet_representation(PYRAMID), 1)
        assert sum(counts[1].values()) == closed[1]
        assert face_counts(tally, 0) == closed

    def test_a_tally_one_off_at_t1_fails_inclusion_exclusion(self, monkeypatch):
        # one point too many at t = 1 on the mask of one basis: every face
        # that holds the basis, its upper facets among them, reads it
        for necklace in (PYRAMID, PRISM, SEVENS[0]):
            tally = upper_tally(necklace)
            mask = max(mask for mask, row in tally.items() if row[1])
            faulty = {m: [c + (m == mask and t == 1) for t, c in enumerate(row)]
                      for m, row in tally.items()}
            monkeypatch.setattr(ho, "upper_tally", lambda _, faulty=faulty: faulty)
            fresh = validate_necklace([sorted(s) for s in necklace.subsets])
            with pytest.raises(ArithmeticError, match="bases has E\\(1\\) = .* lattice points"):
                hstar_closed_via_inclusion_exclusion(fresh)

    def test_empty_or_flat_face_rejected(self):
        with pytest.raises(ValueError, match="empty or not of the stated dimension"):
            _face_hstar_from_counts((0, 3), 1)
        with pytest.raises(ValueError, match="empty or not of the stated dimension"):
            _face_hstar_from_counts((1, 0, 0), 2)
        with pytest.raises(ValueError, match="empty or not of the stated dimension"):
            _face_hstar_from_counts((1, 2, 9), 2)  # a segment's count, as a 2-face
        with pytest.raises(ValueError, match="up to t = 2"):
            _face_hstar_from_counts((1, 4), 3)

    def test_a_count_at_t1_other_than_the_bases_is_rejected(self):
        # a square (four bases, h* = 1 + z) at t = 0, 1 and at t = 0, 1, 2
        assert _face_hstar_from_counts((1, 4), 2, 4) == (1, 1)
        assert _face_hstar_from_counts((1, 4, 9), 2, 4) == (1, 1)
        for counts in ((1, 5), (1, 3, 9)):
            with pytest.raises(ArithmeticError, match="4 bases has E\\(1\\) = "):
                _face_hstar_from_counts(counts, 2, 4)


class TestFacesCountedAlone:
    """The premise of the tally's last dilate, apart from the tally: a face
    F of a 0/1 polytope has its bases as its only lattice points at t = 1,
    none in its relative interior, so h*_{dim F}(F) = 0 when dim F >= 1."""

    def test_the_top_coefficient_vanishes_and_t1_counts_the_bases(self):
        # every face of every connected positroid with n <= 6, P and the
        # faces with mu(F, P) = 0 included, counted alone up to t = dim F
        faces = 0
        for necklace in [nk for n in range(2, 7) for nk in connected_necklaces(n)]:
            poset = face_poset_of_uppers(necklace)
            facets = facet_representation(necklace)
            for node in poset.nodes:
                eqs = face_equalities(poset, node)
                hstar = face_hstar(facets, eqs, node.dim)
                assert len(hstar) <= max(node.dim, 1), (necklace.compact(), node)
                assert lattice_counts(facets, 1, eqs)[1] == len(node.vertex_set), node
                faces += 1
        assert faces == 5959


def minimal_matroid(k, n):
    """Ferroni's minimal matroid T_{k,n}: bases [k] and ([k] - {i}) + {p}, p > k."""
    top = frozenset(range(1, k + 1))
    bases = element_bases(n, k, [top] + [top - {i} | {p} for i in top for p in range(k + 1, n + 1)])
    necklace = necklace_from_bases(bases)
    assert bases_from_necklace(necklace) == bases, "T_{k,n} is a positroid"
    return necklace


def half_open_hypersimplex_hstar(k, n):
    """h* of U(k, n) with its upper facets removed, with no lattice counting:
    #{y in [0, t-1]^n : sum y = kt - 1}
    = sum_j (-1)^j C(n, j) C(kt - 1 - jt + n-1, n-1)."""
    def count(t):
        return sum((-1) ** j * math.comb(n, j) * math.comb(k * t - 1 - j * t + n - 1, n - 1)
                   for j in range(n + 1) if k * t - 1 - j * t >= 0)
    return hstar_from_counts(tuple(count(t) for t in range(n)))


class TestClosedForms:
    """Independent answers for the routes at n <= 8, past the n <= 6 sweep."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_minimal_matroids(self, n):
        # Ferroni (2022): h*(T_{k,n}) = sum_i C(k-1, i) C(n-k-1, i) z^i
        for k in range(1, n):
            necklace = minimal_matroid(k, n)
            # the terms with i >= min(k, n - k) vanish
            expected = tuple(math.comb(k - 1, i) * math.comb(n - k - 1, i)
                             for i in range(min(k, n - k)))
            assert hstar_shelling(necklace) == expected
            assert hstar_closed_via_inclusion_exclusion(necklace) == expected
            assert hstar_by_counting(necklace) == expected

    @pytest.mark.parametrize("n", range(2, 9))
    def test_half_open_hypersimplex(self, n):
        for k in range(1, n):
            necklace = uniform(k, n)
            expected = half_open_hypersimplex_hstar(k, n)
            assert hstar_half_open(necklace) == expected
            assert hstar_half_open_by_counting(necklace) == expected

    @pytest.mark.parametrize("k", range(1, 10))
    def test_counting_oracle_at_n10(self, k):
        # past the n <= 8 closed forms, by counting alone: T_{k,10} closed, U(k,10) half-open
        expected = tuple(math.comb(k - 1, i) * math.comb(9 - k, i) for i in range(min(k, 10 - k)))
        assert hstar_by_counting(minimal_matroid(k, 10)) == expected
        assert hstar_half_open_by_counting(uniform(k, 10)) == half_open_hypersimplex_hstar(k, 10)

    @pytest.mark.parametrize("n", [11, 12])
    def test_counting_oracle_at_n11_and_n12(self, n):
        # each body counted in its own cut: T_{k,n} and U(k,n) closed, U(k,n) half-open
        for k in range(1, n):
            expected = tuple(math.comb(k - 1, i) * math.comb(n - k - 1, i)
                             for i in range(min(k, n - k)))
            assert hstar_by_counting(minimal_matroid(k, n)) == expected
            assert hstar_by_counting(uniform(k, n)) == hypersimplex_hstar(k, n)
            assert hstar_half_open_by_counting(uniform(k, n)) == half_open_hypersimplex_hstar(k, n)

    def test_small_values(self):
        assert half_open_hypersimplex_hstar(2, 5) == hstar_half_open(UNIFORM25)
        assert minimal_matroid(2, 4).subsets == validate_necklace(
            [[1, 2], [2, 3], [1, 3], [1, 4]]).subsets


class TestInclusionExclusion:
    @pytest.mark.parametrize("necklace,coeffs", [
        (PYRAMID, (1, 1)), (PRISM, (1, 3, 1)), (UNIFORM25, (1, 5, 5)),
    ])
    def test_values(self, necklace, coeffs):
        assert hstar_closed_via_inclusion_exclusion(necklace) == coeffs

    def test_methods_agree_on_random_seven_element_instances(self):
        import random

        from positroid_hstar.ehrhart import hstar_by_counting
        from positroid_hstar.positroid import (
            DecoratedPermutation,
            bases_from_necklace,
            is_connected,
            necklace_from_decorated,
        )
        from positroid_hstar.triangulation import hstar_shelling

        rng = random.Random(77)
        found = 0
        while found < 3:
            perm = list(range(1, 8))
            rng.shuffle(perm)
            necklace = necklace_from_decorated(DecoratedPermutation(tuple(perm)))
            if not is_connected(bases_from_necklace(necklace)):
                continue
            found += 1
            closed = hstar_shelling(necklace)
            assert hstar_closed_via_inclusion_exclusion(necklace) == closed
            assert hstar_by_counting(necklace) == closed
            assert hstar_half_open(necklace) == hstar_half_open_by_counting(necklace)
