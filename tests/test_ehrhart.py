import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positroid_hstar import cli
from positroid_hstar import ehrhart as eh
from positroid_hstar import halfopen as ho
from positroid_hstar.ehrhart import (
    EhrhartPolynomial,
    count_to_degree,
    ehrhart_of_positroid,
    ehrhart_product,
    face_hstar,
    hstar_by_counting,
    hstar_from_counts,
    lattice_counts,
)
from positroid_hstar.halfopen import hstar_half_open
from positroid_hstar.positroid import (
    DecoratedPermutation,
    HRepresentation,
    IntervalInequality,
    bases_from_necklace,
    decorated_from_necklace,
    dimension_of_bases,
    facet_representation,
    h_representation,
    necklace_connected,
    necklace_from_bases,
    necklace_from_decorated,
    validate_necklace,
)
from positroid_hstar.triangulation import hstar_shelling

from references import (
    element_bases,
    reference_cut_costs,
    reference_difference_bound,
    reference_interpolate,
    reference_turned,
    unwrapped,
)

PYRAMID = validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
UNIFORM25 = validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
PRISM = validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])


class TestLatticeCounts:
    def test_uniform_first_dilate(self):
        assert lattice_counts(h_representation(UNIFORM25), 1) == (1, 10)

    def test_uniform_second_dilate(self):
        assert lattice_counts(h_representation(UNIFORM25), 2)[2] == 45

    def test_pyramid_vertices(self):
        assert lattice_counts(h_representation(PYRAMID), 1)[1] == 5

    def test_zero_dilate_is_origin(self):
        assert lattice_counts(h_representation(PYRAMID), 0) == (1,)

    def test_monotone_in_dilate(self):
        counts = lattice_counts(h_representation(PRISM), 4)
        assert counts == tuple(sorted(counts))

    def test_strict_flags_only_shrink(self):
        H = h_representation(PYRAMID)
        strict = HRepresentation(H.n, H.r, tuple(
            IntervalInequality(q.start, q.stop, q.bound, q.sense, strict=True)
            for q in H.inequalities))
        for fewer, more in zip(lattice_counts(strict, 3), lattice_counts(H, 3)):
            assert fewer <= more


def brute_count(dim, rows, box):
    """Points of [0, box]^dim whose prefix sums meet every row, one by one."""
    total = 0
    for x in itertools.product(range(box + 1), repeat=dim):
        z = [0, *itertools.accumulate(x)]
        total += all(lo <= z[b] - z[a] <= hi for a, b, lo, hi in rows)
    return total


@st.composite
def counting_problems(draw, max_dim=4):
    dim = draw(st.integers(min_value=0, max_value=max_dim))
    box = draw(st.integers(min_value=0, max_value=3))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        a = draw(st.integers(min_value=0, max_value=dim))
        b = draw(st.integers(min_value=a, max_value=dim))
        span = (b - a) * box
        lo = draw(st.integers(min_value=-1, max_value=span + 1))
        kind = draw(st.sampled_from(["one-sided upper", "one-sided lower", "equality", "range"]))
        if kind == "one-sided upper":
            lo, hi = -(1 << 62), lo
        elif kind == "one-sided lower":
            hi = 1 << 62
        elif kind == "equality":
            hi = lo
        else:
            hi = draw(st.integers(min_value=-1, max_value=span + 1))
        rows.append((a, b, lo, hi))
    return dim, rows, box


def one_box_tally(dim, rows, box, tight=()):
    """Vectors of [0, box]^dim whose prefix sums meet every row (a, b, lo, hi),
    tallied by the mask of the tight rows (a, b, value, bit) they meet: the
    rows planned and run at this one box."""
    return eh._run(eh._plan(dim, [(a, b, (0, lo), (0, hi)) for a, b, lo, hi in rows], max(box, 1),
                            [(a, b, (0, value), bit) for a, b, value, bit in tight]), box)


def one_box_count(dim, rows, box):
    """Vectors of ``one_box_tally``, whatever their mask."""
    return sum(one_box_tally(dim, rows, box).values())


class TestOneBoxCount:
    @settings(max_examples=300, deadline=None)
    @given(counting_problems())
    def test_matches_brute_force(self, problem):
        assert one_box_count(*problem) == brute_count(*problem)

    @pytest.mark.parametrize("rows, expected", [
        ([], 64),                                   # the whole box [0, 3]^3
        ([(0, 3, -5, 9)], 64),                      # vacuous: implied by the box
        ([(0, 3, 4, 4)], 12),                       # equality x_1 + x_2 + x_3 = 4
        ([(1, 2, 2, 1 << 62)], 32),                 # one-sided x_2 >= 2
        ([(0, 2, -(1 << 62), 1)], 12),              # one-sided x_1 + x_2 <= 1
        ([(0, 1, 2, 1)], 0),                        # infeasible: lo > hi
        ([(2, 3, 4, 5)], 0),                        # infeasible: x_3 >= 4 > box
        ([(2, 2, 0, 0)], 64),                       # empty row, 0 in range
        ([(2, 2, 1, 3)], 0),                        # empty row, 0 out of range
        ([(0, 2, 3, 3), (1, 3, 3, 3)], 4),          # two overlapping equalities
    ])
    def test_row_kinds(self, rows, expected):
        assert one_box_count(3, rows, 3) == brute_count(3, rows, 3) == expected

    def test_negative_box_and_zero_dim(self):
        assert one_box_count(2, [], -1) == 0
        assert one_box_count(0, [(0, 0, 0, 0)], 2) == 1
        assert one_box_count(0, [(0, 0, 1, 1)], 2) == 0

    def test_row_outside_the_coordinates_rejected(self):
        with pytest.raises(ValueError):
            one_box_count(2, [(1, 3, 0, 0)], 1)


def brute_tally(dim, rows, box, tight):
    """Histogram of the tight masks of the points ``brute_count`` counts."""
    histogram = {}
    for x in itertools.product(range(box + 1), repeat=dim):
        z = [0, *itertools.accumulate(x)]
        if all(lo <= z[b] - z[a] <= hi for a, b, lo, hi in rows):
            mask = sum(bit for a, b, value, bit in tight if z[b] - z[a] == value)
            histogram[mask] = histogram.get(mask, 0) + 1
    return histogram


@st.composite
def tallying_problems(draw, max_dim=4):
    dim, rows, box = draw(counting_problems(max_dim))
    if dim >= 2 and draw(st.booleans()):
        # an equality on z_b - z_a with b >= a + 2 is read at step b unless
        # box == 0, so z_a stays in the DP state past step a + 1
        a = draw(st.integers(min_value=0, max_value=dim - 2))
        b = draw(st.integers(min_value=a + 2, max_value=dim))
        value = draw(st.integers(min_value=0, max_value=(b - a) * box))
        rows.append((a, b, value, value))
    tight = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        a = draw(st.integers(min_value=0, max_value=dim))
        # b = a + 1 often: a tight row on z_{b-1}, which tests x_b alone
        b = draw(st.one_of(st.just(min(a + 1, dim)), st.integers(min_value=a, max_value=dim)))
        value = draw(st.integers(min_value=-1, max_value=(b - a) * box + 1))
        tight.append((a, b, value, 1 << i))
    return dim, rows, box, tight


class TestTally:
    @settings(max_examples=300, deadline=None)
    @given(tallying_problems())
    def test_matches_brute_force_mask_by_mask(self, problem):
        dim, rows, box, tight = problem
        histogram = one_box_tally(dim, rows, box, tight)
        assert histogram == brute_tally(dim, rows, box, tight)
        assert sum(histogram.values()) == one_box_count(dim, rows, box)

    def test_tight_rows_constrain_nothing(self):
        # x_1 + x_2 == 2 on [0, 2]^2 tallied by x_1 == 0 (bit 1) and the
        # empty row, always tight (bit 2)
        assert one_box_tally(2, [(0, 2, 2, 2)], 2, [(0, 1, 0, 1), (1, 1, 0, 2)]) == {3: 1, 2: 2}

    def test_tight_row_outside_the_coordinates_rejected(self):
        with pytest.raises(ValueError):
            one_box_tally(2, [], 1, [(1, 3, 0, 1)])


def reference_tally(dim, rows, box, tight=()):
    """``one_box_tally`` as a one-level DP: each state is one tuple, the mask, the
    live prefix sums and z_q, so every successor point is a fresh tuple key.
    The differential reference for the two-level kernel."""
    if box < 0:
        return {}
    checks = [{} for _ in range(dim + 1)]
    marks = [[] for _ in range(dim + 1)]
    last_read = {}
    for a, b, lo, hi in rows:
        if not 0 <= a <= b <= dim:
            raise ValueError(f"row ({a}, {b}) outside 0 <= a <= b <= {dim}")
        if a == b and not lo <= 0 <= hi:
            return {}
        for q in range(a + 1, b + 1):
            lo_q = lo - (b - q) * box
            if lo_q > 0 or hi < (q - a) * box:
                old_lo, old_hi = checks[q].get(a, (lo_q, hi))
                checks[q][a] = max(lo_q, old_lo), min(hi, old_hi)
                last_read[a] = max(q, last_read.get(a, 0))
    mask = 0
    for a, b, value, bit in tight:
        if not 0 <= a <= b <= dim:
            raise ValueError(f"tight row ({a}, {b}) outside 0 <= a <= b <= {dim}")
        if a < b:
            marks[b].append((a, value, bit))
            last_read[a] = max(b, last_read.get(a, 0))
        elif value == 0:
            mask |= bit
    # A state is (mask, z_a for each live a, z_q); live holds those a.
    live = [0]
    states = {(mask, 0): 1}
    for q in range(1, dim + 1):
        pos = {a: k for k, a in enumerate(live, start=1)}
        reads = [(pos[a], lo, hi) for a, (lo, hi) in checks[q].items()]
        tests = [(pos[a], value, bit) for a, value, bit in marks[q]]
        live = [a for a in live if last_read.get(a, 0) > q] + [q]
        keep = [0] + [pos[a] for a in live[:-1]]
        step = {}
        get = step.get
        for state, ways in states.items():
            low = state[-1]
            high = low + box
            for k, lo, hi in reads:
                if state[k] + lo > low:
                    low = state[k] + lo
                if state[k] + hi < high:
                    high = state[k] + hi
            if low > high:
                continue
            head = tuple([state[k] for k in keep])
            if tests:
                rest = head[1:]
                for z in range(low, high + 1):
                    bits = state[0]
                    for k, value, bit in tests:
                        if z - state[k] == value:
                            bits |= bit
                    key = (bits, *rest, z)
                    step[key] = get(key, 0) + ways
            else:
                for z in range(low, high + 1):
                    key = (*head, z)
                    step[key] = get(key, 0) + ways
        states = step
    histogram = {}
    for state, ways in states.items():
        histogram[state[0]] = histogram.get(state[0], 0) + ways
    return histogram


@st.composite
def linear_bodies(draw, max_dim=5):
    """Rows as the counted bodies have them: the bounds t * X below and t * Y
    above, each tightened by one or not, one-sided or both; tight values t * V."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    rows, tight = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        a = draw(st.integers(min_value=0, max_value=dim))
        b = draw(st.integers(min_value=a, max_value=dim))
        x, y = sorted(draw(st.integers(min_value=-1, max_value=b - a + 1)) for _ in range(2))
        lo = (x, draw(st.integers(0, 1))) if draw(st.booleans()) else (0, -eh._INF)
        hi = (y, -draw(st.integers(0, 1))) if draw(st.booleans()) else (0, eh._INF)
        rows.append((a, b, lo, hi))
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        a = draw(st.integers(min_value=0, max_value=dim))
        b = draw(st.integers(min_value=a, max_value=dim))
        tight.append((a, b, (draw(st.integers(min_value=0, max_value=b - a)), 0), 1 << i))
    return dim, rows, tight


def crosscheck_references():
    """The three connected n = 7 positroids of the crosscheck7 benchmark workload."""
    return [validate_necklace([[int(c) for c in subset] for subset in text.split(",")])
            for text in ("123,235,345,457,567,267,237",
                         "1234,2345,3456,4567,1567,1367,1237",
                         "12345,23456,13456,14567,12567,12467,12347")]


def body_rows(necklace, bounds, strict=()):
    """``ehrhart._linear`` of facet bounds (u, v, c, sense), those of the
    senses in ``strict`` strict, as ``ehrhart._body`` reads them."""
    return eh._linear(necklace.n, necklace.rank,
                      [(u, v, c, sense in strict) for u, v, c, sense in bounds])


def dilated(rows, t):
    """Linear rows or tight rows as the ints their forms (X, s) are worth at
    box t: the ``one_box_tally`` arguments a plan of them is run with."""
    return [tuple(f[0] * t + f[1] if isinstance(f, tuple) else f for f in row) for row in rows]


class TestKernelDifferential:
    """The two-level kernel against the one-level ``reference_tally``."""

    def test_every_oracle_and_inclusion_exclusion_call(self, monkeypatch):
        # each run of each body's one plan, against its rows at that dilate
        calls, run = [], eh._run

        def recording(plan, t):
            histogram = run(plan, t)
            dim, rows, tight, _, _ = plan
            calls.append(((dim, dilated(rows, t), t, dilated(tight, t)), histogram))
            return histogram

        monkeypatch.setattr(eh, "_run", recording)
        necklaces = [*connected_through(6), *crosscheck_references()]
        for necklace in necklaces:
            eh.count_to_degree(necklace)
            eh.count_to_degree(necklace, half_open=True)
            eh.upper_tally(necklace)
        assert len(necklaces) == 250 + 3  # n = 1 has no half-open body
        assert len(calls) > 500 and sum(1 for (*_, tight), _ in calls if tight) > 150
        for args, histogram in calls:
            assert histogram == reference_tally(*args), args

    @settings(max_examples=300, deadline=None)
    @given(tallying_problems(max_dim=7))
    def test_matches_the_reference_past_brute_force(self, problem):
        assert one_box_tally(*problem) == reference_tally(*problem)

    @settings(max_examples=300, deadline=None)
    @given(linear_bodies())
    # x_1 + x_2 >= 2t is read at step 1 as x_1 >= t
    @example((2, [(0, 2, (2, 0), (0, 1 << 62))], []))
    # t <= x_1 + x_2 <= t: at t = 1 the bounds t and 1 tie, and so do t and 2t - 1
    @example((2, [(0, 2, (1, 0), (0, 1 << 62)), (0, 2, (0, 1), (0, 1 << 62))], []))
    @example((2, [(0, 2, (0, -1 << 62), (1, 0)), (0, 2, (0, -1 << 62), (2, -1))], []))
    def test_one_plan_runs_every_dilate(self, body):
        # planned once at box 1, run at t = 0..6: the one-shot count of the
        # rows at t, and the one-level reference
        dim, rows, tight = body
        plan = eh._plan(dim, rows, 1, tight)
        for t in range(7):
            args = dim, dilated(rows, t), t, dilated(tight, t)
            assert eh._run(plan, t) == one_box_tally(*args) == reference_tally(*args), t

    @settings(max_examples=300, deadline=None)
    @given(linear_bodies())
    def test_a_unit_offset_row_is_first_read_at_one_step_for_every_box(self, body):
        _, rows, _ = body
        for a, b, lo, hi in rows:
            at_1 = eh._first_read(a, b, lo[0] + lo[1], hi[0] + hi[1], 1)
            for t in range(2, 13):
                assert eh._first_read(a, b, lo[0] * t + lo[1], hi[0] * t + hi[1], t) == at_1

    @pytest.mark.parametrize("rows, tight", [
        # x_1 + x_2 + x_3 == 4 keeps z_0 past step 1; x_2 == 1 tested on z_1
        ([(0, 3, 4, 4)], [(1, 2, 1, 1)]),
        # z_1 is read at step 3, so it moves into the head at step 2
        ([(1, 3, 2, 2), (0, 3, -(1 << 62), 5)], [(1, 3, 2, 1), (2, 3, 0, 2), (0, 1, 3, 4)]),
        # two tests marking the same point, one on z_{q-1} and one older
        ([(0, 3, 3, 3)], [(2, 3, 1, 1), (0, 3, 3, 2), (1, 3, 2, 4)]),
        # a tight row at the last step on z_{dim-1}
        ([], [(2, 3, 3, 1), (2, 3, 0, 2)]),
    ])
    def test_carried_prefix_sums_and_tests_on_the_last_one(self, rows, tight):
        assert one_box_tally(3, rows, 3, tight) == reference_tally(3, rows, 3, tight) \
            == brute_tally(3, rows, 3, tight)


class TestOriginTally:
    """``one_box_tally`` at box 0 reads its one vector x = 0 off the rows."""

    def test_every_body_at_dilate_0_matches_the_reference(self):
        nonempty = 0
        for necklace in connected_through(7):
            if necklace.n > 6:
                continue
            upper, *bodies = TestCuts.bodies(necklace, necklace.fact(eh._facet_rows), 0)
            for args in (upper, upper[:3], *bodies):
                histogram = one_box_tally(*args)
                assert histogram == reference_tally(*args), (necklace.compact(), args)
                nonempty += bool(histogram)
        # the upper tally with and without its tight rows and the closed body
        # hold the origin; the interior, half-open and reciprocal bodies do not
        assert nonempty == 3 * 250

    @pytest.mark.parametrize("rows, tight, expected", [
        ([(0, 2, 0, 0), (1, 2, -1, 5)], [(0, 1, 0, 1), (1, 2, 1, 2), (2, 2, 0, 4)], {5: 1}),
        ([(0, 2, 1, 1)], [(0, 1, 0, 1)], {}),
        ([(1, 1, 1, 2)], [(0, 1, 0, 1)], {}),
        ([], [], {0: 1}),
    ])
    def test_origin_meets_the_rows_that_admit_0(self, rows, tight, expected):
        assert one_box_tally(2, rows, 0, tight) == reference_tally(2, rows, 0, tight) == expected

    def test_rows_outside_the_coordinates_rejected(self):
        with pytest.raises(ValueError):
            one_box_tally(2, [(0, 3, 0, 0)], 0)
        with pytest.raises(ValueError):
            one_box_tally(2, [(0, 2, 1, 1)], 0, [(1, 3, 0, 1)])


def uniform(k, n):
    return validate_necklace([[(i + s) % n + 1 for s in range(k)] for i in range(n)])


def hypersimplex_hstar(k, n):
    """h* of U(k, n) from Katzman's closed count, with no lattice counting:
    #{x in [0, t]^n : sum x = kt} = sum_j (-1)^j C(n, j) C(kt - j(t+1) + n-1, n-1)."""
    def count(t):
        return sum((-1) ** j * math.comb(n, j) * math.comb(k * t - j * (t + 1) + n - 1, n - 1)
                   for j in range(n + 1) if k * t - j * (t + 1) >= 0)
    return hstar_from_counts(tuple(count(t) for t in range(n)))


class TestHypersimplexClosedForm:
    """Independent check past the reach of the n <= 6 sweep."""

    @pytest.mark.parametrize("k, n", [(k, 8) for k in range(1, 8)] + [(2, 9), (3, 9)])
    def test_shelling_and_half_open_volume(self, k, n):
        necklace = uniform(k, n)
        expected = hypersimplex_hstar(k, n)
        assert hstar_shelling(necklace) == expected
        assert sum(hstar_half_open(necklace)) == sum(expected)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counting_oracle_at_n9(self, k):
        assert hstar_by_counting(uniform(k, 9)) == hypersimplex_hstar(k, 9)

    @pytest.mark.parametrize("k, n", [(5, 10), (5, 11), (4, 12)])
    def test_counting_oracle_past_n9(self, k, n):
        assert hstar_by_counting(uniform(k, n)) == hypersimplex_hstar(k, n)

    def test_small_values(self):
        assert hypersimplex_hstar(2, 5) == (1, 5, 5)
        assert hypersimplex_hstar(1, 4) == (1,)


class TestInterpolation:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_standard_simplex(self, n):
        # vertices e_1..e_n: E(t) = C(t+n-1, n-1)
        J = validate_necklace([[i] for i in range(1, n + 1)])
        counts = lattice_counts(h_representation(J), n - 1)
        ehr = EhrhartPolynomial(hstar_from_counts(counts), n - 1)
        assert ehr.coefficients == reference_interpolate(counts)
        for t in range(2 * n):
            assert ehr(t) == math.comb(t + n - 1, n - 1)

    def test_pyramid_cubic(self):
        counts = lattice_counts(h_representation(PYRAMID), 3)
        assert counts == (1, 5, 14, 30)
        expected = (1, Fraction(13, 6), Fraction(3, 2), Fraction(1, 3))
        assert EhrhartPolynomial(hstar_from_counts(counts), 3).coefficients == expected
        assert reference_interpolate(counts) == expected

    def test_prism_face(self):
        ehr = EhrhartPolynomial(hstar_from_counts((1, 6, 18, 40)), 3)
        for t in range(6):
            assert ehr(t) == math.comb(t + 2, 2) * (1 + t)


class TestHstarTransform:
    def test_standard_simplex_is_one(self):
        assert hstar_from_counts(tuple(math.comb(t + 3, 3) for t in range(4))) == (1,)

    def test_uniform(self):
        assert hstar_from_counts(lattice_counts(h_representation(UNIFORM25), 4)) == (1, 5, 5)

    def test_half_open_pyramid_profile(self):
        assert hstar_from_counts((0, 0, 2, 8)) == (0, 0, 2)

    def test_negative_coefficient_flagged(self):
        with pytest.raises(ArithmeticError):
            hstar_from_counts((1, 1, 1))


class TestProducts:
    def test_triangle_times_segment(self):
        triangle = EhrhartPolynomial((1,), 2)
        segment = EhrhartPolynomial((1,), 1)
        assert triangle.coefficients == (1, Fraction(3, 2), Fraction(1, 2))
        prism = ehrhart_product([triangle, segment])
        assert prism == EhrhartPolynomial((1, 2), 3)
        assert [prism(t) for t in range(6)] == [math.comb(t + 2, 2) * (1 + t) for t in range(6)]

    def test_unit_factor(self):
        seg = EhrhartPolynomial((1,), 1)
        point = EhrhartPolynomial((1,), 0)
        assert ehrhart_product([seg, point]) == seg

    def test_square_from_two_segments(self):
        seg = EhrhartPolynomial((1,), 1)
        assert ehrhart_product([seg, seg]).hstar == (1, 1)


class TestFaceHstar:
    def test_prism_facet(self):
        assert face_hstar(h_representation(PRISM), [(1, 4, 2)], 3) == (1, 2)

    def test_wrapping_equality_is_its_complement(self):
        # x_4 + x_5 = 1 is the facet x_1 + x_2 + x_3 = 2 of the rank-3 prism
        assert face_hstar(h_representation(PRISM), [(4, 1, 1)], 3) == (1, 2)

    def test_square_face(self):
        assert face_hstar(h_representation(PRISM), [(1, 2, 1), (1, 4, 2)], 2) == (1, 1)

    def test_vertex_face(self):
        # apex of the pyramid: x_1 = 1 and x_2 = 1
        assert face_hstar(h_representation(PYRAMID), [(1, 2, 1), (2, 3, 1)], 0) == (1,)

    def test_empty_face_rejected(self):
        with pytest.raises(ValueError):
            face_hstar(h_representation(PYRAMID), [(1, 2, 1), (1, 3, 0)], 1)


class TestDrivers:
    def test_oracle_matches_known_values(self):
        assert hstar_by_counting(PYRAMID) == (1, 1)
        assert hstar_by_counting(PRISM) == (1, 3, 1)

    def test_volume_counts_simplices(self):
        counts = lattice_counts(h_representation(UNIFORM25), 4)
        ehr = EhrhartPolynomial(hstar_from_counts(counts), 4)
        assert ehr.coefficients[-1] * math.factorial(4) == 11

    def test_disconnected_product(self):
        B = element_bases(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
        ehr = ehrhart_of_positroid(necklace_from_bases(B))
        assert ehr.dim == 2
        assert ehr.coefficients == (1, 2, 1)

    def test_point_polytopes(self):
        loop = validate_necklace([[]])
        coloop = validate_necklace([[1]])
        for J in (loop, coloop):
            assert hstar_by_counting(J) == (1,)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_product_hstar_equals_ambient_count_for_every_direct_sum(self, n):
        # the oracle multiplies the counts of its summands, read off the
        # necklace; the product over the summands that the bases split off
        # must agree, for every disconnected positroid
        from positroid_hstar.positroid import (
            DecoratedPermutation,
            bases_from_necklace,
            decompose_direct_sum,
            dimension_of_bases,
            is_connected,
            necklace_from_decorated,
        )
        for perm in itertools.permutations(range(1, n + 1)):
            fixed = [i for i, v in enumerate(perm, 1) if v == i]
            for mask in range(1 << len(fixed)):
                white = frozenset(f for k, f in enumerate(fixed) if mask >> k & 1)
                necklace = necklace_from_decorated(DecoratedPermutation(perm, white))
                bases = bases_from_necklace(necklace)
                if is_connected(bases):
                    continue
                product = ehrhart_product([
                    ehrhart_of_positroid(necklace_from_bases(comp))
                    for _, comp in decompose_direct_sum(bases)])
                assert product.dim == dimension_of_bases(bases.bases, n), necklace.compact()
                assert hstar_by_counting(necklace) == product.hstar, necklace.compact()
                assert ehrhart_of_positroid(necklace) == product, necklace.compact()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=2, max_value=4))
def test_simplex_counts_match_binomial(t, n):
    J = validate_necklace([[i] for i in range(1, n + 1)])
    assert lattice_counts(h_representation(J), t)[t] == math.comb(t + n - 1, n - 1)


def with_strict(necklace, upper, lower):
    """``facet_representation`` with its upper and/or lower facets strict."""
    hrep = facet_representation(necklace)
    return HRepresentation(hrep.n, hrep.r, tuple(
        IntervalInequality(q.start, q.stop, q.bound, q.sense,
                           upper if q.sense == "<=" else lower)
        for q in hrep.inequalities))


def first_points(hrep, dim):
    """(c, count): the least dilate 1 <= c <= dim + 1 holding lattice points, and their count."""
    counts = lattice_counts(hrep, dim + 1)
    return next((t, count) for t, count in enumerate(counts) if t and count)


def connected_up_to(max_n):
    return [necklace for n in range(1, max_n + 1) for necklace in cli.connected_necklaces(n)]


@functools.cache
def connected_through(max_n):
    """Every connected positroid with 2 <= n <= max_n, built once per test
    run, so that the tests that share it derive each one's facets once."""
    return tuple(necklace for necklace in connected_up_to(max_n) if necklace.n > 1)


def disconnected_up_to(max_n):
    return [necklace_from_decorated(dec) for n in range(1, max_n + 1)
            for dec in cli.all_decorated_permutations(n)
            if not necklace_connected(necklace_from_decorated(dec))]


def faulty_bodies(monkeypatch, picked, fault):
    """Make the per-dilate run ``eh._run`` count ``fault(points)`` points at
    every dilate of each body ``eh._body(necklace, strict)`` plans where
    ``picked(strict)``, ``strict`` the senses of the facets made strict."""
    body, run, faulty = eh._body, eh._run, []

    def planning(necklace, strict):
        plan = body(necklace, strict)
        if picked(strict):
            faulty.append(plan)
        return plan

    def running(plan, t):
        histogram = run(plan, t)
        if any(plan is p for p in faulty):
            return {0: fault(sum(histogram.values()))}
        return histogram

    monkeypatch.setattr(eh, "_body", planning)
    monkeypatch.setattr(eh, "_run", running)


class TestCountToDegree:
    """The oracle counts up to the h*-degree s and checks h*_s by reciprocity."""

    def test_truncated_counts_agree_with_the_full_profile(self):
        necklaces = connected_up_to(6)
        assert len(necklaces) == 252
        for necklace in necklaces:
            dim = necklace.n - 1
            full = lattice_counts(facet_representation(necklace), dim)
            got = count_to_degree(necklace)
            degree = len(got.hstar) - 1
            assert got.hstar == hstar_from_counts(full), necklace.compact()
            assert got.dim == dim and tuple(map(got, range(dim + 1))) == full
            # reciprocity, counted independently: h*_s interior points at dilate d + 1 - s
            codegree, interior = first_points(with_strict(necklace, True, True), dim)
            assert (codegree, interior) == (dim + 1 - degree, got.hstar[-1]), necklace.compact()

    def test_prism_stops_at_degree_two(self, monkeypatch):
        # E(t) = C(t+4, 4) + 3 C(t+3, 4) + C(t+2, 4): the interior first has
        # points at dilate 3, so the body is counted at t = 0, 1, 2 alone
        dilates, run = [], eh._run
        monkeypatch.setattr(eh, "_run", lambda plan, t: dilates.append(t) or run(plan, t))
        ehr = count_to_degree(validate_necklace(PRISM.subsets))
        assert ehr == EhrhartPolynomial((1, 3, 1), 4)
        assert [ehr(t) for t in range(3)] == [1, 8, 31]
        assert dilates == [1, 2, 3, 0, 1, 2]

    def test_an_interior_count_off_by_one_is_caught(self, monkeypatch):
        faulty_bodies(monkeypatch, lambda strict: strict == {"<=", ">="},
                      lambda points: points + bool(points))
        for necklace in (PYRAMID, PRISM, UNIFORM25):
            with pytest.raises(ArithmeticError, match="reciprocal body"):
                count_to_degree(validate_necklace(necklace.subsets))

    def test_a_body_without_interior_points_is_caught(self, monkeypatch):
        faulty_bodies(monkeypatch, lambda strict: ">=" in strict, lambda points: 0)
        with pytest.raises(ArithmeticError, match="no lattice point up to dilate 5"):
            count_to_degree(validate_necklace(PRISM.subsets))


class TestReadingRule:
    """Every h* is read by one rule (``eh._hstar_from_ends``): a d-dimensional
    body's counts E(0..a) give h*_0..h*_a, and its reciprocal body's counts
    R(1..b), read backwards, h*_d down to h*_(d-b+1), since
    sum_t R(t) z^(t-1) = sum_j h*_(d-j) z^j / (1 - z)^(d+1); where the two
    ends overlap they must agree."""

    def test_the_reciprocal_counts_alone_give_the_hstar(self):
        # the closed and half-open bodies of every connected positroid with
        # 2 <= n <= 7: R(1..n) fix h*, with no count of the body itself
        bodies = 0
        for necklace in connected_through(7):
            dim = necklace.n - 1
            for half_open in (False, True):
                reciprocal = eh._body(necklace, {">="} if half_open else {"<=", ">="})
                interior = [sum(eh._run(reciprocal, t).values()) for t in range(1, dim + 2)]
                hstar = count_to_degree(necklace, half_open).hstar
                assert eh._hstar_from_ends(dim, (), interior) == hstar, necklace.compact()
                padded = [*hstar, *[0] * (dim + 1 - len(hstar))]
                assert eh._hstar_head(dim, interior)[::-1] == padded
                bodies += 1
        assert bodies == 3452

    def test_the_ends_may_meet_or_overlap(self):
        # the prism: E(0..2) = 1, 8, 31 and R(1..4) = 0, 0, 1, 8 for h* = 1 + 3z + z^2
        for a in range(3):
            for b in range(4 - a, 5):
                got = eh._hstar_from_ends(4, (1, 8, 31)[:a + 1], (0, 0, 1, 8)[:b])
                assert got == (1, 3, 1), (a, b)

    def test_two_ends_that_disagree_raise(self):
        with pytest.raises(ArithmeticError, match="h\\*_2 = 1 by the body's counts but 2 by "
                                                  "the reciprocal body's"):
            eh._hstar_from_ends(4, (1, 8, 31), (0, 0, 2))
        with pytest.raises(ArithmeticError, match="h\\*_1 = 3 by the body's counts but 4"):
            eh._hstar_from_ends(4, (1, 8, 31), (0, 0, 1, 9))
        # R(1..4) = 1, 0, 0, 0 gives h*_0 = -4 read backwards
        with pytest.raises(ArithmeticError, match="negative h\\*-coefficient -4 at degree 0"):
            eh._hstar_from_ends(3, (), (1, 0, 0, 0))

    def test_too_few_counts_raise(self):
        with pytest.raises(ValueError, match="dimension 4 needs its counts up to t = 1"):
            eh._hstar_from_ends(4, (1,), (0, 0, 1))
        with pytest.raises(ValueError, match="up to t = 2"):
            eh._face_hstar_from_counts((1, 4), 3)

    def test_a_face_counted_to_its_top_dilate_checks_that_its_top_coefficient_vanishes(
            self, monkeypatch):
        # a 0/1 polytope has R(1) = 0, so h*_dim = 0; one point too many at
        # t = dim makes it 1
        assert eh._face_hstar_from_counts((1, 4, 9), 2) == (1, 1)
        with pytest.raises(ArithmeticError, match="h\\*_2 = 1 by the body's counts but 0"):
            eh._face_hstar_from_counts((1, 4, 10), 2)
        counts = eh.lattice_counts
        monkeypatch.setattr(eh, "lattice_counts", lambda hrep, tmax, equalities=(): (
            *counts(hrep, tmax, equalities)[:-1], counts(hrep, tmax, equalities)[-1] + 1))
        with pytest.raises(ArithmeticError, match="h\\*_3 = 1 by the body's counts but 0"):
            face_hstar(h_representation(PRISM), [(1, 4, 2)], 3)

    def test_every_reading_goes_through_the_rule(self, monkeypatch):
        reads, rule, hrep = [], eh._hstar_from_ends, eh._hrep_ehrhart
        monkeypatch.setattr(eh, "_hstar_from_ends", lambda dim, counts, interior=(): (
            reads.append((dim, tuple(counts), tuple(interior))) or rule(dim, counts, interior)))
        prism = lambda: validate_necklace(PRISM.subsets)  # a fresh necklace: no facts kept
        count_to_degree(prism())
        count_to_degree(prism(), half_open=True)
        assert reads == [(4, (1, 8, 31), (0, 0, 1)), (4, (0, 0, 1, 9), (0, 4))]
        reads.clear()
        necklace = prism()
        mu = ho.moebius(ho.face_poset_of_uppers(necklace))
        ho.hstar_closed_via_inclusion_exclusion(necklace)
        faces = [node for node, value in mu.items() if value and node.dim < 4]
        assert [(dim, interior) for dim, _, interior in reads] == [
            (node.dim, (0,) * (node.dim > 0)) for node in faces]
        reads.clear()
        face_hstar(h_representation(PRISM), [(1, 4, 2)], 3)
        assert reads == [(3, (1, 6, 18, 40), (0,))]  # a triangle times a segment
        # the disconnected oracle reads its one distinct summand, a segment,
        # from both ends, and the product's counts; only the sweep's
        # reference reads one count of the full necklace H-representation
        # (eh._hrep_ehrhart)
        counted = []
        monkeypatch.setattr(eh, "_hrep_ehrhart", lambda necklace: counted.append(
            necklace.compact()) or hrep(necklace))
        reads.clear()
        assert eh.ehrhart_of_positroid(necklace_from_decorated(DecoratedPermutation(
            (2, 1, 4, 3)))).hstar == (1, 1)
        assert reads == [(1, (1,), (0, 1)), (2, (1, 4, 9), ())]
        assert cli._exhaustive_worker(((1, 2), (2, 3), (1, 3), (1, 4)))[1]
        assert counted == ["12,23,13,14"]
        assert (3, (1, 5, 14), (0,)) in reads


class TestFactsOfTheBases:
    """Checks that need no second count: a matroid polytope's only lattice
    points are its vertices, the bases, so a connected positroid (d = n - 1)
    has h*_1 = E(1) - n = |bases| - n, and with no interior lattice point
    its h*-degree is at most n - 2."""

    def test_every_connected_positroid_up_to_n7(self):
        necklaces = connected_through(7)
        assert len(necklaces) == 250 + 1476
        for necklace in necklaces:
            n, hstar = necklace.n, hstar_by_counting(necklace)
            bases = bases_from_necklace(necklace).bases
            assert (*hstar, 0)[1] == len(bases) - n, necklace.compact()
            assert len(hstar) - 1 <= n - 2, necklace.compact()


# The fifth of five successive draws of a seeded random connected positroid
# (n = 8, 9, ..., 12): rank 5, h*(1) = 7,046,187.  Its closed count took
# 3.4 s in its first cut and 0.03 s in the cut the estimate picks (2-core VM).
SEED5_RAND12 = [[1, 2, 3, 5, 6], [2, 3, 5, 6, 7], [3, 4, 5, 6, 7], [4, 5, 6, 7, 12],
                [5, 6, 7, 10, 12], [6, 7, 8, 10, 12], [3, 7, 8, 10, 12], [3, 8, 9, 10, 12],
                [3, 9, 10, 11, 12], [1, 3, 10, 11, 12], [1, 3, 5, 11, 12], [1, 3, 5, 6, 12]]


def rotated(subsets, shift):
    """The necklace of the positroid relabelled by j -> j + shift (mod n)."""
    n = len(subsets)
    return validate_necklace([[(j - 1 + shift) % n + 1 for j in subsets[(m - shift) % n]]
                              for m in range(n)])


class TestDifferenceBound:
    """``IntervalInequality.difference_bound`` against the unwrap-and-flip
    rule (``references.reference_difference_bound``)."""

    @staticmethod
    def check(necklace, rows):
        for q in rows:
            assert q.difference_bound(necklace.rank) == \
                reference_difference_bound(q, necklace.rank), (necklace.subsets, q)

    def test_every_necklace_and_facet_row_up_to_n7(self):
        for necklace in connected_through(7):
            self.check(necklace, necklace.fact(h_representation).inequalities)
            self.check(necklace, necklace.fact(facet_representation).inequalities)
        for necklace in disconnected_up_to(7):
            self.check(necklace, necklace.fact(h_representation).inequalities)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_necklace_and_facet_row_of_n11_to_13_draws(self, seed):
        for necklace in TestCuts.n11_to_13_draws(seed):
            self.check(necklace, h_representation(necklace).inequalities)
            self.check(necklace, facet_representation(necklace).inequalities)

    def test_any_block_bound_and_sense(self):
        for n, r in ((1, 0), (1, 1), (4, 2), (5, 3)):
            necklace = uniform(r, n)
            self.check(necklace, [
                IntervalInequality(start, stop, bound, sense, strict)
                for start, stop in itertools.product(range(1, n + 1), repeat=2)
                for bound, sense, strict in itertools.product(range(-1, r + 2), ("<=", ">="),
                                                              (False, True))])


class TestCuts:
    """Every cut of the cycle counts the same body (``ehrhart._facet_rows``)."""

    @staticmethod
    def bodies(necklace, bounds, t):
        """``one_box_tally`` arguments of the t-th dilate of the upper tally, the
        closed body, its interior, the half-open body and its reciprocal, from
        facet bounds (u, v, c, sense)."""
        n = necklace.n
        return [(n, dilated(body_rows(necklace, bounds), t), t,
                 dilated(eh._upper_marks(bounds), t)),
                *((n, dilated(body_rows(necklace, bounds, strict), t), t)
                  for strict in ((), {"<=", ">="}, {"<="}, {">="}))]

    @staticmethod
    def facet_rows_at(monkeypatch, necklace, cut):
        """``ehrhart._facet_rows`` with the estimate made least at ``cut``."""
        monkeypatch.setattr(eh, "_cut_costs", lambda n, bounds: [k != cut for k in range(n)])
        return eh._facet_rows(necklace)

    def check_every_cut(self, necklace, picked=range(5)):
        """Each picked body's histogram at every cut equals the one at cut 0."""
        facets = necklace.fact(facet_representation)
        bodies = self.bodies(necklace, reference_turned(facets, 0), 2)
        reference = {k: one_box_tally(*bodies[k]) for k in picked}
        for cut in range(1, necklace.n):
            bodies = self.bodies(necklace, reference_turned(facets, cut), 2)
            for k in picked:
                assert one_box_tally(*bodies[k]) == reference[k], (necklace.compact(), cut, k)

    def test_every_cut_up_to_n7(self):
        necklaces = connected_through(7)
        assert len(necklaces) == 250 + 1476
        for index, necklace in enumerate(necklaces):
            # n = 7: one body per positroid, each body on a fifth of them
            self.check_every_cut(necklace, [index % 5] if necklace.n == 7 else range(5))

    def test_every_cut_of_n8_draws(self):
        rng = random.Random(8)
        found = 0
        while found < 3:
            perm = list(range(1, 9))
            rng.shuffle(perm)
            necklace = necklace_from_decorated(DecoratedPermutation(tuple(perm)))
            if necklace_connected(necklace):
                found += 1
                self.check_every_cut(necklace)

    def test_a_wrapped_facet_keeps_its_side(self, monkeypatch):
        # U(2,4) cut at 1: its upper facet x_1 + x_2 + x_3 <= 2 becomes the
        # bound z_2 - z_3 <= 0, read as the lower row x_4 >= 0 (z_3 - z_2 >= 0
        # in the new coordinates), which the half-open body makes strict
        necklace = uniform(2, 4)
        k = facet_representation(necklace).inequalities.index(IntervalInequality(1, 4, 2, "<="))
        turned = self.facet_rows_at(monkeypatch, necklace, 1)
        assert turned[k] == (3, 2, 0, "<=")
        # the relabelled block x_4 + x_1 + x_2 wraps; unwrapped, it flips
        assert unwrapped(IntervalInequality(4, 3, 2, "<="), 2) == IntervalInequality(3, 4, 0, ">=")
        assert body_rows(necklace, turned, {"<="})[1 + k] == (2, 3, (0, 1), (0, eh._INF))
        assert body_rows(necklace, turned, {">="})[1 + k] == (2, 3, (0, 0), (0, eh._INF))

    def test_every_cut_makes_the_facets_of_the_strict_senses_strict(self):
        # the counts cannot show it: with the "<=" rows of the relabelled frame
        # strict, the half-open body counts alike at every cut checked above
        for necklace in connected_through(7):
            facets = necklace.fact(facet_representation)
            for cut, strict in itertools.product(range(necklace.n), ((), {"<="}, {">="})):
                rows = body_rows(necklace, reference_turned(facets, cut), strict)[1:]
                assert [lo[1] == 1 or hi[1] == -1 for _, _, lo, hi in rows] == \
                    [q.sense in strict for q in facets.inequalities], (necklace.compact(), cut)

    @staticmethod
    def n11_to_13_draws(seed):
        """The first connected draw at each n = 11, 12, 13 from ``seed``."""
        rng = random.Random(seed)
        for n in (11, 12, 13):
            while not necklace_connected(necklace := necklace_from_decorated(
                    DecoratedPermutation(tuple(rng.sample(range(1, n + 1), n))))):
                pass
            yield necklace

    def check_the_relabelling(self, monkeypatch, necklace):
        """At every cut, ``_facet_rows`` relabels each bound as the unwrap-and-flip
        rule reads the relabelled block."""
        facets = necklace.fact(facet_representation)
        for cut in range(necklace.n):
            turned = self.facet_rows_at(monkeypatch, necklace, cut)
            assert turned == reference_turned(facets, cut), (necklace.subsets, cut)

    def test_every_cut_relabels_as_the_unwrapped_blocks_up_to_n7(self, monkeypatch):
        for necklace in connected_through(7):
            self.check_the_relabelling(monkeypatch, necklace)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_cut_relabels_as_the_unwrapped_blocks_on_n11_to_13_draws(
            self, monkeypatch, seed):
        for necklace in self.n11_to_13_draws(seed):
            self.check_the_relabelling(monkeypatch, necklace)

    def test_cut_costs_equal_the_arc_model_up_to_n7(self):
        for necklace in connected_through(7):
            facets = necklace.fact(facet_representation)
            assert eh._cut_costs(necklace.n, reference_turned(facets, 0)) == \
                reference_cut_costs(facets), necklace.compact()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cut_costs_equal_the_arc_model_on_n11_to_13_draws(self, seed):
        for necklace in self.n11_to_13_draws(seed):
            facets = necklace.fact(facet_representation)
            assert eh._cut_costs(necklace.n, reference_turned(facets, 0)) == \
                reference_cut_costs(facets), necklace.subsets

    def test_every_rotation_gives_one_hstar_each_in_its_own_cut(self):
        n = len(SEED5_RAND12)
        first = eh._cut_costs(n, reference_turned(facet_representation(validate_necklace(
            SEED5_RAND12)), 0))
        hstars, cuts, turned_back = set(), set(), set()
        for shift in range(n):
            necklace = rotated(SEED5_RAND12, shift)
            facets = necklace.fact(facet_representation)
            costs = eh._cut_costs(n, reference_turned(facets, 0))
            # the estimate turns with the body: cut s here is cut s - shift there
            assert costs == first[-shift:] + first[:-shift]
            cut = costs.index(min(costs))
            assert necklace.fact(eh._facet_rows) == reference_turned(facets, cut)
            cuts.add(cut)
            turned_back.add((cut - shift) % n)
            hstars.add(count_to_degree(necklace).hstar)
        assert len(hstars) == 1 and sum(hstars.pop()) == 7046187
        # one least cost here, so each rotation counts in the same cut of the cycle
        assert len(cuts) == n and len(turned_back) == 1


def assert_is_the_interpolant(ehr, counts):
    """``ehr`` is the polynomial of degree d through the counts E(0..d)."""
    assert ehr.dim == len(counts) - 1
    assert ehr.coefficients == reference_interpolate(counts), ehr
    assert tuple(ehr(t) for t in range(ehr.dim + 1)) == counts, ehr


class TestEhrhartFromHstar:
    @pytest.mark.parametrize("dim", range(5))
    def test_unimodular_simplex(self, dim):
        ehr = EhrhartPolynomial((1,), dim)
        assert ehr.dim == dim
        assert [ehr(t) for t in range(8)] == [math.comb(t + dim, dim) for t in range(8)]

    def test_equals_interpolation_on_every_connected_positroid(self):
        for necklace in connected_up_to(6):
            counts = lattice_counts(facet_representation(necklace), necklace.n - 1)
            assert_is_the_interpolant(ehrhart_of_positroid(necklace), counts)

    def test_equals_interpolation_on_disconnected_positroids(self):
        necklaces = disconnected_up_to(5)
        assert len(necklaces) > 100
        for necklace in necklaces:
            dim = dimension_of_bases(bases_from_necklace(necklace).bases, necklace.n)
            counts = lattice_counts(h_representation(necklace), dim)
            assert_is_the_interpolant(ehrhart_of_positroid(necklace), counts)

    def test_a_disconnected_positroid_counts_no_point_at_its_top_coefficient(self):
        # the premise of the reference's count below t = dim, from the full
        # count E(0..dim) alone: E(1) is the bases and h*_dim = 0.  The
        # oracle's polynomial, a product over the summands, meets that count
        # at every t <= dim, and so equals the reference (eh._hrep_ehrhart)
        necklaces = disconnected_up_to(6)
        assert len(necklaces) == 2119
        for necklace in necklaces:
            bases = bases_from_necklace(necklace).bases
            dim = dimension_of_bases(bases, necklace.n)
            counts = lattice_counts(h_representation(necklace), dim)
            if dim >= 1:
                assert counts[1] == len(bases), necklace.compact()
                assert len(hstar_from_counts(counts)) <= dim, necklace.compact()
            ehr = ehrhart_of_positroid(necklace)
            assert tuple(map(ehr, range(dim + 1))) == counts, necklace.compact()
            assert ehr == eh._hrep_ehrhart(necklace)[1], necklace.compact()

    def test_the_disconnected_oracle_reads_its_dimension_off_the_blocks(self, monkeypatch):
        # d = n - #blocks of pi's cycles: the fundamental graph of the bases
        # is never asked, and fresh necklaces keep no fact from a test before
        def refuse(*args):
            raise AssertionError("the dimension is n minus the number of blocks")

        monkeypatch.setattr("positroid_hstar.positroid.dimension_of_bases", refuse)
        assert not hasattr(eh, "dimension_of_bases")
        compacts = ("13,23,13,14", "12,12", "1,2,1", "134,234,134,145,145", "13,23,34,14")
        assert [eh._hrep_ehrhart(cli.parse_compact_necklace(text))[1].dim
                for text in compacts] == [2, 0, 1, 2, 3]


def disconnected_draws(seed, per_n=6):
    """Seeded disconnected decorated permutations with n = 7, 8, 9, each
    with up to two points forced fixed and every fixed point white or black
    at random, as necklaces."""
    rng = random.Random(seed)
    for n in (7, 8, 9):
        drawn = 0
        while drawn < per_n:
            fixed = rng.sample(range(1, n + 1), rng.randrange(3))
            moved = [v for v in range(1, n + 1) if v not in fixed]
            perm = list(range(1, n + 1))
            for v, image in zip(moved, rng.sample(moved, len(moved))):
                perm[v - 1] = image
            white = {v for v in range(1, n + 1) if perm[v - 1] == v and rng.random() < 0.5}
            necklace = necklace_from_decorated(DecoratedPermutation(perm, white))
            if not necklace_connected(necklace):
                drawn += 1
                yield necklace


class TestTheOracleOfADirectSum:
    """A disconnected positroid's oracle is the product of its summands'
    counts (``necklace_summands``, ``ehrhart_product``); the count of its
    necklace inequalities in its affine hull (``eh._hrep_ehrhart``), which
    shares neither the summands nor the facets, is the reference."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_draws_of_n7_to_n9(self, seed):
        necklaces = list(disconnected_draws(seed))
        # the draws include white fixed points, the coloops
        assert any(decorated_from_necklace(necklace).white for necklace in necklaces)
        for necklace in necklaces:
            assert ehrhart_of_positroid(necklace) == eh._hrep_ehrhart(necklace)[1], \
                necklace.compact()

    def test_six_uniform_summands_at_n24_derive_no_bases(self, monkeypatch):
        # six summands U(2,4), each of dimension 3 and normalized volume 4:
        # h*_1 = E(1) - 19 with E(1) = 6^6 bases, which are never listed,
        # and the product's normalized volume is 18! / 3!^6 * 4^6
        def refuse(necklace):
            raise AssertionError("the oracle derives no bases")

        monkeypatch.setattr(eh, "bases_from_necklace", refuse)
        monkeypatch.setattr("positroid_hstar.positroid.bases_from_necklace", refuse)
        perm = [4 * (k // 4) + (k + 2) % 4 + 1 for k in range(24)]
        necklace = necklace_from_decorated(DecoratedPermutation(perm))
        ehr = ehrhart_of_positroid(necklace)
        assert ehr.dim == 18 and ehr.hstar[1] == 6 ** 6 - 19 == 46637
        assert sum(ehr.hstar) == math.factorial(18) // math.factorial(3) ** 6 * 4 ** 6
        assert eh._summand_ehrhart.cache_info().misses == 1

    def test_a_fault_in_a_kept_summand_is_caught_once_forgotten(self, monkeypatch):
        # the square U(1,2) + U(1,2) keeps its segment's count; a fault in
        # counting after that shows only once the memo is emptied, as the
        # test fixture empties it before each test
        square = lambda: necklace_from_decorated(DecoratedPermutation((2, 1, 4, 3)))
        assert ehrhart_of_positroid(square()).hstar == (1, 1)
        run = eh._run
        monkeypatch.setattr(eh, "_run", lambda plan, t: {0: 2} if t == 0 else run(plan, t))
        assert ehrhart_of_positroid(square()).hstar == (1, 1)
        eh._summand_ehrhart.cache_clear()
        with pytest.raises(ArithmeticError, match="h\\*_0 = 2 by the body's counts but 1"):
            ehrhart_of_positroid(square())

    def test_the_memo_keeps_every_summand_up_to_n8(self):
        # the tests above fill the memo, and the test fixture empties it
        # before each test; a summand of a positroid with n <= 8 is a
        # connected one with n <= 7
        assert eh._summand_ehrhart.cache_info() == (0, 0, eh._SUMMANDS_KEPT, 0)
        assert sum(1 for n in range(1, 8) for _ in cli.connected_necklaces(n)) == 1728
        assert 1728 <= eh._SUMMANDS_KEPT


class TestEhrhartCommand:
    @pytest.mark.parametrize("argv, report", [
        (["12,23,13,14"],
         {"connected": True, "counts": [1, 5, 14, 30], "dim": 3,
          "ehrhart": ["1", "13/6", "3/2", "1/3"], "hstar": [1, 1],
          "input_kind": "necklace", "n": 4, "rank": 2}),
        (['{"pi":[2,1,4,3]}', "--tmax", "4"],
         {"connected": False, "counts": [1, 4, 9, 16, 25], "dim": 2,
          "ehrhart": ["1", "2", "1"], "hstar": [1, 1],
          "input_kind": "decorated", "n": 4, "rank": 2}),
        (["1"],
         {"connected": True, "counts": [1], "dim": 0, "ehrhart": ["1"], "hstar": [1],
          "input_kind": "necklace", "n": 1, "rank": 1}),
    ])
    def test_stdout_is_pinned(self, capsys, argv, report):
        assert cli.main(["ehrhart", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
