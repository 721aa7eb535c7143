import random

import pytest

from positroid_hstar import tree as tr
from positroid_hstar.positroid import validate_necklace
from positroid_hstar.tree import (
    SubdivisionError,
    arcs,
    circular_extensions,
    h_rep_from_subdivision,
    hstar_tree,
    positroid_from_subdivision,
    random_subdivision,
    tau_order,
    validate_subdivision,
)
from positroid_hstar.positroid import IntervalInequality, bases_from_necklace, zero_one_points
from positroid_hstar.triangulation import enumerate_labels

from references import masks_of

SQUARE = validate_subdivision(4, [("black", [1, 2, 3]), ("white", [1, 3, 4])])
PENTAGON = validate_subdivision(
    5, [("black", [1, 2, 3]), ("white", [1, 3, 4]), ("black", [1, 4, 5])])


class TestValidation:
    def test_square_type(self):
        assert (SQUARE.type_count, SQUARE.n) == (1, 4)

    def test_pentagon_type(self):
        assert (PENTAGON.type_count, PENTAGON.n) == (2, 5)

    def test_same_color_shared_edge_rejected(self):
        with pytest.raises(SubdivisionError, match="equal color"):
            validate_subdivision(4, [("black", [1, 2, 3]), ("black", [1, 3, 4])])

    def test_crossing_chords_rejected(self):
        with pytest.raises(SubdivisionError, match="cross"):
            validate_subdivision(4, [("black", [1, 2, 3]), ("white", [1, 3, 4]),
                                     ("white", [2, 4])])

    def test_non_partition_rejected(self):
        with pytest.raises(SubdivisionError):
            validate_subdivision(5, [("black", [1, 2, 3]), ("white", [1, 3, 4])])

    def test_vertex_order_is_immaterial(self):
        tau = validate_subdivision(4, [("black", [3, 1, 2]), ("white", [4, 3, 1])])
        assert tau == SQUARE

    def test_all_white_polygon(self):
        tau = validate_subdivision(5, [("white", [1, 2, 3, 4, 5])])
        assert tau.type_count == 0 and tau.rank == 1


class TestArcs:
    def test_square_arc_1_to_3(self):
        info = {(a.start, a.end): a for a in arcs(SQUARE)}
        assert info[(1, 3)].facet_defining and info[(1, 3)].area == 1

    def test_square_arc_2_to_4_not_compatible(self):
        info = {(a.start, a.end): a for a in arcs(SQUARE)}
        assert (2, 4) not in info and (4, 2) not in info

    def test_polygon_edge_of_white_cell(self):
        info = {(a.start, a.end): a for a in arcs(SQUARE)}
        assert not info[(3, 4)].facet_defining and info[(3, 4)].area == 0

    def test_only_compatible_arcs_are_listed(self):
        # an arc is listed exactly when some cell holds both its ends
        for tau in (SQUARE, PENTAGON):
            listed = [(a.start, a.end) for a in arcs(tau)]
            assert listed == [(i, j) for i in range(1, tau.n + 1) for j in range(1, tau.n + 1)
                              if i != j and any({i, j} <= set(vs) for _, vs in tau.cells)]

    def test_opposite_areas_split_the_type(self):
        for tau in (SQUARE, PENTAGON):
            info = {(a.start, a.end): a for a in arcs(tau)}
            for (i, j), a in info.items():
                assert a.area + info[(j, i)].area == tau.type_count


class TestHRep:
    def test_square_gives_pyramid(self):
        points = zero_one_points(h_rep_from_subdivision(SQUARE))
        assert points == masks_of([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])

    def test_rows_are_read_off_the_arcs(self):
        rows = h_rep_from_subdivision(PENTAGON).inequalities
        assert rows == tuple(row for a in arcs(PENTAGON) for row in (
            IntervalInequality(a.start, a.end, a.area, ">="),
            IntervalInequality(a.start, a.end, a.area + 1, "<=")))
        assert h_rep_from_subdivision(PENTAGON, arcs(PENTAGON)).inequalities == rows

    def test_pentagon_gives_eight_vertices(self):
        necklace = positroid_from_subdivision(PENTAGON)
        assert necklace == validate_necklace(
            [[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
        points = zero_one_points(h_rep_from_subdivision(PENTAGON))
        assert len(points) == 8
        assert points == necklace.fact(bases_from_necklace).bases

    def test_each_description_is_enumerated_once(self, monkeypatch):
        # the area-bound points feed both the assertion and the bases
        seen = []
        monkeypatch.setattr(tr, "zero_one_points",
                            lambda hrep: seen.append(hrep) or zero_one_points(hrep))
        assert len(positroid_from_subdivision(PENTAGON).fact(bases_from_necklace).bases) == 8
        assert len(seen) == 2 and seen[0] == h_rep_from_subdivision(PENTAGON)
        assert len(seen[1].inequalities) < len(seen[0].inequalities)

    def test_descriptions_that_disagree_are_caught(self, monkeypatch):
        full = h_rep_from_subdivision(PENTAGON)

        def drop_one(hrep):
            points = zero_one_points(hrep)
            return points - {max(points)} if hrep == full else points

        monkeypatch.setattr(tr, "zero_one_points", drop_one)
        with pytest.raises(AssertionError, match="disagree on 0/1 points"):
            positroid_from_subdivision(PENTAGON)

    def test_all_white_is_standard_simplex(self):
        tau = validate_subdivision(5, [("white", [1, 2, 3, 4, 5])])
        points = zero_one_points(h_rep_from_subdivision(tau))
        assert points == masks_of([(i,) for i in range(1, 6)])


class TestTauOrder:
    def test_square_chains(self):
        assert tau_order(SQUARE) == ((1, 3, 4), (3, 2, 1))

    def test_pentagon_chains(self):
        assert tau_order(PENTAGON) == ((1, 3, 4), (3, 2, 1), (5, 4, 1))

    def test_triangulated_polygon_has_length3_chains(self):
        tau = validate_subdivision(5, [("black", [1, 2, 3]), ("white", [1, 3, 4]),
                                       ("black", [1, 4, 5])])
        assert all(len(c) == 3 for c in tau_order(tau))


class TestCircularExtensions:
    def test_square_extensions(self):
        assert set(circular_extensions(tau_order(SQUARE), 4)) == {
            (2, 1, 3, 4), (1, 3, 2, 4)}

    def test_pentagon_extensions_match_labels(self):
        necklace = positroid_from_subdivision(PENTAGON)
        ext = tuple(sorted(circular_extensions(tau_order(PENTAGON), 5)))
        assert ext == enumerate_labels(necklace)

    def test_empty_chain_set_gives_all_cycles(self):
        assert len(circular_extensions((), 5)) == 24

    def test_short_chains_impose_nothing(self):
        assert circular_extensions(((1, 2),), 4) == circular_extensions((), 4)


class TestHstarTree:
    def test_square(self):
        assert hstar_tree(SQUARE) == (1, 1)

    def test_pentagon(self):
        assert hstar_tree(PENTAGON) == (1, 3, 1)

    def test_all_white_is_simplex(self):
        tau = validate_subdivision(6, [("white", [1, 2, 3, 4, 5, 6])])
        assert hstar_tree(tau) == (1,)

    def test_base_point_free(self):
        ext = circular_extensions(tau_order(PENTAGON), 5)
        values = {hstar_tree(PENTAGON, base=w) for w in ext}
        assert values == {(1, 3, 1)}

    def test_a_base_given_as_a_list(self):
        assert hstar_tree(SQUARE, [2, 1, 3, 4]) == hstar_tree(SQUARE, (2, 1, 3, 4)) == (1, 1)


class TestRandomSubdivisions:
    def test_generator_produces_valid_subdivisions(self):
        rng = random.Random(99)
        seen_types = set()
        for _ in range(40):
            tau = random_subdivision(6, rng)
            assert sum(len(vs) - 2 for _, vs in tau.cells) == 4
            seen_types.add(tau.type_count)
        assert len(seen_types) > 2
