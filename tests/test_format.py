"""The h*-vector format: every producer returns a tuple of ints in ascending
degree with no trailing zero; a half-open h* starts with 0, a closed one with 1."""

import random

from positroid_hstar import ehrhart as eh
from positroid_hstar import halfopen as ho
from positroid_hstar import positroid as po
from positroid_hstar import tree as tr
from positroid_hstar import triangulation as tg
from positroid_hstar.cli import connected_necklaces

from references import face_counts, face_equalities


def assert_hstar(h, head, where):
    assert type(h) is tuple and all(type(c) is int for c in h), (where, h)
    assert h and h[-1] != 0 and h[0] == head, (where, h)


def test_every_producer_returns_a_tuple_of_ints():
    for n in range(1, 6):
        for necklace in connected_necklaces(n):
            name = necklace.compact()
            labels = necklace.fact(tg.enumerate_labels)
            closed = {
                "hstar_from_covers": tg.hstar_from_covers(tg.wall_covers(labels, labels[0])),
                "hstar_shelling": tg.hstar_shelling(necklace),
                "hstar_closed_via_inclusion_exclusion":
                    ho.hstar_closed_via_inclusion_exclusion(necklace),
                "hstar_from_counts": eh.hstar_from_counts(
                    eh.lattice_counts(po.facet_representation(necklace), n - 1)),
                "hstar_by_counting": eh.hstar_by_counting(necklace),
            }
            for route, h in closed.items():
                assert_hstar(h, 1, (name, route))
            if n == 1:
                continue
            for route, h in {"hstar_half_open": ho.hstar_half_open(necklace),
                             "hstar_half_open_by_counting":
                                 ho.hstar_half_open_by_counting(necklace)}.items():
                assert_hstar(h, 0, (name, route))
            poset = ho.face_poset_of_uppers(necklace)
            tally = eh.upper_tally(necklace)
            facets = po.facet_representation(necklace)
            for node in poset.nodes:
                if node == poset.top:
                    continue
                eqs = face_equalities(poset, node)
                counts = face_counts(tally, node.generators)
                assert_hstar(eh._face_hstar_from_counts(counts, node.dim, len(node.vertex_set)),
                             1, (name, node.generators))
                assert_hstar(eh.face_hstar(facets, eqs, node.dim), 1, (name, node.generators))


def test_tree_route_returns_a_tuple_of_ints():
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(8):
            assert_hstar(tr.hstar_tree(tr.random_subdivision(n, rng)), 1, n)
