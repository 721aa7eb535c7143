import itertools
import math
import random
from fractions import Fraction

import pytest

from positroid_hstar import triangulation as tg
from positroid_hstar import verify
from positroid_hstar.cli import _exhaustive_worker, connected_necklaces
from positroid_hstar.core import circuit_masks, circuit_subsets
from positroid_hstar.positroid import (
    DecoratedPermutation,
    DisconnectedPositroidError,
    bases_from_necklace,
    necklace_connected,
    necklace_from_decorated,
    validate_necklace,
)
from positroid_hstar.triangulation import (
    affine_consistency_check,
    build_graph,
    enumerate_labels,
    hstar_from_covers,
    hstar_shelling,
    labels_by_bases,
    shelling_poset,
    simplex_facets,
    simplex_is_unimodular,
    simplex_vertices,
    wall_covers,
    window_length,
)

from conftest import forget_words
from references import (
    contains,
    cyclic_left_descents,
    determinant,
    reference_affine_consistency_check,
    reference_alcove,
    reference_build_graph,
    reference_wall_covers,
    window_times_s,
)
from test_ehrhart import connected_through

PYRAMID = validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
UNIFORM25 = validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
PRISM = validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
WHEEL = validate_necklace([[1, 2, 3], [2, 3, 5], [3, 4, 5], [1, 4, 5], [1, 2, 5]])
UNIFORM36 = validate_necklace([[(i + k) % 6 + 1 for k in range(3)] for i in range(6)])
UNIFORM48 = validate_necklace([[(i + k) % 8 + 1 for k in range(4)] for i in range(8)])


def n8_draws(count=3, seed=8):
    """The first ``count`` connected positroids with n = 8 drawn from ``seed``."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        perm = list(range(1, 9))
        rng.shuffle(perm)
        necklace = necklace_from_decorated(DecoratedPermutation(tuple(perm)))
        if necklace.fact(necklace_connected):
            found.append(necklace)
    return found


def prefix_vertices(circuit):
    """``circuit`` (subsets of 1..n, in circuit order) in prefix sums z_0..z_(n-1)."""
    n = len(circuit)
    return tuple(tuple(itertools.accumulate(int(1 <= k < n and k in s) for k in range(n)))
                 for s in circuit)


def inject_vertices(monkeypatch, word, circuit):
    """Make `tg._z_vertices` read ``circuit`` (subsets, in circuit order) as
    the simplex of ``word``, in prefix sums, with no word's alcove kept from
    before."""
    z, original = prefix_vertices(circuit), tg._z_vertices
    monkeypatch.setattr(tg, "_z_vertices",
                        lambda w, *z0: z if w == word else original(w, *z0))
    forget_words()


def inject_circuit(monkeypatch, circuit):
    """Make `tg.circuit_masks` read ``circuit`` (subsets, in circuit order)
    for the word 1, 2, ..., len(circuit), and return that word."""
    word = tuple(range(1, len(circuit) + 1))
    masks = tuple(sum(1 << k for k in s) for s in circuit)
    monkeypatch.setattr(tg, "circuit_masks", lambda w: masks if w == word else circuit_masks(w))
    return word


def reposition(graph, change):
    """``graph`` with the swap position p of each directed edge (u, v)
    replaced by ``change((u, v), p)``."""
    words = graph.words
    return graph._replace(positions=tuple(
        tuple(change((u, words[j]), p) for j, p in zip(adj, pos))
        for u, adj, pos in zip(words, graph.adjacent, graph.positions)))


def bareiss_unimodular(word):
    """Reference for `simplex_is_unimodular`: the determinant of the edge
    vectors from the first circuit vertex, last coordinate dropped."""
    verts, n = simplex_vertices(word), len(word)
    return determinant([[verts[q][k] - verts[0][k] for k in range(n - 1)]
                        for q in range(1, n)]) in (1, -1)


def phi_inverse_point(x):
    """Fractional complement of the tail sums, landing in [0, 1)^n.

    y_i is 1 + floor(s) - s for the tail s = x_i + ... + x_n, folded to 0
    when s is an integer.  On a projected simplex this sorts interior points
    along the label's chain order.
    """
    out = []
    tail = Fraction(0)
    for v in reversed(x):
        tail += Fraction(v)
        frac = tail - (tail.numerator // tail.denominator)
        out.append(Fraction(0) if frac == 0 else 1 - frac)
    return tuple(reversed(out))


class TestEnumerateLabels:
    def test_uniform_includes_center(self):
        labs = enumerate_labels(UNIFORM25)
        assert len(labs) == 11 and (3, 1, 4, 2, 5) in labs

    def test_disconnected_rejected(self):
        J = necklace_from_decorated(DecoratedPermutation((2, 1, 4, 3)))
        with pytest.raises(DisconnectedPositroidError, match="decompose_direct_sum"):
            enumerate_labels(J)

    def test_every_label_has_rank_many_descents(self):
        for word in enumerate_labels(WHEEL):
            assert len(cyclic_left_descents(word)) == 3

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM, WHEEL])
    def test_search_matches_the_basis_reference(self, necklace):
        assert enumerate_labels(necklace) == labels_by_bases(necklace)

    def test_search_matches_the_basis_reference_on_every_8th_n7(self):
        necklaces = [necklace for necklace in connected_through(7) if necklace.n == 7][::8]
        assert len(necklaces) == 185
        for necklace in necklaces:
            assert enumerate_labels(necklace) == labels_by_bases(necklace), necklace.compact()

    def test_the_kept_words_give_the_uncached_filter(self):
        # every connected positroid with 2 <= n <= 6 in a shuffled order, then
        # n = 2 and n = 4 again: the table of each n is built once, with at
        # most 8 tables held (every n <= 8 at once: 5,913 words)
        necklaces = [nk for nk in connected_through(7) if nk.n <= 6]
        random.Random(6).shuffle(necklaces)
        for necklace in necklaces + [validate_necklace([[1], [2]]), PYRAMID]:
            n, bases = necklace.n, bases_from_necklace(necklace).bases
            kept = [head + (n,) for head in itertools.permutations(range(1, n))
                    if bases.issuperset(circuit_masks(head + (n,)))]
            labels = labels_by_bases(necklace)
            assert labels == tuple(kept), necklace.compact()
            assert list(labels.circuits) == [m for w in kept for m in circuit_masks(w)]
            held = tg._every_word.cache_info()
            assert sorted(w for w, _ in tg._every_word(n)) == sorted(
                head + (n,) for head in itertools.permutations(range(1, n)))
            assert tg._every_word.cache_info().hits == held.hits + 1  # n is held
        held = tg._every_word.cache_info()
        assert (held.maxsize, held.currsize, held.misses) == (8, 5, 5)

    def test_a_circuit_subset_outside_the_bases_is_caught(self, monkeypatch):
        # of the circuit subsets 24, 34, 13, 14 of 2314 only 34 is not a basis
        search = tg.descent_bounded_words
        monkeypatch.setattr(tg, "descent_bounded_words",
                            lambda n, rows: search(n, rows) + ((2, 3, 1, 4),))
        with pytest.raises(AssertionError, match="not a basis"):
            enumerate_labels(PYRAMID)

    @pytest.mark.parametrize("subsets", [[[]], [[1]]])
    def test_one_element_ground_set_has_one_label(self, subsets):
        necklace = validate_necklace(subsets)
        assert enumerate_labels(necklace) == labels_by_bases(necklace) == ((1,),)

    def test_reference_rejects_disconnected(self):
        J = necklace_from_decorated(DecoratedPermutation((2, 1, 4, 3)))
        with pytest.raises(DisconnectedPositroidError, match="decompose_direct_sum"):
            labels_by_bases(J)


class TestSimplexGeometry:
    @pytest.mark.parametrize("word,message", [
        ((2, 1, 3, 1), "not a permutation word"),
        ((2, 3, 1), "circuit labels must end with n"),
    ])
    @pytest.mark.parametrize("call", [
        simplex_vertices, simplex_facets, simplex_is_unimodular,
        lambda w: wall_covers([(1, 2, 3, 4), w], (1, 2, 3, 4)), lambda w: wall_covers([w], w),
        lambda w: build_graph([w]),
    ])
    def test_a_word_that_is_not_a_label_is_rejected(self, call, word, message):
        with pytest.raises(ValueError, match=message):
            call(word)

    def test_vertices_of_identity(self):
        assert simplex_vertices((1, 2, 3, 4)) == (
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_vertices_of_2314_in_circuit_order(self):
        assert simplex_vertices((2, 3, 1, 4)) == (
            (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 0), (1, 0, 0, 1))

    def test_facets_of_identity_simplex(self):
        n = 5
        got = {(q.start, q.stop, q.sense, q.bound)
               for q in simplex_facets(tuple(range(1, n + 1))).inequalities}
        expected = {(i, i + 1, ">=", 0) for i in range(1, n)} | {(1, n, "<=", 1)}
        assert got == expected

    def test_facets_of_2134_cut_out_the_simplex(self):
        H = simplex_facets((2, 1, 3, 4))
        assert len(H.inequalities) == 4 and H.r == 2
        verts = set(simplex_vertices((2, 1, 3, 4)))
        hits = {p for p in itertools.product((0, 1), repeat=4) if contains(H, p)}
        assert hits == verts

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM, WHEEL])
    def test_simplices_contain_only_their_vertices(self, necklace):
        n, r = necklace.n, necklace.rank
        for word in enumerate_labels(necklace):
            H = simplex_facets(word)
            verts = set(simplex_vertices(word))
            hits = {p for p in itertools.product((0, 1), repeat=n)
                    if sum(p) == r and contains(H, p)}
            assert hits == verts

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_facet_p_is_tight_exactly_off_vertex_p(self, n):
        # every label with n <= 6 is a word ending in n
        for head in itertools.permutations(range(1, n)):
            word = head + (n,)
            verts = simplex_vertices(word)
            for p, q in enumerate(simplex_facets(word).inequalities):
                tight = {k for k, v in enumerate(verts)
                         if sum(v[i - 1] for i in q.support(n)) == q.bound}
                assert tight == set(range(n)) - {p}, (word, p)

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM, WHEEL])
    def test_unimodular(self, necklace):
        assert all(simplex_is_unimodular(w) for w in enumerate_labels(necklace))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_spanning_tree_test_equals_bareiss_on_every_word(self, n):
        for head in itertools.permutations(range(1, n)):
            word = head + (n,)
            assert simplex_is_unimodular(word) == bareiss_unimodular(word), word

    @pytest.mark.parametrize("circuit, unimodular", [
        # the steps 1-2, 2-3, 3-1 close a cycle: determinant 0
        ([{1}, {2}, {3}, {1}], False),
        # a cycle decides before a later step that is not e_i - e_j
        ([{1}, {2}, {1}, {1, 2, 3}], False),
        # the steps 1-2, 2-3 span [3]
        ([{1}, {2}, {3}], True),
    ])
    def test_patched_circuits_decide_by_spanning_tree(self, monkeypatch, circuit, unimodular):
        word = inject_circuit(monkeypatch, circuit)
        assert bareiss_unimodular(word) == unimodular
        assert simplex_is_unimodular(word) == unimodular

    @pytest.mark.parametrize("circuit", [
        # a first step that is not e_i - e_j: it gains two bits, or loses none
        [{1}, {2, 3}, {3}],
        [set(), {1, 2}, {1, 2, 3}],
    ])
    def test_a_step_of_another_form_is_a_broken_circuit(self, monkeypatch, circuit):
        word = inject_circuit(monkeypatch, circuit)
        with pytest.raises(AssertionError, match="not e_i - e_j"):
            simplex_is_unimodular(word)

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM])
    def test_sandwich_property(self, necklace):
        # over each simplex, every interval sum stays within a unit window
        # anchored at the restriction descent count
        from positroid_hstar.core import cyclic_interval
        from test_core import restriction
        n = necklace.n
        for word in enumerate_labels(necklace):
            verts = simplex_vertices(word)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    cdes = len(cyclic_left_descents(*restriction(word, i, j)))
                    support = cyclic_interval(i, j, n)[:-1]
                    values = {sum(v[k - 1] for k in support) for v in verts}
                    assert min(values) >= cdes - 1 and max(values) <= cdes


class TestGraph:
    def test_uniform_edge_count(self):
        graph = build_graph(enumerate_labels(UNIFORM25))
        # 5 spokes from the center plus a 10-cycle through the others
        assert len(graph.edges()) == 15
        assert len(graph.neighbors[(3, 1, 4, 2, 5)]) == 5

    def test_edges_list_the_symmetric_adjacency_once_in_order(self):
        # Every label graph is the swap graph of all words ending in n, restricted
        # to the labels.  Both are checked: every label graph with n <= 6 and
        # every eighth with n = 7 (all 1,476 take about 10 s), and the swap
        # graphs themselves for n <= 7.
        necklaces = [necklace for necklace in connected_through(7) if necklace.n < 7]
        necklaces += [necklace for necklace in connected_through(7) if necklace.n == 7][::8]
        graphs = [build_graph(necklace.fact(enumerate_labels)) for necklace in necklaces]
        graphs += [build_graph(head + (n,) for head in itertools.permutations(range(1, n)))
                   for n in range(1, 8)]
        for graph in graphs:
            neighbors = graph.neighbors
            for u, vs in neighbors.items():
                assert all(u in neighbors[v] for v in vs), u
            by_set = {tuple(sorted((u, v))) for u, vs in neighbors.items() for v in vs}
            assert graph.edges() == tuple(sorted(by_set))
        assert len(graphs[-1].edges()) == 1680

    def test_swap_rule_is_symmetric_through_n7(self):
        # build_graph asserts each edge's shared circuit once, from its smaller
        # word; that covers both directions because every swap has its reverse.
        # A label graph restricts the swap graph of all words ending in n.
        for n in range(1, 8):
            graph = build_graph(head + (n,) for head in itertools.permutations(range(1, n)))
            swap_position = graph.swap_position
            assert all((v, u) in swap_position for u, v in swap_position), n

    def test_singleton_graph(self):
        graph = build_graph([(1, 2, 3)])
        assert graph.edges() == ()

    @pytest.mark.parametrize("necklace", [PYRAMID, PRISM, WHEEL])
    def test_adjacency_iff_sharing_all_but_one_subset(self, necklace):
        labels = enumerate_labels(necklace)
        graph = build_graph(labels)
        edges = set(graph.edges())
        for a, b in itertools.combinations(labels, 2):
            shared = len(set(circuit_subsets(a)) & set(circuit_subsets(b)))
            adjacent = tuple(sorted((a, b))) in edges
            assert adjacent == (shared == len(a) - 1)

    @pytest.mark.parametrize("n", [15, 16, 63, 64])
    def test_circuit_tables_of_every_width(self, n):
        # the circuit table holds 2-byte items through n = 15, 8-byte items
        # through n = 63 and ints beyond: a word and its letter-swap neighbors
        rng = random.Random(n)
        head = list(range(1, n))
        rng.shuffle(head)
        word = (*head, n)
        words = [word] + [word[:p] + (word[p + 1], word[p]) + word[p + 2:] for p in range(n - 2)]
        graph = build_graph(words)
        same_graph(graph, reference_build_graph(words))
        assert len(graph.edges()) >= n - 4

    @pytest.mark.parametrize("carried", [False, True], ids=["computed", "carried"])
    def test_swap_neighbours_sharing_too_few_subsets_are_caught(self, monkeypatch, carried):
        # 2134 given the circuit of 2314 (24, 34, 13, 14) shares only 13 and 24
        # with 1324, whether build_graph computes the circuits or reads the
        # table `Labels` carry
        words = [(1, 3, 2, 4), (2, 1, 3, 4)]

        def masks(w):
            return circuit_masks((2, 3, 1, 4) if w == (2, 1, 3, 4) else w)

        if carried:
            labels = tg.Labels(words)
            labels.circuits = tg._mask_table(4)
            for w in words:
                labels.circuits.extend(masks(w))
            words = labels
        else:
            monkeypatch.setattr(tg, "circuit_masks", masks)
        with pytest.raises(AssertionError, match=r"joined \(1, 3, 2, 4\) and \(2, 1, 3, 4\) "
                                                 r"sharing 2 subsets"):
            build_graph(words)


class TestShelling:
    @pytest.mark.parametrize("order", [
        # block z_2 - z_0 by vertex: 1, 2, 1, 1 (only vertex 1 on the wall)
        (1, 0, 2, 3),
        # block z_2 - z_0 by vertex: 1, 1, 2, 1 (vertex 0 on the wall, vertex 2 off it)
        (1, 2, 0, 3),
    ])
    def test_a_simplex_off_its_words_walls_is_caught(self, monkeypatch, order):
        circuit = circuit_subsets((1, 3, 2, 4))
        inject_vertices(monkeypatch, (1, 3, 2, 4), [circuit[i] for i in order])
        with pytest.raises(AssertionError, match=r"wall of \(1, 3, 2, 4\) opposite vertex 0"):
            simplex_facets((1, 3, 2, 4))

    @pytest.mark.parametrize("necklace", [PRISM, UNIFORM25])
    def test_one_wall_table_scores_every_base(self, necklace):
        labels = enumerate_labels(necklace)
        graph = build_graph(labels)
        for w in graph.words:
            assert wall_covers(labels, w) == shelling_poset(graph, w).cover
        point = (1,)
        assert simplex_facets(point).inequalities == ()
        assert wall_covers([point], point) == {point: 0}

    def test_labels_of_mixed_length_are_rejected(self):
        for labels in ([(1, 2, 3), (2, 1, 3, 4), (1, 3, 2, 4)], [(2, 1, 3, 4), (1, 2, 3, 4, 5)]):
            with pytest.raises(ValueError, match="labels have mixed ground-set sizes"):
                wall_covers(labels, (2, 1, 3, 4))

    def test_the_shelling_route_reads_no_wall_and_one_alcove(self, monkeypatch):
        # the covers are read off the label windows against the base alcove,
        # so a cold query derives the base's alcove alone and asserts no wall
        reads = []
        monkeypatch.setattr(tg, "_wall", lambda *args: reads.append(args[0]))
        assert hstar_shelling(UNIFORM48) == (1, 62, 575, 1140, 575, 62, 1)
        assert reads == [] and tg._alcove.cache_info().misses == 1

    def test_base_has_cover_zero(self):
        graph = build_graph(enumerate_labels(UNIFORM25))
        for w in graph.words:
            assert shelling_poset(graph, w).cover[w] == 0

    def test_base_point_free(self):
        graph = build_graph(enumerate_labels(UNIFORM25))
        polys = {hstar_from_covers(shelling_poset(graph, w).cover) for w in graph.words}
        assert polys == {(1, 5, 5)}

    def test_covers_count_into_one_histogram(self):
        assert hstar_from_covers({(1, 2): 2, (2, 1): 0, (3, 1): 2}) == (1, 0, 2)
        with pytest.raises(ValueError):
            hstar_from_covers({})

    def test_a_base_given_as_a_list(self):
        graph = build_graph(enumerate_labels(PYRAMID))
        assert shelling_poset(graph, [2, 1, 3, 4]) == shelling_poset(graph, (2, 1, 3, 4))
        assert wall_covers(graph.words, [2, 1, 3, 4]) == wall_covers(graph.words, (2, 1, 3, 4))
        assert hstar_shelling(PYRAMID, [2, 1, 3, 4]) == hstar_shelling(PYRAMID, (2, 1, 3, 4))

    @pytest.mark.parametrize("necklace,coeffs", [
        (WHEEL, (1, 4, 3)), (UNIFORM25, (1, 5, 5)), (PRISM, (1, 3, 1)),
        (PYRAMID, (1, 1)), (validate_necklace([[1]]), (1,)),
    ])
    def test_hstar_values(self, necklace, coeffs):
        assert hstar_shelling(necklace) == coeffs

    def test_disconnected_graph_is_rejected(self):
        # the identity word has no swap neighbors, so no edge joins these two
        graph = build_graph([(1, 2, 3, 4), (2, 1, 3, 4)])
        assert graph.edges() == ()
        with pytest.raises(AssertionError, match="triangulation graph is disconnected"):
            shelling_poset(graph, (1, 2, 3, 4))

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM, WHEEL])
    def test_edges_join_consecutive_layers(self, necklace):
        graph = build_graph(enumerate_labels(necklace))
        poset = shelling_poset(graph, graph.words[0])
        for u, v in graph.edges():
            assert abs(poset.dist[u] - poset.dist[v]) == 1
        assert sum(poset.cover.values()) == len(graph.edges())


class TestWordMemos:
    """A label's alcove depends on its word alone, so a batch derives each
    word's once (`tg._alcove`), and the reference table of each n is built
    once however the batch interleaves n."""

    def test_a_shuffled_sweep_derives_each_word_once(self, monkeypatch):
        payloads = [tuple(tuple(sorted(s)) for s in necklace.subsets)
                    for n in range(1, 7) for necklace in connected_necklaces(n)]
        random.Random(2024).shuffle(payloads)
        wall, reads = tg._wall, []
        monkeypatch.setattr(tg, "_wall", lambda word, *rest: reads.append(word)
                            or wall(word, *rest))
        forget_words()
        assert all(_exhaustive_worker(p)[1] for p in payloads)
        assert len(payloads) == 252
        # the covers read no wall; the 154 words w with w_n = n for n <= 6 are
        # all labels, and each word's alcove is derived once
        assert reads == []
        assert tg._alcove.cache_info().misses == tg._alcove.cache_info().currsize == 154
        assert tg._every_word.cache_info().misses == 5  # n = 2..6

    def test_a_memo_keeps_a_bounded_number_of_words(self):
        # every word with n <= 7 and most of n = 8; past the bound the least
        # recently read words go
        memo = tg._alcove
        assert memo.cache_info().maxsize == tg._WORDS_KEPT == 4096
        assert sum(math.factorial(n - 1) for n in range(1, 8)) < 4096 < math.factorial(7)
        words = [head + (n,) for n in (7, 8) for head in itertools.permutations(range(1, n))]
        for word in words:
            memo(word)
        info = memo.cache_info()
        assert len(words) > info.maxsize and info.currsize == info.maxsize
        assert memo(words[-1]) == memo.__wrapped__(words[-1])
        assert memo.cache_info().hits == info.hits + 1

    def test_a_fault_injected_after_a_word_is_cached_is_caught_once_forgotten(
            self, monkeypatch):
        # 2134 with a vertex inside its window, cached first; and 1324 with
        # its vertex 0 moved off the wall opposite it, whose walls no memo keeps
        word, other = (1, 3, 2, 4), (2, 1, 3, 4)
        simplex_facets(word)
        alcove = tg._alcove(other)
        circuit = circuit_subsets(word)
        faulty = {word: prefix_vertices([circuit[i] for i in (1, 0, 2, 3)]),
                  other: prefix_vertices(({1, 2}, {1, 3}, {1, 4}, {3, 4}))}
        original = tg._z_vertices
        monkeypatch.setattr(tg, "_z_vertices",
                            lambda w, *z0: faulty.get(w) or original(w, *z0))
        # a wall fault shows on the next call ...
        with pytest.raises(AssertionError, match=r"wall of \(1, 3, 2, 4\) opposite vertex 0"):
            simplex_facets(word)
        # ... the alcove memo answers from before the fault, as in a batch,
        # and once it is emptied, as before each test, the fault shows
        assert tg._alcove(other) == alcove
        forget_words()
        with pytest.raises(AssertionError, match=r"not the alcove \[2, 5, 3, 4\]"):
            tg._alcove(other)
        # a failed assertion is not kept: the word fails again
        with pytest.raises(AssertionError):
            tg._alcove(other)
        assert tg._alcove.cache_info().currsize == 0


class TestLabelPartition:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_uniform_label_sets_partition_all_cycles(self, n):
        # every word ending in n has some descent count r, and for the rank-r
        # uniform positroid all circuit subsets are bases, so the uniform
        # label sets partition the (n-1)! cycles
        import math
        total = 0
        for r in range(1, n):
            uniform = validate_necklace(
                [[(i + k - 1) % n + 1 for k in range(r)] for i in range(1, n + 1)])
            total += len(enumerate_labels(uniform))
        assert total == math.factorial(n - 1)


class TestAffineLabeling:
    def test_single_label_identity_window(self):
        graph = build_graph([(1, 2, 3, 4)])
        report = affine_consistency_check(graph, shelling_poset(graph, (1, 2, 3, 4)))
        assert report.ok and report.windows == {(1, 2, 3, 4): (1, 2, 3, 4)}

    def test_pyramid_lengths(self):
        graph = build_graph(enumerate_labels(PYRAMID))
        report = affine_consistency_check(graph, shelling_poset(graph, (1, 3, 2, 4)))
        assert report.ok
        assert sorted(window_length(w) for w in report.windows.values()) == [0, 1]

    @pytest.mark.parametrize("necklace", [PYRAMID, UNIFORM25, PRISM, WHEEL])
    def test_consistency_for_every_base(self, necklace):
        graph = build_graph(enumerate_labels(necklace))
        for base in graph.words:
            poset = shelling_poset(graph, base)
            report = affine_consistency_check(graph, poset)
            assert report.ok, report.problems
            for w, win in report.windows.items():
                assert window_length(win) == poset.dist[w]

    @pytest.mark.parametrize("necklace", [UNIFORM25, PRISM, WHEEL])
    def test_corrupted_swap_position_is_caught(self, necklace):
        graph = build_graph(enumerate_labels(necklace))
        n = necklace.n
        for edge, p in sorted(graph.swap_position.items()):
            for wrong in range(1, n + 1):
                if wrong == p:
                    continue
                corrupted = reposition(graph, lambda e, q: wrong if e == edge else q)
                try:
                    report = affine_consistency_check(
                        corrupted, shelling_poset(corrupted, graph.words[0]))
                except AssertionError:
                    continue
                assert not report.ok, (edge, wrong)

    def test_length_is_checked_against_the_shelling_distance(self):
        graph = build_graph(enumerate_labels(UNIFORM25))
        poset = shelling_poset(graph, graph.words[0])
        for w, d in poset.dist.items():
            shifted = poset._replace(dist={**poset.dist, w: d + 1})
            report = affine_consistency_check(graph, shifted)
            assert not report.ok
            assert any(str(w) in problem for problem in report.problems)

    def test_cover_counts_the_cyclic_window_descents(self):
        # cover(w) = #{i in 1..n : win(i) > win(i+1)} with win(n+1) = win(1) + n,
        # and it is the number of walls separating w's alcove from the base's,
        # which the reference counts wall by wall on every base; at n = 6 the
        # BFS and the affine check run from the first base only
        for n in range(2, 7):
            for necklace in connected_necklaces(n):
                labels = enumerate_labels(necklace)
                graph = build_graph(labels)
                facets = {w: simplex_facets(w) for w in labels}
                for base in graph.words:
                    walls = wall_covers(labels, base)
                    assert walls == reference_wall_covers(facets, base), (necklace.compact(), base)
                    if n == 6 and base != graph.words[0]:
                        continue
                    poset = shelling_poset(graph, base)
                    report = affine_consistency_check(graph, poset)
                    for w, win in report.windows.items():
                        cyclic = win + (win[0] + n,)
                        descents = sum(cyclic[i] > cyclic[i + 1] for i in range(n))
                        assert poset.cover[w] == descents, (necklace.compact(), base, w)
                        assert walls[w] == descents, (necklace.compact(), base, w)

    @pytest.mark.parametrize("word,circuit", [
        # the alcove of 2134 read against the word 1234
        ((1, 2, 3, 4), circuit_subsets((2, 1, 3, 4))),
        # residues read the word, but vertex {2, 3} lies outside the alcove
        ((1, 3, 2, 4), tuple(map(frozenset, ({1, 2}, {1, 3}, {1, 4}, {2, 3})))),
        # one vertex repeated n times
        ((1, 2, 3, 4), (frozenset({1, 2}),) * 4),
    ])
    def test_simplex_that_is_not_its_words_alcove_is_caught(self, monkeypatch, word, circuit):
        inject_vertices(monkeypatch, word, circuit)
        graph = build_graph([word])
        with pytest.raises(AssertionError, match="alcove"):
            affine_consistency_check(graph, shelling_poset(graph, word))

    def test_vertex_falling_inside_the_window_is_caught(self, monkeypatch):
        # the alcove read off these vertices is g = [2, 5, 3, 4]; along g the
        # vertex {3, 4} reads 0, 1, 0, 1, 1 and falls between g(2) and g(3)
        inject_vertices(monkeypatch, (2, 1, 3, 4), ({1, 2}, {1, 3}, {1, 4}, {3, 4}))
        graph = build_graph([(2, 1, 3, 4)])
        with pytest.raises(AssertionError, match=r"not the alcove \[2, 5, 3, 4\]"):
            affine_consistency_check(graph, shelling_poset(graph, (2, 1, 3, 4)))

    def test_window_generators(self):
        e = (1, 2, 3, 4, 5)
        assert window_times_s(e, 1) == (2, 1, 3, 4, 5)
        assert window_times_s(e, 5) == (0, 2, 3, 4, 6)
        for i in range(1, 6):
            assert window_times_s(window_times_s(e, i), i) == e
            assert window_length(window_times_s(e, i)) == 1


def _pyramid_labels_reordered(labels, necklace):
    return labels[::-1] if necklace.compact() == "12,23,13,14" else labels


def _prism_label_dropped(labels, necklace):
    return labels[:-1] if necklace.compact() == "124,234,134,145,125" else labels


def _last_vertex_moved(vertices, word):
    return vertices[:-1] + ((1, 0, 1, 1, 0),) if tuple(word) == (3, 2, 4, 1, 5) else vertices


def _first_bound_raised(hrep, word):
    if tuple(word) != (3, 2, 4, 1, 5):
        return hrep
    q, *rest = hrep.inequalities
    return hrep._replace(inequalities=(type(q)(q.start, q.stop, q.bound + 1, q.sense), *rest))


def _prism_edge_dropped(graph, words):
    if len(graph.words) != 5:
        return graph
    edge = set(graph.index_edges()[0])
    kept = [[(j, p) for j, p in zip(adj, pos) if {i, j} != edge]
            for i, (adj, pos) in enumerate(zip(graph.adjacent, graph.positions))]
    return graph._replace(adjacent=tuple(tuple(j for j, _ in row) for row in kept),
                          positions=tuple(tuple(p for _, p in row) for row in kept))


def _cover_raised(size):
    def corrupt(poset, graph, base):
        if len(graph.words) != size:
            return poset
        last = graph.words[-1]
        return poset._replace(cover={**poset.cover, last: poset.cover[last] + 1})
    return corrupt


def _uniform_window_shifted(report, graph, poset):
    if len(graph.words) != 11:
        return report
    return report._replace(windows={**report.windows, (1, 4, 2, 3, 5): (0, 2, 3, 4, 7)})


class TestGoldenRowsCatchFaults:
    """Each golden row of `verify_golden` fails when the function it fixes
    returns a wrong value on that row's instance: the rows replace unit tests
    that pinned the same values, so they must catch the same faults."""

    @pytest.mark.parametrize("name, corrupt, failing", [
        ("enumerate_labels", _pyramid_labels_reordered, ["pyramid labels"]),
        ("enumerate_labels", _prism_label_dropped, [
            "rank-3 five-simplex labels", "rank-3 five-simplex edges",
            "rank-3 five-simplex covers", "rank-3 five-simplex h*", "pentagon subdivision"]),
        ("simplex_vertices", _last_vertex_moved, ["vertices of 32415 simplex"]),
        ("simplex_facets", _first_bound_raised, ["facets of projected 32415 simplex"]),
        ("build_graph", _prism_edge_dropped, [
            "rank-3 five-simplex edges", "rank-3 five-simplex covers"]),
        ("shelling_poset", _cover_raised(8), ["rank-3 wheel cover multiset"]),
        ("shelling_poset", _cover_raised(5), ["rank-3 five-simplex covers"]),
        ("affine_consistency_check", _uniform_window_shifted, ["affine windows"]),
    ], ids=["pyramid-labels", "prism-labels", "vertices-32415", "facets-32415",
            "prism-edges", "wheel-covers", "prism-covers", "uniform-windows"])
    def test_a_wrong_value_fails_its_row(self, monkeypatch, name, corrupt, failing):
        original = getattr(tg, name)
        monkeypatch.setattr(tg, name, lambda arg, *rest: corrupt(original(arg, *rest), arg, *rest))
        checks = verify.verify_golden()
        assert len(checks) == 29
        assert [check_name for check_name, ok, _ in checks if not ok] == failing


class TestPhiInverse:
    def test_zero_vector(self):
        assert phi_inverse_point((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_integer_tails_vanish(self):
        assert phi_inverse_point((1, 1, 0, 1, 0)) == (0, 0, 0, 0, 0)

    def test_interior_points_follow_the_chain(self):
        # interior rational points of the projected 32415-simplex sort as
        # 0 < y_3 < y_2 <= y_4 < y_1 < 1
        verts = [v[:-1] for v in simplex_vertices((3, 2, 4, 1, 5))]
        rng = random.Random(5)
        for _ in range(10):
            weights = [Fraction(rng.randrange(1, 30)) for _ in verts]
            total = sum(weights)
            point = [sum(w * Fraction(v[k]) for w, v in zip(weights, verts)) / total
                     for k in range(4)]
            y = phi_inverse_point(point)
            chain = [y[2], y[1], y[3], y[0]]  # y_3, y_2, y_4, y_1
            assert all(a <= b for a, b in zip(chain, chain[1:]))
            assert Fraction(0) < chain[0] and chain[-1] < 1


def same_graph(graph, reference):
    assert graph == reference
    assert list(graph.neighbors.items()) == list(reference.neighbors.items())
    assert list(graph.swap_position.items()) == list(reference.swap_position.items())


def outcome(check, graph, poset):
    """The report of ``check``, its windows in order, or its AssertionError text."""
    try:
        report = check(graph, poset)
    except AssertionError as err:
        return str(err)
    return report, list(report.windows.items())


class TestAgainstReferences:
    """The one-pass graph, alcove and window check against the bodies they
    replaced (`tests/references.py`): equal graphs, windows, verdicts and
    problems, in order."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_connected_positroid_through_n6(self, n):
        for necklace in connected_necklaces(n):
            labels = necklace.fact(enumerate_labels)
            graph = build_graph(labels)
            same_graph(graph, reference_build_graph(labels))
            for base in graph.words if n <= 5 else graph.words[::max(1, len(graph.words) // 3)]:
                poset = shelling_poset(graph, base)
                assert outcome(affine_consistency_check, graph, poset) == outcome(
                    reference_affine_consistency_check, graph, poset), (necklace.compact(), base)

    @pytest.mark.parametrize("necklace", [UNIFORM48, *n8_draws()],
                             ids=["U(4,8)", "draw1", "draw2", "draw3"])
    def test_n8(self, necklace):
        labels = necklace.fact(enumerate_labels)
        graph = build_graph(labels)
        same_graph(graph, reference_build_graph(labels))
        poset = shelling_poset(graph, graph.words[-1])
        report = outcome(affine_consistency_check, graph, poset)
        assert report == outcome(reference_affine_consistency_check, graph, poset)
        assert report[0].ok

    @pytest.mark.parametrize("necklace", [UNIFORM25, PRISM, WHEEL])
    def test_corrupted_swap_positions_and_distances(self, necklace):
        graph = build_graph(enumerate_labels(necklace))
        poset = shelling_poset(graph, graph.words[0])
        n = necklace.n
        cases = [(reposition(graph, lambda e, q: wrong if e == edge else q), poset)
                 for edge, p in graph.swap_position.items()
                 for wrong in range(1, n + 1) if wrong != p]
        cases += [(graph, poset._replace(dist={**poset.dist, w: d + 1}))
                  for w, d in poset.dist.items()]
        # every edge off by one at once, each label's neighbors listed
        # backwards: one problem per edge, sorted by edge
        backwards = graph._replace(adjacent=tuple(adj[::-1] for adj in graph.adjacent),
                                   positions=tuple(pos[::-1] for pos in graph.positions))
        cases.append((reposition(backwards, lambda e, p: p % n + 1), poset))
        for case in cases:
            got = outcome(affine_consistency_check, *case)
            assert got == outcome(reference_affine_consistency_check, *case)
            assert not got[0].ok
        assert len(got[0].problems) == len(graph.swap_position)

    @pytest.mark.parametrize("necklace", [UNIFORM25, PRISM, WHEEL, UNIFORM36])
    def test_every_pair_of_labels_at_every_position(self, necklace):
        # the edge check on pairs the swap rule does not join, too
        graph = build_graph(enumerate_labels(necklace))
        poset = shelling_poset(graph, graph.words[0])
        size = len(graph.words)
        for p in range(1, necklace.n + 1):
            every_pair = graph._replace(
                adjacent=tuple(tuple(j for j in range(size) if j != i) for i in range(size)),
                positions=((p,) * (size - 1),) * size)
            got = outcome(affine_consistency_check, every_pair, poset)
            assert got == outcome(reference_affine_consistency_check, every_pair, poset)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_alcove_of_every_word_through_n7(self, n):
        for head in itertools.permutations(range(1, n)):
            word = head + (n,)
            assert tg._alcove(word) == reference_alcove(word), word

    @pytest.mark.parametrize("word,circuit,same_text", [
        ((2, 1, 3, 4), tuple(map(frozenset, ({1, 2}, {1, 3}, {1, 4}, {3, 4}))), True),
        ((1, 3, 2, 4), tuple(map(frozenset, ({1, 2}, {1, 3}, {1, 4}, {2, 3}))), True),
        # column sums that are not the word's: the reference reads its alcove
        # off them, the formula names the word's own
        ((1, 2, 3, 4), circuit_subsets((2, 1, 3, 4)), False),
        ((1, 2, 3, 4), (frozenset({1, 2}),) * 4, False),
    ])
    def test_alcove_of_a_wrong_simplex_raises_as_the_reference(self, monkeypatch, word,
                                                                circuit, same_text):
        inject_vertices(monkeypatch, word, circuit)
        messages = []
        for alcove in (tg._alcove, reference_alcove):
            with pytest.raises(AssertionError, match="alcove") as caught:
                alcove(word)
            messages.append(str(caught.value))
        assert (messages[0] == messages[1]) == same_text, messages
