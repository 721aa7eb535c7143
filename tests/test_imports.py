"""What a process loads, what the package exports, and how its records behave."""

import importlib
import inspect
import itertools
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import positroid_hstar
from positroid_hstar import ehrhart as eh
from positroid_hstar import halfopen as ho
from positroid_hstar import positroid as po
from positroid_hstar import tree as tr
from positroid_hstar import triangulation as tg
from positroid_hstar.core import _Record

ROOT = Path(__file__).resolve().parent.parent
U37 = "123,234,345,456,567,167,127"
SQUARE = ('{"n":4,"cells":[{"color":"black","vertices":[1,2,3]},'
          '{"color":"white","vertices":[1,3,4]}]}')
NOT_ON_THE_QUERY_PATH = ("dataclasses", "fractions", "inspect", "positroid_hstar.tree",
                         "positroid_hstar.verify")


def loaded_after(argv, watched=NOT_ON_THE_QUERY_PATH):
    """The ``watched`` modules that a fresh interpreter holds after ``cli.main(argv)``."""
    code = ("import contextlib, json, os, sys\n"
            "from positroid_hstar import cli\n"
            "with open(os.devnull, 'w') as fh, contextlib.redirect_stdout(fh):\n"
            f"    code = cli.main({argv!r})\n"
            f"print(json.dumps([code, [m for m in {tuple(watched)!r} "
            "if m in sys.modules]]))\n")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                            text=True, timeout=120,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout)
    assert code == 0
    return loaded


class TestColdStart:
    def test_a_query_loads_no_dataclasses_tree_or_suites(self):
        assert loaded_after(["hstar", U37, "--method", "all"]) == []

    def test_a_half_open_query_loads_no_fractions(self):
        assert loaded_after(["hstar", U37, "--half-open", "--method", "all"]) == []

    def test_a_disconnected_query_loads_no_fractions(self):
        # a disconnected input runs the oracle alone, which counts in ints
        assert loaded_after(["hstar", "13,23,13,14", "--method", "all"]) == []

    @pytest.mark.parametrize("command", ["triangulate", "convert"])
    def test_triangulate_and_convert_load_no_dataclasses_tree_or_suites(self, command):
        assert loaded_after([command, U37]) == []

    def test_a_subdivision_loads_the_tree_module(self):
        assert loaded_after(["tree", SQUARE]) == ["positroid_hstar.tree"]

    # each route imports its module on its own branch, so the shelling
    # queries pay for no counting and no inclusion-exclusion
    ROUTE_MODULES = ("positroid_hstar.ehrhart", "positroid_hstar.halfopen")

    @pytest.mark.parametrize("argv", [["hstar", U37, "--method", "shelling"], ["triangulate", U37]])
    def test_shelling_loads_neither_counting_nor_halfopen(self, argv):
        assert loaded_after(argv, self.ROUTE_MODULES) == []

    def test_the_oracle_does_not_load_halfopen(self):
        assert loaded_after(["hstar", U37, "--method", "oracle"], self.ROUTE_MODULES) == [
            "positroid_hstar.ehrhart"]


def test_no_module_binds_affine_rank():
    # face dimensions come from basis bitmasks; the elimination is the tests' reference
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        assert not hasattr(home, "affine_rank"), module.name
    assert not hasattr(po, "_projected_vertices")


def test_no_module_binds_a_second_form_of_bases_or_connectivity():
    # bases are bitmasks in PositroidBases itself, and a positroid's direct
    # sum is one scan of pi's cycles (positroid.necklace_components); the
    # set-based exchange check and the cyclic intervals are the tests'
    # references, and the fundamental graph splits only a handed-in basis set
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("basis_masks", "_masks", "stabilized_intervals",
                     "is_stabilized_interval_free", "components_of_bases", "_components"):
            assert not hasattr(home, name), (module.name, name)
    for name in ("cli", "ehrhart"):
        home = importlib.import_module(f"positroid_hstar.{name}")
        assert not hasattr(home, "dimension_of_bases"), name


def test_no_module_binds_a_second_home_of_a_job():
    # one route runner (cli.hstar_routes), one cyclic interval
    # (core.cyclic_interval), one plan per counted body (ehrhart._body), one
    # DP loop (ehrhart._run)
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("hstar_closed_all_methods", "hstar_half_open_all_methods",
                     "interval_support", "_body_rows", "_count_body", "_dilate"):
            assert not hasattr(home, name), (module.name, name)


def test_one_form_of_a_facet_a_face_and_a_basis():
    # a facet is an IntervalInequality row of facet_representation, a face's
    # generators and a tally's keys are bitmasks of the upper rows, a basis is
    # a bitmask (the tuple form is references.vertices), and the tree route
    # returns the necklace alone
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("CanonicalFacet", "canonical_facets", "UpperTally", "vertices", "rank_of"):
            assert not hasattr(home, name), (module.name, name)
    assert not hasattr(po.DecoratedPermutation, "black")
    assert not hasattr(eh.EhrhartPolynomial, "leading_coefficient")
    assert all(type(node.generators) is int for node in ho.face_poset_of_uppers(PRISM).nodes)
    assert type(eh.upper_tally(PRISM)) is dict
    assert type(tr.positroid_from_subdivision(SQUARE_TAU)) is po.GrassmannNecklace


def test_one_form_of_a_counting_row(monkeypatch):
    # every row reads as a difference bound (IntervalInequality.difference_bound,
    # its one complement rule), a cut relabels the bounds' prefix-sum nodes,
    # and a counted body names the senses it makes strict
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("_compile", "CompiledRow", "_projected_candidates", "_rotate"):
            assert not hasattr(home, name), (module.name, name)
    assert not hasattr(po.IntervalInequality, "unwrapped")
    for function in (eh._linear, eh._body):
        parameters = inspect.signature(function).parameters
        assert not {"strict_upper", "strict_lower"} & set(parameters), function.__name__
    # past facet_representation a connected count builds no IntervalInequality
    necklace = po.validate_necklace(PRISM.subsets)
    necklace.fact(po.facet_representation)
    built, init = [], po.IntervalInequality.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(po.IntervalInequality, "__init__", spy)
    eh.count_to_degree(necklace)
    eh.count_to_degree(necklace, half_open=True)
    eh.upper_tally(necklace)
    assert built == []
    po.h_representation(po.validate_necklace(PRISM.subsets))  # the spy sees a row built
    assert built


def test_no_module_binds_a_second_form_of_the_ehrhart_polynomial():
    # an Ehrhart polynomial is its h* and dimension; the Lagrange form is the
    # tests' reference (references.reference_interpolate)
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("ExactPolynomial", "ehrhart_interpolate", "ehrhart_from_hstar",
                     "polytope_dimension"):
            assert not hasattr(home, name), (module.name, name)
    assert eh.EhrhartPolynomial._fields == ("hstar", "dim")


def test_no_module_binds_a_second_form_of_a_count():
    # a count is a tuple E(0..k) (ehrhart.lattice_counts, hstar_from_counts)
    # or an EhrhartPolynomial; the one-box count is the tests' helper, built
    # from ehrhart._plan and ehrhart._run
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("CountProfile", "DegreeCounts", "count_constrained", "_tally",
                     "count_points", "closed_profile", "_hrep_plan", "_closed_profile",
                     "_oracle_counts", "Row", "TightRow"):
            assert not hasattr(home, name), (module.name, name)
    assert list(inspect.signature(eh.hstar_from_counts).parameters) == ["counts"]


def test_one_reading_rule_for_every_h_star():
    # every h* is read from counts at both ends of reciprocity
    # (ehrhart._hstar_from_ends): no hand-written check of h*_s, and the
    # oracle's reference, the full H-representation counted in its affine
    # hull (ehrhart._hrep_ehrhart), reads its counts as a face's are read
    cli_source = (ROOT / "src" / "positroid_hstar" / "cli.py").read_text()
    for name in ("_last_dilate", "_face_hstar_from_counts", "_hstar_head"):
        assert name not in cli_source, name
    assert "_hstar_head" not in inspect.getsource(eh.count_to_degree)
    assert list(inspect.signature(eh._hstar_from_ends).parameters) == [
        "dim", "counts", "interior"]


def test_no_module_binds_a_second_table_of_walls():
    # wall_covers counts the descents of the label windows and reads no wall,
    # so it takes the labels alone, no module builds a walls table of its own
    # and triangulation keeps no walls memo
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        assert not hasattr(home, "label_walls"), module.name
    assert not hasattr(getattr(tg, "_walls", None), "cache_info")
    assert list(inspect.signature(tg.wall_covers).parameters) == ["labels", "base"]


def test_no_module_binds_the_facets_with_their_bases():
    # the facets are read off a shortest-path closure of the necklace
    # (positroid.facet_representation); the bases test is the reference
    # that verify compares it with (verify._facets_by_bases), and halfopen
    # filters the bases on its upper facets itself
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        assert not hasattr(home, "_facet_vertex_sets"), module.name


def test_no_module_binds_gale_leq():
    # the Gale order is tested as prefix counts (positroid._gale_limits); the
    # sorted comparison is the tests' reference
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        assert not hasattr(home, "gale_leq"), module.name


def test_one_rule_for_zero_one_points_and_one_read_of_the_arcs():
    # 0/1 points are bitmasks from the one filter (positroid.zero_one_points);
    # membership of rational points is the tests' reference; the tree route
    # reads the compatible arcs once and carries them
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        assert not hasattr(home, "_area_bounds"), module.name
    assert not hasattr(po.HRepresentation, "contains")
    assert tr.ArcInfo._fields == ("start", "end", "facet_defining", "area")
    assert tr.TreePositroid._fields == ("necklace", "compatible_arcs", "chains", "extensions")


def test_no_module_binds_the_descent_set_or_the_half_open_profile():
    # the label search counts descents by bitmask (core.descent_bounded_words)
    # and the oracle counts up to the h*-degree; the sets and the full
    # profile are the tests' references
    for module in pkgutil.iter_modules(positroid_hstar.__path__):
        home = importlib.import_module(f"positroid_hstar.{module.name}")
        for name in ("cyclic_left_descents", "half_open_profile"):
            assert not hasattr(home, name), (module.name, name)


class TestPublicNames:
    # positroid_hstar.__all__, pinned: a name leaves it only with its definition
    PINNED = [
        "AffineLabelingReport", "BicoloredSubdivision", "DecoratedPermutation",
        "DisconnectedPositroidError", "EhrhartPolynomial", "GrassmannNecklace",
        "HRepresentation", "IntervalInequality", "NecklaceError", "PositroidBases",
        "ShellingPoset", "SubdivisionError", "TriangulationGraph", "affine_consistency_check",
        "arcs", "bases_from_necklace", "build_graph", "circular_extensions", "core",
        "decompose_direct_sum", "decorated_from_necklace", "ehrhart", "ehrhart_of_positroid",
        "ehrhart_product", "enumerate_labels", "face_hstar", "face_poset_of_uppers",
        "facet_representation", "h_rep_from_subdivision", "h_representation", "halfopen",
        "hstar_by_counting", "hstar_closed_via_inclusion_exclusion", "hstar_from_counts",
        "hstar_from_covers", "hstar_half_open", "hstar_half_open_by_counting", "hstar_shelling",
        "hstar_tree", "is_connected", "lattice_counts", "moebius", "necklace_from_bases",
        "necklace_from_decorated", "positroid", "random_subdivision", "shelling_poset",
        "simplex_facets", "simplex_vertices", "tau_order", "tree", "triangulation",
        "validate_necklace", "validate_subdivision", "wall_covers",
    ]

    def test_every_pinned_name_resolves_to_its_definition(self):
        assert sorted(positroid_hstar.__all__) == self.PINNED
        for name in self.PINNED:
            value = getattr(positroid_hstar, name)
            home = sys.modules[f"positroid_hstar.{positroid_hstar._HOME[name]}"]
            assert value is (home if name == home.__name__.rsplit(".", 1)[1]
                             else getattr(home, name)), name

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'hstar'"):
            positroid_hstar.hstar

    def test_readme_library_snippet(self):
        from positroid_hstar import (
            hstar_by_counting, hstar_closed_via_inclusion_exclusion, hstar_half_open,
            hstar_shelling, hstar_tree, validate_necklace, validate_subdivision,
        )

        J = validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
        assert hstar_shelling(J) == (1, 3, 1)
        assert hstar_by_counting(J) == hstar_shelling(J)
        assert hstar_closed_via_inclusion_exclusion(J) == (1, 3, 1)
        assert hstar_half_open(J) == (0, 0, 1, 4)
        tau = validate_subdivision(4, [("black", [1, 2, 3]), ("white", [1, 3, 4])])
        assert hstar_tree(tau) == (1, 1)


PRISM = po.validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
SQUARE_TAU = tr.validate_subdivision(4, [("black", [1, 2, 3]), ("white", [1, 3, 4])])


def build_records():
    """One instance of every record type, built the way the pipelines build them."""
    labels = tg.enumerate_labels(PRISM)
    graph = tg.build_graph(labels)
    poset = tg.shelling_poset(graph, labels[0])
    face_poset = ho.face_poset_of_uppers(PRISM)
    return {
        "GrassmannNecklace": PRISM,
        "PositroidBases": po.bases_from_necklace(PRISM),
        "DecoratedPermutation": po.decorated_from_necklace(PRISM),
        "IntervalInequality": po.h_representation(PRISM).inequalities[0],
        "HRepresentation": po.h_representation(PRISM),
        "EhrhartPolynomial": eh.ehrhart_of_positroid(PRISM),
        "FaceNode": face_poset.top,
        "FacePoset": face_poset,
        "TriangulationGraph": graph,
        "ShellingPoset": poset,
        "AffineLabelingReport": tg.affine_consistency_check(graph, poset),
        "BicoloredSubdivision": SQUARE_TAU,
        "ArcInfo": tr.arcs(SQUARE_TAU)[0],
        "TreePositroid": tr.tree_positroid(SQUARE_TAU),
    }


UNHASHABLE = {"TriangulationGraph", "ShellingPoset", "AffineLabelingReport"}
# the slotted records and their fields, in order
SLOTTED = {
    "GrassmannNecklace": ("n", "subsets"),
    "PositroidBases": ("n", "r", "bases"),
    "DecoratedPermutation": ("perm", "white"),
    "IntervalInequality": ("start", "stop", "bound", "sense", "strict"),
}
PROTOCOL = ("__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__")


class TestRecords:
    @pytest.mark.parametrize("name", sorted(build_records()))
    def test_equal_instances_compare_and_hash_equal(self, name):
        first, second = build_records()[name], build_records()[name]
        assert type(first).__name__ == name
        assert first == second and not first != second
        if name not in UNHASHABLE:  # these hold dicts, as their dataclasses did
            assert hash(first) == hash(second)
        assert repr(first) == repr(second)

    @pytest.mark.parametrize("name", sorted(build_records()))
    def test_fields_cannot_be_assigned(self, name):
        record = build_records()[name]
        field = next(iter(getattr(record, "_fields", None) or type(record).__slots__))
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)

    @pytest.mark.parametrize("name", sorted(build_records()))
    def test_pickle_round_trip(self, name):
        record = build_records()[name]
        assert pickle.loads(pickle.dumps(record)) == record

    def test_necklace_repr_and_facts(self):
        assert repr(po.validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])) == (
            "GrassmannNecklace(n=4, subsets=(frozenset({1, 2}), frozenset({2, 3}), "
            "frozenset({1, 3}), frozenset({1, 4})))")
        copy = pickle.loads(pickle.dumps(PRISM))
        assert copy == PRISM and copy._facts == {}

    def test_validating_records_still_validate(self):
        with pytest.raises(po.NecklaceError):
            po.GrassmannNecklace(2, (frozenset({1}),))
        with pytest.raises(ValueError, match="bad sense"):
            po.IntervalInequality(1, 2, 0, "<")
        with pytest.raises(ValueError, match="white set"):
            po.DecoratedPermutation((2, 1), frozenset({1}))
        with pytest.raises(ValueError, match="does not have size"):
            po.PositroidBases(3, 2, frozenset({0b10}))

    def test_records_of_different_types_differ(self):
        assert po.IntervalInequality(1, 2, 0, "<=") != (1, 2, 0, "<=", False)

        class Left(_Record):
            __slots__ = _fields = ("value",)

            def __init__(self, value):
                object.__setattr__(self, "value", value)

        class Right(Left):
            __slots__ = ()

        assert Left(1) == Left(1) and Left(1) != Right(1) and Right(1) != Left(1)

    def test_reprs_are_pinned(self):
        records = [po.PositroidBases(2, 2, frozenset({0b110})),
                   po.DecoratedPermutation((2, 1, 3), frozenset({3})),
                   po.IntervalInequality(3, 1, 2, ">=", True),
                   eh.EhrhartPolynomial((1, 1), 3)]
        assert [repr(r) for r in records] == [
            "PositroidBases(n=2, r=2, bases=frozenset({6}))",
            "DecoratedPermutation(perm=(2, 1, 3), white=frozenset({3}))",
            "IntervalInequality(start=3, stop=1, bound=2, sense='>=', strict=True)",
            "EhrhartPolynomial(hstar=(1, 1), dim=3)",
        ]

    def test_frozenset_members_print_in_increasing_order(self):
        masks = [66, 34, 6, 10, 12, 18, 20]
        assert {repr(po.PositroidBases(7, 2, order))
                for order in itertools.permutations(masks)} == {
            "PositroidBases(n=7, r=2, bases=frozenset({6, 10, 12, 18, 20, 34, 66}))"}
        u28 = po.necklace_from_decorated(po.DecoratedPermutation((3, 4, 5, 6, 7, 8, 1, 2)))
        assert "frozenset({7, 8}), frozenset({1, 8})))" in repr(u28)
        assert repr(po.DecoratedPermutation((1,))) == (
            "DecoratedPermutation(perm=(1,), white=frozenset())")

    @pytest.mark.parametrize("name", sorted(SLOTTED))
    def test_a_record_hashes_as_the_tuple_of_its_fields(self, name):
        record = build_records()[name]
        assert hash(record) == hash(tuple(getattr(record, f) for f in SLOTTED[name]))

    def test_only_the_record_base_writes_the_protocol(self):
        from positroid_hstar import core

        assert not hasattr(core, "_frozen")
        slotted = []
        for module in pkgutil.iter_modules(positroid_hstar.__path__):
            home = importlib.import_module(f"positroid_hstar.{module.name}")
            for cls in vars(home).values():
                if (isinstance(cls, type) and cls.__module__ == home.__name__
                        and cls is not core._Record and vars(cls).get("__slots__")):
                    slotted.append(cls.__name__)
                    assert not set(PROTOCOL) & set(vars(cls)), cls.__name__
        assert sorted(slotted) == sorted(SLOTTED)
