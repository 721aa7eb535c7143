import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from positroid_hstar import cli
from positroid_hstar import ehrhart as eh
from positroid_hstar import halfopen as ho
from positroid_hstar import positroid as po
from positroid_hstar import tree as tr
from positroid_hstar import triangulation as tg
from positroid_hstar import verify

from conftest import forget_words


SQUARE = ('{"n":4,"cells":[{"color":"black","vertices":[1,2,3]},'
          '{"color":"white","vertices":[1,3,4]}]}')


def one_more_point_in_the_square(monkeypatch):
    """Count one point too many in the closed body of each summand U(1,2) of
    the square U(1,2) + U(1,2).  The oracle counts a segment's interior at
    t = 1 (empty) and t = 2, and its closed body at t = 0 alone, so E(0) = 2
    gives h*_0 = 2 against the interior's 1.  A segment's plan has its two
    coordinates, the square's four, and no interior runs at t = 0."""
    tally = eh._run

    def one_more(plan, t):
        histogram = tally(plan, t)
        return {0: histogram[0] + 1} if t == 0 and plan[0] == 2 else histogram

    monkeypatch.setattr(eh, "_run", one_more)


SQUARE_COUNTING_BUG = ("h*_0 = 2 by the body's counts but 1 by the reciprocal body's: "
                       "counting bug")


def keep_a_redundant_facet_row(monkeypatch):
    """Keep x_1 + x_2 >= 0, which holds on every polytope but is a facet of
    none with n >= 3, among the closure's facets."""
    facets = po.facet_representation

    def with_redundant_row(necklace):
        hrep = facets(necklace)
        if necklace.n < 3:
            return hrep
        return hrep._replace(inequalities=tuple(sorted(
            (*hrep.inequalities, po.IntervalInequality(1, 3, 0, ">=")),
            key=lambda q: (q.start, q.stop, q.bound, q.sense == "<="))))

    monkeypatch.setattr(po, "facet_representation", with_redundant_row)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestParsing:
    def test_compact_necklace(self):
        kind, value = cli.parse_input("12,23,13,14")
        assert kind == "necklace" and value.rank == 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_compact_form_round_trips(self, n):
        # every decorated permutation, rank 0 included: an empty J_i is "-"
        for dec in cli.all_decorated_permutations(n):
            necklace = po.necklace_from_decorated(dec)
            assert cli.parse_compact_necklace(necklace.compact()) == necklace, dec

    def test_rank_zero_compact_form_verifies(self, capsys):
        necklace = po.validate_necklace([[], [], []])
        assert necklace.compact() == "-,-,-"
        assert run(capsys, "verify", f"--input={necklace.compact()}") == (
            0, "PASS  disconnected input oracle h*  [1]\n1/1 checks passed\n", "")

    def test_an_input_starting_with_a_dash_reads_as_an_option(self, capsys):
        # argparse takes "-,-,-" for an option; options first and then "--"
        # pass it as the input
        with pytest.raises(SystemExit) as stop:
            cli.main(["hstar", "-,-,-"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: -,-,-\n")
        assert run(capsys, "hstar", "--", "-,-,-") == (
            3, "", "error: method shelling needs a connected positroid; split with "
                   "decompose_direct_sum and multiply Ehrhart factors\n")
        report = run_json(capsys, "hstar", "--method", "oracle", "--", "-,-,-")
        assert report["hstar"] == {"oracle": [1]} and report["rank"] == 0
        assert report["components"] == [[1], [2], [3]]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank_zero_compact_forms_pass_the_command_line(self, capsys, n):
        # a leading "-" reads as an option: "--" ends them, or "--input=" binds it
        compact = ",".join("-" * n)
        report = run_json(capsys, "convert", "--", compact)
        necklace = po.validate_necklace(report["necklace"])
        assert necklace.rank == 0 and necklace.compact() == compact
        assert run(capsys, "verify", f"--input={compact}")[0] == 0

    @pytest.mark.parametrize("text, entry", [
        ("12,23,,13,14", 3), ("12,23,13,14,", 5), (",12,23,13,14", 1), ("12, ,23,13,14", 2),
        (",,", 1),
    ])
    def test_an_empty_entry_is_named(self, capsys, text, entry):
        # "-" is the one way to write an empty J_i, so an empty entry is not dropped
        assert run(capsys, "convert", "--", text) == (
            2, "", f'error: necklace entry {entry} is empty; write an empty J_i as "-"\n')

    @pytest.mark.parametrize("text, entry", [("١٢,٢٣,١٣,١٤", "١٢"), ("1²,23", "1²")])
    def test_only_ascii_digits_are_digits(self, capsys, text, entry):
        # str.isdigit admits Arabic-Indic digits and superscripts; a label is 0-9
        assert run(capsys, "convert", "--", text) == (
            2, "", f"error: necklace entry {entry!r} is not a digit string\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("1²,23")
    def test_compact_text_gives_a_necklace_or_an_input_error(self, text):
        try:
            necklace = cli.parse_compact_necklace(text)
        except cli.InputError:
            return
        assert isinstance(necklace, po.GrassmannNecklace)

    @pytest.mark.parametrize("text", [" 12,23,13,14 ", "12 , 23,13 ,14", "12,23,13,14\n",
                                      "\t12,23,13,14\n\n"])
    def test_whitespace_around_entries_is_accepted(self, text):
        assert cli.parse_compact_necklace(text).compact() == "12,23,13,14"

    def test_a_final_newline_from_a_file_or_stdin_is_accepted(self, capsys, monkeypatch,
                                                              tmp_path):
        path = tmp_path / "necklace.txt"
        path.write_text("12,23,13,14\n")
        pyramid = [[1, 2], [2, 3], [1, 3], [1, 4]]
        assert run_json(capsys, "convert", str(path))["necklace"] == pyramid
        monkeypatch.setattr(sys, "stdin", io.StringIO("12,23,13,14\n"))
        assert run_json(capsys, "convert", "-")["necklace"] == pyramid

    def test_json_necklace(self):
        kind, value = cli.parse_input('{"n": 4, "necklace": [[1,2],[2,3],[1,3],[1,4]]}')
        assert kind == "necklace" and value.n == 4

    def test_json_decorated(self):
        kind, value = cli.parse_input('{"pi": [3,1,4,2], "colors": {}}')
        assert kind == "decorated" and value.perm == (3, 1, 4, 2)

    def test_json_bases(self):
        kind, value = cli.parse_input(
            '{"n": 4, "bases": [[1,2],[1,3],[1,4],[2,3],[2,4]]}')
        assert kind == "bases" and len(value.bases) == 5

    def test_json_subdivision(self):
        doc = ('{"n": 4, "cells": [{"color": "black", "vertices": [1,2,3]},'
               ' {"color": "white", "vertices": [1,3,4]}]}')
        kind, value = cli.parse_input(doc)
        assert kind == "subdivision" and value.type_count == 1

    def test_malformed_rejected(self):
        with pytest.raises(cli.InputError):
            cli.parse_input("1 2 2")
        with pytest.raises(cli.InputError):
            cli.parse_input('{"unknown": 1}')
        with pytest.raises(cli.InputError):
            cli.parse_input('{"pi": [2,1,3], "colors": {}}')  # missing color for 3

    def test_non_object_colors_are_an_input_error(self, capsys):
        with pytest.raises(cli.InputError, match="colors"):
            cli.parse_input('{"pi": [2,1], "colors": []}')
        code, _, err = run(capsys, "hstar", '{"pi": [2,1], "colors": []}')
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("key", ["01", "+1"])
    def test_color_keys_must_be_plain_decimal(self, capsys, key):
        # "01" and "+1" would otherwise name fixed point 1 a second time
        doc = f'{{"pi": [1], "colors": {{"1": "black", "{key}": "white"}}}}'
        message = f'colors: key "{key}" is not a fixed point in plain decimal'
        with pytest.raises(cli.InputError) as exc:
            cli.parse_input(doc)
        assert str(exc.value) == message
        assert run(capsys, "convert", doc) == (2, "", f"error: {message}\n")

    def test_declared_n_is_kept_next_to_bases(self):
        bases = "[[1,2],[1,3],[1,4],[2,3],[2,4]]"
        assert cli.parse_input(f'{{"n": 5, "bases": {bases}}}')[1].n == 5
        with pytest.raises(cli.InputError, match=r"outside 1\.\.0"):
            cli.parse_input(f'{{"n": 0, "bases": {bases}}}')

    def test_declared_n_is_checked_next_to_pi(self, capsys):
        assert cli.parse_input('{"pi": [2,1], "n": 2}')[1].n == 2
        assert run(capsys, "convert", '{"pi": [2,1], "n": 7}') == (
            2, "", "error: pi: expected 7 entries, got 2\n")

    @pytest.mark.parametrize("doc,field,shown", [
        ('{"bases": [[1,2]], "n": 4.0}', "n", "4.0"),
        ('{"bases": [[1,2]], "n": 1e3}', "n", "1000.0"),
        ('{"bases": [[true,2]]}', "bases", "true"),
        ('{"bases": [[1.0,2]]}', "bases", "1.0"),
        ('{"necklace": [[1,2],[2,3],[1,3],[1,4]], "n": 4.0}', "n", "4.0"),
        ('{"necklace": [[true,2],[2,3],[1,3],[1,4]]}', "necklace", "true"),
        ('{"necklace": [["1",2],[2,3],[1,3],[1,4]]}', "necklace", '"1"'),
        ('{"pi": [3,1,4,2.0]}', "pi", "2.0"),
        ('{"pi": [3,true,4,2]}', "pi", "true"),
        ('{"n": 4, "cells": [{"color": "black", "vertices": [1,2,3.0]}]}', "vertices", "3.0"),
        ('{"n": 4, "cells": [{"color": "black", "vertices": [true,2,3]}]}', "vertices", "true"),
    ])
    def test_non_integer_numbers_are_input_errors(self, capsys, doc, field, shown):
        with pytest.raises(cli.InputError, match=f"^{field}: expected an integer, got {shown}$"):
            cli.parse_input(doc)
        code, out, err = run(capsys, "convert", doc)
        assert code == 2 and out == ""
        assert err == f"error: {field}: expected an integer, got {shown}\n"

    @pytest.mark.parametrize("doc,keys", [
        ('{"necklace": [[1],[2]], "pi": [1,2,3]}', "necklace, pi"),
        ('{"cells": [], "bases": [[1]], "pi": [1], "n": 1}', "pi, bases, cells"),
    ])
    def test_more_than_one_representation_is_an_input_error(self, capsys, doc, keys):
        message = f"JSON object has more than one of the keys: {keys}"
        with pytest.raises(cli.InputError, match=f"^{message}$"):
            cli.parse_input(doc)
        assert run(capsys, "convert", doc) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, doc, message", [
        ("convert", '{"bases": [[]]}', 'bases: the only basis is empty, so "n" must be given'),
        ("convert", '{"cells": []}', 'cells: a subdivision needs "n"'),
        ("tree", '{"n": 4, "cells": [{"colour": "black"}]}',
         'cells: each cell needs a "color" and "vertices"'),
        ("tree", '{"n": 4, "cells": "abc"}', 'cells: expected a list, got "abc"'),
        ("convert", '{"pi": 5}', "pi: expected a list, got 5"),
        ("convert", '{"necklace": [1, 2]}', "necklace: expected a list, got 1"),
        ("convert", '{"bases": [1, 2]}', "bases: expected a list, got 1"),
        ("tree", '{"n": 4, "cells": [3]}', 'cells: each cell needs a "color" and "vertices"'),
    ])
    def test_json_shape_errors_name_their_field(self, capsys, command, doc, message):
        assert run(capsys, command, doc) == (2, "", f"error: {message}\n")

    def test_an_empty_bases_list_is_named(self, capsys):
        assert run(capsys, "convert", '{"bases": []}') == (
            2, "", "error: bases: expected at least one basis, got []\n")

    @pytest.mark.parametrize("doc, message", [
        ('{"bases": [[0, 1], [1, 2]]}', "basis [0, 1] has elements outside 1..2"),
        ('{"n": 3, "bases": [[1, -2]]}', "basis [-2, 1] has elements outside 1..3"),
        ('{"n": 3, "bases": [[1, 4]]}', "basis [1, 4] has elements outside 1..3"),
        ('{"bases": [[1, 2], [3]]}', "bases must all have the same size"),
        ('{"bases": []}', "bases: expected at least one basis, got []"),
        ('{"bases": [[1, 2], [3, 4]]}', "basis set fails the exchange axiom"),
        ('{"bases": [[1, 2], [1, 4], [2, 3], [3, 4]]}',
         "basis set is a matroid but not a positroid (its necklace generates a strictly "
         "larger one)"),
        ('{"n": 0, "bases": [[]]}', "ground set must be nonempty"),
        ('{"n": -1, "bases": [[]]}', "ground set must be nonempty"),
    ], ids=["zero", "negative", "above n", "unequal sizes", "empty", "non-matroid",
            "non-positroid", "n is 0", "negative n"])
    def test_bases_input_errors_are_pinned(self, capsys, doc, message):
        assert run(capsys, "convert", doc) == (2, "", f"error: {message}\n")

    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries(
        {"bases": st.lists(st.lists(st.integers(-2, 8), max_size=6), max_size=8)},
        optional={"n": st.integers(-2, 6)}))
    def test_any_bases_document_converts_or_is_an_input_error(self, doc):
        # an exception other than an input error would escape main as a traceback
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["convert", json.dumps(doc)])
        outcome = code, bool(out.getvalue()), err.getvalue()[:7]
        assert outcome in [(0, True, ""), (2, False, "error: ")], err.getvalue()

    def test_the_exchange_scan_runs_only_to_name_a_failed_round_trip(self, capsys, monkeypatch):
        scanned = []
        scan = po.is_matroid
        monkeypatch.setattr(po, "is_matroid", lambda bases: scanned.append(bases) or scan(bases))
        uniform24 = '{"bases": [[1,2],[1,3],[1,4],[2,3],[2,4],[3,4]]}'
        assert run_json(capsys, "convert", uniform24)["necklace"] == [
            [1, 2], [2, 3], [3, 4], [1, 4]]
        assert run_json(capsys, "hstar", uniform24, "--method", "oracle")["hstar"] == {
            "oracle": [1, 2, 1]}
        assert scanned == []
        assert run(capsys, "convert", '{"bases": [[1,2],[3,4]]}') == (
            2, "", "error: basis set fails the exchange axiom\n")
        # U(1,{1,3}) + U(1,{2,4}): a matroid, but the crossing split is no positroid
        assert run(capsys, "convert", '{"bases": [[1,2],[1,4],[2,3],[3,4]]}') == (
            2, "", "error: basis set is a matroid but not a positroid "
                   "(its necklace generates a strictly larger one)\n")
        assert len(scanned) == 2

    def test_input_flag_belongs_to_verify_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["hstar", "--input", "12,23,13,14"])
        assert exc.value.code == 2 and "--input" in capsys.readouterr().err


class TestConvert:
    def test_necklace_to_all(self, capsys):
        report = run_json(capsys, "convert", "12,23,13,14")
        assert report["decorated"]["pi"] == [3, 1, 4, 2]
        assert report["bases"] == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]
        assert report["connected"] is True

    def test_disconnected_reports_components(self, capsys):
        report = run_json(capsys, "convert", '{"pi": [2,1,4,3], "colors": {}}')
        assert report["connected"] is False
        assert report["components"] == [[1, 2], [3, 4]]

    def test_malformed_exits_2(self, capsys):
        code, _, err = run(capsys, "convert", "1 2 2")
        assert code == 2 and "error" in err


class TestHstar:
    def test_all_methods_agree(self, capsys):
        report = run_json(capsys, "hstar", "124,234,134,145,125", "--method", "all")
        assert report["hstar"] == {"shelling": [1, 3, 1],
                                   "inclusion-exclusion": [1, 3, 1],
                                   "oracle": [1, 3, 1]}
        assert report["verdict"] == "PASS"
        assert report["num_simplices"] == 5

    def test_shelling_default(self, capsys):
        report = run_json(capsys, "hstar", "123,235,345,145,125")
        assert report["hstar"]["shelling"] == [1, 4, 3]

    def test_half_open_descents(self, capsys):
        report = run_json(capsys, "hstar", "12,23,13,14", "--half-open",
                          "--method", "descents")
        assert report["hstar"]["descents"] == [0, 0, 2]

    def test_half_open_defaults_to_descents(self, capsys):
        default = run(capsys, "hstar", "12,23,13,14", "--half-open")
        assert default == run(capsys, "hstar", "12,23,13,14", "--half-open",
                              "--method", "descents")
        assert default[0] == 0 and json.loads(default[1])["hstar"] == {"descents": [0, 0, 2]}

    def test_explicit_shelling_with_half_open_rejected(self, capsys):
        assert run(capsys, "hstar", "12,23,13,14", "--half-open", "--method", "shelling") == (
            2, "", "error: method shelling does not apply to half-open polytopes; "
                   "use descents or oracle\n")

    def test_descents_without_half_open_rejected(self, capsys):
        code, _, err = run(capsys, "hstar", "12,23,13,14", "--method", "descents")
        assert code == 2 and "half-open" in err

    def test_disconnected_connected_only_method_exits_3(self, capsys):
        assert run(capsys, "hstar", '{"pi": [2,1,4,3], "colors": {}}', "--method", "shelling") == (
            3, "", "error: method shelling needs a connected positroid; split with "
                   "decompose_direct_sum and multiply Ehrhart factors\n")

    @pytest.mark.parametrize("method", ["all", "shelling"])
    def test_disconnected_w0_with_the_shelling_route_exits_3(self, capsys, method):
        # --w0 is checked against the methods asked for, so a disconnected
        # `all` is not first narrowed to the oracle
        assert run(capsys, "hstar", "13,23,13,14", "--method", method, "--w0", "1234") == (
            3, "", f"error: method {method} needs a connected positroid; split with "
                   "decompose_direct_sum and multiply Ehrhart factors\n")

    def test_disconnected_half_open_exits_3(self, capsys):
        assert run(capsys, "hstar", '{"pi": [2,1,4,3], "colors": {}}', "--half-open") == (
            3, "", "error: half-open h* needs a connected positroid; split with "
                   "decompose_direct_sum\n")

    @pytest.mark.parametrize("method", ["oracle", "descents", "all"])
    def test_half_open_point_exits_2(self, capsys, method):
        # a point has no projection to chop facets from, by any route
        assert run(capsys, "hstar", "1", "--half-open", "--method", method) == (
            2, "", "error: half-open form needs n >= 2\n")

    def test_a_wrong_count_of_a_disconnected_input_exits_1(self, capsys, monkeypatch):
        # one error line, no traceback
        one_more_point_in_the_square(monkeypatch)
        assert run(capsys, "hstar", "13,23,13,14", "--method", "oracle") == (
            1, "", f"error: {SQUARE_COUNTING_BUG}\n")

    def test_disconnected_oracle_works(self, capsys):
        report = run_json(capsys, "hstar", '{"pi": [2,1,4,3], "colors": {}}',
                          "--method", "oracle")
        assert report["hstar"]["oracle"] == [1, 1]
        assert report["components"] == [[1, 2], [3, 4]]

    def test_w0_is_checked_with_a_single_label(self, capsys):
        code, out, err = run(capsys, "hstar", "1,2,3", "--w0", "999")
        assert (code, out) == (2, "")
        assert err == "error: (9, 9, 9) is not a label of the graph\n"
        assert run_json(capsys, "hstar", "1,2,3", "--w0", "123")["hstar"] == {"shelling": [1]}

    @pytest.mark.parametrize("argv", [
        ("12,23,13,14", "--half-open"),
        ("12,23,13,14", "--method", "oracle"),
        ("12,23,13,14", "--method", "inclusion-exclusion"),
        ('{"pi": [2,1,4,3], "colors": {}}', "--method", "oracle"),
        ('{"pi": [2,1,4,3], "colors": {}}', "--half-open"),
    ])
    def test_w0_without_the_shelling_route_is_an_input_error(self, capsys, argv):
        assert run(capsys, "hstar", *argv, "--w0", "999") == (
            2, "", "error: --w0 applies only to the shelling method\n")

    @pytest.mark.parametrize("command", ["hstar", "triangulate", "tree"])
    @pytest.mark.parametrize("w0", ["x", "1,,2", ""])
    def test_malformed_w0_is_named(self, capsys, command, w0):
        value = SQUARE if command == "tree" else "12,23,34,45,15"
        assert run(capsys, command, value, "--w0", w0) == (
            2, "", f'error: --w0: expected a word of integers, got "{w0}"\n')

    def test_w0_choice_does_not_change_hstar(self, capsys):
        a = run_json(capsys, "hstar", "12,23,34,45,15", "--w0", "31425")
        b = run_json(capsys, "hstar", "12,23,34,45,15", "--w0", "14235")
        assert a["hstar"] == b["hstar"] == {"shelling": [1, 5, 5]}


class TestEhrhart:
    def test_pyramid(self, capsys):
        report = run_json(capsys, "ehrhart", "12,23,13,14", "--tmax", "3")
        assert report["counts"] == [1, 5, 14, 30]
        assert report["ehrhart"] == ["1", "13/6", "3/2", "1/3"]
        assert report["hstar"] == [1, 1]

    def test_negative_tmax_is_an_input_error(self, capsys):
        assert run(capsys, "ehrhart", "12,23,34,45,15", "--tmax", "-1") == (
            2, "", "error: --tmax must be nonnegative\n")


class TestTriangulate:
    def test_rank3_graph(self, capsys):
        report = run_json(capsys, "triangulate", "124,234,134,145,125", "--w0", "24135")
        assert report["num_simplices"] == 5
        assert len(report["edges"]) == 5
        assert report["covers"]["34215"] == 2
        assert report["affine_consistent"] is True
        assert report["hstar"] == [1, 3, 1]

    def test_uniform_windows(self, capsys):
        report = run_json(capsys, "triangulate", "12,23,34,45,15", "--w0", "31425")
        assert report["windows"]["14235"] == [0, 2, 3, 4, 6]


class TestTree:
    def test_pentagon(self, capsys):
        doc = ('{"n": 5, "cells": [{"color": "black", "vertices": [1,2,3]},'
               ' {"color": "white", "vertices": [1,3,4]},'
               ' {"color": "black", "vertices": [1,4,5]}]}')
        report = run_json(capsys, "tree", doc)
        assert report["rank"] == 3
        assert report["extensions"] == ["24135", "32415", "34215", "41325", "42135"]
        assert report["hstar"] == [1, 3, 1]

    def test_wrong_kind_rejected(self, capsys):
        code, _, err = run(capsys, "tree", "12,23,13,14")
        assert code == 2

    def test_shelling_routes_build_no_dual_graph(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dual graph is verify's reference only")

        monkeypatch.setattr(tg, "build_graph", refuse)
        monkeypatch.setattr(tg, "shelling_poset", refuse)
        assert run_json(capsys, "hstar", "12,23,34,45,15")["hstar"] == {"shelling": [1, 5, 5]}
        doc = ('{"n":5,"cells":[{"color":"black","vertices":[1,2,3]},'
               '{"color":"white","vertices":[1,3,4]},{"color":"black","vertices":[1,4,5]}]}')
        assert run_json(capsys, "tree", doc, "--w0", "41325")["hstar"] == [1, 3, 1]
        assert cli.poly_ints(tr.hstar_tree(cli.parse_input(doc)[1])) == [1, 3, 1]
        assert not {"build_graph", "shelling_poset", "hstar_from_covers"} & set(vars(tr))


class TestAtlas:
    def test_rank2_n4_connected(self, capsys):
        code, out, _ = run(capsys, "atlas", "--n", "4", "--rank", "2",
                           "--connected-only")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 5  # the five connected rank-2 positroids on [4]
        pyramid = next(r for r in rows if r["pi"] == [3, 1, 4, 2])
        assert pyramid["hstar"]["shelling"] == [1, 1]
        assert all(r["verdict"] == "PASS" for r in rows)

    def test_rank1_n3(self, capsys):
        code, out, _ = run(capsys, "atlas", "--n", "3", "--rank", "1",
                           "--connected-only")
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["hstar"]["shelling"] for r in rows] == [[1]]

    def test_rank2_n5_contains_uniform(self, capsys):
        code, out, _ = run(capsys, "atlas", "--n", "5", "--rank", "2",
                           "--connected-only")
        rows = [json.loads(line) for line in out.splitlines()]
        hstars = {tuple(r["hstar"]["shelling"]) for r in rows}
        assert (1, 5, 5) in hstars

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_is_named(self, capsys, n):
        assert run(capsys, "atlas", "--n", n) == (2, "", "error: --n must be positive\n")

    @pytest.mark.parametrize("rank", ["4", "-1"])
    def test_rank_outside_0_to_n_exits_2(self, capsys, rank):
        assert run(capsys, "atlas", "--n", "3", "--rank", rank) == (
            2, "", f"error: --rank must be between 0 and 3, got {rank}\n")

    @pytest.mark.parametrize("rank", ["0", "3"])
    def test_ranks_0_and_n_hold_one_positroid(self, capsys, rank):
        code, out, _ = run(capsys, "atlas", "--n", "3", "--rank", rank)
        assert code == 0 and len(out.splitlines()) == 1

    def test_cap_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "5")
        code, _, err = run(capsys, "atlas", "--n", "6")
        assert code == 2 and "cap" in err

    def test_non_integer_cap_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "abc")
        for argv in (("atlas", "--n", "4"), ("verify", "--scope", "roundtrip")):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error:") and "POSITROID_MAX_N" in err
        assert run_json(capsys, "hstar", "12,23,13,14")["hstar"] == {"shelling": [1, 1]}

    def test_jobs_do_not_change_output(self, capsys):
        _, seq, _ = run(capsys, "atlas", "--n", "4", "--format", "csv")
        _, par, _ = run(capsys, "atlas", "--n", "4", "--format", "csv", "--jobs", "2")
        assert seq == par

    @pytest.mark.parametrize("argv,digest", [
        (("atlas", "--n", "5"),
         "405a2facb114fa3d2f905d41f112c0c2eb69fa8fd91bc3e93b7af5bc55102d6e"),
        (("atlas", "--n", "5", "--connected-only"),
         "1a55b77482a7ac3d43eafa671629e8410f5eab0b86d07820143754a18f4da37c"),
        (("atlas", "--n", "5", "--format", "csv"),
         "dbb6845da11c4841ad927c2f1da61e8427f4a40e9b3c31ff3362f404864ee675"),
    ])
    def test_atlas_bytes_are_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_connected_only_computes_only_the_rows_it_prints(self, capsys, monkeypatch):
        calls = []
        row = verify._atlas_row

        def spy(dec):
            calls.append(dec)
            return row(dec)

        monkeypatch.setattr(verify, "_atlas_row", spy)
        code, out, _ = run(capsys, "atlas", "--n", "5", "--connected-only")
        printed = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(calls) == len(printed) > 0
        assert [list(dec.perm) for dec in calls] == [r["pi"] for r in printed]

    def test_csv_necklaces_parse_back(self, capsys):
        rows = [json.loads(line) for line in run(capsys, "atlas", "--n", "5")[1].splitlines()]
        table = run(capsys, "atlas", "--n", "5", "--format", "csv")[1]
        texts = [r["necklace"] for r in csv.DictReader(io.StringIO(table))]
        assert len(texts) == len(rows) and "-,-,-,-,-" in texts
        for text, row in zip(texts, rows):
            kind, necklace = cli.parse_input(text)
            assert [sorted(s) for s in necklace.subsets] == row["necklace"]

    def test_csv_past_nine_elements_exits_2_before_the_sweep(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setenv("POSITROID_MAX_N", "10")
        monkeypatch.setattr(verify, "all_decorated_permutations", refuse)
        assert run(capsys, "atlas", "--n", "10", "--format", "csv") == (
            2, "", "error: --format csv writes compact necklaces, which need --n <= 9, "
                   "got 10\n")


class TestRunAtlasScript:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_atlas.py"
    HISTOGRAM = "\nh* distribution over connected instances:\n  [1, 1]: 4\n  [1, 2, 1]: 1\n"

    def script(self, *argv):
        result = subprocess.run([sys.executable, str(self.SCRIPT), *argv],
                                capture_output=True, text=True, timeout=120)
        return result.returncode, result.stdout, result.stderr

    def test_csv_on_stdout_and_the_histogram_on_stderr(self, tmp_path):
        code, out, err = self.script("--n", "4", "--rank", "2")
        assert (code, err) == (0, self.HISTOGRAM)
        assert out.splitlines()[0].startswith("pi,white,necklace,n,rank,connected,")
        assert len(out.splitlines()) == 6
        assert self.script("--n", "4", "--rank", "2", "--out", str(tmp_path / "a.csv")) == (
            0, "", self.HISTOGRAM)
        assert (tmp_path / "a.csv").read_text(encoding="utf-8") == out

    def test_unwritable_out_exits_2_before_the_sweep(self, tmp_path):
        path = tmp_path / "missing" / "a.csv"
        assert self.script("--n", "4", "--out", str(path)) == (
            2, "", f"error: --out: cannot write {path}: No such file or directory\n")


class TestVerify:
    def test_golden_scope_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "golden")
        assert code == 0
        assert "FAIL" not in out

    GOLDEN_STDOUT = (
        "PASS  pyramid bases                      necklace 12,23,13,14",
        "PASS  pyramid labels                   ",
        "PASS  pyramid h* closed                  1+z",
        "PASS  pyramid h* half-open               2z^2",
        "PASS  pyramid upper facets               x_1 <= 1; x_1+x_2+x_3 <= 2; x_2 <= 1",
        "PASS  pyramid Moebius                    {3: [1], 2: [-1, -1, -1], 1: [1, 1], 0: [0]}",
        "PASS  rank-3 wheel cover multiset        1+4z+3z^2",
        "PASS  rank-2 uniform graph               11 labels, 15 edges",
        "PASS  rank-2 uniform h*                  1+5z+5z^2",
        "PASS  rank-2 uniform half-open           10z^2+z^3",
        "PASS  affine windows                     base 31425; 14235 -> [0,2,3,4,6]",
        "PASS  rank-3 five-simplex labels         24135 32415 34215 41325 42135",
        "PASS  rank-3 five-simplex edges          5 edges",
        "PASS  rank-3 five-simplex covers         cover(34215) = 2",
        "PASS  rank-3 five-simplex h*             1+3z+z^2",
        "PASS  rank-3 five-simplex half-open      z^2+4z^3",
        "PASS  rank-3 five-simplex uppers         "
        "x_1 <= 1; x_1+x_2+x_3 <= 2; x_2 <= 1; x_4 <= 1",
        "PASS  prism facet h*                     1+2z",
        "PASS  prism facet Ehrhart                C(t+2,2)(1+t)",
        "PASS  square face h*                     1+z",
        "PASS  rank-3 five-simplex Moebius        "
        "{0: [0], 1: [-1, -1, 0], 2: [1, 1, 1, 1, 1], 3: [-1, -1, -1, -1], 4: [1]}",
        "PASS  circuit of 32415                   135->235->245->124->125",
        "PASS  vertices of 32415 simplex        ",
        "PASS  facets of projected 32415 simplex",
        "PASS  square subdivision                 chains (3,2,1), (1,3,4)",
        "PASS  pentagon subdivision               1+3z+z^2",
        "PASS  square arcs                        1->3 facet-defining, 2->4 not compatible",
        "PASS  pyramid decorated permutation      3142",
        "PASS  direct sum split                   U(1,2) + U(1,2); product h* = 1+z",
        "29/29 checks passed",
    )

    def test_golden_stdout_is_pinned(self, capsys):
        code, out, err = run(capsys, "verify", "--scope", "golden")
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in self.GOLDEN_STDOUT)
        assert len(out.encode()) == 1755

    def test_a_failing_golden_row_shows_expected_and_got(self, capsys, monkeypatch):
        # a half-open oracle one point off at the prism's top degree fails
        # that row alone, and its line shows both values
        oracle = ho.hstar_half_open_by_counting

        def off_on_the_prism(necklace):
            h = oracle(necklace)
            return h[:-1] + (h[-1] + 1,) if necklace.compact() == "124,234,134,145,125" else h

        monkeypatch.setattr(ho, "hstar_half_open_by_counting", off_on_the_prism)
        names = [name for name, _, _ in verify.verify_golden()]
        assert len(set(names)) == len(names) == 29
        code, out, err = run(capsys, "verify", "--scope", "golden")
        assert (code, err) == (1, "")
        failing = ("FAIL  rank-3 five-simplex half-open      expected "
                   "{'descents': [0, 0, 1, 4], 'oracle': [0, 0, 1, 4]}, "
                   "got {'descents': [0, 0, 1, 4], 'oracle': [0, 0, 1, 5]}")
        lines, pinned = out.splitlines(), list(self.GOLDEN_STDOUT)
        k = pinned.index("PASS  rank-3 five-simplex half-open      z^2+4z^3")
        assert lines[k] == failing
        assert lines[:k] + lines[k + 1:-2] == pinned[:k] + pinned[k + 1:-1]
        assert lines[-2:] == ["28/29 checks passed", "first failure: " + json.dumps(
            {"detail": failing.split("      ", 1)[1], "name": "rank-3 five-simplex half-open"})]

    def test_a_wrong_count_of_a_disconnected_input_fails(self, capsys, monkeypatch):
        one_more_point_in_the_square(monkeypatch)
        detail = SQUARE_COUNTING_BUG
        assert run(capsys, "verify", "--input", "13,23,13,14") == (1, (
            f"FAIL  counting check  {detail}\n0/1 checks passed\n"
            f'first failure: {{"detail": "{detail}", "name": "counting check"}}\n'), "")

    def test_a_disconnected_oracle_off_its_components_product_fails(self, capsys, monkeypatch):
        # the oracle of the square, the product of its segments', must equal
        # the count of its necklace inequalities: a wrong product fails
        monkeypatch.setattr(eh, "ehrhart_product", lambda factors: eh.EhrhartPolynomial((1,), 2))
        code, out, err = run(capsys, "verify", "--input", "13,23,13,14")
        assert (code, err) == (1, "")
        assert out.startswith("FAIL  disconnected input oracle h*  [1]\n")

    ROUNDTRIP = ("necklace/decorated round trips n <= 4            88 decorated permutations",
                 "rank-split vs interval-free connectivity n <= 4  88 decorated permutations",
                 "closure vs bases facets n <= 4                   {} connected positroids")

    def test_a_broken_round_trip_fails(self, capsys, monkeypatch):
        # recolouring the fixed point of the coloop breaks its round trip alone
        decorate = po.decorated_from_necklace

        def recolour(necklace):
            dec = decorate(necklace)
            if dec.perm == (1,) and not dec.white:
                return po.DecoratedPermutation((1,), frozenset({1}))
            return dec

        monkeypatch.setattr(po, "decorated_from_necklace", recolour)
        code, out, err = run(capsys, "verify", "--scope", "roundtrip", "--max-n", "4")
        assert (code, err) == (1, "")
        # the facets are compared on the connected positroids whose round trip holds
        assert out.splitlines()[:4] == ["FAIL  " + self.ROUNDTRIP[0], "PASS  " + self.ROUNDTRIP[1],
                                        "PASS  " + self.ROUNDTRIP[2].format(11),
                                        "2/3 checks passed"]

    def test_a_wrong_connectivity_answer_fails(self, capsys, monkeypatch):
        connected = po.necklace_connected
        monkeypatch.setattr(po, "necklace_connected", lambda necklace: (
            connected(necklace) != (necklace.compact() == "12,23,13,14")))
        code, out, err = run(capsys, "verify", "--scope", "roundtrip", "--max-n", "4")
        assert (code, err) == (1, "")
        # and on those whose two connectivity answers agree
        assert out.splitlines()[:4] == ["PASS  " + self.ROUNDTRIP[0], "FAIL  " + self.ROUNDTRIP[1],
                                        "PASS  " + self.ROUNDTRIP[2].format(11),
                                        "2/3 checks passed"]

    def test_a_redundant_facet_row_fails(self, capsys, monkeypatch):
        keep_a_redundant_facet_row(monkeypatch)
        code, out, err = run(capsys, "verify", "--scope", "roundtrip", "--max-n", "4")
        assert (code, err) == (1, "")
        assert out.splitlines()[:4] == ["PASS  " + self.ROUNDTRIP[0], "PASS  " + self.ROUNDTRIP[1],
                                        "FAIL  " + self.ROUNDTRIP[2].format(12),
                                        "2/3 checks passed"]

    def test_single_input(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", "12,23,13,14")
        assert code == 0 and "PASS" in out

    def test_corrupted_necklace_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--input", "12,23,24,14")
        assert code == 1 and "FAIL" in out

    def test_exhaustive_scope_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "exhaustive", "--max-n", "5")
        assert code == 0 and "46 connected positroids" in out

    @pytest.mark.parametrize("argv", [("verify", "--scope", "exhaustive", "--max-n", "5"),
                                      ("atlas", "--n", "4"), ("atlas", "--n", "6")])
    def test_two_jobs_match_one(self, capsys, argv):
        # atlas --n 6: each process counts the summands it meets in its own memo
        one = run(capsys, *argv, "--jobs", "1")
        assert one[0] == 0 and run(capsys, *argv, "--jobs", "2") == one

    def test_random_scope_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "random",
                           "--w0-samples", "4", "--subdivision-samples", "6")
        assert code == 0

    RANDOM = ("verify", "--scope", "random", "--seed", "3", "--max-n", "5",
              "--w0-samples", "4", "--subdivision-samples", "6")
    RANDOM_LINES = ["base-point independence (4 samples, n <= 5)  seed 3",
                    "subdivision agreement (6 samples, n <= 5)    seed 3",
                    "closure vs bases facets (random, n <= 5)     10 samples, seed 3"]

    def test_random_scope_compares_the_facets_on_every_sample(self, capsys):
        # the closure's facets against the bases rule's, on the 4 + 6 samples
        assert run(capsys, *self.RANDOM) == (0, "".join(
            f"PASS  {line}\n" for line in self.RANDOM_LINES) + "3/3 checks passed\n", "")

    def test_a_redundant_facet_row_fails_the_random_scope(self, capsys, monkeypatch):
        keep_a_redundant_facet_row(monkeypatch)
        code, out, err = run(capsys, *self.RANDOM)
        assert (code, err) == (1, "")
        assert out.splitlines()[:4] == ["PASS  " + self.RANDOM_LINES[0],
                                        "PASS  " + self.RANDOM_LINES[1],
                                        "FAIL  " + self.RANDOM_LINES[2], "2/3 checks passed"]

    def test_random_scope_honours_max_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "random", "--max-n", "5",
                           "--w0-samples", "3", "--subdivision-samples", "3")
        assert code == 0
        assert "base-point independence (3 samples, n <= 5)" in out
        assert "subdivision agreement (3 samples, n <= 5)" in out

    def test_random_scope_defaults_to_the_size_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "5")
        code, out, _ = run(capsys, "verify", "--scope", "random",
                           "--w0-samples", "3", "--subdivision-samples", "3")
        assert code == 0
        assert "base-point independence (3 samples, n <= 5)" in out
        assert "subdivision agreement (3 samples, n <= 5)" in out
        monkeypatch.setenv("POSITROID_MAX_N", "3")
        for scope in ("random", "all"):
            assert run(capsys, "verify", "--scope", scope) == (
                2, "", "error: --max-n must be at least 4 for the random scope "
                       "(subdivision sampling needs n >= 4)\n")

    @pytest.mark.parametrize("argv, message", [
        (("--scope", "random", "--w0-samples", "-1", "--subdivision-samples", "-2"),
         "--w0-samples must be nonnegative, got -1"),
        (("--scope", "random", "--subdivision-samples", "-2"),
         "--subdivision-samples must be nonnegative, got -2"),
        (("--scope", "exhaustive", "--max-n", "-1"), "--max-n must be positive, got -1"),
        (("--scope", "golden", "--max-n", "0"), "--max-n must be positive, got 0"),
    ])
    def test_out_of_range_counts_exit_2(self, capsys, argv, message):
        assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("max_n", ["3", "0"])
    def test_random_scope_rejects_max_n_below_4(self, capsys, max_n):
        assert run(capsys, "verify", "--scope", "random", "--max-n", max_n) == (
            2, "", "error: --max-n must be at least 4 for the random scope "
                   "(subdivision sampling needs n >= 4)\n")

    @pytest.mark.parametrize("cap, argv", [
        (None, ("--scope", "roundtrip", "--max-n", "11")),  # the default cap, 7
        ("5", ("--scope", "roundtrip", "--max-n", "6")),
        ("5", ("--scope", "exhaustive", "--max-n", "6")),
        ("5", ("--scope", "random", "--max-n", "6")),
        ("5", ("--input", "12,23,13,14", "--max-n", "6")),
    ])
    def test_max_n_above_the_size_cap_exits_2_before_any_work(self, capsys, monkeypatch,
                                                               cap, argv):
        if cap is None:
            monkeypatch.delenv("POSITROID_MAX_N", raising=False)
        else:
            monkeypatch.setenv("POSITROID_MAX_N", cap)
        for name in ("verify_golden", "verify_roundtrips", "verify_exhaustive",
                     "verify_random", "verify_single_input"):
            monkeypatch.setattr(verify, name, lambda *args, **kwargs: pytest.fail("work started"))
        max_n = argv[-1]
        assert run(capsys, "verify", *argv) == (
            2, "", f"error: n = {max_n} exceeds the size cap {cap or 7} "
                   "(override with POSITROID_MAX_N)\n")
        # the same wording as atlas --n
        assert run(capsys, "atlas", "--n", max_n)[2] == run(capsys, "verify", *argv)[2]

    @pytest.mark.parametrize("argv", [("atlas", "--n", "8"), ("verify", "--max-n", "8")])
    def test_default_size_cap_is_named(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("POSITROID_MAX_N", raising=False)
        assert run(capsys, *argv) == (
            2, "", "error: n = 8 exceeds the size cap 7 (override with POSITROID_MAX_N)\n")

    def test_max_n_at_the_size_cap_still_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "5")
        code, out, err = run(capsys, "verify", "--scope", "roundtrip", "--max-n", "5")
        assert (code, err) == (0, "")
        assert "necklace/decorated round trips n <= 5" in out

    def test_random_scope_reads_no_walls(self, monkeypatch):
        # the wall covers are read off the label windows, so no base of any
        # sample reads a wall
        search, wall = tg.enumerate_labels, tg._wall
        searched, reads = [], []
        monkeypatch.setattr(tg, "enumerate_labels",
                            lambda necklace: searched.append(search(necklace)) or searched[-1])
        monkeypatch.setattr(tg, "_wall", lambda *args: reads.append(args[0]) or wall(*args))
        forget_words()
        checks = verify.verify_random(20240814, 4, 0)
        assert [ok for _, ok, _ in checks] == [True, True, True]
        assert len(searched) == 4 and any(len(labels) > 1 for labels in searched)
        words = {w for labels in searched for w in labels}
        assert sum(map(len, searched)) == 13 and len(words) == 8  # samples share words
        assert reads == []

    def test_random_scope_checks_wall_covers_against_bfs(self, monkeypatch):
        # the sample scores every base in one pass, and wall_covers reads
        # the same pass, so the fault reaches both checks
        walls = tg._covers_by_base
        monkeypatch.setattr(tg, "_covers_by_base", lambda labels, bases: [
            {w: c + (w != tuple(base)) for w, c in cover.items()}
            for base, cover in zip(bases, walls(labels, bases))])
        checks = verify.verify_random(3, 2, 2, max_n=5)
        assert [ok for _, ok, _ in checks] == [False, False, True]


class TestExhaustiveWorker:
    PYRAMID = ((1, 2), (2, 3), (1, 3), (1, 4))

    def test_passes(self):
        assert cli._exhaustive_worker(self.PYRAMID) == ("12,23,13,14", True, "")

    def test_closed_disagreement_fails(self, monkeypatch):
        monkeypatch.setattr(eh, "hstar_by_counting", lambda necklace: (1,))
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok and detail.startswith("closed methods disagree")

    def test_seeded_sample_past_the_sweep(self):
        # 30 connected positroids with n = 7, past the n <= 6 sweep: the oracle's
        # truncation and reciprocity check run on each, beside every other route
        rng = random.Random(20240814)
        sample = []
        while len(sample) < 30:
            perm = list(range(1, 8))
            rng.shuffle(perm)
            necklace = po.necklace_from_decorated(po.DecoratedPermutation(tuple(perm)))
            if necklace.fact(po.necklace_connected) and necklace not in sample:
                sample.append(necklace)
        for necklace in sample:
            subsets = tuple(tuple(sorted(s)) for s in necklace.subsets)
            assert cli._exhaustive_worker(subsets) == (necklace.compact(), True, "")

    def test_closed_profile_is_checked_against_the_full_h_representation(self, monkeypatch):
        facets = po.facet_representation
        dropped = po.IntervalInequality(1, 3, 1, ">=")  # x_1+x_2 >= 1

        def without(necklace):
            hrep = facets(necklace)
            return hrep._replace(inequalities=tuple(f for f in hrep.inequalities if f != dropped))

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "positroid_hstar" and getattr(module, "facet_representation",
                                                                   None) is facets:
                monkeypatch.setattr(module, "facet_representation", without)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok
        assert detail == ("closed profile differs from the full H-representation count: "
                          "facet counts (1, 6, 19), full counts (1, 5, 14)")

    @pytest.mark.parametrize("hstar", [(1, 2), (1, 1, 1), (1, 1, 0, 1)])
    def test_oracle_counts_are_checked_against_the_full_h_representation(
            self, monkeypatch, hstar):
        # the pyramid's h* is 1 + z, E(0..3) = 1, 5, 14, 30: 1 + 2z is off at
        # E(1), and 1 + z + z^2 first at E(2), past the counts the oracle
        # reads.  1 + z + z^3 has E(0..2) = 1, 5, 14, the reference's counts:
        # only its degree, 3 = dim P, which no 0/1 polytope's h* has, differs
        monkeypatch.setattr(eh, "_oracle", lambda necklace: eh.EhrhartPolynomial(hstar, 3))
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok
        assert detail == ("closed profile differs from the full H-representation count: "
                          f"oracle h* {hstar}, counted h* (1, 1)")

    def test_the_reference_count_is_checked_against_the_bases(self, monkeypatch):
        # one point too many at t = 1 in the count of the full H-representation
        counts = eh.lattice_counts

        def one_more(hrep, tmax, *equalities):
            found = counts(hrep, tmax, *equalities)
            return (found[0], found[1] + 1, *found[2:])

        monkeypatch.setattr(eh, "lattice_counts", one_more)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok
        assert detail == ("closed profile differs from the full H-representation count: "
                          "a face with 5 bases has E(1) = 6 lattice points: counting bug")

    def test_the_label_count_is_checked_against_h_star_at_one(self, monkeypatch):
        # the pyramid has 2 labels and h* = 1 + z; a shelling h* of 1 + 2z is off
        monkeypatch.setattr(tg, "hstar_from_covers", lambda covers: (1, 2))
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok and detail == "h*(1), |D_J| and normalized volume differ: 3, 2, 2"

    def test_the_half_open_shape_names_the_descents(self, monkeypatch):
        # both half-open routes agree on 1 + z, whose constant term is not 0
        routes = cli.hstar_routes
        monkeypatch.setattr(cli, "hstar_routes", lambda necklace, methods, half_open=False: (
            {method: [1, 1] for method in methods} if half_open else routes(necklace, methods)))
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok and detail == "half-open h* shape is wrong: descents [1, 1]"

    def test_labels_are_checked_against_the_basis_reference(self, monkeypatch):
        search = tg.enumerate_labels
        monkeypatch.setattr(tg, "enumerate_labels", lambda necklace: search(necklace)[1:])
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok and detail == ("labels differ from the basis-membership reference: "
                                     "1 vs 2 labels, first at (1, 3, 2, 4)")

    def test_bfs_layers_are_checked_on_every_edge(self, monkeypatch):
        # the pyramid's one edge joins layers 0 and 2 once each distance doubles
        shelling = tg.shelling_poset

        def doubled(graph, base):
            poset = shelling(graph, base)
            return poset._replace(dist={w: 2 * d for w, d in poset.dist.items()})

        monkeypatch.setattr(tg, "shelling_poset", doubled)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok and detail == ("an edge does not join consecutive BFS layers: "
                                     "(1, 3, 2, 4) at 0, (2, 1, 3, 4) at 2")

    def test_the_cover_sum_is_checked_against_the_edge_count(self, monkeypatch):
        # the pyramid's covers 0 and 1, each one more, against its one edge
        shelling = tg.shelling_poset

        def raised(graph, base):
            poset = shelling(graph, base)
            return poset._replace(cover={w: c + 1 for w, c in poset.cover.items()})

        monkeypatch.setattr(tg, "shelling_poset", raised)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok and detail == "cover sum differs from edge count: 3 vs 1"

    def test_wall_covers_are_checked_against_the_bfs_covers(self, monkeypatch):
        walls = tg.wall_covers
        monkeypatch.setattr(tg, "wall_covers", lambda labels, base: {
            w: c + (w == (2, 1, 3, 4)) for w, c in walls(labels, base).items()})
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok
        assert detail == ("wall covers differ from the BFS covers from base (1, 3, 2, 4), "
                          "first at (2, 1, 3, 4)")

    def test_exception_names_its_innermost_frame(self, monkeypatch):
        def broken(graph, base):
            raise RuntimeError("window overflow")

        monkeypatch.setattr(tg, "affine_consistency_check", broken)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        line = broken.__code__.co_firstlineno + 1
        assert not ok
        assert detail == (f"exception: RuntimeError('window overflow') at test_cli.py:{line} "
                          "in broken during affine windows")

    @pytest.mark.parametrize("module, attr, stage", [
        (tg, "labels_by_bases", "labels"),
        (tg, "build_graph", "graph"),
        (tg, "wall_covers", "wall covers"),
        (eh, "lattice_counts", "closed profile"),
        (cli, "hstar_routes", "closed routes"),
        (tg, "affine_consistency_check", "affine windows"),
        (tg, "labels_are_unimodular", "unimodularity"),
    ])
    def test_exception_names_its_stage(self, monkeypatch, module, attr, stage):
        def broken(*args):
            raise RuntimeError("stage failed")

        monkeypatch.setattr(module, attr, broken)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok
        assert detail.startswith("exception: RuntimeError('stage failed') at test_cli.py:")
        assert detail.endswith(f" in broken during {stage}")

    def test_each_label_circuit_is_computed_once(self, monkeypatch):
        # U(3,6): enumerate_labels computes its 66 labels' circuits, which the
        # graph and the unimodularity stage read; labels_by_bases computes the
        # circuits of the 5! words once for n = 6
        subsets = ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 2, 6))
        calls, masks = [], tg.circuit_masks
        monkeypatch.setattr(tg, "circuit_masks", lambda word: calls.append(word) or masks(word))
        for expected in (66 + 120, 66):
            calls.clear()
            assert cli._exhaustive_worker(subsets)[1]
            assert len(calls) == expected

    def test_half_open_routes_are_their_own_stage(self, monkeypatch):
        routes = cli.hstar_routes

        def broken(necklace, methods, half_open=False, base=None):
            if half_open:
                raise RuntimeError("stage failed")
            return routes(necklace, methods, half_open, base)

        monkeypatch.setattr(cli, "hstar_routes", broken)
        name, ok, detail = cli._exhaustive_worker(self.PYRAMID)
        assert not ok
        assert detail.startswith("exception: RuntimeError('stage failed') at test_cli.py:")
        assert detail.endswith(" in broken during half-open routes")


class TestOSErrors:
    """An unreadable input path or an unwritable --out exits 2 with one line."""

    @pytest.mark.parametrize("argv", [
        ["convert"], ["hstar"], ["ehrhart"], ["triangulate"], ["tree"], ["verify", "--input"]])
    def test_directory_as_input_exits_2(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["convert", "12,23,13,14"], ["hstar", "12,23,13,14"], ["ehrhart", "12,23,13,14"],
        ["triangulate", "12,23,13,14"], ["tree", SQUARE], ["atlas", "--n", "3"]])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --out: cannot write {target}: ")
        assert err.count("\n") == 1 and not target.parent.exists()

    @pytest.mark.parametrize("argv", [["hstar", "123,234,345,456,567,167,127", "--method", "all"],
                                      ["atlas", "--n", "6"]])
    def test_unwritable_out_fails_before_any_work(self, capsys, monkeypatch, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(verify, "_map_jobs", refuse)
        monkeypatch.setattr(tg, "enumerate_labels", refuse)
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: --out: cannot write {target}: No such file or directory\n"

    def test_failed_command_leaves_the_out_path_as_it_was(self, capsys, tmp_path):
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_text("earlier report\n")
        for target in (kept, absent):
            code, out, err = run(capsys, "hstar", "12,3x", "--out", str(target))
            assert (code, out, err) == (2, "", "error: necklace entry '3x' is not a digit string\n")
        assert kept.read_text() == "earlier report\n" and not absent.exists()
        assert run(capsys, "hstar", "12,23,13,14", "--out", str(kept))[0] == 0
        assert json.loads(kept.read_text())["hstar"] == {"shelling": [1, 1]}

    @pytest.mark.parametrize("value", ["./missing.json", "missing.json",
                                       os.path.join("no", "such", "input")])
    def test_missing_input_path_is_named(self, capsys, value):
        assert run(capsys, "hstar", value) == (
            2, "", f"error: cannot read {value}: No such file or directory\n")

    @pytest.mark.parametrize("value, message", [
        ("12,3x", "necklace entry '3x' is not a digit string"),
        ("missing", "necklace entry 'missing' is not a digit string"),
        ('{"necklace": [[1, 2], "a/b.json"]}', "necklace: expected an integer, got \"a\""),
    ])
    def test_inline_values_keep_their_messages(self, capsys, value, message):
        assert run(capsys, "hstar", value) == (2, "", f"error: {message}\n")


class TestJobsBounds:
    """--jobs outside 1..os.cpu_count() exits 2 before any process pool exists."""

    CPUS = os.cpu_count() or 1

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was requested")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)

    @pytest.mark.parametrize("argv", [("verify", "--scope", "exhaustive", "--max-n", "3"),
                                      ("atlas", "--n", "3")])
    @pytest.mark.parametrize("jobs", [0, -2, CPUS + 1, 10 ** 6])
    def test_out_of_range_jobs_exit_2(self, capsys, argv, jobs):
        message = f"error: --jobs must be between 1 and {self.CPUS} (the CPU count), got {jobs}\n"
        assert run(capsys, *argv, "--jobs", str(jobs)) == (2, "", message)

    def test_one_job_runs_without_a_pool(self, capsys):
        assert run(capsys, "atlas", "--n", "3", "--jobs", "1")[0] == 0


class TestBrokenPipe:
    class ClosedPipe:
        """A stdout whose reader has gone away, on the descriptor of a real file."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    @pytest.mark.parametrize("argv", [
        ["convert", "12,23,13,14"],
        ["hstar", "12,23,13,14", "--method", "all"],
        ["tree", '{"n":4,"cells":[{"color":"black","vertices":[1,2,3]},'
                 '{"color":"white","vertices":[1,3,4]}]}'],
        ["atlas", "--n", "3"],
        ["verify"],
    ])
    def test_closed_stdout_exits_quietly(self, capsys, monkeypatch, tmp_path, argv):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr("sys.stdout", self.ClosedPipe(fh.fileno()))
            code = cli.main(argv)
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert code == 0
        assert capsys.readouterr().err == ""


class TestReportShape:
    def test_hstar_report_is_byte_stable(self, capsys):
        a = run(capsys, "hstar", "12,23,13,14", "--method", "all")[1]
        b = run(capsys, "hstar", "12,23,13,14", "--method", "all")[1]
        assert a == b

    def test_coefficients_are_nonnegative_ints_with_unit_head(self, capsys):
        report = run_json(capsys, "hstar", "123,235,345,145,125", "--method", "all")
        for coeffs in report["hstar"].values():
            assert coeffs[0] == 1 and all(isinstance(c, int) and c >= 0 for c in coeffs)

    def test_half_open_head_is_zero(self, capsys):
        report = run_json(capsys, "hstar", "12,23,13,14", "--half-open",
                          "--method", "all")
        for coeffs in report["hstar"].values():
            assert coeffs[0] == 0

    @pytest.mark.parametrize("argv,digest", [
        (("hstar", "123,235,345,145,125", "--method", "oracle"),
         "ecff51bd6ee6b8230962e29b0cd87837e797d57628e626f0c0faa72ef3a30b0e"),
        (("hstar", "123,235,345,145,125", "--half-open", "--method", "oracle"),
         "9d4152a1c2d7042b5a093bfb0184615a1f498920afe9b44fe89f6ab5029a5478"),
        (("hstar", "123,234,345,456,156,126", "--method", "oracle"),
         "2fd73d6c749476d6c608a3e7bf9c546350bbb980321d81f192d93a8ba7a6dd42"),
        (("hstar", "123,234,345,456,156,126", "--half-open", "--method", "oracle"),
         "88ad26285efa4450584246888ee2318638ffa70353dd63adf53d10bdf87bbee2"),
    ])
    def test_oracle_reports_enumerate_no_labels(self, capsys, monkeypatch, argv, digest):
        # num_simplices is the oracle's h*(1); the report is the one the
        # label count gave.
        calls = []
        search = tg.enumerate_labels

        def spy(necklace):
            calls.append(necklace)
            return search(necklace)

        monkeypatch.setattr(tg, "enumerate_labels", spy)
        monkeypatch.setattr(ho, "enumerate_labels", spy)
        code, out, err = run(capsys, *argv)
        assert (code, err, calls) == (0, "", [])
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (("triangulate", "12,23,34,45,15", "--w0", "31425"),
         "a9e521764a4e7d290babda7edcd1d63f51a6bb693a6b7693f984807cf5b9c5d5"),
        (("triangulate", "124,234,134,145,125"),
         "2c4d9c0fcfb5b190050bee536bac9611c12eed6e3277990f5f9911e71a33aee7"),
        (("hstar", "12,23,13,14", "--method", "all"),
         "e881e1d80dbed8f2fcbb03745b68d2052b9feb41fcd88d052aa445755dcb355e"),
        (("hstar", "12,23,34,45,15", "--method", "all"),
         "b1de567b8bb36effca9ab30b28bfc4e1fbcb9a654abf77f8cfa5b41e5190e9fe"),
        (("hstar", "124,234,134,145,125", "--method", "all"),
         "46b20e18910da52f02f440c2d53597814ccaf07c786a30899cd815e0a91d772e"),
        (("hstar", "123,235,345,145,125", "--method", "all"),
         "e7541ce45b93958f3583ebfc776355ccfa06b895c15389432e526083d4557aa0"),
        # U(4,8), frontier8's triangulate input: 2,416 labels, 7,248 edges
        (("triangulate", "1234,2345,3456,4567,5678,1678,1278,1238"),
         "d0e53cfe368e3b1862ec8737f074a41f999c5d3350007246d8527e49c60ce9c2"),
        (("triangulate", "1234,2345,3456,4567,1567,1367,1237", "--w0", "3264517"),
         "af479cb0245442007e821516190e5edc80c38c4948cb35bc72181cd84cee24eb"),
    ])
    def test_golden_reports_are_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


REPORT_ARGVS = [
    ("convert", "124,234,134,145,125"),
    ("convert", '{"pi": [2,1,4,3], "colors": {}}'),
    ("hstar", "124,234,134,145,125", "--method", "all"),
    ("hstar", "12,23,13,14", "--half-open", "--method", "all"),
    ("hstar", '{"pi": [2,1,4,3], "colors": {}}', "--method", "oracle"),
    ("ehrhart", "124,234,134,145,125", "--tmax", "4"),
    ("triangulate", "12,23,34,45,15", "--w0", "31425"),
    ("tree", SQUARE),
]


class TestCommandLayer:
    """Report commands build dicts; ``main`` alone times, emits and exits."""

    @pytest.mark.parametrize("argv", REPORT_ARGVS)
    def test_timing_adds_only_elapsed_ms(self, capsys, argv):
        timed = run_json(capsys, *argv, "--timing")
        elapsed = timed.pop("elapsed_ms")
        assert isinstance(elapsed, float) and elapsed >= 0
        assert timed == run_json(capsys, *argv)

    @pytest.mark.parametrize("argv", REPORT_ARGVS)
    def test_a_command_returns_the_report_main_emits(self, capsys, argv):
        report = getattr(cli, f"cmd_{argv[0]}")(cli.build_parser().parse_args(argv))
        assert capsys.readouterr() == ("", "")
        assert report == run_json(capsys, *argv)

    def test_only_main_writes_to_stderr(self):
        found = set()

        class Finder(ast.NodeVisitor):
            def __init__(self, name):
                self.name, self.scope = name, []

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            def visit_Attribute(self, node):
                if isinstance(node.value, ast.Name) and (node.value.id, node.attr) == (
                        "sys", "stderr"):
                    found.add((self.name, ".".join(self.scope)))
                self.generic_visit(node)

        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            Finder(path.name).visit(ast.parse(path.read_text(encoding="utf-8")))
        assert found == {("cli.py", "main")}

    @pytest.mark.parametrize("argv", REPORT_ARGVS)
    def test_timed_reports_are_the_stdlib_encoders_bytes(self, capsys, argv):
        # elapsed_ms is the one float a report holds
        code, out, err = run(capsys, *argv, "--timing")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("necklace, labels", [
        ("123,234,345,456,156,126", 66),
        ("1234,2345,3456,4567,5678,1678,1278,1238", 2416),
    ], ids=["U(3,6)", "U(4,8)"])
    def test_triangulate_reads_each_circuit_once(self, monkeypatch, necklace, labels):
        # the basis assertion's circuit table is the one the dual graph checks
        calls = []
        masks = tg.circuit_masks

        def spy(word):
            calls.append(word)
            return masks(word)

        monkeypatch.setattr(tg, "circuit_masks", spy)
        report = cli.cmd_triangulate(cli.build_parser().parse_args(["triangulate", necklace]))
        assert report["num_simplices"] == labels
        assert len(calls) == labels


_report_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers(min_value=-2**80, max_value=2**80),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20)


class TestReportWriter:
    """`cli._json_text`, the JSON report writer, against the stdlib encoder."""

    @settings(max_examples=300, deadline=None)
    @given(_report_values)
    @example("café ☃ \U0001f600 tab\tquote\"back\\slash\x00\x1f")
    @example([-2**70, 2**70, 0.1, -0.0, float("inf"), float("nan"), True, None])
    @example({"b": [[], {}], "a": {"z": [1, [2, {"c": None}]], "": {}}})
    def test_writes_what_the_stdlib_encoder_writes(self, value):
        assert cli._json_text(value, "\n") == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        {1, 2}, (1, 2), Fraction(1, 2), {1: "a"}, {"a": 1, 2: "b"}, [{"a": {(1,): 2}}],
        {"a": [1, (2, 3)]},
    ], ids=["set", "tuple", "Fraction", "int key", "mixed keys", "tuple key", "nested tuple"])
    def test_anything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value, "\n")
