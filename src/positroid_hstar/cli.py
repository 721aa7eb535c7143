"""Command-line workbench: conversions, h* computation, atlases, verification.

Inputs are JSON objects keyed by representation ("necklace", "pi", "bases",
"cells") or, for necklaces with n <= 9, the compact digit form
"123,235,345,145,125" (an empty J_i is "-").  Reports are JSON by default
(CSV for atlases); all polynomial output lists coefficients in ascending
degree, with rationals rendered as "p/q" strings.

Each job has one home.  ``input_necklace`` reads an input into its kind and
necklace, ``hstar_routes`` runs the h* routes on a closed or half-open
body, and ``output`` opens --out (or stdout) for every report and atlas.
Each report command is a function from parsed arguments to its report dict.
``main`` alone times it, emits the report and maps an exception to one
``error:`` line on stderr and an exit code: 0 success, 1 verification
failure or a counting bug (a count that fails its own check), 2 invalid
input, 3 connectivity precondition violated.  A reader
that closes stdout early (``| head``) ends any command quietly with exit
code 0: the rest of the output goes to os.devnull and nothing is printed on
stderr.

A process imports only what its command runs: ``ehrhart`` and ``halfopen``
when a route needs them, ``tree`` for subdivision input, and the suites of
``atlas`` and ``verify`` from ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Sequence

from . import positroid as po
from . import triangulation as tg

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DISCONNECTED = 3

CLOSED_METHODS = ("shelling", "inclusion-exclusion", "oracle")
HALF_OPEN_METHODS = ("descents", "oracle")
INPUT_KEYS = ("necklace", "pi", "bases", "cells")


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_compact_necklace(text: str) -> po.GrassmannNecklace:
    parts = [p.strip() for p in text.split(",")]
    if parts == [""]:
        raise InputError("empty necklace text")
    subsets = []
    for k, p in enumerate(parts, 1):
        if not p:
            raise InputError(f'necklace entry {k} is empty; write an empty J_i as "-"')
        if not (p.isascii() and p.isdigit()) and p != "-":
            raise InputError(f"necklace entry {p!r} is not a digit string")
        subsets.append(frozenset(int(c) for c in p) if p != "-" else frozenset())
    try:
        return po.validate_necklace(subsets)
    except po.NecklaceError as exc:
        raise InputError(str(exc)) from exc


def parse_input(text: str) -> tuple[str, object]:
    """Classify and parse an input document.

    Returns (kind, value) with kind one of necklace / decorated / bases /
    subdivision.  JSON objects are recognized by their keys; anything else
    is read as compact necklace text.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError("JSON input must be an object")
        present = [key for key in INPUT_KEYS if key in doc]
        if len(present) > 1:
            raise InputError(f"JSON object has more than one of the keys: {', '.join(present)}")
        try:
            if "n" in doc:
                _integers("n", [doc["n"]])
            if "necklace" in doc:
                subsets = [frozenset(_integers("necklace", s))
                           for s in _list("necklace", doc["necklace"])]
                return "necklace", po.validate_necklace(subsets, doc.get("n"))
            if "pi" in doc:
                perm = tuple(_integers("pi", doc["pi"]))
                if "n" in doc and doc["n"] != len(perm):
                    raise InputError(f"pi: expected {doc['n']} entries, got {len(perm)}")
                colors = doc.get("colors", {})
                if not isinstance(colors, dict):
                    raise InputError("colors must be an object keyed by fixed point")
                if any(v not in ("black", "white") for v in colors.values()):
                    raise InputError("fixed-point colors must be 'black' or 'white'")
                for k in colors:
                    if not (k.isdecimal() and k == str(int(k))):
                        raise InputError(f"colors: key {json.dumps(k)} is not a fixed point "
                                         "in plain decimal")
                white = frozenset(int(k) for k, v in colors.items() if v == "white")
                fixed = frozenset(i for i, v in enumerate(perm, 1) if v == i)
                declared = frozenset(int(k) for k in colors)
                if declared != fixed:
                    raise InputError(
                        f"colors must cover exactly the fixed points {sorted(fixed)}")
                return "decorated", po.DecoratedPermutation(perm, white)
            if "bases" in doc:
                subsets = frozenset(frozenset(_integers("bases", b))
                                    for b in _list("bases", doc["bases"]))
                if not subsets:
                    raise InputError("bases: expected at least one basis, got []")
                sizes = {len(b) for b in subsets}
                if len(sizes) != 1:
                    raise InputError("bases must all have the same size")
                if "n" not in doc and sizes == {0}:
                    raise InputError('bases: the only basis is empty, so "n" must be given')
                n = doc["n"] if "n" in doc else max(max(b) for b in subsets)
                for b in subsets:  # checked before a negative element meets a shift
                    if any(not 1 <= v <= n for v in b):
                        raise InputError(f"basis {sorted(b)} has elements outside 1..{n}")
                if n < 1:
                    raise InputError("ground set must be nonempty")
                # the matroid property is checked by ``input_necklace``'s round trip
                return "bases", po.PositroidBases(n, sizes.pop(), frozenset(
                    sum(1 << v for v in b) for b in subsets))
            if "cells" in doc:
                from .tree import validate_subdivision

                if "n" not in doc:
                    raise InputError('cells: a subdivision needs "n"')
                cells = _list("cells", doc["cells"])
                if not all(isinstance(c, dict) and "color" in c and "vertices" in c for c in cells):
                    raise InputError('cells: each cell needs a "color" and "vertices"')
                cells = [(c["color"], _integers("vertices", c["vertices"])) for c in cells]
                return "subdivision", validate_subdivision(doc["n"], cells)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(str(exc)) from exc
        raise InputError(f"JSON object needs one of the keys: {', '.join(INPUT_KEYS)}")
    return "necklace", parse_compact_necklace(text)


def _list(field: str, value: object) -> list:
    """A JSON list given for ``field``; any other value is an input error."""
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a list, got {json.dumps(value)}")
    return value


def _integers(field: str, values: object) -> list[int]:
    """The entries of an integer list field; floats, booleans and the like are
    input errors (``1.0`` and ``true`` would otherwise pass as 1).  A string
    is read as its characters, so its first one is the entry reported."""
    out = list(values) if isinstance(values, str) else _list(field, values)
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"{field}: expected an integer, got {json.dumps(v)}")
    return out


def read_input(value: str | None) -> str:
    """Input text from an inline value or a file path; '-' reads stdin.

    A value that is not JSON and holds a path separator or ends in .json is
    read as a path even when nothing is there, so a mistyped file name is
    reported as unreadable rather than parsed as a necklace.
    """
    if value is None:
        raise InputError("no input given")
    if value == "-":
        return sys.stdin.read()
    looks_like_path = not value.lstrip().startswith("{") and (
        os.sep in value or value.endswith(".json"))
    if looks_like_path or os.path.exists(value):
        try:
            with open(value, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {value}: {exc.strerror}") from None
    return value


def input_necklace(text: str) -> tuple[str, po.GrassmannNecklace]:
    """The kind of an input document (``parse_input``) and its necklace."""
    kind, value = parse_input(text)
    if kind == "decorated":
        return kind, po.necklace_from_decorated(value)
    if kind == "bases":
        # A positroid is its necklace's basis set, so the round trip alone
        # proves the matroid property; the exchange scan only names a failure.
        try:
            necklace = po.necklace_from_bases(value)
            if necklace.fact(po.bases_from_necklace).bases == value.bases:
                return kind, necklace
        except ValueError:
            pass
        if not po.is_matroid(value):
            raise InputError("basis set fails the exchange axiom")
        raise InputError("basis set is a matroid but not a positroid "
                         "(its necklace generates a strictly larger one)")
    if kind == "subdivision":
        from .tree import positroid_from_subdivision

        return kind, positroid_from_subdivision(value)
    return kind, value


def parse_word(text: str) -> tuple[int, ...]:
    """A --w0 word: comma-separated integers, or one digit per letter; not empty."""
    letters = text.split(",") if "," in text else text.strip()
    try:
        word = tuple(int(p) for p in letters)
    except ValueError:
        word = ()
    if not word:
        raise InputError(f"--w0: expected a word of integers, got {json.dumps(text)}")
    return word


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def poly_ints(h: tuple[int, ...]) -> list[int]:
    return list(h)


def open_out(path: str, mode: str = "w"):
    """The --out file, opened for writing; an OS error is an input error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"--out: cannot write {path}: {exc.strerror}") from None


def check_out(path: str) -> None:
    """Fail on an unwritable --out before any work, and leave the path as it
    was: an existing file is opened for appending, not truncated, and a file
    created by the probe is removed again."""
    existed = os.path.lexists(path)
    open_out(path, "a").close()
    if not existed:
        os.remove(path)


@contextlib.contextmanager
def output(path: str | None):
    """The --out file, closed on leaving, or stdout when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open_out(path) as out:
        yield out


def emit(report: dict, args) -> None:
    with output(args.out) as out:
        if args.format == "text":
            _emit_text(report, out)
        else:
            out.write(_json_text(report, "\n"))
            out.write("\n")


_SCALARS = {str: _quote, int: int.__repr__, float: json.dumps,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json_text(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it,
    for what reports hold: dicts with str keys, lists, str, int, float, bool
    and None (by exact type); anything else is a TypeError.  Strings go
    through the C escaper.  ``newline`` is a newline and the indent of the
    line ``value`` starts on.
    """
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if type(value) is list:
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(value) is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            raise TypeError("report keys must be str")
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"a report holds no {type(value).__name__}")


def _emit_text(report: dict, out, prefix: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            out.write(f"{prefix}{key}:\n")
            _emit_text(value, out, prefix + "  ")
        else:
            out.write(f"{prefix}{key}: {value}\n")


# ---------------------------------------------------------------------------
# computations shared by commands and the verifier
# ---------------------------------------------------------------------------

def hstar_routes(necklace: po.GrassmannNecklace, methods: Sequence[str],
                 half_open: bool = False,
                 base: tuple[int, ...] | None = None) -> dict[str, list[int]]:
    """The h* of the closed body of ``necklace`` (or its half-open body) by
    each of ``methods``; ``base`` is the shelling's base label.  A route
    imports its module only when it runs."""
    out = {}
    for method in methods:
        if half_open and method in HALF_OPEN_METHODS:
            from . import halfopen as ho

            h = (necklace.fact(ho.hstar_half_open) if method == "descents"
                 else ho.hstar_half_open_by_counting(necklace))
        elif not half_open and method == "shelling":
            h = tg.hstar_shelling(necklace, base)
        elif not half_open and method == "inclusion-exclusion":
            from . import halfopen as ho

            h = ho.hstar_closed_via_inclusion_exclusion(necklace)
        elif not half_open and method == "oracle":
            from . import ehrhart as eh

            h = eh.hstar_by_counting(necklace)
        else:
            body = "half-open" if half_open else "closed"
            raise InputError(f"method {method!r} does not compute a {body} h*")
        out[method] = poly_ints(h)
    return out


def agreement_verdict(results: dict[str, list[int]]) -> str:
    return "PASS" if len({tuple(v) for v in results.values()}) == 1 else "FAIL"


def all_decorated_permutations(n: int) -> Iterator[po.DecoratedPermutation]:
    """All decorated permutations of 1..n, lexicographic in (word, white set)."""
    for perm in itertools.permutations(range(1, n + 1)):
        fixed = sorted(i for i, v in enumerate(perm, 1) if v == i)
        for mask in range(1 << len(fixed)):
            white = frozenset(f for k, f in enumerate(fixed) if mask >> k & 1)
            yield po.DecoratedPermutation(perm, white)


def connected_necklaces(n: int) -> Iterator[po.GrassmannNecklace]:
    """Connected positroids on [n], in decorated-permutation order, selected
    by `positroid.necklace_connected` (no bases are derived)."""
    for dec in all_decorated_permutations(n):
        necklace = po.necklace_from_decorated(dec)
        if necklace.fact(po.necklace_connected):
            yield necklace


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_convert(args) -> dict:
    kind, necklace = input_necklace(read_input(args.input))
    bases = necklace.fact(po.bases_from_necklace)
    dec = necklace.fact(po.decorated_from_necklace)
    connected = necklace.fact(po.necklace_connected)
    report = {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "necklace": [sorted(s) for s in necklace.subsets],
        "decorated": {"pi": list(dec.perm),
                      "colors": {str(k): v for k, v in dec.colors().items()}},
        "bases": [list(b) for b in bases.sorted_bases()],
        "connected": connected,
    }
    if not connected:
        report["components"] = [list(g) for g in necklace.fact(po.necklace_components)]
    return report


def cmd_hstar(args) -> dict:
    kind, necklace = input_necklace(read_input(args.input))
    connected = necklace.fact(po.necklace_connected)
    method = args.method or ("descents" if args.half_open else "shelling")

    report = {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "necklace": [sorted(s) for s in necklace.subsets],
        "connected": connected,
        "half_open": args.half_open,
    }
    if args.half_open:
        if method in ("shelling", "inclusion-exclusion"):
            raise InputError(f"method {method} does not apply to half-open polytopes; "
                             "use descents or oracle")
        methods = HALF_OPEN_METHODS if method == "all" else (method,)
    else:
        if method == "descents":
            raise InputError("the descent formula computes the half-open h*; "
                             "pass --half-open (or use inclusion-exclusion)")
        methods = CLOSED_METHODS if method == "all" else (method,)
        if not connected and method == "all" and args.w0 is None:
            methods = ("oracle",)
    if args.w0 is not None and "shelling" not in methods:
        raise InputError("--w0 applies only to the shelling method")
    if not connected:
        if args.half_open:
            raise po.DisconnectedPositroidError(
                "half-open h* needs a connected positroid; split with decompose_direct_sum")
        if methods != ("oracle",):
            raise po.DisconnectedPositroidError(
                f"method {method} needs a connected positroid; "
                "split with decompose_direct_sum and multiply Ehrhart factors")
        report["components"] = [list(g) for g in necklace.fact(po.necklace_components)]
    base = parse_word(args.w0) if args.w0 is not None else None
    results = hstar_routes(necklace, methods, args.half_open, base)
    if connected:
        # The oracle alone derives no labels; its h*(1), the normalized
        # volume, is the label count.
        report["num_simplices"] = (sum(results["oracle"]) if methods == ("oracle",)
                                   else len(necklace.fact(tg.enumerate_labels)))
    report["hstar"] = results
    report["verdict"] = agreement_verdict(results) if len(results) > 1 else None
    return report


def cmd_ehrhart(args) -> dict:
    from . import ehrhart as eh

    if args.tmax is not None and args.tmax < 0:
        raise InputError("--tmax must be nonnegative")
    kind, necklace = input_necklace(read_input(args.input))
    ehr = eh.ehrhart_of_positroid(necklace)
    tmax = args.tmax if args.tmax is not None else ehr.dim
    return {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "connected": necklace.fact(po.necklace_connected),
        "dim": ehr.dim,
        "ehrhart": [str(c) for c in ehr.coefficients],
        "counts": [ehr(t) for t in range(tmax + 1)],
        "hstar": poly_ints(ehr.hstar),
    }


def cmd_triangulate(args) -> dict:
    kind, necklace = input_necklace(read_input(args.input))
    labels = necklace.fact(tg.enumerate_labels)
    graph = tg.build_graph(labels)
    base = parse_word(args.w0) if args.w0 is not None else graph.words[0]
    poset = tg.shelling_poset(graph, base)
    affine = tg.affine_consistency_check(graph, poset)
    text = ["".join(map(str, w)) for w in graph.words]  # sorted, one string per label
    report = {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "num_simplices": len(labels),
        "labels": text,
        "edges": [[text[i], text[j]] for i, j in graph.index_edges()],
        "base": "".join(map(str, base)),
        # the poset and the windows list the labels in the order of graph.words
        "covers": dict(zip(text, poset.cover.values())),
        "windows": dict(zip(text, map(list, affine.windows.values()))),
        "affine_consistent": affine.ok,
        "hstar": poly_ints(tg.hstar_from_covers(poset.cover)),
    }
    if not affine.ok:
        report["affine_problems"] = list(affine.problems)
    return report


def cmd_tree(args) -> dict:
    from . import tree as tr

    kind, tau = parse_input(read_input(args.input))
    if kind != "subdivision":
        raise InputError("the tree command expects a subdivision "
                         '({"n": ..., "cells": [...]})')
    tree = tr.tree_positroid(tau)
    poly = tg.hstar_shelling(tree.necklace, parse_word(args.w0) if args.w0 is not None else None)
    arc_rows = [{"arc": [a.start, a.end], "facet_defining": a.facet_defining, "area": a.area}
                for a in tree.compatible_arcs]
    return {
        "input_kind": kind,
        "n": tau.n,
        "type": tau.type_count,
        "rank": tau.rank,
        "chains": [list(c) for c in tree.chains],
        "extensions": ["".join(map(str, w)) for w in tree.extensions],
        "necklace": [sorted(s) for s in tree.necklace.subsets],
        "num_vertices": len(tree.necklace.fact(po.bases_from_necklace).bases),
        "compatible_arcs": arc_rows,
        "hstar": poly_ints(poly),
    }


REPORTS = {"convert": cmd_convert, "hstar": cmd_hstar, "ehrhart": cmd_ehrhart,
           "triangulate": cmd_triangulate, "tree": cmd_tree}


# ---------------------------------------------------------------------------
# the per-positroid check of the exhaustive sweep (``verify.verify_exhaustive``)
# ---------------------------------------------------------------------------

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def _exhaustive_worker(subsets: tuple[tuple[int, ...], ...]) -> Check:
    from . import ehrhart as eh

    necklace = po.validate_necklace([frozenset(s) for s in subsets])
    name = necklace.compact()
    n = necklace.n
    stage = "labels"
    try:
        labels, reference = necklace.fact(tg.enumerate_labels), tg.labels_by_bases(necklace)
        if labels != reference:
            return _check(name, False, f"labels differ from the basis-membership reference: "
                                       f"{len(labels)} vs {len(reference)} labels, first at "
                                       f"{min(set(labels) ^ set(reference), default=None)}")
        stage = "graph"
        graph = tg.build_graph(labels)
        poset = tg.shelling_poset(graph, graph.words[0])
        edges = graph.edges()
        for u, v in edges:
            if abs(poset.dist[u] - poset.dist[v]) != 1:
                return _check(name, False, f"an edge does not join consecutive BFS layers: "
                                           f"{u} at {poset.dist[u]}, {v} at {poset.dist[v]}")
        if (cover_sum := sum(poset.cover.values())) != len(edges):
            return _check(name, False, f"cover sum differs from edge count: "
                                       f"{cover_sum} vs {len(edges)}")
        stage = "wall covers"
        # poset.base is graph.words[0] == labels[0], the shelling route's base, so
        # once checked these covers give that route's h*
        covers = tg.wall_covers(labels, poset.base)
        differing = next((w for w in graph.words if covers.get(w) != poset.cover[w]), None)
        if differing is not None:
            return _check(name, False, f"wall covers differ from the BFS covers from base "
                                       f"{poset.base}, first at {differing}")
        shelling = poly_ints(tg.hstar_from_covers(covers))
        stage = "closed profile"
        # the full necklace H-representation, read as a 0/1 polytope's
        # (``ehrhart._hrep_ehrhart``), fixes the oracle's h*, degree and all
        differs = "closed profile differs from the full H-representation count"
        try:
            reference, counted = eh._hrep_ehrhart(necklace)
        except (ValueError, ArithmeticError) as exc:
            return _check(name, False, f"{differs}: {exc}")
        try:
            ehr = eh.ehrhart_of_positroid(necklace)
        except ArithmeticError:
            # a wrong body fails its reciprocity check; name it when it is the body
            facets = eh.lattice_counts(necklace.fact(po.facet_representation), len(reference) - 1)
            if facets != reference:
                return _check(name, False, f"{differs}: facet counts {facets}, "
                                           f"full counts {reference}")
            raise
        if ehr != counted:
            return _check(name, False, f"{differs}: oracle h* {ehr.hstar}, "
                                       f"counted h* {counted.hstar}")
        if sum(shelling) != len(labels) or sum(ehr.hstar) != len(labels):
            return _check(name, False, f"h*(1), |D_J| and normalized volume differ: "
                                       f"{sum(shelling)}, {len(labels)}, {sum(ehr.hstar)}")
        stage = "closed routes"
        closed = {"shelling": shelling, **hstar_routes(necklace, CLOSED_METHODS[1:])}
        if agreement_verdict(closed) != "PASS":
            return _check(name, False, f"closed methods disagree: {closed}")
        if n > 1:
            stage = "half-open routes"
            half = hstar_routes(necklace, HALF_OPEN_METHODS, half_open=True)
            if agreement_verdict(half) != "PASS":
                return _check(name, False, f"half-open methods disagree: {half}")
            some = next(iter(closed.values()))
            if half["descents"][0] != 0 or sum(half["descents"]) != sum(some):
                return _check(name, False,
                              f"half-open h* shape is wrong: descents {half['descents']}")
        stage = "affine windows"
        affine = tg.affine_consistency_check(graph, poset)
        if not affine.ok:
            return _check(name, False, f"affine labeling: {affine.problems[0]}")
        stage = "unimodularity"
        if not tg.labels_are_unimodular(labels):
            return _check(name, False, "non-unimodular simplex")
    except Exception as exc:  # noqa: BLE001 - verification must report, not crash
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return _check(name, False, f"exception: {exc!r} at "
                      f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name} "
                      f"during {stage}")
    return _check(name, True, "")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="positroid-hstar",
        description="Exact h*-polynomials of positroid polytopes, four ways.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("input", nargs="?", help="inline value, file path, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--timing", action="store_true", help="include elapsed_ms in the report")

    p = sub.add_parser("convert", help="echo all three positroid representations")
    add_io(p)

    p = sub.add_parser("hstar", help="compute the h*-polynomial")
    add_io(p)
    p.add_argument("--method", choices=("shelling", "descents", "inclusion-exclusion",
                                        "oracle", "all"))
    p.add_argument("--w0", help="base label for the shelling (one-line permutation)")
    p.add_argument("--half-open", action="store_true", dest="half_open")

    p = sub.add_parser("ehrhart", help="Ehrhart polynomial by exact counting")
    add_io(p)
    p.add_argument("--tmax", type=int, help="report counts up to this dilate")

    p = sub.add_parser("triangulate", help="labels, dual graph, covers and windows")
    add_io(p)
    p.add_argument("--w0", help="base label (one-line permutation)")

    p = sub.add_parser("tree", help="bicolored-subdivision pipeline")
    add_io(p)
    p.add_argument("--w0", help="base label (one-line permutation)")

    p = sub.add_parser("atlas", help="all positroids of a given type, every method")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--scope", choices=("golden", "roundtrip", "exhaustive", "random", "all"),
                   default="golden")
    p.add_argument("--input", help="verify method agreement on one input instead")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--seed", type=int, default=20240814)
    p.add_argument("--w0-samples", type=int, default=50, dest="w0_samples")
    p.add_argument("--subdivision-samples", type=int, default=200, dest="subdivision_samples")
    p.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            check_out(args.out)
        if args.command in REPORTS:
            start = time.perf_counter()
            report = REPORTS[args.command](args)
            if args.timing:
                report["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 3)
            emit(report, args)
            code = EXIT_OK
        else:
            from . import verify

            code = verify.run_atlas(args) if args.command == "atlas" else verify.run_verify(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except po.DisconnectedPositroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except ValueError as exc:  # InputError, NecklaceError and SubdivisionError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ArithmeticError as exc:  # a count that fails its own check: a counting bug
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
