"""Command-line workbench: conversions, h* computation, atlases, verification.

Inputs are JSON objects keyed by representation ("necklace", "pi", "bases",
"cells") or, for necklaces with n <= 9, the compact digit form
"123,235,345,145,125".  Reports are JSON by default (CSV for atlases); all
polynomial output lists coefficients in ascending degree, with rationals
rendered as "p/q" strings.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 connectivity precondition violated.  A reader that closes stdout early
(``| head``) ends any command quietly with exit code 0: the rest of the
output goes to os.devnull and nothing is printed on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import ehrhart as eh
from . import halfopen as ho
from . import positroid as po
from . import tree as tr
from . import triangulation as tg
from .core import ExactPolynomial, circuit_subsets

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DISCONNECTED = 3

CLOSED_METHODS = ("shelling", "inclusion-exclusion", "oracle")
HALF_OPEN_METHODS = ("descents", "oracle")
INPUT_KEYS = ("necklace", "pi", "bases", "cells")
RANDOM_MAX_N = 7  # verify --scope random samples n <= 7 unless --max-n says otherwise


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_compact_necklace(text: str) -> po.GrassmannNecklace:
    parts = [p.strip() for p in text.strip().split(",") if p.strip()]
    if not parts:
        raise InputError("empty necklace text")
    subsets = []
    for p in parts:
        if not p.isdigit() and p != "-":
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
                return "necklace", po.validate_necklace(
                    [frozenset(_integers("necklace", s)) for s in doc["necklace"]], doc.get("n"))
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
                subsets = frozenset(frozenset(_integers("bases", b)) for b in doc["bases"])
                sizes = {len(b) for b in subsets}
                if len(sizes) != 1:
                    raise InputError("bases must all have the same size")
                n = doc["n"] if "n" in doc else max(max(b) for b in subsets)
                bases = po.PositroidBases(n, sizes.pop(), subsets)
                if not po.is_matroid(bases):
                    raise InputError("basis set fails the exchange axiom")
                return "bases", bases
            if "cells" in doc:
                cells = [(c["color"], _integers("vertices", c["vertices"])) for c in doc["cells"]]
                return "subdivision", tr.validate_subdivision(doc["n"], cells)
        except (po.NecklaceError, tr.SubdivisionError, ValueError, KeyError, TypeError) as exc:
            raise InputError(str(exc)) from exc
        raise InputError(f"JSON object needs one of the keys: {', '.join(INPUT_KEYS)}")
    return "necklace", parse_compact_necklace(text)


def _integers(field: str, values: Iterable[object]) -> list[int]:
    """The entries of an integer field, as a list; floats, booleans and the
    like are input errors (``1.0`` and ``true`` would otherwise pass as 1)."""
    out = list(values)
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int):
            raise InputError(f"{field}: expected an integer, got {json.dumps(v)}")
    return out


def read_input(value: str | None) -> str:
    """Input text from an inline value or a file path; '-' reads stdin."""
    if value is None:
        raise InputError("no input given")
    if value == "-":
        return sys.stdin.read()
    if os.path.exists(value):
        try:
            with open(value, encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {value}: {exc.strerror}") from None
    return value


def to_necklace(kind: str, value: object) -> po.GrassmannNecklace:
    if kind == "necklace":
        return value
    if kind == "decorated":
        return po.necklace_from_decorated(value)
    if kind == "bases":
        necklace = po.necklace_from_bases(value)
        if necklace.fact(po.bases_from_necklace).bases != value.bases:
            raise InputError("basis set is a matroid but not a positroid "
                             "(its necklace generates a strictly larger one)")
        return necklace
    if kind == "subdivision":
        return tr.positroid_from_subdivision(value)[0]
    raise InputError(f"cannot build a necklace from {kind}")


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


def poly_rationals(poly: ExactPolynomial) -> list[str]:
    return [str(c) for c in poly.coefficients]


def open_out(path: str):
    """The --out file, opened for writing; an OS error is an input error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"--out: cannot write {path}: {exc.strerror}") from None


def emit(report: dict, args) -> None:
    out = sys.stdout
    if getattr(args, "out", None):
        out = open_out(args.out)
    try:
        if getattr(args, "format", "json") == "text":
            _emit_text(report, out)
        else:
            # a few thousand encoder chunks per write: stdout may be unbuffered
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
            while batch := list(itertools.islice(chunks, 4096)):
                out.write("".join(batch))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _emit_text(report: dict, out, prefix: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            out.write(f"{prefix}{key}:\n")
            _emit_text(value, out, prefix + "  ")
        else:
            out.write(f"{prefix}{key}: {value}\n")


def _maybe_time(report: dict, args, start: float) -> dict:
    if getattr(args, "timing", False):
        report["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 3)
    return report


# ---------------------------------------------------------------------------
# computations shared by commands and the verifier
# ---------------------------------------------------------------------------

def hstar_closed_all_methods(necklace: po.GrassmannNecklace,
                             methods: Sequence[str] = CLOSED_METHODS,
                             base: tuple[int, ...] | None = None) -> dict[str, list[int]]:
    out = {}
    for method in methods:
        if method == "shelling":
            out[method] = poly_ints(tg.hstar_shelling(necklace, base))
        elif method == "inclusion-exclusion":
            out[method] = poly_ints(ho.hstar_closed_via_inclusion_exclusion(necklace))
        elif method == "oracle":
            out[method] = poly_ints(eh.hstar_by_counting(necklace))
        else:
            raise InputError(f"method {method!r} does not compute a closed h*")
    return out


def hstar_half_open_all_methods(necklace: po.GrassmannNecklace,
                                methods: Sequence[str] = HALF_OPEN_METHODS) -> dict[str, list[int]]:
    out = {}
    for method in methods:
        if method == "descents":
            out[method] = poly_ints(ho.hstar_half_open(necklace))
        elif method == "oracle":
            out[method] = poly_ints(ho.hstar_half_open_by_counting(necklace))
        else:
            raise InputError(f"method {method!r} does not compute a half-open h*")
    return out


def agreement_verdict(results: dict[str, list[int]]) -> str:
    return "PASS" if len({tuple(v) for v in results.values()}) == 1 else "FAIL"


def check_jobs(jobs: int) -> None:
    """--jobs must lie in 1..os.cpu_count(); checked before any pool exists."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise InputError(f"--jobs must be between 1 and {cpus} (the CPU count), got {jobs}")


def _map_jobs(worker: Callable, payloads: list, jobs: int) -> list:
    """``worker`` over ``payloads`` in order; a process pool runs it when jobs > 1."""
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(worker, payloads)
    return [worker(p) for p in payloads]


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

def cmd_convert(args) -> int:
    start = time.perf_counter()
    kind, value = parse_input(read_input(args.input))
    necklace = to_necklace(kind, value)
    bases = necklace.fact(po.bases_from_necklace)
    dec = po.decorated_from_necklace(necklace)
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
        report["components"] = [list(g) for g, _ in po.decompose_direct_sum(bases)]
    emit(_maybe_time(report, args, start), args)
    return EXIT_OK


def cmd_hstar(args) -> int:
    start = time.perf_counter()
    kind, value = parse_input(read_input(args.input))
    necklace = to_necklace(kind, value)
    connected = necklace.fact(po.necklace_connected)
    half_open = args.half_open
    method = args.method or ("descents" if half_open else "shelling")

    report = {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "necklace": [sorted(s) for s in necklace.subsets],
        "connected": connected,
        "half_open": half_open,
    }
    if half_open:
        if method in ("shelling", "inclusion-exclusion"):
            raise InputError(f"method {method} does not apply to half-open polytopes; "
                             "use descents or oracle")
        methods = HALF_OPEN_METHODS if method == "all" else (method,)
    else:
        if method == "descents":
            raise InputError("the descent formula computes the half-open h*; "
                             "pass --half-open (or use inclusion-exclusion)")
        methods = CLOSED_METHODS if method == "all" else (method,)
        if not connected and method == "all":
            methods = ("oracle",)
    if args.w0 is not None and "shelling" not in methods:
        raise InputError("--w0 applies only to the shelling method")
    if half_open:
        if not connected:
            print("error: half-open h* needs a connected positroid; "
                  "split with decompose_direct_sum", file=sys.stderr)
            return EXIT_DISCONNECTED
        results = hstar_half_open_all_methods(necklace, methods)
    else:
        if not connected:
            if methods != ("oracle",):
                print(f"error: method {method} needs a connected positroid; "
                      "split with decompose_direct_sum and multiply Ehrhart factors",
                      file=sys.stderr)
                return EXIT_DISCONNECTED
            bases = necklace.fact(po.bases_from_necklace)
            report["components"] = [list(g) for g, _ in po.decompose_direct_sum(bases)]
        base = parse_word(args.w0) if args.w0 is not None else None
        results = hstar_closed_all_methods(necklace, methods, base)
    if connected:
        # The oracle alone derives no labels; its h*(1), the normalized
        # volume, is the label count.
        report["num_simplices"] = (sum(results["oracle"]) if methods == ("oracle",)
                                   else len(necklace.fact(tg.enumerate_labels)))
    report["hstar"] = results
    report["verdict"] = agreement_verdict(results) if len(results) > 1 else None
    emit(_maybe_time(report, args, start), args)
    return EXIT_OK


def cmd_ehrhart(args) -> int:
    start = time.perf_counter()
    if args.tmax is not None and args.tmax < 0:
        raise InputError("--tmax must be nonnegative")
    kind, value = parse_input(read_input(args.input))
    necklace = to_necklace(kind, value)
    ehr = eh.ehrhart_of_positroid(necklace)
    tmax = args.tmax if args.tmax is not None else ehr.dim
    report = {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "connected": necklace.fact(po.necklace_connected),
        "dim": ehr.dim,
        "ehrhart": poly_rationals(ehr.poly),
        "counts": [int(ehr(t)) for t in range(tmax + 1)],
        "hstar": poly_ints(eh.hstar_by_counting(necklace)),
    }
    emit(_maybe_time(report, args, start), args)
    return EXIT_OK


def cmd_triangulate(args) -> int:
    start = time.perf_counter()
    kind, value = parse_input(read_input(args.input))
    necklace = to_necklace(kind, value)
    labels = necklace.fact(tg.enumerate_labels)
    graph = tg.build_graph(labels)
    base = parse_word(args.w0) if args.w0 is not None else graph.words[0]
    poset = tg.shelling_poset(graph, base)
    affine = tg.affine_consistency_check(graph, poset)
    report = {
        "input_kind": kind,
        "n": necklace.n,
        "rank": necklace.rank,
        "num_simplices": len(labels),
        "labels": ["".join(map(str, w)) for w in labels],
        "edges": [["".join(map(str, u)), "".join(map(str, v))] for u, v in graph.edges()],
        "base": "".join(map(str, base)),
        "covers": {"".join(map(str, w)): c for w, c in sorted(poset.cover.items())},
        "windows": {"".join(map(str, w)): list(win) for w, win in sorted(affine.windows.items())},
        "affine_consistent": affine.ok,
        "hstar": poly_ints(tg.hstar_from_covers(poset.cover)),
    }
    if not affine.ok:
        report["affine_problems"] = list(affine.problems)
    emit(_maybe_time(report, args, start), args)
    return EXIT_OK


def cmd_tree(args) -> int:
    start = time.perf_counter()
    kind, tau = parse_input(read_input(args.input))
    if kind != "subdivision":
        raise InputError("the tree command expects a subdivision "
                         '({"n": ..., "cells": [...]})')
    tree = tr.tree_positroid(tau)
    poly = tg.hstar_shelling(tree.necklace, parse_word(args.w0) if args.w0 is not None else None)
    arc_rows = [{"arc": [a.start, a.end], "facet_defining": a.facet_defining, "area": a.area}
                for a in tr.arcs(tau) if a.compatible]
    report = {
        "input_kind": kind,
        "n": tau.n,
        "type": tau.type_count,
        "rank": tau.rank,
        "chains": [list(c) for c in tree.chains],
        "extensions": ["".join(map(str, w)) for w in tree.extensions],
        "necklace": [sorted(s) for s in tree.necklace.subsets],
        "num_vertices": len(tree.bases.bases),
        "compatible_arcs": arc_rows,
        "hstar": poly_ints(poly),
    }
    emit(_maybe_time(report, args, start), args)
    return EXIT_OK


def _atlas_row(dec: po.DecoratedPermutation) -> dict:
    necklace = po.necklace_from_decorated(dec)
    bases = necklace.fact(po.bases_from_necklace)
    connected = necklace.fact(po.necklace_connected)
    row = {
        "pi": list(dec.perm),
        "white": sorted(dec.white),
        "necklace": [sorted(s) for s in necklace.subsets],
        "n": necklace.n,
        "rank": necklace.rank,
        "connected": connected,
        "num_bases": len(bases.bases),
    }
    results = hstar_closed_all_methods(necklace, CLOSED_METHODS if connected else ("oracle",))
    if connected:
        row["num_simplices"] = len(necklace.fact(tg.enumerate_labels))
    row["hstar"] = results
    row["verdict"] = agreement_verdict(results)
    return row


def _atlas_worker(payload: tuple[tuple[int, ...], tuple[int, ...]]) -> dict:
    perm, white = payload
    return _atlas_row(po.DecoratedPermutation(perm, frozenset(white)))


def size_cap() -> int:
    value = os.environ.get("POSITROID_MAX_N", "7")
    if not value.isdigit():
        raise InputError(f"POSITROID_MAX_N must be a nonnegative integer, got {value!r}")
    return int(value)


def cmd_atlas(args) -> int:
    if args.n < 1:
        raise InputError("--n must be positive")
    check_jobs(args.jobs)
    if args.n > size_cap():
        print(f"error: n = {args.n} exceeds the size cap {size_cap()} "
              "(override with POSITROID_MAX_N)", file=sys.stderr)
        return EXIT_BAD_INPUT
    selected = []
    for dec in all_decorated_permutations(args.n):
        necklace = po.necklace_from_decorated(dec)
        if args.rank is not None and necklace.rank != args.rank:
            continue
        selected.append((dec.perm, tuple(sorted(dec.white))))
    rows = _map_jobs(_atlas_worker, selected, args.jobs)
    if args.connected_only:
        rows = [r for r in rows if r["connected"]]
    out = sys.stdout if not args.out else open_out(args.out)
    try:
        if args.format == "csv":
            _write_atlas_csv(rows, out)
        else:
            for row in rows:
                out.write(json.dumps(row, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _write_atlas_csv(rows: list[dict], out) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pi", "white", "necklace", "n", "rank", "connected",
                     "num_bases", "num_simplices", "hstar", "verdict"])
    for r in rows:
        hstar = r["hstar"].get("shelling") or r["hstar"]["oracle"]
        writer.writerow([
            "".join(map(str, r["pi"])),
            "".join(map(str, r["white"])),
            ",".join("".join(map(str, s)) for s in r["necklace"]),
            r["n"], r["rank"], r["connected"], r["num_bases"],
            r.get("num_simplices", ""),
            " ".join(map(str, hstar)),
            r["verdict"],
        ])


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


def verify_golden() -> list[Check]:
    """Golden fixtures: small instances with known values, every pipeline."""
    checks: list[Check] = []

    pyramid = po.validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
    checks.append(_check(
        "pyramid bases",
        po.bases_from_necklace(pyramid).sorted_bases() ==
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4)), "necklace 12,23,13,14"))
    checks.append(_check(
        "pyramid labels",
        tg.enumerate_labels(pyramid) == ((1, 3, 2, 4), (2, 1, 3, 4)), ""))
    checks.append(_check(
        "pyramid h* closed",
        all(h == [1, 1] for h in hstar_closed_all_methods(pyramid).values()), "1+z"))
    checks.append(_check(
        "pyramid h* half-open",
        all(h == [0, 0, 2] for h in hstar_half_open_all_methods(pyramid).values()), "2z^2"))
    uppers = [str(f) for f in po.canonical_facets(pyramid) if f.upper]
    checks.append(_check(
        "pyramid upper facets",
        uppers == ["x_1 <= 1", "x_1+x_2+x_3 <= 2", "x_2 <= 1"], "; ".join(uppers)))
    mu = _moebius_by_dim(pyramid)
    checks.append(_check(
        "pyramid Moebius",
        mu[2] == [-1, -1, -1] and mu[1] == [1, 1] and mu[0] == [0], str(mu)))

    fig1 = po.validate_necklace([[1, 2, 3], [2, 3, 5], [3, 4, 5], [1, 4, 5], [1, 2, 5]])
    graph1 = tg.build_graph(tg.enumerate_labels(fig1))
    cov1 = tg.shelling_poset(graph1, (2, 4, 1, 3, 5)).cover
    checks.append(_check(
        "rank-3 wheel cover multiset",
        sorted(cov1.values()) == [0, 1, 1, 1, 1, 2, 2, 2]
        and poly_ints(tg.hstar_shelling(fig1)) == [1, 4, 3], "1+4z+3z^2"))

    uniform = po.validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    graph_u = tg.build_graph(tg.enumerate_labels(uniform))
    checks.append(_check(
        "rank-2 uniform graph",
        len(graph_u.words) == 11 and len(graph_u.edges()) == 15, "11 labels, 15 edges"))
    checks.append(_check(
        "rank-2 uniform h*",
        poly_ints(tg.hstar_shelling(uniform)) == [1, 5, 5]
        and poly_ints(ho.hstar_closed_via_inclusion_exclusion(uniform)) == [1, 5, 5], "1+5z+5z^2"))
    checks.append(_check(
        "rank-2 uniform half-open",
        poly_ints(ho.hstar_half_open(uniform)) == [0, 0, 10, 1], "10z^2+z^3"))
    affine = tg.affine_consistency_check(graph_u, tg.shelling_poset(graph_u, (3, 1, 4, 2, 5)))
    expected_windows = {
        (3, 1, 4, 2, 5): (1, 2, 3, 4, 5),
        (1, 3, 4, 2, 5): (2, 1, 3, 4, 5),
        (3, 4, 1, 2, 5): (1, 3, 2, 4, 5),
        (3, 1, 2, 4, 5): (1, 2, 4, 3, 5),
        (2, 3, 1, 4, 5): (1, 2, 3, 5, 4),
        (1, 4, 2, 3, 5): (0, 2, 3, 4, 6),
        (1, 3, 2, 4, 5): (2, 1, 4, 3, 5),
        (2, 1, 3, 4, 5): (2, 1, 3, 5, 4),
        (1, 2, 4, 3, 5): (0, 2, 4, 3, 6),
        (2, 3, 4, 1, 5): (1, 3, 2, 5, 4),
        (4, 1, 2, 3, 5): (0, 3, 2, 4, 6),
    }
    checks.append(_check(
        "affine windows",
        affine.ok and dict(affine.windows) == expected_windows,
        "base 31425; 14235 -> [0,2,3,4,6]"))

    prism = po.validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
    labels3 = tg.enumerate_labels(prism)
    checks.append(_check(
        "rank-3 five-simplex labels",
        labels3 ==
        ((2, 4, 1, 3, 5), (3, 2, 4, 1, 5), (3, 4, 2, 1, 5), (4, 1, 3, 2, 5), (4, 2, 1, 3, 5)),
        "24135 32415 34215 41325 42135"))
    graph3 = tg.build_graph(labels3)
    expected_edges = {((2, 4, 1, 3, 5), (3, 2, 4, 1, 5)), ((2, 4, 1, 3, 5), (4, 1, 3, 2, 5)),
                      ((2, 4, 1, 3, 5), (4, 2, 1, 3, 5)), ((3, 2, 4, 1, 5), (3, 4, 2, 1, 5)),
                      ((3, 4, 2, 1, 5), (4, 2, 1, 3, 5))}
    checks.append(_check("rank-3 five-simplex edges", set(graph3.edges()) == expected_edges,
                         "5 edges"))
    cov3 = tg.shelling_poset(graph3, (2, 4, 1, 3, 5)).cover
    checks.append(_check(
        "rank-3 five-simplex covers",
        cov3 == {(2, 4, 1, 3, 5): 0, (4, 2, 1, 3, 5): 1, (3, 2, 4, 1, 5): 1,
                 (4, 1, 3, 2, 5): 1, (3, 4, 2, 1, 5): 2}, "cover(34215) = 2"))
    checks.append(_check(
        "rank-3 five-simplex h*",
        all(h == [1, 3, 1] for h in hstar_closed_all_methods(prism).values()), "1+3z+z^2"))
    checks.append(_check(
        "rank-3 five-simplex half-open",
        all(h == [0, 0, 1, 4] for h in hstar_half_open_all_methods(prism).values()),
        "z^2+4z^3"))
    uppers3 = [str(f) for f in po.canonical_facets(prism) if f.upper]
    checks.append(_check(
        "rank-3 five-simplex uppers",
        uppers3 == ["x_1 <= 1", "x_1+x_2+x_3 <= 2", "x_2 <= 1", "x_4 <= 1"],
        "; ".join(uppers3)))
    hrep3 = po.h_representation(prism)
    prism_face = eh.face_hstar(hrep3, [(1, 4, 2)], 3)
    checks.append(_check("prism facet h*", poly_ints(prism_face) == [1, 2], "1+2z"))
    prism_ehr = eh.ehrhart_interpolate(eh.CountProfile(
        3, tuple(eh.count_points(hrep3, t, equalities=[(1, 4, 2)]) for t in range(4))))
    triangle_times_segment = eh.ehrhart_product([
        eh.EhrhartPolynomial(ExactPolynomial.from_coefficients(
            [1, Fraction(3, 2), Fraction(1, 2)]), 2),
        eh.EhrhartPolynomial(ExactPolynomial.from_coefficients([1, 1]), 1)])
    checks.append(_check(
        "prism facet Ehrhart",
        prism_ehr.poly == triangle_times_segment.poly, "C(t+2,2)(1+t)"))
    square_face = eh.face_hstar(hrep3, [(1, 2, 1), (1, 4, 2)], 2)
    checks.append(_check("square face h*", poly_ints(square_face) == [1, 1], "1+z"))
    mu3 = _moebius_by_dim(prism)
    checks.append(_check(
        "rank-3 five-simplex Moebius",
        mu3[3] == [-1, -1, -1, -1] and mu3[2] == [1] * 5 and mu3[1] == [-1, -1, 0]
        and mu3[0] == [0], str(dict(sorted(mu3.items())))))

    circuit = [''.join(map(str, sorted(s))) for s in circuit_subsets((3, 2, 4, 1, 5))]
    checks.append(_check(
        "circuit of 32415",
        circuit == ["135", "235", "245", "124", "125"], "->".join(circuit)))
    verts = set(tg.simplex_vertices((3, 2, 4, 1, 5)))
    checks.append(_check(
        "vertices of 32415 simplex",
        verts == {(1, 1, 0, 0, 1), (1, 0, 1, 0, 1), (0, 1, 1, 0, 1),
                  (0, 1, 0, 1, 1), (1, 1, 0, 1, 0)}, ""))
    facets = {(q.start, q.stop, q.sense, q.bound)
              for q in tg.simplex_facets((3, 2, 4, 1, 5)).inequalities}
    checks.append(_check(
        "facets of projected 32415 simplex",
        facets == {(1, 5, ">=", 2), (3, 5, "<=", 1), (2, 3, "<=", 1),
                   (2, 4, ">=", 1), (1, 4, "<=", 2)}, ""))

    square = tr.validate_subdivision(4, [("black", [1, 2, 3]), ("white", [1, 3, 4])])
    pentagon = tr.validate_subdivision(
        5, [("black", [1, 2, 3]), ("white", [1, 3, 4]), ("black", [1, 4, 5])])
    checks.append(_check(
        "square subdivision",
        tr.tau_order(square) == ((1, 3, 4), (3, 2, 1))
        and tr.circular_extensions(tr.tau_order(square), 4) == ((1, 3, 2, 4), (2, 1, 3, 4))
        and poly_ints(tr.hstar_tree(square)) == [1, 1], "chains (3,2,1), (1,3,4)"))
    checks.append(_check(
        "pentagon subdivision",
        tr.tau_order(pentagon) == ((1, 3, 4), (3, 2, 1), (5, 4, 1))
        and poly_ints(tr.hstar_tree(pentagon)) == [1, 3, 1], "1+3z+z^2"))
    arcs9 = {(a.start, a.end): a for a in tr.arcs(square)}
    checks.append(_check(
        "square arcs",
        arcs9[(1, 3)].facet_defining and arcs9[(1, 3)].area == 1
        and not arcs9[(2, 4)].compatible, "1->3 facet-defining, 2->4 not compatible"))

    dec = po.decorated_from_necklace(pyramid)
    checks.append(_check(
        "pyramid decorated permutation",
        dec.perm == (3, 1, 4, 2) and not dec.fixed_points
        and po.necklace_from_decorated(dec) == pyramid, "3142"))
    disco = po.PositroidBases(4, 2, frozenset(
        frozenset(b) for b in [(1, 3), (1, 4), (2, 3), (2, 4)]))
    parts = po.decompose_direct_sum(disco)
    product = eh.ehrhart_product(
        [eh.ehrhart_of_positroid(po.necklace_from_bases(comp)) for _, comp in parts])
    disco_necklace = po.necklace_from_bases(disco)
    checks.append(_check(
        "direct sum split",
        [g for g, _ in parts] == [(1, 2), (3, 4)]
        and not po.is_connected(disco)
        and eh.ehrhart_of_positroid(disco_necklace) == product
        and poly_ints(eh.hstar_by_counting(disco_necklace)) == [1, 1],
        "U(1,2) + U(1,2); product h* = 1+z"))
    return checks


def _moebius_by_dim(necklace: po.GrassmannNecklace) -> dict[int, list[int]]:
    """Sorted Moebius values of the upper-facet face poset, by face dimension."""
    by_dim: dict[int, list[int]] = {}
    for node, value in ho.moebius(ho.face_poset_of_uppers(necklace)).items():
        by_dim.setdefault(node.dim, []).append(value)
    return {d: sorted(v) for d, v in by_dim.items()}


def _exhaustive_worker(subsets: tuple[tuple[int, ...], ...]) -> Check:
    necklace = po.validate_necklace([frozenset(s) for s in subsets])
    name = necklace.compact()
    n = necklace.n
    stage = "labels"
    try:
        labels = necklace.fact(tg.enumerate_labels)
        if labels != tg.labels_by_bases(necklace):
            return _check(name, False, "labels differ from the basis-membership reference")
        stage = "graph"
        graph = tg.build_graph(labels)
        poset = tg.shelling_poset(graph, graph.words[0])
        edges = graph.edges()
        if any(abs(poset.dist[u] - poset.dist[v]) != 1 for u, v in edges):
            return _check(name, False, "an edge does not join consecutive BFS layers")
        if sum(poset.cover.values()) != len(edges):
            return _check(name, False, "cover sum differs from edge count")
        stage = "wall covers"
        walls = tg.wall_covers(labels, poset.base)
        differing = next((w for w in graph.words if walls.get(w) != poset.cover[w]), None)
        if differing is not None:
            return _check(name, False, f"wall covers differ from the BFS covers from base "
                                       f"{poset.base}, first at {differing}")
        stage = "closed profile"
        reference = eh.closed_profile(necklace.fact(po.h_representation), n - 1)
        if necklace.fact(eh._closed_profile) != reference:
            return _check(name, False,
                          "closed profile differs from the full H-representation count")
        ehr = eh.ehrhart_of_positroid(necklace)
        volume = ehr.leading_coefficient * math.factorial(ehr.dim)
        if sum(tg.hstar_from_covers(poset.cover)) != len(labels) or volume != len(labels):
            return _check(name, False, "h*(1), |D_J| and normalized volume differ")
        stage = "closed routes"
        closed = hstar_closed_all_methods(necklace)
        if agreement_verdict(closed) != "PASS":
            return _check(name, False, f"closed methods disagree: {closed}")
        if n > 1:
            stage = "half-open routes"
            half = hstar_half_open_all_methods(necklace)
            if agreement_verdict(half) != "PASS":
                return _check(name, False, f"half-open methods disagree: {half}")
            some = next(iter(closed.values()))
            if half["descents"][0] != 0 or sum(half["descents"]) != sum(some):
                return _check(name, False, "half-open h* shape is wrong")
        stage = "affine windows"
        affine = tg.affine_consistency_check(graph, poset)
        if not affine.ok:
            return _check(name, False, f"affine labeling: {affine.problems[0]}")
        stage = "unimodularity"
        if not all(tg.simplex_is_unimodular(lab) for lab in labels):
            return _check(name, False, "non-unimodular simplex")
    except Exception as exc:  # noqa: BLE001 - verification must report, not crash
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return _check(name, False, f"exception: {exc!r} at "
                      f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name} "
                      f"during {stage}")
    return _check(name, True, "")


def verify_exhaustive(max_n: int, jobs: int = 1) -> list[Check]:
    """Cross-method agreement and shelling structure on every connected positroid."""
    payloads = []
    for n in range(1, max_n + 1):
        for necklace in connected_necklaces(n):
            payloads.append(tuple(tuple(sorted(s)) for s in necklace.subsets))
    results = _map_jobs(_exhaustive_worker, payloads, jobs)
    summary = _check(f"exhaustive sweep n <= {max_n}",
                     all(ok for _, ok, _ in results),
                     f"{len(results)} connected positroids")
    failures = [c for c in results if not c[1]]
    return [summary] + failures


def verify_roundtrips(max_n: int) -> list[Check]:
    """Round trips of the two bijections, plus the connectivity cross-check.

    For every decorated permutation the rank-split connectivity answer
    (`positroid.is_connected` on the bases) must match the
    stabilized-interval-free rule of `positroid.necklace_connected`.
    """
    bad_trip = 0
    bad_sif = 0
    total = 0
    for n in range(1, max_n + 1):
        for dec in all_decorated_permutations(n):
            total += 1
            necklace = po.necklace_from_decorated(dec)
            if po.decorated_from_necklace(necklace) != dec:
                bad_trip += 1
                continue
            if po.necklace_from_decorated(po.decorated_from_necklace(necklace)) != necklace:
                bad_trip += 1
            connected = po.is_connected(necklace.fact(po.bases_from_necklace))
            if connected != necklace.fact(po.necklace_connected):
                bad_sif += 1
    return [_check(f"necklace/decorated round trips n <= {max_n}", bad_trip == 0,
                   f"{total} decorated permutations"),
            _check(f"rank-split vs interval-free connectivity n <= {max_n}",
                   bad_sif == 0, f"{total} decorated permutations")]


def verify_random(seed: int, w0_samples: int, subdivision_samples: int,
                  max_n: int = RANDOM_MAX_N) -> list[Check]:
    rng = random.Random(seed)
    checks = []

    def sample_connected() -> po.GrassmannNecklace:
        while True:
            n = rng.randrange(2, max_n + 1)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            necklace = po.necklace_from_decorated(po.DecoratedPermutation(tuple(perm)))
            if necklace.fact(po.necklace_connected):
                return necklace

    bad = 0
    for _ in range(w0_samples):
        necklace = sample_connected()
        labels = necklace.fact(tg.enumerate_labels)
        graph = tg.build_graph(labels)
        covers = [tg.shelling_poset(graph, w).cover for w in graph.words]
        polys = {tg.hstar_from_covers(cover) for cover in covers}
        walls = tg.label_walls(labels)
        if (len(polys) != 1 or labels != tg.labels_by_bases(necklace)
                or any(tg.wall_covers(walls, w) != cover
                       for w, cover in zip(graph.words, covers))):
            bad += 1
    checks.append(_check(f"base-point independence ({w0_samples} samples, n <= {max_n})",
                         bad == 0, f"seed {seed}"))

    bad = 0
    for _ in range(subdivision_samples):
        n = rng.randrange(4, max_n + 1)
        tau = tr.random_subdivision(n, rng)
        try:
            tree = tr.tree_positroid(tau)
            graph = tg.build_graph(tree.necklace.fact(tg.enumerate_labels))
            graph_hstar = tg.hstar_from_covers(tg.shelling_poset(graph, graph.words[0]).cover)
            if tg.hstar_shelling(tree.necklace) != graph_hstar:
                bad += 1
        except Exception:  # noqa: BLE001 - a failed extensions/labels assertion counts as bad
            bad += 1
    checks.append(_check(f"subdivision agreement ({subdivision_samples} samples, n <= {max_n})",
                         bad == 0, f"seed {seed}"))
    return checks


def verify_single_input(text: str) -> list[Check]:
    """Method agreement on one user-supplied positroid."""
    try:
        kind, value = parse_input(text)
        necklace = to_necklace(kind, value)
        if not necklace.fact(po.necklace_connected):
            poly = hstar_closed_all_methods(necklace, ("oracle",))["oracle"]
            return [_check("disconnected input oracle h*", poly[0] == 1, str(poly))]
        closed = hstar_closed_all_methods(necklace)
        checks = [_check("closed method agreement", agreement_verdict(closed) == "PASS",
                         json.dumps(closed, sort_keys=True))]
        if necklace.n > 1:
            half = hstar_half_open_all_methods(necklace)
            checks.append(_check("half-open method agreement",
                                 agreement_verdict(half) == "PASS",
                                 json.dumps(half, sort_keys=True)))
        return checks
    except (InputError, po.NecklaceError, tr.SubdivisionError, ValueError) as exc:
        return [_check("input verification", False, str(exc))]


def cmd_verify(args) -> int:
    check_jobs(args.jobs)
    checks: list[Check] = []
    if args.input:
        checks += verify_single_input(read_input(args.input))
    else:
        scope = args.scope
        if scope == "random" and args.max_n is not None and args.max_n < 4:
            raise InputError("--max-n must be at least 4 for the random scope "
                             "(subdivision sampling needs n >= 4)")
        max_n = args.max_n if args.max_n is not None else min(6, size_cap())
        if scope in ("golden", "all"):
            checks += verify_golden()
        if scope in ("roundtrip", "exhaustive", "all"):
            checks += verify_roundtrips(max_n)
        if scope in ("exhaustive", "all"):
            checks += verify_exhaustive(max_n, args.jobs)
        if scope in ("random", "all"):
            # only --scope random reads --max-n: under all it bounds the sweeps alone
            explicit = scope == "random" and args.max_n is not None
            checks += verify_random(args.seed, args.w0_samples, args.subdivision_samples,
                                    args.max_n if explicit else RANDOM_MAX_N)
    width = max(len(name) for name, _, _ in checks)
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name:<{width}}"
        if detail:
            line += f"  {detail}"
        print(line)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if failed:
        print("first failure:", json.dumps(
            {"name": failed[0][0], "detail": failed[0][2]}, sort_keys=True))
        return EXIT_VERIFY_FAILED
    return EXIT_OK


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
    handlers = {
        "convert": cmd_convert,
        "hstar": cmd_hstar,
        "ehrhart": cmd_ehrhart,
        "triangulate": cmd_triangulate,
        "tree": cmd_tree,
        "atlas": cmd_atlas,
        "verify": cmd_verify,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe must surface here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (InputError, po.NecklaceError, tr.SubdivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except po.DisconnectedPositroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
