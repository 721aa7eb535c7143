"""The batch commands: the verification suites and the atlas.

Only ``verify`` and ``atlas`` import this module, so a single query does not
load the suites or the tree pipeline.  The per-positroid check of the
exhaustive sweep, ``cli._exhaustive_worker``, stays in ``cli``; this module
maps it over the sweep.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable

from . import ehrhart as eh
from . import halfopen as ho
from . import positroid as po
from . import tree as tr
from . import triangulation as tg
from .cli import (
    CLOSED_METHODS,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    Check,
    InputError,
    _check,
    _exhaustive_worker,
    agreement_verdict,
    all_decorated_permutations,
    connected_necklaces,
    hstar_closed_all_methods,
    hstar_half_open_all_methods,
    open_out,
    parse_input,
    poly_ints,
    read_input,
    to_necklace,
)
from .core import ExactPolynomial, circuit_subsets

RANDOM_MAX_N = 7  # verify --scope random samples n <= min(7, size cap) unless given --max-n


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


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

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


def check_cap(n: int) -> None:
    if n > (cap := size_cap()):
        raise InputError(f"n = {n} exceeds the size cap {cap} (override with POSITROID_MAX_N)")


def run_atlas(args) -> int:
    """The atlas command."""
    if args.n < 1:
        raise InputError("--n must be positive")
    if args.rank is not None and not 0 <= args.rank <= args.n:
        raise InputError(f"--rank must be between 0 and {args.n}, got {args.rank}")
    check_jobs(args.jobs)
    check_cap(args.n)
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

def _moebius_by_dim(necklace: po.GrassmannNecklace) -> dict[int, list[int]]:
    """Sorted Moebius values of the upper-facet face poset, by face dimension."""
    by_dim: dict[int, list[int]] = {}
    for node, value in ho.moebius(ho.face_poset_of_uppers(necklace)).items():
        by_dim.setdefault(node.dim, []).append(value)
    return {d: sorted(v) for d, v in by_dim.items()}


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
    except ValueError as exc:  # InputError, NecklaceError and SubdivisionError among them
        return [_check("input verification", False, str(exc))]


def run_verify(args) -> int:
    """The verify command."""
    check_jobs(args.jobs)
    scope = args.scope
    if scope in ("random", "all") and not args.input:
        # only --scope random reads --max-n: under all it bounds the sweeps alone
        random_max_n = (args.max_n if scope == "random" and args.max_n is not None
                        else min(RANDOM_MAX_N, size_cap()))
        if random_max_n < 4:
            raise InputError("--max-n must be at least 4 for the random scope "
                             "(subdivision sampling needs n >= 4)")
    if args.max_n is not None:
        if args.max_n < 1:
            raise InputError(f"--max-n must be positive, got {args.max_n}")
        check_cap(args.max_n)
    for flag, samples in (("--w0-samples", args.w0_samples),
                          ("--subdivision-samples", args.subdivision_samples)):
        if samples < 0:
            raise InputError(f"{flag} must be nonnegative, got {samples}")
    checks: list[Check] = []
    if args.input:
        checks += verify_single_input(read_input(args.input))
    else:
        max_n = args.max_n if args.max_n is not None else min(6, size_cap())
        if scope in ("golden", "all"):
            checks += verify_golden()
        if scope in ("roundtrip", "exhaustive", "all"):
            checks += verify_roundtrips(max_n)
        if scope in ("exhaustive", "all"):
            checks += verify_exhaustive(max_n, args.jobs)
        if scope in ("random", "all"):
            checks += verify_random(args.seed, args.w0_samples, args.subdivision_samples,
                                    random_max_n)
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
