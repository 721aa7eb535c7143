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
    HALF_OPEN_METHODS,
    Check,
    InputError,
    _check,
    _exhaustive_worker,
    agreement_verdict,
    all_decorated_permutations,
    connected_necklaces,
    hstar_routes,
    input_necklace,
    output,
    read_input,
)
from .core import circuit_subsets

RANDOM_MAX_N = 7  # verify --scope random samples n <= min(7, size cap) unless given --max-n
# the defaults of the flags that steer the suites, which verify --input refuses
SUITE_DEFAULTS = {"scope": "golden", "seed": 20240814, "w0_samples": 50,
                  "subdivision_samples": 200}


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
    results = hstar_routes(necklace, CLOSED_METHODS)
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
    if args.format == "csv" and args.n > 9:
        raise InputError("--format csv writes compact necklaces, which need --n <= 9, "
                         f"got {args.n}")
    selected = []
    for dec in all_decorated_permutations(args.n):
        necklace = po.necklace_from_decorated(dec)
        if args.rank is not None and necklace.rank != args.rank:
            continue
        if args.connected_only and not necklace.fact(po.necklace_connected):
            continue
        selected.append((dec.perm, tuple(sorted(dec.white))))
    rows = _map_jobs(_atlas_worker, selected, args.jobs)
    with output(args.out) as out:
        if args.format == "csv":
            _write_atlas_csv(rows, out)
        else:
            for row in rows:
                out.write(json.dumps(row, sort_keys=True) + "\n")
    return EXIT_OK


def _write_atlas_csv(rows: list[dict], out) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pi", "white", "necklace", "n", "rank", "connected",
                     "num_bases", "num_simplices", "hstar", "verdict"])
    for r in rows:
        writer.writerow([
            "".join(map(str, r["pi"])),
            "".join(map(str, r["white"])),
            po.validate_necklace(r["necklace"]).compact(),
            r["n"], r["rank"], r["connected"], r["num_bases"],
            r.get("num_simplices", ""),
            " ".join(map(str, r["hstar"]["shelling"])),
            r["verdict"],
        ])


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _words(text: str) -> tuple[tuple[int, ...], ...]:
    """Words written digit by digit and spaced apart: "24135 32415"."""
    return tuple(tuple(map(int, word)) for word in text.split())


def _moebius_by_dim(necklace: po.GrassmannNecklace) -> dict[int, list[int]]:
    """Sorted Moebius values of the upper-facet face poset, by face dimension
    in node order (decreasing)."""
    by_dim: dict[int, list[int]] = {}
    for node, value in ho.moebius(ho.face_poset_of_uppers(necklace)).items():
        by_dim.setdefault(node.dim, []).append(value)
    return {d: sorted(v) for d, v in by_dim.items()}


def _uppers(necklace: po.GrassmannNecklace) -> list[str]:
    """The upper facets as text, "x_1+x_2+x_3 <= 2"; facet rows never wrap."""
    return ["+".join(f"x_{k}" for k in range(f.start, f.stop)) + f" <= {f.bound}"
            for f in po.facet_representation(necklace).inequalities if f.sense == "<="]


def verify_golden() -> list[Check]:
    """Golden fixtures: small instances with known values, every pipeline.

    Each row is (name, computed, expected, PASS detail).  A row passes when
    its computed value equals the expected one; a failing row shows both.
    """
    pyramid = po.validate_necklace([[1, 2], [2, 3], [1, 3], [1, 4]])
    wheel = po.validate_necklace([[1, 2, 3], [2, 3, 5], [3, 4, 5], [1, 4, 5], [1, 2, 5]])
    uniform = po.validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    prism = po.validate_necklace([[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]])
    graph_w = tg.build_graph(tg.enumerate_labels(wheel))
    graph_u = tg.build_graph(tg.enumerate_labels(uniform))
    labels3 = tg.enumerate_labels(prism)
    graph3 = tg.build_graph(labels3)
    affine = tg.affine_consistency_check(graph_u, tg.shelling_poset(graph_u, (3, 1, 4, 2, 5)))
    windows = dict(zip(
        _words("31425 13425 34125 31245 23145 14235 13245 21345 12435 23415 41235"),
        _words("12345 21345 13245 12435 12354 02346 21435 21354 02436 13254 03246")))
    edges3 = _words("24135 32415 24135 41325 24135 42135 32415 34215 34215 42135")
    hrep3 = po.h_representation(prism)
    prism_ehr = eh.EhrhartPolynomial(
        eh.hstar_from_counts(eh.lattice_counts(hrep3, 3, [(1, 4, 2)])), 3)
    triangle_times_segment = eh.ehrhart_product([eh.EhrhartPolynomial((1,), 2),
                                                 eh.EhrhartPolynomial((1,), 1)])
    square = tr.validate_subdivision(4, [("black", [1, 2, 3]), ("white", [1, 3, 4])])
    pentagon = tr.validate_subdivision(
        5, [("black", [1, 2, 3]), ("white", [1, 3, 4]), ("black", [1, 4, 5])])
    arcs = {(a.start, a.end): a for a in tr.arcs(square)}
    dec = po.decorated_from_necklace(pyramid)
    disco = po.PositroidBases(4, 2, frozenset(
        sum(1 << v for v in b) for b in [(1, 3), (1, 4), (2, 3), (2, 4)]))
    parts = po.decompose_direct_sum(disco)
    disco_necklace = po.necklace_from_bases(disco)
    uppers = ["x_1 <= 1", "x_1+x_2+x_3 <= 2", "x_2 <= 1"]
    mu1 = {3: [1], 2: [-1, -1, -1], 1: [1, 1], 0: [0]}
    mu3 = {0: [0], 1: [-1, -1, 0], 2: [1, 1, 1, 1, 1], 3: [-1, -1, -1, -1], 4: [1]}
    labels3_text = "24135 32415 34215 41325 42135"
    circuit = ["135", "235", "245", "124", "125"]
    rows = [
        ("pyramid bases", po.bases_from_necklace(pyramid).sorted_bases(),
         _words("12 13 14 23 24"), "necklace 12,23,13,14"),
        ("pyramid labels", tg.enumerate_labels(pyramid), _words("1324 2134"), ""),
        ("pyramid h* closed", hstar_routes(pyramid, CLOSED_METHODS),
         dict.fromkeys(CLOSED_METHODS, [1, 1]), "1+z"),
        ("pyramid h* half-open", hstar_routes(pyramid, HALF_OPEN_METHODS, half_open=True),
         dict.fromkeys(HALF_OPEN_METHODS, [0, 0, 2]), "2z^2"),
        ("pyramid upper facets", _uppers(pyramid), uppers, "; ".join(uppers)),
        ("pyramid Moebius", _moebius_by_dim(pyramid), mu1, str(mu1)),
        ("rank-3 wheel cover multiset",
         (sorted(tg.shelling_poset(graph_w, (2, 4, 1, 3, 5)).cover.values()),
          tg.hstar_shelling(wheel)), ([0, 1, 1, 1, 1, 2, 2, 2], (1, 4, 3)), "1+4z+3z^2"),
        ("rank-2 uniform graph", (len(graph_u.words), len(graph_u.edges())), (11, 15),
         "11 labels, 15 edges"),
        ("rank-2 uniform h*",
         (tg.hstar_shelling(uniform), ho.hstar_closed_via_inclusion_exclusion(uniform)),
         ((1, 5, 5), (1, 5, 5)), "1+5z+5z^2"),
        ("rank-2 uniform half-open", ho.hstar_half_open(uniform), (0, 0, 10, 1), "10z^2+z^3"),
        ("affine windows", (affine.ok, dict(affine.windows)), (True, windows),
         "base 31425; 14235 -> [0,2,3,4,6]"),
        ("rank-3 five-simplex labels", labels3, _words(labels3_text), labels3_text),
        ("rank-3 five-simplex edges", set(graph3.edges()),
         set(zip(edges3[::2], edges3[1::2])), "5 edges"),
        ("rank-3 five-simplex covers", tg.shelling_poset(graph3, (2, 4, 1, 3, 5)).cover,
         dict(zip(_words("24135 42135 32415 41325 34215"), (0, 1, 1, 1, 2))),
         "cover(34215) = 2"),
        ("rank-3 five-simplex h*", hstar_routes(prism, CLOSED_METHODS),
         dict.fromkeys(CLOSED_METHODS, [1, 3, 1]), "1+3z+z^2"),
        ("rank-3 five-simplex half-open", hstar_routes(prism, HALF_OPEN_METHODS, half_open=True),
         dict.fromkeys(HALF_OPEN_METHODS, [0, 0, 1, 4]), "z^2+4z^3"),
        ("rank-3 five-simplex uppers", _uppers(prism), uppers + ["x_4 <= 1"],
         "; ".join(uppers + ["x_4 <= 1"])),
        ("prism facet h*", eh.face_hstar(hrep3, [(1, 4, 2)], 3), (1, 2), "1+2z"),
        ("prism facet Ehrhart", prism_ehr, triangle_times_segment, "C(t+2,2)(1+t)"),
        ("square face h*", eh.face_hstar(hrep3, [(1, 2, 1), (1, 4, 2)], 2), (1, 1), "1+z"),
        ("rank-3 five-simplex Moebius", _moebius_by_dim(prism), mu3, str(mu3)),
        ("circuit of 32415",
         [''.join(map(str, sorted(s))) for s in circuit_subsets((3, 2, 4, 1, 5))], circuit,
         "->".join(circuit)),
        ("vertices of 32415 simplex", set(tg.simplex_vertices((3, 2, 4, 1, 5))),
         set(_words("11001 10101 01101 01011 11010")), ""),
        ("facets of projected 32415 simplex",
         {(q.start, q.stop, q.sense, q.bound)
          for q in tg.simplex_facets((3, 2, 4, 1, 5)).inequalities},
         {(1, 5, ">=", 2), (3, 5, "<=", 1), (2, 3, "<=", 1), (2, 4, ">=", 1), (1, 4, "<=", 2)},
         ""),
        ("square subdivision",
         (tr.tau_order(square), tr.circular_extensions(tr.tau_order(square), 4),
          tr.hstar_tree(square)),
         (_words("134 321"), _words("1324 2134"), (1, 1)), "chains (3,2,1), (1,3,4)"),
        ("pentagon subdivision", (tr.tau_order(pentagon), tr.hstar_tree(pentagon)),
         (_words("134 321 541"), (1, 3, 1)), "1+3z+z^2"),
        ("square arcs", (arcs[1, 3].facet_defining, arcs[1, 3].area, (2, 4) in arcs),
         (True, 1, False), "1->3 facet-defining, 2->4 not compatible"),
        ("pyramid decorated permutation",
         (dec.perm, dec.fixed_points, po.necklace_from_decorated(dec)),
         ((3, 1, 4, 2), frozenset(), pyramid), "3142"),
        ("direct sum split",
         ([g for g, _ in parts], po.is_connected(disco),
          eh.ehrhart_of_positroid(disco_necklace), eh.hstar_by_counting(disco_necklace)),
         ([(1, 2), (3, 4)], False, eh.EhrhartPolynomial((1, 1), 2), (1, 1)),
         "U(1,2) + U(1,2); product h* = 1+z"),
    ]
    return [_check(name, got == want, detail if got == want else f"expected {want!r}, got {got!r}")
            for name, got, want, detail in rows]


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


def _facets_by_bases(necklace: po.GrassmannNecklace) -> tuple[po.IntervalInequality, ...]:
    """The rows of ``positroid.facet_representation`` by the bases: each
    candidate, a necklace inequality or x_i >= 0 read as a bound
    z_v - z_u <= c (``difference_bound``), is a facet when the bases tight
    on it span a face of dimension n - 2 (``dimension_of_bases``).  Written
    on the block x_(a+1) + ... + x_b, a < b the two nodes, and sorted by
    (start, stop, bound, upper)."""
    n, r = necklace.n, necklace.rank
    masks = necklace.fact(po.bases_from_necklace).bases
    rows = (*(po.IntervalInequality(i, i % n + 1, 0, ">=") for i in range(1, n + 1)),
            *necklace.fact(po.h_representation).inequalities)
    facets = []
    for u, v, c in {q.difference_bound(r) for q in rows}:
        (a, b), bound = sorted((u, v)), c if u < v else -c
        row = po.IntervalInequality(a + 1, b + 1, bound, "<=" if u < v else ">=")
        block = row.mask(n)
        tight = frozenset(m for m in masks if (m & block).bit_count() == bound)
        if po.dimension_of_bases(tight, n) == n - 2:
            facets.append(row)
    return tuple(sorted(facets, key=lambda q: (q.start, q.stop, q.bound, q.sense == "<=")))


def _facets_differ(necklace: po.GrassmannNecklace) -> bool:
    """The closure's facets (``positroid.facet_representation``) differ from the bases rule's."""
    return necklace.fact(po.facet_representation).inequalities != _facets_by_bases(necklace)


def verify_roundtrips(max_n: int) -> list[Check]:
    """Round trips of the two bijections, plus the connectivity and facet
    cross-checks.

    For every decorated permutation the rank-split connectivity answer
    (`positroid.is_connected` on the bases) must match the one-block rule
    of `positroid.necklace_connected`, a disconnected one's blocks
    (`positroid.necklace_components`) the fundamental graph's
    (`positroid.decompose_direct_sum`), and a connected one's closure facets
    (`positroid.facet_representation`) the bases rule's.
    """
    bad_trip = bad_sif = bad_facets = 0
    total = connected_total = 0
    for n in range(1, max_n + 1):
        for dec in all_decorated_permutations(n):
            total += 1
            necklace = po.necklace_from_decorated(dec)
            if po.decorated_from_necklace(necklace) != dec:
                bad_trip += 1
                continue
            bases = necklace.fact(po.bases_from_necklace)
            if (connected := po.is_connected(bases)) != necklace.fact(po.necklace_connected) or (
                    not connected and necklace.fact(po.necklace_components)
                    != tuple(g for g, _ in po.decompose_direct_sum(bases))):
                bad_sif += 1
            elif connected:
                connected_total += 1
                bad_facets += _facets_differ(necklace)
    return [_check(f"necklace/decorated round trips n <= {max_n}", bad_trip == 0,
                   f"{total} decorated permutations"),
            _check(f"rank-split vs interval-free connectivity n <= {max_n}",
                   bad_sif == 0, f"{total} decorated permutations"),
            _check(f"closure vs bases facets n <= {max_n}", bad_facets == 0,
                   f"{connected_total} connected positroids")]


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

    bad = bad_facets = 0
    for _ in range(w0_samples):
        necklace = sample_connected()
        bad_facets += _facets_differ(necklace)
        labels = necklace.fact(tg.enumerate_labels)
        graph = tg.build_graph(labels)
        covers = [tg.shelling_poset(graph, w).cover for w in graph.words]
        polys = {tg.hstar_from_covers(cover) for cover in covers}
        if (len(polys) != 1 or labels != tg.labels_by_bases(necklace)
                or tg._covers_by_base(labels, graph.words) != covers):
            bad += 1
    checks.append(_check(f"base-point independence ({w0_samples} samples, n <= {max_n})",
                         bad == 0, f"seed {seed}"))

    bad = 0
    for _ in range(subdivision_samples):
        n = rng.randrange(4, max_n + 1)
        tau = tr.random_subdivision(n, rng)
        try:
            tree = tr.tree_positroid(tau)
            bad_facets += _facets_differ(tree.necklace)
            graph = tg.build_graph(tree.necklace.fact(tg.enumerate_labels))
            graph_hstar = tg.hstar_from_covers(tg.shelling_poset(graph, graph.words[0]).cover)
            if tg.hstar_shelling(tree.necklace) != graph_hstar:
                bad += 1
        except Exception:  # noqa: BLE001 - a failed extensions/labels assertion counts as bad
            bad += 1
    checks.append(_check(f"subdivision agreement ({subdivision_samples} samples, n <= {max_n})",
                         bad == 0, f"seed {seed}"))
    checks.append(_check(f"closure vs bases facets (random, n <= {max_n})", bad_facets == 0,
                         f"{w0_samples + subdivision_samples} samples, seed {seed}"))
    return checks


def verify_single_input(text: str) -> list[Check]:
    """Method agreement on one user-supplied positroid."""
    try:
        necklace = input_necklace(text)[1]
        closed = hstar_routes(necklace, CLOSED_METHODS)
        checks = [_check("closed method agreement", agreement_verdict(closed) == "PASS",
                         json.dumps(closed, sort_keys=True))]
        if not necklace.fact(po.necklace_connected):
            # the routes share the product rule; the whole necklace's count shares nothing
            checks.append(_check("disconnected input oracle h*",
                                 eh.ehrhart_of_positroid(necklace)
                                 == eh._hrep_ehrhart(necklace)[1], str(closed["oracle"])))
        elif necklace.n > 1:
            half = hstar_routes(necklace, HALF_OPEN_METHODS, half_open=True)
            checks.append(_check("half-open method agreement",
                                 agreement_verdict(half) == "PASS",
                                 json.dumps(half, sort_keys=True)))
        return checks
    except ValueError as exc:  # InputError, NecklaceError and SubdivisionError among them
        return [_check("input verification", False, str(exc))]
    except ArithmeticError as exc:  # a count that fails its own check: a counting bug
        return [_check("counting check", False, str(exc))]


def run_verify(args) -> int:
    """The verify command."""
    for name, default in SUITE_DEFAULTS.items():
        if args.input and getattr(args, name) is not None:
            raise InputError(f"--{name.replace('_', '-')} applies only to the suites, "
                             "not to --input")
        if getattr(args, name) is None:
            setattr(args, name, default)
    check_jobs(args.jobs)
    scope = args.scope
    if scope in ("random", "all"):
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
