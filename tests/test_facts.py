"""Per-necklace facts: every route shares one derivation of each fact."""

import json
import sys
from collections import defaultdict

import pytest

from positroid_hstar import cli
from positroid_hstar import ehrhart as eh
from positroid_hstar import halfopen as ho
from positroid_hstar import positroid as po
from positroid_hstar import tree as tr
from positroid_hstar import triangulation as tg
from positroid_hstar import verify

from references import below_the_top, tally_dilates

PRISM = [[1, 2, 4], [2, 3, 4], [1, 3, 4], [1, 4, 5], [1, 2, 5]]
DISCONNECTED = po.DecoratedPermutation((2, 1, 4, 3))

SPIED = (
    (po, "bases_from_necklace"),
    (po, "h_representation"),
    (tg, "enumerate_labels"),
    (ho, "hstar_half_open"),
    (po, "facet_representation"),
    (eh, "_plan"),
    (eh, "_run"),
    (tr, "positroid_from_subdivision"),
    (tr, "circular_extensions"),
    (tr, "arcs"),
    (po, "zero_one_points"),
)
PENTAGON = ('{"n": 5, "cells": [{"color": "black", "vertices": [1,2,3]},'
            ' {"color": "white", "vertices": [1,3,4]}, {"color": "black", "vertices": [1,4,5]}]}')


@pytest.fixture
def calls(monkeypatch):
    """(arguments, result) of every call to the spied functions, by name.

    Each spy replaces the function in every package module that binds it,
    so calls through imported names are seen too.
    """
    log = defaultdict(list)
    for module, name in SPIED:
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name):
            result = _original(*args)
            log[_name].append((args, result))
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "positroid_hstar" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    return log


def test_every_route_shares_one_derivation_per_fact(calls):
    # every route of the sweep; inclusion-exclusion and the descents route
    # share one walk of the labels' descents (the half-open h*)
    necklace = po.validate_necklace(PRISM)
    closed = {tuple(h) for h in cli.hstar_routes(necklace, cli.CLOSED_METHODS).values()}
    half_open = {tuple(h) for h in
                 cli.hstar_routes(necklace, cli.HALF_OPEN_METHODS, half_open=True).values()}
    ehr = eh.ehrhart_of_positroid(necklace)
    assert len(closed) == 1 and len(half_open) == 1
    assert ehr.coefficients[-1] * 24 == sum(next(iter(closed))) == 5

    for name in ("bases_from_necklace", "h_representation", "enumerate_labels",
                 "hstar_half_open", "facet_representation"):
        assert len(calls[name]) == 1, name
    # Closed counting runs in all n coordinates with exactly the sum and the
    # facets; faces add equalities, and the half-open body and the
    # reciprocals have the same rows with some facets tightened by one.  Each
    # body is planned once.  The closed body is run up to its h*-degree s = 2,
    # and its interior, with every facet strict, up to its codegree
    # d + 1 - s = 3; each dilate once.
    n = necklace.n
    facets = necklace.fact(po.facet_representation).inequalities

    def dilates(tightened):
        plans = [plan for (dim, rows, box, *tight), plan in calls["_plan"]
                 if dim == n and len(rows) == 1 + len(facets) and not tight
                 and all(row[3] == (f.bound, -tightened) if f.sense == "<="
                         else row[2] == (f.bound, tightened)
                         for row, f in zip(rows[1:], facets))]
        assert len(plans) == 1, plans
        return [t for (plan, t), _ in calls["_run"] if plan is plans[0]]

    assert dilates(0) == [0, 1, 2]
    assert dilates(1) == [1, 2, 3]


SEVEN = "123,235,345,457,567,267,237"


def tally_runs(calls):
    """The dilates each tally plan ran at, in order, one list per plan: the
    tally's plan is the one planned with tight rows."""
    plans = [plan for args, plan in calls["_plan"] if len(args) == 4]
    return [[t for (plan, t), _ in calls["_run"] if plan is tallied] for tallied in plans]


def test_inclusion_exclusion_runs_the_tally_below_the_top_dilate(calls):
    # each face F is read at t = 0..dim F - 1 <= n - 3, and at t = 1 for its
    # bases; the tally never runs at t = n - 2
    for n in range(2, 8):
        necklace = (po.validate_necklace([[int(c) for c in s] for s in SEVEN.split(",")])
                    if n == 7 else list(cli.connected_necklaces(n))[-1])
        calls.clear()
        ho.hstar_closed_via_inclusion_exclusion(necklace)
        assert tally_runs(calls) == [list(tally_dilates(n))], n


def test_one_sweep_pass_runs_945_tally_dilates(calls):
    # one pass of the exhaustive sweep over the 252 connected positroids with
    # n <= 6 (1,192 runs when the tally reached t = n - 2)
    necklaces = [nk for n in range(1, 7) for nk in cli.connected_necklaces(n)]
    assert len(necklaces) == 252
    for necklace in necklaces:
        subsets = tuple(tuple(sorted(s)) for s in necklace.subsets)
        assert cli._exhaustive_worker(subsets)[1], necklace.compact()
    runs = tally_runs(calls)
    assert sorted(map(len, runs)) == sorted(len(tally_dilates(nk.n)) for nk in necklaces
                                            if nk.n > 1)
    assert all(run == list(range(len(run))) for run in runs)
    assert sum(map(len, runs)) == 945


def test_one_sweep_pass_runs_1195_reference_dilates(calls):
    # the sweep's count of the full necklace H-representation, the worker's
    # first plan (its rows at the first cut), stops below the top dilate
    # t = n - 1 (1,444 runs when it reached it)
    runs = 0
    for necklace in (nk for n in range(1, 7) for nk in cli.connected_necklaces(n)):
        calls.clear()
        subsets = tuple(tuple(sorted(s)) for s in necklace.subsets)
        assert cli._exhaustive_worker(subsets)[1], necklace.compact()
        n, r = necklace.n, necklace.rank
        rows = eh._linear(n, r, [(*q.difference_bound(r), q.strict)
                                 for q in necklace.fact(po.h_representation).inequalities])
        args, reference = calls["_plan"][0]
        assert args == (n, rows, 1), necklace.compact()
        dilates = [t for (plan, t), _ in calls["_run"] if plan is reference]
        assert dilates == list(below_the_top(n - 1)), necklace.compact()
        runs += len(dilates)
    assert runs == 1195


def test_the_disconnected_reference_runs_below_the_top_dilate(calls):
    # the oracle's reference counts every disconnected positroid with n <= 6
    # in its affine hull at t = 0..max(dim - 1, min(dim, 1)), from one plan
    seen = 0
    for n in range(1, 7):
        for dec in cli.all_decorated_permutations(n):
            necklace = po.necklace_from_decorated(dec)
            if necklace.fact(po.necklace_connected):
                continue
            calls.clear()
            ehr = eh._hrep_ehrhart(necklace)[1]
            assert len(calls["_plan"]) == 1
            plan = calls["_plan"][0][1]
            assert [t for (run, t), _ in calls["_run"] if run is plan] == list(
                below_the_top(ehr.dim)), necklace.compact()
            seen += 1
    assert seen == 2119


def test_tree_query_and_subdivision_sample_derive_each_fact_once(calls, capsys):
    assert cli.main(["tree", PENTAGON]) == 0
    assert len(calls["arcs"]) == 1
    assert verify.verify_random(7, 0, 4)[1][1]
    for name in ("positroid_from_subdivision", "circular_extensions", "enumerate_labels", "arcs"):
        assert len(calls[name]) == 1 + 4, name
    # each subdivision scans its area-bound and its facet-arc description once
    scans = [args[0] for args, _ in calls["zero_one_points"]]
    assert len(scans) == 2 * (1 + 4)
    assert all(len(facets.inequalities) < len(full.inequalities)
               for full, facets in zip(scans[::2], scans[1::2]))


@pytest.mark.parametrize("argv", [("ehrhart",), ("hstar", "--method", "oracle"),
                                  ("hstar", "--half-open", "--method", "oracle")])
def test_a_connected_oracle_query_derives_no_bases(calls, capsys, argv):
    # connectivity is read off the decorated permutation and the facets off
    # the necklace's shortest-path closure, so counting reads no basis
    assert cli.main([*argv, SEVEN]) == 0
    assert json.loads(capsys.readouterr().out)["connected"]
    assert calls["bases_from_necklace"] == []
    assert len(calls["facet_representation"]) == 1


@pytest.mark.parametrize("argv", [("ehrhart",), ("hstar", "--method", "oracle"),
                                  ("hstar", "--method", "all")])
@pytest.mark.parametrize("text", ["13,23,13,14", "134,234,134,145,145", "12,12"])
def test_a_disconnected_oracle_query_derives_no_bases(calls, capsys, argv, text):
    # the oracle multiplies its summands' counts, each read off the necklace
    assert cli.main([*argv, text]) == 0
    assert not json.loads(capsys.readouterr().out)["connected"]
    assert calls["bases_from_necklace"] == []


def test_only_the_sweep_and_verify_reach_the_full_count(monkeypatch, capsys):
    # the oracle counts each summand; the count of the full necklace
    # H-representation (eh._hrep_ehrhart) is only its reference
    callers, reference = set(), eh._hrep_ehrhart

    def spy(necklace):
        caller = sys._getframe(1)
        callers.add((caller.f_globals["__name__"], caller.f_code.co_name))
        return reference(necklace)

    monkeypatch.setattr(eh, "_hrep_ehrhart", spy)
    for argv in (["hstar", "13,23,13,14", "--method", "all"], ["ehrhart", "1,2,1"],
                 ["hstar", SEVEN, "--method", "all"], ["atlas", "--n", "5"],
                 ["verify", "--scope", "all", "--max-n", "4"],
                 ["verify", "--input", "13,23,13,14"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert callers == {("positroid_hstar.cli", "_exhaustive_worker"),
                       ("positroid_hstar.verify", "verify_single_input")}


def test_an_atlas_counts_each_distinct_summand_once(monkeypatch, capsys):
    # the oracle counts a connected row as itself and a disconnected row's
    # summands through one memo (eh._summand_ehrhart), so across the atlas
    # each distinct summand is counted once
    counted, count = [], eh.count_to_degree
    monkeypatch.setattr(eh, "count_to_degree", lambda necklace, half_open=False: (
        counted.append(necklace) or count(necklace, half_open)))
    assert cli.main(["atlas", "--n", "6"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    necklaces = [(po.validate_necklace(row["necklace"]), row["connected"]) for row in rows]
    connected = [necklace for necklace, one in necklaces if one]
    summands = [summand for necklace, one in necklaces if not one
                for summand in po.necklace_summands(necklace)]
    # the 1,751 disconnected rows have 5,903 summands: the 46 connected
    # positroids with n <= 5
    assert (len(rows), len(connected), len(summands)) == (1957, 206, 5903)
    summands = set(summands)
    assert len(summands) == 46
    assert len(counted) == len(set(counted)) == len(connected) + len(summands)
    assert set(counted) == set(connected) | summands


def test_facts_stay_out_of_equality_hash_and_repr():
    a, b = po.validate_necklace(PRISM), po.validate_necklace(PRISM)
    tg.hstar_shelling(a)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.fact(tg.enumerate_labels) is a.fact(tg.enumerate_labels)


@pytest.mark.parametrize("route", [tg.enumerate_labels, po.facet_representation])
def test_disconnected_guard_names_the_split(route):
    necklace = po.necklace_from_decorated(DISCONNECTED)
    with pytest.raises(po.DisconnectedPositroidError, match="decompose_direct_sum"):
        route(necklace)


def test_counting_oracle_takes_a_disconnected_positroid():
    # the unit square U(1,2) + U(1,2): the product h* of its two segments
    necklace = po.necklace_from_decorated(DISCONNECTED)
    assert eh.hstar_by_counting(necklace) == (1, 1)
