"""Acceptance suite: one test per criterion, exact values, zero tolerance.

Every criterion asserts on the checks that ``positroid-hstar verify``
returns, so ``verify --scope all --max-n 6`` and this suite share one
implementation of each check.  Two module fixtures run the shared suites
once: ``verify_golden`` (small instances with known values, timed) and
``verify_exhaustive(6)`` (every pipeline on all 252 connected positroids with
n <= 6, feeding the method agreement, shelling structure and affine labeling
criteria).  Only criterion 10's ambient-oracle lines compute outside the
verifier.
"""

import time

import pytest

from positroid_hstar import ehrhart as eh
from positroid_hstar import positroid as po
from positroid_hstar import verify

from references import element_bases

MAX_SWEEP_N = 6
SEED = 20240814


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="module")
def golden():
    """The golden checks by name, and the seconds they took."""
    start = time.perf_counter()
    checks = verify.verify_golden()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden checks took {elapsed:.2f}s"
    by_name = {name: (ok, detail) for name, ok, detail in checks}
    assert len(by_name) == len(checks)
    return by_name, elapsed


def assert_golden(golden, *names):
    checks, _ = golden
    failed = {name: checks[name][1] for name in names if not checks[name][0]}
    assert not failed, failed


@pytest.fixture(scope="module")
def sweep():
    """The exhaustive sweep over every connected positroid with n <= 6."""
    return verify.verify_exhaustive(MAX_SWEEP_N)


SWEEP_PASSED = [(f"exhaustive sweep n <= {MAX_SWEEP_N}", True, "252 connected positroids")]


def test_criterion_1_golden_hstar_values(golden):
    names = ("rank-3 wheel cover multiset", "rank-2 uniform h*", "rank-3 five-simplex h*",
             "pyramid h* closed", "pyramid h* half-open", "rank-2 uniform half-open",
             "rank-3 five-simplex half-open", "prism facet h*", "square face h*")
    assert_golden(golden, *names)
    report(1, f"{len(names)} golden h* checks, all golden checks in {golden[1] * 1000:.0f} ms")


def test_criterion_2_label_sets_and_graphs(golden):
    assert_golden(golden, "pyramid labels", "rank-3 five-simplex labels",
                  "rank-3 five-simplex edges", "rank-2 uniform graph")
    report(2, "label sets and edge counts")


def test_criterion_3_circuit_and_facet_fixtures(golden):
    assert_golden(golden, "circuit of 32415", "vertices of 32415 simplex",
                  "facets of projected 32415 simplex")
    report(3, "circuit, vertex set, and facet list of the 32415 simplex")


def test_criterion_4_oracle_equivalence(sweep):
    assert sweep == SWEEP_PASSED
    report(4, f"all methods agree on 252 connected positroids, n <= {MAX_SWEEP_N}")


def test_criterion_5_base_point_independence():
    assert verify.verify_random(SEED, 50, 0)[0] == (
        "base-point independence (50 samples, n <= 7)", True, f"seed {SEED}")
    report(5, "h* identical for every base label on 50 random positroids, n <= 7")


def test_criterion_6_shelling_structure(sweep):
    assert sweep == SWEEP_PASSED
    report(6, "graph connectivity, layering, cover sums, and volumes on 252 instances")


def test_criterion_7_affine_labeling(golden, sweep):
    assert_golden(golden, "affine windows")
    assert sweep == SWEEP_PASSED
    report(7, "window fixture reproduced; edge and length consistency on 252 instances")


def test_criterion_8_tree_positroid_agreement(golden):
    assert_golden(golden, "square subdivision", "pentagon subdivision")
    assert verify.verify_random(SEED, 0, 200)[1] == (
        "subdivision agreement (200 samples, n <= 7)", True, f"seed {SEED}")
    report(8, "extensions equal labels and h* matches on 200 random subdivisions, "
              "n <= 7")


def test_criterion_9_bijection_round_trips():
    total = "2371 decorated permutations"
    assert verify.verify_roundtrips(MAX_SWEEP_N) == [
        (f"necklace/decorated round trips n <= {MAX_SWEEP_N}", True, total),
        (f"rank-split vs interval-free connectivity n <= {MAX_SWEEP_N}", True, total),
        (f"closure vs bases facets n <= {MAX_SWEEP_N}", True, "252 connected positroids")]
    report(9, f"necklace/decorated round trips on {total}, n <= {MAX_SWEEP_N}")


def test_criterion_10_disconnected_handling(golden):
    assert_golden(golden, "direct sum split")
    bases = element_bases(4, 2, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert all(comp.sorted_bases() == ((1,), (2,)) for _, comp in po.decompose_direct_sum(bases))

    # direct oracle on the ambient polytope, restricted to its affine hull
    necklace = po.necklace_from_bases(bases)
    hrep = po.h_representation(necklace)
    dim = po.dimension_of_bases(bases.bases, bases.n)
    assert dim == 2
    counts = eh.lattice_counts(hrep, dim)
    assert counts == (1, 4, 9)
    # reference: the product of the components' Ehrhart polynomials
    product = eh.ehrhart_product([eh.ehrhart_of_positroid(po.necklace_from_bases(comp))
                                  for _, comp in po.decompose_direct_sum(bases)])
    assert counts == tuple(product(t) for t in range(dim + 1))
    assert eh.hstar_from_counts(counts) == eh.hstar_by_counting(necklace) == (1, 1)
    report(10, "direct sum splits into two segments; product h* equals ambient "
               "oracle h* (the unit square, 1+z)")
