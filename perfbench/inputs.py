"""Seeded benchmark inputs and the closed-form answer check.

Nothing here imports ``positroid_hstar``: inputs are built from decorated
permutations with the standard necklace formula, so they stay the same when
the package changes, and the hypersimplex h* is computed with ``math.comb``
alone.
"""

from __future__ import annotations

import itertools
import json
import math
import random

Necklace = tuple[frozenset[int], ...]


# ---------------------------------------------------------------------------
# positroids from decorated permutations
# ---------------------------------------------------------------------------

def necklace_of_permutation(perm: tuple[int, ...]) -> Necklace:
    """Grassmann necklace of a permutation without fixed points.

    j is in J_m exactly when m lies in the cyclic half-open interval
    (pi^-1(j), j].
    """
    n = len(perm)
    inv = {v: i for i, v in enumerate(perm, start=1)}
    out = []
    for m in range(1, n + 1):
        members = set()
        for j in range(1, n + 1):
            src = inv[j]
            if src != j and 1 <= (m - src) % n <= (j - src) % n:
                members.add(j)
        out.append(frozenset(members))
    return tuple(out)


def is_interval_free(perm: tuple[int, ...]) -> bool:
    """No proper nonempty cyclic interval of 1..n is mapped onto itself.

    For n >= 2 this is exactly connectivity of the positroid of a
    fixed-point-free permutation.
    """
    n = len(perm)
    for start in range(n):
        members = set()
        images = set()
        for length in range(1, n):
            v = (start + length - 1) % n + 1
            members.add(v)
            images.add(perm[v - 1])
            if members == images:
                return False
    return True


def compact(necklace: Necklace) -> str:
    """The CLI's digit form, e.g. '12,23,13,14'; '-' for an empty subset."""
    return ",".join("".join(map(str, sorted(s))) or "-" for s in necklace)


def parse_compact(text: str) -> Necklace:
    return tuple(frozenset() if p == "-" else frozenset(int(c) for c in p)
                 for p in text.split(","))


def uniform(k: int, n: int) -> Necklace:
    """Necklace of U(k, n): J_i = {i, ..., i + k - 1} read cyclically."""
    return tuple(frozenset((i + a) % n + 1 for a in range(k)) for i in range(n))


def rotate(necklace: Necklace, shift: int) -> Necklace:
    """Relabel the ground set by j -> j + shift (mod n); the polytope is a
    coordinate permutation of the original, so its h* does not change."""
    n = len(necklace)
    move = lambda j: (j - 1 + shift) % n + 1
    return tuple(frozenset(move(j) for j in necklace[(m - shift) % n]) for m in range(n))


def connected_necklaces(max_n: int) -> list[Necklace]:
    """Every connected positroid on n <= max_n, in a fixed order.

    n = 1 has the loop and the coloop; for n >= 2 a positroid is connected
    exactly when its permutation has no fixed point and is interval-free.
    """
    out = [(frozenset(),), (frozenset({1}),)]
    for n in range(2, max_n + 1):
        for perm in itertools.permutations(range(1, n + 1)):
            if all(p != i for i, p in enumerate(perm, 1)) and is_interval_free(perm):
                out.append(necklace_of_permutation(perm))
    return out


def random_connected(rng: random.Random, n: int) -> Necklace:
    """A uniformly random connected positroid on n >= 2."""
    while True:
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        perm = tuple(perm)
        if all(p != i for i, p in enumerate(perm, 1)) and is_interval_free(perm):
            return necklace_of_permutation(perm)


# ---------------------------------------------------------------------------
# bicolored subdivisions of the n-gon
# ---------------------------------------------------------------------------

def _triangulation_diagonals(region: tuple[int, ...], rng: random.Random) -> list[tuple[int, int]]:
    if len(region) <= 3:
        return []
    while True:
        a, b = sorted(rng.sample(range(len(region)), 2))
        if b - a > 1 and (a, b) != (0, len(region) - 1):
            break
    first, second = region[a:b + 1], region[b:] + region[:a + 1]
    return ([tuple(sorted((region[a], region[b])))]
            + _triangulation_diagonals(first, rng) + _triangulation_diagonals(second, rng))


def _cells(region: tuple[int, ...], chords: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    inner = [c for c in chords if set(c) <= set(region)]
    if not inner:
        return [region]
    a, b = inner[0]
    ka, kb = sorted((region.index(a), region.index(b)))
    first, second = region[ka:kb + 1], region[kb:] + region[:ka + 1]
    rest = inner[1:]
    return _cells(first, [c for c in rest if set(c) <= set(first)]) + \
        _cells(second, [c for c in rest if not set(c) <= set(first)])


def random_subdivision(rng: random.Random, n: int) -> str:
    """JSON text of a random bicolored subdivision of the n-gon.

    Diagonals of a random triangulation are kept with probability 0.6;
    cells sharing a chord get opposite colours (the cells form a tree, so a
    random root colour fixes the rest).
    """
    diagonals = [d for d in _triangulation_diagonals(tuple(range(1, n + 1)), rng)
                 if rng.random() < 0.6]
    cells = _cells(tuple(range(1, n + 1)), diagonals)
    edges = [{tuple(sorted((c[k], c[(k + 1) % len(c)]))) for k in range(len(c))} for c in cells]
    colours = {0: rng.choice(("black", "white"))}
    stack = [0]
    while stack:
        cur = stack.pop()
        for other in range(len(cells)):
            if other not in colours and edges[cur] & edges[other]:
                colours[other] = "white" if colours[cur] == "black" else "black"
                stack.append(other)
    doc = {"n": n, "cells": [{"color": colours[k], "vertices": sorted(c)}
                             for k, c in enumerate(cells)]}
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# closed-form answers
# ---------------------------------------------------------------------------

def hypersimplex_hstar(k: int, n: int) -> list[int]:
    """h* of the hypersimplex U(k, n), 1 <= k <= n - 1, from lattice counts.

    #{x in [0, t]^n : sum x = k t} = sum_j (-1)^j C(n, j) C(k t - j(t+1) + n-1, n-1)
    for t = 0..n-1, then h_j = sum_i (-1)^i C(n, i) E(j - i).
    """
    d = n - 1

    def count(t: int) -> int:
        total = 0
        for j in range(n + 1):
            top = k * t - j * (t + 1) + n - 1
            if top < n - 1:
                break
            total += (-1) ** j * math.comb(n, j) * math.comb(top, n - 1)
        return total

    counts = [count(t) for t in range(d + 1)]
    h = [sum((-1) ** i * math.comb(d + 1, i) * counts[j - i] for i in range(j + 1))
         for j in range(d + 1)]
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return h
