"""Finite case-analysis checks: counting chains, classification, placements."""

import math
import random
from collections import Counter
from itertools import combinations

import pytest

import ramsey_p5.checks as checks
from ramsey_p5.canon import canonical_key
from ramsey_p5.checks import (claim1_check, expected_shapes_11_14,
                              lemma1_check, lemma3_check)
from ramsey_p5.colouring import pair_count, pair_list
from ramsey_p5.graphs import Graph


def test_lemma1_examples():
    rep = lemma1_check(3)
    assert rep.n == 9 and rep.bound == 12 and rep.turan == 12
    assert rep.ok
    assert ("degree_contradiction", True) in rep.checks

    rep = lemma1_check(2)
    assert rep.n == 6 and rep.bound == 8 and rep.turan == 7
    assert rep.ok

    rep = lemma1_check(5)
    assert rep.n == 17 and rep.bound == 28 and rep.turan == 24
    assert rep.ok
    # 28 >= 25.5 and 25.5 > 25 in exact arithmetic
    assert 2 * rep.bound >= 3 * rep.n > 2 * (rep.turan + 1)


def test_lemma1_all_residues_to_100():
    for r in range(1, 101):
        rep = lemma1_check(r)
        assert rep.ok, f"counting chain fails at r={r}"
        assert rep.bound == -(-pair_count(rep.n) // r)


def test_lemma1_rejects_zero():
    with pytest.raises(ValueError):
        lemma1_check(0)


def test_claim1_counts():
    rep = claim1_check()
    assert rep.ok
    assert (rep.count_14, rep.count_15, rep.count_16) == (2, 1, 0)
    assert not rep.missing and not rep.extra


def test_expected_shapes_have_14_edges():
    a, b = expected_shapes_11_14()
    assert a.n == b.n == 11
    assert a.edge_count() == b.edge_count() == 14


def test_lemma3_pipeline():
    rep = lemma3_check()
    assert rep.ok
    assert rep.size_splits == ((14, 14, 14, 13),)
    assert rep.second_class_floor == 14
    assert rep.complement_k4_free
    assert rep.counterexamples == ()
    # 2 canonical placements of the first class, each against every labelled
    # placement of both 14-edge shapes
    assert rep.placements_total == 2 * (17325 + 69300)
    assert rep.placements_disjoint > 0


def test_lemma3_placement_counts_match_orbit_arithmetic():
    """The placements are the labelled copies of Claim 1's two 14-edge
    shapes, each once: 11! / |automorphisms| copies of each shape, told
    apart by degree sequence, and a sample of them is isomorphic to a
    shape."""
    fact11 = math.factorial(11)
    aut_k4k4p3 = 24 * 24 * 2 * 2   # two K4s swap, path flips
    aut_k4k4mk3 = 24 * 4 * 6       # K4, K4-minus, triangle
    k4m = {s: checks._clique_mask(s) for s in combinations(range(11), 4)}
    masks = checks._placements(k4m)
    assert len(set(masks)) == len(masks) == 86625
    assert all(m.bit_count() == 14 for m in masks)

    pairs = pair_list(11)
    star = [sum(1 << k for k, p in enumerate(pairs) if v in p) for v in range(11)]
    degrees = Counter(tuple(sorted((m & s).bit_count() for s in star)) for m in masks)
    assert degrees == {(1, 1, 2) + (3,) * 8: fact11 // aut_k4k4p3,
                       (2,) * 5 + (3,) * 6: fact11 // aut_k4k4mk3}
    assert (fact11 // aut_k4k4p3, fact11 // aut_k4k4mk3) == (17325, 69300)

    shapes = {canonical_key(g) for g in expected_shapes_11_14()}
    for m in random.Random(13).sample(masks, 1000):
        g = Graph(11, [p for k, p in enumerate(pairs) if m >> k & 1])
        assert canonical_key(g) in shapes


def test_claim1_counts_a_duplicate(monkeypatch):
    """A graph the enumeration lists twice fails Claim 1 instead of being
    merged with its copy."""
    real = checks.enumerate_p5_free
    monkeypatch.setattr(checks, "enumerate_p5_free",
                        lambda n, m: real(n, m) * 2 if m == 15 else real(n, m))
    rep = claim1_check()
    assert not rep.ok
    assert (rep.count_14, rep.count_15) == (2, 2)
    assert not rep.missing and not rep.extra
