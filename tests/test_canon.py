"""Canonical keys: isomorphism invariance and completeness."""

import hashlib
import random
from itertools import combinations, permutations

import pytest

from oracles import all_pairs, perm_canonical_mask
from ramsey_p5 import canon
from ramsey_p5.canon import CANON_MAX, OrderTooLarge, canonical_key
from ramsey_p5.graphs import (Graph, complete, cycle_graph, path_graph,
                              star_graph)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def symmetric_16() -> dict[str, Graph]:
    """Twin-rich and vertex-transitive graphs on 16 vertices, pairwise
    non-isomorphic."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    return {
        "empty": Graph(16),
        "K16": complete(16),
        "star": star_graph(16),
        "4K4": Graph(16, [e for q in range(4)
                          for e in combinations(range(4 * q, 4 * q + 4), 2)]),
        "C16": cycle_graph(16),
        "rook4x4": Graph(16, [(a, b) for a, b in combinations(range(16), 2)
                              if cells[a][0] == cells[b][0]
                              or cells[a][1] == cells[b][1]]),
        "C16(1,2)": circulant(16, (1, 2)),
        "C16(1,4)": circulant(16, (1, 4)),
        "C16(1,2,4)": circulant(16, (1, 2, 4)),
        "C16(8)": circulant(16, (8,)),
    }


def pinned_batch() -> list[Graph]:
    rng = random.Random(20260815)
    batch = []
    for n in range(CANON_MAX + 1):
        pairs = all_pairs(n)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(3):
                batch.append(Graph(n, [e for e in pairs if rng.random() < p]))
    return batch + list(symmetric_16().values())


def test_relabelled_k4_same_key():
    k4 = complete(4)
    for perm in permutations(range(4)):
        assert canonical_key(relabel(k4, list(perm))) == canonical_key(k4)


def test_p4_and_star_differ():
    assert canonical_key(path_graph(4)) != canonical_key(star_graph(4))


def test_eleven_classes_on_four_vertices():
    pairs = all_pairs(4)
    keys = set()
    for mask in range(1 << 6):
        edges = [pairs[k] for k in range(6) if mask >> k & 1]
        keys.add(canonical_key(Graph(4, edges)))
    assert len(keys) == 11


def test_order_cap():
    canonical_key(Graph(CANON_MAX))
    with pytest.raises(OrderTooLarge):
        canonical_key(Graph(CANON_MAX + 1))


def test_keys_distinguish_order():
    assert canonical_key(Graph(3)) != canonical_key(Graph(4))


def test_matches_permutation_canonical_on_all_5_vertex_graphs():
    """Equal keys iff equal permutation-minimal edge masks, for every
    labelled graph on 5 vertices."""
    pairs = all_pairs(5)
    by_perm = {}
    by_key = {}
    for mask in range(1 << 10):
        edges = [pairs[k] for k in range(10) if mask >> k & 1]
        g = Graph(5, edges)
        by_perm.setdefault(perm_canonical_mask(mask, 5), []).append(mask)
        by_key.setdefault(canonical_key(g), []).append(mask)
    assert (sorted(sorted(v) for v in by_perm.values())
            == sorted(sorted(v) for v in by_key.values()))


def test_matches_permutation_canonical_on_random_7_vertex_graphs():
    rng = random.Random(99)
    pairs = all_pairs(7)
    samples = []
    for _ in range(60):
        mask = rng.getrandbits(21)
        g = Graph(7, [pairs[k] for k in range(21) if mask >> k & 1])
        samples.append((perm_canonical_mask(mask, 7), canonical_key(g)))
    for i, (perm_a, key_a) in enumerate(samples):
        for perm_b, key_b in samples[i + 1:]:
            assert (perm_a == perm_b) == (key_a == key_b)


def test_invariant_under_random_relabellings():
    """1000 random graphs on up to 10 vertices, 100 relabellings each."""
    rng = random.Random(20210814)
    for _ in range(1000):
        n = rng.randint(1, 10)
        pairs = all_pairs(n)
        edges = [p for p in pairs if rng.random() < rng.random()]
        g = Graph(n, edges)
        key = canonical_key(g)
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == key


def test_156_classes_on_six_vertices():
    """The 32,768 labelled graphs on 6 vertices fall into exactly 156
    isomorphism classes (OEIS A000088)."""
    pairs = all_pairs(6)
    keys = {canonical_key(Graph(6, [pairs[k] for k in range(15) if mask >> k & 1]))
            for mask in range(1 << 15)}
    assert len(keys) == 156


def test_key_bytes_pinned():
    """The keys themselves, not only their equalities: a change to the
    refinement or the search tree that moves any key shows here."""
    digest = hashlib.sha256(b"".join(canonical_key(g) for g in pinned_batch()))
    assert digest.hexdigest() == (
        "175afc3b5e916be0a0c283731de1bbfd0e0ff464526c96e9f7e0889c1aa0b007")


def test_symmetric_worst_cases_fast(monkeypatch):
    """Twin-rich and vertex-transitive graphs keep their key under
    relabelling, and the twin orbits keep the empty graph and K16 to one
    refinement per level of the search tree."""
    rng = random.Random(16)
    keys = {}
    for name, g in symmetric_16().items():
        keys[name] = canonical_key(g)
        for _ in range(5):
            perm = list(range(16))
            rng.shuffle(perm)
            assert canonical_key(relabel(g, perm)) == keys[name], name
    assert len(set(keys.values())) == len(keys)

    calls = []
    refine = canon._refine

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    for g in (Graph(16), complete(16)):
        calls.clear()
        canonical_key(g)
        assert len(calls) <= 16
