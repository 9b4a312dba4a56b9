"""Canonical keys: isomorphism invariance and completeness."""

import hashlib
import random
from itertools import combinations, permutations, product

import pytest

from oracles import (all_pairs, colour_twin_reps, perm_canonical_mask,
                     perm_coloured_key)
from ramsey_p5 import canon, engine
from ramsey_p5.canon import CANON_MAX, OrderTooLarge, canonical_key, coloured_key
from ramsey_p5.engine import SearchBudget, ramsey_verify
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


def coloured_copy(cols, v: int, perm: list[int], rename: dict) -> list:
    """The coloured K_v with vertex u moved to perm[u] and colour c renamed
    rename[c]; edge (u, w), u < w, sits at index w(w-1)/2 + u."""
    out = [None] * len(cols)
    k = 0
    for w in range(1, v):
        for u in range(w):
            a, b = sorted((perm[u], perm[w]))
            out[b * (b - 1) // 2 + a] = rename[cols[k]]
            k += 1
    return out


def random_coloured(rng: random.Random, v: int) -> list[int]:
    """A colouring of K_v with colours 1..k for a random k <= 4. Half of them
    give each vertex one of a few types and colour an edge by the types of
    its ends, so vertices of one type are twins."""
    k = rng.randint(1, 4)
    if rng.random() < 0.5:
        return [rng.randint(1, k) for _ in range(v * (v - 1) // 2)]
    types = [rng.randrange(max(1, v // 2)) for _ in range(v)]
    between = {}
    return [between.setdefault((min(types[u], types[w]), max(types[u], types[w])),
                               rng.randint(1, k))
            for w in range(1, v) for u in range(w)]


def random_copy(rng: random.Random, cols, v: int) -> list:
    perm = list(range(v))
    rng.shuffle(perm)
    names = list(range(1, 5))
    rng.shuffle(names)
    return coloured_copy(cols, v, perm, dict(zip(range(1, 5), names)))


def assert_same_classes(samples) -> None:
    """``samples`` holds (v, cols, reference) triples whose references are
    equal exactly for isomorphic prefixes: the keys must split them into the
    same classes."""
    by_ref: dict = {}
    by_key: dict = {}
    for i, (v, cols, ref) in enumerate(samples):
        by_ref.setdefault((v, ref), []).append(i)
        by_key.setdefault(coloured_key(cols, v), []).append(i)
    assert sorted(by_key.values()) == sorted(by_ref.values())


def test_coloured_key_matches_brute_force_on_small_prefixes():
    """Every colouring of K4 with at most 4 colours and every 2-colouring of
    K5."""
    samples = [(4, cols, perm_coloured_key(cols, 4))
               for cols in product(range(1, 5), repeat=6)]
    samples += [(5, cols, perm_coloured_key(cols, 5))
                for cols in product(range(1, 3), repeat=10)]
    assert_same_classes(samples)


def test_coloured_key_matches_brute_force_on_search_prefixes(monkeypatch):
    """Every prefix the isomorph rule keys in the (9,3) refutation and the
    (11,4) and (12,4) searches capped at 30,000 nodes."""
    prefixes = set()
    key = engine.coloured_key

    def recorded(cols, v):
        prefixes.add((v, tuple(cols[:v * (v - 1) // 2])))
        return key(cols, v)

    monkeypatch.setattr(engine, "coloured_key", recorded)
    ramsey_verify(9, 3)
    for n in (11, 12):
        ramsey_verify(n, 4, budget=SearchBudget(nodes=30000))
    assert {v for v, _ in prefixes} == {3, 4, 5, 6}
    assert_same_classes([(v, cols, perm_coloured_key(cols, v))
                         for v, cols in sorted(prefixes)])


def test_coloured_key_matches_brute_force_on_random_k6_k7():
    """300 seeded K6 and 30 seeded K7 colourings, each with two relabelled and
    recoloured copies."""
    rng = random.Random(1998)
    samples = []
    for v, count in ((6, 300), (7, 30)):
        for _ in range(count):
            cols = random_coloured(rng, v)
            ref = perm_coloured_key(cols, v)
            samples += [(v, cols, ref)] + [(v, random_copy(rng, cols, v), ref)
                                           for _ in range(2)]
    assert_same_classes(samples)


def test_coloured_key_invariant_under_relabelling():
    """A vertex permutation and a colour permutation keep the key, v = 3..8,
    including colourings with many twins and single-colour ones."""
    rng = random.Random(2014)
    for v in range(3, 9):
        for trial in range(60):
            cols = random_coloured(rng, v) if trial else [1] * (v * (v - 1) // 2)
            key = coloured_key(cols, v)
            assert key[0] == v
            for _ in range(4):
                assert coloured_key(random_copy(rng, cols, v), v) == key


def test_coloured_key_finds_every_twin(monkeypatch):
    """The twin classes the key prunes with are the brute-force ones."""
    seen = []
    twin_reps = canon._twin_reps

    def recorded(*args):
        seen.append(twin_reps(*args))
        return seen[-1]

    monkeypatch.setattr(canon, "_twin_reps", recorded)
    rng = random.Random(1521)
    twins = 0
    for v in range(2, 9):
        for _ in range(40):
            cols = random_coloured(rng, v)
            seen.clear()
            coloured_key(cols, v)
            assert seen == [colour_twin_reps(cols, v)]
            twins += sum(r != x for x, r in enumerate(seen[0]))
    assert twins > 500
