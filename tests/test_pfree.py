"""Catalogue of connected path-free components and the (n, m) enumeration."""

import random

import pytest

from oracles import (all_pairs, grouping_cap, mask_is_connected, p5_free_masks,
                     shape_counts)
from ramsey_p5.canon import OrderTooLarge, canonical_key
from ramsey_p5.graphs import (Graph, complete, connected_components,
                              disjoint_union, ex_p5, extremal_p5, find_path,
                              path_graph)
from ramsey_p5.pfree import (completion_cap, component_catalogue,
                             enumerate_p5_free, shape_is_p5_free)


def test_catalogue_pinned_examples():
    assert [g.edge_count() for g in component_catalogue(4, 6)] == [6]
    only = component_catalogue(4, 6)[0]
    assert canonical_key(only) == canonical_key(complete(4))
    assert len(component_catalogue(4, 5)) == 1  # K4 minus an edge
    assert len(component_catalogue(4, 4)) == 2  # C4 and the triangle+pendant
    assert len(component_catalogue(5, 5)) == 1  # triangle with two pendants


def test_catalogue_members_are_what_they_claim():
    for s in range(1, 9):
        for e in range(0, s * (s - 1) // 2 + 1):
            for g in component_catalogue(s, e):
                assert g.n == s and g.edge_count() == e
                assert len(connected_components(g)) == 1
                assert find_path(g, 5) is None


def brute_connected_p5_free(s):
    """Canonical keys of connected path-free graphs on s vertices, grouped by
    edge count, from the raw labelled enumeration."""
    pairs = all_pairs(s)
    by_edges = {}
    for mask in p5_free_masks(s):
        if not mask_is_connected(mask, pairs, s):
            continue
        g = Graph(s, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
        by_edges.setdefault(g.edge_count(), set()).add(canonical_key(g))
    return by_edges


@pytest.mark.parametrize("s", range(1, 8))
def test_catalogue_complete_against_brute_force(s):
    by_edges = brute_connected_p5_free(s)
    for e in range(0, s * (s - 1) // 2 + 1):
        expect = by_edges.get(e, set())
        got = {canonical_key(g) for g in component_catalogue(s, e)}
        assert got == expect, f"catalogue mismatch at s={s}, e={e}"


def test_catalogue_complete_at_8_vertices():
    by_edges = brute_connected_p5_free(8)
    for e in range(0, 29):
        expect = by_edges.get(e, set())
        got = {canonical_key(g) for g in component_catalogue(8, e)}
        assert got == expect, f"catalogue mismatch at s=8, e={e}"


def test_degree_test_matches_catalogue():
    """shape_is_p5_free on the shape counted from the degrees of a connected
    graph is membership in component_catalogue(s, e): every labelled
    connected graph up to 6 vertices, then random connected graphs and
    relabelled catalogue members up to 9."""
    keys = {}

    def agrees(g):
        s, e = g.n, g.edge_count()
        if (s, e) not in keys:
            keys[s, e] = {canonical_key(h) for h in component_catalogue(s, e)}
        expect = bool(keys[s, e]) and canonical_key(g) in keys[s, e]
        shape = shape_counts(g.adj, (1 << g.n) - 1)
        assert shape_is_p5_free(*shape) == expect, g.edges()
        return expect

    for s in range(1, 7):
        pairs = all_pairs(s)
        for mask in range(1 << len(pairs)):
            if mask_is_connected(mask, pairs, s):
                agrees(Graph(s, [pairs[k] for k in range(len(pairs)) if mask >> k & 1]))
    rng = random.Random(9)
    for s in range(7, 10):
        pairs = all_pairs(s)
        members = [g for e in range(s - 1, s + 1) for g in component_catalogue(s, e)]
        for g in members:
            perm = rng.sample(range(s), s)
            assert agrees(Graph(s, [(perm[i], perm[j]) for i, j in g.edges()]))
        found = 0
        for _ in range(400):
            edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, s)}
            edges |= set(rng.sample(pairs, rng.randrange(3)))
            found += agrees(Graph(s, sorted(edges)))
        assert 0 < found < 400


def test_shape_rule_reads_hub_only_when_e_equals_s():
    """shape_is_p5_free holds on the shape of every catalogue member up to
    order 9, and it reads ``hub`` only when e = s: flipping it changes no
    verdict on any other (s, e, inner) of a connected graph up to order 12,
    and past four vertices with e = s it alone decides the verdict."""
    for s in range(1, 10):
        for e in range(s * (s - 1) // 2 + 1):
            for g in component_catalogue(s, e):
                assert shape_is_p5_free(*shape_counts(g.adj, (1 << s) - 1)), g.edges()
    for s in range(1, 13):
        for e in range(s - 1, s * (s - 1) // 2 + 1):
            for inner in range(s + 1):
                with_hub = shape_is_p5_free(s, e, inner, True)
                without = shape_is_p5_free(s, e, inner, False)
                if e != s:
                    assert with_hub == without, (s, e, inner)
                elif s > 4:
                    assert with_hub and not without, (s, e, inner)


def order_multisets(total, most):
    """Every multiset of positive orders with sum ``total`` and parts at most
    ``most``, as an ascending tuple."""
    if total == 0:
        yield ()
        return
    for k in range(min(total, most), 0, -1):
        for rest in order_multisets(total - k, k):
            yield rest + (k,)


def test_completion_cap_matches_grouping_oracle():
    """The closed-form capacity equals the grouping recursion over the
    catalogue on every multiset of component orders a search class can have:
    the 272 with sum at most 12, the engine's largest order."""
    multisets = [m for total in range(13) for m in order_multisets(total, total)]
    assert len(multisets) == 272
    for orders in multisets:
        assert completion_cap(orders) == grouping_cap(orders), orders


def test_enumerate_pinned_counts():
    assert len(enumerate_p5_free(11, 14)) == 2
    assert len(enumerate_p5_free(11, 15)) == 1
    assert enumerate_p5_free(11, 16) == ()
    assert enumerate_p5_free(5, 7) == ()


def test_enumerate_11_14_shapes():
    k4 = complete(4)
    k4m = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    want = {
        canonical_key(disjoint_union(disjoint_union(k4, k4), path_graph(3))),
        canonical_key(disjoint_union(disjoint_union(k4, k4m), complete(3))),
    }
    assert {canonical_key(g) for g in enumerate_p5_free(11, 14)} == want
    assert (canonical_key(enumerate_p5_free(11, 15)[0])
            == canonical_key(extremal_p5(11)))


def test_enumerate_members_are_p5_free_with_right_size():
    for n, m in ((7, 8), (9, 12), (10, 11)):
        for g in enumerate_p5_free(n, m):
            assert g.n == n and g.edge_count() == m
            assert find_path(g, 5) is None


def test_enumerate_nonempty_iff_below_turan():
    for n in range(0, 12):
        cap = ex_p5(n)
        for m in range(0, cap + 3):
            got = enumerate_p5_free(n, m)
            assert bool(got) == (m <= cap), (n, m)
        if n % 4 in (0, 1) and n >= 4:
            top = enumerate_p5_free(n, cap)
            assert len(top) == 1
            assert canonical_key(top[0]) == canonical_key(extremal_p5(n))


def test_enumerate_order_cap():
    with pytest.raises(OrderTooLarge):
        enumerate_p5_free(13, 10)


def test_cross_oracle_equivalence_up_to_7():
    """A labelled graph appears (up to isomorphism) in the enumeration for
    its size iff it has no 5-vertex path."""
    for n in range(1, 8):
        pairs = all_pairs(n)
        enum_keys = {}
        free = set(p5_free_masks(n))
        by_count = {}
        for mask in free:
            by_count.setdefault(mask.bit_count(), []).append(mask)
        for m, masks in by_count.items():
            enum_keys[m] = {canonical_key(g) for g in enumerate_p5_free(n, m)}
            for mask in masks:
                g = Graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])
                assert canonical_key(g) in enum_keys[m]
        # and conversely every enumerated graph is path-free
        for m, keys in enum_keys.items():
            for g in enumerate_p5_free(n, m):
                assert find_path(g, 5) is None


def test_enumeration_lists_each_graph_once():
    """The enumeration keeps no canonical keys, so uniqueness rests on the
    catalogue and the composition order: across every (n, m) with
    1 <= n <= 12 and m <= ex(n), the graphs returned are pairwise
    non-isomorphic."""
    total = 0
    for n in range(1, 13):
        for m in range(0, ex_p5(n) + 1):
            graphs = enumerate_p5_free(n, m)
            keys = {canonical_key(g) for g in graphs}
            assert len(keys) == len(graphs), (n, m)
            total += len(graphs)
    assert total == 1752
