"""Graph substrate: path and component tests, the Turán number
ex(n, P5) and its extremal graph."""

import random
from itertools import combinations

import pytest

from oracles import (all_pairs, bfs_components, brute_force_ex_p5, perm_has_path,
                     shape_counts, unlabelled_trees, unpruned_find_path)
from ramsey_p5.graphs import (Graph, complete, connected_components, cycle_graph,
                              disjoint_union, ex_p5, extremal_p5, find_path,
                              path_graph, star_graph)
from ramsey_p5.pfree import shape_is_p5_free


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(-1)
    assert disjoint_union(complete(40), complete(40)).edge_count() == 2 * 780
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_adjacency_symmetric_and_edge_count():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.adj[1] >> 0 & 1 and g.adj[0] >> 1 & 1
    assert g.edge_count() == 3
    assert sum(row.bit_count() for row in g.adj) == 2 * g.edge_count()
    assert g.edges() == [(0, 1), (1, 2), (3, 4)]


def test_contains_path_examples():
    assert find_path(complete(4), 5) is None
    assert find_path(extremal_p5(11), 5) is None  # K4 + K4 + K3
    assert find_path(cycle_graph(5), 5) is not None
    assert find_path(star_graph(5), 5) is None


def test_contains_path_small_orders():
    assert find_path(Graph(1), 1) is not None
    assert find_path(Graph(0), 1) is None
    assert find_path(Graph(2, [(0, 1)]), 2) is not None
    assert find_path(Graph(2), 2) is None
    with pytest.raises(ValueError):
        find_path(Graph(2), 0)


def test_contains_path_matches_permutation_oracle():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 6)
        pairs = all_pairs(n)
        edges = {p for p in pairs if rng.random() < 0.4}
        g = Graph(n, edges)
        for t in (2, 3, 4, 5):
            assert (find_path(g, t) is not None) == perm_has_path(edges, n, t)


def test_find_path_returns_real_path():
    g = cycle_graph(6)
    path = find_path(g, 5)
    assert path is not None and len(set(path)) == 5
    assert all(g.adj[path[k]] >> path[k + 1] & 1 for k in range(4))


def _same_first_path(g: Graph) -> None:
    for t in range(1, 7):
        assert find_path(g, t) == unpruned_find_path(list(g.adj), g.n, t), (g.edges(), t)


def test_find_path_matches_unpruned_search():
    """The start and degree cuts in find_path drop only branches that cannot
    complete: for t = 1..6 it returns the same first path as the search
    without them, on every labelled graph up to 6 vertices, on seeded random
    graphs up to 12 vertices, and on relabelled stars and double stars up
    to 96 vertices, past one machine word per adjacency row."""
    for n in range(7):
        pairs = all_pairs(n)
        for mask in range(1 << len(pairs)):
            _same_first_path(Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1]))
    rng = random.Random(20261018)
    for _ in range(400):
        n = rng.randint(7, 12)
        density = rng.choice((0.1, 0.2, 0.3, 0.5))
        _same_first_path(Graph(n, [p for p in all_pairs(n) if rng.random() < density]))
    for n in range(1, 97):
        label = rng.sample(range(n), n)
        _same_first_path(Graph(n, [(label[0], label[i]) for i in range(1, n)]))
        for split in {k for k in (2, n // 2, n - 1) if 2 <= k < n}:
            # centres label[0] and label[split], joined, splitting the leaves
            edges = [(label[0], label[split])]
            edges += [(label[0], label[i]) for i in range(1, split)]
            edges += [(label[split], label[i]) for i in range(split + 1, n)]
            _same_first_path(Graph(n, edges))


def _relabelled(n: int, edges: list[tuple[int, int]], rng: random.Random) -> Graph:
    label = rng.sample(range(n), n)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def test_find_path_cuts_keep_the_first_path():
    """Graphs where the interior cut (star centres, which have no neighbour
    of degree >= 2) and the component cut (components too small or holding
    no interior vertex) fire, against the search without them for t = 1..6:
    relabelled disjoint unions of K4s, K3s, stars and isolated vertices past
    64 vertices; spiders with 2-edge legs, whose interior vertices sit next
    to the centre; a component of exactly t vertices holding P_t after
    smaller ones; and a 74-vertex double broom, whose every 5-vertex path
    runs through its one degree-2 vertex."""
    rng = random.Random(20261019)
    for _ in range(12):
        edges, n = [], 0
        while n <= 64:
            size = rng.choice((1, 3, 4, 4, 5, 9))
            if size in (3, 4):
                edges += [(n + a, n + b) for a, b in combinations(range(size), 2)]
            else:
                edges += [(n, n + i) for i in range(1, size)]
            n += size
        _same_first_path(_relabelled(n, edges, rng))
    for legs in range(1, 6):
        edges = [(0, 2 * i - 1) for i in range(1, legs + 1)]
        edges += [(2 * i - 1, 2 * i) for i in range(1, legs + 1)]
        _same_first_path(Graph(2 * legs + 1, edges))
        _same_first_path(_relabelled(2 * legs + 1, edges, rng))
    for t in range(2, 7):
        # K_{t-1} on 0..t-2, then P_t on t-1..2t-2, then an isolated vertex
        edges = list(combinations(range(t - 1), 2))
        edges += [(i, i + 1) for i in range(t - 1, 2 * t - 2)]
        _same_first_path(Graph(2 * t, edges))
        assert find_path(Graph(2 * t, edges), t) == tuple(range(t - 1, 2 * t - 1))
    # centres 0 and 1 joined through vertex 2, with 40 and 31 leaves
    edges = [(0, 2), (1, 2)] + [(0, v) for v in range(3, 43)]
    edges += [(1, v) for v in range(43, 74)]
    for g in (Graph(74, edges), _relabelled(74, edges, rng)):
        _same_first_path(g)
        path = find_path(g, 5)
        assert path is not None and g.adj[path[2]].bit_count() == 2


def test_ex_p5_values():
    assert ex_p5(11) == 15
    assert ex_p5(0) == 0
    assert ex_p5(9) == 12
    assert ex_p5(6) == 7
    with pytest.raises(ValueError):
        ex_p5(-1)
    with pytest.raises(ValueError):
        extremal_p5(-1)


def test_ex_p5_matches_brute_force_to_6():
    for n in range(7):
        assert ex_p5(n) == brute_force_ex_p5(n)


def test_extremal_graph_examples():
    g = extremal_p5(11)
    assert g.edge_count() == 15
    sizes = sorted(c.bit_count() for c in connected_components(g))
    assert sizes == [3, 4, 4]
    assert extremal_p5(4) == complete(4)
    assert extremal_p5(2).edge_count() == 1


def test_extremal_edge_count_matches_formula():
    for n in range(30):
        g = extremal_p5(n)
        assert g.edge_count() == ex_p5(n)
        if n <= 12:
            assert find_path(g, 5) is None


def test_complement_of_extremal_11_is_k4_free():
    """Lemma 3 (b), checked apart from the pair masks of ``checks``: each of
    the 330 vertex quads of aK4 + K3 on 11 vertices spans an edge, so none
    is independent."""
    g = extremal_p5(11)
    quads = list(combinations(range(11), 4))
    assert len(quads) == 330
    assert not [quad for quad in quads
                if not any(g.adj[a] >> b & 1 for a, b in combinations(quad, 2))]


def test_graph_algebra():
    du = disjoint_union(complete(4), complete(3))
    assert du.n == 7 and du.edge_count() == 9


def test_tree_has_p5_iff_diameter_at_least_4():
    """A tree of diameter at most 3 is a star or a double star, which is the
    catalogue's only P5-free tree shape: on every unlabelled tree up to 9
    vertices, find_path's verdict is the catalogue's, and the P5-free trees
    of each order are the one star and the double stars."""
    free_counts = []
    for level in unlabelled_trees(9)[1:]:
        free = 0
        for tree in level:
            full = (1 << tree.n) - 1
            is_free = shape_is_p5_free(*shape_counts(tree.adj, full))
            assert (find_path(tree, 5) is not None) != is_free, tree.edges()
            free += is_free
        free_counts.append(free)
    assert free_counts == [1, 1, 1, 2, 2, 3, 3, 4, 4]


def test_connectivity_helpers():
    g = disjoint_union(complete(3), complete(2))
    assert len(connected_components(g)) != 1
    assert [c.bit_count() for c in connected_components(g)] == [3, 2]
    assert len(connected_components(path_graph(5))) == 1


def test_components_match_bfs_oracle():
    """connected_components lists the same vertex sets, ordered by smallest
    member, as breadth-first search one vertex at a time: on seeded sparse
    graphs full of isolated vertices, and on every colour class of the lift
    chain up to K64, where a class leaves most vertices isolated."""
    from ramsey_p5.colouring import lift, witness

    rng = random.Random(2024)
    graphs = [Graph(0), Graph(1), Graph(7)]
    for _ in range(150):
        n = rng.randint(1, 40)
        m = rng.randint(0, n)
        graphs.append(Graph(n, [tuple(rng.sample(range(n), 2))
                                for _ in range(m)] if n > 1 else []))
    col = witness(6)
    while True:
        graphs.extend(g for _, g in col.colour_classes())
        if col.n == 64:
            break
        col = lift(col)
    for g in graphs:
        assert connected_components(g) == bfs_components(list(g.adj), g.n), g
