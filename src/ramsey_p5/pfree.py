"""Catalogue and enumeration of graphs with no 5-vertex path.

A connected graph contains no 5-vertex path exactly when it is one of:

* a tree of diameter at most 3, i.e. a star or a double star (e = s - 1),
* a triangle with pendant edges all attached to one vertex (e = s),
* C4, K4 minus an edge, or K4 (s = 4 with e = 4, 5, 6).

``component_is_p5_free`` decides membership from the degrees alone, which
is the form the search engine tests each new edge with. The test suite
validates the classification against raw enumeration for small orders
instead of taking it on faith. Arbitrary graphs without a 5-vertex path are
exactly the disjoint unions of catalogue members, which is what
``enumerate_p5_free`` composes. The members of the catalogue are pairwise
non-isomorphic (their degree sequences differ), and two such unions are
isomorphic only when their multisets of components agree, so composing each
multiset once lists every graph exactly once, without canonical keys.
"""

from __future__ import annotations

from functools import lru_cache

from .canon import OrderTooLarge
from .graphs import Graph, complete, cycle_graph, disjoint_union, star_graph

ENUM_MAX_ORDER = 12


def _double_star(a: int, b: int) -> Graph:
    """Two adjacent centres 0, 1 carrying a and b leaves."""
    n = a + b + 2
    edges = [(0, 1)]
    edges.extend((0, 2 + i) for i in range(a))
    edges.extend((1, 2 + a + i) for i in range(b))
    return Graph(n, edges)


def _triangle_pendants(s: int) -> Graph:
    """Triangle 0,1,2 with s - 3 pendant edges at vertex 0."""
    edges = [(0, 1), (0, 2), (1, 2)]
    edges.extend((0, i) for i in range(3, s))
    return Graph(s, edges)


def _k4_minus() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


@lru_cache(maxsize=None)
def component_catalogue(s: int, e: int) -> tuple[Graph, ...]:
    """All connected graphs with s vertices, e edges and no 5-vertex path,
    one per isomorphism class, in construction order."""
    if s < 1:
        raise ValueError("component order must be >= 1")
    found: list[Graph] = []
    if s == 1:
        if e == 0:
            found.append(Graph(1))
    elif e == s - 1:
        found.append(star_graph(s))
        for a in range(1, (s - 2) // 2 + 1):
            found.append(_double_star(a, s - 2 - a))
    elif e == s and s >= 3:
        found.append(_triangle_pendants(s))
        if s == 4:
            found.append(cycle_graph(4))
    elif s == 4 and e == 5:
        found.append(_k4_minus())
    elif s == 4 and e == 6:
        found.append(complete(4))
    return tuple(found)


@lru_cache(maxsize=None)
def _max_conn_edges(s: int) -> int:
    """Most edges of a connected graph on s vertices with no 5-vertex path:
    the largest e with a catalogue member, searched from s(s-1)/2 down."""
    return next(e for e in range(s * (s - 1) // 2, -1, -1)
                if component_catalogue(s, e))


def component_is_p5_free(adj: list[int], comp: int) -> bool:
    """Whether the connected graph on the vertex mask ``comp`` (a whole
    component of the graph with neighbour masks ``adj``) has no 5-vertex
    path, decided from its degrees by the catalogue: at most 4 vertices, a
    tree with at most two non-leaves, or s edges with a vertex adjacent to
    all others."""
    s = comp.bit_count()
    if s <= 4:
        return True
    twice_e = inner = 0
    hub = False
    while comp:
        b = comp & -comp
        comp ^= b
        deg = adj[b.bit_length() - 1].bit_count()
        twice_e += deg
        if deg > 1:
            inner += 1
            if deg == s - 1:
                hub = True
    if twice_e == 2 * s - 2:
        return inner <= 2
    return twice_e == 2 * s and hub


def _component_options(n: int, m: int) -> list[tuple[int, int, Graph]]:
    """Every catalogue entry that could appear in an (n, m) composition,
    in a fixed descending order so multisets are enumerated once."""
    opts: list[tuple[int, int, Graph]] = []
    for s in range(n, 0, -1):
        e_max = min(m, s * (s - 1) // 2)
        for e in range(e_max, -1, -1):
            for g in component_catalogue(s, e):
                opts.append((s, e, g))
    return opts


def enumerate_p5_free(n: int, m: int) -> tuple[Graph, ...]:
    """All graphs on n vertices with m edges and no 5-vertex path, one per
    isomorphism class, composed from the connected catalogue in the order of
    ``_component_options``."""
    if n > ENUM_MAX_ORDER:
        raise OrderTooLarge(f"enumerate_p5_free supports n <= {ENUM_MAX_ORDER}")
    if n < 0 or m < 0:
        return ()
    if n == 0:
        return (Graph(0),) if m == 0 else ()
    opts = _component_options(n, m)
    results: list[Graph] = []

    def compose(idx: int, n_left: int, m_left: int, parts: list[Graph]) -> None:
        if n_left == 0:
            if m_left == 0:
                g = parts[0]
                for p in parts[1:]:
                    g = disjoint_union(g, p)
                results.append(g)
            return
        for i in range(idx, len(opts)):
            s, e, g = opts[i]
            if s > n_left or e > m_left:
                continue
            parts.append(g)
            compose(i, n_left - s, m_left - e, parts)
            parts.pop()

    compose(0, n, m, [])
    return tuple(results)
