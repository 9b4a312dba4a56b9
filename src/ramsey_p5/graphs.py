"""Bitmask-backed simple graphs: exact path and component tests,
and the Turán number ex(n, P5) = 6a + C(b, 2) for n = 4a + b with its
extremal graph aK4 + K_b.

Vertices are integers 0..n-1. Row ``adj[v]`` is an int whose bit ``w`` is set
iff vw is an edge, so neighbourhood intersections and component sweeps are
single integer operations. Graphs have no file format of their own; certificate
and design files are read by ``colouring`` and ``designs``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n: int = n
        self.adj: tuple[int, ...] = tuple(rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Graph):
            return self.n == other.n and self.adj == other.adj
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with i < j, ascending lexicographic."""
        out = []
        for i in range(self.n):
            row = self.adj[i] >> (i + 1)
            j = i + 1
            while row:
                if row & 1:
                    out.append((i, j))
                row >>= 1
                j += 1
        return out


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def complete(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices, centre 0."""
    return Graph(n, ((0, i) for i in range(1, n)))


def _from_rows(rows: Iterable[int]) -> Graph:
    """The graph with these adjacency rows, which the caller guarantees
    symmetric, loop-free and within range; nothing is re-validated."""
    out = Graph.__new__(Graph)
    out.adj = tuple(rows)
    out.n = len(out.adj)
    return out


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return _from_rows(list(g.adj) + [row << g.n for row in h.adj])


def connected_components(g: Graph) -> list[int]:
    """Vertex bitmasks of the components, ordered by smallest member. An
    isolated vertex is its own component at once; only a vertex with a
    neighbour starts a frontier sweep."""
    comps = []
    rem = (1 << g.n) - 1
    adj = g.adj
    while rem:
        comp = rem & -rem
        if adj[comp.bit_length() - 1]:
            frontier = comp
            while frontier:
                grow = 0
                while frontier:  # each frontier row, taken lowest bit first
                    b = frontier & -frontier
                    grow |= adj[b.bit_length() - 1]
                    frontier ^= b
                frontier = grow & ~comp
                comp |= frontier
        comps.append(comp)
        rem ^= comp
    return comps


def find_path(g: Graph, t: int) -> tuple[int, ...] | None:
    """An ordered t-vertex path in g as a subgraph, or None.

    Exact depth-first search over simple paths from each start vertex in
    ascending order; the visited mask prunes revisits and the search stops
    at the first hit. Two cuts fix where it may go. Interior vertices
    (positions 2..t-1) have two path neighbours, so they are drawn only from
    vertices of degree >= 2; for t >= 4 the interior is a run of at least two
    vertices, so each of them also has a neighbour of degree >= 2. A path
    lies in one component, so the search starts only in components of at
    least t vertices that, for t >= 3, hold an interior candidate. Both cuts
    drop only branches that cannot complete, so the first path in
    depth-first order is the same as without them. A star then costs one
    pass over its rows, and a class of disjoint K4s one component sweep
    more, neither with any recursion.
    """
    if t < 1:
        raise ValueError("path order must be >= 1")
    if t > g.n:
        return None
    if t == 1:
        return (0,)
    adj = g.adj
    inner = 0
    for v, row in enumerate(adj):
        if row & (row - 1):  # at least two neighbours
            inner |= 1 << v
    if t >= 4:
        # one pass suffices: if v keeps w as its neighbour, w keeps v
        inner = sum(1 << v for v in _bits(inner) if adj[v] & inner)
    if t >= 3 and not inner:
        return None
    starts = 0
    for comp in connected_components(g):
        if comp.bit_count() >= t and (t < 3 or comp & inner):
            starts |= comp
    path: list[int] = []

    def extend(v: int, visited: int) -> bool:
        path.append(v)
        if len(path) == t:
            return True
        nb = adj[v] & ~visited
        if len(path) < t - 1:
            nb &= inner
        while nb:
            b = nb & -nb
            nb ^= b
            if extend(b.bit_length() - 1, visited | b):
                return True
        path.pop()
        return False

    for s in _bits(starts):
        if extend(s, 1 << s):
            return tuple(path)
    return None


# ---------------------------------------------------------------------------
# Turán numbers for the 5-vertex path
# ---------------------------------------------------------------------------

def ex_p5(n: int) -> int:
    """Maximum edges of an n-vertex graph with no 5-vertex path."""
    if n < 0:
        raise ValueError("order must be non-negative")
    a, b = divmod(n, 4)
    return 6 * a + b * (b - 1) // 2


def extremal_p5(n: int) -> Graph:
    """The unique edge-maximal graph without a 5-vertex path: aK4 + K_b."""
    if n < 0:
        raise ValueError("order must be non-negative")
    a = n // 4
    edges = []
    for i in range(a):
        edges.extend(combinations(range(4 * i, 4 * i + 4), 2))
    edges.extend(combinations(range(4 * a, n), 2))
    return Graph(n, edges)

