"""Canonical forms for graphs on at most 16 vertices and for coloured K_v.

The key of a graph is the lexicographically smallest upper-triangle adjacency
bit string over all vertex orderings the refinement search reaches. Ordered
partition refinement narrows the orderings; backtracking individualizes each
vertex of the first non-singleton cell in turn, once per orbit of the
automorphisms known so far. Twins (two vertices whose neighbourhoods agree
outside the pair) start in one orbit, and two leaves with equal encodings give
an automorphism whose orbits are merged too. Refinement counts each vertex
only against the cells split in the round before (McKay & Piperno, "Practical
graph isomorphism, II", 2014), which yields the same partitions in the same
order. A twin swap fixes every vertex already individualized, so neither step
changes a key; a test pins their bytes.

The key of a coloured K_v up to vertex relabelling and colour renaming
(``coloured_key``) is its least block sequence over the vertex orders that
list vertices by ascending sorted colour degrees, a colour-blind invariant. A
vertex's block is its colours to the vertices before it, renamed by first
use. The order grows one vertex at a time, keeping only the partial orders
whose blocks are least so far, and tries one of two unplaced twins (the same
colour to every third vertex) only, since swapping them fixes the rest.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .graphs import Graph

CANON_MAX = 16


class OrderTooLarge(ValueError):
    """Raised when a graph exceeds the supported canonicalization order."""


def _mask(cell: list[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(adj: tuple[int, ...], cells: list[list[int]],
            split: list[int]) -> list[list[int]]:
    """Equitable refinement of the ordered partition ``cells``.

    Every cell agrees on its neighbour counts in each cell of the partition
    before the last split, so only the fragments of the cells that split can
    tell its vertices apart. ``split`` lists their masks in partition order
    and leaves out the last fragment of each split cell, whose count follows
    from the others and the whole cell's: the whole vertex set at the root,
    the individualized vertex below it (the rest of its cell is the last
    fragment). Each round counts every vertex only against ``split`` and
    sorts each cell's groups by those counts, which splits and orders them as
    the counts in every cell would. The loop ends when no cell splits.
    """
    while split:
        out: list[list[int]] = []
        fragments: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = adj[v]
                sig = tuple((row & m).bit_count() for m in split)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                out.append(cell)
                continue
            parts = [groups[sig] for sig in sorted(groups)]
            out.extend(parts)
            fragments.extend(_mask(part) for part in parts[:-1])
        cells, split = out, fragments
    return cells


def canonical_key(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic (n <= 16)."""
    n = g.n
    if n > CANON_MAX:
        raise OrderTooLarge(f"canonical_key supports n <= {CANON_MAX}, got {n}")
    if n == 0:
        return bytes([0])
    adj = g.adj
    nbits = n * (n - 1) // 2

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def encode(perm: list[int]) -> int:
        bits = 0
        for i in range(n):
            row = adj[perm[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | (row >> perm[j] & 1)
        return bits

    # Twins (equal open or equal closed neighbourhoods) are swapped by an
    # automorphism that fixes every other vertex: start them in one orbit.
    first: dict[int, int] = {}
    for v in range(n):
        for nbhd in (adj[v], adj[v] | 1 << v):
            w = first.setdefault(nbhd, v)
            if w != v:
                merge(w, v)

    best: list = [None, None]  # [code, perm]

    def search(cells: list[list[int]], split: list[int]) -> None:
        cells = _refine(adj, cells, split)
        tgt = -1
        for k, cell in enumerate(cells):
            if len(cell) > 1:
                tgt = k
                break
        if tgt < 0:
            perm = [c[0] for c in cells]
            code = encode(perm)
            if best[0] is None or code < best[0]:
                best[0] = code
                best[1] = perm
            elif code == best[0]:
                for a, b in zip(best[1], perm):
                    merge(a, b)
            return
        cell = cells[tgt]
        branched: list[int] = []
        for v in cell:
            rv = find(v)
            if any(find(w) == rv for w in branched):
                continue
            branched.append(v)
            rest = [u for u in cell if u != v]
            search(cells[:tgt] + [[v], rest] + cells[tgt + 1:], [1 << v])

    search([list(range(n))], [(1 << n) - 1])
    if nbits == 0:
        return bytes([n])
    return bytes([n]) + best[0].to_bytes((nbits + 7) // 8, "big")


def _twin_reps(rows: list[list], inv: list) -> list[int]:
    """The least vertex of each vertex's twin class. Twins have the same
    colour to every third vertex, so they also share their invariant."""
    v = len(rows)
    rep = list(range(v))
    for x, y in combinations(range(v), 2):
        if rep[y] == y and inv[x] == inv[y] and all(
                rows[x][z] == rows[y][z] for z in range(v) if z != x and z != y):
            rep[y] = rep[x]
    return rep


def coloured_key(cols: Sequence[int], v: int) -> tuple[int, ...]:
    """Canonical form of the coloured K_v whose edge (u, w), u < w, has colour
    ``cols[w(w-1)/2 + u]``: equal for two prefixes iff one becomes the other
    under a vertex relabelling and a colour renaming."""
    rows: list[list] = [[None] * v for _ in range(v)]
    for w in range(1, v):
        for u in range(w):
            rows[w][u] = rows[u][w] = cols[w * (w - 1) // 2 + u]
    inv = [sorted(map(row.count, set(row) - {None})) for row in rows]
    rep = _twin_reps(rows, inv)
    states = [((), 0, {})]  # least partial orders: vertices, mask, colour names
    seq: list[int] = []
    for want in sorted(inv):
        best = None
        for placed, mask, names in states:
            tried = set()
            for x in range(v):
                if inv[x] != want or mask >> x & 1 or rep[x] in tried:
                    continue
                tried.add(rep[x])
                named = dict(names)
                block = [named.setdefault(rows[x][p], len(named) + 1) for p in placed]
                if best is None or block < best:
                    best, kept = block, []
                if block == best:
                    kept.append((placed + (x,), mask | 1 << x, named))
        seq += best
        states = kept
    return (v, *seq)
