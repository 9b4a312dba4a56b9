"""Independent brute-force oracles the tests check the package against.

Everything here recomputes answers from first principles (raw enumeration,
permutation search, Prüfer-free tree growth) without going through the code
paths under test. The capacity oracle builds on the connected catalogue,
which the pfree tests check against raw enumeration, and not on the closed
form it is compared with. ``shape_counts`` counts the four numbers that
``pfree.shape_is_p5_free`` decides from, so the tests can apply that rule to
any component directly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from ramsey_p5.colouring import EdgeColouring, pair_list


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def adj_of_mask(mask: int, pairs: list[tuple[int, int]], n: int) -> list[int]:
    adj = [0] * n
    while mask:
        b = mask & -mask
        i, j = pairs[b.bit_length() - 1]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        mask ^= b
    return adj


def adj_has_p5(adj: list[int], n: int) -> bool:
    """Depth-first scan for a simple path on 5 vertices."""

    def extend(v: int, visited: int, length: int) -> bool:
        if length == 5:
            return True
        nb = adj[v] & ~visited
        while nb:
            b = nb & -nb
            nb ^= b
            if extend(b.bit_length() - 1, visited | b, length + 1):
                return True
        return False

    return any(extend(s, 1 << s, 1) for s in range(n))


def unpruned_find_path(adj: list[int], n: int, t: int) -> tuple[int, ...] | None:
    """The first t-vertex path in depth-first order, tried from every start
    vertex and through every unvisited neighbour: the path search with no
    cut beyond the visited mask."""
    if t > n:
        return None
    path: list[int] = []

    def extend(v: int, visited: int) -> bool:
        path.append(v)
        if len(path) == t:
            return True
        nb = adj[v] & ~visited
        while nb:
            b = nb & -nb
            nb ^= b
            if extend(b.bit_length() - 1, visited | b):
                return True
        path.pop()
        return False

    for s in range(n):
        if extend(s, 1 << s):
            return tuple(path)
    return None


def perm_has_path(edges: set[tuple[int, int]], n: int, t: int) -> bool:
    """Path detection by raw enumeration of ordered vertex tuples."""
    if t == 1:
        return n >= 1
    for tup in permutations(range(n), t):
        if all(tuple(sorted((tup[k], tup[k + 1]))) in edges for k in range(t - 1)):
            return True
    return False


def brute_force_ex_p5(n: int) -> int:
    """Max edges over all 2^C(n,2) labelled graphs with no 5-vertex path."""
    if n < 2:
        return 0
    pairs = all_pairs(n)
    best = 0
    for mask in range(1 << len(pairs)):
        cnt = mask.bit_count()
        if cnt <= best:
            continue
        if not adj_has_p5(adj_of_mask(mask, pairs, n), n):
            best = cnt
    return best


def brute_force_extremal_masks(n: int) -> list[int]:
    """All labelled graphs attaining the brute-force maximum."""
    pairs = all_pairs(n)
    best = brute_force_ex_p5(n)
    return [mask for mask in range(1 << len(pairs))
            if mask.bit_count() == best
            and not adj_has_p5(adj_of_mask(mask, pairs, n), n)]


def perm_canonical_mask(mask: int, n: int) -> int:
    """Smallest edge mask over all vertex permutations; exact isomorphism
    invariant for small n."""
    pairs = all_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    best = None
    for perm in permutations(range(n)):
        img = 0
        for i, j in edges:
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            img |= 1 << index[(a, b)]
        if best is None or img < best:
            best = img
    return best if best is not None else 0


@lru_cache(maxsize=None)
def _perm_tables(v: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation of v vertices, the source index of every edge of
    K_v in search order (edge (u, w), u < w, has index w(w-1)/2 + u)."""
    tabs = []
    for perm in permutations(range(v)):
        idx = []
        for w in range(1, v):
            for u in range(w):
                a, b = perm[u], perm[w]
                if a > b:
                    a, b = b, a
                idx.append(b * (b - 1) // 2 + a)
        tabs.append(tuple(idx))
    return tuple(tabs)


def perm_coloured_key(cols, v: int) -> tuple[int, ...]:
    """Canonical form of the coloured K_v whose edge (u, w), u < w, has colour
    cols[w(w-1)/2 + u]: the minimum, over all v! vertex permutations, of the
    colour sequence renamed by first use. Exact for small v."""
    best: list[int] = []
    for tab in _perm_tables(v):
        names: dict = {}
        out: list[int] = []
        # 0 while out matches best, -1 once smaller, 1 once larger; the
        # first permutation counts as smaller than the empty best
        decided = 0 if best else -1
        for pos, src in enumerate(tab):
            mc = names.setdefault(cols[src], len(names) + 1)
            if not decided:
                if mc > best[pos]:
                    decided = 1
                    break
                if mc < best[pos]:
                    decided = -1
            out.append(mc)
        if decided == -1:
            best = out
    return tuple(best)


def colour_twin_reps(cols, v: int) -> list[int]:
    """For each vertex of a coloured K_v (indexed as in perm_coloured_key),
    the least vertex with the same colour as it to every third vertex."""
    def col(a: int, b: int):
        a, b = min(a, b), max(a, b)
        return cols[b * (b - 1) // 2 + a]

    return [min(x for x in range(v)
                if all(col(x, z) == col(y, z) for z in range(v) if z not in (x, y)))
            for y in range(v)]


def edge_creates_p5(adj: list[int], u: int, v: int) -> bool:
    """With edge uv already in adj: is there a 5-vertex path through it?"""
    def tails(start: int, avoid: int) -> list[list[int]]:
        out: list[list[int]] = [[], [], [], [], []]

        def rec(x: int, mask: int, k: int) -> None:
            out[k].append(mask)
            if k == 4:
                return
            nb = adj[x] & ~mask & ~avoid
            while nb:
                b = nb & -nb
                nb ^= b
                rec(b.bit_length() - 1, mask | b, k + 1)

        rec(start, 1 << start, 1)
        return out

    us = tails(u, 1 << v)
    vs = tails(v, 1 << u)
    for k in range(1, 5):
        for mu in us[k]:
            for mv in vs[5 - k]:
                if not (mu & mv):
                    return True
    return False


def p5_free_masks(n: int) -> list[int]:
    """Every labelled graph on n vertices with no 5-vertex path, as edge
    masks, by depth-first growth (the property is closed under deleting
    edges, so each such graph is reached exactly once)."""
    pairs = all_pairs(n)
    m = len(pairs)
    adj = [0] * n
    out: list[int] = []

    def rec(start: int, mask: int) -> None:
        out.append(mask)
        for k in range(start, m):
            i, j = pairs[k]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if not edge_creates_p5(adj, i, j):
                rec(k + 1, mask | (1 << k))
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)

    rec(0, 0)
    return out


def mask_is_connected(mask: int, pairs: list[tuple[int, int]], n: int) -> bool:
    adj = adj_of_mask(mask, pairs, n)
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            grow |= adj[b.bit_length() - 1]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def bfs_components(adj: list[int], n: int) -> list[int]:
    """Vertex masks of the components, by breadth-first search one vertex
    at a time, ordered by smallest member."""
    comps: list[int] = []
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        comp = 1 << root
        queue = [root]
        while queue:
            x = queue.pop(0)
            for y in range(n):
                if adj[x] >> y & 1 and not comp >> y & 1:
                    comp |= 1 << y
                    queue.append(y)
        comps.append(comp)
        seen |= comp
    return comps


def component_sizes(adj: list[int], n: int) -> tuple[int, ...]:
    """Sorted component orders, from bfs_components."""
    return tuple(sorted(c.bit_count() for c in bfs_components(adj, n)))


def shape_counts(adj: list[int], comp: int) -> tuple[int, int, int, bool]:
    """The order s, edge count e, number of vertices of degree at least 2
    and whether some vertex is adjacent to all others, of the connected
    graph on the vertex mask ``comp`` (a whole component of the graph with
    neighbour masks ``adj``), counted from the degrees."""
    degrees = [adj[v].bit_count() for v in range(len(adj)) if comp >> v & 1]
    s = len(degrees)
    return s, sum(degrees) // 2, sum(d > 1 for d in degrees), s - 1 in degrees


def connected_edge_cap(s: int) -> int:
    """Most edges of a connected graph on s vertices with no 5-vertex path:
    the largest e with a member of ``pfree.component_catalogue``, which the
    pfree tests check against raw enumeration."""
    from ramsey_p5.pfree import component_catalogue

    return next(e for e in range(s * (s - 1) // 2, -1, -1)
                if component_catalogue(s, e))


@lru_cache(maxsize=None)
def grouping_cap(sizes: tuple[int, ...]) -> int:
    """Most edges of a graph with no 5-vertex path whose components are
    unions of components of the given orders: the best ``connected_edge_cap``
    sum over every grouping, tried by recursion on the group of the first
    component."""
    if not sizes:
        return 0
    first, rest = sizes[0], sizes[1:]
    best = 0
    for sub in range(1 << len(rest)):
        total = first + sum(s for i, s in enumerate(rest) if sub >> i & 1)
        remaining = tuple(s for i, s in enumerate(rest) if not sub >> i & 1)
        best = max(best, connected_edge_cap(total) + grouping_cap(remaining))
    return best


def naive_has_mono_p5(col: EdgeColouring) -> bool:
    """Scan every ordered 5-tuple of vertices for a single-colour path."""
    n = col.n
    if n < 5:
        return False
    matrix = [[0] * n for _ in range(n)]
    for (i, j), c in zip(pair_list(n), col.colours):
        matrix[i][j] = matrix[j][i] = c
    for tup in permutations(range(n), 5):
        if tup[0] > tup[4]:
            continue  # each path read once
        c = matrix[tup[0]][tup[1]]
        if (matrix[tup[1]][tup[2]] == c and matrix[tup[2]][tup[3]] == c
                and matrix[tup[3]][tup[4]] == c):
            return True
    return False


def random_mono_free_colouring(rng, n: int, r: int) -> EdgeColouring:
    """Greedy randomized colouring whose classes all stay free of 5-vertex
    paths; restarts on dead ends."""
    pairs = all_pairs(n)
    while True:
        rows = [[0] * n for _ in range(r + 1)]
        cols = []
        for i, j in pairs:
            for c in rng.sample(range(1, r + 1), r):
                rows[c][i] |= 1 << j
                rows[c][j] |= 1 << i
                if not edge_creates_p5(rows[c], i, j):
                    cols.append(c)
                    break
                rows[c][i] &= ~(1 << j)
                rows[c][j] &= ~(1 << i)
            else:
                break
        if len(cols) == len(pairs):
            return EdgeColouring(n, r, cols)


def unlabelled_trees(max_n: int):
    """Representatives of all trees with up to max_n vertices, grown by leaf
    attachment. Dedup uses the package canonical form, which the canon tests
    validate against permutation search separately."""
    from ramsey_p5.canon import canonical_key
    from ramsey_p5.graphs import Graph

    levels: list[list[Graph]] = [[], [Graph(1)]]
    for n in range(2, max_n + 1):
        seen = {}
        for tree in levels[n - 1]:
            base = tree.edges()
            for attach in range(n - 1):
                g = Graph(n, base + [(attach, n - 1)])
                seen.setdefault(canonical_key(g), g)
        levels.append(list(seen.values()))
    return levels


class _Rejected(Exception):
    pass


def line_parse_certificate(data: bytes):
    """A certificate read one line at a time, every edge line split and its
    tokens checked on their own, with the package's line numbers and
    messages: ``(n, r, colours, notes)`` for a file the format accepts, or
    the ``(line, message)`` of the first error."""

    def reject(line: int, message: str):
        raise _Rejected(line, message)

    def number(token: str, line: int, what: str) -> int:
        if not token.isdigit() or (token != "0" and token[0] == "0"):
            reject(line, f"malformed {what}: {token!r}")
        return int(token)

    try:
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            reject(0, f"not ASCII: {exc}")
        if not text.endswith("\n"):
            reject(0, "missing trailing newline")
        lines = text[:-1].split("\n")
        if lines[0] != "RAMSEY-P5 v1":
            reject(1, "expected header 'RAMSEY-P5 v1'")
        if len(lines) < 3:
            reject(len(lines), "truncated certificate")
        head = lines[1].split(" ")
        if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("r="):
            reject(2, "expected 'n=<n> r=<r>'")
        n = number(head[0][2:], 2, "order")
        r = number(head[1][2:], 2, "colour count")
        if r < 1:
            reject(2, "need at least one colour")
        if lines[2] != "claim=mono-p5-free":
            reject(3, "expected 'claim=mono-p5-free'")
        expected = n * (n - 1) // 2
        if len(lines) < 3 + expected:
            reject(len(lines), f"expected {expected} edge lines")
        cols = []
        for k, (i, j) in enumerate(all_pairs(n)):
            line = 4 + k
            parts = lines[3 + k].split(" ")
            if len(parts) != 3:
                reject(line, "expected '<i> <j> <c>'")
            ii = number(parts[0], line, "vertex")
            jj = number(parts[1], line, "vertex")
            c = number(parts[2], line, "colour")
            if (ii, jj) != (i, j):
                reject(line, f"expected pair {i} {j}, got {ii} {jj}")
            if not 1 <= c <= r:
                reject(line, f"colour {c} outside 1..{r}")
            cols.append(c)
        notes = lines[3 + expected:]
        for k, raw in enumerate(notes):
            if not raw.startswith("#"):
                reject(4 + expected + k, "trailing lines must start with '#'")
        return n, r, tuple(cols), tuple(notes)
    except _Rejected as exc:
        return exc.args
