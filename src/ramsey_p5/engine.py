"""Exhaustive certification of small path-Ramsey instances.

Backtracking assigns colours to the edges of K_n in vertex-by-vertex order
(all edges into vertex w before vertex w+1), so every prefix is a complete
colouring of some K_w. Pruning:

* a colour class may never gain a 5-vertex path (checked incrementally
  through the new edge);
* a colour class may never exceed the Turán bound for 5-vertex paths;
* the summed completion capacity of all classes must reach the edge count,
  where a class capacity is the largest edge count any supergraph of its
  current components can have while staying free of 5-vertex paths;
* colour relabelling is broken by first-use order, and coloured prefixes on
  the first few vertices are deduplicated by a canonical form.

A refuted verdict therefore means every colouring was covered, up to the
symmetries above. Budget exhaustion is an ordinary outcome, not an error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .colouring import Certificate, pair_index, verify_certificate
from .graphs import ex_p5
from .pfree import _max_conn_edges

MAX_ORDER = 12
MAX_COLOURS = 4

OUTCOME_REFUTED = "refuted"
OUTCOME_WITNESS = "witness"
OUTCOME_BUDGET = "budget-exhausted"


class ParameterError(ValueError):
    """Instance outside the supported exhaustive range."""


@dataclass(frozen=True)
class SearchConfig:
    node_limit: int | None = None
    time_limit: float | None = None
    turan_bound: bool = True
    colour_symmetry: bool = True
    component_bound: bool = True
    isomorph_depth: int = 6  # canonical-prefix rejection up to this many vertices

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive")

    @property
    def mode(self) -> str:
        if self.node_limit is not None:
            return "node-limit"
        if self.time_limit is not None:
            return "time-limit"
        return "unbounded"


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int
    seconds: float
    mode: str

    def lines(self) -> list[str]:
        return [f"nodes={self.nodes}", f"depth={self.max_depth}",
                f"seconds={self.seconds:.3f}", f"mode={self.mode}"]


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: Certificate | None
    stats: SearchStats


class _BudgetUp(Exception):
    pass


@lru_cache(maxsize=None)
def _completion_cap(sizes: tuple[int, ...]) -> int:
    """Max edges of any P5-path-free graph whose components refine the given
    component sizes (components may merge, never split)."""
    if not sizes:
        return 0
    first = sizes[0]
    rest = sizes[1:]
    m = len(rest)
    best = 0
    for sub in range(1 << m):
        total = first
        remaining = []
        for i in range(m):
            if sub >> i & 1:
                total += rest[i]
            else:
                remaining.append(rest[i])
        val = _max_conn_edges(total) + _completion_cap(tuple(remaining))
        if val > best:
            best = val
    return best


def _component_sizes(adj: list[int], n: int) -> tuple[int, ...]:
    sizes = []
    rem = (1 << n) - 1
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            grow = 0
            m = frontier
            while m:
                b = m & -m
                m ^= b
                grow |= adj[b.bit_length() - 1]
            frontier = grow & ~comp
            comp |= frontier
        sizes.append(comp.bit_count())
        rem &= ~comp
    sizes.sort()
    return tuple(sizes)


def _edge_makes_p5(adj: list[int], u: int, v: int) -> bool:
    """True iff the class graph (with edge uv already inserted) has a
    5-vertex path through uv."""
    ups = _paths_ending(adj, u, 1 << v)
    vps = _paths_ending(adj, v, 1 << u)
    for k in range(1, 5):
        side = vps[5 - k]
        if not side:
            continue
        for mu in ups[k]:
            for mv in side:
                if not (mu & mv):
                    return True
    return False


def _paths_ending(adj: list[int], start: int, avoid: int) -> list[list[int]]:
    """Vertex masks of simple paths with k vertices ending at start (k=1..4),
    avoiding the given mask."""
    out: list[list[int]] = [[], [], [], [], []]

    def rec(v: int, mask: int, k: int) -> None:
        out[k].append(mask)
        if k == 4:
            return
        nb = adj[v] & ~mask & ~avoid
        while nb:
            b = nb & -nb
            nb ^= b
            rec(b.bit_length() - 1, mask | b, k + 1)

    rec(start, 1 << start, 1)
    return out


@lru_cache(maxsize=None)
def _perm_tables(v: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation of v vertices, the source index of every edge of
    K_v in engine order (edge (u, w), u < w, has index w(w-1)/2 + u)."""
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


def _coloured_key(cols: list[int], nedges: int, v: int) -> tuple[int, ...]:
    """Canonical form of a coloured K_v prefix: the minimum, over vertex
    permutations, of the colour sequence renamed by first use."""
    best: list[int] | None = None
    for tab in _perm_tables(v):
        mapping = [0] * (MAX_COLOURS + 1)
        nxt = 0
        out: list[int] = []
        if best is None:
            for src in tab:
                c = cols[src]
                mc = mapping[c]
                if not mc:
                    nxt += 1
                    mc = mapping[c] = nxt
                out.append(mc)
            best = out
            continue
        decided = 0
        for pos in range(nedges):
            c = cols[tab[pos]]
            mc = mapping[c]
            if not mc:
                nxt += 1
                mc = mapping[c] = nxt
            if decided:
                out.append(mc)
                continue
            bc = best[pos]
            if mc > bc:
                decided = 1
                break
            out.append(mc)
            if mc < bc:
                decided = -1
        if decided == -1:
            best = out
    return tuple(best)


class _Engine:
    def __init__(self, n: int, r: int, cfg: SearchConfig):
        self.n = n
        self.r = r
        self.cfg = cfg
        self.ex = ex_p5(n)
        self.edges = [(u, w) for w in range(1, n) for u in range(w)]
        self.m = len(self.edges)
        self.adj = [[0] * n for _ in range(r + 1)]
        self.counts = [0] * (r + 1)
        empty_cap = _completion_cap(tuple([1] * n)) if n else 0
        self.caps = [empty_cap] * (r + 1)
        self.total_cap = r * empty_cap
        self.cols = [0] * self.m
        self.nodes = 0
        self.max_depth = 0
        self.node_limit = cfg.node_limit
        self.deadline = None
        self.memo: set[tuple] = set()
        boundary_max = min(cfg.isomorph_depth, n - 1)
        self.boundaries = {v * (v - 1) // 2: v for v in range(3, boundary_max + 1)}
        self.witness: Certificate | None = None

    def run(self) -> Verdict:
        t0 = time.perf_counter()
        if self.cfg.time_limit is not None:
            self.deadline = t0 + self.cfg.time_limit
        outcome = OUTCOME_BUDGET
        try:
            found = self._dfs(0, 0)
            outcome = OUTCOME_WITNESS if found else OUTCOME_REFUTED
        except _BudgetUp:
            pass
        seconds = time.perf_counter() - t0
        stats = SearchStats(self.nodes, self.max_depth, seconds, self.cfg.mode)
        if outcome == OUTCOME_WITNESS and not verify_certificate(self.witness).ok:
            raise AssertionError("search witness fails re-verification")
        return Verdict(outcome, self.witness, stats)

    def _budget(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _BudgetUp
        if self.deadline is not None and self.nodes % 2048 == 0:
            if time.perf_counter() > self.deadline:
                raise _BudgetUp

    def _dfs(self, d: int, used: int) -> bool:
        if d == self.m:
            return self._record_witness()
        if d > self.max_depth:
            self.max_depth = d
        u, w = self.edges[d]
        ubit = 1 << u
        wbit = 1 << w
        cfg = self.cfg
        limit = min(used + 1, self.r) if cfg.colour_symmetry else self.r
        boundary_v = self.boundaries.get(d + 1)
        for c in range(1, limit + 1):
            self._budget()
            if cfg.turan_bound and self.counts[c] >= self.ex:
                continue
            adjc = self.adj[c]
            adjc[u] |= wbit
            adjc[w] |= ubit
            self.counts[c] += 1
            ok = not _edge_makes_p5(adjc, u, w)
            old_cap = self.caps[c]
            if ok and cfg.component_bound:
                new_cap = _completion_cap(_component_sizes(adjc, self.n))
                self.caps[c] = new_cap
                self.total_cap += new_cap - old_cap
                if self.total_cap < self.m:
                    ok = False
            if ok and boundary_v is not None:
                self.cols[d] = c
                key = (boundary_v,
                       _coloured_key(self.cols, d + 1, boundary_v))
                if key in self.memo:
                    ok = False
                else:
                    self.memo.add(key)
            if ok:
                self.cols[d] = c
                if self._dfs(d + 1, max(used, c)):
                    return True
            adjc[u] &= ~wbit
            adjc[w] &= ~ubit
            self.counts[c] -= 1
            if cfg.component_bound:
                self.total_cap += old_cap - self.caps[c]
                self.caps[c] = old_cap
        return False

    def _record_witness(self) -> bool:
        n = self.n
        rowmajor = [0] * self.m
        for d, (u, w) in enumerate(self.edges):
            rowmajor[pair_index(n, u, w)] = self.cols[d]
        self.witness = Certificate(n, self.r, tuple(rowmajor))
        return True


def ramsey_verify(n: int, r: int, cfg: SearchConfig | None = None) -> Verdict:
    """Decide whether every r-colouring of K_n has a monochromatic 5-vertex
    path (refuted) or produce a verified counterexample colouring (witness).
    """
    cfg = cfg or SearchConfig()
    if not 0 <= n <= MAX_ORDER:
        raise ParameterError(f"order must be in 0..{MAX_ORDER}, got {n}")
    if not 1 <= r <= MAX_COLOURS:
        raise ParameterError(f"colour count must be in 1..{MAX_COLOURS}, got {r}")
    return _Engine(n, r, cfg).run()
