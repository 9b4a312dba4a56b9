"""Exhaustive certification of small path-Ramsey instances.

Backtracking assigns colours to the edges of K_n in vertex-by-vertex order
(all edges into vertex w before vertex w+1), so every prefix is a complete
colouring of some K_w. Pruning:

* a colour class may never gain a 5-vertex path. The engine keeps the
  component mask of every vertex in every class, so it tests only the
  component that the new edge creates or grows, by the catalogue of
  connected P5-free shapes (``pfree.component_is_p5_free``), without
  enumerating paths. This also keeps every class within the Turán bound
  ex(n), since any graph with more edges has a 5-vertex path;
* the summed completion capacity of all classes must reach the edge count,
  where a class capacity is the largest edge count any supergraph of its
  current components can have while staying free of 5-vertex paths. It
  depends only on the sorted component orders, which change only when an
  edge joins two components;
* colour relabelling is broken by first-use order, and coloured prefixes on
  the first few vertices are deduplicated by a canonical form.

A refuted verdict therefore means every colouring was covered, up to the
symmetries above. Budget exhaustion is an ordinary outcome, not an error.
``SearchStats`` counts the nodes each rule cut off; every other node is a
descent.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .colouring import Certificate, pair_index, verify_certificate
from .pfree import _max_conn_edges, component_is_p5_free

MAX_ORDER = 12
MAX_COLOURS = 4
# Coloured prefixes on up to this many vertices are deduplicated; the
# permutation tables grow as its factorial.
ISOMORPH_DEPTH = 6

OUTCOME_REFUTED = "refuted"
OUTCOME_WITNESS = "witness"
OUTCOME_BUDGET = "budget-exhausted"


class ParameterError(ValueError):
    """Instance outside the supported exhaustive range."""


@dataclass(frozen=True)
class SearchBudget:
    """Node and/or wall-clock limits of a search; the edge-colouring search
    and the design search both take one."""

    nodes: int | None = None
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.nodes is not None and self.nodes <= 0:
            raise ValueError("node limit must be positive")
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError("time limit must be positive")

    @property
    def mode(self) -> str:
        if self.nodes is not None:
            return "node-limit"
        if self.seconds is not None:
            return "time-limit"
        return "unbounded"


class BudgetExhausted(Exception):
    """A search passed its node cap or its deadline."""


# A time-limited search reads the clock once per this many nodes.
CLOCK_POLL_NODES = 1024


class NodeMeter:
    """Counts the nodes of one search against a budget; the clock starts
    when the meter is made."""

    def __init__(self, budget: SearchBudget | None):
        self.budget = budget = budget or SearchBudget()
        self.nodes = 0
        self.start = time.perf_counter()
        self.cap = budget.nodes
        self.deadline = None if budget.seconds is None else self.start + budget.seconds

    def tick(self) -> None:
        """Count one node; raise BudgetExhausted past the cap or deadline.
        The node check runs first, so node-limit runs are reproducible."""
        self.nodes += 1
        if self.cap is not None and self.nodes > self.cap:
            raise BudgetExhausted
        if self.deadline is not None and self.nodes % CLOCK_POLL_NODES == 0:
            if time.perf_counter() > self.deadline:
                raise BudgetExhausted

    def seconds(self) -> float:
        return time.perf_counter() - self.start


@dataclass(frozen=True)
class SearchConfig:
    """Pruning-rule switches; every rule is on by default."""

    colour_symmetry: bool = True
    component_bound: bool = True
    isomorph: bool = True  # canonical-prefix rejection up to ISOMORPH_DEPTH


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int
    seconds: float
    mode: str
    # Nodes cut off by each rule; the rest are descents.
    pruned_path: int = 0
    pruned_capacity: int = 0
    pruned_isomorph: int = 0

    def lines(self) -> list[str]:
        return [f"nodes={self.nodes}", f"depth={self.max_depth}",
                f"seconds={self.seconds:.3f}", f"mode={self.mode}",
                f"pruned_path={self.pruned_path}",
                f"pruned_capacity={self.pruned_capacity}",
                f"pruned_isomorph={self.pruned_isomorph}"]


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: Certificate | None
    stats: SearchStats


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


def _label(comp: list[int], part: int) -> None:
    """Make part the component mask of each of its vertices."""
    rest = part
    while rest:
        b = rest & -rest
        rest ^= b
        comp[b.bit_length() - 1] = part


class _Engine:
    def __init__(self, n: int, r: int, cfg: SearchConfig):
        self.n = n
        self.r = r
        self.cfg = cfg
        self.edges = [(u, w) for w in range(1, n) for u in range(w)]
        self.m = len(self.edges)
        self.adj = [[0] * n for _ in range(r + 1)]
        # Per class: the component mask of every vertex, and the sorted
        # component orders, which fix the class capacity.
        self.comp = [[1 << v for v in range(n)] for _ in range(r + 1)]
        self.sizes = [(1,) * n] * (r + 1)
        empty_cap = _completion_cap((1,) * n)
        self.caps = [empty_cap] * (r + 1)
        self.total_cap = r * empty_cap
        self.cols = [0] * self.m
        self.max_depth = 0
        self.pruned_path = self.pruned_capacity = self.pruned_isomorph = 0
        self.memo: set[tuple] = set()
        boundary_max = min(ISOMORPH_DEPTH if cfg.isomorph else 0, n - 1)
        self.boundaries = {v * (v - 1) // 2: v for v in range(3, boundary_max + 1)}
        self.witness: Certificate | None = None

    def run(self, budget: SearchBudget | None) -> Verdict:
        meter = NodeMeter(budget)
        self.tick = meter.tick
        outcome = OUTCOME_BUDGET
        try:
            found = self._dfs(0, 0)
            outcome = OUTCOME_WITNESS if found else OUTCOME_REFUTED
        except BudgetExhausted:
            pass
        stats = SearchStats(meter.nodes, self.max_depth, meter.seconds(),
                            meter.budget.mode, self.pruned_path,
                            self.pruned_capacity, self.pruned_isomorph)
        if outcome == OUTCOME_WITNESS and not verify_certificate(self.witness).ok:
            raise AssertionError("search witness fails re-verification")
        return Verdict(outcome, self.witness, stats)

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
        tick = self.tick
        for c in range(1, limit + 1):
            tick()
            adjc = self.adj[c]
            compc = self.comp[c]
            cu = compc[u]
            cw = compc[w]
            adjc[u] |= wbit
            adjc[w] |= ubit
            # The class was free of 5-vertex paths before uw went in, so any
            # such path now runs through uw, inside the component of u and w.
            if not component_is_p5_free(adjc, cu | cw):
                self.pruned_path += 1
            else:
                # Capacity changes only when uw joins two components, and the
                # total passed the test when it last changed.
                merged = cu != cw
                if merged:
                    old_sizes = self.sizes[c]
                    self._merge(c, cu, cw)
                if merged and cfg.component_bound and self.total_cap < self.m:
                    self.pruned_capacity += 1
                elif boundary_v is not None and self._seen(d, c, boundary_v):
                    self.pruned_isomorph += 1
                else:
                    self.cols[d] = c
                    if self._dfs(d + 1, max(used, c)):
                        return True
                if merged:
                    self._split(c, cu, cw, old_sizes)
            adjc[u] &= ~wbit
            adjc[w] &= ~ubit
        return False

    def _merge(self, c: int, cu: int, cw: int) -> None:
        """Join the components cu and cw of class c."""
        joined = cu | cw
        _label(self.comp[c], joined)
        sizes = list(self.sizes[c])
        sizes.remove(cu.bit_count())
        sizes.remove(cw.bit_count())
        insort(sizes, joined.bit_count())
        self._set_sizes(c, tuple(sizes))

    def _split(self, c: int, cu: int, cw: int, sizes: tuple[int, ...]) -> None:
        """Undo _merge(c, cu, cw); sizes are the component orders before it."""
        _label(self.comp[c], cu)
        _label(self.comp[c], cw)
        self._set_sizes(c, sizes)

    def _set_sizes(self, c: int, sizes: tuple[int, ...]) -> None:
        cap = _completion_cap(sizes)
        self.total_cap += cap - self.caps[c]
        self.caps[c] = cap
        self.sizes[c] = sizes

    def _seen(self, d: int, c: int, v: int) -> bool:
        """Record the coloured K_v that edge d completes in colour c; True if
        an isomorphic copy was recorded before."""
        self.cols[d] = c
        key = (v, _coloured_key(self.cols, d + 1, v))
        if key in self.memo:
            return True
        self.memo.add(key)
        return False

    def _record_witness(self) -> bool:
        n = self.n
        rowmajor = [0] * self.m
        for d, (u, w) in enumerate(self.edges):
            rowmajor[pair_index(n, u, w)] = self.cols[d]
        self.witness = Certificate(n, self.r, tuple(rowmajor))
        return True


def ramsey_verify(n: int, r: int, cfg: SearchConfig | None = None,
                  budget: SearchBudget | None = None) -> Verdict:
    """Decide whether every r-colouring of K_n has a monochromatic 5-vertex
    path (refuted) or produce a verified counterexample colouring (witness).
    ``cfg`` switches pruning rules off; ``budget`` caps nodes and time.
    """
    cfg = cfg or SearchConfig()
    if not 0 <= n <= MAX_ORDER:
        raise ParameterError(f"order must be in 0..{MAX_ORDER}, got {n}")
    if not 1 <= r <= MAX_COLOURS:
        raise ParameterError(f"colour count must be in 1..{MAX_COLOURS}, got {r}")
    return _Engine(n, r, cfg).run(budget)
