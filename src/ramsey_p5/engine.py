"""Exhaustive certification of small path-Ramsey instances.

Backtracking assigns colours to the edges of K_n in vertex-by-vertex order
(all edges into vertex w before vertex w+1), so every prefix is a complete
colouring of some K_w. Pruning:

* a colour class may never gain a 5-vertex path. The engine keeps, for
  every class, the component mask of every vertex, the edge count of every
  component and the mask of vertices of degree at least 2. From those
  records it decides each child before the edge is written, by the rule of
  ``pfree.shape_is_p5_free`` applied inline to the component the new edge
  creates or grows, in constant time: no path is enumerated and no vertex
  of the component is visited, except u, w and their common neighbours when
  looking for a vertex adjacent to all others. Only a child that passes
  writes the edge. This also keeps every class within the Turán bound
  ex(n), since any graph with more edges has a 5-vertex path;
* the summed completion capacity of all classes must reach the edge count,
  where a class capacity is the largest edge count any supergraph of its
  current components can have while staying free of 5-vertex paths. It
  depends only on the multiset of component orders, which changes only when
  an edge joins two components. The engine keeps that multiset as one
  integer, 4 bits per order, and looks its capacity up in a table filled on
  first use;
* colour relabelling is broken by first-use order, and coloured prefixes on
  the first few vertices are deduplicated by ``canon.coloured_key``.

A refuted verdict therefore means every colouring was covered, up to the
symmetries above. Budget exhaustion is an ordinary outcome, not an error.
``SearchStats`` counts the nodes each rule cut off; every other node is a
descent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .canon import coloured_key
from .colouring import Certificate, pair_index, verify_certificate
from .pfree import _max_conn_edges

MAX_ORDER = 12
MAX_COLOURS = 4
# Coloured prefixes on up to this many vertices are deduplicated. A K7 memo
# would cut the trees further, but it changes the pinned node counts.
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
        if self.seconds is not None and not 0 < self.seconds < math.inf:
            raise ValueError("time limit must be positive and finite")

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
    memo: int = 0  # canonical prefixes recorded by the isomorph rule

    def lines(self) -> list[str]:
        return [f"nodes={self.nodes}", f"depth={self.max_depth}",
                f"seconds={self.seconds:.3f}", f"mode={self.mode}",
                f"pruned_path={self.pruned_path}",
                f"pruned_capacity={self.pruned_capacity}",
                f"pruned_isomorph={self.pruned_isomorph}",
                f"memo={self.memo}"]


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


# A class's component orders as one integer, its capacity key: 4 bits count
# the components of each order, and no count passes MAX_ORDER.
_ORDER_UNIT = tuple(1 << 4 * k for k in range(MAX_ORDER + 1))


class _Capacities(dict):
    """Class capacity by capacity key, filled from ``_completion_cap`` on
    first use."""

    def __missing__(self, key: int) -> int:
        orders = tuple(k for k in range(1, MAX_ORDER + 1)
                       for _ in range(key >> 4 * k & 15))
        cap = self[key] = _completion_cap(orders)
        return cap


class _Engine:
    def __init__(self, n: int, r: int, cfg: SearchConfig):
        self.n = n
        self.r = r
        self.cfg = cfg
        self.edges = [(u, w) for w in range(1, n) for u in range(w)]
        self.m = len(self.edges)
        # Per depth: the ends of its edge, their bits and the edge's mask.
        self.steps = [(u, w, 1 << u, 1 << w, 1 << u | 1 << w) for u, w in self.edges]
        self.adj = [[0] * n for _ in range(r + 1)]
        # Per class: the component mask of every vertex, the edge count of
        # every component (keyed by its mask), the mask of vertices of degree
        # at least 2, and the capacity key of its component orders.
        self.comp = [[1 << v for v in range(n)] for _ in range(r + 1)]
        self.edge_counts = [{1 << v: 0 for v in range(n)} for _ in range(r + 1)]
        self.inner = [0] * (r + 1)
        self.cap_of = _Capacities()
        self.orders = [n * _ORDER_UNIT[1]] * (r + 1)
        empty_cap = self.cap_of[self.orders[0]]
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
                            self.pruned_capacity, self.pruned_isomorph,
                            len(self.memo))
        if outcome == OUTCOME_WITNESS and not verify_certificate(self.witness).ok:
            raise AssertionError("search witness fails re-verification")
        return Verdict(outcome, self.witness, stats)

    def _dfs(self, d: int, used: int) -> bool:
        if d == self.m:
            return self._record_witness()
        if d > self.max_depth:
            self.max_depth = d
        u, w, ubit, wbit, uw = self.steps[d]
        cfg = self.cfg
        limit = min(used + 1, self.r) if cfg.colour_symmetry else self.r
        boundary_v = self.boundaries.get(d + 1)
        tick = self.tick
        comps = self.comp
        adjs = self.adj
        inners = self.inner
        ecounts = self.edge_counts
        for c in range(1, limit + 1):
            tick()
            compc = comps[c]
            counts = ecounts[c]
            cu = compc[u]
            cw = compc[w]
            merged = cu != cw
            if merged:
                joined = cu | cw
                e = counts[cu] + counts[cw] + 1
            else:
                joined = cu
                e = counts[cu] + 1
            adjc = adjs[c]
            au = adjc[u]
            aw = adjc[w]
            inner = inners[c]
            # u and w have degree >= 2 with uw unless it is their first edge.
            grown = inner | (ubit if au else 0) | (wbit if aw else 0)
            # The class has no 5-vertex path, so a path that uw makes runs
            # through uw, inside the component ``joined`` of s vertices and e
            # edges. The rule of pfree.shape_is_p5_free, decided before uw is
            # written: past four vertices, a tree with at most two non-leaves,
            # or e = s with a vertex adjacent to all others, which is u, w or
            # a common neighbour of both.
            s = joined.bit_count()
            if s > 4:
                if e == s - 1:
                    free = (grown & joined).bit_count() <= 2
                elif e == s:
                    free = au | uw == joined or aw | uw == joined
                    rest = au & aw
                    while rest and not free:
                        b = rest & -rest
                        rest ^= b
                        free = adjc[b.bit_length() - 1] | b == joined
                else:
                    free = False
                if not free:
                    self.pruned_path += 1
                    continue
            adjc[u] = au | wbit
            adjc[w] = aw | ubit
            inners[c] = grown
            self.cols[d] = c
            # Capacity changes only when uw joins two components, and the
            # total passed the test when it last changed.
            if merged:
                saved = (compc, self.orders[c], self.caps[c], self.total_cap)
                self._merge(c, cu, cw)
            # An undone merge leaves this count and the parts' counts in
            # place: no other component can take their masks.
            counts[joined] = e
            if merged and cfg.component_bound and self.total_cap < self.m:
                self.pruned_capacity += 1
            elif boundary_v is not None and self._seen(boundary_v):
                self.pruned_isomorph += 1
            elif self._dfs(d + 1, max(used, c)):
                return True
            if merged:
                comps[c], self.orders[c], self.caps[c], self.total_cap = saved
            else:
                counts[cu] = e - 1
            inners[c] = inner
            adjc[u] = au
            adjc[w] = aw
        return False

    def _merge(self, c: int, cu: int, cw: int) -> None:
        """Join the components cu and cw of class c by one edge: give the
        class a relabelled copy of its component list and update its capacity
        key and capacity. The caller undoes it by putting back the list, the
        key and both capacities it held before."""
        joined = cu | cw
        self.comp[c] = comp = self.comp[c][:]
        rest = joined
        while rest:
            b = rest & -rest
            rest ^= b
            comp[b.bit_length() - 1] = joined
        unit = _ORDER_UNIT
        self.orders[c] = key = (self.orders[c] + unit[joined.bit_count()]
                                - unit[cu.bit_count()] - unit[cw.bit_count()])
        cap = self.cap_of[key]
        self.total_cap += cap - self.caps[c]
        self.caps[c] = cap

    def _seen(self, v: int) -> bool:
        """Record the coloured K_v that the colours so far complete; True if
        an isomorphic copy was recorded before."""
        key = coloured_key(self.cols, v)
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
