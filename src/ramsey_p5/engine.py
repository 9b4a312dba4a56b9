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
  depends only on the multiset of component orders, and
  ``pfree.completion_cap`` gives it in closed form. The multiset changes
  only when an edge joins two components. The engine keeps it as one
  integer, 4 bits per order, and looks its capacity up in a table filled on
  first use. A child that joins two components is tested before its edge is
  written, after the path test;
* a path verdict is remembered. When edge d in colour c closes a path, the
  search records the node that wrote the last edge of colour c, and while
  that node stays on the search path, edge d in colour c is cut off without
  the test. This is exact: below that node class c only gains edges, a
  supergraph of a graph with a 5-vertex path has one too, and the inline
  rule decides exactly whether the class plus the edge has such a path, so
  the test would cut the child off as well. The prune counts and the tree
  are those of the test alone; only verdicts on classes the same call grew
  are recorded. Nothing else is remembered: "free" is not monotone, and
  neither is the capacity rule;
* colour relabelling is broken by first-use order, and coloured prefixes on
  the first few vertices are deduplicated by ``canon.coloured_key``.

A refuted verdict therefore means every colouring was covered, up to the
symmetries above. Budget exhaustion is an ordinary outcome, not an error.
``SearchStats`` counts the nodes each rule cut off, and how many of the path
prunes a remembered verdict decided; every other node is a descent, except
the last node of a budget-exhausted run, which no rule decides.

The search is one loop, not a recursion: each descended edge leaves one
undo record on an explicit stack, and the node and prune counts stay in
locals until the loop stops. The path verdicts live in locals of the same
call: per colour the depth of its last edge, which each undo record puts
back, and per depth a stamp of the node there, its node count above its
depth, written at each descent. The loop asks ``NodeMeter.check`` about the
budget only at the node counts the meter names.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from .canon import coloured_key
from .colouring import Certificate, pair_index, verify_certificate
from .pfree import completion_cap

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
    """The budget of one search; the clock starts when the meter is made.
    The search counts its own nodes and calls ``check`` at the counts the
    meter names."""

    def __init__(self, budget: SearchBudget | None):
        self.budget = budget = budget or SearchBudget()
        self.start = time.perf_counter()
        self.cap = budget.nodes
        self.deadline = None if budget.seconds is None else self.start + budget.seconds

    def check(self, nodes: int) -> int:
        """Raise BudgetExhausted if ``nodes`` passes the cap or the deadline
        has passed, else return the count at which to check next: cap + 1,
        or the next multiple of CLOCK_POLL_NODES when a deadline is set,
        whichever comes first, and with neither a count no search reaches.
        The returned count is always above ``nodes``, and callers call again
        once their count reaches it (``nodes >= stop``), so a count that
        steps past it still stops the search. The node check runs first, so
        node-limit runs are reproducible."""
        cap = self.cap
        if cap is not None and nodes > cap:
            raise BudgetExhausted
        stop = sys.maxsize if cap is None else cap + 1
        if self.deadline is None:
            return stop
        if time.perf_counter() > self.deadline:
            raise BudgetExhausted
        return min(stop, nodes - nodes % CLOCK_POLL_NODES + CLOCK_POLL_NODES)

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
    # Nodes cut off by each rule; the rest are descents, but for the last
    # node of a budget-exhausted run, which no rule decides.
    pruned_path: int = 0
    pruned_capacity: int = 0
    pruned_isomorph: int = 0
    memo: int = 0  # canonical prefixes recorded by the isomorph rule
    path_memo: int = 0  # path prunes decided by a recorded verdict

    def lines(self) -> list[str]:
        return [f"nodes={self.nodes}", f"depth={self.max_depth}",
                f"seconds={self.seconds:.3f}", f"mode={self.mode}",
                f"pruned_path={self.pruned_path}",
                f"pruned_capacity={self.pruned_capacity}",
                f"pruned_isomorph={self.pruned_isomorph}",
                f"memo={self.memo}", f"path_memo={self.path_memo}"]


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: Certificate | None
    stats: SearchStats


# A class's component orders as one integer, its capacity key: 4 bits count
# the components of each order, and no count passes MAX_ORDER.
_ORDER_UNIT = tuple(1 << 4 * k for k in range(MAX_ORDER + 1))


class _Capacities(dict):
    """Class capacity by capacity key, filled from ``pfree.completion_cap``
    on first use."""

    def __missing__(self, key: int) -> int:
        orders = tuple(k for k in range(1, MAX_ORDER + 1)
                       for _ in range(key >> 4 * k & 15))
        cap = self[key] = completion_cap(orders)
        return cap


class _BitIndices(dict):
    """The indices of the set bits of a vertex mask, filled on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(v for v in range(mask.bit_length()) if mask >> v & 1)
        return bits


# A node stamp is its node count above a depth field wide enough for every
# edge of K_MAX_ORDER. Node counts only grow, so a stamp names one node.
_DEPTH_BITS = (MAX_ORDER * (MAX_ORDER - 1) // 2).bit_length()
_DEPTH_MASK = (1 << _DEPTH_BITS) - 1


class _Engine:
    def __init__(self, n: int, r: int, cfg: SearchConfig):
        self.n = n
        self.r = r
        self.cfg = cfg
        self.edges = [(u, w) for w in range(1, n) for u in range(w)]
        self.m = len(self.edges)
        self.adj = [[0] * n for _ in range(r + 1)]
        # Per class: the component mask of every vertex, the edge count of
        # every component (keyed by its mask), the mask of vertices of degree
        # at least 2, and the capacity key of its component orders.
        self.comp = [[1 << v for v in range(n)] for _ in range(r + 1)]
        self.edge_counts = [{1 << v: 0 for v in range(n)} for _ in range(r + 1)]
        self.inner = [0] * (r + 1)
        self.cap_of = _Capacities()
        self.bit_indices = _BitIndices()
        self.orders = [n * _ORDER_UNIT[1]] * (r + 1)
        empty_cap = self.cap_of[self.orders[0]]
        self.caps = [empty_cap] * (r + 1)
        self.total_cap = r * empty_cap
        self.cols = [0] * self.m
        self.nodes = self.max_depth = 0
        self.pruned_path = self.pruned_capacity = self.pruned_isomorph = 0
        self.path_tested = 0  # path prunes the test decided, not the memo
        self.memo: set[tuple] = set()
        # Edge count of K_v -> v: the isomorph test runs on each child that
        # writes the last edge of K_v.
        boundary_max = min(ISOMORPH_DEPTH if cfg.isomorph else 0, n - 1)
        self.boundaries = {v * (v - 1) // 2: v for v in range(3, boundary_max + 1)}
        self.witness: Certificate | None = None

    def run(self, budget: SearchBudget | None) -> Verdict:
        meter = NodeMeter(budget)
        outcome = OUTCOME_BUDGET
        try:
            found = self._search(0, 0, meter)
            outcome = OUTCOME_WITNESS if found else OUTCOME_REFUTED
        except BudgetExhausted:
            pass
        stats = SearchStats(self.nodes, self.max_depth, meter.seconds(),
                            meter.budget.mode, self.pruned_path,
                            self.pruned_capacity, self.pruned_isomorph,
                            len(self.memo), self.pruned_path - self.path_tested)
        if outcome == OUTCOME_WITNESS and not verify_certificate(self.witness).ok:
            raise AssertionError("search witness fails re-verification")
        return Verdict(outcome, self.witness, stats)

    def _search(self, d: int, used: int, meter: NodeMeter) -> bool:
        """Search every colouring of the edges from depth d on, with colours
        1..used in use before it; True at a witness, False once every colour
        of edge d is done. Each descended edge leaves one undo record on a
        stack, and the counters live in locals until the search stops."""
        if d == self.m:
            return self._record_witness()
        d0 = d
        m = self.m
        r = self.r
        bound = self.cfg.component_bound
        # Per count of colours in use: the last colour edge d may take.
        limits = [min(k + 1, r) if self.cfg.colour_symmetry else r
                  for k in range(r + 1)]
        # Per depth: the ends of its edge, their bits, the edge's mask, the
        # order of the K_v it completes at an isomorph boundary and its path
        # verdicts by colour.
        steps = [(u, w, 1 << u, 1 << w, 1 << u | 1 << w, self.boundaries.get(k + 1),
                  [0] * (r + 1))
                 for k, (u, w) in enumerate(self.edges)]
        # The path-verdict memo, for classes this call grew: per colour the
        # depth of its last edge (-1 for none), and per depth the stamp of the
        # node there. A verdict holds the stamp of the node at the depth of
        # its colour's last edge. Stamps start at -1, so the verdict 0 that
        # every step starts with names no node.
        last = [-1] * (r + 1)
        stamps = [-1] * m
        depth_bits = _DEPTH_BITS
        depth_mask = _DEPTH_MASK
        comps = self.comp
        ecounts = self.edge_counts
        adjs = self.adj
        inners = self.inner
        orders = self.orders
        caps = self.caps
        cap_of = self.cap_of
        cols = self.cols
        bits = self.bit_indices
        stack = []
        nodes = self.nodes
        stop = meter.check(nodes)
        pruned_path = self.pruned_path
        path_tested = self.path_tested
        pruned_capacity = self.pruned_capacity
        total_cap = self.total_cap
        max_depth = self.max_depth
        c = 0  # the colour of edge d tried last; 0 on entering depth d
        try:
            while True:
                u, w, ubit, wbit, uw, boundary_v, dead = steps[d]
                if c:
                    # Back at depth d: undo its edge in colour c.
                    c, used, au, aw, inner, saved, cu, e, last[c] = stack.pop()
                    adjc = adjs[c]
                    adjc[u] = au
                    adjc[w] = aw
                    inners[c] = inner
                    if saved is None:
                        ecounts[c][cu] = e - 1
                    else:
                        comps[c], orders[c], caps[c], total_cap = saved
                elif d > max_depth:
                    max_depth = d
                limit = limits[used]
                while c < limit:
                    c += 1
                    nodes += 1
                    if nodes >= stop:
                        stop = meter.check(nodes)
                    # Edge d closed a path in colour c on a subset of the
                    # class: the node its verdict names is still live.
                    x = dead[c]
                    if stamps[x & depth_mask] == x:
                        pruned_path += 1
                        continue
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
                    s = joined.bit_count()
                    adjc = adjs[c]
                    au = adjc[u]
                    aw = adjc[w]
                    # The class has no 5-vertex path, so a path that uw makes
                    # runs through uw, inside the component ``joined`` of s
                    # vertices and e edges. The rule of pfree.shape_is_p5_free,
                    # decided before uw is written: past four vertices, a tree
                    # with at most two non-leaves, or e = s with a vertex
                    # adjacent to all others, which is u, w or a common
                    # neighbour of both. u and w have degree >= 2 with uw
                    # unless it is their first edge.
                    if s > 4:
                        if e == s - 1:
                            free = ((inners[c] | (ubit if au else 0) | (wbit if aw else 0))
                                    & joined).bit_count() <= 2
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
                            pruned_path += 1
                            path_tested += 1
                            if last[c] >= 0:
                                dead[c] = stamps[last[c]]
                            continue
                    # Capacity changes only when uw joins two components, and
                    # the total passed the test when it last changed.
                    if merged:
                        key = (orders[c] + _ORDER_UNIT[s] - _ORDER_UNIT[cu.bit_count()]
                               - _ORDER_UNIT[cw.bit_count()])
                        cap = cap_of[key]
                        grown_cap = total_cap + cap - caps[c]
                        if bound and grown_cap < m:
                            pruned_capacity += 1
                            continue
                        # The class gets a relabelled copy of its component
                        # list; the undo puts back the list, the key and both
                        # capacities.
                        saved = (compc, orders[c], caps[c], total_cap)
                        comps[c] = compc = compc[:]
                        for v in bits[joined]:
                            compc[v] = joined
                        orders[c] = key
                        caps[c] = cap
                        total_cap = grown_cap
                    else:
                        saved = None
                    # An undone merge leaves this count and the parts' counts
                    # in place: no other component can take their masks.
                    counts[joined] = e
                    adjc[u] = au | wbit
                    adjc[w] = aw | ubit
                    inner = inners[c]
                    inners[c] = inner | (ubit if au else 0) | (wbit if aw else 0)
                    cols[d] = c
                    stack.append((c, used, au, aw, inner, saved, cu, e, last[c]))
                    last[c] = d
                    if boundary_v is not None:
                        self.total_cap = total_cap
                        if self._seen(boundary_v):
                            # Back at depth d with c set: the top of the loop
                            # undoes the child at once.
                            self.pruned_isomorph += 1
                            break
                    if c > used:
                        used = c
                    stamps[d] = nodes << depth_bits | d
                    d += 1
                    if d == m:
                        return self._record_witness()
                    c = 0
                    break
                else:
                    # Every colour of edge d is done; undo edge d - 1.
                    if d == d0:
                        return False
                    d -= 1
        finally:
            self.nodes = nodes
            self.pruned_path = pruned_path
            self.path_tested = path_tested
            self.pruned_capacity = pruned_capacity
            self.total_cap = total_cap
            self.max_depth = max_depth

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
