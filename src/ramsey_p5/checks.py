"""Machine verification of the finite case analyses behind the Ramsey table:
the pigeonhole arithmetic for every colour count, the classification of
11-vertex path-free graphs at the two critical edge counts, and the
exhaustive placement argument that rules out a path-free 4-colouring of K_11,
run on pair masks of K_11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .canon import canonical_key
from .colouring import _forced_order, pair_count, pair_index
from .graphs import (Graph, complete, disjoint_union, ex_p5, extremal_p5,
                     path_graph)
from .pfree import enumerate_p5_free


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# Pigeonhole arithmetic, one colour count at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Report:
    r: int
    n: int
    bound: int
    turan: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def lines(self) -> list[str]:
        out = [f"lemma1 r={self.r} n={self.n} bound={self.bound} "
               f"turan={self.turan} ok={'true' if self.ok else 'false'}"]
        out.extend(f"check {name}={'true' if passed else 'false'}"
                   for name, passed in self.checks)
        return out


def lemma1_check(r: int) -> Lemma1Report:
    """Evaluate, in exact integer arithmetic, the counting chain that forces a
    monochromatic 5-vertex path at the upper-bound order for r colours."""
    if r < 1:
        raise ValueError("need at least one colour")
    residue = r % 4
    n = _forced_order(r)
    bound = _ceil_div(pair_count(n), r)
    turan = ex_p5(n)
    checks: list[tuple[str, bool]] = []
    if residue in (0, 1):
        # bound >= 3n/2 > turan + 1, so the largest class exceeds the maximum
        checks.append(("bound_at_least_3n_over_2", 2 * bound >= 3 * n))
        checks.append(("3n_over_2_exceeds_turan_plus_1", 3 * n > 2 * (turan + 1)))
        checks.append(("forces_path", bound > turan))
    elif residue == 2:
        # bound lands exactly one edge above the maximum
        checks.append(("n_minus_1_odd", (n - 1) % 2 == 1))
        checks.append(("bound_equals_turan_plus_1", bound == turan + 1))
    else:
        # bound equals the maximum, so every class is extremal; the isolated
        # vertex of the largest class then lacks incident edges
        checks.append(("bound_equals_turan", bound == turan))
        checks.append(("residue_part_is_one_vertex", n % 4 == 1))
        checks.append(("degree_contradiction", 3 * (r - 1) < n - 1))
    return Lemma1Report(r, n, bound, turan, tuple(checks))


# ---------------------------------------------------------------------------
# Classification of 11-vertex path-free graphs at 14 and 15 edges
# ---------------------------------------------------------------------------

def _k4_minus() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def expected_shapes_11_14() -> tuple[Graph, Graph]:
    a = disjoint_union(disjoint_union(complete(4), complete(4)), path_graph(3))
    b = disjoint_union(disjoint_union(complete(4), _k4_minus()), complete(3))
    return a, b


@dataclass(frozen=True)
class Claim1Report:
    count_14: int
    count_15: int
    count_16: int
    missing: tuple[str, ...]
    extra: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.count_14 == 2 and self.count_15 == 1
                and self.count_16 == 0 and not self.missing and not self.extra)

    def lines(self) -> list[str]:
        out = [f"claim1 count_14={self.count_14} count_15={self.count_15} "
               f"count_16={self.count_16} ok={'true' if self.ok else 'false'}"]
        out.extend(f"missing={m}" for m in self.missing)
        out.extend(f"extra={e}" for e in self.extra)
        return out


def claim1_check() -> Claim1Report:
    """The path-free graphs on 11 vertices with 14 edges are exactly the two
    expected shapes, the 15-edge one is unique, and 16 edges are impossible.
    The counts are of the graphs the enumeration returns, so a graph listed
    twice fails the claim."""
    shape_a, shape_b = expected_shapes_11_14()
    want = {14: {canonical_key(shape_a): "K4+K4+P3",
                 canonical_key(shape_b): "K4+K4minus+K3"},
            15: {canonical_key(extremal_p5(11)): "K4+K4+K3"}}
    got = {m: [canonical_key(g) for g in enumerate_p5_free(11, m)] for m in want}
    missing = [name for m in want for key, name in want[m].items()
               if key not in got[m]]
    extra = [f"{m}-edge class {key.hex()}" for m in want for key in got[m]
             if key not in want[m]]
    return Claim1Report(len(got[14]), len(got[15]),
                        len(enumerate_p5_free(11, 16)),
                        tuple(missing), tuple(extra))


# ---------------------------------------------------------------------------
# The K_11 contradiction pipeline
# ---------------------------------------------------------------------------

N11 = 11
PAIRS11 = pair_count(N11)  # 55
# PAIRBIT[i][j]: the bit of the pair ij in an 11-vertex pair mask.
PAIRBIT = [[0 if i == j else 1 << pair_index(N11, i, j) for j in range(N11)]
           for i in range(N11)]


def _graph_mask(g: Graph) -> int:
    """The pair mask of an 11-vertex graph."""
    m = 0
    for a, b in g.edges():
        m |= PAIRBIT[a][b]
    return m


def _clique_mask(points: tuple[int, ...]) -> int:
    m = 0
    for a, b in combinations(points, 2):
        m |= PAIRBIT[a][b]
    return m


@dataclass(frozen=True)
class Lemma3Report:
    second_class_floor: int
    size_splits: tuple[tuple[int, int, int, int], ...]
    complement_k4_free: bool
    placements_total: int
    placements_disjoint: int
    counterexamples: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return (self.size_splits == ((14, 14, 14, 13),)
                and self.second_class_floor == 14
                and self.complement_k4_free
                and not self.counterexamples)

    def lines(self) -> list[str]:
        out = [f"lemma3 splits={len(self.size_splits)} "
               f"complement_k4_free={'true' if self.complement_k4_free else 'false'} "
               f"placements={self.placements_total} "
               f"disjoint={self.placements_disjoint} "
               f"counterexamples={len(self.counterexamples)} "
               f"ok={'true' if self.ok else 'false'}"]
        out.extend(f"counterexample={c}" for c in self.counterexamples[:5])
        return out


def _placements(k4m: dict[tuple[int, ...], int]) -> list[int]:
    """Pair masks of every labelled copy of the two 14-edge shapes on 11
    vertices, K4+K4+P3 and K4+K4minus+K3, from one pass over the ordered
    pairs (a, b) of disjoint 4-sets; the other three vertices x, y, z span
    the triangle or the path."""
    out = []
    verts = range(N11)
    for a_set in combinations(verts, 4):
        rest = [t for t in verts if t not in a_set]
        for b_set in combinations(rest, 4):
            x, y, z = (t for t in rest if t not in b_set)
            xy, xz, yz = PAIRBIT[x][y], PAIRBIT[x][z], PAIRBIT[y][z]
            ka, kb = k4m[a_set], k4m[b_set]
            if a_set < b_set:
                # the two K4s are interchangeable, so each unordered pair
                # once; a path is the triangle less one edge
                kk = ka | kb
                out += (kk | xy | xz, kk | xy | yz, kk | xz | yz)
            base = ka | xy | xz | yz
            out.extend(base | (kb ^ PAIRBIT[p][q]) for p, q in combinations(b_set, 2))
    return out


def _contains_two_k4_and_k3(mask: int, k4m: dict[tuple[int, ...], int]) -> bool:
    present = [s for s, m in k4m.items() if mask & m == m]
    for i, a_set in enumerate(present):
        a_pts = set(a_set)
        for b_set in present[i + 1:]:
            if a_pts & set(b_set):
                continue
            tail = tuple(x for x in range(N11) if x not in a_pts and x not in b_set)
            tri = _clique_mask(tail)
            if mask & tri == tri:
                return True
    return False


def lemma3_check() -> Lemma3Report:
    """Verify the full contradiction pipeline on 11 vertices.

    (a) the only way four classes of at most 14 edges each can partition the
    55 edges of K_11 is (14, 14, 14, 13), and a 15-edge largest class forces a
    14-edge second class; (b) the complement of the extremal graph has no K4;
    (c) for each of the two 14-edge shapes, placed as Claim 1 builds them,
    every labelled edge-disjoint placement of a 14-edge shape alongside it
    yields a union containing K4+K4+K3 whose complement has no K4.

    Graphs are 55-bit pair masks of K_11, and (b) and (c) test complements
    against one table of the 330 K4 masks.
    """
    splits = tuple(
        (e1, e2, e3, e4)
        for e1 in range(14, -1, -1)
        for e2 in range(min(e1, 14), -1, -1)
        for e3 in range(min(e2, 14), -1, -1)
        for e4 in (55 - e1 - e2 - e3,)
        if 0 <= e4 <= e3
    )
    floor = _ceil_div(55 - 15, 3)

    k4m = {s: _clique_mask(s) for s in combinations(range(N11), 4)}
    full = (1 << PAIRS11) - 1
    ext_comp = full ^ _graph_mask(extremal_p5(11))
    comp_free = not any(ext_comp & m == m for m in k4m.values())

    candidates = _placements(k4m)
    g1a, g1b = (_graph_mask(g) for g in expected_shapes_11_14())

    disjoint = 0
    bad: list[str] = []
    for g1 in (g1a, g1b):
        for mask in candidates:
            if mask & g1:
                continue
            disjoint += 1
            un = mask | g1
            if not _contains_two_k4_and_k3(un, k4m):
                bad.append(f"union lacks K4+K4+K3: g1={g1:x} g2={mask:x}")
                continue
            comp = full ^ un
            if any(comp & m == m for m in k4m.values()):
                bad.append(f"complement keeps K4: g1={g1:x} g2={mask:x}")
    return Lemma3Report(
        second_class_floor=floor,
        size_splits=splits,
        complement_k4_free=comp_free,
        placements_total=2 * len(candidates),
        placements_disjoint=disjoint,
        counterexamples=tuple(bad),
    )
