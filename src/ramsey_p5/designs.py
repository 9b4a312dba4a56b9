"""Pair-balanced block designs with block size 4: verification of Steiner,
covering and packing properties, resolvability, leave graphs, the block-design
route to lower-bound colourings, and a backtracking search for small
resolvable instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from itertools import combinations, islice

from .colouring import (EdgeColouring, ParseError, UnsupportedWitness,
                        WitnessBudgetExhausted, _file_lines, _strict_int,
                        find_mono_p5, pair_count, pair_index, pair_list,
                        ramsey_value)
from .engine import BudgetExhausted, NodeMeter, SearchBudget
from .graphs import MAX_VERTICES, Graph, _bits

BLOCK_SIZE = 4

MODES = ("steiner", "covering", "packing")


class InfeasibleParameters(ValueError):
    """Search parameters that cannot yield a design of the requested kind."""


class LiftPathError(ValueError):
    """r = 2 (mod 4) has no design order; those witnesses go through lift."""


class MissingResolution(ValueError):
    pass


class NotAPacking(ValueError):
    pass


class UncolouredPair(ValueError):
    pass


class DesignParseError(ParseError):
    """Design file parse failure."""


Block = tuple[int, int, int, int]


@dataclass(frozen=True)
class Design:
    """Point set 0..v-1 with 4-element blocks and an optional resolution.

    The resolution, when present, partitions block indices into classes; the
    semantic requirement that each class partitions the points is checked by
    ``verify_resolution``, not here.
    """

    v: int
    blocks: tuple[Block, ...]
    resolution: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError("point count must be non-negative")
        for blk in self.blocks:
            if len(blk) != BLOCK_SIZE or len(set(blk)) != BLOCK_SIZE:
                raise ValueError(f"block {blk} must have {BLOCK_SIZE} distinct points")
            if any(not 0 <= p < self.v for p in blk):
                raise ValueError(f"block {blk} out of range for v={self.v}")
            if tuple(sorted(blk)) != blk:
                raise ValueError(f"block {blk} must be sorted ascending")
        if self.resolution is not None:
            seen: set[int] = set()
            for cls in self.resolution:
                for idx in cls:
                    if not 0 <= idx < len(self.blocks):
                        raise ValueError(f"block index {idx} out of range")
                    if idx in seen:
                        raise ValueError(f"block index {idx} in two classes")
                    seen.add(idx)
            if len(seen) != len(self.blocks):
                raise ValueError("resolution must cover every block exactly once")

    @property
    def class_count(self) -> int:
        return len(self.resolution) if self.resolution else 0


@dataclass(frozen=True)
class PairCoverage:
    """Multiplicity of every point pair over the blocks; ``counts`` holds
    only the pairs some block covers, so its size grows with the blocks,
    not with v^2."""

    v: int
    counts: dict[tuple[int, int], int]  # (i, j) with i < j

    def multiplicity(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.counts.get((i, j), 0)

    def total(self) -> int:
        return sum(self.counts.values())


def pair_coverage(d: Design) -> PairCoverage:
    counts: dict[tuple[int, int], int] = {}
    for blk in d.blocks:
        for pair in combinations(blk, 2):
            counts[pair] = counts.get(pair, 0) + 1
    return PairCoverage(d.v, counts)


# Verdicts keep, and the CLI prints, the first this many violations.
VIOLATIONS_SHOWN = 20


@dataclass(frozen=True)
class DesignVerdict:
    mode: str
    ok: bool
    # The first VIOLATIONS_SHOWN violating pairs in pair order.
    violations: tuple[tuple[tuple[int, int], int], ...]  # (pair, multiplicity)

    def lines(self) -> list[str]:
        out = [f"mode={self.mode} ok={'true' if self.ok else 'false'}"]
        for (i, j), mult in self.violations:
            out.append(f"violation=pair {i} {j} multiplicity={mult}")
        return out


def verify_design(d: Design, mode: str) -> DesignVerdict:
    """Check pair multiplicities: steiner wants exactly one block per pair,
    covering at least one, packing at most one. The work grows with the
    blocks: uncovered pairs are walked in order only until the shown
    violations are found."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    counts = pair_coverage(d).counts
    over = ([] if mode == "covering"
            else sorted(p for p, mult in counts.items() if mult > 1))
    gaps = (() if mode == "packing"
            else (p for p in combinations(range(d.v), 2) if p not in counts))
    bad = [(p, counts.get(p, 0))
           for p in islice(merge(gaps, over), VIOLATIONS_SHOWN)]
    return DesignVerdict(mode, not bad, tuple(bad))


@dataclass(frozen=True)
class ResolutionVerdict:
    ok: bool
    violations: tuple[tuple[int, int, str], ...]  # (class no, point, kind)

    def lines(self) -> list[str]:
        out = [f"resolution_ok={'true' if self.ok else 'false'}"]
        for cls, point, kind in self.violations[:VIOLATIONS_SHOWN]:
            out.append(f"violation=class {cls} point {point} {kind}")
        return out


def verify_resolution(d: Design) -> ResolutionVerdict:
    """Each parallel class must partition the point set."""
    if d.resolution is None:
        raise MissingResolution("design carries no resolution")
    bad: list[tuple[int, int, str]] = []
    for cno, cls in enumerate(d.resolution, start=1):
        seen: set[int] = set()
        for idx in cls:
            for p in d.blocks[idx]:
                if p in seen:
                    bad.append((cno, p, "repeated"))
                seen.add(p)
        for p in range(d.v):
            if p not in seen:
                bad.append((cno, p, "missing"))
    return ResolutionVerdict(not bad, tuple(bad))


def leave_graph(d: Design) -> Graph:
    """Graph of the point pairs contained in no block (packings only)."""
    counts = pair_coverage(d).counts
    over = sum(1 for mult in counts.values() if mult > 1)
    if over:
        raise NotAPacking(f"{over} pairs covered more than once")
    return Graph(d.v, [p for p in combinations(range(d.v), 2) if p not in counts])


def g_of_r(r: int) -> int:
    """Order of the complete graph that the design route colours for r
    colours: one less than the Ramsey number."""
    value = ramsey_value(r)
    if r % 4 == 2:
        raise LiftPathError(f"r={r} has no design order; lift the witness for r-1")
    if r == 4:
        raise ValueError("r=4 uses the dedicated 10-point construction")
    return value - 1


def design_to_colouring(d: Design, leave_colour: int | None = None) -> EdgeColouring:
    """Colour each pair by the smallest parallel class containing it; pairs in
    no class take ``leave_colour``, which must be a fresh colour."""
    if d.resolution is None:
        raise MissingResolution("design carries no resolution")
    res = verify_resolution(d)
    if not res.ok:
        raise ValueError(f"resolution invalid: {res.violations[:3]}")
    ncl = len(d.resolution)
    cols = [0] * pair_count(d.v)
    for cno, cls in enumerate(d.resolution, start=1):
        for idx in cls:
            for a, b in combinations(d.blocks[idx], 2):
                p = pair_index(d.v, a, b)
                if cols[p] == 0:
                    cols[p] = cno
    uncoloured = [k for k, c in enumerate(cols) if c == 0]
    if uncoloured:
        if leave_colour is None:
            i, j = pair_list(d.v)[uncoloured[0]]
            raise UncolouredPair(f"pair ({i},{j}) lies in no class and no "
                                 f"leave colour was given")
        if leave_colour <= ncl:
            raise ValueError("leave colour must exceed the class count")
        for k in uncoloured:
            cols[k] = leave_colour
        return EdgeColouring(d.v, leave_colour, cols)
    return EdgeColouring(d.v, ncl, cols)


# ---------------------------------------------------------------------------
# Backtracking search for resolvable designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignSearchResult:
    design: Design | None
    outcome: str  # found | exhausted | budget
    nodes: int
    seconds: float
    # Covering runs only: nodes whose block takes the repeated pair slots past
    # the spare slots, and completed classes cut by the coverage deficits.
    pruned_waste: int = 0
    rejected_classes: int = 0

    def lines(self) -> list[str]:
        label = {"found": "found", "exhausted": "exhausted-space",
                 "budget": "budget-exhausted"}[self.outcome]
        return [f"outcome={label}", f"nodes={self.nodes}",
                f"seconds={self.seconds:.3f}", f"pruned_waste={self.pruned_waste}",
                f"rejected_classes={self.rejected_classes}"]


def _check_feasible(v: int, mode: str, classes: int) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if v < 4 or v % 4 != 0:
        raise InfeasibleParameters(f"resolvable designs need v = 0 (mod 4), got {v}")
    if classes < 1:
        raise InfeasibleParameters("need at least one parallel class")
    slots = classes * (v // 4) * 6
    pairs = pair_count(v)
    if mode == "steiner":
        # the two admissible residues mod 12 intersected with v = 0 (mod 4)
        if v % 12 != 4:
            raise InfeasibleParameters(
                f"no resolvable Steiner system on v={v} points (v = 4 (mod 12) needed)")
        if classes != (v - 1) // 3:
            raise InfeasibleParameters(
                f"a Steiner resolution on {v} points has {(v - 1) // 3} classes")
    elif mode == "covering":
        if slots < pairs:
            raise InfeasibleParameters(
                f"{classes} classes give {slots} pair slots < {pairs} pairs")
    else:  # packing
        if slots > pairs:
            raise InfeasibleParameters(
                f"{classes} classes give {slots} pair slots > {pairs} pairs")


def search_design(v: int, mode: str, classes: int,
                  budget: SearchBudget | None = None) -> DesignSearchResult:
    """Backtracking over parallel classes in lexicographic order.

    The first class is pinned to the natural partition {0..3}, {4..7}, ...,
    blocks within a class are built around the least uncovered point, and
    classes are generated in non-decreasing order, which removes the point
    and class relabelling symmetry. The state is one mask per point of the
    partners it shares no placed block with. Steiner and packing runs draw
    each further block point from the intersection of those masks, so they
    never repeat a pair; covering runs take every trio and prune on the
    repeated pair slots and on per-point and global coverage deficits.
    """
    _check_feasible(v, mode, classes)
    meter = NodeMeter(budget)
    tick = meter.tick
    covering = mode == "covering"
    per_class = v // 4
    points = (1 << v) - 1

    # unc[a]: the partners of a that no placed block pairs it with; the
    # natural first class is placed.
    unc = [points ^ 15 << (a & ~3) for a in range(v)]
    uncovered = pair_count(v) - 6 * per_class
    waste = pruned_waste = rejected_classes = 0
    natural = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(per_class))
    solution: list[tuple[Block, ...]] = [natural]
    # a covering may repeat only slots - pairs pair slots in total; steiner
    # and packing runs never repeat one, so their waste stays zero
    max_waste = classes * per_class * 6 - pair_count(v) if covering else 0

    def fresh_trios(qs: int):
        """Trios q < r < s of qs whose three pairs are uncovered; qs holds
        the uncovered partners of the block's first point."""
        while qs:
            qb = qs & -qs
            qs ^= qb
            q = qb.bit_length() - 1
            rs = qs & unc[q]
            while rs:
                rb = rs & -rs
                rs ^= rb
                r = rb.bit_length() - 1
                for s in _bits(rs & unc[r]):
                    yield q, r, s

    def covering_viable(classes_left: int) -> bool:
        if uncovered > classes_left * per_class * 6:
            return False
        cap = 3 * classes_left
        return all(u.bit_count() <= cap for u in unc)

    def place(done: list[Block], remaining: int, tight: bool) -> bool:
        """Extend the class under construction, whose blocks are done and
        whose free points are remaining; tight while done equals the start
        of the previous class, which is solution[-1]."""
        nonlocal uncovered, waste, pruned_waste, rejected_classes
        if remaining == 0:
            classes_left = classes - len(solution) - 1
            if covering and not covering_viable(classes_left):
                rejected_classes += 1
                return False
            solution.append(tuple(done))
            if classes_left == 0 or place([], points, True):
                return True
            solution.pop()
            return False
        low = remaining & -remaining
        p = low.bit_length() - 1
        rest = remaining ^ low
        floor_blk = solution[-1][len(done)] if tight else None
        # A list, not the generator: copying a generator means resizing a
        # tuple, and the resized tuples fill CPython's tuple free lists
        # (0.3 MB more peak memory on a v=20 covering run).
        trios = (combinations(list(_bits(rest)), 3) if covering
                 else fresh_trios(rest & unc[p]))
        for q, r, s in trios:
            blk: Block = (p, q, r, s)
            if floor_blk is not None and blk < floor_blk:
                continue
            tick()
            bm = low | 1 << q | 1 << r | 1 << s
            up, uq, ur, us = unc[p], unc[q], unc[r], unc[s]
            fresh = ((up & bm).bit_count() + (uq & bm).bit_count()
                     + (ur & bm).bit_count() + (us & bm).bit_count()) // 2
            keep = ~bm
            unc[p], unc[q], unc[r], unc[s] = up & keep, uq & keep, ur & keep, us & keep
            uncovered -= fresh
            waste += 6 - fresh
            if waste > max_waste:
                pruned_waste += 1
            else:
                done.append(blk)
                if place(done, remaining ^ bm, tight and blk == floor_blk):
                    return True
                done.pop()
            unc[p], unc[q], unc[r], unc[s] = up, uq, ur, us
            uncovered += fresh
            waste -= 6 - fresh
        return False

    # _check_feasible leaves enough slots, so the natural class always passes
    # covering_viable, and covering_viable(0) leaves no pair uncovered.
    found = False
    outcome = "exhausted"
    try:
        found = classes == 1 or place([], points, True)
    except BudgetExhausted:
        outcome = "budget"
    seconds = meter.seconds()
    if not found:
        return DesignSearchResult(None, outcome, meter.nodes, seconds,
                                  pruned_waste, rejected_classes)

    blocks: list[Block] = []
    resolution: list[tuple[int, ...]] = []
    for cls in solution:
        start = len(blocks)
        blocks.extend(cls)
        resolution.append(tuple(range(start, start + len(cls))))
    design = Design(v, tuple(blocks), tuple(resolution))
    if not verify_design(design, mode).ok:
        raise AssertionError(f"search_design built an invalid {mode} design")
    if not verify_resolution(design).ok:
        raise AssertionError("search_design built an invalid resolution")
    return DesignSearchResult(design, "found", meter.nodes, seconds,
                              pruned_waste, rejected_classes)


# ---------------------------------------------------------------------------
# Witness plumbing used by colouring.witness
# ---------------------------------------------------------------------------

_DEFAULT_WITNESS_BUDGET = SearchBudget(nodes=5_000_000)


def witness_parameters(r: int) -> tuple[int, str, int]:
    """(points, mode, classes) of the design behind the witness for r."""
    v = g_of_r(r)
    mode = "steiner" if v % 12 == 4 else "covering"
    return v, mode, r


def witness_from_search(r: int, budget: SearchBudget | None = None) -> EdgeColouring:
    """Colour K_{g(r)} by a searched design; ``colouring.witness`` re-checks
    the result."""
    v, mode, classes = witness_parameters(r)
    design = search_design(v, mode, classes,
                           budget or _DEFAULT_WITNESS_BUDGET).design
    if design is None:
        raise WitnessBudgetExhausted(
            f"design search for r={r} (v={v}, {mode}) exhausted its budget; "
            f"retry with a larger budget or supply a design file")
    return design_to_colouring(design)


def witness_from_design(r: int, design: Design) -> EdgeColouring:
    """Validate a supplied design against the parameters for r and colour it.

    Accepts the exact-cover route (r classes) and the packing route
    (r - 1 classes plus the leave as colour r)."""
    v = g_of_r(r)
    if v > MAX_VERTICES:
        raise UnsupportedWitness(
            f"witness for r={r} needs {v} points, beyond the {MAX_VERTICES}-"
            f"vertex graph capacity; such designs are verification-only")
    if design.v != v:
        raise ValueError(f"witness for r={r} needs {v} points, design has {design.v}")
    if design.resolution is None:
        raise MissingResolution("witness designs must be resolvable")
    ncl = design.class_count
    if ncl == r:
        colouring = design_to_colouring(design)
    elif ncl == r - 1:
        colouring = design_to_colouring(design, leave_colour=r)
    else:
        raise ValueError(f"expected {r} or {r - 1} classes, design has {ncl}")
    if colouring.r != r:
        raise ValueError(f"design produces {colouring.r} colours, expected {r}")
    mono = find_mono_p5(colouring)
    if mono is not None:
        raise ValueError(f"design colouring contains a monochromatic 5-path: {mono}")
    return colouring


# ---------------------------------------------------------------------------
# Design file format
# ---------------------------------------------------------------------------

DESIGN_HEADER = "DESIGN v1"


def write_design(d: Design, mode: str) -> bytes:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    lines = [DESIGN_HEADER, f"v={d.v} k={BLOCK_SIZE} mode={mode}"]
    if d.resolution is None:
        lines.append("P 0")
        for blk in d.blocks:
            lines.append(" ".join(map(str, blk)))
    else:
        for cno, cls in enumerate(d.resolution, start=1):
            lines.append(f"P {cno}")
            for blk in sorted(d.blocks[i] for i in cls):
                lines.append(" ".join(map(str, blk)))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_design(data: bytes) -> tuple[Design, str]:
    lines = _file_lines(data, DESIGN_HEADER, DesignParseError)
    if len(lines) < 2:
        raise DesignParseError(2, "truncated design file")
    head = lines[1].split(" ")
    if (len(head) != 3 or not head[0].startswith("v=")
            or not head[1].startswith("k=") or not head[2].startswith("mode=")):
        raise DesignParseError(2, "expected 'v=<v> k=4 mode=<mode>'")
    v = _strict_int(head[0][2:], 2, "v", DesignParseError)
    k = _strict_int(head[1][2:], 2, "k", DesignParseError)
    if k != BLOCK_SIZE:
        raise DesignParseError(2, f"only k={BLOCK_SIZE} designs are supported")
    mode = head[2][5:]
    if mode not in MODES:
        raise DesignParseError(2, f"mode must be one of {MODES}")
    blocks: list[Block] = []
    classes: list[tuple[int, ...]] = []
    resolvable: bool | None = None
    lineno = 2
    i = 2
    expected_class = 1
    while i < len(lines):
        lineno = i + 1
        line = lines[i]
        if not line.startswith("P "):
            raise DesignParseError(lineno, f"expected a 'P <c>' section, got {line!r}")
        label = line[2:]
        if label == "0":
            if resolvable is not None:
                raise DesignParseError(lineno, "'P 0' must be the only section")
            resolvable = False
            i += 1
            start = len(blocks)
            while i < len(lines):
                blocks.append(_parse_block(lines[i], i + 1, v))
                i += 1
            if len(blocks) == start:
                raise DesignParseError(lineno, "empty block section")
            continue
        if resolvable is False:
            raise DesignParseError(lineno, "'P 0' must be the only section")
        resolvable = True
        if label != str(expected_class):
            raise DesignParseError(lineno, f"expected 'P {expected_class}'")
        expected_class += 1
        i += 1
        start = len(blocks)
        per_class = v // 4 if v % 4 == 0 else -1
        if per_class < 0:
            raise DesignParseError(lineno, "resolvable sections need v = 0 (mod 4)")
        prev: Block | None = None
        for _ in range(per_class):
            if i >= len(lines):
                raise DesignParseError(len(lines), "truncated parallel class")
            blk = _parse_block(lines[i], i + 1, v)
            if prev is not None and blk < prev:
                raise DesignParseError(i + 1, "blocks must be ascending within a class")
            prev = blk
            blocks.append(blk)
            i += 1
        classes.append(tuple(range(start, start + per_class)))
    if resolvable is None:
        raise DesignParseError(lineno, "design file has no block sections")
    design = Design(v, tuple(blocks), tuple(classes) if resolvable else None)
    return design, mode


def _parse_block(line: str, lineno: int, v: int) -> Block:
    parts = line.split(" ")
    if len(parts) != BLOCK_SIZE:
        raise DesignParseError(lineno, f"expected {BLOCK_SIZE} points")
    blk = tuple(_strict_int(tok, lineno, "point", DesignParseError) for tok in parts)
    if any(not 0 <= p < v for p in blk):
        raise DesignParseError(lineno, f"point out of range in {blk}")
    if tuple(sorted(set(blk))) != blk:
        raise DesignParseError(lineno, f"block {blk} must be strictly ascending")
    return blk  # type: ignore[return-value]
