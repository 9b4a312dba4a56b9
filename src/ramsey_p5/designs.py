"""Pair-balanced block designs with block size 4: verification of Steiner,
covering and packing properties, resolvability, leave graphs, the block-design
route to lower-bound colourings, and a backtracking search for small
resolvable instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .colouring import EdgeColouring, pair_count, pair_index, ramsey_value
from .graphs import Graph

BLOCK_SIZE = 4
STRENGTH = 2
INDEX = 1

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


class DesignParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


Block = tuple[int, int, int, int]


@dataclass(frozen=True)
class Design:
    """Point set 0..v-1 with 4-element blocks and an optional resolution.

    Block size, balance strength and index are stored for file-format
    future-proofing but pinned to (4, 2, 1). The resolution, when present,
    partitions block indices into classes; the semantic requirement that each
    class partitions the points is checked by ``verify_resolution``, not here.
    """

    v: int
    blocks: tuple[Block, ...]
    resolution: tuple[tuple[int, ...], ...] | None = None
    k: int = BLOCK_SIZE
    t: int = STRENGTH
    lam: int = INDEX

    def __post_init__(self) -> None:
        if self.k != BLOCK_SIZE:
            raise ValueError(f"only block size {BLOCK_SIZE} is supported")
        if self.t != STRENGTH or self.lam != INDEX:
            raise ValueError("only pairwise balance with index 1 is supported")
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
    """Multiplicity of every point pair over the blocks."""

    v: int
    counts: tuple[int, ...]  # indexed by pair_index(v, i, j)

    def multiplicity(self, i: int, j: int) -> int:
        return self.counts[pair_index(self.v, i, j)]

    def total(self) -> int:
        return sum(self.counts)


def pair_coverage(d: Design) -> PairCoverage:
    counts = [0] * pair_count(d.v)
    for blk in d.blocks:
        for a, b in combinations(blk, 2):
            counts[pair_index(d.v, a, b)] += 1
    return PairCoverage(d.v, tuple(counts))


@dataclass(frozen=True)
class DesignVerdict:
    mode: str
    ok: bool
    violations: tuple[tuple[tuple[int, int], int], ...]  # (pair, multiplicity)

    def lines(self) -> list[str]:
        out = [f"mode={self.mode} ok={'true' if self.ok else 'false'}"]
        for (i, j), mult in self.violations[:20]:
            out.append(f"violation=pair {i} {j} multiplicity={mult}")
        return out


def verify_design(d: Design, mode: str) -> DesignVerdict:
    """Check pair multiplicities: steiner wants exactly one block per pair,
    covering at least one, packing at most one."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    cov = pair_coverage(d)
    bad: list[tuple[tuple[int, int], int]] = []
    for i in range(d.v):
        for j in range(i + 1, d.v):
            mult = cov.counts[pair_index(d.v, i, j)]
            if mode == "steiner" and mult != 1:
                bad.append(((i, j), mult))
            elif mode == "covering" and mult < 1:
                bad.append(((i, j), mult))
            elif mode == "packing" and mult > 1:
                bad.append(((i, j), mult))
    return DesignVerdict(mode, not bad, tuple(bad))


@dataclass(frozen=True)
class ResolutionVerdict:
    ok: bool
    violations: tuple[tuple[int, int, str], ...]  # (class no, point, kind)

    def lines(self) -> list[str]:
        out = [f"resolution_ok={'true' if self.ok else 'false'}"]
        for cls, point, kind in self.violations[:20]:
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
    verdict = verify_design(d, "packing")
    if not verdict.ok:
        raise NotAPacking(f"{len(verdict.violations)} pairs covered more than once")
    cov = pair_coverage(d)
    edges = [(i, j) for i in range(d.v) for j in range(i + 1, d.v)
             if cov.counts[pair_index(d.v, i, j)] == 0]
    return Graph(d.v, edges)


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
            i, j = _pair_of_index(d.v, uncoloured[0])
            raise UncolouredPair(f"pair ({i},{j}) lies in no class and no "
                                 f"leave colour was given")
        if leave_colour <= ncl:
            raise ValueError("leave colour must exceed the class count")
        for k in uncoloured:
            cols[k] = leave_colour
        return EdgeColouring(d.v, leave_colour, cols)
    return EdgeColouring(d.v, ncl, cols)


def _pair_of_index(v: int, idx: int) -> tuple[int, int]:
    for i in range(v):
        row = v - i - 1
        if idx < row:
            return (i, i + 1 + idx)
        idx -= row
    raise IndexError(idx)


# ---------------------------------------------------------------------------
# Backtracking search for resolvable designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Node and/or wall-clock limits; the node check runs first so node-limit
    runs are reproducible."""

    nodes: int | None = None
    seconds: float | None = None

    def __post_init__(self) -> None:
        if self.nodes is not None and self.nodes <= 0:
            raise ValueError("node limit must be positive")
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError("time limit must be positive")


@dataclass(frozen=True)
class DesignSearchResult:
    design: Design | None
    outcome: str  # found | exhausted | budget
    nodes: int
    seconds: float

    def lines(self) -> list[str]:
        label = {"found": "found", "exhausted": "exhausted-space",
                 "budget": "budget-exhausted"}[self.outcome]
        return [f"outcome={label}", f"nodes={self.nodes}",
                f"seconds={self.seconds:.3f}"]


class _BudgetUp(Exception):
    pass


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
    and class relabelling symmetry. Steiner and packing runs never repeat a
    pair; covering runs prune on per-point and global coverage deficits.
    """
    _check_feasible(v, mode, classes)
    t0 = time.perf_counter()
    deadline = t0 + budget.seconds if budget and budget.seconds else None
    node_limit = budget.nodes if budget else None

    pidx = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            pidx[i][j] = pidx[j][i] = pair_index(v, i, j)

    mult = [0] * pair_count(v)
    udeg = [v - 1] * v  # uncovered partners per point (covering prune)
    state = {"nodes": 0, "uncovered": pair_count(v), "waste": 0}
    per_class = v // 4
    natural = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(per_class))
    solution: list[tuple[Block, ...]] = []
    # a covering may repeat only slots - pairs pair slots in total; steiner
    # and packing runs never repeat one, so their waste stays zero
    max_waste = (classes * per_class * 6 - pair_count(v)
                 if mode == "covering" else 0)

    def bump() -> None:
        state["nodes"] += 1
        if node_limit is not None and state["nodes"] > node_limit:
            raise _BudgetUp
        if deadline is not None and state["nodes"] % 1024 == 0:
            if time.perf_counter() > deadline:
                raise _BudgetUp

    def cover_block(blk: Block) -> list[tuple[int, int]]:
        fresh = []
        for a, b in combinations(blk, 2):
            p = pidx[a][b]
            if mult[p] == 0:
                fresh.append((a, b))
                udeg[a] -= 1
                udeg[b] -= 1
            mult[p] += 1
        state["uncovered"] -= len(fresh)
        state["waste"] += 6 - len(fresh)
        return fresh

    def uncover_block(blk: Block, fresh: list[tuple[int, int]]) -> None:
        for a, b in combinations(blk, 2):
            mult[pidx[a][b]] -= 1
        for a, b in fresh:
            udeg[a] += 1
            udeg[b] += 1
        state["uncovered"] += len(fresh)
        state["waste"] -= 6 - len(fresh)

    def block_allowed(blk: Block) -> bool:
        if mode == "covering":
            return True
        for a, b in combinations(blk, 2):
            if mult[pidx[a][b]]:
                return False
        return True

    def block_mask(blk: Block) -> int:
        m = 0
        for p in blk:
            m |= 1 << p
        return m

    def place_blocks(done: list[Block], remaining: int,
                     bound: tuple[Block, ...], tight: bool, on_class_done) -> bool:
        if remaining == 0:
            return on_class_done(tuple(done))
        low = remaining & -remaining
        p = low.bit_length() - 1
        rest = remaining ^ low
        others = []
        m = rest
        while m:
            b = m & -m
            others.append(b.bit_length() - 1)
            m ^= b
        floor_blk = bound[len(done)] if tight else None
        for trio in combinations(others, 3):
            blk: Block = (p, *trio)
            if floor_blk is not None and blk < floor_blk:
                continue
            if not block_allowed(blk):
                continue
            bump()
            fresh = cover_block(blk)
            done.append(blk)
            if state["waste"] <= max_waste:
                still_tight = tight and blk == floor_blk
                if place_blocks(done, remaining & ~block_mask(blk), bound,
                                still_tight, on_class_done):
                    return True
            done.pop()
            uncover_block(blk, fresh)
        return False

    def covering_viable(classes_left: int) -> bool:
        if state["uncovered"] > classes_left * per_class * 6:
            return False
        cap = 3 * classes_left
        return all(u <= cap for u in udeg)

    def run_class(cno: int, prev: tuple[Block, ...]) -> bool:
        if cno == classes:
            return state["uncovered"] == 0 if mode == "covering" else True

        def on_done(cls: tuple[Block, ...]) -> bool:
            if mode == "covering" and not covering_viable(classes - cno - 1):
                return False
            solution.append(cls)
            if run_class(cno + 1, cls):
                return True
            solution.pop()
            return False

        return place_blocks([], (1 << v) - 1, prev, True, on_done)

    # Pin the first class to the natural partition.
    for blk in natural:
        cover_block(blk)
    solution.append(natural)

    found = False
    outcome = "exhausted"
    try:
        if mode != "covering" or covering_viable(classes - 1):
            found = run_class(1, natural)
    except _BudgetUp:
        outcome = "budget"
    seconds = time.perf_counter() - t0
    if not found:
        return DesignSearchResult(None, outcome, state["nodes"], seconds)

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
    return DesignSearchResult(design, "found", state["nodes"], seconds)


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
    from .colouring import WitnessBudgetExhausted, find_mono_p5

    v, mode, classes = witness_parameters(r)
    design = search_design(v, mode, classes,
                           budget or _DEFAULT_WITNESS_BUDGET).design
    if design is None:
        raise WitnessBudgetExhausted(
            f"design search for r={r} (v={v}, {mode}) exhausted its budget; "
            f"retry with a larger budget or supply a design file")
    colouring = design_to_colouring(design)
    if find_mono_p5(colouring) is not None:
        raise AssertionError("design colouring has a monochromatic 5-path")
    return colouring


def witness_from_design(r: int, design: Design) -> EdgeColouring:
    """Validate a supplied design against the parameters for r and colour it.

    Accepts the exact-cover route (r classes) and the packing route
    (r - 1 classes plus the leave as colour r)."""
    from .colouring import UnsupportedWitness, find_mono_p5
    from .graphs import MAX_VERTICES

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
    lines = [DESIGN_HEADER, f"v={d.v} k={d.k} mode={mode}"]
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
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DesignParseError(0, f"not ASCII: {exc}") from None
    if not text.endswith("\n"):
        raise DesignParseError(0, "missing trailing newline")
    lines = text[:-1].split("\n")
    if not lines or lines[0] != DESIGN_HEADER:
        raise DesignParseError(1, f"expected header {DESIGN_HEADER!r}")
    if len(lines) < 2:
        raise DesignParseError(2, "truncated design file")
    head = lines[1].split(" ")
    if (len(head) != 3 or not head[0].startswith("v=")
            or not head[1].startswith("k=") or not head[2].startswith("mode=")):
        raise DesignParseError(2, "expected 'v=<v> k=4 mode=<mode>'")
    try:
        v = int(head[0][2:])
        k = int(head[1][2:])
    except ValueError:
        raise DesignParseError(2, "malformed v or k") from None
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
    pts = []
    for tok in parts:
        if not tok.isdigit() or (tok != "0" and tok[0] == "0"):
            raise DesignParseError(lineno, f"malformed point {tok!r}")
        pts.append(int(tok))
    blk = tuple(pts)
    if any(not 0 <= p < v for p in blk):
        raise DesignParseError(lineno, f"point out of range in {blk}")
    if tuple(sorted(set(blk))) != blk:
        raise DesignParseError(lineno, f"block {blk} must be strictly ascending")
    return blk  # type: ignore[return-value]
