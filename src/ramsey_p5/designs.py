"""Resolvable block designs with block size 4, held as their parallel
classes: verification of Steiner, covering and packing properties and of the
resolution, the colouring of a design, and a backtracking search for small
instances.
"""

from __future__ import annotations

from binascii import a2b_base64
from dataclasses import dataclass
from functools import cache
from heapq import merge
from itertools import combinations, islice

from .colouring import (EdgeColouring, ParseError, _file_lines,
                        _first_cover_colours, _strict_int, pair_count, pair_list)
from .engine import CLOCK_POLL_NODES, BudgetExhausted, NodeMeter, SearchBudget

BLOCK_SIZE = 4

MODES = ("steiner", "covering", "packing")

# search_design keeps v masks of v bits and one stack record per placed
# block, the pinned first class's included, so it refuses runs that place
# more blocks (classes * v/4) than this: a run has at least one class, so
# v stays at most 1,600 and the masks under 1,600^2 bits.
SEARCH_MAX_BLOCKS = 400

# search_design remembers, per open class, the effects of its levels of 8
# free points; a class's memo is emptied when it reaches this many entries,
# about 1.1 MB in a Steiner or packing run, whose effects are shared. The
# memos of a covering run stay far smaller: under 300 entries in 5M nodes
# of (20, covering, 7) or (24, covering, 8).
SEARCH_MEMO_LEVELS = 1 << 14


def _fresh_trios(unc: list[int], qs: int):
    """Trios q < r < s of qs whose three pairs are uncovered; qs holds the
    uncovered partners of the block's first point."""
    while qs:
        qb = qs & -qs
        qs ^= qb
        q = qb.bit_length() - 1
        rs = qs & unc[q]
        while rs:
            rb = rs & -rs
            rs ^= rb
            r = rb.bit_length() - 1
            ss = rs & unc[r]
            while ss:
                sb = ss & -ss
                ss ^= sb
                yield q, r, sb.bit_length() - 1


# A counted level's effect is what walking it adds to search_design's
# counters: (nodes, waste prunes, rejected classes, the most blocks it
# pushes at once). A Steiner or packing level whose splits have n fresh
# first blocks and no fresh second one has n nodes and pushes one block at
# a time when n > 0.
_FRESH_EFFECTS = tuple((n, 0, 0, min(n, 1)) for n in range(36))


def _fresh_blocks(unc: list[int], rem: int) -> tuple[int, int, int, int] | tuple[()]:
    """The effect of a Steiner or packing level on the 8 points of ``rem``,
    from its 35 splits into two blocks, the first holding the least point:
    () when some split repeats no pair in either block, so the level must
    be walked, else its entry of _FRESH_EFFECTS by the number of splits
    whose first block repeats none."""
    low = rem & -rem
    rest = rem ^ low
    n = 0
    for q, r, s in _fresh_trios(unc, rest & unc[low.bit_length() - 1]):
        # the four points left are fresh when each is an uncovered partner
        # of every point before it
        x = rest ^ (1 << q | 1 << r | 1 << s)
        a = x & -x
        x ^= a
        if unc[a.bit_length() - 1] & x == x:
            b = x & -x
            x ^= b
            if unc[b.bit_length() - 1] & x == x:
                c = x & -x
                if unc[c.bit_length() - 1] >> (x ^ c).bit_length() - 1 & 1:
                    return ()
        n += 1
    return _FRESH_EFFECTS[n]


# The 35 ways to split 8 points into a block that holds point 0 and the
# four points it leaves.
_SPLITS = tuple(((0, *trio), tuple(x for x in range(1, 8) if x not in trio))
                for trio in combinations(range(1, 8), 3))
# Each pair i < j of the 8 points carries 70 five-bit fields: field s is 1
# when split s's block holds the pair, field 35 + s when either of its parts
# does. Summed over the covered pairs, the fields count each split's
# repeated pairs, at most 12, so no field carries into the next.
_PAIR_FIELDS = tuple(
    (sum(1 << 5 * s for s, (blk, _) in enumerate(_SPLITS) if {i, j} <= {*blk})
     + sum(1 << 5 * (35 + s) for s, (blk, left) in enumerate(_SPLITS)
           if {i, j} <= {*blk} or {i, j} <= {*left}), i, j)
    for i, j in combinations(range(8), 2))
_FIELD_ONES = sum(1 << 5 * f for f in range(70))


def _split_prunes(unc: list[int], rem: int, pts: list[int],
                  slack: int) -> tuple[int, int, int, int]:
    """The effect of a covering level on the 8 points ``pts`` (their mask
    ``rem``, the least first) whose every completed class fails a coverage
    deficit, from its 35 splits into two blocks, the first holding pts[0].
    A split whose first block repeats more than ``slack`` pairs is one node
    cut by waste; else two nodes, the second cut by waste when the two
    blocks together repeat more than ``slack`` pairs, else its class is
    rejected. ``unc[x]`` holds the partners of x that no placed block pairs
    it with."""
    # x is never its own partner, so this is 8 plus twice the covered pairs
    if slack >= 12 or sum([(rem & ~unc[x]).bit_count() for x in pts]) <= 8 + 2 * slack:
        return 70, 0, 35, 2
    acc = 0
    for fields, i, j in _PAIR_FIELDS:
        if not unc[pts[i]] >> pts[j] & 1:
            acc += fields
    # adding 15 - slack sets bit 4 of exactly the fields above slack
    over = (acc + (15 - slack) * _FIELD_ONES) & (_FIELD_ONES << 4)
    both = (over >> 5 * 35).bit_count()
    first = over.bit_count() - both
    return 70 - first, both, 35 - both, 2 if both < 35 else 1 if first < 35 else 0


# A level of 12 points has 165 blocks B through its least point, 5,775
# splits (B, C), C holding the least point B leaves, and 5,775 splits
# (B, C, D): the fields of the tables that count such a level, in that order.
_TWELVE_FIELDS = 165 + 2 * 5775
# The B fields of a presence row and its (B, C, D) fields, all set; and
# the B fields of a six-bit row.
_TWELVE_B = (1 << 165) - 1
_TWELVE_SPLITS_SET = (1 << 5775) - 1
_TWELVE_B_FIELDS = (1 << 6 * 165) - 1


def _twelve_layout():
    """The field layout of the tables that count a level of 12 points: for
    each pair i < j of the 12, (row, i, j), row holding one byte per field,
    from field 0 up, 1 when the field holds the pair and 0 when not. Field
    B holds it when B does, field (B, C) when B or C does, and field
    (B, C, D) when any of the three does. _twelve_presence reads each row,
    reversed, as a binary number; the rows are not kept."""
    # By the places a < c of a pair among the 8 points B leaves: the digits
    # of its 35 splits (C, D) in which C holds the pair, and in which C or
    # D does.
    in_c = {(a, c): b"".join(b"1" if a in blk and c in blk else b"0" for blk, _ in _SPLITS)
            for a, c in combinations(range(8), 2)}
    in_cd = {(a, c): b"".join(b"1" if (a in blk) == (c in blk) else b"0"
                              for blk, _ in _SPLITS)
             for a, c in combinations(range(8), 2)}
    places = [{x: k for k, x in enumerate(x for x in range(1, 12) if x not in trio)}
              for trio in combinations(range(1, 12), 3)]
    for i, j in combinations(range(12), 2):
        row = bytearray(b"0" * _TWELVE_FIELDS)
        for b, place in enumerate(places):
            bc = 165 + 35 * b
            bcd = bc + 5775
            if i not in place and j not in place:
                row[b] = ord("1")
                row[bc:bc + 35] = row[bcd:bcd + 35] = b"1" * 35
            elif i in place and j in place:
                row[bc:bc + 35] = in_c[place[i], place[j]]
                row[bcd:bcd + 35] = in_cd[place[i], place[j]]
        yield row, i, j


@cache
def _twelve_presence() -> tuple[tuple[int, int, int], ...]:
    """The table _twelve_covered ORs, built on first use: for each pair
    i < j of 12 points, (bits, i, j), bit f set where field f of
    _twelve_layout holds the pair."""
    return tuple((int(row[::-1], 2), i, j) for row, i, j in _twelve_layout())


@cache
def _twelve_fields() -> tuple[tuple[tuple[int, int, int], ...], int, int]:
    """The table _twelve_prunes sums above slack 0, built on first use from
    _twelve_presence: for each pair i < j of 12 points, (fields, i, j),
    each field six bits wide and 1 where the presence row has its bit set;
    the integer with 1 in every field; and the one with each field's top
    bit set. Summed over the covered pairs, a field counts at most the 18
    pairs of its blocks, so it never carries into the next."""
    # A presence row's binary digits, most significant first, become base64
    # digits A and B, one six-bit field each, with one more A in front so
    # that the digits come in fours.
    digits = bytes.maketrans(b"01", b"AB")
    table = tuple(
        (int.from_bytes(a2b_base64(b"A" + format(bits, f"0{_TWELVE_FIELDS}b").encode()
                                   .translate(digits)), "big"), i, j)
        for bits, i, j in _twelve_presence())
    ones = int.from_bytes(a2b_base64(b"A" + b"B" * _TWELVE_FIELDS), "big")
    return table, ones, ones << 5


def _twelve_covered(unc: list[int], pts: list[int]) -> int:
    """The OR of the _twelve_presence rows of the pairs of ``pts`` (12
    points, sorted) that a placed block covers: bit f is set exactly when
    a block of field f repeats a pair."""
    acc = 0
    for bits, i, j in _twelve_presence():
        if not unc[pts[i]] >> pts[j] & 1:
            acc |= bits
    return acc


def _twelve_prunes(unc: list[int], pts: list[int],
                   slack: int) -> tuple[int, int, int, int]:
    """The effect of a covering level on the 12 points ``pts`` (sorted)
    whose every completed class fails a coverage deficit, from its
    5,775 splits into three blocks B, C, D, B holding pts[0] and C the
    least point B leaves. Each of the 165 blocks B is a node, cut by waste
    when it repeats more than ``slack`` pairs; else the 35 splits of the 8
    points it leaves follow, counted as _split_prunes counts them at the
    slack B leaves. A field is over the slack at slack 0 exactly when one
    of its pairs is covered, so there _twelve_covered decides the level;
    above it the six-bit rows of _twelve_fields are summed."""
    if slack >= 18:
        return 11715, 0, 5775, 3
    if slack:
        table, ones, tops = _twelve_fields()
        # adding 31 - slack sets bit 5 of exactly the fields above slack
        acc = (31 - slack) * ones
        for fields, i, j in table:
            if not unc[pts[i]] >> pts[j] & 1:
                acc += fields
        over = acc & tops
        over_b = (over & _TWELVE_B_FIELDS).bit_count()
        over_bcd = (over >> 6 * 5940).bit_count()
    else:
        over = _twelve_covered(unc, pts)
        over_b = (over & _TWELVE_B).bit_count()
        over_bcd = (over >> 5940).bit_count()
    # one bit of over per field above the slack
    ok_b = 165 - over_b
    ok_bc = 5775 - over.bit_count() + over_b + over_bcd
    ok_bcd = 5775 - over_bcd
    return (165 + 35 * ok_b + ok_bc, 165 + 34 * ok_b - ok_bcd, ok_bcd,
            3 if ok_bcd else 2 if ok_bc else 1 if ok_b else 0)


def _twelve_fresh(unc: list[int], pts: list[int]) -> tuple[int, int, int, int] | tuple[()]:
    """The effect of a Steiner or packing level on the 12 points ``pts``
    (sorted), from the fields _twelve_covered sets: () when a split
    (B, C, D) repeats no pair, since its 8-point level below B is walked;
    else one node per fresh block B and per split (B, C) with both blocks
    fresh, as _twelve_effect counts them."""
    acc = _twelve_covered(unc, pts)
    if acc >> 5940 != _TWELVE_SPLITS_SET:
        return ()
    ok_b = 165 - (acc & _TWELVE_B).bit_count()
    # every (B, C, D) field is set, so the clear ones are the fresh B and (B, C)
    ok_bc = _TWELVE_FIELDS - acc.bit_count() - ok_b
    return ok_b + ok_bc, 0, 0, 2 if ok_bc else 1 if ok_b else 0


# _twelve_effect counts a Steiner or packing level of 12 points block by
# block until it has seen this many fresh blocks, then the whole level by
# _twelve_fresh. A block costs about 0.8 us when the memo holds the level
# it leaves and 4.3 us when not, _twelve_fresh about 6 us plus 0.35 us per
# covered pair, 15-19 us on most levels (CPython 3.11.7, shared 2-core
# machine). On (28, steiner, 9) at 40,800 nodes, whose levels of 12
# points have 48 and 501 nodes, the run takes 3.2 ms against 9.4 ms block
# by block (2.8 ms at 8, 3.5 ms at 16). At 5M nodes most levels have no
# fresh block; 18,593 of 1.53M levels reach _twelve_fresh (45,126 at 8),
# and the time inside _twelve_effect, as a share of the run's other work,
# is 0.914-0.920 at 12, 0.923-0.956 at 8 and 0.957-0.966 at 4 (three
# interleaved rounds in one process): the run is about 0.7 % slower at 8
# and 2 % at 4. Counting from the first block instead would build the
# table in the (16, steiner, 5) search, whose first 8-point level below a
# 27-block level completes a class.
TWELVE_LOOP_BLOCKS = 12


def _twelve_effect(unc: list[int], rem: int,
                   memo: dict) -> tuple[int, int, int, int] | tuple[()]:
    """The effect of a Steiner or packing level on the 12 points of
    ``rem``: one node per fresh block through the least point, plus the
    effect of the level of 8 points it leaves, one block deeper, from
    ``memo`` or from _fresh_blocks; () when one of those levels must be
    walked. Once it has more than TWELVE_LOOP_BLOCKS fresh blocks,
    _twelve_fresh counts the whole level instead, so the presence table is
    built only when a level gets that far."""
    low = rem & -rem
    p = low.bit_length() - 1
    rest = rem ^ low
    n = pushed = blocks = 0
    for q, r, s in _fresh_trios(unc, rest & unc[p]):
        if blocks == TWELVE_LOOP_BLOCKS:
            return _twelve_fresh(unc, [x for x in range(p, rem.bit_length()) if rem >> x & 1])
        blocks += 1
        # the lookup of search_design's loop, for the level the block leaves
        left = rest ^ (1 << q | 1 << r | 1 << s)
        effect = memo.get(left)
        if effect is None:
            if len(memo) == SEARCH_MEMO_LEVELS:
                memo.clear()
            effect = memo[left] = _fresh_blocks(unc, left)
        if not effect:
            return ()
        n += 1 + effect[0]
        if effect[3] >= pushed:
            pushed = effect[3] + 1
    return n, 0, 0, pushed


class InfeasibleParameters(ValueError):
    """Search parameters that cannot yield a design of the requested kind."""


class UncolouredPair(ValueError):
    pass


class DesignParseError(ParseError):
    """Design file parse failure."""


Block = tuple[int, int, int, int]


@dataclass(frozen=True)
class Design:
    """Point set 0..v-1 with 4-element blocks, held as a resolution: one
    block list per parallel class. The requirement that each class
    partitions the points is checked by ``verify_resolution``, not here.
    """

    v: int
    classes: tuple[tuple[Block, ...], ...]

    def __post_init__(self) -> None:
        if self.v < 0:
            raise ValueError("point count must be non-negative")
        for blk in self.blocks:
            if len(blk) != BLOCK_SIZE or len(set(blk)) != BLOCK_SIZE:
                raise ValueError(f"block {blk} must have {BLOCK_SIZE} distinct points")
            ordered = tuple(sorted(blk))  # its ends are the least and largest points
            if ordered[0] < 0 or ordered[-1] >= self.v:
                raise ValueError(f"block {blk} out of range for v={self.v}")
            if ordered != blk:
                raise ValueError(f"block {blk} must be sorted ascending")

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(blk for cls in self.classes for blk in cls)


def pair_coverage(d: Design) -> dict[tuple[int, int], int]:
    """Multiplicity of each pair (i, j), i < j, that some block covers;
    uncovered pairs are absent, so the size grows with the blocks, not
    with v^2."""
    counts: dict[tuple[int, int], int] = {}
    for blk in d.blocks:
        for pair in combinations(blk, 2):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


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
    counts = pair_coverage(d)
    over = ([] if mode == "covering"
            else sorted(p for p, mult in counts.items() if mult > 1))
    # nested ranges: combinations would first copy range(v) into a tuple
    gaps = (() if mode == "packing"
            else ((i, j) for i in range(d.v) for j in range(i + 1, d.v)
                  if (i, j) not in counts))
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
    bad: list[tuple[int, int, str]] = []
    for cno, cls in enumerate(d.classes, start=1):
        seen: set[int] = set()
        for blk in cls:
            for p in blk:
                if p in seen:
                    bad.append((cno, p, "repeated"))
                seen.add(p)
        for p in range(d.v):
            if p not in seen:
                bad.append((cno, p, "missing"))
    return ResolutionVerdict(not bad, tuple(bad))


def design_to_colouring(d: Design, leave_colour: int | None = None) -> EdgeColouring:
    """Colour each pair by the smallest parallel class containing it; pairs in
    no class take ``leave_colour``, which must be a fresh colour."""
    res = verify_resolution(d)
    if not res.ok:
        raise ValueError(f"resolution invalid: {res.violations[:3]}")
    ncl = len(d.classes)
    cols = _first_cover_colours(d.v, d.classes)
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
    # the spare slots, and completed classes cut by a point's coverage deficit.
    pruned_waste: int = 0
    rejected_classes: int = 0
    # The most blocks on the search path at once, the pinned first class
    # included: classes * v/4 in a found run.
    depth: int = 0

    def lines(self) -> list[str]:
        label = {"found": "found", "exhausted": "exhausted-space",
                 "budget": "budget-exhausted"}[self.outcome]
        return [f"outcome={label}", f"nodes={self.nodes}",
                f"seconds={self.seconds:.3f}", f"pruned_waste={self.pruned_waste}",
                f"rejected_classes={self.rejected_classes}", f"depth={self.depth}"]


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
    repeated pair slots and on each point's coverage deficit.

    The search is one loop over an explicit stack with one record per placed
    block: the candidate iterator of its level, the level's free points and
    floor, the block, the four masks it overwrote, its waste and, for
    coverings, the most uncovered partners a point of its class placed so
    far keeps. The pinned class's records sit at the bottom, never popped.
    A block that leaves four points is pushed like any other, and the
    class's last block is the one candidate of an ordinary level: the trio
    of its three free points after the least for coverings, and for Steiner
    and packing runs that block only when its six pairs are uncovered, so a
    repeated last block is no node there. The push that completes a
    covering class runs each point's coverage deficit: the four new points
    are counted, and the record under it holds the count of the others.

    A level with 8 or 12 free points is counted on entry, not walked, when
    its end is known: in a covering run when it is doomed, that is when a
    point its class has placed (the record under the level holds their
    largest count) keeps more uncovered partners than the classes left can
    cover, so every class the level completes fails that point's deficit;
    in a Steiner or packing run when no split of 8 free points has two
    fresh blocks, so no class completes. _split_prunes or _fresh_blocks
    returns the effect of a level of 8 points, the nodes, waste prunes and
    rejected classes its walk would add and the most blocks it would push
    at once. _twelve_prunes counts a doomed covering level of 12 points the
    same way, from the repeated pairs of its 5,775 splits into three
    blocks, since its levels of 8 points are doomed too: at waste slack 0
    from _twelve_covered, the OR of the covered pairs' presence bits, and
    above it from six-bit sums. _twelve_effect counts a Steiner or packing
    level of 12 points as one node per fresh block plus the effect of the
    level of 8 points that block leaves, and has it walked when one of
    those must be; past TWELVE_LOOP_BLOCKS fresh blocks, _twelve_fresh
    counts the whole level at once from the same OR. The loop then takes
    back the block under the level. The walk stays where it could end or
    skip early: under a floor, and when the meter's next check falls
    inside the level; a covering level of 12 points is also walked when
    that check is a clock poll away or less, since few fit there.
    An effect depends only on the pairs among the level's free points,
    which only the completed classes cover, since the open class's blocks
    avoid them, and on the waste slack, which matters only below 12 for 8
    points and is 0 in Steiner and packing runs. So each class remembers
    the effects of its levels of 8 points by their free points and slack,
    in a memo emptied when the class before it completes and when it
    reaches SEARCH_MEMO_LEVELS entries, which bounds its memory.
    """
    _check_feasible(v, mode, classes)
    per_class = v // 4
    goal = classes * per_class
    if goal > SEARCH_MAX_BLOCKS:
        raise ValueError(f"v={v} and classes={classes} place {goal} "
                         f"blocks, over the search limit of {SEARCH_MAX_BLOCKS}")
    meter = NodeMeter(budget)
    nodes = 0
    stop = meter.check(nodes)
    covering = mode == "covering"
    points = (1 << v) - 1

    # unc[a]: the partners of a that no placed block pairs it with; the
    # natural first class is placed.
    unc = [points ^ 15 << (a & ~3) for a in range(v)]
    waste = pruned_waste = rejected_classes = 0
    depth = per_class
    # a covering may repeat only slots - pairs pair slots in total; steiner
    # and packing runs never repeat one, so their waste stays zero
    max_waste = goal * 6 - pair_count(v) if covering else 0

    # The pinned class, the completed classes, the open class: the previous
    # class's record at the next level is stack[-per_class]. A record's last
    # field is, for coverings, the most uncovered partners a point of its
    # class placed so far keeps; it is 0 in the blocks that complete a
    # class, so the next class starts from 0.
    stack: list[tuple] = [((), 0, None, (a, a + 1, a + 2, a + 3), 0, 0, 0, 0, 0, 0)
                          for a in range(0, v, 4)]
    push = stack.append
    # memos[k]: the effects of class k's levels of 8 free points, by their
    # points and slack, while the classes before it stay as they are;
    # emptied when class k - 1 completes, the last class included.
    memos: list[dict] = [{} for _ in range(classes + 1)]
    # The level under construction: its free points, its floor (the block
    # of the previous class at this level while the class so far repeats
    # that class, else None) and its candidates, made on entry when None.
    rem = points
    floor: Block | None = stack[0][3]
    it = None
    outcome = "exhausted"
    try:
        while len(stack) < goal:
            if it is None:
                low = rem & -rem
                p = low.bit_length() - 1
                rest = rem ^ low
                # the blocks on the search path once this level's is placed
                here = len(stack) + 1
                if covering:
                    # A list, not a generator: copying a generator means
                    # resizing a tuple, and the resized tuples fill CPython's
                    # tuple free lists (0.3 MB more peak memory on a v=20
                    # covering run).
                    free = [x for x in range(p + 1, v) if rest >> x & 1]
                    it = combinations(free, 3)
                    # doomed: a point its class has placed keeps more
                    # uncovered partners than the classes left can cover
                    count = len(free) in (7, 11) and stack[-1][9] > 3 * (
                        classes - len(stack) // per_class - 1)
                else:
                    count = rest.bit_count() in (7, 11)
                if count and floor is None:
                    # Count a level of 8 or 12 free points whose nodes end
                    # before the meter's next check; the loop below then
                    # takes back the block under it. A Steiner or packing
                    # slack is 0, so its key is rem, which no covering key
                    # with slack equals. A covering level of 12 points is
                    # tried only when that check is more than a clock poll
                    # away: it has 165 blocks and most often over a
                    # thousand nodes, so few fit in a poll, and trying each
                    # one made clock-polled runs slower.
                    slack = max_waste - waste
                    memo = memos[len(stack) // per_class]
                    if rem.bit_count() == 8:
                        key = rem << 4 | min(slack, 12) if slack else rem
                        effect = memo.get(key)
                        if effect is None:
                            if len(memo) == SEARCH_MEMO_LEVELS:
                                memo.clear()
                            effect = memo[key] = (
                                _split_prunes(unc, rem, [p, *free], slack) if covering
                                else _fresh_blocks(unc, rem))
                    elif not covering:
                        effect = _twelve_effect(unc, rem, memo)
                    elif stop - nodes > CLOCK_POLL_NODES:
                        effect = _twelve_prunes(unc, [p, *free], slack)
                    else:
                        effect = ()
                    if effect and nodes + effect[0] < stop:
                        n, cut, rejected, pushed = effect
                        nodes += n
                        pruned_waste += cut
                        rejected_classes += rejected
                        if len(stack) + pushed > depth:
                            depth = len(stack) + pushed
                        it = ()
                if it is None:
                    it = _fresh_trios(unc, rest & unc[p])
            for q, r, s in it:
                if floor is not None and (p, q, r, s) < floor:
                    continue
                nodes += 1
                if nodes >= stop:
                    stop = meter.check(nodes)
                bm = low | 1 << q | 1 << r | 1 << s
                up, uq, ur, us = unc[p], unc[q], unc[r], unc[s]
                w = 6 - ((up & bm).bit_count() + (uq & bm).bit_count()
                         + (ur & bm).bit_count() + (us & bm).bit_count()) // 2
                if waste + w > max_waste:
                    pruned_waste += 1
                    continue
                if here > depth:
                    depth = here
                keep = ~bm
                mp, mq, mr, ms = up & keep, uq & keep, ur & keep, us & keep
                left = rem ^ bm
                top = 0
                if covering:
                    top = max(stack[-1][9], mp.bit_count(), mq.bit_count(),
                              mr.bit_count(), ms.bit_count())
                    if not left:
                        # The class is complete, and each of its points may
                        # keep as many uncovered partners as the classes
                        # left cover, three each. _check_feasible leaves
                        # enough slots for the natural class, and the last
                        # class leaves no pair uncovered.
                        if top > 3 * (classes - len(stack) // per_class - 1):
                            rejected_classes += 1
                            continue
                        top = 0
                unc[p], unc[q], unc[r], unc[s] = mp, mq, mr, ms
                blk = (p, q, r, s)
                push((it, rem, floor, blk, up, uq, ur, us, w, top))
                waste += w
                if left:
                    floor = stack[-per_class][3] if blk == floor else None
                    rem = left
                else:
                    memos[len(stack) // per_class] = {}
                    rem = points
                    floor = stack[-per_class][3]
                it = None
                break
            else:
                # The level's candidates are done: take back the block below.
                if len(stack) == per_class:
                    break
                it, rem, floor, (p, q, r, s), up, uq, ur, us, w, _ = stack.pop()
                unc[p], unc[q], unc[r], unc[s] = up, uq, ur, us
                waste -= w
                low = 1 << p
                here = len(stack) + 1
    except BudgetExhausted:
        outcome = "budget"
    seconds = meter.seconds()
    if len(stack) < goal:
        return DesignSearchResult(None, outcome, nodes, seconds,
                                  pruned_waste, rejected_classes, depth)

    design = Design(v, tuple(tuple(rec[3] for rec in stack[i:i + per_class])
                             for i in range(0, goal, per_class)))
    if not verify_design(design, mode).ok:
        raise AssertionError(f"search_design built an invalid {mode} design")
    if not verify_resolution(design).ok:
        raise AssertionError("search_design built an invalid resolution")
    return DesignSearchResult(design, "found", nodes, seconds,
                              pruned_waste, rejected_classes, depth)


# ---------------------------------------------------------------------------
# Design file format
# ---------------------------------------------------------------------------

DESIGN_HEADER = "DESIGN v1"


def write_design(d: Design, mode: str) -> bytes:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    lines = [DESIGN_HEADER, f"v={d.v} k={BLOCK_SIZE} mode={mode}"]
    for cno, cls in enumerate(d.classes, start=1):
        lines.append(f"P {cno}")
        lines.extend(" ".join(map(str, blk)) for blk in sorted(cls))
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
    if v % 4:
        raise DesignParseError(2, "resolvable designs need v = 0 (mod 4)")
    if len(lines) == 2:
        raise DesignParseError(2, "design file has no block sections")
    classes: list[tuple[Block, ...]] = []
    i = 2
    while i < len(lines):
        lineno = i + 1
        line = lines[i]
        if not line.startswith("P "):
            raise DesignParseError(lineno, f"expected a 'P <c>' section, got {line!r}")
        i += 1
        if line[2:] != str(len(classes) + 1):
            raise DesignParseError(lineno, f"expected 'P {len(classes) + 1}'")
        cls: list[Block] = []
        for _ in range(v // 4):
            if i == len(lines):
                raise DesignParseError(len(lines), "truncated parallel class")
            blk = _parse_block(lines[i], i + 1, v)
            if cls and blk < cls[-1]:
                raise DesignParseError(i + 1, "blocks must be ascending within a class")
            cls.append(blk)
            i += 1
        classes.append(tuple(cls))
    return Design(v, tuple(classes)), mode


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
