"""Block designs: verification, leaves, colourings, search, file format."""

import binascii
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import ramsey_p5
from oracles import component_sizes
from ramsey_p5.colouring import find_mono_p5, ramsey_value
from ramsey_p5.designs import (SEARCH_MAX_BLOCKS, TWELVE_LOOP_BLOCKS, Design,
                               DesignParseError, InfeasibleParameters, SearchBudget,
                               UncolouredPair, _twelve_fresh, design_to_colouring,
                               pair_coverage, read_design, search_design,
                               verify_design, verify_resolution, write_design)
from ramsey_p5.engine import CLOCK_POLL_NODES
from ramsey_p5.graphs import connected_components


def the_b4_16():
    result = search_design(16, "steiner", 5)
    assert result.outcome == "found"
    return result.design


def the_v8_covering():
    result = search_design(8, "covering", 3)
    assert result.outcome == "found"
    return result.design


def leave_edges(d):
    """Number of point pairs that no block covers."""
    return d.v * (d.v - 1) // 2 - len(pair_coverage(d))


def test_design_validation():
    """Each bad block raises its message; a block with several faults names
    the first of size and distinctness, range, order."""
    for v, classes, message in (
            (4, (((0, 1, 2, 2),),), "block (0, 1, 2, 2) must have 4 distinct points"),
            (4, (((0, 1, 2),),), "block (0, 1, 2) must have 4 distinct points"),
            (4, (((0, 1, 2, 4),),), "block (0, 1, 2, 4) out of range for v=4"),
            (4, (((3, 2, 1, 0),),), "block (3, 2, 1, 0) must be sorted ascending"),
            (8, (((0, 1, 2, 3),), ((4, 5, 6, 8),)), "block (4, 5, 6, 8) out of range"),
            (8, (((8, 1, 2, 3),),), "block (8, 1, 2, 3) out of range for v=8"),
            (8, (((2, 1, 0, -1),),), "block (2, 1, 0, -1) out of range for v=8"),
            (4, (((9, 9, 1, 0),),), "block (9, 9, 1, 0) must have 4 distinct points"),
            (-1, (), "point count must be non-negative")):
        with pytest.raises(ValueError) as err:
            Design(v, classes)
        assert str(err.value).startswith(message), (classes, str(err.value))


def test_single_block_is_steiner():
    d = Design(4, (((0, 1, 2, 3),),))
    assert verify_design(d, "steiner").ok
    assert verify_design(d, "covering").ok
    assert verify_design(d, "packing").ok
    assert verify_resolution(d).ok
    assert leave_edges(d) == 0


def test_v8_covering_passes_covering_not_steiner():
    d = the_v8_covering()
    assert len(d.blocks) == 6
    assert verify_design(d, "covering").ok
    steiner = verify_design(d, "steiner")
    assert not steiner.ok
    # 36 pair slots over 28 pairs force exactly 8 doubled slots
    assert sum(mult - 1 for _, mult in steiner.violations if mult > 1) == 8
    assert not verify_design(d, "packing").ok


def test_pair_coverage_totals():
    d = the_b4_16()
    cov = pair_coverage(d)
    assert sum(cov.values()) == len(d.blocks) * 6 == 120
    assert all(c == 1 for c in cov.values())


def test_b4_16_shape():
    d = the_b4_16()
    assert len(d.blocks) == 20
    assert len(d.classes) == 5  # (16 - 1) / 3
    assert verify_design(d, "steiner").ok
    assert verify_resolution(d).ok
    assert leave_edges(d) == 0
    # exact cover passes the weaker modes too
    assert verify_design(d, "covering").ok
    assert verify_design(d, "packing").ok


def test_resolution_failure_names_the_point():
    d = Design(8, (((0, 1, 2, 3), (3, 4, 5, 6)),))
    verdict = verify_resolution(d)
    assert not verdict.ok
    assert (1, 3, "repeated") in verdict.violations
    assert (1, 7, "missing") in verdict.violations


def test_leave_graph_counts():
    one_block = Design(8, (((0, 1, 2, 3),),))
    assert leave_edges(one_block) == 28 - 6
    # a covering leaves no pair out, however often it repeats one
    assert leave_edges(the_v8_covering()) == 0


def test_leave_of_truncated_b4_16_is_four_cliques():
    packing = Design(16, the_b4_16().classes[:4])
    assert verify_design(packing, "packing").ok
    assert leave_edges(packing) == 24
    leave = dict(design_to_colouring(packing, leave_colour=5).colour_classes())[5]
    assert leave.edge_count() == 24
    comps = [c.bit_count() for c in connected_components(leave)]
    assert sorted(comps) == [4, 4, 4, 4]


def test_design_to_colouring_b4_16():
    c = design_to_colouring(the_b4_16())
    assert c.n == 16 and c.r == 5
    assert find_mono_p5(c) is None
    assert max(component_sizes(g.adj, g.n)[-1] for _, g in c.colour_classes()) <= 4
    classes = dict(c.colour_classes())
    assert sorted(classes) == [1, 2, 3, 4, 5]
    for g in classes.values():
        comps = [m for m in connected_components(g) if m.bit_count() > 1]
        assert [m.bit_count() for m in comps] == [4, 4, 4, 4]
        # exact-cover classes split into true cliques
        for m in comps:
            pts = [p for p in range(16) if m >> p & 1]
            assert all(g.adj[a] >> b & 1 for a in pts for b in pts if a < b)


def test_design_to_colouring_v8_covering():
    c = design_to_colouring(the_v8_covering())
    assert c.n == 8 and c.r == 3
    assert find_mono_p5(c) is None
    assert max(component_sizes(g.adj, g.n)[-1] for _, g in c.colour_classes()) <= 4


def test_design_to_colouring_leave_route():
    d = the_b4_16()
    packing = Design(16, d.classes[:4])
    with pytest.raises(UncolouredPair):
        design_to_colouring(packing)
    with pytest.raises(ValueError):
        design_to_colouring(packing, leave_colour=3)
    c = design_to_colouring(packing, leave_colour=5)
    assert c.r == 5
    assert find_mono_p5(c) is None
    assert max(component_sizes(g.adj, g.n)[-1] for _, g in c.colour_classes()) <= 4
    # ignore the leave colour when nothing is left over
    full = design_to_colouring(d, leave_colour=6)
    assert full.r == 5


def test_overlap_tie_break_alternatives_stay_mono_free():
    """Any overlapped pair may move to any other containing class and the
    colouring stays free of monochromatic 5-vertex paths."""
    d = the_v8_covering()
    cov = pair_coverage(d)
    base = design_to_colouring(d)
    membership = {}
    for cno, cls in enumerate(d.classes, start=1):
        for blk in cls:
            for a in range(4):
                for b in range(a + 1, 4):
                    membership.setdefault((blk[a], blk[b]), []).append(cno)
    checked = 0
    for (i, j), classes in membership.items():
        if len(classes) < 2:
            continue
        for alt in classes[1:]:
            cols = list(base.colours)
            from ramsey_p5.colouring import pair_index
            cols[pair_index(8, i, j)] = alt
            from ramsey_p5.colouring import EdgeColouring
            assert find_mono_p5(EdgeColouring(8, 3, cols)) is None
            checked += 1
    assert checked >= 8


def test_search_budget_exhaustion_is_reported():
    result = search_design(16, "steiner", 5, SearchBudget(nodes=1))
    assert result.outcome == "budget"
    assert result.design is None
    assert result.nodes >= 1


@pytest.mark.parametrize("budget,nodes,counts", [
    (SearchBudget(nodes=1023), 1024, None), (SearchBudget(nodes=1024), 1025, None),
    (SearchBudget(nodes=1025), 1026, None),
    (SearchBudget(nodes=1400), 1401, (10, 118, 579)),
    (SearchBudget(nodes=1600), 1601, (10, 118, 678)),
    (SearchBudget(nodes=5000, seconds=60), 5001, None),
    (SearchBudget(seconds=0.05), None, None)],
    ids=["cap-1023", "cap-1024", "cap-1025", "cap-1400-forced-block",
         "cap-1600-after-rejected-class", "cap-5000-and-60s", "50ms"])
def test_search_limits_stop_where_the_meter_checks(budget, nodes, counts):
    """The design search meters its nodes as the edge-colouring search does:
    it stops at the first node past the cap, the cap checked before the
    clock, and a deadline alone stops it on a clock poll. Node 1401 is the
    forced last block of a class and node 1601 the first node after a class
    the coverage deficits reject; counts are (depth, pruned_waste,
    rejected_classes) at the stop."""
    result = search_design(20, "covering", 7, budget)
    assert (result.outcome, result.design) == ("budget", None)
    if nodes is None:
        assert result.nodes > 0 and result.nodes % CLOCK_POLL_NODES == 0
    else:
        assert result.nodes == nodes
    if counts is not None:
        assert (result.depth, result.pruned_waste, result.rejected_classes) == counts


def test_search_time_limit_stops_on_a_clock_poll():
    """A deadline alone stops a search on a clock poll, also a covering
    search that counts whole levels at once."""
    for v, mode, classes in ((28, "steiner", 9), (24, "covering", 8)):
        result = search_design(v, mode, classes, SearchBudget(seconds=0.05))
        assert (result.outcome, result.design) == ("budget", None), (v, mode)
        assert result.nodes > 0 and result.nodes % CLOCK_POLL_NODES == 0, (v, mode)


def test_search_infeasible_parameters():
    with pytest.raises(InfeasibleParameters):
        search_design(10, "covering", 3)
    with pytest.raises(InfeasibleParameters):
        search_design(8, "steiner", 3)
    with pytest.raises(InfeasibleParameters):
        search_design(16, "steiner", 4)
    with pytest.raises(InfeasibleParameters):
        search_design(8, "covering", 2)  # 24 slots < 28 pairs
    with pytest.raises(InfeasibleParameters):
        search_design(8, "packing", 3)  # 36 slots > 28 pairs


def test_search_block_limit():
    """The deepest run the limit allows, one block per class on 4 points,
    completes, and under a recursion limit far below its depth, since the
    search does not recurse; one more class is refused before any search."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        result = search_design(4, "covering", SEARCH_MAX_BLOCKS)
    finally:
        sys.setrecursionlimit(limit)
    assert result.outcome == "found"
    assert len(result.design.classes) == SEARCH_MAX_BLOCKS
    for v, mode, classes in ((4, "covering", SEARCH_MAX_BLOCKS + 1),
                             (100, "steiner", 33)):
        with pytest.raises(ValueError, match="over the search limit"):
            search_design(v, mode, classes)


def test_search_distinguishes_exhausted_space_from_budget():
    # after the pinned first class, every block of a second class on 8 points
    # would repeat a pair, so no 2-class resolvable packing exists
    result = search_design(8, "packing", 2)
    assert result.outcome == "exhausted"
    assert result.design is None


def test_search_packing_route():
    result = search_design(16, "packing", 2)
    assert result.outcome == "found"
    d = result.design
    assert verify_design(d, "packing").ok
    assert verify_resolution(d).ok
    assert leave_edges(d) == 120 - 48


def test_search_results_always_verify():
    for v, mode, classes in ((4, "steiner", 1), (8, "covering", 3),
                             (16, "steiner", 5), (8, "packing", 1)):
        result = search_design(v, mode, classes)
        assert result.outcome == "found"
        assert verify_design(result.design, mode).ok
        assert verify_resolution(result.design).ok
        assert len(result.design.blocks) == result.depth == classes * v // 4


def test_search_is_deterministic():
    a = search_design(8, "covering", 3)
    b = search_design(8, "covering", 3)
    assert a.design == b.design and a.nodes == b.nodes


def test_design_file_round_trip():
    for d, mode in ((the_b4_16(), "steiner"), (the_v8_covering(), "covering")):
        data = write_design(d, mode)
        d2, mode2 = read_design(data)
        assert d2 == d and mode2 == mode
        assert write_design(d2, mode2) == data


def test_design_parse_errors():
    good = write_design(the_v8_covering(), "covering").decode()
    lines = good.split("\n")

    with pytest.raises(DesignParseError) as err:
        read_design("\n".join(["DESIGN v2"] + lines[1:]).encode())
    assert err.value.line == 1

    bad = lines[:]
    bad[3] = "4 5 6"
    with pytest.raises(DesignParseError) as err:
        read_design("\n".join(bad).encode())
    assert err.value.line == 4

    bad = lines[:]
    bad[3] = "4 5 6 6"
    with pytest.raises(DesignParseError):
        read_design("\n".join(bad).encode())

    bad = lines[:]
    bad[2] = "P 2"
    with pytest.raises(DesignParseError):
        read_design("\n".join(bad).encode())

    # one case per remaining error branch: (file, line, message)
    cases = [("DESIGN v1\n", 2, "truncated design file"),
             ("DESIGN v1\nv=8 k=4\n", 2, "expected 'v=<v> k=4"),
             ("DESIGN v1\nv=8 k=3 mode=covering\n", 2, "only k=4"),
             ("DESIGN v1\nv=8 k=4 mode=leave\n", 2, "mode must be one of"),
             ("DESIGN v1\nv=8 k=4 mode=covering\n", 2, "no block sections")]
    for edits, line, message in (({5: "Q 2"}, 6, "expected a 'P <c>' section"),
                                 ({3: lines[4], 4: lines[3]}, 5, "must be ascending within"),
                                 ({4: "4 5 6 8"}, 5, "point out of range")):
        cases.append(("\n".join(edits.get(k, x) for k, x in enumerate(lines)), line, message))
    for text, line, message in cases:
        with pytest.raises(DesignParseError, match=message) as err:
            read_design(text.encode())
        assert err.value.line == line, text

    # v and k are plain decimals, as block points are, and v = 0 (mod 4)
    for head in ("v=1_6 k=4", "v=+8 k=4", "v=016 k=4", "v=8 k=04", "v=10 k=4"):
        bad = lines[:]
        bad[1] = f"{head} mode=covering"
        with pytest.raises(DesignParseError) as err:
            read_design("\n".join(bad).encode())
        assert err.value.line == 2, head


def test_design_self_check_survives_python_O():
    """Under python -O a found design that fails its check still raises."""
    script = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        "from ramsey_p5 import designs\n"
        "designs.verify_design = lambda d, mode: SimpleNamespace(ok=False)\n"
        "try:\n"
        "    designs.search_design(16, 'steiner', 5)\n"
        "except AssertionError:\n"
        "    sys.exit(0 if sys.flags.optimize else 2)\n"
        "sys.exit(1)\n")
    src = str(Path(ramsey_p5.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


# The search tree is part of the contract: (v, mode, classes) -> nodes and the
# sha256 of the written design. Recorded before the search moved to
# uncovered-partner masks; any change to candidate order or pruning shows here.
FOUND_PINS = {
    (8, "covering", 3): (
        323, "57d1b9517fcba557ff44be0a19935c6d76df7bbdbc689fe660590fd5a56b748b"),
    (8, "covering", 4): (
        325, "463731e489440b7c19a75129daa1b82a378bde0a0ec464dfc25176ac2e2feecb"),
    (16, "steiner", 5): (
        16, "d01b59aacf6388317cdfc8661dab340980973de0fc617946ae904686280d8744"),
    (16, "packing", 4): (
        12, "8e63b4809aa4bd5d62ce72440f46b291ef265140888211b2009e8c6fc5020412"),
    (16, "packing", 2): (
        4, "7d3fef6152632fd8174d4b465250790650ca7487179d7f06e8bb1ac1dc35c667"),
    (16, "packing", 3): (
        8, "61118b8aeade8ba8f328ef1fe75f7a7bed11848c749d608035a33cb68ee796ae"),
    (16, "covering", 5): (
        970, "93bcc930a42099ef5f7a00b2b87e43f459edea8da2e4151151c665faf6923b38"),
    (16, "covering", 6): (
        974, "b0b5458756e295b4ee95293f86cf1684eb38050912a8d6151b7e8854f9c39195"),
    (20, "packing", 3): (
        3322, "506a42e6fa0d57a772513250015a604451f4ae95b894b5fc19959eb63840453b"),
    (20, "packing", 4): (
        3971, "bae21389dc91115fa6b80bbfc2be45887cef81d31e4f793de0e30b29ed10fc50"),
    (20, "packing", 5): (
        5396, "50dde6d4e508306700cb09afffcc9ab9f56648beb0e78fdf29b9da241fda15ff"),
    (24, "packing", 4): (
        36447, "f19603e91f083d96ce3933708de9c05e33e85b77028988ddd4119dddcbda0f53"),
}
EXHAUSTED_PINS = ((8, "packing", 2), (12, "packing", 3))
# (v, mode, classes) -> cap -> (nodes, depth, pruned_waste, rejected_classes).
# The 5M caps, the default budget of `witness 7` and `witness 8`, were
# recorded while every level of 12 free points was still walked; the
# (28, steiner, 9) cap of 600,000, whose deep levels of 12 free points have
# from none to 90 fresh blocks, while each was counted block by block.
CAPPED_PINS = {
    (20, "covering", 7): {2000: (2001, 10, 120, 873), 6000: (6001, 10, 182, 2783),
                          20000: (20001, 10, 235, 9631),
                          5000000: (5000001, 10, 681, 2463905)},
    (24, "covering", 8): {2000: (2001, 12, 1418, 272), 6000: (6001, 12, 4037, 920),
                          20000: (20001, 12, 13162, 3209),
                          5000000: (5000001, 12, 1659209, 1054458)},
    (28, "steiner", 9): {2000: (2001, 13, 0, 0), 6000: (6001, 13, 0, 0),
                         20000: (20001, 13, 0, 0), 200000: (200001, 43, 0, 0),
                         600000: (600001, 45, 0, 0)},
}


def test_search_tree_pinned():
    for (v, mode, classes), (nodes, digest) in FOUND_PINS.items():
        result = search_design(v, mode, classes)
        assert (result.outcome, result.nodes) == ("found", nodes), (v, mode, classes)
        got = hashlib.sha256(write_design(result.design, mode)).hexdigest()
        assert got == digest, (v, mode, classes)
    for v, mode, classes in EXHAUSTED_PINS:
        result = search_design(v, mode, classes)
        assert (result.outcome, result.nodes, result.design) == ("exhausted", 0, None)
        assert (result.depth, result.pruned_waste, result.rejected_classes) == (
            v // 4, 0, 0), (v, mode, classes)
    for (v, mode, classes), by_cap in CAPPED_PINS.items():
        for cap, counts in by_cap.items():
            result = search_design(v, mode, classes, SearchBudget(nodes=cap))
            assert (result.outcome, result.design) == ("budget", None)
            assert (result.nodes, result.depth, result.pruned_waste,
                    result.rejected_classes) == counts, (v, mode, classes, cap)


def test_found_runs_keep_their_pins_under_a_node_cap():
    """An unbounded run never checks its meter again, and neither does a
    run under a node cap far past it, so the count is tried at every
    doomed covering level of 12 points either run meets; under the cap,
    as unbounded, each found run keeps its nodes and design."""
    for (v, mode, classes), (nodes, digest) in FOUND_PINS.items():
        result = search_design(v, mode, classes, SearchBudget(nodes=10 ** 6))
        assert (result.outcome, result.nodes) == ("found", nodes), (v, mode, classes)
        got = hashlib.sha256(write_design(result.design, mode)).hexdigest()
        assert got == digest, (v, mode, classes)


@pytest.mark.parametrize("levels", [1, 2, 16])
def test_memo_cap_never_changes_a_tree(monkeypatch, levels):
    """A class's memo of level effects is exact, so emptying it at any size
    changes no count: the capped runs at 20,000 nodes and a found packing
    run keep their pins with the memo emptied at 1, 2 and 16 entries."""
    monkeypatch.setattr(ramsey_p5.designs, "SEARCH_MEMO_LEVELS", levels)
    for (v, mode, classes), by_cap in CAPPED_PINS.items():
        result = search_design(v, mode, classes, SearchBudget(nodes=20000))
        assert (result.nodes, result.depth, result.pruned_waste,
                result.rejected_classes) == by_cap[20000], (v, mode, classes)
    result = search_design(20, "packing", 5)
    digest = hashlib.sha256(write_design(result.design, "packing")).hexdigest()
    assert (result.nodes, digest) == FOUND_PINS[20, "packing", 5]
    assert (result.depth, result.pruned_waste, result.rejected_classes) == (25, 0, 0)


# (v, mode, classes) -> caps. Each consecutive run spans a level of 8 free
# points whose classes all fail a coverage deficit, from the block before it
# to the one after it, so the stops fall on every node inside it; the v=12
# level is the first to reach its depth, with no class past the waste test.
# The last two caps are the ends of the benchmark's cap band.
CAP_SWEEPS = {
    (12, "covering", 4): tuple(range(2330, 2416)),
    (20, "covering", 7): (*range(1400, 1481), 150000, 156000),
    (24, "covering", 8): (*range(1436, 1490), 150000, 156000),
}
# sha256 of the repr of the list of (v, classes, cap, nodes, depth,
# pruned_waste, rejected_classes), recorded while every such level was
# still walked candidate by candidate.
CAP_SWEEP_DIGEST = "0222b9d6c378c83760c0dadedee8f8e66cc13ba4b24ebb0bf550c323fadc79cd"


def sweep_digest(sweeps):
    """The digest of a sweep's rows; each run stops one node past its cap."""
    rows = []
    for (v, mode, classes), caps in sweeps.items():
        for cap in caps:
            result = search_design(v, mode, classes, SearchBudget(nodes=cap))
            assert (result.outcome, result.nodes) == ("budget", cap + 1), (v, cap)
            rows.append((v, classes, cap, result.nodes, result.depth,
                         result.pruned_waste, result.rejected_classes))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_search_stops_and_counters_at_every_cap_of_a_sweep():
    assert sweep_digest(CAP_SWEEPS) == CAP_SWEEP_DIGEST


# (v, mode, classes) -> caps for Steiner and packing runs. The v=28 caps
# step through levels of 8 free points with no fresh trio, then through
# three levels of 12 fresh blocks each, none of which completes its class;
# at cap 25,600 the last such level is over 300 nodes back, so only counted
# levels reach depth 13; the last two caps are the benchmark's. The packing
# caps step through such levels of 13 and 17 blocks and through the first
# level that completes a class.
FRESH_SWEEPS = {
    (28, "steiner", 9): (*range(1, 40), *range(1212, 1244), 25600,
                         *range(39994, 40009), 41600),
    (20, "packing", 5): (*range(1, 104), *range(3140, 3175)),
}
# The same digest as CAP_SWEEP_DIGEST, recorded while every such level was
# still walked candidate by candidate.
FRESH_SWEEP_DIGEST = "fc4d1c98161b6fd71c40b32dbb2c0002ac49e849ddf2b3d95210ea0f77ae6b52"


def test_fresh_search_stops_and_counters_at_every_cap_of_a_sweep():
    assert sweep_digest(FRESH_SWEEPS) == FRESH_SWEEP_DIGEST


# (v, mode, classes) -> caps that stop a found run at each of its nodes; the
# (20, packing, 5) caps cover its last 96 nodes, in which its last three
# classes complete. So the stops fall on each class's last block and on the
# first block after it.
COMPLETION_SWEEPS = {
    (8, "covering", 3): tuple(range(1, 323)),
    (16, "steiner", 5): tuple(range(1, 16)),
    (16, "packing", 4): tuple(range(1, 12)),
    (20, "packing", 5): tuple(range(5300, 5396)),
}
# The same digest as CAP_SWEEP_DIGEST, recorded while each class's last
# block was still decided in the step of the block before it.
COMPLETION_SWEEP_DIGEST = "57339d1f6b1a1037c659946c58c9d6aa908f6f6e88892c101691bf112f3a78e2"


def test_search_stops_and_counters_at_every_cap_of_a_found_run():
    assert sweep_digest(COMPLETION_SWEEPS) == COMPLETION_SWEEP_DIGEST


# (v, mode, classes) -> caps that stop a run at each node of one counted
# level of 12 free points, from the block before it to the node after it:
# the (24, covering, 8) level from node 269 has 1,326 nodes, so its last
# two caps count it; the (28, steiner, 9) level from node 1,684 has 501,
# and it is counted only from cap 2,707, where the meter's next check is
# more than a clock poll past its entry.
TWELVE_SWEEPS = {
    (24, "covering", 8): tuple(range(267, 1596)),
    (28, "steiner", 9): (*range(1682, 2187), *range(2704, 2711)),
}
# The same digest as CAP_SWEEP_DIGEST, recorded while every level of 12
# free points was still walked candidate by candidate.
TWELVE_SWEEP_DIGEST = "1fbda080a3733249537535313a43f3e8df8412034ff379b7cd5500633d7c524e"


def test_search_stops_and_counters_at_every_cap_of_a_counted_twelve_level():
    assert sweep_digest(TWELVE_SWEEPS) == TWELVE_SWEEP_DIGEST


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("RAMSEY_P5_SLOW") != "1",
                    reason="seconds of search; set RAMSEY_P5_SLOW=1 to run")
def test_witness_9_search_pinned_at_its_default_budget():
    """The (28, steiner, 9) search behind `witness 9`, at its default
    budget of 5M nodes, recorded while every level of 12 free points was
    still walked candidate by candidate."""
    result = search_design(28, "steiner", 9, SearchBudget(nodes=5_000_000))
    assert (result.outcome, result.design) == ("budget", None)
    assert (result.nodes, result.depth, result.pruned_waste,
            result.rejected_classes) == (5000001, 45, 0, 0)


def level(unc, pts):
    """A level of the points ``pts`` under the uncovered-partner masks
    ``unc``: (unc, its points, their mask, the covered pairs of each
    candidate's block, the least point and a trio of the others, and of
    the points it leaves), candidates in trio order."""
    repeats = [[sum(not unc[a] >> b & 1 for a, b in combinations(blk, 2))
                for blk in ((pts[0], *trio), [x for x in pts[1:] if x not in trio])]
               for trio in combinations(pts[1:], 3)]
    return unc, pts, sum(1 << x for x in pts), repeats


def random_levels(seed, count, vs, densities, size=8):
    """Random uncovered-partner masks on v points and a random level of
    ``size`` points in them."""
    rng = random.Random(seed)
    for _ in range(count):
        v = rng.choice(vs)
        density = rng.choice(densities)
        unc = [0] * v
        for a, b in combinations(range(v), 2):
            if rng.random() < density:
                unc[a] |= 1 << b
                unc[b] |= 1 << a
        yield level(unc, sorted(rng.sample(range(v), size)))


def counter_levels():
    """The levels both counter tests try: a sparse-to-dense set from seed 5
    and a dense set from seed 7, in which fresh blocks are rare."""
    yield from random_levels(5, 100, (8, 12, 20, 24), (0.2, 0.5, 0.8))
    yield from random_levels(7, 400, (8, 12, 20, 28), (0.5, 0.7, 0.85, 0.95))


def test_split_prunes_count_what_the_walk_cuts():
    """The effect of a doomed covering level, (nodes, pruned_waste,
    rejected_classes, most blocks pushed at once), agrees with its 35 splits
    tried one by one: a split whose first block repeats more than the slack
    is one node cut by waste; else two nodes, the second cut when both
    blocks repeat more than the slack, else a rejected class."""
    for unc, pts, rem, repeats in counter_levels():
        for slack in range(20):
            nodes = cut = rejected = pushed = 0
            for w, w_left in repeats:
                nodes += 1
                if w > slack:
                    cut += 1
                    continue
                nodes += 1
                if w + w_left > slack:
                    cut += 1
                    pushed = max(pushed, 1)
                else:
                    rejected += 1
                    pushed = 2
            want = (nodes, cut, rejected, pushed)
            # the loop's memo keys a slack past 12 as 12
            for got in (ramsey_p5.designs._split_prunes(unc, rem, pts, slack),
                        ramsey_p5.designs._split_prunes(unc, rem, pts, min(slack, 12))):
                assert got == want, (pts, slack)


def test_fresh_blocks_count_what_the_walk_counts():
    """The effect of a Steiner or packing level agrees with its 35 splits
    tried one by one: the level is walked (a falsy effect) when some split
    has two fresh blocks; else each fresh first block is one node."""
    seen = set()
    for unc, pts, rem, repeats in counter_levels():
        fresh = sum(w == 0 for w, _ in repeats)
        walk = any(w == w_left == 0 for w, w_left in repeats)
        want = () if walk else (fresh, 0, 0, min(fresh, 1))
        assert ramsey_p5.designs._fresh_blocks(unc, rem) == want, (unc, pts)
        seen.add("walk" if walk else min(fresh, 1))
    assert seen == {"walk", 0, 1}


def walked_effect(unc, pts, repeats, slack, covering):
    """The effect of a level of 12 points from its candidate blocks tried
    one by one: each is a node, cut by waste when it repeats more than the
    slack, else followed by the level of 8 points it leaves, counted by
    _split_prunes or _fresh_blocks; () when one of those must be walked."""
    nodes = cut = rejected = pushed = 0
    for trio, (w, _) in zip(combinations(pts[1:], 3), repeats):
        if not covering and w:
            continue  # a Steiner or packing block repeats no pair
        nodes += 1
        if w > slack:
            cut += 1
            continue
        left = [x for x in pts[1:] if x not in trio]
        rem = sum(1 << x for x in left)
        below = (ramsey_p5.designs._split_prunes(unc, rem, left, slack - w) if covering
                 else ramsey_p5.designs._fresh_blocks(unc, rem))
        if not below:
            return ()
        nodes += below[0]
        cut += below[1]
        rejected += below[2]
        pushed = max(pushed, below[3] + 1)
    return nodes, cut, rejected, pushed


def steiner_twelve_levels():
    """The first Steiner level of 12 free points of each effect that
    (28, steiner, 9) meets in the benchmark's 40,800 nodes: one of 0
    nodes, one of 48 fresh blocks with no fresh second block and one of
    501 nodes. The last two have more fresh blocks than
    TWELVE_LOOP_BLOCKS."""
    designs = ramsey_p5.designs
    effect = designs._twelve_effect
    first = {}

    def recorded(unc, rem, memo):
        first.setdefault(effect(unc, rem, {}), (list(unc), rem))
        return effect(unc, rem, memo)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(designs, "_twelve_effect", recorded)
        search_design(28, "steiner", 9, SearchBudget(nodes=40800))
    assert sorted(first) == [(0, 0, 0, 0), (48, 0, 0, 1), (501, 0, 0, 2)]
    for unc, rem in first.values():
        yield level(unc, [x for x in range(len(unc)) if rem >> x & 1])


def test_twelve_effect_counts_what_the_walk_counts(monkeypatch):
    """_twelve_prunes and _twelve_effect on levels of 12 points agree with
    their candidates tried one by one, at waste slack 0-24 for coverings
    and in Steiner and packing runs: on random levels, and on a level with
    every pair covered, where each split repeats 18 pairs, the most a
    field of _twelve_prunes sums, and one with none covered. _twelve_fresh
    agrees with the walk on those and on the levels (28, steiner, 9) meets
    and random sparse ones, and so does _twelve_effect whether it reaches
    _twelve_fresh after TWELVE_LOOP_BLOCKS fresh blocks or at once, with
    an empty memo and with the one its first call filled."""
    designs = ramsey_p5.designs
    twelve = list(range(12))
    uncovered = [(1 << 12) - 1 ^ 1 << a for a in twelve]
    dense = [*random_levels(11, 20, (12, 20, 24, 28), (0.3, 0.5, 0.7, 0.85), size=12),
             level([0] * 12, twelve), level(uncovered, twelve)]
    sparse = [*steiner_twelve_levels(),
              *random_levels(13, 20, (12, 20, 28), (0.9, 0.93, 0.97), size=12)]
    counted = []
    monkeypatch.setattr(designs, "_twelve_fresh",
                        lambda unc, pts: counted.append(pts) or _twelve_fresh(unc, pts))
    seen = set()
    for unc, pts, rem, repeats in dense:
        for slack in range(25):
            want = walked_effect(unc, pts, repeats, slack, True)
            assert designs._twelve_prunes(unc, pts, slack) == want, (pts, slack)
            seen.add(("covering", want[1] > 0, want[2] > 0))
    for unc, pts, rem, repeats in dense + sparse:
        want = walked_effect(unc, pts, repeats, 0, False)
        assert _twelve_fresh(unc, pts) == want, pts
        for blocks in (TWELVE_LOOP_BLOCKS, 0):
            monkeypatch.setattr(designs, "TWELVE_LOOP_BLOCKS", blocks)
            memo = {}
            for _ in range(2):
                counted.clear()
                assert designs._twelve_effect(unc, rem, memo) == want, (pts, blocks)
                assert counted in ([], [pts]), pts
                seen.add(("table" if counted else "loop", want[3] if want else "walk"))
            assert all(memo[left] == designs._fresh_blocks(unc, left) for left in memo)
    assert seen >= {("covering", True, True), ("covering", False, True),
                    ("covering", True, False), ("loop", "walk"), ("loop", 0),
                    ("loop", 1), ("loop", 2), ("table", "walk"), ("table", 1),
                    ("table", 2)}


def test_twelve_tables_share_one_layout():
    """Bit f of a pair's presence row is set exactly where field f of its
    six-bit row is not 0, for all 66 pairs of 12 points."""
    designs = ramsey_p5.designs
    rows, _, _ = designs._twelve_fields()
    presence = designs._twelve_presence()
    count = 165 + 2 * 5775
    assert [(i, j) for _, i, j in rows] == [(i, j) for _, i, j in presence] == list(
        combinations(range(12), 2))
    for (fields, _, _), (bits, _, _) in zip(rows, presence):
        # one base64 digit per six-bit field, the first digit a spare one
        digits = binascii.b2a_base64(fields.to_bytes(3 * (count + 1) // 4, "big"),
                                     newline=False)
        assert len(digits) == count + 1 and digits[0] == ord("A")
        held = [d != ord("A") for d in reversed(digits[1:])]
        assert bits >> count == 0
        assert held == [b == "1" for b in reversed(f"{bits:0{count}b}")]


def test_twelve_tables_are_not_built_by_set_up_searches():
    """The searches the benchmark runs while it sets up, the `design`
    warm-up (16, steiner, 5) and the `verify` designs (16, packing, 4) and
    (8, covering, 3), build neither table of the 12-point counters."""
    designs = ramsey_p5.designs
    designs._twelve_fields.cache_clear()
    designs._twelve_presence.cache_clear()
    for v, mode, classes in ((16, "steiner", 5), (16, "packing", 4), (8, "covering", 3)):
        assert search_design(v, mode, classes).outcome == "found"
    assert designs._twelve_fields.cache_info().currsize == 0
    assert designs._twelve_presence.cache_info().currsize == 0


def test_search_exhausts_a_covering_that_cannot_exist():
    """A resolvable 4-class covering of K12 would 4-colour K12 with no
    monochromatic 5-vertex path, against R_4(P5) = 11. The search proves
    there is none: it backtracks all the way to the pinned class."""
    assert ramsey_value(4) == 11
    result = search_design(12, "covering", 4)
    assert (result.outcome, result.design) == ("exhausted", None)
    assert (result.nodes, result.pruned_waste, result.rejected_classes,
            result.depth) == (5017522, 4740117, 2592, 9)


def test_search_counters():
    """The covering prunes count what they cut; Steiner and packing runs
    never repeat a pair, so neither prune can fire there."""
    for v, mode, classes in ((16, "steiner", 5), (20, "packing", 5),
                             (12, "packing", 3)):
        result = search_design(v, mode, classes)
        assert (result.pruned_waste, result.rejected_classes) == (0, 0)
    capped = search_design(28, "steiner", 9, SearchBudget(nodes=2000))
    assert (capped.pruned_waste, capped.rejected_classes) == (0, 0)
    result = search_design(8, "covering", 3)
    assert (result.pruned_waste, result.rejected_classes) == (250, 0)
    for (v, classes), counts in {(20, 7): (120, 873, 10),
                                 (24, 8): (1418, 272, 12)}.items():
        result = search_design(v, "covering", classes, SearchBudget(nodes=2000))
        assert (result.pruned_waste, result.rejected_classes, result.depth) == counts, v
        assert result.lines()[3:] == [f"pruned_waste={counts[0]}",
                                      f"rejected_classes={counts[1]}",
                                      f"depth={counts[2]}"]
