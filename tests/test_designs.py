"""Block designs: verification, leave graphs, colourings, search, file format."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_p5
from ramsey_p5.colouring import find_mono_p5, max_mono_component_order
from ramsey_p5.designs import (Design, DesignParseError, InfeasibleParameters,
                               LiftPathError, MissingResolution, NotAPacking,
                               SearchBudget, UncolouredPair,
                               design_to_colouring, g_of_r, leave_graph,
                               pair_coverage, read_design, search_design,
                               verify_design, verify_resolution, witness_parameters,
                               write_design)
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


def test_design_validation():
    with pytest.raises(ValueError):
        Design(4, ((0, 1, 2, 2),))
    with pytest.raises(ValueError):
        Design(4, ((0, 1, 2, 4),))
    with pytest.raises(ValueError):
        Design(4, ((3, 2, 1, 0),))
    with pytest.raises(ValueError):
        Design(8, ((0, 1, 2, 3), (4, 5, 6, 7)), ((0,), (0, 1)))


def test_single_block_is_steiner():
    d = Design(4, ((0, 1, 2, 3),), ((0,),))
    assert verify_design(d, "steiner").ok
    assert verify_design(d, "covering").ok
    assert verify_design(d, "packing").ok
    assert verify_resolution(d).ok
    assert leave_graph(d).edge_count() == 0


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
    assert cov.total() == len(d.blocks) * 6 == 120
    assert all(c == 1 for c in cov.counts.values())


def test_b4_16_shape():
    d = the_b4_16()
    assert len(d.blocks) == 20
    assert d.class_count == 5  # (16 - 1) / 3
    assert verify_design(d, "steiner").ok
    assert verify_resolution(d).ok
    assert leave_graph(d).edge_count() == 0
    # exact cover passes the weaker modes too
    assert verify_design(d, "covering").ok
    assert verify_design(d, "packing").ok


def test_resolution_failure_names_the_point():
    d = Design(8, ((0, 1, 2, 3), (3, 4, 5, 6)), ((0, 1),))
    verdict = verify_resolution(d)
    assert not verdict.ok
    assert (1, 3, "repeated") in verdict.violations
    assert (1, 7, "missing") in verdict.violations


def test_missing_resolution():
    d = Design(4, ((0, 1, 2, 3),))
    with pytest.raises(MissingResolution):
        verify_resolution(d)
    with pytest.raises(MissingResolution):
        design_to_colouring(d)


def test_leave_graph_counts():
    one_block = Design(8, ((0, 1, 2, 3),))
    assert leave_graph(one_block).edge_count() == 28 - 6
    with pytest.raises(NotAPacking):
        leave_graph(the_v8_covering())


def test_leave_of_truncated_b4_16_is_four_cliques():
    d = the_b4_16()
    kept = d.resolution[:4]
    blocks = tuple(d.blocks[i] for cls in kept for i in cls)
    packing = Design(16, blocks, tuple(
        tuple(range(4 * c, 4 * c + 4)) for c in range(4)))
    assert verify_design(packing, "packing").ok
    leave = leave_graph(packing)
    assert leave.edge_count() == 24
    comps = [c.bit_count() for c in connected_components(leave)]
    assert sorted(comps) == [4, 4, 4, 4]


def test_g_of_r_values():
    assert g_of_r(5) == 16
    assert g_of_r(3) == 8
    assert g_of_r(8) == 24
    assert g_of_r(7) == 20
    with pytest.raises(LiftPathError):
        g_of_r(6)
    with pytest.raises(ValueError):
        g_of_r(4)
    with pytest.raises(ValueError):
        g_of_r(0)


def test_witness_parameters_class_counts():
    for r in (3, 5, 7, 8, 9, 11, 12, 13):
        v, mode, classes = witness_parameters(r)
        assert classes == r
        if v % 12 == 4:
            assert mode == "steiner" and (v - 1) // 3 == r
        elif v % 12 == 0:
            assert mode == "covering" and v // 3 == r
        else:
            assert mode == "covering" and (v + 1) // 3 == r


def test_design_to_colouring_b4_16():
    c = design_to_colouring(the_b4_16())
    assert c.n == 16 and c.r == 5
    assert find_mono_p5(c) is None
    assert max_mono_component_order(c) <= 4
    for colour in range(1, 6):
        g = c.colour_class(colour)
        comps = [m for m in connected_components(g) if m.bit_count() > 1]
        assert [m.bit_count() for m in comps] == [4, 4, 4, 4]
        # exact-cover classes split into true cliques
        for m in comps:
            pts = [p for p in range(16) if m >> p & 1]
            assert all(g.has_edge(a, b) for a in pts for b in pts if a < b)


def test_design_to_colouring_v8_covering():
    c = design_to_colouring(the_v8_covering())
    assert c.n == 8 and c.r == 3
    assert find_mono_p5(c) is None
    assert max_mono_component_order(c) <= 4


def test_design_to_colouring_leave_route():
    d = the_b4_16()
    kept = d.resolution[:4]
    blocks = tuple(d.blocks[i] for cls in kept for i in cls)
    packing = Design(16, blocks, tuple(
        tuple(range(4 * c, 4 * c + 4)) for c in range(4)))
    with pytest.raises(UncolouredPair):
        design_to_colouring(packing)
    with pytest.raises(ValueError):
        design_to_colouring(packing, leave_colour=3)
    c = design_to_colouring(packing, leave_colour=5)
    assert c.r == 5
    assert find_mono_p5(c) is None
    assert max_mono_component_order(c) <= 4
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
    for cno, cls in enumerate(d.resolution, start=1):
        for idx in cls:
            blk = d.blocks[idx]
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


def test_search_time_limit_stops_on_a_clock_poll():
    result = search_design(28, "steiner", 9, SearchBudget(seconds=0.05))
    assert (result.outcome, result.design) == ("budget", None)
    assert result.nodes > 0 and result.nodes % CLOCK_POLL_NODES == 0


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
    assert leave_graph(d).edge_count() == 120 - 48


def test_search_results_always_verify():
    for v, mode, classes in ((4, "steiner", 1), (8, "covering", 3),
                             (16, "steiner", 5), (8, "packing", 1)):
        result = search_design(v, mode, classes)
        assert result.outcome == "found"
        assert verify_design(result.design, mode).ok
        assert verify_resolution(result.design).ok
        assert len(result.design.blocks) == classes * v // 4


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


def test_design_file_unresolved_section():
    d = Design(8, ((0, 1, 2, 3), (2, 4, 5, 6)))
    data = write_design(d, "packing")
    assert b"P 0" in data
    d2, mode = read_design(data)
    assert d2 == d and mode == "packing"
    assert d2.resolution is None


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

    # v and k are plain decimals, as block points are
    for head in ("v=1_6 k=4", "v=+8 k=4", "v=016 k=4", "v=8 k=04"):
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
CAPPED_PINS = ((20, "covering", 7), (24, "covering", 8), (28, "steiner", 9))


def test_search_tree_pinned():
    for (v, mode, classes), (nodes, digest) in FOUND_PINS.items():
        result = search_design(v, mode, classes)
        assert (result.outcome, result.nodes) == ("found", nodes), (v, mode, classes)
        got = hashlib.sha256(write_design(result.design, mode)).hexdigest()
        assert got == digest, (v, mode, classes)
    for v, mode, classes in EXHAUSTED_PINS:
        result = search_design(v, mode, classes)
        assert (result.outcome, result.nodes, result.design) == ("exhausted", 0, None)
    for v, mode, classes in CAPPED_PINS:
        for cap in (2000, 6000):
            result = search_design(v, mode, classes, SearchBudget(nodes=cap))
            assert (result.outcome, result.nodes, result.design) == (
                "budget", cap + 1, None), (v, mode, classes, cap)


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
    for (v, classes), counts in {(20, 7): (120, 873), (24, 8): (1418, 272)}.items():
        result = search_design(v, "covering", classes, SearchBudget(nodes=2000))
        assert (result.pruned_waste, result.rejected_classes) == counts, v
        assert result.lines()[3:] == [f"pruned_waste={counts[0]}",
                                      f"rejected_classes={counts[1]}"]
