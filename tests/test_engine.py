"""Exhaustive search engine: verdicts, pruning soundness, determinism."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ramsey_p5
from oracles import (adj_has_p5, all_pairs, bfs_components, component_sizes,
                     edge_creates_p5, grouping_cap, shape_counts)
from ramsey_p5.colouring import verify_certificate, write_certificate
from ramsey_p5.engine import (CLOCK_POLL_NODES, OUTCOME_BUDGET, OUTCOME_REFUTED,
                              OUTCOME_WITNESS, NodeMeter, ParameterError,
                              SearchBudget, SearchConfig, _Engine,
                              ramsey_verify)
from ramsey_p5.pfree import completion_cap, shape_is_p5_free

# Searches of minutes run only on request.
SLOW = pytest.mark.skipif(os.environ.get("RAMSEY_P5_SLOW") != "1",
                          reason="minutes of search; set RAMSEY_P5_SLOW=1 to run")
UNPRUNED = SearchConfig(colour_symmetry=False, component_bound=False,
                        isomorph=False)
ONE_RULE_OFF = (SearchConfig(colour_symmetry=False), SearchConfig(component_bound=False),
                SearchConfig(isomorph=False))


def test_trivial_orders_are_witnesses():
    for n in range(0, 5):
        verdict = ramsey_verify(n, 1)
        assert verdict.outcome == OUTCOME_WITNESS
        assert verify_certificate(verdict.certificate).ok


def test_refutes_5_1():
    assert ramsey_verify(5, 1).outcome == OUTCOME_REFUTED


def test_refutes_6_2_and_witnesses_5_2():
    assert ramsey_verify(6, 2).outcome == OUTCOME_REFUTED
    verdict = ramsey_verify(5, 2)
    assert verdict.outcome == OUTCOME_WITNESS
    assert verdict.certificate.n == 5


def test_raw_enumeration_oracle_6_2():
    """Every one of the 2^15 labelled 2-colourings of K_6 has a mono path."""
    pairs = all_pairs(6)
    for mask in range(1 << 15):
        adj1 = [0] * 6
        adj2 = [0] * 6
        for k, (i, j) in enumerate(pairs):
            adj = adj1 if mask >> k & 1 else adj2
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        assert adj_has_p5(adj1, 6) or adj_has_p5(adj2, 6)


# Nodes with every rule on, then with each rule of ONE_RULE_OFF turned off
# alone.
ONE_RULE_OFF_NODES = {(6, 2): (1, 2, 95, 1), (7, 2): (1, 2, 95, 1),
                      (8, 3): (241, 241, 241, 499),
                      (9, 3): (3103, 3174, 5182, 212005)}


def test_unpruned_search_agrees_on_small_instances():
    for n, r in ((4, 1), (5, 1), (4, 2), (5, 2), (6, 2), (6, 1)):
        assert ramsey_verify(n, r).outcome == ramsey_verify(n, r, UNPRUNED).outcome
    for (n, r), pinned in ONE_RULE_OFF_NODES.items():
        base = ramsey_verify(n, r)
        nodes = [base.stats.nodes]
        for cfg in ONE_RULE_OFF:
            verdict = ramsey_verify(n, r, cfg)
            assert verdict.outcome == base.outcome, (n, r, cfg)
            nodes.append(verdict.stats.nodes)
        assert tuple(nodes) == pinned, (n, r)


def test_node_counts_pinned():
    """The search tree is part of the contract: a pruning change shows here
    before it shows in a benchmark."""
    verdict = ramsey_verify(8, 3)
    assert (verdict.outcome, verdict.stats.nodes, verdict.stats.max_depth) == (
        OUTCOME_WITNESS, 241, 27)
    digest = hashlib.sha256(write_certificate(verdict.certificate)).hexdigest()
    assert digest == "6a2f8a6a3ac88288b4e0816f9ffe2f161d50f363a92c81f1b75e50249907e153"
    verdict = ramsey_verify(9, 3)
    assert (verdict.outcome, verdict.stats.nodes, verdict.stats.max_depth) == (
        OUTCOME_REFUTED, 3103, 28)
    assert verdict.stats.memo == 57
    assert verdict.stats.path_memo == 644
    # The capped runs pin the whole tree: nodes, depth, the three prune
    # counts and the memo; and the path prunes the path memo decided.
    for n, pruned, memo, path_memo in ((11, (21390, 1099, 0), 11, 13252),
                                       (12, (20608, 1839, 40), 14, 11602)):
        verdict = ramsey_verify(n, 4, budget=SearchBudget(nodes=30000))
        stats = verdict.stats
        assert (verdict.outcome, stats.nodes, stats.max_depth, stats.memo) == (
            OUTCOME_BUDGET, 30001, 37, memo), n
        assert (stats.pruned_path, stats.pruned_capacity,
                stats.pruned_isomorph) == pruned, n
        assert stats.path_memo == path_memo, n


def watched_run(eng, watch, budget=None):
    """Run the search on ``eng`` with a boundary after every edge, so that
    ``_seen`` sees every child that passes the path and capacity tests, with
    edge d written in colour ``eng.cols[d]``. At the search's own boundaries
    the isomorph test still decides, so the tree is the search's own; every
    other child is descended into. ``watch(eng, d, descend)`` sees each such
    child. Returns the verdict and the number of visits to the search's own
    boundaries."""
    own, test = eng.boundaries, eng._seen
    eng.boundaries = {d + 1: (d, own.get(d + 1)) for d in range(eng.m)}
    visits = 0

    def seen(mark):
        nonlocal visits
        d, v = mark
        cut = False
        if v is not None:
            visits += 1
            cut = test(v)
        watch(eng, d, not cut)
        return cut

    eng._seen = seen
    return eng.run(budget), visits


def test_prune_counters_account_for_every_node():
    """Each node is cut off by exactly one rule or descended into, except the
    last node of a budget-exhausted run, which no rule decides; and each node
    at an isomorph boundary is cut off or recorded in the memo."""
    for n, r, budget, outcome, nodes, undecided in (
            (9, 3, None, OUTCOME_REFUTED, 3103, 0),
            (12, 4, SearchBudget(nodes=30000), OUTCOME_BUDGET, 30001, 1)):
        descents = 0

        def watch(eng, d, descend):
            nonlocal descents
            descents += descend

        verdict, visits = watched_run(_Engine(n, r, SearchConfig()), watch, budget)
        stats = verdict.stats
        assert (verdict.outcome, stats.nodes) == (outcome, nodes)
        pruned = (stats.pruned_path, stats.pruned_capacity, stats.pruned_isomorph)
        assert all(pruned)
        assert sum(pruned) + descents + undecided == stats.nodes
        assert stats.memo + stats.pruned_isomorph == visits
    off = ramsey_verify(8, 3, SearchConfig(component_bound=False,
                                           isomorph=False)).stats
    assert (off.pruned_capacity, off.pruned_isomorph, off.memo) == (0, 0, 0)


def test_refutes_9_3():
    verdict = ramsey_verify(9, 3, budget=SearchBudget(nodes=10 ** 9))
    assert verdict.outcome == OUTCOME_REFUTED


def test_witness_8_3():
    verdict = ramsey_verify(8, 3)
    assert verdict.outcome == OUTCOME_WITNESS
    assert verify_certificate(verdict.certificate).ok


def test_refutation_monotone_in_order():
    assert ramsey_verify(6, 2).outcome == OUTCOME_REFUTED
    assert ramsey_verify(7, 2).outcome == OUTCOME_REFUTED


def test_budget_exhaustion_outcome():
    verdict = ramsey_verify(9, 3, budget=SearchBudget(nodes=10))
    assert verdict.outcome == OUTCOME_BUDGET
    assert verdict.certificate is None
    assert verdict.stats.nodes == 11  # stops right past the limit


def test_determinism_in_node_limit_mode():
    budget = SearchBudget(nodes=10 ** 8)
    a = ramsey_verify(9, 3, budget=budget)
    b = ramsey_verify(9, 3, budget=budget)
    assert (a.stats.nodes, a.stats.max_depth) == (b.stats.nodes, b.stats.max_depth)
    wa = ramsey_verify(8, 3, budget=budget)
    wb = ramsey_verify(8, 3, budget=budget)
    assert wa.certificate == wb.certificate


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ramsey_verify(13, 2)
    with pytest.raises(ParameterError):
        ramsey_verify(9, 5)
    with pytest.raises(ParameterError):
        ramsey_verify(-1, 2)
    with pytest.raises(ValueError):
        SearchBudget(nodes=0)
    # A NaN deadline compares false both ways and an infinite one never
    # passes, so either would run an unbounded search labelled time-limit.
    for seconds in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SearchBudget(seconds=seconds)


def test_stats_mode_label():
    verdict = ramsey_verify(5, 2, budget=SearchBudget(nodes=1000))
    assert verdict.stats.mode == "node-limit"
    verdict = ramsey_verify(5, 2)
    assert verdict.stats.mode == "unbounded"


@pytest.mark.parametrize("budget,nodes", [
    (SearchBudget(nodes=1023), 1024), (SearchBudget(nodes=1024), 1025),
    (SearchBudget(nodes=1025), 1026), (SearchBudget(nodes=5000, seconds=60), 5001)],
    ids=["cap-1023", "cap-1024", "cap-1025", "cap-5000-and-60s"])
def test_node_limit_stops_right_past_the_cap(budget, nodes):
    """The node cap is checked at the count the meter names, whether or not
    it falls on a clock poll, and before the clock."""
    verdict = ramsey_verify(11, 4, budget=budget)
    assert (verdict.outcome, verdict.stats.nodes, verdict.stats.mode) == (
        OUTCOME_BUDGET, nodes, "node-limit")


def test_unbounded_meter_names_a_stop_no_search_reaches(monkeypatch):
    """With neither a cap nor a deadline the meter never stops a search:
    each check names a count past any a search reaches (over 30 years at
    10^9 nodes a second), and it does not read the clock."""
    meter = NodeMeter(None)
    monkeypatch.setattr(ramsey_p5.engine.time, "perf_counter", None)
    for nodes in (0, 1, CLOCK_POLL_NODES - 1, CLOCK_POLL_NODES, 10 ** 12):
        assert meter.check(nodes) > 10 ** 18, nodes


def test_time_limit_stops_on_a_clock_poll():
    verdict = ramsey_verify(11, 4, budget=SearchBudget(seconds=0.05))
    assert (verdict.outcome, verdict.stats.mode) == (OUTCOME_BUDGET, "time-limit")
    assert verdict.certificate is None
    assert verdict.stats.nodes > 0 and verdict.stats.nodes % CLOCK_POLL_NODES == 0


def test_witness_certificates_reverify():
    for n, r in ((4, 1), (5, 2), (7, 3), (8, 3)):
        verdict = ramsey_verify(n, r)
        assert verdict.outcome == OUTCOME_WITNESS
        assert verify_certificate(verdict.certificate).ok
        assert verdict.certificate.n == n and verdict.certificate.r == r


@pytest.mark.slow
def test_witness_10_4():
    verdict = ramsey_verify(10, 4, budget=SearchBudget(nodes=20_000_000))
    stats = verdict.stats
    assert (verdict.outcome, stats.nodes, stats.max_depth) == (
        OUTCOME_WITNESS, 1536444, 44)
    assert (stats.pruned_path, stats.pruned_capacity, stats.pruned_isomorph) == (
        1152075, 16, 224)
    digest = hashlib.sha256(write_certificate(verdict.certificate)).hexdigest()
    assert digest == "17f86164fa2b5dddf452851ed921a847216a55bdf2e00d23a557127760a61a68"
    assert verify_certificate(verdict.certificate).ok


@pytest.mark.slow
@SLOW
def test_refutation_11_4():
    """Every 4-colouring of K_11 has a monochromatic 5-vertex path: with the
    K_10 witness this gives R_4(P5) = 11 by search alone."""
    verdict = ramsey_verify(11, 4)
    stats = verdict.stats
    assert (verdict.outcome, stats.nodes, stats.max_depth) == (
        OUTCOME_REFUTED, 118539580, 52)
    assert (stats.pruned_path, stats.pruned_capacity, stats.pruned_isomorph,
            stats.memo) == (87336970, 1527524, 40178, 5987)


@pytest.mark.slow
@SLOW
def test_refutation_11_4_without_component_bound():
    """The full (11,4) search with the capacity rule off refutes too: the
    differential check of that rule at the order it matters for."""
    verdict = ramsey_verify(11, 4, SearchConfig(component_bound=False))
    stats = verdict.stats
    assert (verdict.outcome, stats.nodes, stats.max_depth) == (
        OUTCOME_REFUTED, 131925460, 52)
    assert (stats.pruned_path, stats.pruned_capacity, stats.pruned_isomorph,
            stats.memo) == (98902649, 0, 41433, 6188)


def test_witness_recheck_survives_python_O():
    """Under python -O a witness that fails its re-check still raises."""
    script = (
        "import sys\n"
        "from types import SimpleNamespace\n"
        "from ramsey_p5 import engine\n"
        "engine.verify_certificate = lambda cert: SimpleNamespace(ok=False)\n"
        "try:\n"
        "    engine.ramsey_verify(5, 2)\n"
        "except AssertionError:\n"
        "    sys.exit(0 if sys.flags.optimize else 2)\n"
        "sys.exit(1)\n")
    src = str(Path(ramsey_p5.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_connected_edge_cap_small_orders():
    """The per-component edge cap used by the capacity prune matches raw
    enumeration: connected path-free graphs have at most s edges (s >= 5),
    and complete graphs below that."""
    from oracles import mask_is_connected, p5_free_masks

    for s in range(1, 8):
        pairs = all_pairs(s)
        best = 0
        for mask in p5_free_masks(s):
            if mask.bit_count() > best and mask_is_connected(mask, pairs, s):
                best = mask.bit_count()
        assert best == completion_cap((s,))


def test_connected_edge_cap_at_search_order():
    """Raw validation at s = 9, the largest component the 3-colour
    refutation can meet: a connected path-free graph on 9 vertices has at
    most 9 edges.

    A connected graph with 10 or more edges has a connected spanning
    subgraph with exactly 10 edges, a spanning tree plus two edges, and
    path-freeness passes to subgraphs. A path-free tree has diameter at most
    3, so up to relabelling it is the star or a double star with 1+6, 2+5
    or 3+4 leaves. None of these stays path-free with any two extra edges."""
    s = 9

    def graph(edges):
        adj = [0] * s
        for u, w in edges:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        return adj

    # Centres 0 and 1: vertices 2..a+1 hang on 0, the rest on 1 (a = 7 is
    # the star).
    for a in (7, 6, 5, 4):
        tree = [(0, 1)] + [(0 if v <= a + 1 else 1, v) for v in range(2, s)]
        adj = graph(tree)
        assert not adj_has_p5(adj, s)
        extra = [(u, w) for u, w in all_pairs(s) if not adj[u] >> w & 1]
        for i, (u, w) in enumerate(extra):
            adj[u] |= 1 << w
            adj[w] |= 1 << u
            if not edge_creates_p5(adj, u, w):
                for x, y in extra[i + 1:]:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
                    assert edge_creates_p5(adj, x, y), (a, (u, w), (x, y))
                    adj[x] &= ~(1 << y)
                    adj[y] &= ~(1 << x)
            adj[u] &= ~(1 << w)
            adj[w] &= ~(1 << u)
    # The star plus one edge between two leaves reaches 9 edges.
    adj = graph([(0, v) for v in range(1, s)] + [(1, 2)])
    assert not adj_has_p5(adj, s) and len(bfs_components(adj, s)) == 1
    assert completion_cap((s,)) == 9


def test_empty_class_capacity_is_turan_number():
    """ex(n, P5), the capacity of n isolated vertices and the edge count of
    aK4 + K_b agree for n = 0..40, and every class of a fresh search starts
    at that capacity: the Turan number that Lemma 1 counts with."""
    from ramsey_p5.graphs import ex_p5, extremal_p5

    for n in range(41):
        assert ex_p5(n) == completion_cap((1,) * n) == extremal_p5(n).edge_count()
    for n in range(13):
        eng = _Engine(n, 3, SearchConfig())
        assert eng.caps == [ex_p5(n)] * 4 and eng.total_cap == 3 * ex_p5(n)


def test_completion_cap_is_sound_upper_bound():
    """The closed-form capacity never undercounts the best path-free
    supergraph, which is what refutation soundness rests on."""
    from oracles import adj_of_mask

    rng = random.Random(420)
    n = 6
    pairs = all_pairs(n)
    full = (1 << len(pairs)) - 1
    for _ in range(40):
        base = 0
        adj = [0] * n
        # grow a random path-free base graph
        for k in rng.sample(range(len(pairs)), len(pairs)):
            i, j = pairs[k]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            if not adj_has_p5(adj, n) and rng.random() < 0.5:
                base |= 1 << k
            else:
                adj[i] &= ~(1 << j)
                adj[j] &= ~(1 << i)
        cap = completion_cap(component_sizes(adj, n))
        # brute-force best completion over all supergraphs
        free = [k for k in range(len(pairs)) if not base >> k & 1]
        best = 0
        for extra in range(1 << len(free)):
            mask = base
            for t, k in enumerate(free):
                if extra >> t & 1:
                    mask |= 1 << k
            if mask.bit_count() > best and not adj_has_p5(adj_of_mask(mask, pairs, n), n):
                best = mask.bit_count()
        assert best <= cap


def edge_count(adj, comp):
    return sum(adj[v].bit_count() for v in range(len(adj)) if comp >> v & 1) // 2


def inner_mask(adj):
    return sum(1 << v for v in range(len(adj)) if adj[v].bit_count() > 1)


def assert_class_records(eng, c):
    """The component masks, edge counts, capacity key and capacity of class c
    and its mask of vertices of degree at least 2 match a recount of its
    edges by breadth-first search."""
    adj, comp = eng.adj[c], eng.comp[c]
    for mask in bfs_components(adj, eng.n):
        for v in range(eng.n):
            if mask >> v & 1:
                assert comp[v] == mask
        assert eng.edge_counts[c][mask] == edge_count(adj, mask)
    assert eng.inner[c] == inner_mask(adj)
    orders = component_sizes(adj, eng.n)
    assert eng.orders[c] == sum(16 ** k for k in orders)
    assert eng.caps[c] == grouping_cap(orders)


def free_shape(adj, comp):
    """Name of a connected path-free component on 5 or more vertices."""
    degrees = [adj[v].bit_count() for v in range(len(adj)) if comp >> v & 1]
    if sum(degrees) == 2 * len(degrees):
        return "triangle with pendants"
    return "star" if sorted(degrees)[-2] == 1 else "double star"


# Starting classes on vertices 0..4, one of each shape the catalogue allows
# past four vertices.
START_SHAPES = ([], [(0, 1), (0, 2), (0, 3), (0, 4)], [(0, 1), (0, 2), (1, 3), (1, 4)],
                [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])


@pytest.mark.parametrize("n", range(5, 13))
def test_catalogue_edge_test_matches_path_oracle(n):
    """Path-free classes grown at random from each start shape by the
    engine's own child step: the step takes every absent edge exactly when
    the degree test and the path-enumeration oracle find the grown component
    path-free, and the records, capacity key and capacity match a
    breadth-first recount after each edge, each merge and each undo."""
    rng = random.Random(n)
    pairs = all_pairs(n)
    seen = set()
    for start in START_SHAPES * 3:
        eng = _Engine(n, 1, SearchConfig(component_bound=False, isomorph=False))
        # A boundary after every edge: the step hands each child it takes to
        # ``_seen``, which runs the test's own child in place of the search
        # below and cuts the child off.
        eng.boundaries = {d + 1: d for d in range(eng.m)}
        depth = {edge: d for d, edge in enumerate(eng.edges)}
        adj = eng.adj[1]
        start_cap = eng.total_cap

        def step(u, w, child):
            """Run the search step at edge uw with ``child`` in place of the
            descent; whether the step took the edge."""
            entered = []

            def descend(d):
                assert d == depth[u, w]
                assert adj[u] >> w & adj[w] >> u & 1
                assert_class_records(eng, 1)
                entered.append(d)
                child()
                return True

            eng._seen = descend
            assert not eng._search(depth[u, w], 1, NodeMeter(None))
            assert not adj[u] >> w & 1
            assert_class_records(eng, 1)
            return bool(entered)

        def grow():
            """Test every absent edge on the class as it stands, then add the
            next start edge or a random accepted one and grow on."""
            assert not adj_has_p5(adj, n)
            comp = eng.comp[1]
            free = []
            for u, w in pairs:
                if adj[u] >> w & 1:
                    continue
                joined = comp[u] | comp[w]
                pruned = eng.pruned_path
                ok = step(u, w, lambda: None)
                assert eng.pruned_path - pruned == (not ok)
                adj[u] |= 1 << w
                adj[w] |= 1 << u
                assert ok == shape_is_p5_free(*shape_counts(adj, joined)), (adj, u, w)
                assert ok == (not edge_creates_p5(adj, u, w)), (adj, u, w)
                if joined.bit_count() > 4:
                    seen.add((comp[u] == comp[w], ok and free_shape(adj, joined)))
                adj[u] &= ~(1 << w)
                adj[w] &= ~(1 << u)
                if ok:
                    free.append((u, w))
            placed = sum(a.bit_count() for a in adj) // 2
            if placed < len(start):
                assert step(*start[placed], grow)
            elif free:
                assert step(*rng.choice(free), grow)

        grow()
        assert not any(adj) and eng.total_cap == start_cap
    # Past four vertices: an edge inside a star closes a triangle with
    # pendants, one inside the other shapes closes a path, and a sixth
    # vertex joins each shape at its centre or not at all.
    want = {(True, "triangle with pendants"), (True, False)}
    if n > 5:
        want |= {(False, False), (False, "star"), (False, "double star"),
                 (False, "triangle with pendants")}
    assert seen >= want


def test_search_decisions_match_path_oracle():
    """During real searches the path test agrees with the path oracle colour
    by colour. Every child written has exact records and only path-free
    classes, so no edge is taken that makes a 5-vertex path; and in every
    frame each colour tried and not written is one whose class the frame's
    edge would give a 5-vertex path, or else one that the capacity rule cuts
    off by a recount, so none is cut off wrongly. Over the finished frames
    the oracle's cuts add up to the run's prune counts. Every run has path
    prunes that a remembered verdict decided, so the oracle checks those
    too."""
    checked = 0

    def rules(eng, d):
        """The rule that cuts off each colour of edge d on the classes as
        they stand: "path" if the class would gain a 5-vertex path, else
        "capacity" if the edge joins two components and the recounted
        capacities fall short of the edge count, else None."""
        u, w = eng.edges[d]
        n, r = eng.n, eng.r
        caps = [grouping_cap(component_sizes(eng.adj[c], n))
                for c in range(1, r + 1)]
        out = []
        for c in range(1, r + 1):
            adj = eng.adj[c][:]
            merged = not any(comp >> u & comp >> w & 1
                             for comp in bfs_components(adj, n))
            adj[u] |= 1 << w
            adj[w] |= 1 << u
            grown = sum(caps) - caps[c - 1] + grouping_cap(component_sizes(adj, n))
            if adj_has_p5(adj, n):
                out.append("path")
            elif eng.cfg.component_bound and merged and grown < eng.m:
                out.append("capacity")
            else:
                out.append(None)
        return out

    def check_search(n, r, cfg, budget, outcome, nodes):
        nonlocal checked
        frames = []  # the open frames, innermost last
        cuts = {"path": 0, "capacity": 0}

        def open_frame(eng, d):
            used = max(eng.cols[:d], default=0)
            limit = min(used + 1, r) if cfg.colour_symmetry else r
            frames.append(SimpleNamespace(d=d, limit=limit, rules=rules(eng, d),
                                          next=1))

        def cut_before(frame, c):
            """The frame tried colours frame.next..c-1 and wrote none."""
            for x in range(frame.next, c):
                rule = frame.rules[x - 1]
                assert rule is not None, (frame.d, x)
                cuts[rule] += 1
            frame.next = c + 1

        def close(frame):
            nonlocal checked
            cut_before(frame, frame.limit + 1)
            checked += 1

        def watch(eng, d, descend):
            while frames[-1].d > d:
                close(frames.pop())
            frame = frames[-1]
            assert frame.d == d
            c = eng.cols[d]
            assert frame.rules[c - 1] is None, (d, c)
            cut_before(frame, c)
            for k in range(1, r + 1):
                assert not adj_has_p5(eng.adj[k], n)
                assert_class_records(eng, k)
            assert eng.total_cap == sum(eng.caps[1:])
            if descend and d + 1 < eng.m:
                open_frame(eng, d + 1)

        eng = _Engine(n, r, cfg)
        open_frame(eng, 0)
        verdict, _ = watched_run(eng, watch, budget)
        stats = verdict.stats
        assert (verdict.outcome, stats.nodes) == (outcome, nodes)
        assert stats.path_memo > 0
        if outcome == OUTCOME_REFUTED:
            while frames:
                close(frames.pop())
        # A witness ends every open frame at the colour it descended into;
        # the frames a budget cuts short tried colours no child showed.
        found = (cuts["path"], cuts["capacity"])
        pruned = (stats.pruned_path, stats.pruned_capacity)
        if outcome == OUTCOME_BUDGET:
            assert found <= pruned and found[1] <= pruned[1]
        else:
            assert found == pruned

    check_search(8, 3, SearchConfig(), None, OUTCOME_WITNESS, 241)
    check_search(9, 3, SearchConfig(), None, OUTCOME_REFUTED, 3103)
    # With the capacity rule off, (9,3) also meets a hub that is a common
    # neighbour of the edge's ends.
    check_search(9, 3, SearchConfig(component_bound=False), None,
                 OUTCOME_REFUTED, 5182)
    check_search(10, 4, SearchConfig(), SearchBudget(nodes=3000), OUTCOME_BUDGET, 3001)
    assert checked > 3500


def test_search_entered_below_the_root_takes_the_same_children():
    """``_search`` entered below the root, on classes that an earlier call
    wrote, writes the same children as the whole search writes below the
    same node. Its path memo records no verdict on a class it has not
    grown, since it owns no node to pin one to, yet it still answers path
    prunes from verdicts on classes it grows."""
    eng = _Engine(9, 3, SearchConfig())
    first = 15  # the first edge past K6, the last isomorph boundary of (9,3)
    assert max(eng.boundaries) <= first
    own, test = eng.boundaries, eng._seen
    eng.boundaries = {**own, **{d + 1: ("written", d) for d in range(first, eng.m)}}
    outer, inner = [], []
    entered = False
    entries = 0
    totals = None

    def seen(mark):
        """The isomorph test at the search's own boundaries; past edge
        ``first``, note the child and descend. At each child written at edge
        ``first``, search the subtree below it by a second call first."""
        nonlocal entered, entries, totals
        if not isinstance(mark, tuple):
            return test(mark)
        d = mark[1]
        if entered or d > first:
            (inner if entered else outer).append((d, eng.cols[d]))
            return False
        entered = True
        found = eng._search(first + 1, max(eng.cols[:first + 1]), NodeMeter(None))
        entered = False
        assert not found
        entries += 1
        # The inner calls add to the engine's counters, which the outer call
        # writes back only when it ends.
        totals = (eng.nodes, eng.pruned_path, eng.path_tested, eng.pruned_capacity)
        return False

    eng._seen = seen
    verdict = eng.run(None)
    assert (verdict.outcome, verdict.stats.nodes) == (OUTCOME_REFUTED, 3103)
    assert entries > 10 and len(inner) > 100
    assert inner == outer
    nodes, pruned_path, path_tested, pruned_capacity = totals
    assert nodes == len(inner) + pruned_path + pruned_capacity
    assert pruned_path > path_tested > 0
