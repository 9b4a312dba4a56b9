"""Exhaustive search engine: verdicts, pruning soundness, determinism."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_p5
from oracles import (adj_has_p5, all_pairs, bfs_components, component_sizes,
                     edge_creates_p5)
from ramsey_p5.colouring import verify_certificate, write_certificate
from ramsey_p5.engine import (OUTCOME_BUDGET, OUTCOME_REFUTED, OUTCOME_WITNESS,
                              ParameterError, SearchConfig, _completion_cap,
                              _Engine, ramsey_verify)
from ramsey_p5.pfree import component_is_p5_free

UNPRUNED = SearchConfig(turan_bound=False, colour_symmetry=False,
                        component_bound=False, isomorph_depth=0)
ONE_RULE_OFF = (SearchConfig(turan_bound=False), SearchConfig(colour_symmetry=False),
                SearchConfig(component_bound=False), SearchConfig(isomorph_depth=0))


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


# Nodes with each rule of ONE_RULE_OFF turned off alone.
ONE_RULE_OFF_NODES = {(6, 2): (1, 2, 95, 1), (7, 2): (1, 2, 95, 1),
                      (8, 3): (241, 241, 241, 499),
                      (9, 3): (3103, 3174, 5182, 212005)}


def test_unpruned_search_agrees_on_small_instances():
    for n, r in ((4, 1), (5, 1), (4, 2), (5, 2), (6, 2), (6, 1)):
        assert ramsey_verify(n, r).outcome == ramsey_verify(n, r, UNPRUNED).outcome
    # A class at ex(n) edges fails the path test on its next edge anyway, so
    # the Turán rule only skips work and never changes the node count.
    for (n, r), pinned in ONE_RULE_OFF_NODES.items():
        outcome = ramsey_verify(n, r).outcome
        nodes = []
        for cfg in ONE_RULE_OFF:
            verdict = ramsey_verify(n, r, cfg)
            assert verdict.outcome == outcome, (n, r, cfg)
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
    for n in (11, 12):
        verdict = ramsey_verify(n, 4, SearchConfig(node_limit=30000))
        assert (verdict.outcome, verdict.stats.nodes, verdict.stats.max_depth) == (
            OUTCOME_BUDGET, 30001, 37), n


def test_prune_counters_account_for_every_node(monkeypatch):
    """Each node is cut off by exactly one rule or descended into."""
    calls = 0
    dfs = _Engine._dfs

    def counted(self, d, used):
        nonlocal calls
        calls += 1
        return dfs(self, d, used)

    monkeypatch.setattr(_Engine, "_dfs", counted)
    stats = ramsey_verify(9, 3).stats
    pruned = (stats.pruned_turan, stats.pruned_path, stats.pruned_capacity,
              stats.pruned_isomorph)
    assert all(pruned)
    assert sum(pruned) + calls - 1 == stats.nodes  # the root call is no descent
    off = ramsey_verify(8, 3, SearchConfig(turan_bound=False, component_bound=False,
                                           isomorph_depth=0)).stats
    assert (off.pruned_turan, off.pruned_capacity, off.pruned_isomorph) == (0, 0, 0)


def test_refutes_9_3():
    verdict = ramsey_verify(9, 3, SearchConfig(node_limit=10 ** 9))
    assert verdict.outcome == OUTCOME_REFUTED


def test_witness_8_3():
    verdict = ramsey_verify(8, 3)
    assert verdict.outcome == OUTCOME_WITNESS
    assert verify_certificate(verdict.certificate).ok


def test_refutation_monotone_in_order():
    assert ramsey_verify(6, 2).outcome == OUTCOME_REFUTED
    assert ramsey_verify(7, 2).outcome == OUTCOME_REFUTED


def test_budget_exhaustion_outcome():
    verdict = ramsey_verify(9, 3, SearchConfig(node_limit=10))
    assert verdict.outcome == OUTCOME_BUDGET
    assert verdict.certificate is None
    assert verdict.stats.nodes == 11  # stops right past the limit


def test_determinism_in_node_limit_mode():
    cfg = SearchConfig(node_limit=10 ** 8)
    a = ramsey_verify(9, 3, cfg)
    b = ramsey_verify(9, 3, cfg)
    assert (a.stats.nodes, a.stats.max_depth) == (b.stats.nodes, b.stats.max_depth)
    wa = ramsey_verify(8, 3, cfg)
    wb = ramsey_verify(8, 3, cfg)
    assert wa.certificate == wb.certificate


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ramsey_verify(13, 2)
    with pytest.raises(ParameterError):
        ramsey_verify(9, 5)
    with pytest.raises(ParameterError):
        ramsey_verify(-1, 2)
    with pytest.raises(ValueError):
        SearchConfig(node_limit=0)


def test_stats_mode_label():
    verdict = ramsey_verify(5, 2, SearchConfig(node_limit=1000))
    assert verdict.stats.mode == "node-limit"
    verdict = ramsey_verify(5, 2)
    assert verdict.stats.mode == "unbounded"


def test_witness_certificates_reverify():
    for n, r in ((4, 1), (5, 2), (7, 3), (8, 3)):
        verdict = ramsey_verify(n, r)
        assert verdict.outcome == OUTCOME_WITNESS
        assert verify_certificate(verdict.certificate).ok
        assert verdict.certificate.n == n and verdict.certificate.r == r


@pytest.mark.slow
def test_witness_10_4():
    verdict = ramsey_verify(10, 4, SearchConfig(node_limit=20_000_000))
    assert verdict.outcome == OUTCOME_WITNESS
    assert verify_certificate(verdict.certificate).ok


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
    from ramsey_p5.pfree import _max_conn_edges

    for s in range(1, 8):
        pairs = all_pairs(s)
        best = 0
        for mask in p5_free_masks(s):
            if mask.bit_count() > best and mask_is_connected(mask, pairs, s):
                best = mask.bit_count()
        assert best == _max_conn_edges(s)


@pytest.mark.slow
def test_connected_edge_cap_at_search_order():
    """Raw validation at s = 9, the largest component the 3-colour
    refutation can meet."""
    from oracles import mask_is_connected, p5_free_masks
    from ramsey_p5.pfree import _max_conn_edges

    pairs = all_pairs(9)
    best = 0
    for mask in p5_free_masks(9):
        if mask.bit_count() > best and mask_is_connected(mask, pairs, 9):
            best = mask.bit_count()
    assert best == _max_conn_edges(9) == 9


def test_completion_cap_is_sound_upper_bound():
    """The grouping bound never undercounts the best path-free supergraph,
    which is what refutation soundness rests on."""
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
        cap = _completion_cap(component_sizes(adj, n))
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


def assert_class_records(eng, c):
    """The component masks, orders and capacity of class c match a
    breadth-first search of its edges."""
    adj, comp = eng.adj[c], eng.comp[c]
    for mask in bfs_components(adj, eng.n):
        for v in range(eng.n):
            if mask >> v & 1:
                assert comp[v] == mask
    assert eng.sizes[c] == component_sizes(adj, eng.n)
    assert eng.caps[c] == _completion_cap(eng.sizes[c])


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
    """Path-free classes grown at random from each start shape through the
    engine's component records: every absent edge gets the
    path-enumeration oracle's verdict, and the records match a breadth-first
    search after each merge and each undo."""
    rng = random.Random(n)
    pairs = all_pairs(n)
    seen = set()
    for start in START_SHAPES * 3:
        eng = _Engine(n, 1, SearchConfig())
        adj, comp = eng.adj[1], eng.comp[1]
        start_cap = eng.total_cap
        history = []
        while True:
            free = []
            for u, w in pairs:
                if adj[u] >> w & 1:
                    continue
                adj[u] |= 1 << w
                adj[w] |= 1 << u
                joined = comp[u] | comp[w]
                ok = component_is_p5_free(adj, joined)
                assert ok == (not edge_creates_p5(adj, u, w)), (adj, u, w)
                if joined.bit_count() > 4:
                    seen.add((comp[u] == comp[w], ok and free_shape(adj, joined)))
                adj[u] &= ~(1 << w)
                adj[w] &= ~(1 << u)
                if ok:
                    free.append((u, w))
            if len(history) < len(start):
                u, w = start[len(history)]
            elif free:
                u, w = rng.choice(free)
            else:
                break
            cu, cw, sizes = comp[u], comp[w], eng.sizes[1]
            adj[u] |= 1 << w
            adj[w] |= 1 << u
            if cu != cw:
                eng._merge(1, cu, cw)
            history.append((u, w, cu, cw, sizes))
            assert_class_records(eng, 1)
        for u, w, cu, cw, sizes in reversed(history):
            adj[u] &= ~(1 << w)
            adj[w] &= ~(1 << u)
            if cu != cw:
                eng._split(1, cu, cw, sizes)
            assert_class_records(eng, 1)
        assert eng.total_cap == start_cap
    # Past four vertices: an edge inside a star closes a triangle with
    # pendants, one inside the other shapes closes a path, and a sixth
    # vertex joins each shape at its centre or not at all.
    want = {(True, "triangle with pendants"), (True, False)}
    if n > 5:
        want |= {(False, False), (False, "star"), (False, "double star"),
                 (False, "triangle with pendants")}
    assert seen >= want


def test_search_decisions_match_path_oracle(monkeypatch):
    """During real searches, every catalogue verdict is the path oracle's,
    and every node entered has exact component records."""
    from ramsey_p5 import engine

    checks = 0
    predicate = engine.component_is_p5_free
    dfs = _Engine._dfs

    def checked_predicate(adj, comp):
        nonlocal checks
        checks += 1
        n = len(adj)
        assert comp in bfs_components(adj, n)
        ok = predicate(adj, comp)
        assert ok == (not adj_has_p5(adj, n))
        return ok

    def checked_dfs(self, d, used):
        for c in range(1, self.r + 1):
            assert_class_records(self, c)
        assert self.total_cap == sum(self.caps[1:])
        return dfs(self, d, used)

    monkeypatch.setattr(engine, "component_is_p5_free", checked_predicate)
    monkeypatch.setattr(_Engine, "_dfs", checked_dfs)
    assert ramsey_verify(8, 3).stats.nodes == 241
    assert ramsey_verify(9, 3).stats.nodes == 3103
    assert ramsey_verify(10, 4, SearchConfig(node_limit=3000)).stats.nodes == 3001
    assert checks > 3000
