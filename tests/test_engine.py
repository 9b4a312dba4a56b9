"""Exhaustive search engine: verdicts, pruning soundness, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_p5
from oracles import adj_has_p5, all_pairs
from ramsey_p5.colouring import verify_certificate
from ramsey_p5.engine import (OUTCOME_BUDGET, OUTCOME_REFUTED, OUTCOME_WITNESS,
                              ParameterError, SearchConfig, ramsey_verify)

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


def test_unpruned_search_agrees_on_small_instances():
    for n, r in ((4, 1), (5, 1), (4, 2), (5, 2), (6, 2), (6, 1)):
        assert ramsey_verify(n, r).outcome == ramsey_verify(n, r, UNPRUNED).outcome
    for n, r in ((6, 2), (7, 2), (8, 3), (9, 3)):
        outcome = ramsey_verify(n, r).outcome
        for cfg in ONE_RULE_OFF:
            assert ramsey_verify(n, r, cfg).outcome == outcome, (n, r, cfg)
    # A class at ex(n) edges fails the path test on its next edge anyway, so
    # the Turán rule only skips work and never changes the node count.
    for n, r, nodes in ((8, 3, 241), (9, 3, 3103)):
        no_turan = ramsey_verify(n, r, SearchConfig(turan_bound=False))
        assert no_turan.stats.nodes == nodes


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
    import random

    from oracles import adj_has_p5, adj_of_mask
    from ramsey_p5.engine import _completion_cap, _component_sizes

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
        cap = _completion_cap(_component_sizes(adj, n))
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
