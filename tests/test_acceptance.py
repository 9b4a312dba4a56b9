"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Every stated time budget is enforced with a wall-clock
assertion.
"""

import random
import time

from oracles import (brute_force_ex_p5, brute_force_extremal_masks,
                     component_sizes, naive_has_mono_p5, perm_canonical_mask,
                     random_mono_free_colouring)
from ramsey_p5.checks import claim1_check, lemma1_check, lemma3_check
from ramsey_p5.cli import main
from ramsey_p5.colouring import (Certificate, EdgeColouring, find_mono_p5,
                                 lift, pair_count, read_certificate,
                                 verify_certificate, witness, witness_k10,
                                 write_certificate)
from ramsey_p5.designs import (SearchBudget, design_to_colouring, read_design,
                               search_design, verify_design, verify_resolution,
                               write_design)
from ramsey_p5.engine import OUTCOME_REFUTED, SearchConfig, ramsey_verify
from ramsey_p5.graphs import ex_p5
from ramsey_p5.pfree import enumerate_p5_free


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_turan_oracle_equivalence():
    expected = [0, 0, 1, 3, 6, 6, 7, 9]
    t0 = time.perf_counter()
    brute = [brute_force_ex_p5(n) for n in range(8)]
    formula = [ex_p5(n) for n in range(8)]
    unique_4 = len({perm_canonical_mask(m, 4)
                    for m in brute_force_extremal_masks(4)}) == 1
    unique_5 = len({perm_canonical_mask(m, 5)
                    for m in brute_force_extremal_masks(5)}) == 1
    elapsed = time.perf_counter() - t0
    ok = (brute == expected == formula and unique_4 and unique_5
          and elapsed < 60.0)
    report(1, ok, f"brute={brute} unique@4={unique_4} unique@5={unique_5} "
                  f"elapsed={elapsed:.1f}s<60s")


def test_criterion_2_claim1_enumeration():
    t0 = time.perf_counter()
    n14 = len(enumerate_p5_free(11, 14))
    n15 = len(enumerate_p5_free(11, 15))
    rep = claim1_check()
    elapsed = time.perf_counter() - t0
    ok = n14 == 2 and n15 == 1 and rep.ok and elapsed < 10.0
    report(2, ok, f"count(11,14)={n14} count(11,15)={n15} "
                  f"shapes_match={rep.ok} elapsed={elapsed:.2f}s<10s")


def test_criterion_3_small_r_table():
    v51 = ramsey_verify(5, 1)
    t0 = time.perf_counter()
    raw = SearchConfig(colour_symmetry=False, component_bound=False,
                       isomorph=False)
    v62_raw = ramsey_verify(6, 2, raw)
    raw_elapsed = time.perf_counter() - t0
    v62 = ramsey_verify(6, 2)

    t0 = time.perf_counter()
    v93 = ramsey_verify(9, 3, budget=SearchBudget(nodes=10 ** 9))
    pruned_elapsed = time.perf_counter() - t0

    sizes = {}
    verified = {}
    for r in (1, 2, 3):
        w = witness(r)
        sizes[r] = w.n
        verified[r] = find_mono_p5(w) is None
    ok = (v51.outcome == OUTCOME_REFUTED
          and v62_raw.outcome == OUTCOME_REFUTED and raw_elapsed < 1.0
          and v62.outcome == OUTCOME_REFUTED
          and v93.outcome == OUTCOME_REFUTED and pruned_elapsed < 900.0
          and sizes == {1: 4, 2: 5, 3: 8}
          and all(verified.values()))
    report(3, ok, f"refuted(5,1)/(6,2)/(9,3); raw(6,2)={raw_elapsed:.2f}s<1s; "
                  f"(9,3) nodes={v93.stats.nodes} {pruned_elapsed:.1f}s<900s; "
                  f"witness orders R1,R2,R3={sizes[1]+1},{sizes[2]+1},{sizes[3]+1}")


def test_criterion_4_four_colours():
    t0 = time.perf_counter()
    k10 = witness_k10()
    maxcomp = max(component_sizes(g.adj, g.n)[-1] for _, g in k10.colour_classes())
    lower_ok = find_mono_p5(k10) is None and maxcomp <= 4
    l3 = lemma3_check()
    c1 = claim1_check()
    elapsed = time.perf_counter() - t0
    ok = (lower_ok and l3.ok and c1.ok
          and len(l3.counterexamples) == 0 and elapsed < 300.0)
    report(4, ok, f"K10 mono-free={lower_ok} lemma3 counterexamples="
                  f"{len(l3.counterexamples)} over {l3.placements_disjoint} "
                  f"disjoint placements; claim1={c1.ok}; "
                  f"elapsed={elapsed:.1f}s<300s")


def test_criterion_5_designs():
    t0 = time.perf_counter()
    r8 = search_design(8, "covering", 3, SearchBudget(seconds=60))
    t8 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r16 = search_design(16, "steiner", 5, SearchBudget(seconds=1800))
    t16 = time.perf_counter() - t0
    ok = (r8.outcome == "found" and t8 < 60.0
          and r16.outcome == "found" and t16 < 1800.0)
    details = []
    for result, mode in ((r8, "covering"), (r16, "steiner")):
        d = result.design
        ok = ok and verify_design(d, mode).ok and verify_resolution(d).ok
        col = design_to_colouring(d)
        maxcomp = max(component_sizes(g.adj, g.n)[-1] for _, g in col.colour_classes())
        ok = ok and find_mono_p5(col) is None and maxcomp <= 4
        details.append(f"v={d.v}:{mode} classes={len(d.classes)} "
                       f"maxcomp={maxcomp}")
    report(5, ok, f"{details[0]} in {t8:.2f}s<60s; {details[1]} in "
                  f"{t16:.2f}s<1800s; colourings mono-free")


def test_criterion_6_lemma1_arithmetic():
    t0 = time.perf_counter()
    reports = [lemma1_check(r) for r in range(1, 101)]
    elapsed = time.perf_counter() - t0
    degree_cases = [rep for rep in reports if rep.r % 4 == 3]
    ok = (all(rep.ok for rep in reports)
          and all(("degree_contradiction", True) in rep.checks
                  for rep in degree_cases)
          and elapsed < 1.0)
    report(6, ok, f"all r<=100 hold; {len(degree_cases)} degree cases; "
                  f"elapsed={elapsed:.3f}s<1s")


def test_criterion_7_lift_and_oracle_agreement():
    rng = random.Random(1789)
    lift_ok = True
    for _ in range(500):
        n, r = rng.choice([(5, 2), (6, 3), (7, 3), (8, 3)])
        c = random_mono_free_colouring(rng, n, r)
        if find_mono_p5(c) is not None or find_mono_p5(lift(c)) is not None:
            lift_ok = False
            break
    agree = 0
    total = 10_000
    for _ in range(total):
        n = rng.randint(1, 7)
        r = rng.randint(1, 4)
        c = EdgeColouring(n, r, [rng.randint(1, r)
                                 for _ in range(pair_count(n))])
        if (find_mono_p5(c) is None) == (not naive_has_mono_p5(c)):
            agree += 1
    ok = lift_ok and agree == total
    report(7, ok, f"500 lifted colourings stay mono-free={lift_ok}; "
                  f"oracle agreement {agree}/{total}")


def test_criterion_8_round_trips_and_fault_injection(tmp_path, capsys):
    cert = Certificate.from_colouring(witness_k10(), ["construction note"])
    cert_bytes = write_certificate(cert)
    cert_rt = (read_certificate(cert_bytes) == cert
               and write_certificate(read_certificate(cert_bytes)) == cert_bytes)

    d16 = search_design(16, "steiner", 5).design
    design_bytes = write_design(d16, "steiner")
    d_back, mode_back = read_design(design_bytes)
    design_rt = (d_back == d16 and mode_back == "steiner"
                 and write_design(d_back, mode_back) == design_bytes)

    # fault injection through the command line
    wfile = tmp_path / "w.cert"
    exit_write = main(["witness", "4", "-o", str(wfile)])
    data = wfile.read_bytes()
    wfile.write_bytes(data.replace(b"0 2 2\n", b"0 2 1\n", 1))
    exit_tampered = main(["verify", str(wfile)])
    out_tampered = capsys.readouterr().out
    witness_shown = "witness_path=" in out_tampered and "witness_colour=" in out_tampered

    try:
        main(["table", "--bogus-flag"])
        exit_badflag = 0
    except SystemExit as err:
        exit_badflag = err.code
    capsys.readouterr()

    exit_budget = main(["search", "--n", "9", "--r", "3", "--nodes", "1"])
    capsys.readouterr()

    ok = (cert_rt and design_rt and exit_write == 0 and exit_tampered == 1
          and witness_shown and exit_badflag == 2 and exit_budget == 3)
    report(8, ok, f"cert_rt={cert_rt} design_rt={design_rt} "
                  f"exits: write={exit_write} tampered={exit_tampered} "
                  f"badflag={exit_badflag} budget={exit_budget}; "
                  f"tamper witness shown={witness_shown}")
