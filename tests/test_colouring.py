"""Edge colourings, the lift, pigeonhole counts, witnesses, certificates."""

import random

import pytest

from oracles import naive_has_mono_p5, random_mono_free_colouring
from ramsey_p5.colouring import (Certificate, CertificateError, EdgeColouring,
                                 UnsupportedWitness, find_mono_p5, lift,
                                 max_mono_component_order, pair_count,
                                 pair_index, pair_list, pigeonhole_check,
                                 ramsey_value, read_certificate,
                                 verify_certificate, witness, witness_k10,
                                 write_certificate)
from ramsey_p5.graphs import connected_components


def random_colouring(rng, n, r):
    return EdgeColouring(n, r, [rng.randint(1, r) for _ in range(pair_count(n))])


def test_pair_index_is_lexicographic():
    for n in (2, 5, 9):
        pairs = pair_list(n)
        assert [pair_index(n, i, j) for i, j in pairs] == list(range(len(pairs)))


def test_colouring_validation():
    with pytest.raises(ValueError):
        EdgeColouring(4, 2, [1, 2, 3, 1, 1, 1])  # colour out of range
    with pytest.raises(ValueError):
        EdgeColouring(4, 2, [1, 2, 1])  # wrong length
    with pytest.raises(ValueError):
        EdgeColouring(3, 0, [])
    EdgeColouring(0, 1, [])
    EdgeColouring(1, 1, [])


def test_classes_partition_edge_set():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 8)
        r = rng.randint(1, 4)
        c = random_colouring(rng, n, r)
        assert sum(c.class_sizes()) == pair_count(n)
        assert sum(c.colour_class(i).edge_count()
                   for i in range(1, r + 1)) == pair_count(n)


def test_find_mono_p5_on_single_colour_k5():
    c = EdgeColouring(5, 1, [1] * 10)
    mono = find_mono_p5(c)
    assert mono is not None and mono.colour == 1
    assert len(set(mono.path)) == 5


def test_find_mono_p5_witness_is_valid_path():
    rng = random.Random(11)
    seen = 0
    while seen < 50:
        c = random_colouring(rng, rng.randint(5, 7), rng.randint(1, 3))
        mono = find_mono_p5(c)
        if mono is None:
            continue
        seen += 1
        colour, path = mono
        assert len(set(path)) == 5
        for k in range(4):
            assert c.colour(path[k], path[k + 1]) == colour


def test_two_colouring_with_clique_pattern_class():
    """Colour 1 holds K4 plus a separate edge inside K_6; both routes agree
    on every completion of the other class."""
    from ramsey_p5.colouring import pair_list
    rng = random.Random(42)
    k4_k2 = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)}
    for _ in range(50):
        cols = [1 if p in k4_k2 else 2 for p in pair_list(6)]
        c = EdgeColouring(6, 2, cols)
        assert (find_mono_p5(c) is None) == (not naive_has_mono_p5(c))
        # and perturbed versions keep agreeing
        cols[rng.randrange(len(cols))] = rng.randint(1, 2)
        c = EdgeColouring(6, 2, cols)
        assert (find_mono_p5(c) is None) == (not naive_has_mono_p5(c))


def test_find_mono_p5_matches_naive_oracle():
    rng = random.Random(20250101)
    for _ in range(2000):
        n = rng.randint(1, 7)
        r = rng.randint(1, 4)
        c = random_colouring(rng, n, r)
        assert (find_mono_p5(c) is None) == (not naive_has_mono_p5(c))


def test_lift_of_single_colour_k4():
    c = lift(EdgeColouring(4, 1, [1] * 6))
    assert c.n == 5 and c.r == 2
    star = c.colour_class(2)
    assert star.edge_count() == 4
    assert star.degree(4) == 4
    assert find_mono_p5(c) is None


def test_double_lift_from_k4():
    c = lift(lift(EdgeColouring(4, 1, [1] * 6)))
    assert c.n == 6 and c.r == 3
    assert find_mono_p5(c) is None


def test_lift_preserves_mono_p5_freedom():
    rng = random.Random(300)
    for _ in range(120):
        n, r = rng.choice([(5, 2), (6, 3), (7, 3), (8, 3)])
        c = random_mono_free_colouring(rng, n, r)
        assert find_mono_p5(c) is None
        lifted = lift(c)
        assert lifted.n == n + 1 and lifted.r == r + 1
        assert find_mono_p5(lifted) is None


def test_pigeonhole_examples():
    rep = pigeonhole_check(6, 2)
    assert (rep.bound, rep.turan, rep.relation) == (8, 7, "forced")
    rep = pigeonhole_check(9, 3)
    assert (rep.bound, rep.turan, rep.relation) == (12, 12, "extremal")
    rep = pigeonhole_check(25, 8)
    assert rep.bound == 38 and rep.turan == 36 and rep.relation == "forced"
    assert pigeonhole_check(10, 4).relation == "inconclusive"


def test_k10_witness():
    c = witness_k10()
    assert c.n == 10 and c.r == 4
    assert find_mono_p5(c) is None
    assert max_mono_component_order(c) <= 4
    # overlapped pairs resolved to the smallest colour index
    assert c.colour(2, 3) == 1
    assert c.colour(6, 7) == 1


def test_k10_class_components():
    c = witness_k10()
    sizes = sorted(
        comp.bit_count()
        for colour in range(1, 5)
        for comp in connected_components(c.colour_class(colour))
        if comp.bit_count() > 1)
    assert max(sizes) == 4 and sizes.count(4) >= 5


def test_witness_orders_match_ramsey_table():
    for r in range(1, 7):
        c = witness(r)
        assert c.r == r
        assert c.n == ramsey_value(r) - 1
        assert find_mono_p5(c) is None



def test_witness_rechecks_every_construction(monkeypatch):
    """A construction that yields a monochromatic 5-vertex path raises
    instead of being returned, also on the hardcoded r = 4 route."""
    import ramsey_p5.colouring as colouring

    monkeypatch.setattr(colouring, "witness_k10",
                        lambda: EdgeColouring(10, 4, [1] * 45))
    with pytest.raises(AssertionError):
        witness(4)

def test_residue_rule_consumers_follow_ramsey_value():
    """Lemma 1 counts at the Ramsey order, except r = 4 (13; Lemma 3 brings
    it down to 11), and the design route colours one vertex fewer, except
    r = 4 and r = 2 mod 4, which have their own constructions."""
    from ramsey_p5.checks import lemma1_check
    from ramsey_p5.designs import LiftPathError, g_of_r

    for r in range(1, 101):
        assert lemma1_check(r).n == (13 if r == 4 else ramsey_value(r))
        if r % 4 == 2:
            with pytest.raises(LiftPathError):
                g_of_r(r)
        elif r == 4:
            with pytest.raises(ValueError):
                g_of_r(r)
        else:
            assert g_of_r(r) == ramsey_value(r) - 1


def test_witness_monotone_orders():
    orders = [witness(r).n for r in range(1, 7)]
    assert all(orders[i + 1] >= orders[i] + 1 for i in range(len(orders) - 1))


def test_witness_r3_comes_from_covering_design():
    c = witness(3)
    assert c.n == 8 and c.r == 3
    assert max_mono_component_order(c) <= 4


def test_witness_unsupported():
    with pytest.raises(UnsupportedWitness):
        witness(12)
    with pytest.raises(ValueError):
        witness(0)


def test_witness_stretch_orders_report_budget_exhaustion():
    from ramsey_p5.colouring import WitnessBudgetExhausted
    from ramsey_p5.designs import SearchBudget
    for r in (7, 8, 9):
        with pytest.raises(WitnessBudgetExhausted):
            witness(r, budget=SearchBudget(nodes=2000))


def test_certificate_round_trip_bytes():
    c = witness_k10()
    cert = Certificate.from_colouring(c, ["construction: clique families"])
    data = write_certificate(cert)
    again = read_certificate(data)
    assert again == cert
    assert write_certificate(again) == data


def test_certificate_round_trip_values():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(0, 7)
        r = rng.randint(1, 4)
        cert = Certificate.from_colouring(random_colouring(rng, n, r))
        assert read_certificate(write_certificate(cert)) == cert


def test_certificate_verify_pass_and_fail():
    good = Certificate.from_colouring(witness_k10())
    assert verify_certificate(good).ok
    # flip one edge into colour 1 to close a 5-vertex path
    cols = list(good.colours)
    cols[pair_index(10, 0, 2)] = 1  # x1 joins the y-clique of colour 1
    bad = Certificate(10, 4, tuple(cols))
    report = verify_certificate(bad)
    assert not report.ok
    colour, path = report.violation
    c = bad.colouring()
    assert all(c.colour(path[k], path[k + 1]) == colour for k in range(4))


def test_certificate_vacuous_orders():
    for n in (0, 1):
        cert = Certificate.from_colouring(EdgeColouring(n, 1, []))
        assert verify_certificate(cert).ok
        assert read_certificate(write_certificate(cert)) == cert


def test_certificate_parse_errors_carry_line_numbers():
    data = write_certificate(Certificate.from_colouring(witness_k10()))
    lines = data.decode().split("\n")

    broken = bytes("\n".join(["RAMSEY-P5 v2"] + lines[1:]), "ascii")
    with pytest.raises(CertificateError) as err:
        read_certificate(broken)
    assert err.value.line == 1

    lines_bad = lines[:]
    lines_bad[5] = "0 3  2"
    with pytest.raises(CertificateError) as err:
        read_certificate("\n".join(lines_bad).encode())
    assert err.value.line == 6

    lines_bad = lines[:]
    lines_bad[4] = "0 2 9"
    with pytest.raises(CertificateError):
        read_certificate("\n".join(lines_bad).encode())

    with pytest.raises(CertificateError):
        read_certificate(data[:-1])  # missing newline

    for head in ("n=2 r=1 r=1", "n=1 r=0"):
        bad = f"{lines[0]}\n{head}\n{lines[2]}\n".encode()
        with pytest.raises(CertificateError) as err:
            read_certificate(bad)
        assert err.value.line == 2


def test_header_only_certificate_rejected_in_constant_memory():
    """A header claiming a large order is rejected from its line count,
    before any per-pair table is built."""
    import tracemalloc

    data = b"RAMSEY-P5 v1\nn=2000 r=2\nclaim=mono-p5-free\n"
    tracemalloc.start()
    try:
        with pytest.raises(CertificateError) as err:
            read_certificate(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.line == 3
    assert str(err.value) == "line 3: expected 1999000 edge lines"
    assert peak < 1 << 20


def test_certificate_rejects_non_canonical_numbers():
    data = write_certificate(Certificate.from_colouring(witness_k10()))
    mangled = data.replace(b"0 1 1", b"00 1 1", 1)
    with pytest.raises(CertificateError):
        read_certificate(mangled)
