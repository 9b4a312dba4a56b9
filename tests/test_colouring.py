"""Edge colourings, the lift, witnesses and their routes, certificates."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_p5
from oracles import component_sizes, naive_has_mono_p5, random_mono_free_colouring
from ramsey_p5 import designs
from ramsey_p5.colouring import (Certificate, CertificateError, EdgeColouring,
                                 UnsupportedWitness, WitnessBudgetExhausted,
                                 find_mono_p5, lift, pair_count, pair_index,
                                 pair_list, ramsey_value, read_certificate,
                                 verify_certificate, witness, witness_k10,
                                 write_certificate)
from ramsey_p5.engine import SearchBudget
from ramsey_p5.graphs import connected_components, ex_p5


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
        classes = dict(c.colour_classes())
        assert sorted(classes) == sorted(set(c.colours))
        for k, g in classes.items():
            assert g.edge_count() == c.colours.count(k)
            assert all(c.colours[pair_index(n, i, j)] == k for i, j in g.edges())
        assert sum(g.edge_count() for g in classes.values()) == pair_count(n)


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
            assert c.colours[pair_index(c.n, path[k], path[k + 1])] == colour


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
    star = dict(c.colour_classes())[2]
    assert star.edge_count() == 4
    assert star.adj[4].bit_count() == 4
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
    """The most frequent colour class, ceil(C(n,2)/r) edges, against the
    Turán number of the 5-vertex path: above it forces a path, equal to it
    is the extremal case, below it decides nothing."""
    from ramsey_p5.checks import lemma1_check

    rep = lemma1_check(2)
    assert (rep.n, rep.bound, rep.turan) == (6, 8, 7) and rep.bound > rep.turan
    rep = lemma1_check(3)
    assert (rep.n, rep.bound, rep.turan) == (9, 12, 12)
    assert ("bound_equals_turan", True) in rep.checks
    rep = lemma1_check(8)
    assert (rep.n, rep.bound, rep.turan) == (25, 38, 36) and rep.bound > rep.turan
    assert -(-pair_count(10) // 4) < ex_p5(10)


def test_verify_cost_follows_the_colours_used(monkeypatch):
    """The checks bucket the pairs by colour in one pass over pair_list and
    build one graph per colour that occurs: a one-edge certificate headed
    r=100000 builds one class, and a 64-vertex certificate that gives each
    of its 2,016 edges its own colour takes one pass, not one per colour."""
    import ramsey_p5.colouring as colouring

    passes, builds = [], []
    real_pairs, real_graph = colouring.pair_list, colouring.Graph
    monkeypatch.setattr(colouring, "pair_list",
                        lambda n: passes.append(n) or real_pairs(n))
    monkeypatch.setattr(colouring, "Graph",
                        lambda n, edges=(): builds.append(n) or real_graph(n, edges))
    n = 64
    colours = range(1, pair_count(n) + 1)
    many = write_certificate(Certificate(n, pair_count(n), tuple(colours)))
    one = b"RAMSEY-P5 v1\nn=2 r=100000\nclaim=mono-p5-free\n0 1 7\n"
    for data, classes in ((one, 1), (many, pair_count(n))):
        cert = read_certificate(data)
        passes.clear()
        builds.clear()
        assert verify_certificate(cert).ok
        assert (passes, len(builds)) == ([cert.n], classes)
        passes.clear()
        builds.clear()
        assert max(component_sizes(g.adj, g.n)[-1]
                   for _, g in cert.colour_classes()) == 2
        assert (passes, len(builds)) == ([cert.n], classes)


def test_k10_witness():
    c = witness_k10()
    assert c.n == 10 and c.r == 4
    assert find_mono_p5(c) is None
    assert max(component_sizes(g.adj, g.n)[-1] for _, g in c.colour_classes()) <= 4
    # overlapped pairs resolved to the smallest colour index
    assert c.colours[pair_index(10, 2, 3)] == 1
    assert c.colours[pair_index(10, 6, 7)] == 1


def test_k10_class_components():
    c = witness_k10()
    classes = dict(c.colour_classes())
    assert sorted(classes) == [1, 2, 3, 4]
    sizes = sorted(
        comp.bit_count()
        for g in classes.values()
        for comp in connected_components(g)
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
    it down to 11)."""
    from ramsey_p5.checks import lemma1_check

    for r in range(1, 101):
        assert lemma1_check(r).n == (13 if r == 4 else ramsey_value(r))


@pytest.fixture
def search_calls(monkeypatch):
    """Record the design searches behind witness; run the real search up to
    16 points and report a spent budget beyond."""
    calls = []
    real_search = designs.search_design

    def fake_search(v, mode, classes, budget=None):
        calls.append((v, mode, classes, budget))
        if v <= 16:
            return real_search(v, mode, classes, budget)
        return designs.DesignSearchResult(None, "budget", 0, 0.0)

    monkeypatch.setattr(designs, "search_design", fake_search)
    return calls


def test_witness_search_parameters(search_calls):
    """The design route searches K_N, N = R_r(P5) - 1, with r classes:
    Steiner when N = 4 (mod 12), else covering; 5M nodes unless the caller
    gives a budget."""
    default = SearchBudget(nodes=5_000_000)
    want = {1: (4, "steiner", 1), 3: (8, "covering", 3), 5: (16, "steiner", 5),
            7: (20, "covering", 7), 8: (24, "covering", 8), 9: (28, "steiner", 9)}
    for r, params in want.items():
        for budget in (None, SearchBudget(nodes=10 ** 6)):
            search_calls.clear()
            if params[0] <= 16:
                assert witness(r, budget=budget).n == params[0]
            else:
                with pytest.raises(WitnessBudgetExhausted):
                    witness(r, budget=budget)
            assert search_calls == [(*params, budget or default)], r


def test_witness_exhausted_space_is_no_witness(monkeypatch):
    """A design search that exhausts its space proves the design absent:
    that is a missing witness, not a spent budget."""
    def exhausted(v, mode, classes, budget=None):
        return designs.DesignSearchResult(None, "exhausted", 7, 0.0)

    monkeypatch.setattr(designs, "search_design", exhausted)
    with pytest.raises(UnsupportedWitness, match="exhausted its space"):
        witness(3)


def test_witness_lift_and_k10_routes(search_calls, monkeypatch):
    """r = 2 and r = 6 make exactly the search of r - 1 and lift it, and
    re-check only the lifted colouring; r = 4 searches nothing."""
    import ramsey_p5.colouring as colouring

    checked = []
    real_check = colouring.find_mono_p5
    monkeypatch.setattr(colouring, "find_mono_p5",
                        lambda c: checked.append((c.n, c.r)) or real_check(c))
    for r, params in ((2, (4, "steiner", 1)), (6, (16, "steiner", 5))):
        search_calls.clear()
        checked.clear()
        c = witness(r)
        assert (c.n, c.r) == (ramsey_value(r) - 1, r)
        assert c.colours.count(r) == c.n - 1  # the lifted star
        assert search_calls == [(*params, SearchBudget(nodes=5_000_000))]
        assert checked == [(c.n, r)]
    search_calls.clear()
    assert witness(4) == witness_k10()
    assert search_calls == []


def test_witness_k10_recheck_survives_python_O():
    """Under python -O a K_10 construction with a monochromatic 5-vertex
    path still makes witness(4) raise."""
    script = (
        "import sys\n"
        "from ramsey_p5 import colouring\n"
        "colouring.witness_k10 = lambda: colouring.EdgeColouring(10, 4, [1] * 45)\n"
        "try:\n"
        "    colouring.witness(4)\n"
        "except AssertionError:\n"
        "    sys.exit(0 if sys.flags.optimize else 2)\n"
        "sys.exit(1)\n")
    src = str(Path(ramsey_p5.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-O", "-c", script], timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0


def test_witness_monotone_orders():
    orders = [witness(r).n for r in range(1, 7)]
    assert all(orders[i + 1] >= orders[i] + 1 for i in range(len(orders) - 1))


def test_witness_r3_comes_from_covering_design():
    c = witness(3)
    assert c.n == 8 and c.r == 3
    assert max(component_sizes(g.adj, g.n)[-1] for _, g in c.colour_classes()) <= 4


def test_witness_unsupported():
    with pytest.raises(UnsupportedWitness):
        witness(12)
    with pytest.raises(ValueError):
        witness(0)


def test_witness_checks_a_supplied_design_past_64_points():
    """r = 23 needs 68 points. The natural partition taken as all 22 classes
    passes every design check, and the re-check finds the path in the leave
    (colour 23) instead of refusing the order as unsupported."""
    natural = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(17))
    with pytest.raises(ValueError,
                       match=r"monochromatic 5-path: MonoPath\(colour=23") as err:
        witness(23, design=designs.Design(68, (natural,) * 22))
    assert not isinstance(err.value, UnsupportedWitness)


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
    assert all(bad.colours[pair_index(10, path[k], path[k + 1])] == colour
               for k in range(4))


def test_certificate_notes_are_single_ascii_lines():
    """A note that would split into two lines or leave ASCII is refused on
    writing, so no written certificate fails to read back."""
    c = witness_k10()
    for note in ("# a\nb", "# \u00e9", "no hash"):
        with pytest.raises(ValueError, match="certificate note is not"):
            write_certificate(Certificate(c.n, c.r, tuple(c.colours), (note,)))
    cert = Certificate.from_colouring(c, ["# a\\nb", "# \\xe9"])
    assert read_certificate(write_certificate(cert)) == cert


def test_certificate_is_a_checked_colouring():
    """A certificate is an edge colouring with notes: the constructor checks
    it, find_mono_p5 takes it as it is, and it equals only certificates."""
    with pytest.raises(ValueError, match="colour 0 outside 1..4"):
        Certificate(10, 4, (0,) * 45)
    with pytest.raises(ValueError, match="expected 3 colour entries, got 2"):
        Certificate(3, 1, (1, 1))
    assert Certificate(2, 1, [1]).colours == (1,)
    mono = find_mono_p5(Certificate(5, 1, (1,) * 10))
    assert mono is not None and mono == find_mono_p5(EdgeColouring(5, 1, [1] * 10))
    c = witness_k10()
    cert = Certificate.from_colouring(c, ["k10"])
    assert find_mono_p5(cert) is None
    assert Certificate.from_colouring(c) != c and c != Certificate.from_colouring(c)
    again = read_certificate(write_certificate(cert))
    assert again == cert and hash(again) == hash(cert)
    assert again.notes == ("# k10",)


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


def reference_edge_colours(lines, n, r):
    """The edge lines parsed token by token, as read_certificate did before
    it compared strings: the colours, or the (line, message) of the first
    error."""
    def strict(token):
        return token.isdigit() and (token == "0" or token[0] != "0")

    cols = []
    for k, (i, j) in enumerate(pair_list(n)):
        lineno = 4 + k
        parts = lines[3 + k].split(" ")
        if len(parts) != 3:
            return lineno, "expected '<i> <j> <c>'"
        for token, what in zip(parts, ("vertex", "vertex", "colour")):
            if not strict(token):
                return lineno, f"malformed {what}: {token!r}"
        ii, jj, c = map(int, parts)
        if (ii, jj) != (i, j):
            return lineno, f"expected pair {i} {j}, got {ii} {jj}"
        if not 1 <= c <= r:
            return lineno, f"colour {c} outside 1..{r}"
        cols.append(c)
    return tuple(cols)


def test_edge_line_parse_matches_token_reference():
    """Certificates with one edge line mangled at random: read_certificate
    accepts the same colours or raises at the same line with the same
    message as the token-by-token reference, with r below and above the
    edge count."""
    rng = random.Random(1729)
    tokens = ("", "0", "00", "01", "+1", "-1", "1_0", "x", "1.0", "7", "12",
              "99999")
    for _ in range(600):
        n = rng.randint(2, 8)
        r = rng.choice((1, 2, 4, 40, 100000))
        cert = Certificate(n, r, tuple(rng.randint(1, min(r, 50))
                                       for _ in range(pair_count(n))))
        lines = write_certificate(cert).decode("ascii").split("\n")
        row = rng.randrange(3, 3 + pair_count(n))
        parts = lines[row].split(" ")
        change = rng.choice((0, 0, 0, 0, 1, 2, 3))
        if change == 0:
            parts[rng.randrange(3)] = rng.choice(tokens + (str(r), str(r + 1)))
        elif change == 1:
            parts.insert(rng.randrange(4), rng.choice(("", "1")))
        elif change == 2:
            del parts[rng.randrange(3)]
        else:
            parts[0], parts[1] = parts[1], parts[0]
        lines[row] = " ".join(parts)
        want = reference_edge_colours(lines, n, r)
        try:
            got = read_certificate("\n".join(lines).encode("ascii")).colours
        except CertificateError as exc:
            got = exc.line, str(exc).partition(": ")[2]
        assert got == want, (n, r, lines[row])


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
