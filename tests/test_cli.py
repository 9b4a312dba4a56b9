"""Command-line surface: outputs, file round trips, exit codes."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ramsey_p5
from ramsey_p5 import designs, ramsey_value
from ramsey_p5.cli import main
from ramsey_p5.colouring import (Certificate, EdgeColouring, lift, pair_count,
                                 pair_index, read_certificate, verify_certificate,
                                 witness, write_certificate)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_ramsey_value_table():
    assert [ramsey_value(r) for r in range(1, 9)] == [5, 6, 9, 11, 17, 18, 21, 25]
    with pytest.raises(ValueError):
        ramsey_value(0)


def test_turan_line(capsys):
    code, out = run(capsys, "turan", "11")
    assert code == 0
    assert out == "ex=15 extremal=2*K4+K3 unique=true\n"
    code, out = run(capsys, "turan", "5")
    assert out == "ex=6 extremal=K4+K1 unique=true\n"
    code, out = run(capsys, "turan", "0")
    assert out == "ex=0 extremal=K0 unique=true\n"
    # the K4 part is written once with its count, so the line stays short
    code, out = run(capsys, "turan", "10000000")
    assert out == "ex=15000000 extremal=2500000*K4 unique=true\n"
    assert len(out) < 64


def test_table_command(capsys):
    code, out = run(capsys, "table", "--max-r", "8")
    assert code == 0
    lines = out.splitlines()
    assert "r=4 R=11" in lines
    assert "r=5 R=17" in lines
    assert len(lines) == 8
    for max_r in ("0", "-3"):  # as witness 0 is
        assert main(["table", "--max-r", max_r]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least one colour\n"


def test_witness_verify_round_trip(capsys, tmp_path):
    cert = tmp_path / "w.cert"
    code, out = run(capsys, "witness", "4", "-o", str(cert))
    assert code == 0
    assert f"file={cert}" in out
    code, out = run(capsys, "verify", str(cert))
    assert code == 0
    assert "outcome=pass" in out
    # the overlap note rides along in the file
    assert b"# overlapped pairs" in cert.read_bytes()


def test_witness_to_stdout(capsys):
    code, out = run(capsys, "witness", "1")
    assert code == 0
    assert out.startswith("RAMSEY-P5 v1\nn=4 r=1\n")


def test_tampered_certificate_fails_with_witness(capsys, tmp_path):
    cert = tmp_path / "w.cert"
    run(capsys, "witness", "4", "-o", str(cert))
    data = cert.read_bytes()
    # vertex 0 joins the colour-1 clique on 2,3,4,5, closing a 5-vertex path
    tampered = data.replace(b"0 2 2\n", b"0 2 1\n", 1)
    assert tampered != data
    cert.write_bytes(tampered)
    code, out = run(capsys, "verify", str(cert))
    assert code == 1
    assert "outcome=fail" in out
    assert "witness_path=" in out


def test_malformed_certificate_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "junk.cert"
    bad.write_bytes(b"RAMSEY-P5 v1\nn=oops r=2\nclaim=mono-p5-free\n")
    code, _ = run(capsys, "verify", str(bad))
    assert code == 2
    missing = tmp_path / "nope.cert"
    code, _ = run(capsys, "verify", str(missing))
    assert code == 2


def test_verify_checks_orders_beyond_64_vertices(capsys, tmp_path):
    """A 65-vertex certificate is checked like any other: the one-colour
    K65 has a monochromatic path, exit 1 with the path reported."""
    n = 65
    cert = tmp_path / "k65.cert"
    cert.write_bytes(write_certificate(Certificate(n, 1, (1,) * pair_count(n))))
    code = main(["verify", str(cert)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "outcome=fail\nwitness_colour=1\nwitness_path=0,1,2,3,4\n",
        "certificate n=65 r=1: claim VIOLATED\n")


def test_lift_chain_past_64_vertices_verifies(capsys, tmp_path):
    """The lift chain from witness(6) continues to K80: each certificate
    round-trips and passes, and `verify` on the K65 file exits 0."""
    col = witness(6)
    while col.n < 80:
        col = lift(col)
        cert = Certificate.from_colouring(col)
        data = write_certificate(cert)
        assert read_certificate(data) == cert
        assert verify_certificate(cert).ok, col.n
        if col.n == 65:
            path = tmp_path / "k65.cert"
            path.write_bytes(data)
    code, out = run(capsys, "verify", str(path))
    assert (code, out) == (0, "outcome=pass\n")


def _sparse_first_colour(n: int, r: int, seed: int, weight: int) -> EdgeColouring:
    """A seeded r-colouring of K_n that draws colour 1 with weight 1 and each
    other colour with the given weight."""
    rng = random.Random(seed)
    return EdgeColouring(n, r, rng.choices(range(1, r + 1), k=pair_count(n),
                                           weights=[1] + [weight] * (r - 1)))


def _tampered_lift(n: int) -> EdgeColouring:
    """The lift chain from witness(6) up to n vertices, with leaf pairs 3-7
    and 7-12 moved into the last star's colour, which then holds a path."""
    col = witness(6)
    while col.n < n:
        col = lift(col)
    cols = list(col.colours)
    for i, j in ((3, 7), (7, 12)):
        cols[pair_index(n, i, j)] = col.r
    return EdgeColouring(n, col.r, cols)


# The first monochromatic path in depth-first order; a change to the search
# order of find_path shows here.
VERIFY_PINS = {
    "sparse-12-2": (lambda: _sparse_first_colour(12, 2, 7, 6), 1, "0,7,2,1,5"),
    "sparse-12-3": (lambda: _sparse_first_colour(12, 3, 8, 6), 2, "0,1,2,3,4"),
    "sparse-16-3": (lambda: _sparse_first_colour(16, 3, 9, 8), 1, "0,11,2,14,3"),
    "sparse-20-2": (lambda: _sparse_first_colour(20, 2, 10, 10), 1, "1,10,6,9,2"),
    "sparse-33-3": (lambda: _sparse_first_colour(33, 3, 11, 16), 1, "1,20,30,11,9"),
    "sparse-48-2": (lambda: _sparse_first_colour(48, 2, 12, 24), 1, "0,5,2,11,16"),
    "sparse-64-3": (lambda: _sparse_first_colour(64, 3, 13, 32), 1, "1,51,56,60,61"),
    "uniform-64-2": (lambda: _sparse_first_colour(64, 2, 6, 1), 1, "0,3,1,2,4"),
    "lift-30": (lambda: _tampered_lift(30), 19, "0,29,3,7,12"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_PINS))
def test_verify_reports_pinned_paths(capsys, tmp_path, name):
    build, colour, path = VERIFY_PINS[name]
    col = build()
    cert = tmp_path / f"{name}.cert"
    cert.write_bytes(write_certificate(Certificate.from_colouring(col)))
    code = main(["verify", str(cert)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (
        1, f"outcome=fail\nwitness_colour={colour}\nwitness_path={path}\n")
    assert captured.err == f"certificate n={col.n} r={col.r}: claim VIOLATED\n"


def test_unopenable_paths_are_usage_errors(capsys, tmp_path):
    """A directory given as an input or output file is an input error."""
    cases = (("verify", str(tmp_path)), ("design", "verify", str(tmp_path)),
             ("witness", "3", "-o", str(tmp_path)),
             ("witness", "5", "--design", str(tmp_path)))
    for argv in cases:
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err == f"cannot open {tmp_path}\n", argv


def test_bad_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["search", "--n", "6"])  # missing --r
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["search", "--n", "6", "--r", "2", "--jobs", "2"])
    assert err.value.code == 2


def test_design_search_and_verify(capsys, tmp_path):
    path = tmp_path / "c8.design"
    code, out = run(capsys, "design", "search", "--v", "8", "--mode", "covering",
                    "--classes", "3", "-o", str(path))
    assert code == 0
    assert out.splitlines() == ["outcome=found", "nodes=323", out.splitlines()[2],
                                "pruned_waste=250", "rejected_classes=0", "depth=6",
                                f"file={path}"]
    code, out = run(capsys, "design", "verify", str(path))
    assert code == 0
    assert "mode=covering ok=true" in out
    assert "resolution_ok=true" in out


def test_design_search_to_stdout(capsys):
    code, out = run(capsys, "design", "search", "--v", "4", "--mode", "steiner",
                    "--classes", "1")
    assert code == 0
    assert "DESIGN v1" in out
    assert "0 1 2 3" in out


def test_design_search_exhausted_space_exit(capsys):
    code, out = run(capsys, "design", "search", "--v", "8", "--mode", "packing",
                    "--classes", "2")
    assert code == 1
    assert "outcome=exhausted-space" in out


def test_design_search_budget_exit(capsys, tmp_path):
    code, out = run(capsys, "design", "search", "--v", "16", "--mode", "steiner",
                    "--classes", "5", "--nodes", "1")
    assert code == 3
    assert "outcome=budget-exhausted" in out


def test_design_search_infeasible_is_usage_error(capsys):
    code, _ = run(capsys, "design", "search", "--v", "10", "--mode", "covering",
                  "--classes", "3")
    assert code == 2


def test_design_verify_catches_tampering(capsys, tmp_path):
    path = tmp_path / "b16.design"
    run(capsys, "design", "search", "--v", "16", "--mode", "steiner",
        "--classes", "5", "-o", str(path))
    data = path.read_bytes()
    tampered = data.replace(b"0 5 10 15", b"0 5 10 14", 1)
    assert tampered != data
    path.write_bytes(tampered)
    code, out = run(capsys, "design", "verify", str(path))
    assert code == 1
    assert "ok=false" in out or "resolution_ok=false" in out


def test_search_command(capsys):
    code, out = run(capsys, "search", "--n", "6", "--r", "2")
    assert code == 0
    assert "outcome=refuted" in out
    code, out = run(capsys, "search", "--n", "5", "--r", "2")
    assert code == 0
    assert "outcome=witness" in out
    assert "RAMSEY-P5 v1" in out


def test_search_budget_exit(capsys):
    code, out = run(capsys, "search", "--n", "9", "--r", "3", "--nodes", "5")
    assert code == 3
    assert "outcome=budget-exhausted" in out
    keys = [line.partition("=")[0] for line in out.splitlines()]
    assert keys == ["outcome", "nodes", "depth", "seconds", "mode", "pruned_path",
                    "pruned_capacity", "pruned_isomorph", "memo", "path_memo"]
    # both limits reach the engine; the node cap decides the mode
    code, out = run(capsys, "search", "--n", "9", "--r", "3", "--nodes", "5",
                    "--budget", "60")
    assert code == 3
    assert "mode=node-limit" in out.splitlines()
    assert "nodes=6" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ("search", "--n", "9", "--r", "3"),
    ("design", "search", "--v", "16", "--mode", "steiner", "--classes", "5"),
    ("witness", "5"),
])
def test_nan_budget_is_usage_error(capsys, argv):
    code, out = run(capsys, *argv, "--budget", "nan")
    assert code == 2
    assert out == ""


def test_search_out_of_range_is_usage_error(capsys):
    for argv, err in ((("--n", "13", "--r", "2"), "error: order must be"),
                      (("--n", "5", "--r", "5"), "error: colour count must be")):
        assert main(["search", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(err), argv


def test_nodes_and_budget_both_reach_design_search(capsys, monkeypatch):
    seen = []

    def fake_search(v, mode, classes, budget=None):
        seen.append(budget)
        return designs.DesignSearchResult(None, "budget", 0, 0.0)

    monkeypatch.setattr(designs, "search_design", fake_search)
    limits = ("--nodes", "1000000000", "--budget", "0.5")
    code, _ = run(capsys, "design", "search", "--v", "28", "--mode", "steiner",
                  "--classes", "9", *limits)
    assert code == 3
    code, _ = run(capsys, "witness", "7", *limits)
    assert code == 3
    assert seen == [designs.SearchBudget(nodes=10 ** 9, seconds=0.5)] * 2


def test_claims_single_checks(capsys):
    code, out = run(capsys, "claims", "--lemma1", "3")
    assert code == 0
    assert "lemma1 r=3" in out
    code, out = run(capsys, "claims", "--claim1")
    assert code == 0
    assert "claim1 count_14=2 count_15=1" in out


def test_claims_nothing_selected(capsys):
    code, _ = run(capsys, "claims")
    assert code == 2


def test_witness_unsupported_r_needs_design(capsys):
    code, _ = run(capsys, "witness", "12")
    assert code == 1


def test_witness_errors_name_the_r_asked_for(capsys):
    """r = 2 (mod 4) lifts a witness for r - 1, but the refusals name the r
    asked for, with the exit codes of the route that refused."""
    budget = "exhausted its budget; retry with a larger budget or supply a design file"
    cases = {("14",): (1, "no native witness construction for r=14; "
                          "supply a design file"),
             ("10", "--nodes", "5"): (3, f"design search for r=10 (v=28, steiner) {budget}"),
             ("6", "--nodes", "3"): (3, f"design search for r=6 (v=16, steiner) {budget}")}
    for argv, (code, message) in cases.items():
        got = main(["witness", *argv])
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, "", message + "\n"), argv


def test_design_verify_handles_orders_beyond_graph_capacity(capsys, tmp_path):
    """A resolvable packing on 108 points verifies from a file even though
    108 exceeds the graph capacity; one natural class leaves 5616 pairs."""
    lines = ["DESIGN v1", "v=108 k=4 mode=packing", "P 1"]
    lines += [f"{4 * i} {4 * i + 1} {4 * i + 2} {4 * i + 3}" for i in range(27)]
    path = tmp_path / "p108.design"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    code, out = run(capsys, "design", "verify", str(path))
    assert code == 0
    assert "mode=packing ok=true" in out
    assert "resolution_ok=true" in out
    assert "leave_edges=5616" in out



def test_design_verify_cost_follows_the_file(capsys, tmp_path):
    """A 46-byte file naming 2,000 points and one block: the verdict, the
    20 violation lines and the leave count come out with under 1 MB of
    allocation, not a table of all 1,999,000 pairs."""
    import tracemalloc

    gaps = "".join(f"violation=pair 0 {j} multiplicity=0\n" for j in range(4, 24))
    want = {"steiner": (1, "mode=steiner ok=false\n" + gaps + "resolution_ok=absent\n"),
            "packing": (0, "mode=packing ok=true\nresolution_ok=absent\n"
                           "leave_edges=1998994\n")}
    for mode, expected in want.items():
        path = tmp_path / f"{mode}.design"
        path.write_bytes(f"DESIGN v1\nv=2000 k=4 mode={mode}\nP 0\n0 1 2 3\n".encode())
        assert len(path.read_bytes()) == 46
        tracemalloc.start()
        try:
            got = run(capsys, "design", "verify", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected, mode
        assert peak < 1 << 20, (mode, peak)


def test_design_verify_steiner_gaps_walk_lazily(capsys, tmp_path):
    """A one-block Steiner file naming 10^6 points: the first 20 uncovered
    pairs are found without a table of the points, under 1 MB."""
    import tracemalloc

    path = tmp_path / "s.design"
    path.write_bytes(b"DESIGN v1\nv=1000000 k=4 mode=steiner\nP 0\n0 1 2 3\n")
    tracemalloc.start()
    try:
        code, out = run(capsys, "design", "verify", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gaps = "".join(f"violation=pair 0 {j} multiplicity=0\n" for j in range(4, 24))
    assert (code, out) == (1, "mode=steiner ok=false\n" + gaps + "resolution_ok=absent\n")
    assert peak < 1 << 20, peak


def test_witness_checks_designs_beyond_64_points(capsys, tmp_path):
    """A 108-point design for r = 36 gets the same checks as a small one:
    one class is the wrong class count, exit 2."""
    lines = ["DESIGN v1", "v=108 k=4 mode=packing", "P 1"]
    lines += [f"{4 * i} {4 * i + 1} {4 * i + 2} {4 * i + 3}" for i in range(27)]
    path = tmp_path / "p108.design"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    code = main(["witness", "36", "--design", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: expected 36 or 35 classes, design has 1\n")


def test_witness_design_header_claiming_a_million_points(capsys, tmp_path):
    """witness 333333 needs 10^6 points; a file whose header says so but that
    holds one unresolved block is refused in constant memory, exit 2."""
    import tracemalloc

    path = tmp_path / "huge.design"
    path.write_bytes(b"DESIGN v1\nv=1000000 k=4 mode=covering\nP 0\n0 1 2 3\n")
    tracemalloc.start()
    try:
        code = main(["witness", "333333", "--design", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        2, "", "error: witness designs must be resolvable\n")
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("v,mode,classes", [
    (8, "covering", 600), (8, "covering", 450), (4000, "packing", 2),
    (16000, "packing", 1)])
def test_design_search_beyond_block_limit_is_usage_error(capsys, v, mode, classes):
    """Runs that would place more blocks than the search supports are refused
    before they start: exit 2 with one line, before any mask of v bits is
    made, so neither the point count nor the classes can grow the search's
    memory past the limit."""
    code = main(["design", "search", "--v", str(v), "--mode", mode,
                 "--classes", str(classes)])
    captured = capsys.readouterr()
    blocks = classes * (v // 4)
    assert (code, captured.out, captured.err) == (
        2, "", f"error: v={v} and classes={classes} place {blocks} blocks, "
               f"over the search limit of {designs.SEARCH_MAX_BLOCKS}\n")


def test_witness_from_design_file(capsys, tmp_path):
    path = tmp_path / "b16.design"
    run(capsys, "design", "search", "--v", "16", "--mode", "steiner",
        "--classes", "5", "-o", str(path))
    cert = tmp_path / "w5.cert"
    code, out = run(capsys, "witness", "5", "--design", str(path),
                    "-o", str(cert))
    assert code == 0
    code, out = run(capsys, "verify", str(cert))
    assert code == 0
    assert b"# source design: b16.design" in cert.read_bytes()


def test_witness_escapes_the_design_file_name(capsys, tmp_path):
    """A design file name with a newline or a non-ASCII letter is escaped
    in the certificate's source note, so the note stays one ASCII line and
    the certificate verifies."""
    b16 = tmp_path / "b16.design"
    run(capsys, "design", "search", "--v", "16", "--mode", "steiner",
        "--classes", "5", "-o", str(b16))
    for name, note in (("a\nb.design", b"# source design: a\\nb.design\n"),
                       ("\u00e9.design", b"# source design: \\xe9.design\n")):
        path = tmp_path / name
        path.write_bytes(b16.read_bytes())
        cert = tmp_path / "w5.cert"
        code, _ = run(capsys, "witness", "5", "--design", str(path), "-o", str(cert))
        assert code == 0, name
        assert cert.read_bytes().endswith(note)
        code, out = run(capsys, "verify", str(cert))
        assert (code, out.splitlines()[0]) == (0, "outcome=pass"), name


def test_witness_supplied_design_refusals(capsys, tmp_path):
    """A supplied design is refused with exit 2 for r = 4, which has its own
    construction, for a wrong order or class count, and when its colouring
    has a monochromatic 5-vertex path (here in the leave, colour 3). For
    r = 6 the design builds the witness for r = 5, which is lifted, and for
    r = 10 and 22 the refusal names the r asked for."""
    b16 = tmp_path / "b16.design"
    run(capsys, "design", "search", "--v", "16", "--mode", "steiner",
        "--classes", "5", "-o", str(b16))
    one_class = tmp_path / "c8.design"
    one_class.write_bytes(b"DESIGN v1\nv=8 k=4 mode=covering\nP 1\n0 1 2 3\n4 5 6 7\n")
    mono_leave = tmp_path / "m8.design"
    mono_leave.write_bytes(one_class.read_bytes() + b"P 2\n0 4 5 6\n1 2 3 7\n")
    cases = {("4", b16): "r=4 uses the dedicated 10-point construction",
             ("3", b16): "witness for r=3 needs 8 points, design has 16",
             ("22", b16): "witness for r=22 needs 64 points, design has 16",
             ("10", b16): "witness for r=10 needs 28 points, design has 16",
             ("3", one_class): "expected 3 or 2 classes, design has 1",
             ("3", mono_leave): "design colouring contains a monochromatic "
                                "5-path: MonoPath(colour=3, path=(1, 4, 2, 5, 3))"}
    for (r, path), message in cases.items():
        code = main(["witness", r, "--design", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    code, out = run(capsys, "witness", "6", "--design", str(b16), "-o",
                    str(tmp_path / "w6.cert"))
    assert (code, out) == (0, f"r=6 n=17 file={tmp_path / 'w6.cert'} verified=true\n")


def test_witness_lifts_a_supplied_design_past_64_vertices(capsys, tmp_path):
    """r = 22 lifts the K64 witness that a supplied design gives r = 21."""
    s64 = tmp_path / "s64.design"
    code, out = run(capsys, "design", "search", "--v", "64", "--mode", "steiner",
                    "--classes", "21", "-o", str(s64))
    assert code == 0 and "nodes=320\n" in out
    cert = tmp_path / "w22.cert"
    code, out = run(capsys, "witness", "22", "--design", str(s64), "-o", str(cert))
    assert (code, out) == (0, f"r=22 n=65 file={cert} verified=true\n")
    assert b"# source design: s64.design" in cert.read_bytes()
    code, out = run(capsys, "verify", str(cert))
    assert code == 0 and "outcome=pass\n" in out


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    """A reader that closes the pipe before the output comes (``| head``)
    ends the command as a shell reports a writer killed by SIGPIPE, 128 +
    13, not with a traceback and exit 1, which means a violated claim."""
    src = str(Path(ramsey_p5.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramsey_p5", "design", "search", "--v", "64",
         "--mode", "steiner", "--classes", "21", "-o", str(tmp_path / "s64.design")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")
