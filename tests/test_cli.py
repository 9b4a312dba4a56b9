"""Command-line surface: outputs, file round trips, exit codes."""

import pytest

from ramsey_p5 import designs, ramsey_value
from ramsey_p5.cli import main


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
    assert out == "ex=15 extremal=K4+K4+K3 unique=true\n"
    code, out = run(capsys, "turan", "5")
    assert out == "ex=6 extremal=K4+K1 unique=true\n"
    code, out = run(capsys, "turan", "0")
    assert out == "ex=0 extremal=K0 unique=true\n"


def test_table_command(capsys):
    code, out = run(capsys, "table", "--max-r", "8")
    assert code == 0
    lines = out.splitlines()
    assert "r=4 R=11" in lines
    assert "r=5 R=17" in lines
    assert len(lines) == 8


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
                                "pruned_waste=250", "rejected_classes=0",
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
                    "pruned_capacity", "pruned_isomorph"]
    # both limits reach the engine; the node cap decides the mode
    code, out = run(capsys, "search", "--n", "9", "--r", "3", "--nodes", "5",
                    "--budget", "60")
    assert code == 3
    assert "mode=node-limit" in out.splitlines()
    assert "nodes=6" in out.splitlines()


def test_search_out_of_range_is_usage_error(capsys):
    code, _ = run(capsys, "search", "--n", "13", "--r", "2")
    assert code == 2


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

def test_witness_beyond_graph_capacity_refused(capsys, tmp_path):
    lines = ["DESIGN v1", "v=108 k=4 mode=packing", "P 1"]
    lines += [f"{4 * i} {4 * i + 1} {4 * i + 2} {4 * i + 3}" for i in range(27)]
    path = tmp_path / "p108.design"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    code, _ = run(capsys, "witness", "36", "--design", str(path))
    assert code == 1


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
