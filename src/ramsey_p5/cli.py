"""Command-line front end.

Machine-readable key=value lines go to stdout; human summaries go to stderr.
Exit codes: 0 success or claims hold, 1 claim violated or witness absent,
2 usage or input-format error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, colouring, designs, engine
from .graphs import TuranForm, ex_p5

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _extremal_name(n: int) -> str:
    form = TuranForm.of_order(n)
    parts = ["K4"] * form.a
    if form.b or not parts:
        parts.append(f"K{form.b}")
    return "+".join(parts)


def _cmd_turan(args) -> int:
    n = args.n
    print(f"ex={ex_p5(n)} extremal={_extremal_name(n)} unique=true")
    return EXIT_OK


def _cmd_table(args) -> int:
    for r in range(1, args.max_r + 1):
        print(f"r={r} R={colouring.ramsey_value(r)}")
    return EXIT_OK


def _budget_from(args) -> engine.SearchBudget | None:
    if args.nodes is None and args.budget is None:
        return None
    return engine.SearchBudget(nodes=args.nodes, seconds=args.budget)


def _cmd_witness(args) -> int:
    r = args.r
    notes = []
    design = None
    if args.design is not None:
        with open(args.design, "rb") as fh:
            design, _mode = designs.read_design(fh.read())
        notes.append(f"# source design: {os.path.basename(args.design)}")
    try:
        col = colouring.witness(r, design=design, budget=_budget_from(args))
    except colouring.WitnessBudgetExhausted as exc:
        _say(str(exc))
        return EXIT_BUDGET
    except colouring.UnsupportedWitness as exc:
        _say(str(exc))
        return EXIT_VIOLATION
    if r == 4:
        notes.append("# overlapped pairs resolved to the smallest colour index")
    cert = colouring.Certificate.from_colouring(col, notes)
    data = colouring.write_certificate(cert)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        print(f"r={r} n={col.n} file={args.out} verified=true")
    else:
        sys.stdout.write(data.decode("ascii"))
    _say(f"witness for r={r}: colouring of K_{col.n} with no monochromatic P5")
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.file, "rb") as fh:
        cert = colouring.read_certificate(fh.read())
    report = colouring.verify_certificate(cert)
    for line in report.lines():
        print(line)
    _say(f"certificate n={cert.n} r={cert.r}: "
         + ("claim holds" if report.ok else "claim VIOLATED"))
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_design_search(args) -> int:
    result = designs.search_design(args.v, args.mode, args.classes,
                                   _budget_from(args))
    for line in result.lines():
        print(line)
    if result.design is not None:
        data = designs.write_design(result.design, args.mode)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
            print(f"file={args.out}")
        else:
            sys.stdout.write(data.decode("ascii"))
        return EXIT_OK
    if result.outcome == "budget":
        return EXIT_BUDGET
    return EXIT_VIOLATION


def _cmd_design_verify(args) -> int:
    with open(args.file, "rb") as fh:
        design, mode = designs.read_design(fh.read())
    verdict = designs.verify_design(design, mode)
    for line in verdict.lines():
        print(line)
    ok = verdict.ok
    if design.resolution is not None:
        res = designs.verify_resolution(design)
        for line in res.lines():
            print(line)
        ok = ok and res.ok
    else:
        print("resolution_ok=absent")
    if mode == "packing" and verdict.ok:
        # the pairs no block covers; packings may exceed graph capacity
        covered = len(designs.pair_coverage(design).counts)
        print(f"leave_edges={colouring.pair_count(design.v) - covered}")
    _say(f"design v={design.v} mode={mode}: " + ("valid" if ok else "INVALID"))
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_search(args) -> int:
    try:
        verdict = engine.ramsey_verify(args.n, args.r, budget=_budget_from(args))
    except engine.ParameterError as exc:
        _say(str(exc))
        return EXIT_USAGE
    print(f"outcome={verdict.outcome}")
    for line in verdict.stats.lines():
        print(line)
    if verdict.certificate is not None:
        sys.stdout.write(colouring.write_certificate(verdict.certificate).decode("ascii"))
    _say(f"search n={args.n} r={args.r}: {verdict.outcome} "
         f"after {verdict.stats.nodes} nodes")
    if verdict.outcome == engine.OUTCOME_BUDGET:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_claims(args) -> int:
    reports = []
    if args.lemma1 is not None:
        reports.append(checks.lemma1_check(args.lemma1))
    if args.claim1:
        reports.append(checks.claim1_check())
    if args.lemma3:
        reports.append(checks.lemma3_check())
    if args.all:
        reports.extend(checks.lemma1_check(r) for r in range(1, 101))
        reports.append(checks.claim1_check())
        reports.append(checks.lemma3_check())
    if not reports:
        _say("nothing selected; use --lemma1 R, --claim1, --lemma3 or --all")
        return EXIT_USAGE
    ok = True
    for report in reports:
        ok = ok and report.ok
        if isinstance(report, checks.Lemma1Report) and args.all and report.ok:
            continue  # keep --all output readable; failures still print
        for line in report.lines():
            print(line)
    if args.all:
        print(f"lemma1 all r<=100 ok={'true' if ok else 'false'}")
    _say("all claims hold" if ok else "CLAIM VIOLATION found")
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-p5",
        description="Verification toolkit for the multicolour Ramsey numbers "
                    "of the 5-vertex path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("turan", help="Turán number and extremal graph")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_turan)

    p = sub.add_parser("table", help="print the Ramsey number table")
    p.add_argument("--max-r", type=int, default=10, dest="max_r")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("witness", help="build a lower-bound colouring")
    p.add_argument("r", type=int)
    p.add_argument("-o", "--out")
    p.add_argument("--design", help="design file for colour counts with no "
                                    "native construction")
    p.add_argument("--nodes", type=int)
    p.add_argument("--budget", type=float, help="seconds")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("design", help="design search and verification")
    dsub = p.add_subparsers(dest="design_command", required=True)
    ps = dsub.add_parser("search", help="search for a resolvable design")
    ps.add_argument("--v", type=int, required=True)
    ps.add_argument("--mode", choices=designs.MODES, required=True)
    ps.add_argument("--classes", type=int, required=True)
    ps.add_argument("--nodes", type=int)
    ps.add_argument("--budget", type=float, help="seconds")
    ps.add_argument("-o", "--out")
    ps.set_defaults(func=_cmd_design_search)
    pv = dsub.add_parser("verify", help="verify a design file")
    pv.add_argument("file")
    pv.set_defaults(func=_cmd_design_verify)

    p = sub.add_parser("search", help="exhaustive Ramsey search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nodes", type=int)
    p.add_argument("--budget", type=float, help="seconds")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("claims", help="run the finite case-analysis checks")
    p.add_argument("--lemma1", type=int, metavar="R")
    p.add_argument("--claim1", action="store_true")
    p.add_argument("--lemma3", action="store_true")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_claims)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except colouring.ParseError as exc:
        _say(f"input error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # not from opening a file, e.g. a closed stdout
            raise
        _say(f"cannot open {exc.filename}")
        return EXIT_USAGE
    except designs.InfeasibleParameters as exc:
        _say(f"infeasible: {exc}")
        return EXIT_USAGE
    except ValueError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
