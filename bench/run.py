"""Benchmark for the ramsey-p5 toolkit.

    python3 bench/run.py --workload search|design|claims|verify \\
        --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each op starts when the previous one
has returned. The run sets up several times (fresh import of the package from
``src``, inputs built from the seed, one warm-up op) and reports the median
set-up time. It then runs whole passes over the workload's op list, at least
two, for about ``--seconds``: another pass starts only while half of one still
fits. Every output is checked (``workloads`` and ``oracle``); a mismatch
counts as a failed op. Times are calibrated to a nominal host speed
(``hostclock``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate; the last line holds the
per-layer metrics from the traced passes and the tracing overhead against the
untraced ones. Spans and a full result record go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
LAYERS = ("cli", "engine", "designs", "checks", "pfree", "canon", "colouring", "graphs")
SETUP_REPS = 7

import oracle  # noqa: E402  (the bench directory is sys.path[0])
import tracer  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402


def import_fresh() -> SimpleNamespace:
    """Import the package and its layer modules from scratch."""
    for name in [m for m in sys.modules if m == "ramsey_p5" or m.startswith("ramsey_p5.")]:
        del sys.modules[name]
    mods = {"pkg": importlib.import_module("ramsey_p5")}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"ramsey_p5.{layer}")
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, workdir: Path):
    """Import, build the inputs and run the first op once."""
    mods = import_fresh()
    ctx = workloads.Context(mods, workload, seed, workdir)
    ops = workloads.BUILDERS[workload](ctx)
    return ctx, ops, ops[0].run()


def check(op: workloads.Op, out, failures: list[str]) -> int:
    """The op's work units, or 0 with the reason added to ``failures``."""
    try:
        return op.check(out)
    except (workloads.CheckFailed, oracle.Malformed) as exc:
        failures.append(f"{op.label}: {exc}")
    except Exception as exc:  # a check that cannot read the output fails the op
        failures.append(f"{op.label}: unreadable output ({exc!r})")
    return 0


class Rec(NamedTuple):
    op: int
    start: float
    end: float
    busy: float  # program seconds, measured
    units: int


def run_pass(ops: list[workloads.Op], clock: HostClock, trace: tracer.Tracer | None,
             failures: list[str]) -> list[Rec]:
    """One record per op; checks run outside the timed span."""
    records = []
    for k, op in enumerate(ops):
        if trace is not None:
            trace.op = k
        mark = clock.mark()
        try:
            out = op.run()
        except Exception as exc:  # the program crashed: a failed op, the run goes on
            records.append(Rec(k, *clock.busy(mark), 0))
            failures.append(f"{op.label}: raised {exc!r}")
            continue
        span = clock.busy(mark)
        records.append(Rec(k, *span, check(op, out, failures)))
    return records


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Timed(NamedTuple):
    op: int
    raw: float  # program seconds as measured
    cal: float  # the same, calibrated to the nominal host speed
    units: int


def pass_time(recs: list[Timed], field: str = "cal") -> float:
    return sum(getattr(r, field) for r in recs)


def end_to_end(ops, passes, setups) -> tuple[dict, dict]:
    """Bounded metrics for the final line (calibrated), and the workload's
    own figures with the measured values beside them."""
    plain = [recs for traced, recs in passes if not traced]
    per_op: dict[int, list[float]] = {}
    for recs in plain:
        for r in recs:
            per_op.setdefault(r.op, []).append(r.cal)
    # each op's median over the passes, so the pass count cannot skew them
    latency = {k: statistics.median(v) for k, v in per_op.items()}
    work = [r for recs in plain for r in recs if ops[r.op].work]
    units = sum(r.units for r in work)
    metrics = {
        "setup_s": (statistics.median(cal for _raw, cal in setups), "s"),
        "wall_s": (statistics.median(pass_time(recs) for recs in plain), "s"),
        "work_per_s": (units / pass_time(work), "1/s"),
        "op_p90_ms": (1e3 * percentile(list(latency.values()), 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "passes": len(plain),
        "ops": len(latency),
        "op_p50_ms": 1e3 * statistics.median(latency.values()),
        "measured_setup_s": statistics.median(raw for raw, _cal in setups),
        "measured_wall_s": statistics.median(pass_time(recs, "raw") for recs in plain),
        "measured_work_per_s": units / pass_time(work, "raw"),
    }
    if {ops[r.op].kind for r in work} & {"verdict", "capped", "design-search"}:
        extra["nodes_per_s"] = units / pass_time(work)
    verdicts = [pass_time([r for r in recs if ops[r.op].kind == "verdict"]) for recs in plain]
    if any(verdicts):
        extra["verdict_s"] = statistics.median(verdicts)
    certs = [t for k, t in latency.items() if ops[k].kind == "cert"]
    if certs:
        extra["certs_per_s"] = len(certs) / sum(certs)
        extra["cert_p50_ms"] = 1e3 * statistics.median(certs)
        extra["cert_p90_ms"] = 1e3 * percentile(certs, 90)
        extra["cert_files"] = len(certs)
    return metrics, extra


def observers() -> dict[str, tracer.Observer]:
    """Counts read at the span boundary from arguments and return values."""

    def engine_verdict(args, verdict, counters):
        counters["engine.nodes"] += verdict.stats.nodes
        counters["engine.max_depth"] = max(counters["engine.max_depth"],
                                           verdict.stats.max_depth)
        counters[f"engine.outcome.{verdict.outcome}"] += 1

    def design_result(args, result, counters):
        counters["designs.nodes"] += result.nodes
        counters["designs.found"] += result.outcome == "found"

    def certificate_bytes(args, result, counters):
        counters["colouring.read_certificate.bytes"] += len(args[0])

    def certificate_report(args, report, counters):
        counters["verify.early_exits"] += not report.ok

    def graphs_returned(args, result, counters):
        counters["pfree.graphs"] += len(result)

    return {
        "engine.ramsey_verify": engine_verdict,
        "designs.search_design": design_result,
        "colouring.read_certificate": certificate_bytes,
        "colouring.verify_certificate": certificate_report,
        "pfree.enumerate_p5_free": graphs_returned,
    }


TIMED = {
    "cli": ("main",),
    "engine": ("ramsey_verify",),
    "designs": ("search_design", "verify_design", "verify_resolution",
                "design_to_colouring", "read_design"),
    "canon": ("canonical_key",),
    "pfree": ("enumerate_p5_free", "component_catalogue"),
    "checks": ("lemma1_check", "claim1_check", "lemma3_check"),
    "colouring": ("read_certificate", "write_certificate", "verify_certificate",
                  "find_mono_p5", "witness", "lift"),
    "graphs": ("find_path", "contains_clique", "connected_components"),
}


def per_layer(trace: tracer.Tracer, clock: HostClock, passes) -> dict:
    traced = [recs for is_traced, recs in passes if is_traced]
    plain = [recs for is_traced, recs in passes if not is_traced]
    k = len(traced)
    calls, self_s, total_s = trace.self_times(clock.calibrate)
    c = trace.counters
    out = {}
    for layer, names in TIMED.items():
        for name in names:
            full = f"{layer}.{name}"
            out[f"{full}.calls"] = (calls.get(full, 0) / k, "count")
            out[f"{full}.self_s"] = (self_s.get(full, 0.0) / k, "s")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out.update({
        "engine.nodes": (c["engine.nodes"] / k, "count"),
        "engine.max_depth": (c["engine.max_depth"], "count"),
        "engine.nodes_per_s": (ratio(c["engine.nodes"],
                                     total_s.get("engine.ramsey_verify", 0.0)), "1/s"),
        "designs.nodes": (c["designs.nodes"] / k, "count"),
        "designs.nodes_per_s": (ratio(c["designs.nodes"],
                                      total_s.get("designs.search_design", 0.0)), "1/s"),
        "designs.found_frac": (ratio(c["designs.found"],
                                     calls.get("designs.search_design", 0)), "fraction"),
        "canon.us_per_key": (1e6 * ratio(self_s.get("canon.canonical_key", 0.0),
                                         calls.get("canon.canonical_key", 0)), "us"),
        "pfree.keys_per_graph": (ratio(trace.count_under("canon.canonical_key",
                                                         "pfree.enumerate_p5_free"),
                                       c["pfree.graphs"]), "ratio"),
        "colouring.read_certificate.bytes": (c["colouring.read_certificate.bytes"] / k,
                                             "bytes"),
        "verify.early_exit_frac": (ratio(c["verify.early_exits"],
                                         calls.get("colouring.verify_certificate", 0)),
                                   "fraction"),
        "trace.spans": (len(trace.spans) / k, "count"),
        "trace.overhead_frac": (statistics.median(map(pass_time, traced))
                                / statistics.median(map(pass_time, plain)) - 1, "fraction"),
    })
    for outcome in ("refuted", "witness", "budget-exhausted"):
        out[f"engine.outcome.{outcome}"] = (c[f"engine.outcome.{outcome}"] / k, "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ramsey_p5" / "__init__.py").is_file():
        print(f"error: no ramsey_p5 package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    failures: list[str] = []
    trace = None
    try:
        with HostClock() as clock:
            setups = []
            for _ in range(SETUP_REPS):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir()
                mark = clock.mark()
                ctx, ops, warm = set_up(args.workload, args.seed, workdir)
                setups.append(clock.busy(mark))
            for name, input_check in ctx.input_checks:
                try:
                    input_check()
                except (workloads.CheckFailed, oracle.Malformed) as exc:
                    failures.append(f"input {name}: {exc}")
            check(ops[0], warm, failures)
            bad_setup = len(failures)

            if args.trace:
                bindings = [m for name, m in sys.modules.items()
                            if name == "ramsey_p5" or name.startswith("ramsey_p5.")]
                trace = tracer.Tracer({layer: getattr(ctx.mods, layer) for layer in LAYERS},
                                      bindings, observers())
            passes = []
            start = clock.mark()[0]
            while True:
                traced = trace is not None and len(passes) % 2 == 1
                if traced:
                    trace.install()
                try:
                    passes.append((traced, run_pass(ops, clock, trace if traced else None,
                                                    failures)))
                finally:
                    if traced:
                        trace.uninstall()
                # at least two passes; another only if half of one still fits
                elapsed = clock.mark()[0] - start
                if len(passes) >= 2 and elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups = [(busy, clock.calibrate(start, end, busy)) for start, end, busy in setups]
    passes = [(traced, [Timed(r.op, r.busy, clock.calibrate(r.start, r.end, r.busy), r.units)
                        for r in recs]) for traced, recs in passes]
    attempted = sum(len(recs) for _traced, recs in passes) + 1 + len(ctx.input_checks)
    failed = len(failures)
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "optimize": sys.flags.optimize,
    }
    metrics, extra = end_to_end(ops, passes, setups)
    extra["fail_frac"] = failed / attempted
    extra["setup_failures"] = bad_setup
    extra["host_samples"] = len(clock.took)
    extra["host_kernel_ms"] = 1e3 * statistics.median(clock.took)
    if trace is not None:
        metrics = per_layer(trace, clock, passes)
        trace.write(str(OUT / f"spans-{tag}.jsonl"))
    for key, value in {**env, **extra}.items():
        print(f"{key}={value}")
    for name, (value, unit) in metrics.items():
        print(f"{name}={value} {unit}")
    for line in failures[:20]:
        print(f"failure={line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    per_op: dict[str, list[float]] = {}
    for _traced, recs in (p for p in passes if not p[0]):
        for r in recs:
            per_op.setdefault(f"{r.op} {ops[r.op].label}", []).append(r.cal)
    record = {**result, "env": env, "extra": extra, "setups": setups,
              "op_ms": {k: 1e3 * statistics.median(v) for k, v in per_op.items()},
              "passes": [(traced, pass_time(recs, "raw"), pass_time(recs))
                         for traced, recs in passes],
              "failures": failures}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
