"""The four workloads, each a fixed list of ops built from the seed.

An op calls the program once, through ``cli.main`` with stdout captured or
through a public function, and its check compares the result with the pins
in ``expected.json`` and with the independent checks in ``oracle``. The seed
only shapes the inputs: node caps drawn from a fixed band, graph batches,
and the certificate and design-file mix.

* search: the exhaustive engine, refuting, finding a witness, and capped.
* design: resolvable-design search in Steiner, packing and covering modes,
  then writing witness certificates; the write side of the file formats.
* claims: the case-analysis checks, the P5-free enumeration sweep and
  canonical keys of random and highly symmetric 16-vertex graphs.
* verify: reading and verifying certificates and design files that pass,
  fail early or are malformed; the read side of the file formats.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracle

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# claims: random 16-vertex graphs per edge density, where refinement decides
# the key, and relabelled copies of symmetric graphs, where automorphism
# pruning does.
CANON_ORDER = 16
CANON_DENSITIES = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
CANON_PER_DENSITY = 12
CANON_SYMMETRIC_COPIES = 6

# verify: the lift chain from witness(6) reaches the 64-vertex graph cap, and
# random 2- and 3-colourings at orders >= R_3(P5) always hold a path.
LIFT_MAX_ORDER = 64
RANDOM_ORDERS = (12, 16, 24, 32, 40, 48, 56, 64)
RANDOM_COPIES = 4
CERT_DEFECTS = ("header", "newline", "colour", "order", "zero", "truncate",
                "trailer", "ascii")
DESIGN_DEFECTS = ("header", "newline", "range", "descending")
BROKEN_DESIGNS = 2


class CheckFailed(Exception):
    """An output that does not match its pin or an independent check."""


def need(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


@dataclass
class Op:
    label: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], int]  # raises CheckFailed, returns work units
    work: bool = True  # whether its units and time count toward work_per_s


class Context:
    """What a workload's ops share: the modules, the seeded generator, the
    directory for files, and checks already passed on identical outputs."""

    def __init__(self, mods: SimpleNamespace, workload: str, seed: int,
                 workdir: Path):
        self.mods = mods
        self.rng = random.Random(f"ramsey-p5-bench/{workload}/{seed}")
        self.workdir = workdir
        self.input_checks: list[tuple[str, Callable[[], None]]] = []
        self._seen: dict[bytes, str | None] = {}

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mods.cli.main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code
        return code, out.getvalue()

    def once(self, artifact: bytes, check: Callable[[], None]) -> None:
        """Run an independent check once per distinct output; the program is
        deterministic, so later passes compare bytes instead."""
        key = hashlib.sha256(artifact).digest()
        if key not in self._seen:
            try:
                check()
                self._seen[key] = None
            except (CheckFailed, oracle.Malformed) as exc:
                self._seen[key] = str(exc)
        why = self._seen[key]
        need(why is None, why or "")


def draw_cap(rng: random.Random, spec: dict) -> int | None:
    if "cap" not in spec:
        return None
    low, high = spec["cap"]
    return rng.randint(low, high)


def want_nodes(expect: dict, cap: int | None) -> int:
    return expect["nodes"] if "nodes" in expect else cap + expect["nodes_past_cap"]


def fields(text: str) -> tuple[dict[str, str], str | None]:
    """The key=value lines of CLI output, and a trailing certificate."""
    head, sep, tail = text.partition(oracle.CERT_HEADER + "\n")
    values = {}
    for line in head.splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values, (sep + tail if sep else None)


def check_certificate(data: bytes, n: int, r: int) -> None:
    got_n, got_r, colours = oracle.parse_certificate(data)
    need((got_n, got_r) == (n, r), f"certificate is n={got_n} r={got_r}")
    need(oracle.mono_p5_free(n, colours), "certificate has a monochromatic P5")


def take(path: Path) -> bytes:
    """Read an output file and remove it, so a later pass cannot pass on a
    stale copy."""
    data = path.read_bytes()
    path.unlink()
    return data


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def check_search(ctx: Context, spec: dict, cap: int | None, result) -> int:
    code, out = result
    expect = spec["expect"]
    values, cert = fields(out)
    need(code == expect["exit"], f"exit {code}")
    need(values.get("outcome") == expect["outcome"], f"outcome {values.get('outcome')}")
    nodes = int(values["nodes"])
    need(nodes == want_nodes(expect, cap), f"nodes {nodes}")
    if "depth" in expect:
        need(int(values["depth"]) == expect["depth"], f"depth {values['depth']}")
    if expect["outcome"] == "witness":
        need(cert is not None, "witness without certificate")
        data = cert.encode("ascii")
        ctx.once(data, partial(check_certificate, data, spec["n"], spec["r"]))
    else:
        need(cert is None, "certificate without witness")
    return nodes


def build_search(ctx: Context) -> list[Op]:
    ops = []
    for spec in EXPECTED["search"]:
        for _ in range(spec.get("draws", 1)):  # capped ops repeat, each with its own cap
            cap = draw_cap(ctx.rng, spec)
            argv = ["search", "--n", str(spec["n"]), "--r", str(spec["r"])]
            if cap is not None:
                argv += ["--nodes", str(cap)]
            ops.append(Op(" ".join(argv), "capped" if cap else "verdict",
                          partial(ctx.cli, argv), partial(check_search, ctx, spec, cap)))
    return ops


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------

def check_design_search(ctx: Context, spec: dict, cap: int | None, path: Path,
                        result) -> int:
    code, out = result
    expect = spec["expect"]
    values, _ = fields(out)
    need(code == expect["exit"], f"exit {code}")
    need(values.get("outcome") == expect["outcome"], f"outcome {values.get('outcome')}")
    nodes = int(values["nodes"])
    need(nodes == want_nodes(expect, cap), f"nodes {nodes}")
    if expect["outcome"] != "found":
        need(not path.exists(), "design file written without a design")
        return nodes
    need(values.get("file") == str(path), "design file not reported")
    data = take(path)
    v, mode, classes = spec["v"], spec["mode"], spec["classes"]
    ctx.once(data, lambda: need(oracle.design_ok(data, v, mode, classes),
                                "design fails pair coverage or partition"))
    return nodes


def check_witness(ctx: Context, spec: dict, path: Path, result) -> int:
    code, out = result
    expect = spec["expect"]
    need(code == expect["exit"], f"exit {code}")
    if code != 0:
        need(out == "" and not path.exists(), "output without a witness")
        return 0
    r, n = spec["r"], expect["n"]
    need(out == f"r={r} n={n} file={path} verified=true\n", f"stdout {out!r}")
    data = take(path)
    ctx.once(data, partial(check_certificate, data, n, r))
    return 0


def build_design(ctx: Context) -> list[Op]:
    ops = []
    for spec in EXPECTED["design"]["search"]:
        cap = draw_cap(ctx.rng, spec)
        path = ctx.workdir / f"v{spec['v']}-{spec['mode']}.design"
        argv = ["design", "search", "--v", str(spec["v"]), "--mode", spec["mode"],
                "--classes", str(spec["classes"]), "-o", str(path)]
        if cap is not None:
            argv += ["--nodes", str(cap)]
        ops.append(Op(" ".join(argv[:8]), "design-search", partial(ctx.cli, argv),
                      partial(check_design_search, ctx, spec, cap, path)))
    for spec in EXPECTED["design"]["witness"]:
        cap = draw_cap(ctx.rng, spec)
        path = ctx.workdir / f"w{spec['r']}.cert"
        argv = ["witness", str(spec["r"]), "-o", str(path)]
        if cap is not None:
            argv += ["--nodes", str(cap)]
        ops.append(Op(f"witness {spec['r']}", "witness", partial(ctx.cli, argv),
                      partial(check_witness, ctx, spec, path), work=False))
    return ops


# ---------------------------------------------------------------------------
# claims
# ---------------------------------------------------------------------------

def turan_p5(n: int) -> int:
    a, b = divmod(n, 4)
    return 6 * a + b * (b - 1) // 2


def check_claims(expect: dict, result) -> int:
    code, out = result
    need(code == expect["exit"], f"exit {code}")
    need(out.splitlines() == expect["lines"], f"claims output {out!r}")
    return 1


def adjacency_sets(n: int, rows: tuple[int, ...]) -> list[set[int]]:
    return [{w for w in range(n) if row >> w & 1} for row in rows]


def check_sweep_graphs(graphs: tuple, n: int, m: int) -> None:
    for g in graphs:
        need(g.n == n, f"graph on {g.n} vertices")
        adj = adjacency_sets(n, g.adj)
        need(sum(len(s) for s in adj) == 2 * m, "wrong edge count")
        need(not oracle.has_p5(adj), "enumerated graph has a P5")


def check_sweep(ctx: Context, n: int, m: int, count: int, result) -> int:
    need(len(result) == count, f"{len(result)} graphs")
    digest = repr([g.adj for g in result]).encode("ascii")
    ctx.once(digest, partial(check_sweep_graphs, result, n, m))
    return len(result)


class KeyBook:
    """Keys seen so far: a relabelled copy must get its original's key, and
    equal keys must come with equal degree sequences."""

    def __init__(self):
        self.first: dict[int, bytes] = {}
        self.degrees: dict[bytes, tuple[int, ...]] = {}

    def check(self, pair: int, copy: bool, degrees: tuple[int, ...], key) -> int:
        need(isinstance(key, bytes) and len(key) == 16 and key[0] == CANON_ORDER,
             f"key {key!r}")
        need(self.degrees.setdefault(key, degrees) == degrees,
             "one key for two degree sequences")
        if copy:
            need(self.first.get(pair) == key, "relabelled copy changed the key")
        else:
            self.first[pair] = key
        return 1


def symmetric_edges() -> dict[str, list[tuple[int, int]]]:
    n = CANON_ORDER
    return {
        "4K4": [e for q in range(4) for e in combinations(range(4 * q, 4 * q + 4), 2)],
        "star": [(0, w) for w in range(1, n)],
        "empty": [],
        "C16": [(v, (v + 1) % n) for v in range(n)],
    }


def canon_batch(rng: random.Random) -> list[tuple[str, list[tuple[int, int]]]]:
    n = CANON_ORDER
    pairs = list(combinations(range(n), 2))
    batch = []
    for p in CANON_DENSITIES:
        for _ in range(CANON_PER_DENSITY):
            batch.append((f"p={p}", [e for e in pairs if rng.random() < p]))
    for name, edges in symmetric_edges().items():
        for _ in range(CANON_SYMMETRIC_COPIES):
            batch.append((name, relabel(rng, edges)))
    return batch


def relabel(rng: random.Random, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    perm = rng.sample(range(CANON_ORDER), CANON_ORDER)
    return [(perm[u], perm[w]) for u, w in edges]


def degree_sequence(edges: list[tuple[int, int]]) -> tuple[int, ...]:
    deg = [0] * CANON_ORDER
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    return tuple(sorted(deg))


def build_claims(ctx: Context) -> list[Op]:
    spec = EXPECTED["claims"]
    sweep = spec["sweep"]
    want_keys = [f"{n},{m}" for n in range(1, 13) for m in range(turan_p5(n) + 1)]
    ctx.input_checks.append(("sweep table", lambda: need(
        list(sweep) == want_keys and sum(sweep.values()) == spec["sweep_total"],
        "sweep pins do not cover n=1..12, m=0..ex(n) or miss the total")))
    ops = [Op("claims --all", "claims", partial(ctx.cli, ["claims", "--all"]),
              partial(check_claims, spec["claims_all"]))]
    pfree = ctx.mods.pfree
    for key, count in sweep.items():
        n, m = map(int, key.split(","))
        ops.append(Op(f"enumerate_p5_free({n}, {m})", "enumerate",
                      lambda n=n, m=m: pfree.enumerate_p5_free(n, m),
                      partial(check_sweep, ctx, n, m, count)))
    book = KeyBook()
    Graph, canon = ctx.mods.graphs.Graph, ctx.mods.canon
    for k, (name, edges) in enumerate(canon_batch(ctx.rng)):
        degrees = degree_sequence(edges)
        for copy, es in ((False, edges), (True, relabel(ctx.rng, edges))):
            g = Graph(CANON_ORDER, es)
            ops.append(Op(f"canonical_key({name}{' copy' if copy else ''})", "canon",
                          lambda g=g: canon.canonical_key(g),
                          partial(book.check, k, copy, degrees)))
    return ops


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cert_bytes(n: int, r: int, colours: list[int]) -> bytes:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lines = [oracle.CERT_HEADER, f"n={n} r={r}", oracle.CERT_CLAIM]
    lines += [f"{i} {j} {c}" for (i, j), c in zip(pairs, colours)]
    return ("\n".join(lines) + "\n").encode("ascii")


def design_bytes(v: int, mode: str, classes: list[list[tuple[int, ...]]]) -> bytes:
    lines = [oracle.DESIGN_HEADER, f"v={v} k=4 mode={mode}"]
    for cno, cls in enumerate(classes, start=1):
        lines.append(f"P {cno}")
        lines += [" ".join(map(str, b)) for b in sorted(cls)]
    return ("\n".join(lines) + "\n").encode("ascii")


def break_certificate(rng: random.Random, data: bytes, defect: str) -> bytes:
    """A copy of a valid certificate with one defect the format forbids."""
    lines = data.decode("ascii").split("\n")  # ends with "" after the newline
    r = int(lines[1].split("r=")[1])
    k = rng.randrange(3, len(lines) - 2)  # an edge line with one after it
    i, j, _c = lines[k].split(" ")
    if defect == "header":
        lines[0] = "RAMSEY-P5 v2"
    elif defect == "newline":
        return data[:-1]
    elif defect == "colour":
        lines[k] = f"{i} {j} {r + 1}"
    elif defect == "order":
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif defect == "zero":
        lines[k] = f"{i} {j} 0{_c}"
    elif defect == "truncate":
        lines = lines[:k] + [""]
    elif defect == "trailer":
        lines.insert(len(lines) - 1, "trailing text")
    elif defect == "ascii":
        return ("\n".join(lines[:k] + [lines[k] + "é"] + lines[k + 1:])
                ).encode("latin-1")
    return "\n".join(lines).encode("ascii")


def break_design(rng: random.Random, data: bytes, defect: str) -> bytes:
    lines = data.decode("ascii").split("\n")
    blocks = [k for k, line in enumerate(lines[:-1]) if k >= 2 and not line.startswith("P ")]
    k = rng.choice(blocks)
    points = lines[k].split(" ")
    if defect == "header":
        lines[0] = "DESIGN v2"
    elif defect == "newline":
        return data[:-1]
    elif defect == "range":
        v = int(lines[1].split(" ")[0][2:])
        lines[k] = " ".join(points[:3] + [str(v)])
    elif defect == "descending":
        lines[k] = " ".join(reversed(points))
    return "\n".join(lines).encode("ascii")


def swap_points(rng: random.Random, classes: list[list[tuple[int, ...]]]):
    """Swap one point between two blocks of a class: every class still
    partitions the points, but some pairs are now covered twice."""
    out = [list(cls) for cls in classes]
    cls = out[rng.randrange(len(out))]
    a, b = rng.sample(range(len(cls)), 2)
    x, y = rng.choice(cls[a]), rng.choice(cls[b])
    cls[a] = tuple(sorted(set(cls[a]) - {x} | {y}))
    cls[b] = tuple(sorted(set(cls[b]) - {y} | {x}))
    return out


def check_verify_cert(kind: str, parse: Callable, result) -> int:
    code, out = result
    expect = EXPECTED["verify"][kind]
    if expect == "pass":
        need((code, out) == (0, "outcome=pass\n"), f"exit {code} {out!r}")
    elif expect == "reject":
        need((code, out) == (2, ""), f"exit {code} {out!r}")
    else:
        values, _ = fields(out)
        need(code == 1 and values.get("outcome") == "fail", f"exit {code} {out!r}")
        path = [int(p) for p in values["witness_path"].split(",")]
        colours = parse()[2]
        need(oracle.is_mono_path(colours, int(values["witness_colour"]), path),
             f"reported path {path} is not a monochromatic P5")
    return 1


def check_verify_design(kind: str, parse: Callable, result) -> int:
    code, out = result
    expect = EXPECTED["verify"][kind]
    if expect == "reject":
        need((code, out) == (2, ""), f"exit {code} {out!r}")
        return 1
    v, mode, classes = parse()
    counts = oracle.pair_counts(v, [b for cls in classes for b in cls])
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    lines = out.splitlines()
    if expect == "pass":
        want = [f"mode={mode} ok=true", "resolution_ok=true"]
        if mode == "packing":
            want.append(f"leave_edges={counts.count(0)}")
        need((code, lines) == (0, want), f"exit {code} {out!r}")
        return 1
    bad = [(p, c) for p, c in zip(pairs, counts) if c != 1]
    want = [f"mode={mode} ok=false"]
    want += [f"violation=pair {i} {j} multiplicity={c}" for (i, j), c in bad[:20]]
    want.append("resolution_ok=true")
    need((code, lines) == (1, want), f"exit {code} {out!r}")
    return 1


def build_verify(ctx: Context) -> list[Op]:
    mods, rng, rows = ctx.mods, ctx.rng, []  # rows: (name, data, kind)
    colouring, designs = mods.colouring, mods.designs
    col = colouring.witness(6)
    while True:
        cert = colouring.Certificate.from_colouring(col)
        rows.append((f"lift-{col.n}", colouring.write_certificate(cert), "lift"))
        if col.n == LIFT_MAX_ORDER:
            break
        col = colouring.lift(col)
    for n in RANDOM_ORDERS:
        for copy in range(RANDOM_COPIES):
            r = 2 + copy % 2
            colours = [rng.randint(1, r) for _ in range(n * (n - 1) // 2)]
            rows.append((f"random-{n}-{r}-{copy}", cert_bytes(n, r, colours), "random"))
    sound = [data for _name, data, _kind in rows]
    for k, defect in enumerate(CERT_DEFECTS * 2):
        rows.append((f"malformed-{defect}-{k}",
                     break_certificate(rng, rng.choice(sound), defect), "malformed"))
    found = [(spec["v"], spec["mode"], spec["classes"])
             for spec in EXPECTED["design"]["search"] if "cap" not in spec]
    found.append((8, "covering", 3))
    designed = []
    for v, mode, nclasses in found:
        design = designs.search_design(v, mode, nclasses).design
        designed.append(designs.write_design(design, mode))
    v, mode, classes = oracle.parse_design(designed[0])
    perm = rng.sample(range(v), v)
    moved = [[tuple(sorted(perm[p] for p in b)) for b in cls] for cls in classes]
    designed.append(design_bytes(v, mode, moved))
    for k, data in enumerate(designed):
        rows.append((f"design-{k}", data, "design"))
    for k in range(BROKEN_DESIGNS):
        rows.append((f"design-broken-{k}", design_bytes(v, mode, swap_points(rng, moved)),
                     "design-broken"))
    for defect in DESIGN_DEFECTS:
        rows.append((f"design-malformed-{defect}",
                     break_design(rng, rng.choice(designed), defect), "design-malformed"))
    rng.shuffle(rows)
    ops = []
    for name, data, kind in rows:
        path = ctx.workdir / name
        path.write_bytes(data)
        is_design = kind.startswith("design")
        # parsed on first use, after set-up
        parse = functools.cache(partial(
            oracle.parse_design if is_design else oracle.parse_certificate, data))
        ctx.input_checks.append((name, partial(check_input, kind, parse)))
        if is_design:
            ops.append(Op(f"design verify {name}", "design-file",
                          partial(ctx.cli, ["design", "verify", str(path)]),
                          partial(check_verify_design, kind, parse)))
        else:
            ops.append(Op(f"verify {name}", "cert", partial(ctx.cli, ["verify", str(path)]),
                          partial(check_verify_cert, kind, parse)))
    return ops


def check_input(kind: str, parse: Callable) -> None:
    """Confirm, independently, that a generated file is what its kind says."""
    if kind.endswith("malformed"):
        try:
            parse()
        except oracle.Malformed:
            return
        raise CheckFailed("the malformed copy parses")
    if kind.startswith("design"):
        v, mode, classes = parse()
        need(oracle.classes_partition(v, classes), "a class is not a partition")
        need(oracle.coverage_ok(v, mode, classes) == (kind == "design"),
             "pair coverage disagrees with the file's kind")
        return
    n, _r, colours = parse()
    need(oracle.mono_p5_free(n, colours) == (kind == "lift"),
         "monochromatic P5 presence disagrees with the file's kind")


BUILDERS: dict[str, Callable[[Context], list[Op]]] = {
    "search": build_search,
    "design": build_design,
    "claims": build_claims,
    "verify": build_verify,
}
