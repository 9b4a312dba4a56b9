"""Independent output checks for the benchmark.

Nothing here imports the package under test: the certificate and design
formats are parsed afresh, monochromatic 5-vertex paths are found by a
different algorithm (a middle vertex with two extendable neighbours, over
adjacency sets), and designs are checked by counting pairs directly.
Every check is an explicit comparison, so it still runs under ``python -O``.
"""

from __future__ import annotations

from itertools import combinations

CERT_HEADER = "RAMSEY-P5 v1"
CERT_CLAIM = "claim=mono-p5-free"
DESIGN_HEADER = "DESIGN v1"


class Malformed(ValueError):
    """Text that the file format does not allow."""


def _nat(token: str) -> int:
    if not token.isdigit() or (len(token) > 1 and token[0] == "0"):
        raise Malformed(f"bad number {token!r}")
    return int(token)


def parse_certificate(data: bytes) -> tuple[int, int, dict[tuple[int, int], int]]:
    """(n, r, colour of every pair i < j) of a certificate, strictly."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise Malformed("not ASCII") from None
    if not text.endswith("\n"):
        raise Malformed("no trailing newline")
    lines = text[:-1].split("\n")
    if len(lines) < 3 or lines[0] != CERT_HEADER or lines[2] != CERT_CLAIM:
        raise Malformed("bad header")
    head = lines[1].split(" ")
    if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("r="):
        raise Malformed("bad order line")
    n, r = _nat(head[0][2:]), _nat(head[1][2:])
    want = [(i, j) for i in range(n) for j in range(i + 1, n)]
    body = lines[3:3 + len(want)]
    if len(body) != len(want):
        raise Malformed("truncated")
    colours = {}
    for pair, line in zip(want, body):
        parts = line.split(" ")
        if len(parts) != 3:
            raise Malformed(f"bad edge line {line!r}")
        i, j, c = (_nat(p) for p in parts)
        if (i, j) != pair or not 1 <= c <= r:
            raise Malformed(f"bad edge line {line!r}")
        colours[pair] = c
    for line in lines[3 + len(want):]:
        if not line.startswith("#"):
            raise Malformed(f"trailing line {line!r}")
    return n, r, colours


def colour_classes(n: int, colours: dict[tuple[int, int], int]) -> dict[int, list[set[int]]]:
    classes: dict[int, list[set[int]]] = {}
    for (i, j), c in colours.items():
        adj = classes.setdefault(c, [set() for _ in range(n)])
        adj[i].add(j)
        adj[j].add(i)
    return classes


def has_p5(adj: list[set[int]]) -> bool:
    """Whether the graph has a path x-a-m-b-y on five distinct vertices."""
    for m, around in enumerate(adj):
        inner = [a for a in around if len(adj[a]) >= 2]
        for a, b in combinations(inner, 2):
            xs = adj[a] - {m, b}
            ys = adj[b] - {m, a}
            if xs and ys and len(xs | ys) >= 2:
                return True
    return False


def mono_p5_free(n: int, colours: dict[tuple[int, int], int]) -> bool:
    return not any(has_p5(adj) for adj in colour_classes(n, colours).values())


def is_mono_path(colours: dict[tuple[int, int], int], colour: int,
                 path: list[int]) -> bool:
    """Whether ``path`` lists five distinct vertices joined in ``colour``."""
    if len(path) != 5 or len(set(path)) != 5:
        return False
    for u, w in zip(path, path[1:]):
        if colours.get((min(u, w), max(u, w))) != colour:
            return False
    return True


def parse_design(data: bytes) -> tuple[int, str, list[list[tuple[int, ...]]]]:
    """(v, mode, parallel classes as block lists) of a resolvable design."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        raise Malformed("not ASCII") from None
    if not text.endswith("\n"):
        raise Malformed("no trailing newline")
    lines = text[:-1].split("\n")
    if len(lines) < 2 or lines[0] != DESIGN_HEADER:
        raise Malformed("bad header")
    head = lines[1].split(" ")
    if len(head) != 3 or head[1] != "k=4" or not head[0].startswith("v=") \
            or not head[2].startswith("mode="):
        raise Malformed("bad parameter line")
    v, mode = _nat(head[0][2:]), head[2][5:]
    if mode not in ("steiner", "covering", "packing"):
        raise Malformed(f"bad mode {mode!r}")
    classes: list[list[tuple[int, ...]]] = []
    for line in lines[2:]:
        if line == f"P {len(classes) + 1}":
            classes.append([])
            continue
        if not classes:
            raise Malformed("block before the first class")
        block = tuple(_nat(p) for p in line.split(" "))
        if len(block) != 4 or list(block) != sorted(set(block)) or block[-1] >= v:
            raise Malformed(f"bad block {line!r}")
        if classes[-1] and block < classes[-1][-1]:
            raise Malformed("blocks out of order")
        classes[-1].append(block)
    return v, mode, classes


def pair_counts(v: int, blocks: list[tuple[int, ...]]) -> list[int]:
    """How many blocks hold each pair, in (i, j) row order."""
    counts = {(i, j): 0 for i in range(v) for j in range(i + 1, v)}
    for block in blocks:
        for pair in combinations(block, 2):
            counts[pair] += 1
    return list(counts.values())


def coverage_ok(v: int, mode: str, classes: list[list[tuple[int, ...]]]) -> bool:
    counts = pair_counts(v, [b for cls in classes for b in cls])
    if mode == "steiner":
        return all(c == 1 for c in counts)
    if mode == "covering":
        return all(c >= 1 for c in counts)
    return all(c <= 1 for c in counts)


def classes_partition(v: int, classes: list[list[tuple[int, ...]]]) -> bool:
    """Whether every parallel class covers each point exactly once."""
    for cls in classes:
        points = sorted(p for block in cls for p in block)
        if points != list(range(v)):
            return False
    return True


def design_ok(data: bytes, v: int, mode: str, nclasses: int) -> bool:
    got_v, got_mode, classes = parse_design(data)
    return (got_v == v and got_mode == mode and len(classes) == nclasses
            and classes_partition(v, classes) and coverage_ok(v, mode, classes))

