"""Edge colourings of complete graphs, monochromatic-path checks, the
one-vertex lift, the Ramsey value table, lower-bound witnesses, and the
certificate file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Sequence

from .graphs import Graph, _from_rows, find_path

CERT_HEADER = "RAMSEY-P5 v1"
CLAIM_MONO_P5_FREE = "mono-p5-free"

# Witnesses whose design has at most 9 classes (r <= 10) are built or
# searched natively; beyond that the design must be supplied.
WITNESS_ATTEMPT_MAX = 9


class UnsupportedWitness(ValueError):
    """No native witness construction for this colour count, or a design
    search that proved the design it needs does not exist. A supplied
    design of any order is checked, never refused as unsupported."""


class WitnessBudgetExhausted(RuntimeError):
    """The design search behind a witness ran out of budget."""


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Index of pair (i, j), i < j, in (i, j)-lexicographic order."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class EdgeColouring:
    """Total colouring of the edges of K_n with colours 1..r, immutable.
    ``colours`` may be any sequence; it is checked and stored as a tuple."""

    n: int
    r: int
    colours: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("order must be non-negative")
        if self.r < 1:
            raise ValueError("need at least one colour")
        cols = tuple(self.colours)
        if len(cols) != pair_count(self.n):
            raise ValueError(
                f"expected {pair_count(self.n)} colour entries, got {len(cols)}")
        used = set(cols)
        if used and not (1 <= min(used) and max(used) <= self.r):
            for c in cols:  # name the first colour out of range
                if not 1 <= c <= self.r:
                    raise ValueError(f"colour {c} outside 1..{self.r}")
        object.__setattr__(self, "colours", cols)

    def colour_classes(self) -> Iterator[tuple[int, Graph]]:
        """Each colour that occurs, ascending, with its class. One pass over
        the colour table finds each pair's colour rows with one dict probe
        and sets both adjacency bits from a table of vertex bits, so the
        cost follows the edges and not the colour count. The rows are keyed
        by colour, not indexed by it, since r may be far above C(n, 2)."""
        n = self.n
        rows: dict[int, list[int]] = {}
        bits = [1 << v for v in range(n)]
        cols = iter(self.colours)
        for i in range(n):
            bit_i = bits[i]
            for j, col in zip(range(i + 1, n), cols):
                adj = rows.get(col)
                if adj is None:
                    adj = rows[col] = [0] * n
                adj[i] |= bits[j]
                adj[j] |= bit_i
        for col in sorted(rows):
            yield col, _from_rows(rows[col])


class MonoPath(NamedTuple):
    colour: int
    path: tuple[int, ...]


def find_mono_p5(c: EdgeColouring) -> MonoPath | None:
    """A monochromatic 5-vertex path in some colour class, or None. Exact.
    Only the colours that occur are tried, in ascending order, so the work
    follows the edges and not the colour count."""
    for colour, g in c.colour_classes():
        path = find_path(g, 5)
        if path is not None:
            return MonoPath(colour, path)
    return None


def lift(c: EdgeColouring) -> EdgeColouring:
    """Add one vertex whose incident edges all get the fresh colour r + 1.

    The new colour class is a star, which has no 4-vertex path, so lifting
    preserves freedom from monochromatic 5-vertex paths.
    """
    rows = iter(c.colours)
    cols: list[int] = []
    for left in range(c.n - 1, -1, -1):
        # row i of K_n, its n-1-i pairs (i, j > i), then the new pair (i, n)
        cols.extend(islice(rows, left))
        cols.append(c.r + 1)
    return EdgeColouring(c.n + 1, c.r + 1, cols)


def _forced_order(r: int) -> int:
    """The order at which Lemma 1's counting forces a monochromatic 5-vertex
    path in every r-colouring: 3r+1, 3r+2, 3r, 3r for r = 0, 1, 2, 3 mod 4."""
    return 3 * r + (1, 2, 0, 0)[r % 4]


def ramsey_value(r: int) -> int:
    """The r-colour Ramsey number of the 5-vertex path: the order from
    Lemma 1, except r = 4, where the value is 11."""
    if r < 1:
        raise ValueError("need at least one colour")
    return 11 if r == 4 else _forced_order(r)


# ---------------------------------------------------------------------------
# Lower-bound witnesses
# ---------------------------------------------------------------------------

# Ten points; each colour class is a disjoint union of cliques on these sets.
# Two pairs lie in several families; they get the smallest colour index.
_K10_CLIQUES: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((0, 1), (2, 3, 4, 5), (6, 7, 8, 9)),
    ((0, 2, 3, 8), (1, 6, 7, 4), (5, 9)),
    ((0, 6, 7, 5), (1, 2, 3, 9), (8, 4)),
    ((0, 4, 9), (1, 5, 8), (2, 3, 6, 7)),
)
# Certificate notes by r, for a witness that settles a choice its colours hide.
WITNESS_NOTES = {4: ("# overlapped pairs resolved to the smallest colour index",)}


def _first_cover_colours(n: int,
                         families: Sequence[Sequence[Sequence[int]]]) -> list[int]:
    """The colour of each pair of K_n, in pair_index order: the 1-based index
    of the first family with a block holding both ends, or 0 for a pair in
    no block."""
    cols = [0] * pair_count(n)
    for idx, blocks in enumerate(families, start=1):
        for block in blocks:
            for a, b in combinations(block, 2):
                p = pair_index(n, a, b)
                if cols[p] == 0:
                    cols[p] = idx
    return cols


def witness_k10() -> EdgeColouring:
    """The 4-colouring of K_10 with no monochromatic 5-vertex path."""
    return EdgeColouring(10, 4, _first_cover_colours(10, _K10_CLIQUES))


def witness(r: int, design=None, budget=None) -> EdgeColouring:
    """A colouring of K_N with no monochromatic 5-vertex path, where N is one
    less than the r-colour Ramsey number of the 5-vertex path. This is the
    one place that picks the construction for r.

    r = 4 is the hardcoded K_10 colouring. Every other r colours K_M from a
    resolvable block design with b classes, or b - 1 classes and the leave
    as colour b: the supplied ``design``, else one searched for natively
    when b <= 9. Mostly b = r and M = N; for r = 2 (mod 4), b = r - 1 and
    M = N - 1, and the colouring is lifted once at the end. Every route
    ends in one monochromatic-path re-check, which raises ValueError for a
    supplied design and AssertionError for a built colouring. Every
    refusal names r.
    """
    from . import designs  # local imports; both build on this module
    from .engine import SearchBudget

    lifted = r % 4 == 2
    base = r - lifted
    points = ramsey_value(r) - 1 - lifted
    if r == 4:
        if design is not None:
            raise ValueError("r=4 uses the dedicated 10-point construction")
        built = witness_k10()
    elif design is not None:
        if design.v != points:
            raise ValueError(f"witness for r={r} needs {points} points, "
                             f"design has {design.v}")
        ncl = len(design.classes)
        if ncl not in (base, base - 1):
            raise ValueError(f"expected {base} or {base - 1} classes, design has {ncl}")
        built = designs.design_to_colouring(
            design, leave_colour=None if ncl == base else base)
        if built.r != base:
            raise ValueError(f"design produces {built.r} colours, expected {base}")
    elif base > WITNESS_ATTEMPT_MAX:
        raise UnsupportedWitness(
            f"no native witness construction for r={r}; supply a design file")
    else:
        mode = "steiner" if points % 12 == 4 else "covering"
        result = designs.search_design(
            points, mode, base, budget or SearchBudget(nodes=5_000_000))
        if result.outcome == "exhausted":
            raise UnsupportedWitness(
                f"design search for r={r} (v={points}, {mode}) exhausted its space: "
                f"no such resolvable design exists; supply a design file")
        if result.design is None:
            raise WitnessBudgetExhausted(
                f"design search for r={r} (v={points}, {mode}) exhausted its budget; "
                f"retry with a larger budget or supply a design file")
        built = designs.design_to_colouring(result.design)
    if lifted:
        built = lift(built)
    mono = find_mono_p5(built)
    if mono is not None:
        if design is not None:
            raise ValueError(f"design colouring contains a monochromatic 5-path: {mono}")
        raise AssertionError(f"witness for r={r} has a monochromatic 5-vertex path")
    return built


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate(EdgeColouring):
    """An edge colouring with notes, to serialize; its file claims
    ``CLAIM_MONO_P5_FREE``, the only property the format carries.

    ``notes`` holds trailing comment lines verbatim (each starting with '#'),
    so that serialization round-trips byte for byte.
    """

    notes: tuple[str, ...] = ()

    @classmethod
    def from_colouring(cls, c: EdgeColouring,
                       notes: Sequence[str] = ()) -> "Certificate":
        packed = []
        for note in notes:
            packed.append(note if note.startswith("#") else "# " + note)
        return cls(c.n, c.r, c.colours, tuple(packed))


class ParseError(ValueError):
    """Parse failure of a certificate or design file, carrying the 1-based
    offending line (0 for the file as a whole)."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CertificateError(ParseError):
    """Certificate parse failure."""


def _file_lines(data: bytes, header: str, error: type[ParseError]) -> list[str]:
    """The lines of a file that is ASCII, ends in a newline and opens with
    the header line; the grammar both file formats share."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise error(0, f"not ASCII: {exc}") from None
    if not text.endswith("\n"):
        raise error(0, "missing trailing newline")
    lines = text[:-1].split("\n")
    if lines[0] != header:
        raise error(1, f"expected header {header!r}")
    return lines


def _strict_int(token: str, lineno: int, what: str, error: type[ParseError]) -> int:
    """A plain decimal: digits only, no sign, underscore or leading zero."""
    if not token.isdigit() or (token != "0" and token[0] == "0"):
        raise error(lineno, f"malformed {what}: {token!r}")
    return int(token)


def write_certificate(cert: Certificate) -> bytes:
    lines = [CERT_HEADER, f"n={cert.n} r={cert.r}", f"claim={CLAIM_MONO_P5_FREE}"]
    lines.extend(f"{i} {j} {c}" for (i, j), c in zip(pair_list(cert.n), cert.colours))
    for note in cert.notes:
        if not note.startswith("#") or "\n" in note or not note.isascii():
            raise ValueError(f"certificate note is not one ASCII '#' line: {note!r}")
        lines.append(note)
    return ("\n".join(lines) + "\n").encode("ascii")


def _edge_line(parts: list[str], lineno: int, i: int, j: int, r: int) -> int:
    """The colour of the edge line split into ``parts``, which must name the
    pair (i, j); CertificateError for a malformed line."""
    if len(parts) != 3:
        raise CertificateError(lineno, "expected '<i> <j> <c>'")
    ii = _strict_int(parts[0], lineno, "vertex", CertificateError)
    jj = _strict_int(parts[1], lineno, "vertex", CertificateError)
    c = _strict_int(parts[2], lineno, "colour", CertificateError)
    if (ii, jj) != (i, j):
        raise CertificateError(lineno, f"expected pair {i} {j}, got {ii} {jj}")
    if not 1 <= c <= r:
        raise CertificateError(lineno, f"colour {c} outside 1..{r}")
    return c


def _edge_section(lines: list[str], n: int, names: list[str],
                  colour_of: dict[str, int]) -> tuple[int, tuple[int, ...]]:
    """How many leading rows of the edge section are well formed, and their
    colours; row i holds the lines of the pairs (i, j), j > i.

    The section is joined with " \\n" between lines and split at spaces, so
    token 3k + 1 opens edge line k with a newline and only those tokens hold
    one. Each row's first names are counted and its second names compared as
    whole slices, and the colour tokens are looked up in one ``map``. No
    per-line Python step runs. A row whose names match has three tokens on
    each line but its last, whose count the next row's names show, or for
    the last row the section's token count. So the rows before the first
    refused row, less one, are taken, and a colour outside the table cuts
    them back to the rows before its own."""
    edges = n * (n - 1) // 2
    words = (" \n" + " \n".join(lines[3:3 + edges])).split(" ")
    a = 1
    for i in range(n - 1):
        b = a + 3 * (n - 1 - i)
        if (words[a:b:3].count("\n" + names[i]) != n - 1 - i
                or words[a + 1:b:3] != names[i + 1:]):
            break
        a = b
    else:
        i = n if len(words) == 1 + 3 * edges else n - 1
    rows = max(i - 1, 0)
    colours = words[3:3 * pair_index(n, rows, rows + 1) + 1:3]
    try:
        return rows, tuple(map(colour_of.__getitem__, colours))
    except KeyError:
        cols = list(map(colour_of.get, colours))
    k = cols.index(None)
    rows = 0
    while pair_index(n, rows + 1, rows + 2) <= k:
        rows += 1
    return rows, tuple(cols[:pair_index(n, rows, rows + 1)])


def read_certificate(data: bytes) -> Certificate:
    lines = _file_lines(data, CERT_HEADER, CertificateError)
    if len(lines) < 3:
        raise CertificateError(len(lines), "truncated certificate")
    head = lines[1].split(" ")
    if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("r="):
        raise CertificateError(2, "expected 'n=<n> r=<r>'")
    n = _strict_int(head[0][2:], 2, "order", CertificateError)
    r = _strict_int(head[1][2:], 2, "colour count", CertificateError)
    if r < 1:
        raise CertificateError(2, "need at least one colour")
    if lines[2] != f"claim={CLAIM_MONO_P5_FREE}":
        raise CertificateError(3, f"expected 'claim={CLAIM_MONO_P5_FREE}'")
    # Count the lines before any per-pair work, which grows as n^2.
    expected = n * (n - 1) // 2
    if len(lines) < 3 + expected:
        raise CertificateError(len(lines), f"expected {expected} edge lines")
    names = [str(v) for v in range(n)]
    colour_of = {str(c): c for c in range(1, min(r, expected) + 1)}
    rows, cols = _edge_section(lines, n, names, colour_of)
    if len(cols) < expected:
        # Line by line from the first row not taken: a well-formed line is
        # the decimal names of its pair and of a colour, so comparing
        # strings decides it. Any other line takes _edge_line, which
        # raises, or accepts a colour too large for the table.
        cols = list(cols)
        row = 3 + len(cols)
        for i in range(rows, n):
            name = names[i]
            for j in range(i + 1, n):
                parts = lines[row].split(" ")
                row += 1
                if len(parts) == 3 and parts[0] == name and parts[1] == names[j]:
                    c = colour_of.get(parts[2])
                    if c is not None:
                        cols.append(c)
                        continue
                cols.append(_edge_line(parts, row, i, j, r))
    notes = []
    for k, raw in enumerate(lines[3 + expected:]):
        lineno = 4 + expected + k
        if not raw.startswith("#"):
            raise CertificateError(lineno, "trailing lines must start with '#'")
        notes.append(raw)
    return Certificate(n, r, tuple(cols), tuple(notes))


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    violation: MonoPath | None

    def lines(self) -> list[str]:
        if self.ok:
            return ["outcome=pass"]
        path = ",".join(map(str, self.violation.path))
        return ["outcome=fail",
                f"witness_colour={self.violation.colour}",
                f"witness_path={path}"]


def verify_certificate(cert: Certificate) -> CertificateReport:
    """Re-run the monochromatic path search against the claimed property."""
    mono = find_mono_p5(cert)
    return CertificateReport(mono is None, mono)
