"""Edge colourings of complete graphs, monochromatic-path checks, the
one-vertex lift, pigeonhole counting, lower-bound witnesses, and the
certificate file format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .graphs import Graph, connected_components, ex_p5, find_path

CERT_HEADER = "RAMSEY-P5 v1"
CLAIM_MONO_P5_FREE = "mono-p5-free"

# Witnesses for r <= 9 are built or searched natively; beyond that the
# design must be supplied.
WITNESS_ATTEMPT_MAX = 9


class UnsupportedWitness(ValueError):
    """No native witness construction for this colour count."""


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


class EdgeColouring:
    """Total colouring of the edges of K_n with colours 1..r, immutable."""

    __slots__ = ("n", "r", "colours")

    def __init__(self, n: int, r: int, colours: Sequence[int]):
        if n < 0:
            raise ValueError("order must be non-negative")
        if r < 1:
            raise ValueError("need at least one colour")
        cols = tuple(colours)
        if len(cols) != pair_count(n):
            raise ValueError(
                f"expected {pair_count(n)} colour entries, got {len(cols)}")
        for c in cols:
            if not 1 <= c <= r:
                raise ValueError(f"colour {c} outside 1..{r}")
        self.n: int = n
        self.r: int = r
        self.colours: tuple[int, ...] = cols

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeColouring):
            return (self.n, self.r, self.colours) == (other.n, other.r, other.colours)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.colours))

    def colour(self, i: int, j: int) -> int:
        return self.colours[pair_index(self.n, i, j)]

    def colour_class(self, c: int) -> Graph:
        if not 1 <= c <= self.r:
            raise ValueError(f"colour {c} outside 1..{self.r}")
        edges = [p for p, col in zip(pair_list(self.n), self.colours) if col == c]
        return Graph(self.n, edges)

    def class_sizes(self) -> list[int]:
        sizes = [0] * (self.r + 1)
        for c in self.colours:
            sizes[c] += 1
        return sizes[1:]


class MonoPath(NamedTuple):
    colour: int
    path: tuple[int, ...]


def find_mono_p5(c: EdgeColouring) -> MonoPath | None:
    """A monochromatic 5-vertex path in some colour class, or None. Exact."""
    for colour in range(1, c.r + 1):
        path = find_path(c.colour_class(colour), 5)
        if path is not None:
            return MonoPath(colour, path)
    return None


def max_mono_component_order(c: EdgeColouring) -> int:
    """Largest vertex count of a component of any colour class."""
    best = 0
    for colour in range(1, c.r + 1):
        g = c.colour_class(colour)
        for comp in connected_components(g):
            if comp.bit_count() > 1:
                best = max(best, comp.bit_count())
    return best


def lift(c: EdgeColouring) -> EdgeColouring:
    """Add one vertex whose incident edges all get the fresh colour r + 1.

    The new colour class is a star, which has no 4-vertex path, so lifting
    preserves freedom from monochromatic 5-vertex paths.
    """
    n2 = c.n + 1
    cols = [0] * pair_count(n2)
    for (i, j), col in zip(pair_list(c.n), c.colours):
        cols[pair_index(n2, i, j)] = col
    for i in range(c.n):
        cols[pair_index(n2, i, c.n)] = c.r + 1
    return EdgeColouring(n2, c.r + 1, cols)


@dataclass(frozen=True)
class PigeonholeReport:
    n: int
    r: int
    bound: int
    turan: int
    relation: str  # forced | extremal | inconclusive

    def line(self) -> str:
        return (f"n={self.n} r={self.r} bound={self.bound} "
                f"turan={self.turan} relation={self.relation}")


def pigeonhole_check(n: int, r: int) -> PigeonholeReport:
    """Compare the guaranteed size of the most frequent colour class with the
    Turán bound for 5-vertex paths."""
    if r < 1:
        raise ValueError("need at least one colour")
    bound = -(-pair_count(n) // r)
    turan = ex_p5(n)
    if bound > turan:
        relation = "forced"
    elif bound == turan:
        relation = "extremal"
    else:
        relation = "inconclusive"
    return PigeonholeReport(n, r, bound, turan, relation)


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


def witness_k10() -> EdgeColouring:
    """The 4-colouring of K_10 with no monochromatic 5-vertex path."""
    n = 10
    cols = [0] * pair_count(n)
    for idx, cliques in enumerate(_K10_CLIQUES, start=1):
        for clique in cliques:
            for a in range(len(clique)):
                for b in range(a + 1, len(clique)):
                    p = pair_index(n, clique[a], clique[b])
                    if cols[p] == 0:
                        cols[p] = idx
    if 0 in cols:
        raise AssertionError("clique families fail to cover K_10")
    return EdgeColouring(n, 4, cols)


def witness(r: int, design=None, budget=None) -> EdgeColouring:
    """A colouring of K_N with no monochromatic 5-vertex path, where N is one
    less than the r-colour Ramsey number of the 5-vertex path.

    Dispatch: r=4 is the hardcoded K_10 colouring; r = 2 (mod 4) lifts the
    witness for r - 1; every other r, r=1 included, colours K_{g(r)} from a
    resolvable block design (searched natively for r <= 9, supplied via
    ``design`` beyond that). Every built colouring is re-checked here; a
    supplied design is checked by ``designs.witness_from_design``.
    """
    from . import designs  # local import; designs builds colourings from us

    if r < 1:
        raise ValueError("need at least one colour")
    if design is not None:
        return designs.witness_from_design(r, design)
    if r == 4:
        built = witness_k10()
    elif r % 4 == 2:
        built = lift(witness(r - 1, budget=budget))
    elif r > WITNESS_ATTEMPT_MAX:
        raise UnsupportedWitness(
            f"no native witness construction for r={r}; supply a design file")
    else:
        built = designs.witness_from_search(r, budget=budget)
    if find_mono_p5(built) is not None:
        raise AssertionError(f"witness for r={r} has a monochromatic 5-vertex path")
    return built


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Serialized colouring; its file claims ``CLAIM_MONO_P5_FREE``, the only
    property the format carries.

    ``notes`` holds trailing comment lines verbatim (each starting with '#'),
    so that serialization round-trips byte for byte.
    """

    n: int
    r: int
    colours: tuple[int, ...]
    notes: tuple[str, ...] = field(default=())

    def colouring(self) -> EdgeColouring:
        return EdgeColouring(self.n, self.r, self.colours)

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
    pairs = pair_list(cert.n)
    if len(pairs) != len(cert.colours):
        raise ValueError("colour table does not match order")
    lines.extend(f"{i} {j} {c}" for (i, j), c in zip(pairs, cert.colours))
    for note in cert.notes:
        if not note.startswith("#"):
            raise ValueError("certificate notes must start with '#'")
        lines.append(note)
    return ("\n".join(lines) + "\n").encode("ascii")


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
    # Count the lines before building the pair list, which grows as n^2.
    expected = n * (n - 1) // 2
    if len(lines) < 3 + expected:
        raise CertificateError(len(lines), f"expected {expected} edge lines")
    pairs = pair_list(n)
    cols = []
    for k, (i, j) in enumerate(pairs):
        lineno = 4 + k
        parts = lines[3 + k].split(" ")
        if len(parts) != 3:
            raise CertificateError(lineno, "expected '<i> <j> <c>'")
        ii = _strict_int(parts[0], lineno, "vertex", CertificateError)
        jj = _strict_int(parts[1], lineno, "vertex", CertificateError)
        c = _strict_int(parts[2], lineno, "colour", CertificateError)
        if (ii, jj) != (i, j):
            raise CertificateError(lineno, f"expected pair {i} {j}, got {ii} {jj}")
        if not 1 <= c <= r:
            raise CertificateError(lineno, f"colour {c} outside 1..{r}")
        cols.append(c)
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
    mono = find_mono_p5(cert.colouring())
    return CertificateReport(mono is None, mono)
