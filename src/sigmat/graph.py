"""Simple undirected graphs on dense integer vertices, graph6 codec and
line-stream reader, structural predicates, and the search filters
(``FILTERS``) built on them.

Vertices are always 0..n-1 and adjacency is stored as one integer bitmask per
vertex, which keeps set intersection (triangle tests, traversals) cheap for
the exhaustive searches built on top.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

    from . import bulk

MAX_GRAPH6_ORDER = 258047  # the 4-byte long-form header; the 8-byte form is not supported


class Graph6Error(ValueError):
    """Malformed graph6 record; ``offset`` is the byte position at fault and
    ``reason`` the message without it."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset


def pair_order(n: int) -> list[tuple[int, int]]:
    """Upper-triangle vertex pairs in column-major order, the graph6 bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def graph_from_mask(n: int, mask: int, pairs: list[tuple[int, int]] | None = None) -> Graph:
    """Graph for one edge-subset mask (bits in graph6 column-major order);
    ``pairs`` is ``pair_order(n)``, passed in by callers that decode many."""
    if pairs is None:
        pairs = pair_order(n)
    masks = [0] * n
    mm = int(mask)
    while mm:
        low = mm & -mm
        i, j = pairs[low.bit_length() - 1]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
        mm ^= low
    return Graph.from_masks(n, tuple(masks))


class Graph:
    """Immutable simple graph: no loops, no multi-edges, vertices 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range [0, {n})")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.adj = tuple(masks)

    @classmethod
    def from_masks(cls, n: int, masks: tuple[int, ...]) -> "Graph":
        """Wrap prevalidated adjacency bitmasks (hot path for enumerators)."""
        g = object.__new__(cls)
        g.n = n
        g.adj = masks
        return g

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        """Degrees in vertex order (not sorted)."""
        return tuple(a.bit_count() for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        mask = self.adj[v]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            mask = self.adj[u] >> (u + 1) << (u + 1)
            while mask:
                low = mask & -mask
                yield (u, low.bit_length() - 1)
                mask ^= low

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


@dataclass(frozen=True)
class DegreeStats:
    """Degree sequence summary: sorted degrees plus the derived scalars."""

    degrees: tuple[int, ...]  # non-increasing
    n: int
    m: int
    max_degree: int
    min_degree: int
    max_degree_count: int
    mean_degree: Fraction


def degree_stats(g: Graph) -> DegreeStats:
    """Sorted degree sequence with n, m, max/min degree, max-degree
    multiplicity and the exact mean 2m/n."""
    degs = sorted(g.degrees(), reverse=True)
    total = sum(degs)
    return DegreeStats(
        degrees=tuple(degs),
        n=g.n,
        m=total // 2,
        max_degree=degs[0],
        min_degree=degs[-1],
        max_degree_count=degs.count(degs[0]),
        mean_degree=Fraction(total, g.n),
    )


# ---------------------------------------------------------------------------
# graph6 codec (n <= 258047)
#
# Layout: a header giving n, then the C(n,2) upper-triangle bits in
# column-major order packed into 6-bit groups (first bit = high bit of the
# group), each group offset by 63. Trailing pad bits must be zero. The header
# is one byte chr(n + 63) for n <= 62, and for 63 <= n <= 258047 it is '~'
# followed by n as three 6-bit groups, most significant first, each offset
# by 63. The '~~' form for larger n is rejected.
# ---------------------------------------------------------------------------

_HEADER_PREFIX = ">>graph6<<"
_LONG = 126  # '~', the first byte of a long-form header


def require_graph6_order(n: int) -> None:
    """Raise Graph6Error if graph6 cannot encode a graph of order n."""
    if n > MAX_GRAPH6_ORDER:
        raise Graph6Error(f"graph6 supports n <= {MAX_GRAPH6_ORDER}, got n={n}")


def _header(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    require_graph6_order(n)
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def encode_graph6(g: Graph) -> str:
    """The graph6 record of g, packed without a per-pair Python loop."""
    header = _header(g.n)
    nbits = g.n * (g.n - 1) // 2
    padded = -(-nbits // 24) * 24  # whole base64 quanta, so no '=' padding
    # column j is rows 0..j-1 of adj[j], row 0 first: its low j bits reversed
    bits = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    packed = int(bits + "0" * (padded - nbits) or "0", 2).to_bytes(padded // 8, "big")
    # base64 cuts the bits into the same 6-bit groups; map its alphabet to 63..126
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    groups = base64.b64encode(packed).translate(bytes.maketrans(alphabet, bytes(range(63, 127))))
    return header + groups[:-(-nbits // 6)].decode("ascii")


def _read_header(data: bytes) -> tuple[int, int]:
    """The order a record declares and the length of its header."""
    head = data[0]
    if head != _LONG:
        if not 63 <= head <= 125:
            raise Graph6Error(f"invalid header byte {head}")
        return head - 63, 1
    if data[1:2] == b"~":
        raise Graph6Error(f"8-byte long-form header (n > {MAX_GRAPH6_ORDER}) not supported")
    if len(data) < 4:
        raise Graph6Error("truncated long-form header", offset=len(data))
    n = 0
    for k in range(1, 4):
        if not 63 <= data[k] <= 126:
            raise Graph6Error(f"invalid header byte {data[k]}", offset=k)
        n = n << 6 | data[k] - 63
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record; tolerates the optional '>>graph6<<' prefix."""
    s = text.strip()
    if s.startswith(_HEADER_PREFIX):
        s = s[len(_HEADER_PREFIX):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte in record", offset=exc.start) from None
    if not data:
        raise Graph6Error("empty record")
    n, start = _read_header(data)
    if n < 1:
        raise Graph6Error("graph order must be at least 1")
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(data) - start != expect:
        raise Graph6Error(
            f"expected {expect} payload bytes for n={n}, got {len(data) - start}",
            offset=len(data),
        )
    masks = [0] * n
    # (i, j) walks the pairs in graph6 bit order; j >= n on the padding bits
    i, j = 0, 1
    for k in range(start, start + expect):
        byte = data[k]
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid payload byte {byte}", offset=k)
        group = byte - 63
        if not group:  # six absent edges: step past their pairs
            i += 6
            while i >= j:
                i -= j
                j += 1
            continue
        for bit in (32, 16, 8, 4, 2, 1):
            if group & bit:
                if j >= n:
                    raise Graph6Error("nonzero padding bits", offset=k)
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            i += 1
            if i == j:
                i = 0
                j += 1
    return Graph.from_masks(n, tuple(masks))


def ingest_graph6(
    lines: Iterable[str],
    on_bad: Callable[[int, str, Graph6Error], None] | None = None,
) -> Iterator[Graph]:
    """Decode a line-oriented graph6 stream in order.

    Malformed lines raise with the 1-based line number, or, when an
    ``on_bad`` handler is given, are reported to it and dropped.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except Graph6Error as exc:
            if on_bad is not None:
                on_bad(lineno, line, exc)
                continue
            raise Graph6Error(f"line {lineno}: {exc.reason}", offset=exc.offset) from None


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    full = (1 << g.n) - 1
    seen = 1
    frontier = g.adj[0]
    while frontier:
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= g.adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
    return seen == full


def is_regular(g: Graph) -> bool:
    degs = g.degrees()
    return min(degs) == max(degs)


def find_triangle(g: Graph) -> tuple[int, int, int] | None:
    """A 3-clique (u, v, w) if one exists, else None."""
    for u in range(g.n):
        rest = g.adj[u] >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            common = g.adj[u] & g.adj[v]
            if common:
                return (u, v, (common & -common).bit_length() - 1)
            rest ^= low
    return None


def is_triangle_free(g: Graph) -> bool:
    return find_triangle(g) is None


def two_coloring(g: Graph) -> tuple[int, ...] | None:
    """Per-vertex colors 0/1 of a proper 2-coloring, or None if not bipartite.

    Isolated vertices and the first vertex of every component get color 0.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            mask = g.adj[u]
            while mask:
                low = mask & -mask
                v = low.bit_length() - 1
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
                mask ^= low
    return tuple(color)


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None


def is_complete_bipartite(g: Graph) -> bool:
    """True when some bipartition (A, B) has edge set exactly A x B.

    Edgeless graphs qualify with one empty side; with any edge present the
    graph must be connected, bipartite, and have all |A|*|B| cross edges.
    """
    degs = g.degrees()
    m2 = sum(degs)
    if m2 == 0:
        return True
    colors = two_coloring(g)
    if colors is None or not is_connected(g):
        return False
    a = colors.count(0)
    return m2 // 2 == a * (g.n - a)


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and is_connected(g)


def is_path_graph(g: Graph) -> bool:
    """Connected with degree multiset {1, 1, 2, ..., 2} (P_1 and P_2 included)."""
    if not is_tree(g):
        return False
    if g.n <= 2:
        return True
    degs = sorted(g.degrees())
    return degs[0] == degs[1] == 1 and degs[2] == degs[-1] == 2


# ---------------------------------------------------------------------------
# search filters
# ---------------------------------------------------------------------------

class GraphFilter(NamedTuple):
    """One search filter: the graphs it keeps of a stream (None keeps all),
    and the rows it keeps of a :class:`sigmat.bulk.MaskTable`."""

    keeps: Callable[[Graph], bool] | None
    rows: Callable[[bulk.MaskTable], np.ndarray | slice]


# every search filter by name, in the order the command line lists them
FILTERS = {
    "triangle-free": GraphFilter(is_triangle_free, lambda table: table.triangle_free),
    "tree": GraphFilter(is_tree, lambda table: table.deg.sum(axis=0, dtype="int16") == 2 * (table.n - 1)),
    "nonregular": GraphFilter(lambda g: not is_regular(g),
                              lambda table: table.deg.max(axis=0) != table.deg.min(axis=0)),
    "none": GraphFilter(None, lambda table: slice(None)),
}
