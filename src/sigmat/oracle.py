"""Exhaustive enumeration of small labeled graphs, extremal search over them
and over graph6 streams, the verdict records of every search and
conjecture, conjecture 1, and the identity suite.

Graph enumeration is labeled, not isomorphism-reduced: every quantity
tested is isomorphism-invariant, so scanning all 2^C(n,2) edge subsets
proves the same statements while avoiding canonical forms. The internal
limit is n <= 7 for graphs, checked by one helper before a sweep does any
other work (the tree sweeps of :mod:`sigmat.trees` call it with their own
limits); larger orders arrive through graph6 line streams produced by
external generators. A search filter is one entry of ``graph.FILTERS``,
which says what it keeps of a stream and of a mask table.

Searches over the edge-subset space walk it in fixed chunks of
``bulk.CHUNK_MASKS`` masks, read when the sweep starts, so memory stays
bounded whatever the order. One sweep engine makes, scans and counts every
chunk in order on the calling thread; a statement passes it only its scan.
The engine, like the exhaustive enumerator, checks the connected graphs it
visited against A001187's count (:func:`connected_graph_count`): a
mismatch raises ArithmeticError naming both counts. Only these sweeps
import :mod:`sigmat.bulk`, and numpy with it.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .graph import FILTERS, Graph, encode_graph6, graph_from_mask, is_connected, pair_order
from .invariants import degree_variance, sigma, sigma_t, sigma_t_pairsum, zagreb_m1

if TYPE_CHECKING:
    import numpy as np

    from . import bulk

log = logging.getLogger("sigmat.oracle")

MAX_ENUM_ORDER = 7
WITNESS_CAP = 16


class LimitError(ValueError):
    """Requested order is beyond the internal enumeration limits."""


def _require_order(n: int, least: int, sweep: str, most: int = MAX_ENUM_ORDER) -> None:
    """The order limit of every sweep: raise LimitError unless
    ``least <= n <= most``, where ``most`` is MAX_ENUM_ORDER for a graph
    sweep, past which graphs come as a stream."""
    if not least <= n <= most:
        stream = most == MAX_ENUM_ORDER and n > most
        hint = "; feed larger graphs as a graph6 stream (ingest_graph6)" if stream else ""
        raise LimitError(f"{sweep} covers {least} <= n <= {most}, got n={n}{hint}")


def enumerate_connected_graphs(n: int, mask_range: tuple[int, int] | None = None) -> Iterator[Graph]:
    """Every labeled simple connected graph on n vertices, exactly once, in
    ascending edge-mask order. Independent of :mod:`sigmat.bulk`, whose tables
    are checked against it. Without ``mask_range``, one that yields other
    than A001187's c_n graphs raises ArithmeticError when exhausted."""
    _require_order(n, 1, "graph enumeration")
    pairs = pair_order(n)
    lo, hi = mask_range if mask_range is not None else (0, 1 << len(pairs))
    visited = 0
    for mask in range(lo, hi):
        g = graph_from_mask(n, mask, pairs)
        if is_connected(g):
            visited += 1
            yield g
    if mask_range is None and visited != connected_graph_count(n):
        raise ArithmeticError(f"graph enumeration at n={n} visited {visited} connected graphs, "
                              f"A001187 gives {connected_graph_count(n)}")


def random_graphs(n: int, count: int, seed: int) -> Iterator[Graph]:
    """``count`` uniform random graphs (edge probability 1/2) from an
    explicit seed; the stream is reproducible. The arguments are checked
    when it is called, before any graph is drawn."""
    if n < 1:
        raise ValueError(f"random graphs need n >= 1, got n={n}")
    if count < 0:
        raise ValueError(f"random graph count must be >= 0, got {count}")
    pairs = pair_order(n)
    rng = random.Random(seed)
    nbits = len(pairs)
    return (graph_from_mask(n, rng.getrandbits(nbits), pairs) for _ in range(count))


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """Extremal value of sigma_t over a graph family with labeled witnesses.

    ``witnesses`` is capped at WITNESS_CAP entries; ``tie_count`` is always
    the exact number of graphs attaining the value.
    """

    family_description: str
    n: int
    objective: str
    extreme_value: int
    witnesses: tuple[str, ...]
    tie_count: int
    graphs_visited: int


@dataclass
class Tally:
    """An exact count and the first WITNESS_CAP keys in visiting order: the
    one reducer behind every count and witness list of the graph searches.
    Merging chunk partials in chunk order gives the same tally as one pass."""

    count: int = 0
    keys: list = field(default_factory=list)

    @classmethod
    def of(cls, keys: np.ndarray) -> "Tally":
        """Partial for one chunk's selected keys, in visiting order."""
        return cls(int(keys.size), keys[:WITNESS_CAP].tolist())

    def merge(self, part: "Tally") -> None:
        self.count += part.count
        self.keys.extend(part.keys[:WITNESS_CAP - len(self.keys)])


class Extreme:
    """Running max or min of sigma_t over a family: the graphs visited, and
    the graphs attaining it as one :class:`Tally` of keys.

    Keys are Graphs (from a stream) or edge masks (from a sweep chunk),
    which :meth:`result` encodes.
    """

    def __init__(self, objective: str):
        if objective not in ("max", "min"):
            raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
        self.objective = objective
        self.value: int | None = None
        self.hits = Tally()
        self.visited = 0

    @classmethod
    def of_chunk(cls, objective: str, values: np.ndarray, keys: np.ndarray) -> "Extreme":
        """Partial for one chunk, where ``values[k]`` is sigma_t of ``keys[k]``."""
        part = cls(objective)
        part.visited = int(values.size)
        if values.size:
            part.value = int(values.max() if objective == "max" else values.min())
            part.hits = Tally.of(keys[values == part.value])
        return part

    def add(self, value: int, key) -> None:
        self.visited += 1
        self._fold(value, Tally(1, [key]))

    def merge(self, part: "Extreme") -> None:
        self.visited += part.visited
        if part.value is not None:
            self._fold(part.value, part.hits)

    def _fold(self, value: int, hits: Tally) -> None:
        best = self.value
        if best is None or (value > best if self.objective == "max" else value < best):
            self.value, self.hits = value, hits
        elif value == best:
            self.hits.merge(hits)

    def result(self, n: int, description: str, missing: str) -> SearchResult:
        """The finished search; an empty family, named by ``missing``, raises."""
        if self.value is None:
            raise ValueError(f"empty family: no {missing}")
        return SearchResult(
            family_description=description,
            n=n,
            objective=f"{self.objective}-sigma-t",
            extreme_value=self.value,
            witnesses=_graph6(n, self.hits.keys),
            tie_count=self.hits.count,
            graphs_visited=self.visited,
        )


def _graph6(n: int, items: list) -> tuple[str, ...]:
    """graph6 strings for Graphs or edge masks of order n."""
    pairs = pair_order(n)
    return tuple(
        encode_graph6(w if isinstance(w, Graph) else graph_from_mask(n, w, pairs)) for w in items
    )


def _of_order(graphs: Iterable[Graph], n: int) -> Iterator[Graph]:
    """The stream, checking that every graph in it has order n."""
    for g in graphs:
        if g.n != n:
            raise ValueError(f"stream graph has order {g.n}, expected {n}")
        yield g


def search_extremal(
    graphs: Iterable[Graph],
    objective: str,
    predicate: Callable[[Graph], bool] | None = None,
    description: str = "stream",
    n: int | None = None,
) -> SearchResult:
    """Scan a graph stream for the max or min sigma_t; deterministic given
    the stream order. With ``n``, every graph of the stream, kept or not,
    must have order n."""
    best = Extreme(objective)
    n_seen: int | None = None
    for g in graphs if n is None else _of_order(graphs, n):
        if predicate is not None and not predicate(g):
            continue
        if n_seen is None:
            n_seen = g.n
        elif g.n != n_seen:
            raise ValueError(f"mixed graph orders in stream: {n_seen} and {g.n}")
        best.add(sigma_t(g), g)
    return best.result(n_seen, description, "graphs left after filtering")


@lru_cache(maxsize=None)
def connected_graph_count(n: int) -> int:
    """The number of labeled connected graphs on n >= 1 vertices (OEIS
    A001187), by c_n = 2^C(n,2) - sum_{k<n} C(n-1, k-1) c_k 2^C(n-k,2): the
    graphs whose vertex 0 lies in a component of k vertices, subtracted for
    every k < n. Independent of the sweeps, which check their rows against it."""
    return (1 << n * (n - 1) // 2) - sum(
        math.comb(n - 1, k - 1) * connected_graph_count(k) << (n - k) * (n - k - 1) // 2
        for k in range(1, n))


def chunk_ranges(n: int) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges of ``bulk.CHUNK_MASKS`` masks tiling the
    edge-subset space at order n; the last one may be shorter."""
    from . import bulk

    total, width = 1 << (n * (n - 1) // 2), bulk.CHUNK_MASKS
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def _sweep(n: int, sweep: str, scan: Callable, totals: tuple) -> tuple:
    """Merge ``scan(table)``, one partial per total, into ``totals`` for
    the table of every range of :func:`chunk_ranges`, in order on the calling
    thread, and return the totals. Each table is built by
    ``bulk.connected_table``, read from the module for every chunk so that a
    wrapper installed on ``bulk`` sees each call, only after the previous
    table's partials are merged; no reference to a table outlives its scan,
    so memory does not grow with the number of chunks. This is the only place
    where chunk partials merge. It logs one debug line: the chunk count and
    the seconds spent building the tables and scanning them. Unless the
    connected rows of all the tables, kept by the scan or not, are A001187's
    c_n, it raises ArithmeticError naming the ``sweep`` and both counts."""
    from . import bulk

    rows, chunks, build_s, scan_s = 0, chunk_ranges(n), 0.0, 0.0
    for lo, hi in chunks:
        start = time.perf_counter()
        table = bulk.connected_table(n, lo, hi)
        built = time.perf_counter()
        build_s += built - start
        rows += table.masks.size
        parts, table = scan(table), None
        for total, part in zip(totals, parts, strict=True):
            total.merge(part)
        scan_s += time.perf_counter() - built
    log.debug("%s at n=%d: %d chunks, %.3f s building tables, %.3f s scanning",
              sweep, n, len(chunks), build_s, scan_s)
    if rows != connected_graph_count(n):
        raise ArithmeticError(f"{sweep} at n={n} visited {rows} connected graphs, "
                              f"A001187 gives {connected_graph_count(n)}")
    return totals


def search_connected(n: int, objective: str, graph_filter: str = "none") -> SearchResult:
    """Extremal sigma_t over all labeled connected graphs on n vertices
    (optionally filtered), via the vectorized mask tables, chunk by chunk.
    """
    _require_order(n, 1, "graph search")
    if graph_filter not in FILTERS:
        raise ValueError(f"unknown filter {graph_filter!r}; expected one of {tuple(FILTERS)}")
    from . import bulk  # numpy loads before the clock starts

    rows = FILTERS[graph_filter].rows
    start = time.perf_counter()

    def scan(table: bulk.MaskTable) -> tuple[Extreme]:
        keep = rows(table)
        return (Extreme.of_chunk(objective, table.sigma_t[keep], table.masks[keep]),)

    best, = _sweep(n, "graph search", scan, (Extreme(objective),))
    seconds = time.perf_counter() - start
    log.debug("search at n=%d, filter %s: %d masks scanned, %d graphs kept in %d chunks, "
              "%.3f s, %.0f graphs/s", n, graph_filter, 1 << n * (n - 1) // 2, best.visited,
              len(chunk_ranges(n)), seconds, best.visited / seconds)
    label = "connected" if graph_filter == "none" else f"connected {graph_filter}"
    return best.result(n, f"{label} graphs on {n} vertices", f"{graph_filter} connected graphs at n={n}")


# ---------------------------------------------------------------------------
# conjecture harnesses
# ---------------------------------------------------------------------------

def _optional():
    """A field that the JSON record leaves out while it is None."""
    return field(default=None, metadata={"json_optional": True})


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one conjecture run; any counterexample listed violates the
    conjectured statement when re-checked."""

    conjecture_id: int
    n_range: tuple[int, int]
    status: str  # "verified" | "no-counterexample-in-input" (a stream) | "counterexample"
    counterexamples: tuple[str, ...]
    extremal_witnesses: tuple[str, ...]
    max_value: int | None = _optional()
    reference_value: int | None = _optional()
    tie_count: int | None = _optional()
    graphs_visited: int | None = _optional()
    equality_witnesses: tuple[str, ...] | None = _optional()
    equality_count: int | None = _optional()
    equality_all_paths: bool | None = _optional()


def verify_conjecture1(n: int, graphs: Iterable[Graph] | None = None) -> ConjectureReport:
    """Check that no connected triangle-free graph on n vertices beats the
    best complete bipartite sigma_t.

    Without an external stream the check enumerates internally (n <= 7),
    chunk by chunk, and a run without a counterexample is "verified". A
    stream, whose graphs must all have order n, is filtered to connected
    triangle-free graphs; it covers only itself, so a run without a
    counterexample is "no-counterexample-in-input".
    """
    if graphs is None:
        _require_order(n, 2, "conjecture 1 without a stream")
    from .extremal import max_bipartite_split

    reference = max_bipartite_split(n).value  # raises for n < 2
    triangle_free = FILTERS["triangle-free"]
    if graphs is None:
        def scan(table: bulk.MaskTable) -> tuple[Extreme, Tally]:
            keep = triangle_free.rows(table)
            values, masks = table.sigma_t[keep], table.masks[keep]
            return Extreme.of_chunk("max", values, masks), Tally.of(masks[values > reference])

        best, offenders = _sweep(n, "conjecture 1", scan, (Extreme("max"), Tally()))
        missing, covered = f"connected triangle-free graphs at n={n}", "verified"
    else:
        best, offenders = Extreme("max"), Tally()
        for g in _of_order(graphs, n):
            if not is_connected(g) or not triangle_free.keeps(g):
                continue
            value = sigma_t(g)
            best.add(value, g)
            if value > reference:
                offenders.merge(Tally(1, [g]))
        missing, covered = "connected triangle-free graphs in the stream", "no-counterexample-in-input"
    found = best.result(n, "connected triangle-free graphs", missing)
    log.debug("conjecture 1 at n=%d: max %d vs bipartite %d over %d graphs",
              n, found.extreme_value, reference, found.graphs_visited)
    return ConjectureReport(
        conjecture_id=1,
        n_range=(n, n),
        status="counterexample" if offenders.count else covered,
        counterexamples=_graph6(n, offenders.keys),
        extremal_witnesses=found.witnesses,
        max_value=found.extreme_value,
        reference_value=reference,
        tie_count=found.tie_count,
        graphs_visited=found.graphs_visited,
    )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentitySummary:
    checked: int
    passed: int
    failed: int
    first_failure: str | None
    seed: int | None = _optional()


def verify_identity_suite(graphs: Iterable[Graph], seed: int | None = None) -> IdentitySummary:
    """Assert the index identities on every stream graph, all exactly:
    pair-sum sigma_t vs n*M1 - 4m^2, vs n^2 * variance, and the sigma
    edge-sum vs F - 2*M2 decomposition."""
    checked = passed = failed = 0
    first_failure = None
    for g in graphs:
        checked += 1
        n, m = g.n, g.m
        degs = g.degrees()
        by_pairs = sigma_t_pairsum(g)
        by_formula = n * zagreb_m1(g) - 4 * m * m
        by_variance = n * n * degree_variance(g)
        by_edges = sigma(g)
        decomposed = sum(d ** 3 for d in degs) - 2 * sum(
            degs[u] * degs[v] for u, v in g.edges()
        )
        if by_pairs == by_formula == by_variance and by_edges == decomposed:
            passed += 1
        else:
            failed += 1
            if first_failure is None:
                first_failure = encode_graph6(g)
    return IdentitySummary(
        checked=checked, passed=passed, failed=failed,
        first_failure=first_failure, seed=seed,
    )
