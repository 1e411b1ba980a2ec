"""Exhaustive labeled enumeration of small graphs and trees, extremal
search, and conjecture verification.

Enumeration is labeled, not isomorphism-reduced: every quantity tested is
isomorphism-invariant, so scanning all 2^C(n,2) edge subsets (or all n^(n-2)
labeled trees) proves the same statements while avoiding canonical forms.
Internal limits are n <= 7 for graphs and n <= 9 for trees; larger orders
arrive through graph6 line streams produced by external generators.

Searches over the edge-subset space walk it in fixed chunks of CHUNK_MASKS
masks, and the tree sweep walks the Prüfer ranks in fixed chunks of
CHUNK_TREES ranks, so memory stays bounded whatever the order. Both run on
one sweep engine, which builds and scans the chunks in order on the calling
thread and merges their partials in that order.
"""

from __future__ import annotations

import logging
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator

import numpy as np

from . import bulk
from .extremal import max_bipartite_split
from .graph import Graph, Graph6Error, encode_graph6, is_connected, is_triangle_free, pair_order, parse_graph6
from .invariants import degree_variance, sigma, sigma_t, sigma_t_pairsum, zagreb_m1

log = logging.getLogger("sigmat.oracle")

MAX_ENUM_ORDER = 7
MAX_TREE_ORDER = 9
WITNESS_CAP = 16
CHUNK_MASKS = bulk.CHUNK_MASKS
CHUNK_TREES = 1 << 12


class LimitError(ValueError):
    """Requested order is beyond the internal enumeration limits."""


def graph_from_mask(n: int, mask: int, pairs: list[tuple[int, int]] | None = None) -> Graph:
    """Graph for one edge-subset mask (bits in graph6 column-major order)."""
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


def enumerate_connected_graphs(n: int, mask_range: tuple[int, int] | None = None) -> Iterator[Graph]:
    """Every labeled simple connected graph on n vertices, exactly once, in
    ascending edge-mask order. Independent of :mod:`sigmat.bulk`, whose tables
    are checked against it."""
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise LimitError(
            f"internal enumeration covers 1 <= n <= {MAX_ENUM_ORDER}; "
            f"for n={n} feed a graph6 stream through ingest_graph6"
        )
    pairs = pair_order(n)
    lo, hi = mask_range if mask_range is not None else (0, 1 << len(pairs))
    for mask in range(lo, hi):
        g = graph_from_mask(n, mask, pairs)
        if is_connected(g):
            yield g


def prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree encoded by a length n-2 sequence over 0..n-1."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


def prufer_sequence(rank: int, n: int) -> tuple[int, ...]:
    """The length n-2 Prüfer sequence with the given rank: its base-n digits,
    most significant first, so rank k is the k-th sequence of
    :func:`enumerate_trees`."""
    digits = []
    for _ in range(n - 2):
        rank, digit = divmod(rank, n)
        digits.append(digit)
    return tuple(reversed(digits))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees via Prüfer decoding, in sequence order."""
    if not 2 <= n <= MAX_TREE_ORDER:
        raise LimitError(f"tree enumeration covers 2 <= n <= {MAX_TREE_ORDER}, got n={n}")
    for seq in product(range(n), repeat=n - 2):
        yield Graph(n, prufer_edges(seq, n))


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


def ingest_graph6(
    lines: Iterable[str],
    skip_bad: bool = False,
    on_bad: Callable[[int, str, Graph6Error], None] | None = None,
) -> Iterator[Graph]:
    """Decode a line-oriented graph6 stream in order.

    Malformed lines raise with the 1-based line number, or, under
    ``skip_bad``, are reported to ``on_bad`` and dropped.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield parse_graph6(line)
        except Graph6Error as exc:
            if skip_bad:
                if on_bad is not None:
                    on_bad(lineno, line, exc)
                continue
            raise Graph6Error(f"line {lineno}: {exc.reason}", offset=exc.offset) from None


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

    def to_json_dict(self) -> dict:
        return {
            "familyDescription": self.family_description,
            "n": self.n,
            "objective": self.objective,
            "extremeValue": self.extreme_value,
            "witnesses": list(self.witnesses),
            "tieCount": self.tie_count,
            "graphsVisited": self.graphs_visited,
        }


class Extreme:
    """Running max or min of sigma_t over a family: the exact tie count, the
    first WITNESS_CAP witnesses in visiting order, and the graphs visited.

    Witnesses are Graphs (from a stream) or edge masks (from a sweep chunk);
    they are encoded once, by :meth:`result`. Merging chunk partials in
    chunk order gives the same state as one pass over the whole family.
    """

    def __init__(self, objective: str):
        if objective not in ("max", "min"):
            raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
        self.objective = objective
        self.value: int | None = None
        self.ties = 0
        self.witnesses: list = []
        self.visited = 0

    @classmethod
    def of_chunk(cls, objective: str, values: np.ndarray, masks: np.ndarray) -> "Extreme":
        """Partial for one chunk, where ``values[k]`` is sigma_t of ``masks[k]``."""
        part = cls(objective)
        part.visited = int(values.size)
        if values.size:
            part.value = int(values.max() if objective == "max" else values.min())
            hits = masks[values == part.value]
            part.ties = int(hits.size)
            part.witnesses = hits[:WITNESS_CAP].tolist()
        return part

    def add(self, value: int, witness) -> None:
        self.visited += 1
        self._fold(value, 1, [witness])

    def merge(self, part: "Extreme") -> None:
        self.visited += part.visited
        if part.value is not None:
            self._fold(part.value, part.ties, part.witnesses)

    def _fold(self, value: int, ties: int, witnesses: list) -> None:
        best = self.value
        if best is None or (value > best if self.objective == "max" else value < best):
            self.value, self.ties, self.witnesses = value, ties, witnesses[:WITNESS_CAP]
        elif value == best:
            self.ties += ties
            self.witnesses.extend(witnesses[:WITNESS_CAP - len(self.witnesses)])

    def result(self, n: int, description: str, missing: str) -> SearchResult:
        """The finished search; an empty family, named by ``missing``, raises."""
        if self.value is None:
            raise ValueError(f"empty family: no {missing}")
        return SearchResult(
            family_description=description,
            n=n,
            objective=f"{self.objective}-sigma-t",
            extreme_value=self.value,
            witnesses=_graph6(n, self.witnesses),
            tie_count=self.ties,
            graphs_visited=self.visited,
        )


def _graph6(n: int, items: list) -> tuple[str, ...]:
    """graph6 strings for Graphs or edge masks of order n."""
    pairs = pair_order(n)
    return tuple(
        encode_graph6(w if isinstance(w, Graph) else graph_from_mask(n, w, pairs)) for w in items
    )


def search_extremal(
    graphs: Iterable[Graph],
    objective: str,
    predicate: Callable[[Graph], bool] | None = None,
    description: str = "stream",
) -> SearchResult:
    """Scan a graph stream for the max or min sigma_t; deterministic given
    the stream order."""
    best = Extreme(objective)
    n_seen: int | None = None
    for g in graphs:
        if predicate is not None and not predicate(g):
            continue
        if n_seen is None:
            n_seen = g.n
        elif g.n != n_seen:
            raise ValueError(f"mixed graph orders in stream: {n_seen} and {g.n}")
        best.add(sigma_t(g), g)
    return best.result(n_seen, description, "graphs left after filtering")


GRAPH_FILTERS = ("none", "triangle-free", "nonregular", "tree")


def _tiles(total: int, width: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def chunk_ranges(n: int) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges of CHUNK_MASKS masks tiling the edge-subset
    space at order n; the last one may be shorter."""
    return _tiles(1 << (n * (n - 1) // 2), CHUNK_MASKS)


def _sweep(build: Callable, n: int, ranges: list[tuple[int, int]], scan: Callable) -> Iterator:
    """``scan(build(n, lo, hi))`` for every chunk range, in chunk order, on
    the calling thread. Each chunk is built only when the consumer asks for
    it, so memory does not grow with the number of chunks.

    ``build`` is a :mod:`sigmat.bulk` table builder that callers read from the
    module when they are called, so a wrapper installed on ``bulk`` sees every
    chunk.
    """
    return (scan(build(n, lo, hi)) for lo, hi in ranges)


def search_connected(n: int, objective: str, graph_filter: str = "none") -> SearchResult:
    """Extremal sigma_t over all labeled connected graphs on n vertices
    (optionally filtered), via the vectorized mask tables, chunk by chunk.
    """
    best = Extreme(objective)
    if graph_filter not in GRAPH_FILTERS:
        raise ValueError(f"unknown filter {graph_filter!r}; expected one of {GRAPH_FILTERS}")
    if not 1 <= n <= MAX_ENUM_ORDER:
        raise LimitError(
            f"internal search covers 1 <= n <= {MAX_ENUM_ORDER}; "
            f"for n={n} use search_extremal on a graph6 stream"
        )
    start = time.perf_counter()

    def scan(table: bulk.MaskTable) -> Extreme:
        if graph_filter == "triangle-free":
            keep = table.triangle_free
        elif graph_filter == "nonregular":
            keep = table.max_deg != table.min_deg
        elif graph_filter == "tree":
            keep = table.m == n - 1
        else:
            keep = slice(None)
        return Extreme.of_chunk(objective, table.sigma_t[keep], table.masks[keep])

    ranges = chunk_ranges(n)
    for part in _sweep(bulk.connected_table, n, ranges, scan):
        best.merge(part)
    seconds = time.perf_counter() - start
    log.debug("search at n=%d, filter %s: %d masks scanned, %d graphs kept in %d chunks, "
              "%.3f s, %.0f graphs/s", n, graph_filter, 1 << n * (n - 1) // 2, best.visited,
              len(ranges), seconds, best.visited / seconds)
    label = "connected" if graph_filter == "none" else f"connected {graph_filter}"
    return best.result(n, f"{label} graphs on {n} vertices", f"{graph_filter} connected graphs at n={n}")


# ---------------------------------------------------------------------------
# labeled tree sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSweep:
    """Everything one exhaustive pass over the labeled trees establishes."""

    n: int
    trees: int
    max_value: int
    max_count: int
    max_all_stars: bool
    max_witnesses: tuple[str, ...]
    min_value: int
    min_count: int
    min_all_paths: bool
    min_witnesses: tuple[str, ...]
    ratio_violations: int          # trees with sigma_t > (n-2) * sigma
    ratio_violation_witnesses: tuple[str, ...]
    ratio_equality_count: int      # trees with sigma_t == (n-2) * sigma
    ratio_equality_all_paths: bool
    ratio_equality_witnesses: tuple[str, ...]
    sigma_eq_count: int            # trees with sigma == sigma_t
    sigma_eq_all_stars: bool
    star_count: int


@lru_cache(maxsize=None)
def tree_sweep(n: int) -> TreeSweep:
    """One pass over all n^(n-2) labeled trees collecting the extremal
    values, the sigma_t <= (n-2)*sigma comparison, and the sigma == sigma_t
    set.

    The Prüfer ranks are walked in fixed chunks of CHUNK_TREES, each decoded
    by :func:`sigmat.bulk.tree_table`; partials merge in rank order and
    memory stays bounded. Witnesses are the first WITNESS_CAP trees in rank
    order. The cache holds at most eight small records, one per order 2..9
    (the orders are capped by MAX_TREE_ORDER); the uncached sweep is
    ``tree_sweep.__wrapped__``.
    """
    if not 2 <= n <= MAX_TREE_ORDER:
        raise LimitError(f"tree sweep covers 2 <= n <= {MAX_TREE_ORDER}, got n={n}")
    start = time.perf_counter()

    def scan(table: bulk.TreeTable):
        st, ranks = table.sigma_t, table.ranks
        # a tree is the star iff a degree reaches n-1, a path iff none exceeds 2
        star, path = table.max_deg == n - 1, table.max_deg <= 2
        bound = (n - 2) * table.sigma
        over, equal, sigma_eq = st > bound, st == bound, st == table.sigma
        extremes = (
            Extreme.of_chunk("max", st, ranks),
            Extreme.of_chunk("min", st, ranks),
            Extreme.of_chunk("max", st[~star], ranks[~star]),
            Extreme.of_chunk("min", st[~path], ranks[~path]),
        )
        counts = {
            "over": over, "equal": equal, "equal_nonpath": equal & ~path,
            "sigma_eq": sigma_eq, "sigma_eq_nonstar": sigma_eq & ~star, "star": star,
        }
        return (extremes, {k: int(np.count_nonzero(v)) for k, v in counts.items()},
                ranks[over][:WITNESS_CAP].tolist(), ranks[equal][:WITNESS_CAP].tolist())

    top, bottom, nonstar_top, nonpath_bottom = extremes = (
        Extreme("max"), Extreme("min"), Extreme("max"), Extreme("min"))
    tally: Counter = Counter()
    over: list[int] = []
    equal: list[int] = []
    ranges = _tiles(n ** (n - 2), CHUNK_TREES)
    for parts, counts, part_over, part_equal in _sweep(bulk.tree_table, n, ranges, scan):
        for whole, part in zip(extremes, parts):
            whole.merge(part)
        tally.update(counts)
        over.extend(part_over[:WITNESS_CAP - len(over)])
        equal.extend(part_equal[:WITNESS_CAP - len(equal)])

    seconds = time.perf_counter() - start
    log.debug("tree sweep at n=%d: %d trees in %d chunks, %.3f s, %.0f trees/s",
              n, top.visited, len(ranges), seconds, top.visited / seconds)

    def witness(ranks: list[int]) -> tuple[str, ...]:
        return tuple(encode_graph6(Graph(n, prufer_edges(prufer_sequence(r, n), n))) for r in ranks)

    return TreeSweep(
        n=n,
        trees=top.visited,
        max_value=top.value,
        max_count=top.ties,
        max_all_stars=nonstar_top.value is None or nonstar_top.value < top.value,
        max_witnesses=witness(top.witnesses),
        min_value=bottom.value,
        min_count=bottom.ties,
        min_all_paths=nonpath_bottom.value is None or nonpath_bottom.value > bottom.value,
        min_witnesses=witness(bottom.witnesses),
        ratio_violations=tally["over"],
        ratio_violation_witnesses=witness(over),
        ratio_equality_count=tally["equal"],
        ratio_equality_all_paths=tally["equal_nonpath"] == 0,
        ratio_equality_witnesses=witness(equal),
        sigma_eq_count=tally["sigma_eq"],
        sigma_eq_all_stars=tally["sigma_eq_nonstar"] == 0,
        star_count=tally["star"],
    )


def search_trees(n: int, objective: str) -> SearchResult:
    """Extremal sigma_t over all labeled trees on n vertices, read from the
    cached :func:`tree_sweep`."""
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
    sweep = tree_sweep(n)
    if objective == "max":
        value, count, witnesses = sweep.max_value, sweep.max_count, sweep.max_witnesses
    else:
        value, count, witnesses = sweep.min_value, sweep.min_count, sweep.min_witnesses
    return SearchResult(
        family_description=f"labeled trees on {n} vertices",
        n=n,
        objective=f"{objective}-sigma-t",
        extreme_value=value,
        witnesses=witnesses,
        tie_count=count,
        graphs_visited=sweep.trees,
    )


# ---------------------------------------------------------------------------
# conjecture harnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one conjecture run; any counterexample listed violates the
    conjectured statement when re-checked."""

    conjecture_id: int
    n_range: tuple[int, int]
    status: str                       # "verified" | "counterexample"
    counterexamples: tuple[str, ...]
    extremal_witnesses: tuple[str, ...]
    max_value: int | None = None
    reference_value: int | None = None
    tie_count: int | None = None
    graphs_visited: int | None = None
    equality_count: int | None = None
    equality_all_paths: bool | None = None

    def to_json_dict(self) -> dict:
        out = {
            "conjectureId": self.conjecture_id,
            "nRange": list(self.n_range),
            "status": self.status,
            "counterexamples": list(self.counterexamples),
            "extremalWitnesses": list(self.extremal_witnesses),
        }
        if self.max_value is not None:
            out["maxValue"] = self.max_value
        if self.reference_value is not None:
            out["referenceValue"] = self.reference_value
        if self.tie_count is not None:
            out["tieCount"] = self.tie_count
        if self.graphs_visited is not None:
            out["graphsVisited"] = self.graphs_visited
        if self.equality_count is not None:
            out["equalityWitnesses"] = list(self.extremal_witnesses)
            out["equalityCount"] = self.equality_count
            out["equalityAllPaths"] = self.equality_all_paths
        return out


def verify_conjecture1(n: int, graphs: Iterable[Graph] | None = None) -> ConjectureReport:
    """Check that no connected triangle-free graph on n vertices beats the
    best complete bipartite sigma_t.

    Without an external stream the check enumerates internally (n <= 7),
    chunk by chunk; a stream is filtered to connected triangle-free graphs of
    order n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    reference = max_bipartite_split(n).value
    best = Extreme("max")
    offenders: list = []
    if graphs is None:
        if n > MAX_ENUM_ORDER:
            raise LimitError(
                f"internal enumeration covers n <= {MAX_ENUM_ORDER}; "
                f"pass a graph6 stream for n={n}"
            )

        def scan(table: bulk.MaskTable) -> tuple[Extreme, list[int]]:
            values = table.sigma_t[table.triangle_free]
            masks = table.masks[table.triangle_free]
            return Extreme.of_chunk("max", values, masks), masks[values > reference][:WITNESS_CAP].tolist()

        for part, bad in _sweep(bulk.connected_table, n, chunk_ranges(n), scan):
            best.merge(part)
            offenders.extend(bad[:WITNESS_CAP - len(offenders)])
        missing = f"connected triangle-free graphs at n={n}"
    else:
        for g in graphs:
            if g.n != n:
                raise ValueError(f"stream graph has order {g.n}, expected {n}")
            if not is_connected(g) or not is_triangle_free(g):
                continue
            value = sigma_t(g)
            best.add(value, g)
            if value > reference and len(offenders) < WITNESS_CAP:
                offenders.append(g)
        missing = "connected triangle-free graphs in the stream"
    found = best.result(n, "connected triangle-free graphs", missing)
    log.debug("conjecture 1 at n=%d: max %d vs bipartite %d over %d graphs",
              n, found.extreme_value, reference, found.graphs_visited)
    return ConjectureReport(
        conjecture_id=1,
        n_range=(n, n),
        status="verified" if not offenders else "counterexample",
        counterexamples=_graph6(n, offenders),
        extremal_witnesses=found.witnesses,
        max_value=found.extreme_value,
        reference_value=reference,
        tie_count=found.tie_count,
        graphs_visited=found.graphs_visited,
    )


def verify_conjecture2(n: int) -> ConjectureReport:
    """Check sigma_t(T) <= (n-2) * sigma(T) over every labeled tree, with
    equality exactly on paths, read from the cached :func:`tree_sweep`."""
    if not 3 <= n <= MAX_TREE_ORDER:
        raise LimitError(f"conjecture 2 runs for 3 <= n <= {MAX_TREE_ORDER}, got n={n}")
    sweep = tree_sweep(n)
    ok = sweep.ratio_violations == 0 and sweep.ratio_equality_all_paths
    counterexamples = sweep.ratio_violation_witnesses
    if sweep.ratio_violations == 0 and not sweep.ratio_equality_all_paths:
        # equality on a non-path falsifies the characterization half
        counterexamples = sweep.ratio_equality_witnesses
    return ConjectureReport(
        conjecture_id=2,
        n_range=(n, n),
        status="verified" if ok else "counterexample",
        counterexamples=counterexamples,
        extremal_witnesses=sweep.ratio_equality_witnesses,
        graphs_visited=sweep.trees,
        equality_count=sweep.ratio_equality_count,
        equality_all_paths=sweep.ratio_equality_all_paths,
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
    seed: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "firstFailure": self.first_failure,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


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
