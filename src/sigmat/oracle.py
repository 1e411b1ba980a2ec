"""Exhaustive enumeration of small graphs and trees, extremal search, and
conjecture verification.

Graph enumeration is labeled, not isomorphism-reduced: every quantity
tested is isomorphism-invariant, so scanning all 2^C(n,2) edge subsets
proves the same statements while avoiding canonical forms. Trees are swept
as free trees, each counted as its n!/|Aut| labeled trees, so every count is
still one of labeled trees; the labeled Prüfer decode is their reference.
Internal limits are n <= 7 for graphs and n <= 18 for trees, checked by one
helper before a sweep does any other work; larger orders arrive through
graph6 line streams produced by external generators. A search filter is one
entry of ``graph.FILTERS``, which says what it keeps of a stream and of a
mask table.

Searches over the edge-subset space walk it in fixed chunks of
``bulk.CHUNK_MASKS`` masks, read when the sweep starts, so memory stays
bounded whatever the order. One sweep engine makes and scans the chunks in
order on the calling thread and merges their partials in that order. Only
these sweeps import :mod:`sigmat.bulk`, and numpy with it. The tree sweep is
one plain pass over the free trees that keeps a few counts per degree
profile, of which there are p(n-2): 231 at n = 18.
"""

from __future__ import annotations

import logging
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .graph import FILTERS, Graph, encode_graph6, graph_from_mask, is_connected, pair_order
from .invariants import degree_variance, sigma, sigma_t, sigma_t_pairsum, zagreb_m1

if TYPE_CHECKING:
    import numpy as np

    from . import bulk

log = logging.getLogger("sigmat.oracle")

MAX_ENUM_ORDER = 7
MAX_TREE_ORDER = 18
MAX_PRUFER_ORDER = 9
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
    are checked against it."""
    _require_order(n, 1, "graph enumeration")
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


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees via Prüfer decoding, in sequence order: the
    reference for the tree sweep."""
    _require_order(n, 2, "tree enumeration", MAX_PRUFER_ORDER)
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


def chunk_ranges(n: int) -> list[tuple[int, int]]:
    """Consecutive [lo, hi) ranges of ``bulk.CHUNK_MASKS`` masks tiling the
    edge-subset space at order n; the last one may be shorter."""
    from . import bulk

    total, width = 1 << (n * (n - 1) // 2), bulk.CHUNK_MASKS
    return [(lo, min(lo + width, total)) for lo in range(0, total, width)]


def _sweep(build: Callable, n: int, ranges: list[tuple[int, int]], scan: Callable,
           totals: tuple) -> tuple:
    """Merge ``scan(build(n, lo, hi))``, one partial per total, into
    ``totals`` for every chunk range in order, on the calling thread, and
    return the totals. Each table is made only after the previous table's
    partials are merged, so memory does not grow with the number of chunks,
    and no reference to a table outlives its scan. This is the only place
    where chunk partials merge. ``build`` is a :mod:`sigmat.bulk` table
    builder that the caller read from the module when it was called, or a
    function that reads one from the module on every call, so a wrapper
    installed on ``bulk`` sees every chunk."""
    for lo, hi in ranges:
        for total, part in zip(totals, scan(build(n, lo, hi)), strict=True):
            total.merge(part)
    return totals


def search_connected(n: int, objective: str, graph_filter: str = "none") -> SearchResult:
    """Extremal sigma_t over all labeled connected graphs on n vertices
    (optionally filtered), via the vectorized mask tables, chunk by chunk.
    """
    _require_order(n, 1, "graph search")
    if graph_filter not in FILTERS:
        raise ValueError(f"unknown filter {graph_filter!r}; expected one of {tuple(FILTERS)}")
    from . import bulk

    rows = FILTERS[graph_filter].rows
    start = time.perf_counter()

    def scan(table: bulk.MaskTable) -> tuple[Extreme]:
        keep = rows(table)
        return (Extreme.of_chunk(objective, table.sigma_t[keep], table.masks[keep]),)

    ranges = chunk_ranges(n)
    (best,) = _sweep(bulk.connected_table, n, ranges, scan, (Extreme(objective),))
    seconds = time.perf_counter() - start
    log.debug("search at n=%d, filter %s: %d masks scanned, %d graphs kept in %d chunks, "
              "%.3f s, %.0f graphs/s", n, graph_filter, 1 << n * (n - 1) // 2, best.visited,
              len(ranges), seconds, best.visited / seconds)
    label = "connected" if graph_filter == "none" else f"connected {graph_filter}"
    return best.result(n, f"{label} graphs on {n} vertices", f"{graph_filter} connected graphs at n={n}")


# ---------------------------------------------------------------------------
# tree sweep over the free trees
# ---------------------------------------------------------------------------

def free_trees(n: int) -> Iterator[tuple[int, ...]]:
    """Every tree on n >= 1 vertices up to isomorphism, exactly once, as its
    canonical level sequence: the depth of each vertex in preorder, rooted at
    a centre, with the subtrees of every vertex in non-increasing
    lexicographic order.

    This is the generator of Wright, Richmond, Odlyzko and McKay (SIAM J.
    Comput. 15, 1986). It steps through the rooted trees by the successor of
    Beyer and Hedetniemi, keeps those whose first root subtree is not above
    the rest of the tree in the order of :func:`_halves` (so the root is a
    centre, and of two centres the canonical one), and jumps past the runs
    of rooted trees that fail.
    """
    if n < 3:
        yield tuple(range(n))
        return
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path
    while True:
        first, rest = _halves(levels)
        if first <= rest:
            yield tuple(levels)
            p = n - 1
            while levels[p] == 1:
                p -= 1
            if p == 0:  # the star is the last tree
                return
            _next_rooted(levels, p)
        else:
            p = first[1]  # the last vertex of the first subtree
            jump = levels[p] > 2
            _next_rooted(levels, p)
            if jump:
                height = _halves(levels)[0][0] + 1
                levels[n - height:] = range(1, height + 1)


def _halves(levels: Sequence[int]) -> tuple[tuple, tuple]:
    """The root's first subtree and the rest of the tree, each as (height,
    order, level sequence from its own root). The root is a centre when the
    first is not above the rest; when they are equal the tree has two
    centres and an automorphism that swaps them."""
    second = levels.index(1, 2) if 1 in levels[2:] else len(levels)
    first, rest = [d - 1 for d in levels[1:second]], [0, *levels[second:]]
    return (max(first, default=-1), len(first), first), (max(rest), len(rest), rest)


def _next_rooted(levels: list[int], p: int) -> None:
    """The successor of Beyer and Hedetniemi, in place: the subtree of the
    parent of vertex p, cut at p, is repeated to fill positions p onwards."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    for i in range(p, len(levels)):
        levels[i] = levels[i - p + q]


def _tree_class(levels: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """The degrees, the parent of every vertex (0 for the root) and |Aut| of
    the free tree with the canonical level sequence ``levels``.

    Isomorphic sibling subtrees are adjacent, equal slices, so a run of k of
    them contributes k! to the automorphisms that fix the root: each sibling
    equal to the one before it multiplies in its place in the run. Equal
    halves (:func:`_halves`) add the automorphisms that swap them.
    """
    n = len(levels)
    degrees, parent, last, run = [1] * n, [0] * n, [0] * n, [1] * n  # last: per depth
    degrees[0], aut = 0, 1
    for c in range(1, n):
        depth = levels[c]
        p = parent[c] = last[depth - 1]
        degrees[p] += 1
        before = last[depth]
        if before > p:  # the previous sibling, whose subtree ends at c
            end = 2 * c - before
            if levels[c:end] == levels[before:c] and (end == n or levels[end] <= depth):
                run[c] = run[before] + 1
                aut *= run[c]
        last[depth] = c
    first, rest = _halves(levels)
    return degrees, parent, 2 * aut if first == rest else aut


def _tree_sigmas(degrees: list[int], edges: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """sigma_t = n*M1 - 4(n-1)^2 and sigma of a tree with these degrees and
    edges: the one evaluation behind the sweep and the witnesses."""
    n = len(degrees)
    return (n * sum(d * d for d in degrees) - 4 * (n - 1) ** 2,
            sum((degrees[u] - degrees[v]) ** 2 for u, v in edges))


def _prufer_witnesses(n: int, targets: list[tuple[int, ...]],
                      keep: Callable[[int, int], bool] | None = None) -> tuple[tuple[str, ...], int]:
    """graph6 strings of the first WITNESS_CAP labeled trees in Prüfer rank
    order whose sorted digit counts are one of ``targets`` and whose sigma_t
    and sigma ``keep`` accepts, if given, and the number of sequences
    decoded: a depth-first search in lexicographic (rank) order that drops a
    prefix once its sorted digit counts are not pointwise at most some
    target's."""
    counts, seq, found = [0] * n, [], []
    decoded = 0

    def walk() -> bool:
        nonlocal decoded
        if len(seq) == n - 2:
            edges = prufer_edges(seq, n)
            decoded += 1
            if keep is None or keep(*_tree_sigmas([c + 1 for c in counts], edges)):
                found.append(encode_graph6(Graph(n, edges)))
            return len(found) == WITNESS_CAP
        for x in range(n):
            counts[x] += 1
            seq.append(x)
            have = sorted(counts, reverse=True)
            done = any(all(map(int.__le__, have, t)) for t in targets) and walk()
            counts[x] -= 1
            seq.pop()
            if done:
                return True
        return False

    if targets:
        walk()
    return tuple(found), decoded


@dataclass(frozen=True)
class TreeSweep:
    """Everything one exhaustive pass over the trees of order n establishes,
    counted in labeled trees."""

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
    """One pass over the free trees of order n, each class counted as its
    n!/|Aut| labeled trees, collecting the extremal values, the
    sigma_t <= (n-2)*sigma comparison, and the sigma == sigma_t set.

    sigma_t depends on the degree profile alone: the digit counts degree - 1
    of the class's Prüfer sequences, sorted descending. So the pass keeps,
    per profile met, its sigma_t and its labeled trees, and the labeled trees
    over the ratio bound, at it, and with sigma == sigma_t. Every count is a
    Python int, since n^(n-2) passes 2^63 at n = 18. The star is the one tree
    with the profile (n-2, 0, ..., 0), and the path with (1, ..., 1, 0, 0).
    Witnesses are the first WITNESS_CAP labeled trees in Prüfer rank order,
    found by :func:`_prufer_witnesses` among the profiles that hold. The
    cache holds at most 17 small records, one per order 2..18 (the orders
    are capped by MAX_TREE_ORDER); the uncached sweep is
    ``tree_sweep.__wrapped__``.
    """
    _require_order(n, 2, "tree sweep", MAX_TREE_ORDER)
    start = time.perf_counter()
    labelled, classes = math.factorial(n), 0
    profiles: dict[tuple[int, ...], list[int]] = {}  # profile: [sigma_t, labeled trees]
    over, equal, sigma_eq = Counter(), Counter(), Counter()  # profile: labeled trees
    for classes, levels in enumerate(free_trees(n), start=1):
        degrees, parent, aut = _tree_class(levels)
        st, sg = _tree_sigmas(degrees, zip(range(1, n), parent[1:]))
        profile = tuple(sorted((d - 1 for d in degrees), reverse=True))
        weight = labelled // aut
        profiles.setdefault(profile, [st, 0])[1] += weight
        if st > (n - 2) * sg:
            over[profile] += weight
        elif st == (n - 2) * sg:
            equal[profile] += weight
        if st == sg:
            sigma_eq[profile] += weight

    def at(value: int) -> tuple[list[tuple[int, ...]], int]:
        # the profiles with this sigma_t and their labeled trees
        kept = [p for p, (st, _) in profiles.items() if st == value]
        return kept, sum(profiles[p][1] for p in kept)

    decoded = 0

    def witness(count: int, targets: Iterable, keep: Callable | None = None) -> tuple[str, ...]:
        nonlocal decoded
        found, tried = _prufer_witnesses(n, list(targets), keep)
        decoded += tried
        assert len(found) == min(WITNESS_CAP, count), f"{len(found)} witnesses of {count} at n={n}"
        return found

    star, path = (n - 2,) + (0,) * (n - 1), (1,) * (n - 2) + (0, 0)
    top = max(st for st, _ in profiles.values())
    bottom = min(st for st, _ in profiles.values())
    (tops, top_count), (bottoms, bottom_count) = at(top), at(bottom)
    sweep = TreeSweep(
        n=n,
        trees=sum(trees for _, trees in profiles.values()),
        max_value=top,
        max_count=top_count,
        max_all_stars=tops == [star],
        max_witnesses=witness(top_count, tops),
        min_value=bottom,
        min_count=bottom_count,
        min_all_paths=bottoms == [path],
        min_witnesses=witness(bottom_count, bottoms),
        ratio_violations=over.total(),
        ratio_violation_witnesses=witness(over.total(), over, lambda st, sg: st > (n - 2) * sg),
        ratio_equality_count=equal.total(),
        ratio_equality_all_paths=equal.keys() <= {path},
        ratio_equality_witnesses=witness(equal.total(), equal, lambda st, sg: st == (n - 2) * sg),
        sigma_eq_count=sigma_eq.total(),
        sigma_eq_all_stars=sigma_eq.keys() <= {star},
        star_count=profiles[star][1],
    )
    log.debug("tree sweep at n=%d: %d classes, %d labelled trees, %d witness candidates decoded, "
              "%.3f s", n, classes, sweep.trees, decoded, time.perf_counter() - start)
    return sweep


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
        from . import bulk

        def scan(table: bulk.MaskTable) -> tuple[Extreme, Tally]:
            keep = triangle_free.rows(table)
            values, masks = table.sigma_t[keep], table.masks[keep]
            return Extreme.of_chunk("max", values, masks), Tally.of(masks[values > reference])

        best, offenders = _sweep(bulk.connected_table, n, chunk_ranges(n), scan,
                                 (Extreme("max"), Tally()))
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


def verify_conjecture2(n: int) -> ConjectureReport:
    """Check sigma_t(T) <= (n-2) * sigma(T) over every labeled tree, with
    equality exactly on paths, read from the cached :func:`tree_sweep`."""
    _require_order(n, 3, "conjecture 2", MAX_TREE_ORDER)
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
        equality_witnesses=sweep.ratio_equality_witnesses,
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
