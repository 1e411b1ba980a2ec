"""The tree sweep over the free trees (n <= 18), the extremal sigma_t of
labeled trees, and conjecture 2: sigma_t(T) <= (n-2) * sigma(T), with
equality exactly on paths.

Each free tree counts as its n!/|Aut| labeled trees, and their sum is
checked against Cayley's n^(n-2). The pass keeps a few counts per degree
profile, of which there are p(n-2): 231 at n = 18. The labeled Prüfer
decode (n <= 9) is its reference. The verdict records and the order-limit
check come from :mod:`sigmat.oracle`, which never imports this module.
"""

from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Graph, encode_graph6
from .oracle import WITNESS_CAP, ConjectureReport, SearchResult, _require_order

log = logging.getLogger("sigmat.trees")

MAX_TREE_ORDER = 18
MAX_PRUFER_ORDER = 9


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
    Python int, since n^(n-2) passes 2^63 at n = 18, and their sum is
    checked against Cayley's n^(n-2) before any of them is read: a mismatch
    raises ArithmeticError naming both counts. The star is the one tree
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
    trees = sum(count for _, count in profiles.values())
    if trees != n ** (n - 2):
        raise ArithmeticError(f"tree sweep at n={n} counted {trees} labelled trees, "
                              f"Cayley's formula gives {n ** (n - 2)}")

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
        trees=trees,
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
