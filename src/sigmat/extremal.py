"""Constructors and closed-form evaluators for the extremal families: split
graphs, complete bipartite graphs, stars, paths, and generalized complete
multipartite graphs.

Argmax helpers scan the full feasible range rather than trusting closed
forms; the closed-form candidates are computed with exact integer radical
bracketing and reported alongside the scan winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import Graph
from .invariants import sigma_t


def make_split(a: int, b: int) -> Graph:
    """Clique of size a joined completely to an independent set of size b.

    Clique vertices are 0..a-1 (degree n-1), independent vertices a..a+b-1
    (degree a). The adjacency bitmasks come from this closed form, so the
    graph takes O(a*n) bits, not a list of its O(n^2) edges.
    """
    if a < 1 or b < 0:
        raise ValueError(f"need clique size >= 1 and independent size >= 0, got ({a}, {b})")
    n = a + b
    everyone, clique = (1 << n) - 1, (1 << a) - 1
    return Graph.from_masks(n, tuple(everyone ^ (1 << i) for i in range(a)) + (clique,) * b)


def make_complete_bipartite(n1: int, n2: int) -> Graph:
    """K_{n1,n2} with the first part on vertices 0..n1-1, built from the
    two parts' adjacency bitmasks, which every vertex of a part shares."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"both part sizes must be >= 1, got ({n1}, {n2})")
    n = n1 + n2
    first = (1 << n1) - 1
    second = ((1 << n) - 1) ^ first
    return Graph.from_masks(n, (second,) * n1 + (first,) * n2)


def make_star(n: int) -> Graph:
    """Star on n vertices, center 0 (the one-vertex graph for n=1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(n, [(0, v) for v in range(1, n)])


def make_path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def sigma_t_split_formula(x: int, n: int) -> int:
    """Closed form x(n-x)(n-1-x)^2 for the split graph with clique size x."""
    if not 1 <= x <= n - 1:
        raise ValueError(f"need 1 <= x <= n-1, got x={x}, n={n}")
    return x * (n - x) * (n - 1 - x) ** 2


def sigma_t_bipartite_formula(n1: int, n2: int) -> int:
    """Closed form n1*n2*(n1-n2)^2 for the complete bipartite graph."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"both part sizes must be >= 1, got ({n1}, {n2})")
    return n1 * n2 * (n1 - n2) ** 2


class SplitCriticalPoint(NamedTuple):
    value: float
    ceil: int
    floor: int


def split_critical_point(n: int) -> SplitCriticalPoint:
    """The interior critical point (5n - 2 - sqrt(9n^2 - 4n + 4)) / 8 of the
    split-graph objective, with its exact floor and ceiling.

    The floor/ceiling are derived by integer square-root bracketing: for
    n >= 2 the discriminant is strictly between (3n-2)^2 and (3n)^2 and never
    a perfect square, so the critical point is irrational and the bracketing
    is exact where floating point would not be.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    disc = 9 * n * n - 4 * n + 4
    root = math.isqrt(disc)
    if root * root == disc:
        raise ArithmeticError(f"discriminant {disc} unexpectedly a perfect square")
    # 5n-2-sqrt(disc) lies strictly in (t, t+1), so the /8 floor is t//8
    t = 5 * n - 2 - root - 1
    floor = t // 8
    return SplitCriticalPoint(
        value=(5 * n - 2 - math.sqrt(disc)) / 8,
        ceil=floor + 1,
        floor=floor,
    )


class MaxSplit(NamedTuple):
    x: int
    value: int


def max_split_sigma_t(n: int) -> MaxSplit:
    """Clique size x maximizing x(n-x)(n-1-x)^2 over 1 <= x <= n-1.

    Uses the residue-of-4 case split for x and verifies it against a full
    scan; a disagreement raises rather than returning silently.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n % 4 in (0, 3):
        x = (n + 3) // 4  # ceil(n/4)
    else:
        x = n // 4
    value = sigma_t_split_formula(x, n)
    scan = max(sigma_t_split_formula(y, n) for y in range(1, n))
    if value != scan:
        raise ArithmeticError(
            f"case formula x={x} gives {value} but full scan over x gives {scan} at n={n}"
        )
    return MaxSplit(x=x, value=value)


@dataclass(frozen=True)
class BipartiteMax:
    """Scan winner for max sigma_t over complete bipartite graphs on n
    vertices, plus the closed-form candidate bracket around n(2-sqrt(2))/4."""

    n1: int
    value: int
    tie: bool
    ties: tuple[int, ...]
    formula_candidates: tuple[int, int]


def max_bipartite_split(n: int) -> BipartiteMax:
    """Smaller part size maximizing n1(n-n1)(n-2*n1)^2 over 1 <= n1 <= n/2.

    The scan is authoritative; ties return the smallest part size with the
    full tie set. The candidate pair {floor, ceil} of n(2-sqrt(2))/4 is
    computed by exact integer bracketing (n*sqrt(2) is irrational).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    best = -1
    ties: list[int] = []
    for t in range(1, n // 2 + 1):
        val = sigma_t_bipartite_formula(t, n - t)
        if val > best:
            best = val
            ties = [t]
        elif val == best:
            ties.append(t)
    root = math.isqrt(2 * n * n)
    lo = (2 * n - root - 1) // 4  # floor of (2n - n*sqrt(2)) / 4
    return BipartiteMax(
        n1=ties[0],
        value=best,
        tie=len(ties) > 1,
        ties=tuple(ties),
        formula_candidates=(lo, lo + 1),
    )


def is_generalized_complete_kpartite(g: Graph) -> bool:
    """True when every non-adjacent pair of distinct vertices has equal
    degree, i.e. the graph is complete multipartite with regular parts."""
    degs = g.degrees()
    for u in range(g.n):
        non = ~g.adj[u]
        for v in range(u + 1, g.n):
            if non >> v & 1 and degs[u] != degs[v]:
                return False
    return True


def make_generalized_kpartite(parts: Sequence[tuple[int, int]]) -> Graph:
    """Complete multipartite graph whose i-th part has ``size`` vertices
    inducing an ``inner_degree``-regular circulant.

    Each part (s, r) needs 0 <= r <= s-1 and r*s even; vertex j of a part is
    joined to j +- 1..r//2 cyclically, plus the antipodal vertex when r is
    odd (s is even in that case). All cross-part pairs are edges, so each
    vertex's adjacency bitmask is everything outside its part with its
    circulant neighbours set.
    """
    if not parts:
        raise ValueError("need at least one part")
    for s, r in parts:
        if s < 1:
            raise ValueError(f"part size must be >= 1, got {s}")
        if not 0 <= r <= s - 1:
            raise ValueError(f"inner degree {r} infeasible for part size {s}")
        if r * s % 2:
            raise ValueError(f"no {r}-regular graph on {s} vertices (odd degree sum)")
    n = sum(s for s, _ in parts)
    everyone = (1 << n) - 1
    masks: list[int] = []
    for s, r in parts:
        offset, part = len(masks), (1 << s) - 1
        # vertex 0's neighbours in its part; vertex j's are these turned by j
        near = (r % 2) << (s // 2)
        for d in range(1, r // 2 + 1):
            near |= 1 << d | 1 << (s - d)
        outside = everyone ^ (part << offset)
        masks.extend(outside | ((near << j | near >> (s - j)) & part) << offset for j in range(s))
    return Graph.from_masks(n, tuple(masks))
