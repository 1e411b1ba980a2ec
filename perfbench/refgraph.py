"""The benchmark's own graph code: a short-form graph6 codec, the few
degree invariants its correctness checks need, closed forms derived from
the paper's statements, and the seeded ``stream`` workload generator.

Nothing here imports sigmat, so the expectations it produces are
independent of the code under test.
"""

from __future__ import annotations

import random
from math import comb, factorial


def pair_order(n: int) -> list[tuple[int, int]]:
    """Upper-triangle pairs in column-major order, the graph6 bit order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def encode(n: int, edges) -> str:
    """Short-form graph6 record (n <= 62) for an edge list on 0..n-1."""
    if not 1 <= n <= 62:
        raise ValueError(f"short-form graph6 needs 1 <= n <= 62, got {n}")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if p in present else 0 for p in pair_order(n)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)


def decode(record: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmask per vertex) of a short-form graph6 record."""
    data = record.strip().encode("ascii")
    n = data[0] - 63
    if not 1 <= n <= 62:
        raise ValueError(f"not a short-form graph6 record: {record!r}")
    pairs = pair_order(n)
    if len(data) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"wrong payload length in {record!r}")
    adj = [0] * n
    for bit, (i, j) in enumerate(pairs):
        if (data[1 + bit // 6] - 63) >> (5 - bit % 6) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return n, adj


def degrees(adj: list[int]) -> list[int]:
    return [a.bit_count() for a in adj]


def sigma_t(adj: list[int]) -> int:
    """Total sigma index as n*M1 - 4m^2."""
    degs = degrees(adj)
    total = sum(degs)
    return len(adj) * sum(d * d for d in degs) - total * total


def is_connected(adj: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        reach = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def is_triangle_free(adj: list[int]) -> bool:
    return all(adj[u] & adj[v] == 0 for u in range(len(adj)) for v in range(u) if adj[u] >> v & 1)


def is_path(adj: list[int]) -> bool:
    degs = degrees(adj)
    return is_connected(adj) and sum(degs) == 2 * (len(adj) - 1) and max(degs) <= 2


# ---------------------------------------------------------------------------
# expectations derived from counting and the paper's closed forms
# ---------------------------------------------------------------------------

def labelled_connected(n: int) -> int:
    """Labelled connected graphs on n vertices, by the standard recurrence
    over the component that holds vertex 0."""
    c = [0, 1]
    for k in range(2, n + 1):
        total = 2 ** comb(k, 2)
        c.append(total - sum(comb(k - 1, j - 1) * c[j] * 2 ** comb(k - j, 2) for j in range(1, k)))
    return c[n]


def labelled_trees(n: int) -> int:
    return n ** (n - 2)


def labelled_paths(n: int) -> int:
    return factorial(n) // 2


def max_split(n: int) -> tuple[int, int]:
    """(value, labelled copies) of the best split graph K_x + (n-x)K_1,
    whose total sigma index is x(n-x)(n-1-x)^2."""
    value, x = max((x * (n - x) * (n - 1 - x) ** 2, x) for x in range(1, n))
    return value, comb(n, x)


def max_complete_bipartite(n: int) -> int:
    """Largest a*b*(a-b)^2 over a + b = n, the total sigma index of K_{a,b}."""
    return max(a * (n - a) * (n - 2 * a) ** 2 for a in range(1, n))


def nonregular_min(n: int) -> int:
    """Smallest total sigma index of a non-regular graph: n-1 for odd n,
    2n-4 for even n."""
    return n - 1 if n % 2 else 2 * n - 4


# ---------------------------------------------------------------------------
# the seeded stream
# ---------------------------------------------------------------------------

def _relabel(rng: random.Random, n: int, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _gnp(rng, n, p):
    return [(i, j) for i, j in pair_order(n) if rng.random() < p]


def _random_tree(rng, n):
    return [(v, rng.randrange(v)) for v in range(1, n)]


def _disconnected(rng, n):
    cut = rng.randint(1, n - 1)
    left = [(i, j) for i, j in _gnp(rng, cut, rng.uniform(0.3, 1.0))]
    right = [(cut + i, cut + j) for i, j in _gnp(rng, n - cut, rng.uniform(0.3, 1.0))]
    return left + right


def _planted(rng, n):
    kind = rng.choice(("star", "path", "bipartite", "split", "cycle", "complete"))
    if kind == "star":
        return [(0, v) for v in range(1, n)]
    if kind == "path":
        return [(v, v + 1) for v in range(n - 1)]
    if kind == "cycle":
        return [(v, (v + 1) % n) for v in range(n)]
    if kind == "complete":
        return pair_order(n)
    a = rng.randint(1, n - 1)
    if kind == "bipartite":
        return [(i, j) for i in range(a) for j in range(a, n)]
    return [(i, j) for i in range(a) for j in range(i + 1, n)]


def stream(seed: int, count: int) -> list[str]:
    """``count`` graph6 records from ``seed``: orders 5..14; half G(n, p)
    with p drawn from [0.3, 0.95], a tenth random trees, a twentieth
    disconnected unions, and the rest planted extremal families (stars, paths, K_{a,b},
    split graphs, cycles, cliques) under a random relabelling."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(5, 14)
        roll = rng.random()
        if roll < 0.5:
            edges = _gnp(rng, n, rng.uniform(0.3, 0.95))
        elif roll < 0.6:
            edges = _random_tree(rng, n)
        elif roll < 0.65:
            edges = _disconnected(rng, n)
        else:
            edges = _planted(rng, n)
        out.append(encode(n, _relabel(rng, n, edges)))
    return out
