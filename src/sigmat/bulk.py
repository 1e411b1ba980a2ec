"""Vectorized table sweeps over all labeled graphs or trees of a small order.

Every simple graph on n vertices is one integer mask over the C(n,2) edge
bits in graph6 column-major order, so a full labeled enumeration is just
``arange(2**E)`` plus bitwise arithmetic. This module computes per-mask
degree data, connectivity, triangle-freeness and the sigma indices
(:func:`connected_table`, one pass over the mask range it is given), and is
the fast engine behind the order-6/7 searches. The pairs of order n-1 are a
prefix of those of order n, so the masks of order n are the graphs of order
n-1 extended by the neighbourhood of vertex n-1: a table is built by one
extension step from cached tables of all graphs of each order up to 6
(0.6 MB at order 6, built on first use), and nothing larger is cached, so
an order-8 range extends its order-7 bases on the fly. :func:`batched_spectra`
gives both spectra of many masks with one eigensolve pair per cospectral
class in each chunk. Each mask is first mapped to an isomorphic copy with
its vertices sorted by degree and neighbour-degree sum, which keeps its
power sums; the exact integer power sums of A and L of each distinct copy,
which fix both spectra, identify the class, so relabelled copies of a graph
share one solve. Every labeled tree is likewise one Prüfer rank in
``arange(n**(n-2))``; :func:`tree_table` decodes a range of them in lock
step for the tree sweep.
The stream-based enumerators in :mod:`sigmat.oracle` are the reference
implementations the tables are validated against, and the scalar
:func:`sigmat.spectral.laplacian_spectrum` is the reference for the spectra.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import pair_order

log = logging.getLogger("sigmat.bulk")

# masks per chunk of the oracle's sweeps over the edge-subset space, each
# chunk one table build, and per batch of eigensolves
CHUNK_MASKS = 1 << 16
# masks per block of relabelling and of class keys in batched_spectra: the
# arrays of one block stay in cache, which halves the cost of the power sums
_KEY_BLOCK = 1 << 10


@dataclass
class MaskTable:
    """Columns for the connected graphs in one mask range."""

    n: int
    masks: np.ndarray        # uint32, ascending
    deg: np.ndarray          # (n, k) uint8, degree of vertex v in column order
    m: np.ndarray            # int64 edge counts
    sigma_t: np.ndarray      # int64
    sigma: np.ndarray        # int64
    triangle_free: np.ndarray  # bool
    max_deg: np.ndarray      # int64
    min_deg: np.ndarray      # int64
    max_count: np.ndarray    # int64, multiplicity of the max degree
    gen_kpartite: np.ndarray  # bool: non-adjacent pairs all have equal degree


def _mask_pairs(n: int) -> list[tuple[int, int]]:
    """The edge pairs of order n, after checking that its masks fit uint32."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pairs = pair_order(n)
    if len(pairs) > 32:
        raise ValueError(f"masks are uint32, so C(n,2) <= 32 and n <= 8; got n={n}")
    return pairs


def connected_table(n: int, mask_lo: int = 0, mask_hi: int | None = None) -> MaskTable:
    """Build the table for every connected mask in [mask_lo, mask_hi), a
    range within the 2^C(n,2) edge subsets (the whole space by default).

    The pairs of order n-1 are a prefix of those of order n, so a mask is
    ``b | N << C(n-1,2)``: a graph b on vertices 0..n-2 and the neighbourhood
    N of vertex n-1. The range is built in one pass, in which every N covers
    one run of consecutive base masks b. A run takes its bases as a slice of
    the cached table of all graphs of order n-1 (built once per order <= 6,
    by the same extension, and 0.6 MB at order 6); at n = 8 the order-7
    bases of a run are extended from the order-6 table on the fly, so no
    2^21-row order-7 table is ever held. A base is kept when vertex n-1
    joins all of its components, and only the kept rows are extended and
    evaluated, straight into the table's columns. Besides the table, the
    pass holds the kept indices and, at n = 8, the bases of the range, so
    the sweeps hand it ranges of CHUNK_MASKS masks.
    """
    nedges = len(_mask_pairs(n))
    if mask_hi is None:
        mask_hi = 1 << nedges
    if not 0 <= mask_lo <= mask_hi <= 1 << nedges:
        raise ValueError(
            f"mask range [{mask_lo}, {mask_hi}) is not within [0, {1 << nedges}) at n={n}"
        )
    k = n - 1  # the base order
    runs = []
    for nbhd, lo, hi in _runs(n, mask_lo, mask_hi):
        base = _graphs(k, lo, hi)
        kept = np.flatnonzero(_joined(base, k, nbhd) == (1 << n) - 1)
        runs.append((nbhd, base, kept, (nbhd << k * (k - 1) // 2) + lo))
    size = sum(kept.size for _, _, kept, _ in runs)
    table = MaskTable(
        n=n,
        masks=np.empty(size, dtype=np.uint32),
        deg=np.empty((n, size), dtype=np.uint8),
        m=np.empty(size, dtype=np.int64),
        sigma_t=np.empty(size, dtype=np.int64),
        sigma=np.empty(size, dtype=np.int64),
        triangle_free=np.empty(size, dtype=bool),
        max_deg=np.empty(size, dtype=np.int64),
        min_deg=np.empty(size, dtype=np.int64),
        max_count=np.empty(size, dtype=np.int64),
        gen_kpartite=np.empty(size, dtype=bool),
    )
    at = 0
    for nbhd, base, kept, first in runs:
        rows = slice(at, at + kept.size)
        at += kept.size
        _evaluate(n, _extend(base[:2 * k + 1].take(kept, axis=1), k, nbhd), nbhd, table, rows)
        table.masks[rows] = kept + first
    return table


# Graphs of order k in one mask range are a (3k + 1, graphs) uint8 array.
# Rows 0..k-1 hold the degrees and rows k..2k-1 the adjacency bitmasks; row
# 2k is nonzero where the graph has a triangle; rows 2k+1..3k hold the
# bitmask of each vertex's component. The rows of a table need no
# components, so they are built from the first 2k + 1 rows alone. uint8
# bitmasks hold every order up to 8.

# orders whose table of all graphs is cached; order 6 is 2^15 graphs, 0.6 MB
_MAX_BASE_ORDER = 6


def _joined(graphs: np.ndarray, k: int, nbhd: int) -> np.ndarray:
    """The component of a vertex k joined to the vertices of ``nbhd``."""
    joined = np.full(graphs.shape[1], 1 << k, dtype=np.uint8)
    for v in range(k):
        if nbhd >> v & 1:
            joined |= graphs[2 * k + 1 + v]
    return joined


def _extend(graphs: np.ndarray, k: int, nbhd: int) -> np.ndarray:
    """``graphs`` of order k with a vertex k joined to the vertices of the
    bitmask ``nbhd``, in the same order, with components if ``graphs`` has
    them: the one step that builds the cached tables and a table's rows."""
    components = graphs.shape[0] == 3 * k + 1
    out = np.empty((graphs.shape[0] + 2 + components, graphs.shape[1]), dtype=np.uint8)
    out[:k] = graphs[:k]
    out[k] = nbhd.bit_count()
    out[k + 1:2 * k + 1] = graphs[k:2 * k]
    out[2 * k + 1] = nbhd
    triangle = out[2 * k + 2]
    triangle[:] = graphs[2 * k]
    for v in range(k):
        if nbhd >> v & 1:
            out[v] += 1
            out[k + 1 + v] |= 1 << k
            triangle |= graphs[k + v] & nbhd  # an edge inside N closes a triangle
    if components:
        comp = graphs[2 * k + 1:]
        joined = _joined(graphs, k, nbhd)
        out[2 * k + 3:3 * k + 3] = np.where((comp & nbhd) != 0, joined, comp)
        out[3 * k + 3] = joined
    return out


@lru_cache(maxsize=None)
def _all_graphs(k: int) -> np.ndarray:
    """Every graph of order k <= _MAX_BASE_ORDER with its components,
    indexed by mask, built on first use from the order below it."""
    if k == 0:
        return np.zeros((1, 1), dtype=np.uint8)
    base = _all_graphs(k - 1)
    return np.concatenate([_extend(base, k - 1, nbhd) for nbhd in range(1 << (k - 1))], axis=1)


def _runs(n: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(N, base_lo, base_hi) for each neighbourhood N of vertex n-1 that
    the masks [lo, hi) of order n reach, with the range of base masks of
    order n-1 that it covers there, in mask order; none for an empty range."""
    width = 1 << (n - 1) * (n - 2) // 2
    return [(nbhd, max(lo - nbhd * width, 0), min(hi - nbhd * width, width))
            for nbhd in range(lo // width, -(-hi // width) if lo < hi else 0)]


def _graphs(k: int, lo: int, hi: int) -> np.ndarray:
    """The graphs of order k with masks in [lo, hi), with components: a
    slice of the cached table up to _MAX_BASE_ORDER, extended run by run
    above it."""
    if k <= _MAX_BASE_ORDER:
        return _all_graphs(k)[:, lo:hi]
    return np.concatenate([_extend(_graphs(k - 1, blo, bhi), k - 1, nbhd)
                           for nbhd, blo, bhi in _runs(k, lo, hi)], axis=1)


def _evaluate(n: int, graphs: np.ndarray, nbhd: int, table: MaskTable, rows: slice) -> None:
    """Write the columns of the connected ``graphs`` of order n, whose vertex
    n-1 has the neighbourhood ``nbhd``, into ``rows`` of ``table``."""
    deg = graphs[:n]
    adj = graphs[n:2 * n]
    table.deg[:, rows] = deg
    table.triangle_free[rows] = graphs[2 * n] == 0
    twice_m = deg.sum(axis=0, dtype=np.int16)
    table.m[rows] = twice_m >> 1
    table.sigma_t[rows] = n * (deg * deg).sum(axis=0, dtype=np.int16) - twice_m * twice_m
    top = deg.max(axis=0)
    table.max_deg[rows] = top
    table.min_deg[rows] = deg.min(axis=0)
    table.max_count[rows] = (deg == top).sum(axis=0, dtype=np.int8)
    # int8 holds every degree difference and its square (at most 49); sigma
    # sums the squares over the edges, and ``apart`` is nonzero where a
    # non-adjacent pair has unequal degrees
    signed = deg.view(np.int8)
    sigma = np.zeros(deg.shape[1], dtype=np.int16)
    apart = np.zeros(deg.shape[1], dtype=np.int8)
    for j in range(1, n - 1):
        for i in range(j):
            diff = signed[i] - signed[j]
            square = diff * diff
            edge = square * ((adj[i] >> j) & 1).view(np.int8)
            sigma += edge
            apart |= square ^ edge
    last = nbhd.bit_count()  # the degree of vertex n-1
    for i in range(n - 1):
        diff = signed[i] - last
        if nbhd >> i & 1:
            sigma += diff * diff
        else:
            apart |= diff
    table.sigma[rows] = sigma
    table.gen_kpartite[rows] = apart == 0


@dataclass
class TreeTable:
    """Columns for the labeled trees whose Prüfer ranks lie in one range."""

    n: int
    ranks: np.ndarray        # int64, ascending
    max_deg: np.ndarray      # int16
    sigma_t: np.ndarray      # int64
    sigma: np.ndarray        # int64


def tree_table(n: int, rank_lo: int = 0, rank_hi: int | None = None) -> TreeTable:
    """Build the table for every labeled tree whose Prüfer sequence has its
    rank in [rank_lo, rank_hi), a range within the n^(n-2) sequences (all of
    them by default).

    A rank reads the sequence as base-n digits, most significant first, so
    ranks ascend in ``itertools.product`` order. All sequences of the range
    are decoded in lock step: at each step every tree joins its smallest leaf
    (the first vertex with one edge left) to the next sequence entry, and the
    last edge joins the remaining leaf to n-1.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    total = n ** (n - 2)
    if total >= 1 << 63:
        raise ValueError(f"ranks are int64, so n^(n-2) < 2^63 and n <= 17; got n={n}")
    if rank_hi is None:
        rank_hi = total
    if not 0 <= rank_lo <= rank_hi <= total:
        raise ValueError(f"rank range [{rank_lo}, {rank_hi}) is not within [0, {total}) at n={n}")
    ranks = np.arange(rank_lo, rank_hi, dtype=np.int64)
    k = ranks.size
    row = np.arange(0, k * n, n)  # flat index of vertex 0 in each tree's row

    # int16 holds every degree, squared degree and squared difference at n <= 17
    seq = np.empty((n - 2, k), dtype=np.int16)
    rest = ranks
    for j in range(n - 3, -1, -1):
        rest, seq[j] = np.divmod(rest, n)
    deg = np.ones(k * n, dtype=np.int16)
    for x in seq:
        deg[row + x] += 1
    rows = deg.reshape(k, n)
    sigma_t = n * (rows * rows).sum(axis=1, dtype=np.int64) - 4 * (n - 1) ** 2

    work = deg.copy()
    left = work.reshape(k, n)  # a view: edges each vertex has not yet used
    sigma = np.zeros(k, dtype=np.int64)
    for x in seq:
        leaf = row + (left == 1).argmax(axis=1)
        at = row + x
        d = deg[leaf] - deg[at]
        sigma += d * d
        work[leaf] = 0
        work[at] -= 1
    d = deg[row + (left == 1).argmax(axis=1)] - deg[row + (n - 1)]
    sigma += d * d

    return TreeTable(n=n, ranks=ranks, max_deg=rows.max(axis=1), sigma_t=sigma_t, sigma=sigma)


def batched_spectra(n: int, masks: np.ndarray):
    """Energy, second-smallest and largest Laplacian eigenvalues for every
    mask, with one pair of dense symmetric eigensolves per cospectral class
    in each chunk of CHUNK_MASKS masks.

    Relabelling a graph does not change its spectra, and the 1,866,256
    connected masks at n = 7 are only 853 isomorphism classes. A mask's key
    is the power sums (tr A^k, tr L^k for k = 1..n) of its adjacency matrix A
    and Laplacian L: by Newton's identities the power sums p_1..p_n of an
    n x n matrix fix its characteristic polynomial, so masks with equal keys
    have equal spectra.
    Every mask is first mapped to a relabelled copy (:func:`_relabelled`),
    and the key is computed once per distinct copy in each chunk, not once
    per mask: a relabelling is an isomorphism, so a copy has the power sums
    of its masks, and the 1,866,256 masks at n = 7 are 52,711 distinct
    copies summed over the chunks. The key is exact. Every entry of A^k and
    L^k and every partial sum of a trace is an integer of modulus at most
    n * (2(n-1))^k, which is below 8 * 14^8 < 1.2e10 < 2^53 for n <= 8, so
    the float64 matmuls and sums make no rounding error. The first original
    mask of each class in mask order is solved and its values are copied to
    the rest of the class. Masks must be integers below 2^C(n,2), for
    1 <= n <= 8.

    Returns (energy, mu2, mu_max) float64 arrays aligned with ``masks``.
    For n == 1 mu2 is reported as NaN.
    """
    nedges = len(_mask_pairs(n))
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iu":
        raise ValueError(f"masks must have an integer dtype, got {masks.dtype}")
    if masks.size and not 0 <= masks.min() <= masks.max() < 1 << nedges:
        raise ValueError(
            f"masks [{masks.min()}, {masks.max()}] are not within [0, {1 << nedges}) at n={n}"
        )
    start = time.perf_counter()
    energy = np.empty(masks.size, dtype=np.float64)
    mu2 = np.empty(masks.size, dtype=np.float64)
    mu_max = np.empty(masks.size, dtype=np.float64)
    relabelled = np.empty(masks.size, dtype=np.uint32)
    for b in range(0, masks.size, _KEY_BLOCK):
        relabelled[b:b + _KEY_BLOCK] = _relabelled(n, masks[b:b + _KEY_BLOCK])
    forms = classes = 0
    for lo in range(0, masks.size, CHUNK_MASKS):
        part, copies = masks[lo:lo + CHUNK_MASKS], relabelled[lo:lo + CHUNK_MASKS]
        distinct, copy = _classes(copies[None])  # each distinct copy's first mask, each mask's copy
        by_mask = np.argsort(distinct)  # the distinct copies in the order of their first masks
        first, cls = _classes(np.concatenate(
            [_class_keys(n, copies[distinct[by_mask[b:b + _KEY_BLOCK]]])
             for b in range(0, distinct.size, _KEY_BLOCK)], axis=1))
        first = distinct[by_mask[first]]
        copy_cls = np.empty_like(cls)
        copy_cls[by_mask] = cls
        inverse = copy_cls[copy]
        forms += distinct.size
        classes += first.size
        adj, lap = _matrices(n, part[first])
        adj_eigs = np.linalg.eigvalsh(adj)
        lap_eigs = np.linalg.eigvalsh(lap)
        energy[lo:lo + part.size] = np.abs(adj_eigs).sum(axis=1)[inverse]
        mu2[lo:lo + part.size] = lap_eigs[inverse, 1] if n >= 2 else np.nan
        mu_max[lo:lo + part.size] = lap_eigs[inverse, -1]
    log.debug("batched spectra at n=%d: %d masks, %d forms, %d classes, %d eigensolves, %.3f s",
              n, masks.size, forms, classes, 2 * classes, time.perf_counter() - start)
    return energy, mu2, mu_max


@lru_cache(maxsize=None)
def _entry_columns(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each entry of A and of L sits among the columns
    [0 | edge bits | -edge bits | degrees] of a mask, and the edge-vertex
    incidence matrix that gives the degrees."""
    pairs = pair_order(n)
    nedges = len(pairs)
    adj_at = np.zeros((n, n), dtype=np.intp)
    lap_at = 1 + 2 * nedges + np.diag(np.arange(n))
    incidence = np.zeros((nedges, n))
    for e, (i, j) in enumerate(pairs):
        adj_at[i, j] = adj_at[j, i] = 1 + e
        lap_at[i, j] = lap_at[j, i] = 1 + nedges + e
        incidence[e, [i, j]] = 1.0
    return adj_at, lap_at, incidence


def _matrices(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency and Laplacian matrices of each mask, as float64."""
    adj_at, lap_at, incidence = _entry_columns(n)
    bits = ((masks[:, None] >> np.arange(len(incidence), dtype=np.uint32)) & 1).astype(np.float64)
    entries = np.concatenate([np.zeros((masks.size, 1)), bits, -bits, bits @ incidence], axis=1)
    return entries.take(adj_at, axis=1), entries.take(lap_at, axis=1)


@lru_cache(maxsize=None)
def _relabel_columns(n: int) -> tuple[np.ndarray, ...]:
    """The shift of each edge bit of order n; n times the vertex-edge
    incidence matrix and the edge-edge matrix of shared ends, as float32;
    the two ends of each edge; and the vertex labels."""
    incidence = _entry_columns(n)[2].T.astype(np.float32)
    a, b = np.array(pair_order(n), dtype=np.intp).reshape(-1, 2).T
    return (np.arange(a.size, dtype=np.uint32)[:, None], n * incidence, incidence.T @ incidence,
            a, b, np.arange(n, dtype=np.float32)[:, None])


def _relabelled(n: int, masks: np.ndarray) -> np.ndarray:
    """An isomorphic copy of each mask, as uint32: the vertices renumbered in
    a stable sort on (degree, sum of neighbour degrees).

    The copy depends on the labels only through the ties, so the masks of
    one graph mostly share a few copies. Every step is a fixed number of
    array operations on the whole batch, so a batch of one mask is cheap.
    """
    shifts, scaled, shared, a, b, labels = _relabel_columns(n)
    bits = (masks.astype(np.uint32, copy=False) >> shifts) & np.uint32(1)  # (edges, masks)
    edges = bits.astype(np.float32)
    # shared @ edges is deg(u) + deg(v) for each edge uv. Summed over the
    # edges at v, deg(u) + deg(v) + 128 is 128 deg(v) + deg(v)^2 plus the
    # neighbour-degree sum, which is at most 49 < 128, so it orders the
    # vertices as (degree, sum) does; times n plus the label v, ties go in
    # vertex order. Every value is below 2^13, exact in float32.
    key = scaled @ (edges * (shared @ edges + 128))
    key += labels
    rank = (key < key[:, None]).sum(axis=1, dtype=np.uint8)  # the new label of each vertex
    ra, rb = rank[a], rank[b]
    hi = np.maximum(ra, rb)
    # the pair lo < hi is bit hi(hi - 1)/2 + lo in graph6 column order
    return (bits << (hi * (hi - 1) // 2 + np.minimum(ra, rb))).sum(axis=0, dtype=np.uint32)


def _class_keys(n: int, masks: np.ndarray) -> np.ndarray:
    """The exact key of each mask, one column per mask: tr A^k, then
    tr L^k, for k = 1..n."""
    adj, lap = _matrices(n, masks)
    return np.concatenate([_power_sums(adj), _power_sums(lap)])


def _power_sums(x: np.ndarray) -> np.ndarray:
    """tr X^k for each symmetric integer n x n matrix of a stack, as an
    int64 array with one row per power k = 1..n. tr X^k is the elementwise
    sum of X^(k//2) * X^(k - k//2), so powers up to X^ceil(n/2) suffice."""
    n = x.shape[-1]
    powers = [x]  # powers[p - 1] = X^p
    while len(powers) < (n + 1) // 2:
        powers.append(powers[-1] @ x)
    sums = np.empty((n, x.shape[0]), dtype=np.int64)
    sums[0] = np.einsum("kii->k", x)
    for k in range(2, n + 1):
        sums[k - 1] = np.einsum("kij,kij->k", powers[k // 2 - 1], powers[k - k // 2 - 1])
    return sums


def _classes(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the columns of a key array into classes of equal columns: the
    first column of each class, and the class of every column. The sort is
    stable, so a class's first column in sorted order is its first in the
    input."""
    order = np.lexsort(key)
    ordered = key[:, order]
    new = np.ones(key.shape[1], dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    inverse = np.empty(key.shape[1], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse
