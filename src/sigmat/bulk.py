"""Vectorized table sweeps over all labeled graphs of a small order.

Every simple graph on n vertices is one integer mask over the C(n,2) edge
bits in graph6 column-major order, so a full labeled enumeration is just
``arange(2**E)`` plus bitwise arithmetic. This module computes per-mask
degrees, connectivity, triangle-freeness and sigma_t
(:func:`connected_table`, one pass over the mask range it is given), and is
the fast engine behind the order-6/7 searches. A table keeps the degrees,
sigma_t and triangle-freeness of each connected mask, 14 bytes a row at
n = 7; the search filters read the edge count and the max and min degree
from the degrees. :func:`sigma_columns` derives sigma and the
generalised-complete-k-partite flag of a table's rows, which no sweep
reads. The pairs of order n-1 are a prefix of those of
order n, so the masks of order n are the graphs of order n-1 extended by the
neighbourhood of vertex n-1: a table is built by one extension step from
cached tables of all graphs of each order up to 6 (0.6 MB at order 6, built
on first use), and nothing larger is cached, so an order-8 range extends its
order-7 bases on the fly. :func:`batched_spectra` gives both spectra of
many masks with one eigensolve pair per distinct relabelled copy over the
whole input: each mask is mapped to an isomorphic copy with its vertices
sorted by degree and neighbour-degree sum, the copies are grouped once, and
the masks of one copy share one solve. The matrices are built and solved
only in :mod:`sigmat.spectral`, which this module imports when spectra are
asked for, so the table sweeps do not load it. The stream-based enumerators
in :mod:`sigmat.oracle` are the reference implementations the tables are
validated against, and the scalar :func:`sigmat.spectral.laplacian_spectrum`
is the reference for the spectra.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph import graph_from_mask, pair_order

log = logging.getLogger("sigmat.bulk")

# masks per chunk of the oracle's sweeps over the edge-subset space, each
# chunk one table build
CHUNK_MASKS = 1 << 16
# masks per block of relabelling in batched_spectra: the arrays of one
# block stay in cache
_RELABEL_BLOCK = 1 << 10


@dataclass
class MaskTable:
    """Columns for the connected graphs in one mask range. Everything else
    the degrees give is derived from ``deg`` where it is read: twice the edge
    count is ``deg.sum(axis=0)``, the max degree ``deg.max(axis=0)`` and its
    multiplicity ``(deg == deg.max(axis=0)).sum(axis=0)``. ``sigma_t`` is
    int16, so a reader widens it before multiplying."""

    n: int
    masks: np.ndarray        # uint32, ascending
    deg: np.ndarray          # (n, k) uint8, degree of vertex v in column order
    sigma_t: np.ndarray      # int16, at most n^2 (n-1)^2 = 3,136 at n = 8
    triangle_free: np.ndarray  # bool


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
    pass holds one kept flag a base (a bool), the kept indices of one run
    at a time and, at n = 8, the bases of the range, so the sweeps hand it
    ranges of CHUNK_MASKS masks.
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
        joined = _joined(base, k, nbhd) == (1 << n) - 1
        runs.append((nbhd, base, joined, (nbhd << k * (k - 1) // 2) + lo))
    size = sum(np.count_nonzero(joined) for _, _, joined, _ in runs)
    table = MaskTable(
        n=n,
        masks=np.empty(size, dtype=np.uint32),
        deg=np.empty((n, size), dtype=np.uint8),
        sigma_t=np.empty(size, dtype=np.int16),
        triangle_free=np.empty(size, dtype=bool),
    )
    at = 0
    for nbhd, base, joined, first in runs:
        kept = np.flatnonzero(joined)
        rows = slice(at, at + kept.size)
        at += kept.size
        _evaluate(n, _extend(base[:2 * k + 1].take(kept, axis=1), k, nbhd), table, rows)
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


def _evaluate(n: int, graphs: np.ndarray, table: MaskTable, rows: slice) -> None:
    """Write the degrees, triangle-freeness and sigma_t = n M1 - (2m)^2 of
    the connected ``graphs`` of order n into ``rows`` of ``table``."""
    deg = graphs[:n]
    table.deg[:, rows] = deg
    table.triangle_free[rows] = graphs[2 * n] == 0
    twice_m = deg.sum(axis=0, dtype=np.int16)
    table.sigma_t[rows] = n * (deg * deg).sum(axis=0, dtype=np.int16) - twice_m * twice_m


def sigma_columns(table: MaskTable) -> tuple[np.ndarray, np.ndarray]:
    """sigma (int64) and the generalised-complete-k-partite flag (bool) of
    every row of ``table``, from its masks and degrees alone, in one pass
    over the pairs: sigma sums (deg i - deg j)^2 over the edges ij, and the
    flag holds where every non-adjacent pair has equal degrees. Neither
    reads sigma_t, so sigma == sigma_t against the flag is a real check."""
    signed = table.deg.view(np.int8)  # int8 holds every difference and its square
    sigma = np.zeros(table.masks.size, dtype=np.int16)  # at most 28 squares of 49
    apart = np.zeros(table.masks.size, dtype=bool)
    for e, (i, j) in enumerate(pair_order(table.n)):
        edge = (table.masks >> e & 1).astype(bool)
        diff = signed[i] - signed[j]
        sigma += diff * diff * edge
        apart |= (diff != 0) & ~edge
    return sigma.astype(np.int64), ~apart


def batched_spectra(n: int, masks: np.ndarray):
    """Energy, second-smallest and largest Laplacian eigenvalues for every
    mask, with one pair of dense symmetric eigensolves per distinct
    relabelled copy over the whole input.

    Every mask is first mapped to an isomorphic copy (:func:`_relabelled`).
    A copy is a vertex permutation of its masks, so it has their spectra.
    The copies are grouped once over the whole input: the 1,866,256
    connected masks at n = 7 have 3,218 distinct copies. The first mask of
    each copy in input order is decoded to a Graph, all of them are solved
    by one :func:`sigmat.spectral.laplacian_spectra` call, and each copy's
    values are copied to its other masks. Masks must be integers below
    2^C(n,2), for 1 <= n <= 8.

    Returns (energy, mu2, mu_max) float64 arrays aligned with ``masks``.
    For n == 1 mu2 is reported as NaN.
    """
    from .spectral import laplacian_spectra

    pairs = _mask_pairs(n)
    nedges = len(pairs)
    masks = np.asarray(masks)
    if masks.dtype.kind not in "iu":
        raise ValueError(f"masks must have an integer dtype, got {masks.dtype}")
    if masks.size and not 0 <= masks.min() <= masks.max() < 1 << nedges:
        raise ValueError(
            f"masks [{masks.min()}, {masks.max()}] are not within [0, {1 << nedges}) at n={n}"
        )
    start = time.perf_counter()
    relabelled = np.empty(masks.size, dtype=np.uint32)
    for b in range(0, masks.size, _RELABEL_BLOCK):
        relabelled[b:b + _RELABEL_BLOCK] = _relabelled(n, masks[b:b + _RELABEL_BLOCK])
    relabel = time.perf_counter()
    first, inverse = _classes(relabelled)  # each distinct copy's first mask, each mask's copy
    group = time.perf_counter()
    summaries = laplacian_spectra([graph_from_mask(n, mask, pairs) for mask in masks[first].tolist()])
    energy = np.array([s.energy for s in summaries]).take(inverse)
    mu2 = np.array([np.nan if s.mu2 is None else s.mu2 for s in summaries]).take(inverse)
    mu_max = np.array([s.mu_max for s in summaries]).take(inverse)
    end = time.perf_counter()
    log.debug("batched spectra at n=%d: %d masks, %d forms, %d eigensolves, %.3f s "
              "(relabel %.3f s, group %.3f s, solve %.3f s)", n, masks.size, first.size,
              2 * first.size, end - start, relabel - start, group - relabel, end - group)
    return energy, mu2, mu_max


@lru_cache(maxsize=None)
def _relabel_columns(n: int) -> tuple[np.ndarray, ...]:
    """The shift of each edge bit of order n; n times the vertex-edge
    incidence matrix and the edge-edge matrix of shared ends, as float32;
    the two ends of each edge; and the vertex labels."""
    a, b = np.array(pair_order(n), dtype=np.intp).reshape(-1, 2).T
    vertices = np.arange(n)[:, None]
    incidence = ((vertices == a) | (vertices == b)).astype(np.float32)
    return (np.arange(a.size, dtype=np.uint32)[:, None], n * incidence, incidence.T @ incidence,
            a, b, vertices.astype(np.float32))


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


def _classes(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the entries of a 1-D unsigned array of at most 32 bits, with
    fewer than 2^32 entries, into classes of equal values: the first index
    of each class, with the classes in ascending order of value, and the
    class of every entry. A class's first index is its first in the input.

    The values are sorted as the uint64 ``key << 32 | index``, which orders
    ties by index as a stable sort does and takes a third of the time of
    ``np.unique``.
    """
    ordered = np.sort(key.astype(np.uint64) << np.uint64(32) | np.arange(key.size, dtype=np.uint64))
    order = (ordered & np.uint64(0xFFFFFFFF)).astype(np.intp)
    ordered >>= np.uint64(32)
    new = np.ones(key.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    del ordered  # as large as the input: free it before the ranks
    inverse = np.empty(key.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse
