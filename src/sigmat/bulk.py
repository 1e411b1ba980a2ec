"""Vectorized table sweeps over all labeled graphs of a small order.

Every simple graph on n vertices is one integer mask over the C(n,2) edge
bits in graph6 column-major order, so a full labeled enumeration is just
``arange(2**E)`` plus bitwise arithmetic. This module computes per-mask
degrees, connectivity, triangle-freeness and sigma_t
(:func:`connected_table`, over the mask range it is given), and is
the fast engine behind the order-6/7 searches. A table keeps the degrees,
sigma_t and triangle-freeness of each connected mask, 14 bytes a row at
n = 7; the search filters read the edge count and the max and min degree
from the degrees. :func:`sigma_columns` derives sigma and the
generalised-complete-k-partite flag of a table's rows, which no sweep
reads. The pairs of order n-1 are a prefix of those of
order n, so the masks of order n are the graphs of order n-1 joined by
vertex n-1 with a fixed neighbourhood, and at n = 8 the graphs of order 6
joined by vertices 6 and 7. Every graph of each order up to 6 is cached on
first use, read-only: its degrees packed into one uint64, its triangle-free
flag and the components of its vertices (0.48 MB at order 6, 0.51 MB for
orders 0 to 6). Each order is built from the one below by the same join of
a vertex that fills the tables. A table is built run by run from slices of
the order-6 cache or below: one uint64 gather of the kept bases' packed
degrees per run, plus one packed constant for the joined vertices; no
order-7 graph is ever built. :func:`batched_spectra` gives both spectra of
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
    N of vertex n-1. At n = 8, b splits once more, so every mask is a graph
    of order k = min(n-1, 6) joined by one vertex, or by two at n = 8, and
    the range falls into runs of consecutive bases under one choice of
    neighbourhoods. A run reads a slice of the read-only cache of all
    graphs of order k (:func:`_all_graphs`): their packed degrees,
    triangle-free flags and components, 0.48 MB at order 6. No order-7
    graph is built.

    A first pass over the runs flags the bases that the joined vertices
    connect (:func:`_connected`) and counts them, so the columns are
    allocated once. A second pass fills each run's rows: one uint64 gather
    of the kept bases' packed degrees, one packed constant adding the
    joined vertices' degrees (no byte carries, since no degree passes 7)
    and one transposing copy into ``deg``; one bool gather of the bases'
    triangle-free flags, cleared where the mask has an edge inside a joined
    vertex's neighbourhood; and sigma_t = n M1 - (2m)^2 from the degrees.
    Besides the table, the build holds one kept flag a mask and the
    gathered rows of one run, so the sweeps hand it ranges of CHUNK_MASKS
    masks.
    """
    nedges = len(_mask_pairs(n))
    if mask_hi is None:
        mask_hi = 1 << nedges
    if not 0 <= mask_lo <= mask_hi <= 1 << nedges:
        raise ValueError(
            f"mask range [{mask_lo}, {mask_hi}) is not within [0, {1 << nedges}) at n={n}"
        )
    k = min(n - 1, _MAX_BASE_ORDER)
    degrees, free, comps = _all_graphs(k)
    runs = _base_runs(n, mask_lo, mask_hi)
    kept = [_connected(comps[:, lo:hi], k, nbhds) for nbhds, lo, hi, _ in runs]
    size = sum(np.count_nonzero(flags) for flags in kept)
    table = MaskTable(
        n=n,
        masks=np.empty(size, dtype=np.uint32),
        deg=np.empty((n, size), dtype=np.uint8),
        sigma_t=np.empty(size, dtype=np.int16),
        triangle_free=np.empty(size, dtype=bool),
    )
    packed = np.empty(max((flags.size for flags in kept), default=0), dtype=degrees.dtype)
    at = 0
    for (nbhds, lo, hi, first), flags in zip(runs, kept):
        index = np.flatnonzero(flags)
        rows = slice(at, at + index.size)
        at += index.size
        increment, inner = _joins(k, nbhds)
        masks = table.masks[rows]
        np.add(index, first, out=masks, casting="unsafe")
        # an out= take buffers its output unless told how to treat bad
        # indices; these are all in range
        run = np.take(degrees[lo:hi], index, out=packed[:index.size], mode="clip")
        run += increment
        deg = table.deg[:, rows]
        deg[...] = run.view(np.uint8).reshape(-1, 8)[:, :n].T
        triangle_free = table.triangle_free[rows]
        np.take(free[lo:hi], index, out=triangle_free, mode="clip")
        if inner:
            triangle_free &= (masks & inner) == 0
        twice_m = deg.sum(axis=0, dtype=np.int16)
        table.sigma_t[rows] = n * (deg * deg).sum(axis=0, dtype=np.int16) - twice_m * twice_m
    return table


# orders whose graphs are cached; order 6 is 2^15 graphs, 0.48 MB
_MAX_BASE_ORDER = 6


@lru_cache(maxsize=None)
def _all_graphs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every graph of order k <= _MAX_BASE_ORDER, indexed by mask: its
    degrees packed into one little-endian uint64, byte v the degree of
    vertex v; its triangle-free flag; and a (k, graphs) uint8 array of the
    bitmask of each vertex's component. Built on first use from the order
    below, by the join that fills the tables; read-only, since every table
    of the process reads it."""
    if k == 0:
        degrees, free = np.zeros(1, dtype="<u8"), np.ones(1, dtype=bool)
        comps = np.zeros((0, 1), dtype=np.uint8)
    else:
        base_degrees, base_free, base_comps = _all_graphs(k - 1)
        width = base_free.size
        masks = np.arange(width)
        degrees = np.empty(width << k - 1, dtype=base_degrees.dtype)
        free = np.empty(degrees.size, dtype=bool)
        comps = np.empty((k, degrees.size), dtype=np.uint8)
        for nbhd in range(1 << k - 1):
            at = slice(nbhd * width, (nbhd + 1) * width)
            increment, inner = _joins(k - 1, (nbhd,))
            np.add(base_degrees, increment, out=degrees[at])
            np.logical_and(base_free, (masks & inner) == 0, out=free[at])
            # the components that nbhd meets merge with the new vertex
            joined = _reached(base_comps, nbhd) | 1 << k - 1
            comps[:k - 1, at] = np.where((base_comps & nbhd) != 0, joined, base_comps)
            comps[k - 1, at] = joined
    for array in (degrees, free, comps):
        array.flags.writeable = False
    return degrees, free, comps


def _base_runs(n: int, lo: int, hi: int) -> list[tuple[tuple[int, ...], int, int, int]]:
    """The runs of the masks [lo, hi) of order n, in mask order, none for
    an empty range: for each, the neighbourhoods of the vertices joined to
    the cached graphs of order min(n-1, _MAX_BASE_ORDER), in vertex order,
    the range of base masks it covers and its first mask of order n."""
    k = n - 1
    width = 1 << k * (k - 1) // 2
    runs = []
    for nbhd in range(lo // width, -(-hi // width) if lo < hi else 0):
        offset = nbhd * width
        blo, bhi = max(lo - offset, 0), min(hi - offset, width)
        if k <= _MAX_BASE_ORDER:
            runs.append(((nbhd,), blo, bhi, offset + blo))
        else:
            runs += [(inner + (nbhd,), ilo, ihi, offset + first)
                     for inner, ilo, ihi, first in _base_runs(k, blo, bhi)]
    return runs


def _reached(comps: np.ndarray, nbhd: int) -> np.ndarray:
    """The union of the components ``comps`` (one row a vertex) that the
    bitmask ``nbhd`` meets, as a bitmask of their vertices."""
    reached = np.zeros(comps.shape[1], dtype=np.uint8)
    for v, comp in enumerate(comps):
        if nbhd >> v & 1:
            reached |= comp
    return reached


def _connected(comps: np.ndarray, k: int, nbhds: tuple[int, ...]) -> np.ndarray:
    """Where the graphs of order k with the components ``comps``, joined by
    a vertex k with neighbourhood ``nbhds[0]`` and, if there is a second
    one, a vertex k+1 with ``nbhds[1]``, are connected. One vertex connects a graph when it meets
    all of its components. Two do when together they meet all of them and
    are joined to each other: by an edge, or through a component both meet."""
    full = (1 << k) - 1
    if len(nbhds) == 1:
        return _reached(comps, nbhds[0]) == full
    inner, outer = (_reached(comps, nbhd) for nbhd in nbhds)
    connected = (inner | outer) == full
    if not nbhds[1] >> k & 1:
        connected &= (inner & outer) != 0
    return connected


@lru_cache(maxsize=None)
def _joins(k: int, nbhds: tuple[int, ...]) -> tuple[int, int]:
    """The packed degree increment of joining vertices k, k+1, ... with
    the neighbourhoods ``nbhds`` to a graph of order k, and the mask of the
    pairs inside those neighbourhoods: a vertex w closes a triangle exactly
    when an edge of the graph on vertices 0..w-1, whose mask is the low
    C(w,2) bits of the whole mask, lies inside its neighbourhood."""
    increment = inner = 0
    for w, nbhd in enumerate(nbhds, start=k):
        increment += nbhd.bit_count() << 8 * w
        increment += sum(1 << 8 * v for v in range(w) if nbhd >> v & 1)
        inner |= sum(1 << e for e, (u, v) in enumerate(pair_order(w)) if nbhd >> u & nbhd >> v & 1)
    return increment, inner


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
