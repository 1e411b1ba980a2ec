"""Vectorized table sweeps over all labeled graphs or trees of a small order.

Every simple graph on n vertices is one integer mask over the C(n,2) edge
bits in graph6 column-major order, so a full labeled enumeration is just
``arange(2**E)`` plus bitwise arithmetic. This module computes per-mask
degree data, connectivity, triangle-freeness, the sigma indices, and (in
chunks) both spectra, and is the fast engine behind the order-6/7 searches.
Every labeled tree is likewise one Prüfer rank in ``arange(n**(n-2))``;
:func:`tree_table` decodes a range of them in lock step for the tree sweep.
The stream-based enumerators in :mod:`sigmat.oracle` are the reference
implementations both are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import pair_order


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


def connected_table(n: int, mask_lo: int = 0, mask_hi: int | None = None) -> MaskTable:
    """Build the table for every connected mask in [mask_lo, mask_hi), a
    range within the 2^C(n,2) edge subsets (the whole space by default)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    pairs = pair_order(n)
    nedges = len(pairs)
    if nedges > 32:
        raise ValueError(f"masks are uint32, so C(n,2) <= 32 and n <= 8; got n={n}")
    if mask_hi is None:
        mask_hi = 1 << nedges
    if not 0 <= mask_lo <= mask_hi <= 1 << nedges:
        raise ValueError(
            f"mask range [{mask_lo}, {mask_hi}) is not within [0, {1 << nedges}) at n={n}"
        )
    masks = np.arange(mask_lo, mask_hi, dtype=np.uint32)

    bits = [((masks >> np.uint32(e)) & np.uint32(1)).astype(np.uint8) for e in range(nedges)]

    deg = np.zeros((n, masks.size), dtype=np.uint8)
    adjm = np.zeros((n, masks.size), dtype=np.uint16)
    for e, (i, j) in enumerate(pairs):
        deg[i] += bits[e]
        deg[j] += bits[e]
        adjm[i] |= bits[e].astype(np.uint16) << np.uint16(j)
        adjm[j] |= bits[e].astype(np.uint16) << np.uint16(i)

    reached = np.ones(masks.size, dtype=np.uint16)
    for _ in range(n - 1):
        for v in range(n):
            member = ((reached >> np.uint16(v)) & np.uint16(1)).astype(bool)
            reached |= np.where(member, adjm[v], np.uint16(0))
    connected = reached == np.uint16((1 << n) - 1)

    degw = deg.astype(np.int64)
    m = degw.sum(axis=0) >> 1
    m1 = (degw * degw).sum(axis=0)
    sigma_t = n * m1 - 4 * m * m

    sigma = np.zeros(masks.size, dtype=np.int64)
    tri = np.zeros(masks.size, dtype=bool)
    bad_pair = np.zeros(masks.size, dtype=bool)
    for e, (i, j) in enumerate(pairs):
        present = bits[e].astype(bool)
        diff = degw[i] - degw[j]
        sigma += np.where(present, diff * diff, 0)
        tri |= present & ((adjm[i] & adjm[j]) != 0)
        bad_pair |= ~present & (deg[i] != deg[j])

    keep = connected
    return MaskTable(
        n=n,
        masks=masks[keep],
        deg=deg[:, keep],
        m=m[keep],
        sigma_t=sigma_t[keep],
        sigma=sigma[keep],
        triangle_free=~tri[keep],
        max_deg=degw[:, keep].max(axis=0),
        min_deg=degw[:, keep].min(axis=0),
        max_count=(deg[:, keep] == deg[:, keep].max(axis=0)).sum(axis=0).astype(np.int64),
        gen_kpartite=~bad_pair[keep],
    )


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


def batched_spectra(n: int, masks: np.ndarray, chunk: int = 65536):
    """Energy, second-smallest and largest Laplacian eigenvalues for every
    mask, via chunked dense symmetric eigensolves.

    Returns (energy, mu2, mu_max) float64 arrays aligned with ``masks``.
    For n == 1 mu2 is reported as NaN.
    """
    pairs = pair_order(n)
    energy = np.empty(masks.size, dtype=np.float64)
    mu2 = np.empty(masks.size, dtype=np.float64)
    mu_max = np.empty(masks.size, dtype=np.float64)
    for lo in range(0, masks.size, chunk):
        part = masks[lo:lo + chunk]
        a = np.zeros((part.size, n, n), dtype=np.float64)
        for e, (i, j) in enumerate(pairs):
            bit = ((part >> np.uint32(e)) & np.uint32(1)).astype(np.float64)
            a[:, i, j] = bit
            a[:, j, i] = bit
        adj_eigs = np.linalg.eigvalsh(a)
        energy[lo:lo + part.size] = np.abs(adj_eigs).sum(axis=1)
        degs = a.sum(axis=2)
        lap = -a
        idx = np.arange(n)
        lap[:, idx, idx] = degs
        lap_eigs = np.linalg.eigvalsh(lap)
        mu2[lo:lo + part.size] = lap_eigs[:, 1] if n >= 2 else np.nan
        mu_max[lo:lo + part.size] = lap_eigs[:, -1]
    return energy, mu2, mu_max
