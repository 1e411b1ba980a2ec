"""Laplacian and adjacency spectra (with the graph energy) and the
Rayleigh-quotient ratio that brackets between the algebraic connectivity
and the largest Laplacian eigenvalue, for one vector or a batch of them.

The matrices of many graphs are built by order, as one (k, 2, n, n) stack
per order, and each stack is solved by one ``np.linalg.eigvalsh`` call,
looked up when it is called; a single graph is a list of one. This stack is
the only place the package builds L and A and reads spectra from:
:func:`spectra_by_order` gives each order's (k, 2, n) eigenvalue array, and
:func:`spectrum_values` reads the energy, mu2 and mu_max of every graph
from it. The ``spectral`` command prints :func:`laplacian_spectra`'s
records, built from those arrays; the stream bounds
(:func:`sigmat.bounds.graph_facts`) and
:func:`sigmat.bulk.batched_spectra`, which hands it one graph per class of
masks, read the three values straight from the arrays and build no record.
numpy is imported by the functions that build arrays, so a command that
never asks for a spectrum does not load it.

All comparisons against eigenvalues use an absolute tolerance scaled by
n*maxdeg; eigenvalues live in [0, 2*maxdeg], so a relative tolerance would
misfire near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .graph import Graph

if TYPE_CHECKING:
    import numpy as np


def spectral_tolerance(g: Graph) -> float:
    """Absolute tolerance 1e-8 * max(1, n * maxdeg) for spectral comparisons."""
    return 1e-8 * max(1.0, g.n * max(g.degrees()))


def spectral_matrices(graphs: Sequence[Graph]) -> np.ndarray:
    """The Laplacian D - A and the adjacency matrix A of each of k graphs of
    one order n as one (k, 2, n, n) float64 stack, L in slot 0 and A in
    slot 1.

    All the adjacency bitmasks are unpacked by one ``np.unpackbits``; L is
    0 - A with the degrees on its diagonal, so its off-diagonal zeros are
    +0.0 as in ``np.diag(A.sum(1)) - A``. Apart from the stack, the only
    n x n temporaries are the k uint8 bit matrices. Raises ValueError for an
    empty list or graphs of more than one order.
    """
    import numpy as np

    if not graphs:
        raise ValueError("no graphs to build matrices for")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError(f"graphs of more than one order in one stack (first has n={n})")
    k, width = len(graphs), (n + 7) // 8
    raw = b"".join(a.to_bytes(width, "little") for g in graphs for a in g.adj)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(k * n, width), axis=1, count=n,
                         bitorder="little")
    stack = np.empty((k, 2, n, n), dtype=np.float64)
    lap, adj = stack[:, 0], stack[:, 1]
    adj[...] = bits.reshape(k, n, n)
    np.subtract(0.0, adj, out=lap)
    diagonal = np.arange(n)
    lap[:, diagonal, diagonal] = adj.sum(axis=2)
    return stack


@dataclass(frozen=True)
class SpectralSummary:
    """Both spectra sorted ascending, the energy, and the two Laplacian
    eigenvalues the sigma/sigma_t comparisons need. ``mu2`` is None for n=1."""

    laplacian_eigenvalues: tuple[float, ...]
    adjacency_eigenvalues: tuple[float, ...]
    energy: float
    mu2: float | None
    mu_max: float = field(metadata={"json_key": "muN"})


def spectra_by_order(graphs: Sequence[Graph]) -> list[tuple[list[int], np.ndarray]]:
    """Both spectra of each graph, solved by order: for each order, in order
    of first appearance, the positions of its graphs in the input and their
    (k, 2, n) float64 eigenvalues, each row ascending, the Laplacian's in
    slot 0 and the adjacency matrix's in slot 1, from one ``eigvalsh`` call
    on the order's :func:`spectral_matrices` stack.

    Raises numpy's LinAlgError if the eigensolver fails to converge on any
    of them; partial spectra are never returned.
    """
    import numpy as np

    by_order: dict[int, list[int]] = {}
    for k, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(k)
    return [(members, np.linalg.eigvalsh(spectral_matrices([graphs[k] for k in members])))
            for members in by_order.values()]


def spectrum_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The energy (the sum of the absolute adjacency eigenvalues), mu2 and
    mu_max of each graph of a (k, 2, n) eigenvalue array from
    :func:`spectra_by_order`, as three float64 arrays of k; mu2 is NaN at
    n = 1."""
    import numpy as np

    lap = values[:, 0]
    mu2 = lap[:, 1] if values.shape[-1] >= 2 else np.full(len(values), np.nan)
    return np.abs(values[:, 1]).sum(axis=1), mu2, lap[:, -1]


def laplacian_spectra(graphs: Sequence[Graph]) -> list[SpectralSummary]:
    """Full dense symmetric eigensolves of D - A and A for each graph, in
    input order, as the records the ``spectral`` command prints: one
    :func:`spectra_by_order` call, with the energy from
    :func:`spectrum_values`.

    Raises numpy's LinAlgError if the eigensolver fails to converge on any
    of them; partial spectra are never returned.
    """
    spectra: list[SpectralSummary | None] = [None] * len(graphs)
    for members, values in spectra_by_order(graphs):
        n = values.shape[-1]
        energies = spectrum_values(values)[0].tolist()
        for k, (lap, adj), energy in zip(members, values.tolist(), energies):
            spectra[k] = SpectralSummary(
                laplacian_eigenvalues=tuple(lap),
                adjacency_eigenvalues=tuple(adj),
                energy=energy,
                mu2=lap[1] if n >= 2 else None,
                mu_max=lap[-1],
            )
    return spectra


def laplacian_spectrum(g: Graph) -> SpectralSummary:
    """Both spectra of one graph: :func:`laplacian_spectra` of ``[g]``."""
    return laplacian_spectra([g])[0]


def rayleigh_ratio(g: Graph, x: Sequence[float]) -> float:
    """n * (edge quadratic form) / (all-pairs quadratic form) for a
    nonconstant vector x; on a connected graph the value lies between the
    second-smallest and largest Laplacian eigenvalues.
    """
    if len(x) != g.n:
        raise ValueError(f"vector length {len(x)} != vertex count {g.n}")
    vals = [float(v) for v in x]
    if max(vals) == min(vals):
        raise ValueError("constant vector: all-pairs denominator is zero")
    num = sum((vals[u] - vals[v]) ** 2 for u, v in g.edges())
    s1 = sum(vals)
    s2 = sum(v * v for v in vals)
    den = g.n * s2 - s1 * s1
    return g.n * num / den


def rayleigh_ratios(g: Graph, xs: np.ndarray) -> np.ndarray:
    """:func:`rayleigh_ratio` for each row of a (k, n) array of nonconstant
    vectors, as a float64 array of k ratios."""
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != g.n:
        raise ValueError(f"vectors of shape {xs.shape} are not a (k, {g.n}) array")
    if (xs.max(axis=1) == xs.min(axis=1)).any():
        raise ValueError("constant vector: all-pairs denominator is zero")
    ends = np.array(list(g.edges()), dtype=np.intp).reshape(-1, 2)
    num = np.square(xs[:, ends[:, 0]] - xs[:, ends[:, 1]]).sum(axis=1)
    s1 = xs.sum(axis=1)
    den = g.n * np.square(xs).sum(axis=1) - s1 * s1
    return g.n * num / den
