"""Laplacian and adjacency spectra (with the graph energy) and the
Rayleigh-quotient ratio that brackets between the algebraic connectivity
and the largest Laplacian eigenvalue, for one vector or a batch of them.

Both matrices of a graph are built once, as one (2, n, n) stack, and solved
by one ``np.linalg.eigvalsh`` call, looked up when it is called. numpy is
imported by the functions that build arrays, so a command that never asks
for a spectrum does not load it.

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


def spectral_matrices(g: Graph) -> np.ndarray:
    """The Laplacian D - A and the adjacency matrix A of ``g`` as one
    (2, n, n) float64 stack, L in slot 0 and A in slot 1.

    A is unpacked once from the adjacency bitmasks; L is 0 - A with the
    degrees on its diagonal, so its off-diagonal zeros are +0.0 as in
    ``np.diag(A.sum(1)) - A``. Apart from the stack, the only n x n
    temporary is the uint8 bit matrix.
    """
    import numpy as np

    n = g.n
    width = (n + 7) // 8
    raw = b"".join(a.to_bytes(width, "little") for a in g.adj)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(n, width), axis=1, count=n, bitorder="little")
    stack = np.empty((2, n, n), dtype=np.float64)
    lap, adj = stack
    adj[...] = bits
    np.subtract(0.0, adj, out=lap)
    lap.flat[:: n + 1] = adj.sum(axis=1)
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


def laplacian_spectrum(g: Graph) -> SpectralSummary:
    """Full dense symmetric eigensolve of D - A and A: one ``eigvalsh``
    call on the :func:`spectral_matrices` stack.

    Raises numpy's LinAlgError if the eigensolver fails to converge; partial
    spectra are never returned.
    """
    import numpy as np

    lap, adj = np.linalg.eigvalsh(spectral_matrices(g))
    lap_values = tuple(lap.tolist())
    return SpectralSummary(
        laplacian_eigenvalues=lap_values,
        adjacency_eigenvalues=tuple(adj.tolist()),
        energy=float(np.abs(adj).sum()),
        mu2=lap_values[1] if g.n >= 2 else None,
        mu_max=lap_values[-1],
    )


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
