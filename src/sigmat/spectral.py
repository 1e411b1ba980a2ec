"""Laplacian and adjacency spectra (with the graph energy) and the
Rayleigh-quotient ratio that brackets between the algebraic connectivity
and the largest Laplacian eigenvalue, for one vector or a batch of them.

All comparisons against eigenvalues use an absolute tolerance scaled by
n*maxdeg; eigenvalues live in [0, 2*maxdeg], so a relative tolerance would
misfire near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Graph


def spectral_tolerance(g: Graph) -> float:
    """Absolute tolerance 1e-8 * max(1, n * maxdeg) for spectral comparisons."""
    return 1e-8 * max(1.0, g.n * max(g.degrees()))


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def laplacian_matrix(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g)
    return np.diag(a.sum(axis=1)) - a


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
    """Full dense symmetric eigensolve of D - A and A.

    Raises numpy's LinAlgError if the eigensolver fails to converge; partial
    spectra are never returned.
    """
    lap = np.linalg.eigvalsh(laplacian_matrix(g))
    adj = np.linalg.eigvalsh(adjacency_matrix(g))
    return SpectralSummary(
        laplacian_eigenvalues=tuple(float(x) for x in lap),
        adjacency_eigenvalues=tuple(float(x) for x in adj),
        energy=float(np.abs(adj).sum()),
        mu2=float(lap[1]) if g.n >= 2 else None,
        mu_max=float(lap[-1]),
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
