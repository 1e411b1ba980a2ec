"""Every graph bound that ``check_all`` runs, as an executable check with
an equality-case certificate. The sequence lemmas these bounds rest on
(the variance shift, Bhatia-Davis and the AM-GM refinement) are checked in
the test suite, not here.

Checks that are algebraic in the degrees compare exact integers or
Fractions; checks involving radicals or eigenvalues compare floats within
the spectral tolerance, and their equality flags are advisory only.
Individual checks raise PreconditionError when their hypotheses fail;
``check_all`` evaluates each graph once into a ``GraphFacts`` record and
downgrades those failures to skip markers so batch reports are total;
``graph_facts`` builds the records of many graphs with the spectra of the
connected ones solved together.
A ``BoundCheck`` keeps its sides as they were compared (int, Fraction or
float); the CLI writes a Fraction side as ``{"num": a, "den": b}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .graph import (
    Graph,
    degree_stats,
    find_triangle,
    is_complete_bipartite,
    is_connected,
    is_path_graph,
)
from .invariants import sigma, sigma_t
from .spectral import SpectralSummary, laplacian_spectra, laplacian_spectrum, spectral_tolerance


class PreconditionError(ValueError):
    """A bound was asked about a graph outside its hypotheses."""


Number = int | Fraction | float


@dataclass(frozen=True)
class BoundCheck:
    """One named inequality instance lhs <= rhs.

    ``exact`` distinguishes integer/rational comparisons from toleranced
    float ones. A skipped check carries the reason and no values.
    """

    bound_id: str
    lhs: Number | None
    rhs: Number | None
    holds: bool
    equality: bool
    certificate: str
    exact: bool
    skipped: str | None = None


def _skipped(bound_id: str, reason: str) -> BoundCheck:
    return BoundCheck(bound_id, None, None, True, False, "", False, skipped=reason)


class GraphFacts:
    """What the graph bounds read about one graph, each computed once:
    degree statistics, connectivity, sigma_t, the spectral tolerance and
    both spectra, solved on first use unless :func:`graph_facts` set them."""

    def __init__(self, g: Graph):
        self.graph = g
        self.stats = degree_stats(g)
        self.connected = is_connected(g)
        self.sigma_t = sigma_t(g)
        self.tol = spectral_tolerance(g)

    @cached_property
    def spectrum(self) -> SpectralSummary:
        return laplacian_spectrum(self.graph)

    def require_connected(self, bound_id: str) -> None:
        if not self.connected:
            raise PreconditionError(f"{bound_id}: graph is disconnected")


def graph_facts(graphs: Sequence[Graph]) -> list[GraphFacts]:
    """The GraphFacts of each graph, in input order, with the spectra of the
    connected ones filled in from one :func:`laplacian_spectra` call; only
    the bounds of connected graphs read a spectrum."""
    facts = [GraphFacts(g) for g in graphs]
    connected = [f for f in facts if f.connected]
    for f, spectrum in zip(connected, laplacian_spectra([f.graph for f in connected])):
        f.spectrum = spectrum
    return facts


def _facts(g: Graph | GraphFacts) -> GraphFacts:
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


def _toleranced(bound_id: str, lhs: float, rhs: float, tol: float, cert: str = "") -> BoundCheck:
    return BoundCheck(bound_id, lhs, rhs, lhs <= rhs + tol, abs(lhs - rhs) <= tol, cert, exact=False)


def _exact(bound_id: str, lhs: Number, rhs: Number, certify: Callable[[], str]) -> BoundCheck:
    """The exact comparison lhs <= rhs; ``certify()`` names the equality
    case and runs only on equality."""
    eq = lhs == rhs
    return BoundCheck(bound_id, lhs, rhs, lhs <= rhs, eq, certify() if eq else "", exact=True)


def check_triangle_free_upper(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t <= m(n^2 - 4m) for triangle-free graphs; equality exactly on
    complete bipartite graphs."""
    f = _facts(g)
    tri = find_triangle(f.graph)
    if tri is not None:
        raise PreconditionError(f"triangle-free-upper: vertices {tri} form a triangle")
    m = f.stats.m
    return _exact("triangle-free-upper", f.sigma_t, m * (f.stats.n ** 2 - 4 * m), lambda: (
        "complete bipartite" if is_complete_bipartite(f.graph)
        else "equality without complete-bipartite structure"))


def check_sigma_t_upper_degree(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t <= 4(sqrt(2mn) - n*sqrt(mindeg))(n^2 maxdeg^2 + 4m^2) / (n*sqrt(mindeg))
    for connected graphs with at least one edge."""
    f = _facts(g)
    f.require_connected("degree-upper")
    stats = f.stats
    if stats.m < 1:
        raise PreconditionError("degree-upper: graph has no edges")
    n, m = stats.n, stats.m
    nsd = n * math.sqrt(stats.min_degree)
    rhs = 4 * (math.sqrt(2 * m * n) - nsd) * (n * n * stats.max_degree ** 2 + 4 * m * m) / nsd
    return _toleranced("degree-upper", float(f.sigma_t), rhs, f.tol)


def check_energy_upper(g: Graph | GraphFacts) -> BoundCheck:
    """energy <= sqrt(2mn) - n*sqrt(mindeg)*sigma_t / (4(n^2 maxdeg^2 + 4m^2))
    for connected graphs; tightens the sqrt(2mn) energy bound whenever
    sigma_t > 0."""
    f = _facts(g)
    f.require_connected("energy-upper")
    stats = f.stats
    n, m = stats.n, stats.m
    mcclelland = math.sqrt(2 * m * n)
    if f.sigma_t == 0:
        rhs = mcclelland
        cert = "reduces to sqrt(2mn) (regular)"
    else:
        rhs = mcclelland - n * math.sqrt(stats.min_degree) * f.sigma_t / (
            4 * (n * n * stats.max_degree ** 2 + 4 * m * m)
        )
        cert = ""
    return _toleranced("energy-upper", f.spectrum.energy, rhs, f.tol, cert)


def check_max_count_lower(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= k/(n-k) * (n*maxdeg - 2m)^2 where k counts the max-degree
    vertices of a connected non-regular graph; equality exactly when the
    other n-k degrees are all equal."""
    f = _facts(g)
    f.require_connected("max-count-lower")
    stats = f.stats
    k, n = stats.max_degree_count, stats.n
    if k == n:
        raise PreconditionError("max-count-lower: graph is regular (k = n)")
    lhs = Fraction(k, n - k) * (n * stats.max_degree - 2 * stats.m) ** 2
    # the degrees are non-increasing, so the other n-k are equal iff the first and last are
    return _exact("max-count-lower", lhs, f.sigma_t, lambda: (
        f"degrees {stats.max_degree}^{k} and {stats.degrees[k]}^{n - k}"
        if stats.degrees[k] == stats.degrees[-1] else "equality without two-valued degrees"))


def check_simple_lower(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= (n*maxdeg - 2m)^2 / (n-1) for connected graphs on
    n >= 2 vertices."""
    f = _facts(g)
    f.require_connected("simple-lower")
    stats = f.stats
    if stats.n < 2:
        raise PreconditionError("simple-lower: need n >= 2")
    n = stats.n
    lhs = Fraction((n * stats.max_degree - 2 * stats.m) ** 2, n - 1)

    def certify() -> str:
        if stats.max_degree == stats.min_degree:
            return "regular (degenerate)"
        if stats.max_degree_count == 1 and stats.degrees[1] == stats.degrees[-1]:
            return f"one vertex of degree {stats.max_degree}, rest of degree {stats.degrees[1]}"
        return ""

    return _exact("simple-lower", lhs, f.sigma_t, certify)


def check_tree_lower(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= 2n - 4 for trees on n >= 2 vertices; equality exactly on
    paths."""
    f = _facts(g)
    n = f.stats.n
    if n < 2:
        raise PreconditionError("tree-lower: need n >= 2")
    if f.stats.m != n - 1 or not f.connected:
        raise PreconditionError("tree-lower: graph is not a tree")
    return _exact("tree-lower", 2 * n - 4, f.sigma_t,
                  lambda: "path" if is_path_graph(f.graph) else "equality on a non-path")


def check_nonregular_min(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= n-1 (n odd) or 2n-4 (n even) for non-regular graphs."""
    f = _facts(g)
    stats = f.stats
    if stats.max_degree == stats.min_degree:
        raise PreconditionError("nonregular-min: graph is regular")
    n = stats.n

    def certify() -> str:
        degs = sorted(set(stats.degrees))
        return f"near-regular degrees {degs}" if len(degs) == 2 and degs[1] - degs[0] == 1 else "equality"

    return _exact("nonregular-min", n - 1 if n % 2 else 2 * n - 4, f.sigma_t, certify)


def check_laplacian_sandwich(g: Graph | GraphFacts) -> tuple[BoundCheck, BoundCheck]:
    """The pair sigma <= (mu_max/n) sigma_t and sigma_t <= (n/mu2) sigma for
    a connected graph; regular graphs report the degenerate 0 <= 0 without
    touching the spectrum."""
    f = _facts(g)
    f.require_connected("laplacian-sandwich")
    st = f.sigma_t
    if st == 0:
        return tuple(_exact(bound_id, 0, 0, lambda: "holds (degenerate 0 <= 0)")
                     for bound_id in ("laplacian-sigma-upper", "laplacian-sigma-t-upper"))
    sg = sigma(f.graph)
    n, spectrum = f.stats.n, f.spectrum
    upper = _toleranced("laplacian-sigma-upper", float(sg), spectrum.mu_max / n * st, f.tol)
    lower = _toleranced("laplacian-sigma-t-upper", float(st), n / spectrum.mu2 * sg, f.tol)
    return (upper, lower)


_GRAPH_CHECKS = (
    (("triangle-free-upper",), check_triangle_free_upper),
    (("degree-upper",), check_sigma_t_upper_degree),
    (("energy-upper",), check_energy_upper),
    (("max-count-lower",), check_max_count_lower),
    (("simple-lower",), check_simple_lower),
    (("tree-lower",), check_tree_lower),
    (("nonregular-min",), check_nonregular_min),
    (("laplacian-sigma-upper", "laplacian-sigma-t-upper"), check_laplacian_sandwich),
)


def check_all(g: Graph | GraphFacts) -> list[BoundCheck]:
    """Evaluate the graph once into a GraphFacts record (or take the one
    given) and run every graph bound of ``_GRAPH_CHECKS`` on it; a failed
    precondition becomes one skip marker per bound id of its check. The
    result is ordered by bound id."""
    facts = _facts(g)
    results: list[BoundCheck] = []
    for bound_ids, check in _GRAPH_CHECKS:
        try:
            out = check(facts)
        except PreconditionError as exc:
            reason = str(exc).split(": ", 1)[-1]
            results.extend(_skipped(bound_id, reason) for bound_id in bound_ids)
            continue
        results.extend(out if isinstance(out, tuple) else (out,))
    results.sort(key=lambda c: c.bound_id)
    return results
