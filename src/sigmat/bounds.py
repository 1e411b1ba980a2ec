"""Every graph bound that ``check_all`` runs, as an executable check with
an equality-case certificate. The sequence lemmas these bounds rest on
(the variance shift, Bhatia-Davis and the AM-GM refinement) are checked in
the test suite, not here.

Checks that are algebraic in the degrees compare exact integers or
Fractions; checks involving radicals or eigenvalues compare floats within
the spectral tolerance, and their equality flags are advisory only.
Individual checks raise PreconditionError when their hypotheses fail;
``check_all`` evaluates each graph once into a ``GraphFacts`` record and
downgrades those failures to skip markers, one shared marker per bound id
and reason, so batch reports are total. A ``GraphFacts`` record reads the
degrees once, and everything the bounds read of them comes from that read;
``graph_facts`` builds the records of many graphs with the spectra of the
connected ones solved together, by order, and reads the three values the
bounds need straight from the eigenvalue arrays.
A ``BoundCheck`` keeps its sides as they were compared (int, Fraction or
float); the CLI writes a Fraction side as ``{"num": a, "den": b}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .graph import Graph, find_triangle, is_complete_bipartite, is_connected, is_path_graph
from .spectral import spectra_by_order, spectrum_values


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


@lru_cache(maxsize=4096)
def _skipped(bound_id: str, reason: str) -> BoundCheck:
    """The skip marker of a bound id and reason, one shared frozen record
    for each pair; the cache is bounded, since a reason may name vertices."""
    return BoundCheck(bound_id, None, None, True, False, "", False, skipped=reason)


class Spectrum(NamedTuple):
    """The three values of both spectra that the bounds read; mu2 is NaN
    for n = 1."""

    energy: float
    mu2: float
    mu_max: float


def _spectra(values) -> list[Spectrum]:
    """The Spectrum of each graph of a (k, 2, n) eigenvalue array."""
    return list(map(Spectrum, *(column.tolist() for column in spectrum_values(values))))


class GraphFacts:
    """What the graph bounds read about one graph, each computed once.

    One read of the degrees gives the degrees sorted non-increasing, n, m,
    the largest and smallest degree and the count of the largest,
    sigma_t = n*M1 - 4m^2 and the spectral tolerance 1e-8*max(1, n*maxdeg);
    sigma, on first use, is one walk over the edges with those degrees.
    Connectivity is one traversal. The spectrum is solved alone on first
    use unless :func:`graph_facts` set it. ``invariants.sigma``,
    ``invariants.sigma_t`` and ``spectral.spectral_tolerance`` are the
    definitions these values are tested against."""

    def __init__(self, g: Graph):
        self.graph = g
        self._by_vertex = by_vertex = g.degrees()
        n, total = g.n, sum(by_vertex)
        degrees = sorted(by_vertex, reverse=True)
        self.degrees = tuple(degrees)
        self.n, self.m = n, total // 2
        self.max_degree, self.min_degree = degrees[0], degrees[-1]
        self.max_degree_count = degrees.count(degrees[0])
        self.sigma_t = n * sum(d * d for d in by_vertex) - total * total
        self.tol = 1e-8 * max(1.0, n * degrees[0])
        self.connected = is_connected(g)

    @cached_property
    def sigma(self) -> int:
        degrees, total = self._by_vertex, 0
        for u, row in enumerate(self.graph.adj):
            du, later = degrees[u], row >> u + 1  # the edges uv with v > u
            while later:
                low = later & -later
                diff = du - degrees[u + low.bit_length()]
                total += diff * diff
                later ^= low
        return total

    @cached_property
    def spectrum(self) -> Spectrum:
        [(_, values)] = spectra_by_order([self.graph])
        return _spectra(values)[0]

    def require_connected(self, bound_id: str) -> None:
        if not self.connected:
            raise PreconditionError(f"{bound_id}: graph is disconnected")


def graph_facts(graphs: Sequence[Graph]) -> list[GraphFacts]:
    """The GraphFacts of each graph, in input order, with the spectra of the
    connected ones set from one :func:`sigmat.spectral.spectra_by_order`
    call; only the bounds of connected graphs read a spectrum."""
    facts = [GraphFacts(g) for g in graphs]
    connected = [f for f in facts if f.connected]
    for members, values in spectra_by_order([f.graph for f in connected]):
        for k, spectrum in zip(members, _spectra(values)):
            connected[k].spectrum = spectrum
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
    m = f.m
    return _exact("triangle-free-upper", f.sigma_t, m * (f.n ** 2 - 4 * m), lambda: (
        "complete bipartite" if is_complete_bipartite(f.graph)
        else "equality without complete-bipartite structure"))


def check_sigma_t_upper_degree(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t <= 4(sqrt(2mn) - n*sqrt(mindeg))(n^2 maxdeg^2 + 4m^2) / (n*sqrt(mindeg))
    for connected graphs with at least one edge."""
    f = _facts(g)
    f.require_connected("degree-upper")
    if f.m < 1:
        raise PreconditionError("degree-upper: graph has no edges")
    n, m = f.n, f.m
    nsd = n * math.sqrt(f.min_degree)
    rhs = 4 * (math.sqrt(2 * m * n) - nsd) * (n * n * f.max_degree ** 2 + 4 * m * m) / nsd
    return _toleranced("degree-upper", float(f.sigma_t), rhs, f.tol)


def check_energy_upper(g: Graph | GraphFacts) -> BoundCheck:
    """energy <= sqrt(2mn) - n*sqrt(mindeg)*sigma_t / (4(n^2 maxdeg^2 + 4m^2))
    for connected graphs; tightens the sqrt(2mn) energy bound whenever
    sigma_t > 0."""
    f = _facts(g)
    f.require_connected("energy-upper")
    n, m = f.n, f.m
    mcclelland = math.sqrt(2 * m * n)
    if f.sigma_t == 0:
        rhs = mcclelland
        cert = "reduces to sqrt(2mn) (regular)"
    else:
        rhs = mcclelland - n * math.sqrt(f.min_degree) * f.sigma_t / (
            4 * (n * n * f.max_degree ** 2 + 4 * m * m)
        )
        cert = ""
    return _toleranced("energy-upper", f.spectrum.energy, rhs, f.tol, cert)


def check_max_count_lower(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= k/(n-k) * (n*maxdeg - 2m)^2 where k counts the max-degree
    vertices of a connected non-regular graph; equality exactly when the
    other n-k degrees are all equal."""
    f = _facts(g)
    f.require_connected("max-count-lower")
    k, n = f.max_degree_count, f.n
    if k == n:
        raise PreconditionError("max-count-lower: graph is regular (k = n)")
    lhs = Fraction(k * (n * f.max_degree - 2 * f.m) ** 2, n - k)
    # the degrees are non-increasing, so the other n-k are equal iff the first and last are
    return _exact("max-count-lower", lhs, f.sigma_t, lambda: (
        f"degrees {f.max_degree}^{k} and {f.degrees[k]}^{n - k}"
        if f.degrees[k] == f.degrees[-1] else "equality without two-valued degrees"))


def check_simple_lower(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= (n*maxdeg - 2m)^2 / (n-1) for connected graphs on
    n >= 2 vertices."""
    f = _facts(g)
    f.require_connected("simple-lower")
    if f.n < 2:
        raise PreconditionError("simple-lower: need n >= 2")
    n = f.n
    lhs = Fraction((n * f.max_degree - 2 * f.m) ** 2, n - 1)

    def certify() -> str:
        if f.max_degree == f.min_degree:
            return "regular (degenerate)"
        if f.max_degree_count == 1 and f.degrees[1] == f.degrees[-1]:
            return f"one vertex of degree {f.max_degree}, rest of degree {f.degrees[1]}"
        return ""

    return _exact("simple-lower", lhs, f.sigma_t, certify)


def check_tree_lower(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= 2n - 4 for trees on n >= 2 vertices; equality exactly on
    paths."""
    f = _facts(g)
    n = f.n
    if n < 2:
        raise PreconditionError("tree-lower: need n >= 2")
    if f.m != n - 1 or not f.connected:
        raise PreconditionError("tree-lower: graph is not a tree")
    return _exact("tree-lower", 2 * n - 4, f.sigma_t,
                  lambda: "path" if is_path_graph(f.graph) else "equality on a non-path")


def check_nonregular_min(g: Graph | GraphFacts) -> BoundCheck:
    """sigma_t >= n-1 (n odd) or 2n-4 (n even) for non-regular graphs."""
    f = _facts(g)
    if f.max_degree == f.min_degree:
        raise PreconditionError("nonregular-min: graph is regular")
    n = f.n

    def certify() -> str:
        degs = sorted(set(f.degrees))
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
    sg, n, spectrum = f.sigma, f.n, f.spectrum
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


_BOUND_ID = attrgetter("bound_id")


def check_all(g: Graph | GraphFacts) -> list[BoundCheck]:
    """Evaluate the graph once into a GraphFacts record (or take the one
    given) and run every graph bound of ``_GRAPH_CHECKS`` on it; a failed
    precondition becomes the shared skip marker of each bound id of its
    check and the reason. The result is ordered by bound id."""
    facts = _facts(g)
    results: list[BoundCheck] = []
    for bound_ids, check in _GRAPH_CHECKS:
        try:
            out = check(facts)
        except PreconditionError as exc:
            reason = str(exc).split(": ", 1)[-1]
            results.extend([_skipped(bound_id, reason) for bound_id in bound_ids])
            continue
        if type(out) is tuple:
            results.extend(out)
        else:
            results.append(out)
    results.sort(key=_BOUND_ID)
    return results
