"""Exact degree-based indices: the irregularity measures and Zagreb-type
sums, all returned as integers (variance as an exact Fraction).

Each index has its own function, its definition; :func:`full_report`
evaluates all of them in one pass over the degrees and the edges."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph


def zagreb_m1(g: Graph) -> int:
    """Sum of squared degrees."""
    return sum(d * d for d in g.degrees())


def zagreb_m2(g: Graph) -> int:
    """Sum of degree products over edges."""
    degs = g.degrees()
    return sum(degs[u] * degs[v] for u, v in g.edges())


def forgotten_f(g: Graph) -> int:
    """Sum of cubed degrees."""
    return sum(d ** 3 for d in g.degrees())


def sigma_t(g: Graph) -> int:
    """Total sigma index: sum of squared degree differences over all vertex
    pairs, computed in O(n + m) as n*M1 - 4m^2."""
    degs = g.degrees()
    total = sum(degs)
    return g.n * sum(d * d for d in degs) - total * total


def sigma_t_pairsum(g: Graph) -> int:
    """Total sigma index straight from its pair-sum definition.

    Quadratic in n; kept as the independent cross-check for :func:`sigma_t`.
    """
    degs = g.degrees()
    return sum(
        (degs[u] - degs[v]) ** 2
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )


def sigma(g: Graph) -> int:
    """Sigma index: sum of squared degree differences over edges."""
    degs = g.degrees()
    return sum((degs[u] - degs[v]) ** 2 for u, v in g.edges())


def albertson_irr(g: Graph) -> int:
    """Albertson irregularity: sum of absolute degree differences over edges."""
    degs = g.degrees()
    return sum(abs(degs[u] - degs[v]) for u, v in g.edges())


def degree_variance(g: Graph) -> Fraction:
    """Mean squared deviation of the degrees from the average degree 2m/n.

    Each deviation d - 2m/n is scaled by n, so the sum stays in integers and
    one Fraction divides it by n^3 at the end.
    """
    degs = g.degrees()
    n, total = g.n, sum(degs)
    return Fraction(sum((n * d - total) ** 2 for d in degs), n ** 3)


@dataclass(frozen=True)
class InvariantReport:
    """All indices of one graph; integer fields exact, rationals as Fraction."""

    n: int
    m: int
    sigma_t: int
    sigma: int
    albertson_irr: int
    m1: int
    m2: int
    forgotten: int
    variance: Fraction
    mean_degree: Fraction


def full_report(g: Graph) -> InvariantReport:
    """Evaluate every index on one graph from one read of the degrees and
    one walk over the edges; sigma_t = n*M1 - 4m^2 and the variance is
    sigma_t / n^2 (the paper's identity). The per-index functions above are
    the definitions these values are tested against."""
    n, degs = g.n, g.degrees()
    total = sum(degs)
    m1 = sum(d * d for d in degs)
    st = n * m1 - total * total
    sig = irr = m2 = 0
    for u, v in g.edges():
        a, b = degs[u], degs[v]
        diff = a - b
        sig += diff * diff
        irr += abs(diff)
        m2 += a * b
    return InvariantReport(
        n=n,
        m=total // 2,
        sigma_t=st,
        sigma=sig,
        albertson_irr=irr,
        m1=m1,
        m2=m2,
        forgotten=sum(d ** 3 for d in degs),
        variance=Fraction(st, n * n),
        mean_degree=Fraction(total, n),
    )
