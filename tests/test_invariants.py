"""Index values on the reference graphs and the identities tying them
together (all exact)."""

import json
import random
from fractions import Fraction

from hypothesis import given

from sigmat.cli import canonical_json
from sigmat.graph import Graph, is_regular, pair_order
from sigmat.invariants import (
    InvariantReport,
    albertson_irr,
    degree_variance,
    forgotten_f,
    full_report,
    sigma,
    sigma_t,
    sigma_t_pairsum,
    zagreb_m1,
    zagreb_m2,
)
from tests.test_graph import (
    complete,
    complete_bipartite,
    cycle,
    graphs,
    labelled_graphs,
    path,
    seeded_graphs,
    star,
)


def mean_variance(g):
    """The degree variance by its textbook form: the mean of the squared
    deviations from the Fraction mean degree."""
    degs = g.degrees()
    mean = Fraction(sum(degs), g.n)
    return sum(((d - mean) ** 2 for d in degs), Fraction(0)) / g.n


def report_by_definitions(g):
    """full_report's fields, each from its own per-index function."""
    return InvariantReport(
        n=g.n, m=g.m, sigma_t=sigma_t(g), sigma=sigma(g), albertson_irr=albertson_irr(g),
        m1=zagreb_m1(g), m2=zagreb_m2(g), forgotten=forgotten_f(g),
        variance=degree_variance(g), mean_degree=Fraction(2 * g.m, g.n),
    )


class TestReferenceValues:
    def test_path4(self):
        g = path(4)
        assert sigma_t(g) == 4
        assert sigma(g) == 2
        assert albertson_irr(g) == 2
        assert (zagreb_m1(g), zagreb_m2(g), forgotten_f(g)) == (10, 8, 18)
        assert forgotten_f(g) - 2 * zagreb_m2(g) == 2
        assert degree_variance(g) == Fraction(1, 4)

    def test_star5(self):
        g = star(5)
        assert sigma_t(g) == 36
        assert sigma(g) == 36  # every non-edge joins two leaves of equal degree
        assert albertson_irr(g) == 12
        assert (zagreb_m1(g), zagreb_m2(g), forgotten_f(g)) == (20, 16, 68)
        assert degree_variance(g) == Fraction(36, 25)

    def test_complete4(self):
        g = complete(4)
        assert sigma_t(g) == sigma(g) == albertson_irr(g) == 0
        assert (zagreb_m1(g), zagreb_m2(g), forgotten_f(g)) == (36, 54, 108)

    def test_cycle6_regular(self):
        g = cycle(6)
        assert sigma_t(g) == 0
        assert sigma(g) == 0
        assert degree_variance(g) == 0

    def test_complete_bipartite_23(self):
        g = complete_bipartite(2, 3)
        assert sigma_t(g) == 6
        assert sigma(g) == 6

    def test_star_pairsum_closed_form(self):
        for n in range(2, 10):
            assert sigma_t_pairsum(star(n)) == (n - 1) * (n - 2) ** 2

    def test_disconnected_graphs_evaluate(self):
        g = Graph(3, [(1, 2)])  # K_1 plus an edge
        assert sigma_t(g) == sigma_t_pairsum(g) == 2
        assert sigma(g) == 0
        assert degree_variance(g) == Fraction(2, 9)


class TestFullReport:
    def test_path4_report(self):
        r = full_report(path(4))
        assert (r.sigma_t, r.sigma, r.albertson_irr, r.m1) == (4, 2, 2, 10)
        assert r.variance == Fraction(1, 4)
        assert r.mean_degree == Fraction(3, 2)

    def test_complete5_regular_report(self):
        r = full_report(complete(5))
        assert r.sigma_t == r.sigma == r.albertson_irr == 0
        assert r.m1 == 80

    def test_every_labelled_graph_up_to_n6_matches_the_definitions(self):
        for g in labelled_graphs(6):
            assert full_report(g) == report_by_definitions(g), g

    def test_seeded_graphs_match_the_definitions(self):
        for g in seeded_graphs(random.Random(12), [12], 1000):
            assert full_report(g) == report_by_definitions(g), g

    def test_json_dict(self):
        d = json.loads(canonical_json(full_report(complete_bipartite(2, 3))))
        assert d["sigmaT"] == 6 and d["sigma"] == 6
        assert d["variance"] == {"num": 6, "den": 25}
        assert list(d) == [
            "n", "m", "sigmaT", "sigma", "albertsonIrr", "m1", "m2",
            "forgotten", "variance", "meanDegree",
        ]


class TestVariance:
    def test_every_labelled_graph_up_to_n6_matches_the_mean_form(self):
        for g in labelled_graphs(6):
            assert degree_variance(g) == mean_variance(g), g

    def test_seeded_graphs_match_the_mean_form(self):
        for g in seeded_graphs(random.Random(13), [12], 1000):
            assert degree_variance(g) == mean_variance(g), g

    @given(graphs(max_n=12))
    def test_random(self, g):
        assert degree_variance(g) == mean_variance(g)


class TestIdentities:
    def test_exhaustive_n4(self):
        pairs = pair_order(4)
        for mask in range(64):
            g = Graph(4, [pairs[e] for e in range(6) if mask >> e & 1])
            self._check(g)

    @given(graphs(max_n=10))
    def test_random(self, g):
        self._check(g)

    @staticmethod
    def _check(g):
        st_value = sigma_t_pairsum(g)
        assert st_value == sigma_t(g)
        assert st_value == g.n * zagreb_m1(g) - 4 * g.m * g.m
        assert Fraction(st_value) == g.n * g.n * degree_variance(g)
        assert sigma(g) == forgotten_f(g) - 2 * zagreb_m2(g)
        assert sigma(g) <= st_value
        assert (st_value == 0) == is_regular(g)
        r = full_report(g)
        assert r.sigma_t == st_value and r.m == g.m
        assert all(
            x >= 0
            for x in (r.sigma_t, r.sigma, r.albertson_irr, r.m1, r.m2, r.forgotten)
        )

    @given(graphs(max_n=9))
    def test_albertson_vs_sigma(self, g):
        # each edge contributes |d|, versus d^2; no global comparison holds,
        # but both vanish together
        assert (albertson_irr(g) == 0) == (sigma(g) == 0)
