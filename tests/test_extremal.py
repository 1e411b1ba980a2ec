"""Extremal family constructors, closed forms, argmax scans, and the
generalized complete multipartite predicate."""

import math
import tracemalloc
from itertools import product

import pytest

from sigmat.extremal import (
    is_generalized_complete_kpartite,
    make_complete_bipartite,
    make_generalized_kpartite,
    make_path,
    make_split,
    make_star,
    max_bipartite_split,
    max_split_sigma_t,
    sigma_t_bipartite_formula,
    sigma_t_split_formula,
    split_critical_point,
)
from sigmat.graph import Graph, degree_stats, encode_graph6, is_connected, parse_graph6
from sigmat.invariants import full_report, sigma, sigma_t
from tests.test_graph import cycle, path


class TestConstructors:
    def test_split_2_6(self):
        g = make_split(2, 6)
        assert g.n == 8 and is_connected(g)
        assert sigma_t(g) == 300
        stats = degree_stats(g)
        assert stats.degrees == (7, 7, 2, 2, 2, 2, 2, 2)

    def test_complete_bipartite_23(self):
        g = make_complete_bipartite(2, 3)
        assert sigma_t(g) == 6
        assert degree_stats(g).degrees == (3, 3, 2, 2, 2)

    def test_star_split_bipartite_coincide(self):
        for n in range(2, 8):
            s = make_star(n)
            assert make_split(1, n - 1) == s
            assert make_complete_bipartite(1, n - 1) == s
            assert full_report(make_split(1, n - 1)) == full_report(s)

    def test_split_and_bipartite_match_their_edge_lists(self):
        for a in range(1, 7):
            for b in range(7):
                n = a + b
                assert make_split(a, b) == Graph(n, [(i, j) for i in range(a) for j in range(i + 1, n)])
                if b:
                    assert make_complete_bipartite(a, b) == Graph(n, [(i, j) for i in range(a)
                                                                      for j in range(a, n)])

    def test_split_and_bipartite_memory_is_bounded(self):
        # their edge lists at n = 2000 would take tens of MB, and the list
        # of all vertex pairs in graph6 order about 200 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            split = make_split(500, 1500)
            bipartite = make_complete_bipartite(586, 1414)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            encoded = encode_graph6(split), encode_graph6(bipartite)
            written = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert split.m == 500 * 499 // 2 + 500 * 1500 and bipartite.m == 586 * 1414
        assert [parse_graph6(text) for text in encoded] == [split, bipartite]
        assert built < 2 << 20
        assert written < 8 << 20

    def test_path(self):
        g = make_path(5)
        assert g.m == 4 and is_connected(g)
        assert degree_stats(g).degrees == (2, 2, 2, 1, 1)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_split(0, 4)
        with pytest.raises(ValueError):
            make_complete_bipartite(0, 3)
        with pytest.raises(ValueError):
            make_star(0)
        with pytest.raises(ValueError):
            make_path(0)

    def test_split_degree_structure(self):
        for a in range(1, 6):
            for b in range(0, 6):
                g = make_split(a, b)
                n = a + b
                degs = g.degrees()
                assert all(degs[v] == n - 1 for v in range(a))
                assert all(degs[v] == a for v in range(a, n))


class TestClosedForms:
    def test_split_formula_examples(self):
        assert sigma_t_split_formula(2, 8) == 300
        assert sigma_t_split_formula(7, 8) == 0  # complete graph
        assert sigma_t_split_formula(1, 5) == 36

    def test_split_formula_matches_construction(self):
        for n in range(3, 10):
            for x in range(1, n):
                assert sigma_t_split_formula(x, n) == sigma_t(make_split(x, n - x))

    def test_bipartite_formula_examples(self):
        assert sigma_t_bipartite_formula(1, 9) == 576
        assert sigma_t_bipartite_formula(2, 8) == 576
        assert sigma_t_bipartite_formula(5, 5) == 0
        assert sigma_t_bipartite_formula(2, 3) == 6

    def test_bipartite_formula_matches_construction(self):
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                assert sigma_t_bipartite_formula(n1, n2) == sigma_t(
                    make_complete_bipartite(n1, n2)
                )

    def test_odd_balanced_bipartite(self):
        # minimal positive value floor(n/2)*ceil(n/2) at the near-balanced split
        for n in (5, 7, 9, 11):
            assert sigma_t_bipartite_formula(n // 2, n - n // 2) == (n // 2) * ((n + 1) // 2)

    def test_formula_domain(self):
        with pytest.raises(ValueError):
            sigma_t_split_formula(0, 5)
        with pytest.raises(ValueError):
            sigma_t_split_formula(5, 5)
        with pytest.raises(ValueError):
            sigma_t_bipartite_formula(0, 3)


class TestSplitCriticalPoint:
    def test_examples(self):
        p8 = split_critical_point(8)
        assert p8.value == pytest.approx((38 - math.sqrt(548)) / 8, abs=1e-12)
        assert p8.value == pytest.approx(1.8239, abs=1e-3)
        assert (p8.ceil, p8.floor) == (2, 1)
        p5 = split_critical_point(5)
        assert p5.value == pytest.approx((23 - math.sqrt(209)) / 8, abs=1e-12)
        assert p5.value == pytest.approx(1.068, abs=1e-3)
        assert (p5.ceil, p5.floor) == (2, 1)
        p4 = split_critical_point(4)
        assert p4.value == pytest.approx((18 - math.sqrt(132)) / 8, abs=1e-12)
        assert p4.value == pytest.approx(0.814, abs=1e-3)
        assert (p4.ceil, p4.floor) == (1, 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            split_critical_point(1)

    def test_closed_forms_small_range(self):
        for n in range(2, 5000):
            point = split_critical_point(n)
            assert point.ceil == (n + 3) // 4
            expected_floor = n // 4 - 1 if n % 4 == 0 else n // 4
            assert point.floor == expected_floor
            assert point.floor < point.value < point.ceil


class TestMaxSplit:
    def test_examples(self):
        assert max_split_sigma_t(8) == (2, 300)
        assert max_split_sigma_t(5) == (1, 36)
        assert max_split_sigma_t(7) == (2, 160)
        assert max_split_sigma_t(4) == (1, 12)
        assert max_split_sigma_t(6) == (1, 80)

    def test_domain(self):
        with pytest.raises(ValueError):
            max_split_sigma_t(2)

    def test_full_scan_agreement_up_to_40(self):
        for n in range(3, 41):
            best = max_split_sigma_t(n)
            scan = max(sigma_t_split_formula(x, n) for x in range(1, n))
            assert best.value == scan
            # the winning x matches a bracket endpoint of the critical point
            point = split_critical_point(n)
            assert best.x in (point.floor, point.ceil) or best.x == max(point.floor, 1)


class TestMaxBipartite:
    def test_n10_tie(self):
        best = max_bipartite_split(10)
        assert best.value == 576
        assert best.tie and best.ties == (1, 2)
        assert best.n1 == 1

    def test_n11_winner(self):
        best = max_bipartite_split(11)
        assert best.n1 == 2 and not best.tie
        assert best.value == sigma_t_bipartite_formula(2, 9)

    def test_n7_scan(self):
        best = max_bipartite_split(7)
        assert best.n1 == 1 and best.value == 150
        assert best.formula_candidates == (1, 2)

    def test_scan_matches_direct(self):
        for n in range(2, 120):
            best = max_bipartite_split(n)
            values = [sigma_t_bipartite_formula(t, n - t) for t in range(1, n // 2 + 1)]
            assert best.value == max(values)
            assert best.n1 == 1 + values.index(max(values))

    def test_candidates_bracket_winner_for_n_at_least_7(self):
        for n in range(7, 200):
            best = max_bipartite_split(n)
            assert best.n1 in best.formula_candidates
            lo = best.formula_candidates[0]
            assert lo == math.floor(n * (2 - math.sqrt(2)) / 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            max_bipartite_split(1)


def _kpartite_from_edge_list(parts):
    """make_generalized_kpartite built from its list of edges: each part's
    circulant, then every pair of vertices in different parts."""
    n = sum(size for size, _ in parts)
    part_of = [k for k, (size, _) in enumerate(parts) for _ in range(size)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part_of[u] != part_of[v]]
    offset = 0
    for size, inner in parts:
        for j in range(size):
            edges += [(offset + j, offset + (j + d) % size) for d in range(1, inner // 2 + 1)]
            if inner % 2:
                edges.append((offset + j, offset + (j + size // 2) % size))
        offset += size
    return Graph(n, edges)


class TestGeneralizedKPartite:
    def test_predicate_examples(self):
        assert is_generalized_complete_kpartite(make_complete_bipartite(2, 3))
        assert not is_generalized_complete_kpartite(path(4))
        assert is_generalized_complete_kpartite(cycle(5))  # regular

    def test_predicate_matches_sigma_equality(self):
        for g in (make_complete_bipartite(2, 3), path(4), cycle(5), make_star(6),
                  make_split(2, 4)):
            assert is_generalized_complete_kpartite(g) == (sigma(g) == sigma_t(g))

    def test_construct_k32(self):
        g = make_generalized_kpartite([(3, 0), (2, 0)])
        assert g == make_complete_bipartite(3, 2)

    def test_construct_matching_plus_apex(self):
        g = make_generalized_kpartite([(4, 1), (1, 0)])
        assert is_generalized_complete_kpartite(g)
        assert sigma(g) == sigma_t(g) == 16
        assert sorted(g.degrees()) == [2, 2, 2, 2, 4]

    def test_construct_single_complete_part(self):
        g = make_generalized_kpartite([(3, 2)])
        assert g.m == 3 and sigma_t(g) == 0

    def test_construct_rejects_infeasible(self):
        with pytest.raises(ValueError):
            make_generalized_kpartite([(3, 3)])  # degree > size - 1
        with pytest.raises(ValueError):
            make_generalized_kpartite([(3, 1)])  # odd degree sum
        with pytest.raises(ValueError):
            make_generalized_kpartite([])
        with pytest.raises(ValueError):
            make_generalized_kpartite([(0, 0)])

    def test_constructions_always_pass_predicate(self):
        part_lists = [
            [(2, 1), (3, 2)],
            [(4, 2), (2, 0)],
            [(5, 2), (1, 0), (4, 1)],
            [(6, 3), (3, 0)],
            [(4, 3)],
        ]
        # and the same graph as the edge list on every list of up to 3
        # feasible parts of size up to 6: 18 + 18^2 + 18^3 lists
        feasible = [(size, inner) for size in range(1, 7) for inner in range(size) if inner * size % 2 == 0]
        every = [list(parts) for k in (1, 2, 3) for parts in product(feasible, repeat=k)]
        assert len(every) == 6174
        for parts in every:
            assert make_generalized_kpartite(parts) == _kpartite_from_edge_list(parts)
        for parts in part_lists:
            g = make_generalized_kpartite(parts)
            assert is_generalized_complete_kpartite(g)
            assert sigma(g) == sigma_t(g)
            offset = 0
            for size, inner in parts:
                for v in range(offset, offset + size):
                    assert g.degree(v) == inner + g.n - size
                offset += size

    def test_tree_gkp_iff_star_small(self):
        from tests.reference import enumerate_trees

        for n in range(3, 7):
            for t in enumerate_trees(n):
                degs = sorted(t.degrees(), reverse=True)
                is_star = degs[0] == n - 1
                assert is_generalized_complete_kpartite(t) == is_star
