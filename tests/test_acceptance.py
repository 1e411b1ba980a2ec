"""Acceptance suite: one test per criterion, each printing a pass line.

Exact-arithmetic criteria assert integer/rational equality; spectral
criteria use the absolute tolerance 1e-8 * max(1, n * maxdeg). The order-7
sweeps run through the vectorized mask tables (validated exhaustively
against the scalar path at n <= 5 in test_oracle) plus a seeded sample
through the literal per-graph API; orders up to 6 run the literal API
exhaustively.
"""

import math
import random
import time

import numpy as np

from sigmat.bounds import GraphFacts, check_all, check_energy_upper, check_laplacian_sandwich
from sigmat.extremal import (
    max_bipartite_split,
    max_split_sigma_t,
    sigma_t_bipartite_formula,
    split_critical_point,
)
from sigmat.graph import (
    graph_from_mask,
    is_complete_bipartite,
    is_connected,
    is_path_graph,
    is_regular,
    pair_order,
    parse_graph6,
)
from sigmat.invariants import sigma_t
from sigmat.oracle import (
    enumerate_connected_graphs,
    random_graphs,
    search_connected,
    verify_conjecture1,
    verify_identity_suite,
)
from sigmat.spectral import rayleigh_ratio, rayleigh_ratios, spectral_tolerance
from sigmat.trees import search_trees, tree_sweep, verify_conjecture2
from tests.reference import is_star_graph

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
RANDOM_SEED = 0x5EED1234


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    total = 0
    for n in range(1, 7):
        summary = verify_identity_suite(enumerate_connected_graphs(n))
        assert summary.failed == 0
        assert summary.checked == CONNECTED_COUNTS[n]
        total += summary.checked
    rand = verify_identity_suite(random_graphs(12, 10_000, RANDOM_SEED), seed=RANDOM_SEED)
    assert rand.failed == 0 and rand.checked == 10_000
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 1: PASS (identities exact on {total} connected graphs "
          f"and 10000 random n=12 graphs, {elapsed:.1f}s)")


def test_criterion_02_split_maximum(mask_tables):
    start = time.perf_counter()
    for n in range(3, 8):
        expected = max_split_sigma_t(n)
        result = search_connected(n, "max")
        assert result.extreme_value == expected.value
        assert result.graphs_visited == CONNECTED_COUNTS[n]
        # every maximizer carries the two-valued split degree multiset
        table = mask_tables[n]
        assert int(table.sigma_t.max()) == expected.value
        achievers = table.deg[:, table.sigma_t == expected.value].astype(np.int64)
        x = expected.x
        assert achievers.shape[1] == result.tie_count
        assert (((achievers == n - 1) | (achievers == x)).all())
        assert ((achievers == n - 1).sum(axis=0) == x).all()
        assert ((achievers == x).sum(axis=0) == n - x).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 2: PASS (brute-force max equals the case formula for n=3..7, "
          f"all maximizers split-shaped, {elapsed:.1f}s)")


def test_criterion_03_tree_extremes():
    start = time.perf_counter()
    for n in range(3, 10):
        sweep = tree_sweep(n)
        assert sweep.trees == n ** (n - 2)
        assert sweep.max_value == (n - 1) * (n - 2) ** 2
        assert sweep.max_all_stars
        assert sweep.max_count == sweep.star_count == n
        assert sweep.min_value == 2 * n - 4
        assert sweep.min_all_paths
        assert sweep.min_count == math.factorial(n) // 2
    # the search API reports the same extremes
    assert search_trees(9, "max").extreme_value == 392
    assert search_trees(9, "min").extreme_value == 14
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    print(f"criterion 3: PASS (tree max only stars, min only paths, n=3..9, {elapsed:.1f}s)")


def test_criterion_04_nonregular_minimum():
    expected = {4: 4, 5: 4, 6: 8, 7: 6}
    for n, want in expected.items():
        assert want == (n - 1 if n % 2 else 2 * n - 4)
        result = search_connected(n, "min", "nonregular")
        assert result.extreme_value == want
        for text in result.witnesses:
            g = parse_graph6(text)
            assert is_connected(g) and not is_regular(g)
            assert sigma_t(g) == want
    print("criterion 4: PASS (non-regular minima 4,4,8,6 for n=4..7)")


def test_criterion_05_critical_point_closed_form():
    start = time.perf_counter()
    for n in range(2, 1_000_001):
        point = split_critical_point(n)
        quarter = n >> 2
        if n & 3:
            assert point.floor == quarter
            assert point.ceil == quarter + 1
        else:
            assert point.floor == quarter - 1
            assert point.ceil == quarter
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 5: PASS (floor/ceil closed forms exact for n in [2, 10^6], {elapsed:.1f}s)")


def test_criterion_06_bipartite_maximizer():
    for n in range(2, 201):
        best = max_bipartite_split(n)
        values = [sigma_t_bipartite_formula(t, n - t) for t in range(1, n // 2 + 1)]
        top = max(values)
        assert best.value == top
        assert best.n1 == 1 + values.index(top)
        assert best.ties == tuple(1 + i for i, v in enumerate(values) if v == top)
        if n >= 7:
            assert best.n1 in best.formula_candidates
    ten = max_bipartite_split(10)
    assert ten.tie and ten.ties == (1, 2) and ten.value == 576
    eleven = max_bipartite_split(11)
    assert not eleven.tie and eleven.n1 == 2
    print("criterion 6: PASS (scan matches formula candidates for n in [2, 200]; "
          "n=10 tie K_{1,9}/K_{2,8}, n=11 winner K_{2,9})")


def _two_valued(degrees) -> bool:
    return len(set(degrees)) == 2


def _labeled_complete_bipartite_masks(n: int) -> set:
    pairs = pair_order(n)
    masks = set()
    for side in range(1, 1 << (n - 1)):  # vertex n-1 always in the complement
        mask = 0
        for e, (i, j) in enumerate(pairs):
            if (side >> i & 1) != (side >> j & 1):
                mask |= 1 << e
        masks.add(mask)
    return masks


def test_criterion_07_bound_soundness(mask_tables, mask_sigma_columns, spectra7):
    start = time.perf_counter()
    # orders 1..6: the literal per-graph API, exhaustively
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            by_id = {c.bound_id: c for c in check_all(g)}
            assert all(c.holds for c in by_id.values())
            tf = by_id["triangle-free-upper"]
            if tf.skipped is None:
                assert tf.equality == is_complete_bipartite(g)
            mc = by_id["max-count-lower"]
            if mc.skipped is None:
                assert mc.equality == _two_valued(g.degrees())

    # order 7: the same inequalities over the full table
    n = 7
    table = mask_tables[n]
    st = table.sigma_t.astype(np.int64)  # stored as int16
    sg, _ = mask_sigma_columns[n]
    m = table.deg.sum(axis=0, dtype=np.int64) // 2
    dmax = table.deg.max(axis=0).astype(np.int64)
    dmin = table.deg.min(axis=0).astype(np.int64)
    kk = (table.deg == dmax).sum(axis=0)
    tol = 1e-8 * np.maximum(1.0, float(n) * dmax)

    tf = table.triangle_free
    assert (st[tf] <= m[tf] * (n * n - 4 * m[tf])).all()

    nsd = n * np.sqrt(dmin.astype(np.float64))
    rhs_deg = 4.0 * (np.sqrt(2.0 * m * n) - nsd) * (n * n * dmax * dmax + 4 * m * m) / nsd
    assert (st <= rhs_deg + tol).all()

    mcc = np.sqrt(2.0 * m * n)
    rhs_energy = mcc - nsd * st / (4.0 * (n * n * dmax * dmax + 4 * m * m))
    assert (spectra7["energy"] <= rhs_energy + tol).all()

    nonreg = dmax != dmin
    gap = (n * dmax - 2 * m) ** 2
    assert (((n - kk) * st)[nonreg] >= (kk * gap)[nonreg]).all()
    assert ((n - 1) * st >= gap).all()
    assert (st[m == n - 1] >= 2 * n - 4).all()
    assert (st[nonreg] >= n - 1).all()

    assert (sg <= spectra7["mu_max"] / n * st + tol).all()
    assert (st <= n / spectra7["mu2"] * sg + tol).all()

    # equality characterizations at n=7, both exact
    eq = tf & (st == m * (n * n - 4 * m))
    assert {int(v) for v in table.masks[eq]} == _labeled_complete_bipartite_masks(n)
    eq_kmax = nonreg & ((n - kk) * st == kk * gap)
    two_valued = nonreg & ((table.deg == dmax).sum(axis=0) + (table.deg == dmin).sum(axis=0) == n)
    assert (eq_kmax == two_valued).all()

    # seeded sample through the literal API at n=7
    rng = random.Random(RANDOM_SEED)
    for idx in rng.sample(range(table.masks.size), 2000):
        g = graph_from_mask(n, int(table.masks[idx]))
        assert all(c.holds for c in check_all(g))

    # tree bound equality over all labeled trees up to order 9
    for order in range(3, 10):
        sweep = tree_sweep(order)
        assert sweep.min_value == 2 * order - 4
        assert sweep.min_all_paths
        assert sweep.min_count == math.factorial(order) // 2

    elapsed = time.perf_counter() - start
    print(f"criterion 7: PASS (all bounds hold on every connected graph n <= 7; "
          f"equality cases characterized, {elapsed:.1f}s)")


def _uniform_vectors(rng, k, n):
    """k vectors of n values rng.uniform(-1.0, 1.0), drawn in the same order
    and to the same floats (uniform computes -1.0 + 2.0 * random())."""
    draw = rng.random
    return 2.0 * np.array([draw() for _ in range(k * n)]).reshape(k, n) - 1.0


def test_uniform_vectors_follow_the_uniform_stream():
    drawn, batched = random.Random(RANDOM_SEED), random.Random(RANDOM_SEED)
    for n in (2, 5, 6):
        want = [[drawn.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(100)]
        assert _uniform_vectors(batched, 100, n).tolist() == want
    assert drawn.random() == batched.random()


def test_criterion_08_rayleigh_and_sandwich():
    start = time.perf_counter()
    rng = random.Random(RANDOM_SEED)
    graphs = 0
    for n in range(2, 7):  # n=1 admits no nonconstant vector
        for g in enumerate_connected_graphs(n):
            graphs += 1
            facts = GraphFacts(g)  # one eigensolve pair, shared with the sandwich below
            summary, tol = facts.spectrum, facts.tol
            lo = summary.mu2 - tol
            hi = summary.mu_max + tol
            for ratio in rayleigh_ratios(g, _uniform_vectors(rng, 100, n)):
                assert lo <= ratio <= hi
            if not is_regular(g):
                assert lo <= rayleigh_ratio(g, g.degrees()) <= hi
            upper, lower = check_laplacian_sandwich(facts)
            assert upper.holds and lower.holds
    elapsed = time.perf_counter() - start
    print(f"criterion 8: PASS (Rayleigh ratio bracketed on {graphs} graphs x 100 vectors, "
          f"both sandwich bounds hold, {elapsed:.1f}s)")


def test_criterion_09_gkp_equivalence(mask_tables, mask_sigma_columns):
    for n in range(1, 8):
        sigma, gen_kpartite = mask_sigma_columns[n]
        assert ((sigma == mask_tables[n].sigma_t) == gen_kpartite).all()
    for n in range(3, 10):
        sweep = tree_sweep(n)
        assert sweep.sigma_eq_all_stars
        assert sweep.sigma_eq_count == sweep.star_count == n
    print("criterion 9: PASS (sigma == sigma_t exactly on the generalized complete "
          "multipartite graphs for n <= 7; among trees n <= 9 exactly the stars)")


def test_criterion_10_conjectures():
    start = time.perf_counter()
    for n in range(3, 10):
        report = verify_conjecture2(n)
        assert report.status == "verified"
        assert report.equality_all_paths
        assert report.equality_count == math.factorial(n) // 2
        assert all(is_path_graph(parse_graph6(w)) for w in report.extremal_witnesses)
    for n in range(2, 8):
        report = verify_conjecture1(n)
        assert report.status == "verified", f"counterexample at n={n}: {report.counterexamples}"
        assert report.max_value == report.reference_value
        # the reported maximizers for small orders are the stars
        assert report.max_value == (n - 1) * (n - 2) ** 2
        assert report.tie_count == (n if n >= 3 else 1)
        assert all(is_star_graph(parse_graph6(w)) for w in report.extremal_witnesses)
    elapsed = time.perf_counter() - start
    print(f"criterion 10: PASS (conjecture 2 verified on all trees n=3..9 with equality "
          f"exactly on paths; conjecture 1 verified for n <= 7, {elapsed:.1f}s)")


def test_criterion_11_energy_improvement():
    start = time.perf_counter()
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            check = check_energy_upper(g)
            assert check.holds
            mcc = math.sqrt(2 * g.m * g.n)
            tol = spectral_tolerance(g)
            assert check.rhs <= mcc + tol
            if sigma_t(g) > 0:
                assert check.rhs < mcc - tol
    elapsed = time.perf_counter() - start
    print(f"criterion 11: PASS (energy bound holds and strictly improves sqrt(2mn) "
          f"whenever sigma_t > 0, for every connected graph n <= 6, {elapsed:.1f}s)")
