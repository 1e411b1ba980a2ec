"""Each bound check against hand-computed instances, the paper's sequence
lemmas as scalar validators with large randomized fuzz runs, and the
check_all composition."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sigmat import bounds
from sigmat.bounds import (
    BoundCheck,
    GraphFacts,
    PreconditionError,
    _exact,
    check_all,
    check_energy_upper,
    check_laplacian_sandwich,
    check_max_count_lower,
    check_nonregular_min,
    check_sigma_t_upper_degree,
    check_simple_lower,
    check_tree_lower,
    check_triangle_free_upper,
)
from sigmat.cli import canonical_json
from sigmat.graph import Graph, degree_stats, graph_from_mask, is_connected, pair_order
from sigmat.invariants import sigma, sigma_t
from sigmat.spectral import laplacian_spectrum, spectral_tolerance
from tests.test_graph import complete, complete_bipartite, cycle, labelled_graphs, path, seeded_graphs, star


SPIDER6 = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])  # degrees 3,2,2,1,1,1


class TestTriangleFreeUpper:
    def test_k23_equality(self):
        c = check_triangle_free_upper(complete_bipartite(2, 3))
        assert (c.lhs, c.rhs) == (6, 6)
        assert c.holds and c.equality and c.exact
        assert c.certificate == "complete bipartite"

    def test_p4_strict(self):
        c = check_triangle_free_upper(path(4))
        assert (c.lhs, c.rhs) == (4, 12)
        assert c.holds and not c.equality

    def test_c5_strict(self):
        c = check_triangle_free_upper(cycle(5))
        assert (c.lhs, c.rhs) == (0, 25)
        assert c.holds and not c.equality

    def test_triangle_rejected_with_witness(self):
        with pytest.raises(PreconditionError, match=r"\(0, 1, 2\)"):
            check_triangle_free_upper(complete(3))


class TestSigmaTUpperDegree:
    def test_star4(self):
        c = check_sigma_t_upper_degree(star(4))
        assert c.lhs == 12.0
        assert c.rhs == pytest.approx((math.sqrt(24) - 4) * 180, abs=1e-9)
        assert c.holds and not c.equality

    def test_complete4(self):
        c = check_sigma_t_upper_degree(complete(4))
        assert c.lhs == 0.0 and c.rhs >= 0 and c.holds

    def test_p4(self):
        c = check_sigma_t_upper_degree(path(4))
        assert c.rhs == pytest.approx((math.sqrt(24) - 4) * 100, abs=1e-9)
        assert c.holds

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="disconnected"):
            check_sigma_t_upper_degree(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(PreconditionError, match="no edges"):
            check_sigma_t_upper_degree(Graph(1))


class TestEnergyUpper:
    def test_star4(self):
        c = check_energy_upper(star(4))
        assert c.lhs == pytest.approx(2 * math.sqrt(3), abs=1e-9)
        assert c.rhs == pytest.approx(math.sqrt(24) - 48 / 720, abs=1e-9)
        assert c.rhs == pytest.approx(4.8323, abs=1e-4)
        assert c.holds

    def test_complete4_reduces_to_baseline(self):
        c = check_energy_upper(complete(4))
        assert c.lhs == pytest.approx(6.0, abs=1e-9)  # spectrum 3, -1, -1, -1
        assert c.rhs == pytest.approx(math.sqrt(48), abs=1e-12)
        assert "sqrt(2mn)" in c.certificate

    def test_p4(self):
        c = check_energy_upper(path(4))
        assert c.lhs == pytest.approx(4.4721, abs=1e-4)
        assert c.rhs == pytest.approx(math.sqrt(24) - 4 * 4 / 400, abs=1e-12)
        assert c.rhs == pytest.approx(4.8590, abs=1e-4)

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            check_energy_upper(Graph(4, [(0, 1), (2, 3)]))


class TestMaxCountLower:
    def test_star5_equality(self):
        c = check_max_count_lower(star(5))
        assert c.lhs == Fraction(36) and c.rhs == 36
        assert c.equality
        assert "4^1" in c.certificate and "1^4" in c.certificate

    def test_p4_equality(self):
        c = check_max_count_lower(path(4))
        assert c.lhs == Fraction(4) and c.rhs == 4 and c.equality

    def test_p5_equality(self):
        c = check_max_count_lower(path(5))
        assert c.lhs == Fraction(6) and c.rhs == 6 and c.equality

    def test_spider_strict(self):
        c = check_max_count_lower(SPIDER6)
        assert c.rhs == 20 and c.holds and not c.equality

    def test_regular_rejected(self):
        with pytest.raises(PreconditionError, match="regular"):
            check_max_count_lower(cycle(5))


class TestSimpleLower:
    def test_star5_equality(self):
        c = check_simple_lower(star(5))
        assert c.lhs == Fraction(144, 4) == 36 and c.equality
        assert "one vertex" in c.certificate

    def test_p4_strict(self):
        c = check_simple_lower(path(4))
        assert c.lhs == Fraction(4, 3) and c.rhs == 4
        assert c.holds and not c.equality

    def test_complete4_degenerate(self):
        c = check_simple_lower(complete(4))
        assert c.lhs == 0 and c.rhs == 0 and c.equality
        assert "regular" in c.certificate

    def test_single_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            check_simple_lower(Graph(1))


class TestTreeLower:
    def test_p7_equality(self):
        c = check_tree_lower(path(7))
        assert (c.lhs, c.rhs) == (10, 10)
        assert c.equality and c.certificate == "path"

    def test_star5_strict(self):
        c = check_tree_lower(star(5))
        assert (c.lhs, c.rhs) == (6, 36)
        assert c.holds and not c.equality

    def test_spider_strict(self):
        c = check_tree_lower(SPIDER6)
        assert (c.lhs, c.rhs) == (8, 20)

    def test_non_tree_rejected(self):
        with pytest.raises(PreconditionError, match="not a tree"):
            check_tree_lower(cycle(4))
        with pytest.raises(PreconditionError):
            check_tree_lower(Graph(4, [(0, 1), (2, 3)]))


class TestNonregularMin:
    def test_p4_equality(self):
        c = check_nonregular_min(path(4))
        assert (c.lhs, c.rhs) == (4, 4) and c.equality

    def test_p5_strict(self):
        c = check_nonregular_min(path(5))
        assert (c.lhs, c.rhs) == (4, 6)
        assert c.holds and not c.equality

    def test_regular_rejected(self):
        with pytest.raises(PreconditionError, match="regular"):
            check_nonregular_min(complete(4))


class TestLaplacianSandwich:
    def test_star4(self):
        upper, lower = check_laplacian_sandwich(star(4))
        assert upper.lhs == 12.0
        assert upper.rhs == pytest.approx(12.0, abs=1e-9)
        assert upper.equality
        assert lower.rhs == pytest.approx(48.0, abs=1e-7)
        assert upper.holds and lower.holds

    def test_p4(self):
        upper, lower = check_laplacian_sandwich(path(4))
        assert upper.rhs == pytest.approx((2 + math.sqrt(2)), abs=1e-9)
        assert lower.rhs == pytest.approx(4 / (2 - math.sqrt(2)) * 2, abs=1e-9)
        assert lower.rhs == pytest.approx(13.657, abs=1e-3)
        assert upper.holds and lower.holds

    def test_regular_degenerate(self):
        upper, lower = check_laplacian_sandwich(cycle(6))
        assert (upper.lhs, upper.rhs, lower.lhs, lower.rhs) == (0, 0, 0, 0)
        assert upper.exact and "degenerate" in upper.certificate

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            check_laplacian_sandwich(Graph(4, [(0, 1), (2, 3)]))


# The sequence lemmas behind the paper's bounds. No command runs them, so
# their validators live here, beside the fuzz runs that exercise them.

def check_variance_shift(seq, i: int, j: int) -> BoundCheck:
    """Variance strictly grows when entry i of a non-increasing sequence is
    raised by one and entry j > i lowered by one (0-based indices).

    The exact gap n*(Var(B) - Var(A)) = 2(a_i - a_j) + 2 is recomputed from
    both variances and cross-checked.
    """
    vals = [Fraction(a) for a in seq]
    n = len(vals)
    if any(vals[t] < vals[t + 1] for t in range(n - 1)):
        raise PreconditionError("variance-shift: sequence is not non-increasing")
    if not 0 <= i < j < n:
        raise PreconditionError(f"variance-shift: need 0 <= i < j < {n}, got ({i}, {j})")
    shifted = vals[:]
    shifted[i] += 1
    shifted[j] -= 1
    var_a = _variance(vals)
    var_b = _variance(shifted)
    gap = 2 * (vals[i] - vals[j]) + 2
    if n * (var_b - var_a) != gap:
        raise ArithmeticError("variance gap disagrees with 2(a_i - a_j) + 2")
    return BoundCheck(
        "variance-shift",
        var_a,
        var_b,
        var_a < var_b,
        False,
        f"n*(Var(B) - Var(A)) = {gap} > 0",
        exact=True,
    )


def _variance(vals: list[Fraction]) -> Fraction:
    mean = sum(vals, Fraction(0)) / len(vals)
    return sum(((v - mean) ** 2 for v in vals), Fraction(0)) / len(vals)


def check_amgm_refinement(x: float, y: float) -> BoundCheck:
    """sqrt(x/y) + sqrt(y/x) >= 2 + (x-y)^2 / (2(x^2+y^2)) for positive x, y;
    equality exactly at x = y.

    The verdict is exact. With x = a/D and y = b/D over a common
    denominator, the left side is (a+b)/sqrt(ab), and the inequality is
    homogeneous, so it holds iff
    4(a+b)^2 (a^2+b^2)^2 >= (4(a^2+b^2) + (a-b)^2)^2 ab, in integers. The
    float sides are kept for display only.
    """
    if x <= 0 or y <= 0:
        raise PreconditionError(f"amgm-refinement: need x, y > 0, got ({x}, {y})")
    rhs = math.sqrt(x / y) + math.sqrt(y / x)
    lhs = 2 + (x - y) ** 2 / (2 * (x * x + y * y))
    fx, fy = Fraction(x), Fraction(y)
    a, b = fx.numerator * fy.denominator, fy.numerator * fx.denominator
    squares = a * a + b * b
    left = 4 * (a + b) ** 2 * squares ** 2
    right = (4 * squares + (a - b) ** 2) ** 2 * a * b
    eq = left == right
    return BoundCheck("amgm-refinement", lhs, rhs, left >= right, eq, "x = y" if eq else "", exact=True)


def check_bhatia_davis(seq, upper, lower) -> BoundCheck:
    """Var(seq) <= (upper - mean)(mean - lower) for a sequence bounded in
    [lower, upper]; equality exactly when every entry sits at a bound."""
    vals = [Fraction(a) for a in seq]
    if not vals:
        raise PreconditionError("bhatia-davis: empty sequence")
    hi, lo = Fraction(upper), Fraction(lower)
    for t, v in enumerate(vals):
        if not lo <= v <= hi:
            raise PreconditionError(f"bhatia-davis: entry {t} = {v} outside [{lo}, {hi}]")
    mean = sum(vals, Fraction(0)) / len(vals)
    lhs = _variance(vals)
    rhs = (hi - mean) * (mean - lo)
    return _exact("bhatia-davis", lhs, rhs, lambda: (
        "all entries at the bounds" if all(v == hi or v == lo for v in vals)
        else "equality with interior entries"))


class TestVarianceShift:
    def test_known_instances(self):
        c = check_variance_shift((2, 2, 1, 1), 0, 3)
        assert "= 4 >" in c.certificate and c.holds and not c.equality
        c = check_variance_shift((3, 3, 3), 0, 2)
        assert "= 2 >" in c.certificate and c.holds
        c = check_variance_shift((5, 1), 0, 1)
        assert "= 10 >" in c.certificate
        assert c.lhs == Fraction(4) and c.rhs == Fraction(9)  # direct variances

    def test_strictness_always(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(2, 8)
            seq = sorted((rng.randint(-5, 9) for _ in range(n)), reverse=True)
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            c = check_variance_shift(tuple(seq), i, j)
            assert c.lhs < c.rhs

    def test_preconditions(self):
        with pytest.raises(PreconditionError, match="non-increasing"):
            check_variance_shift((1, 2, 3), 0, 2)
        with pytest.raises(PreconditionError, match="0 <= i < j"):
            check_variance_shift((3, 2, 1), 2, 2)


class TestAmgmRefinement:
    def test_equality_at_equal_inputs(self):
        c = check_amgm_refinement(3.0, 3.0)
        assert c.lhs == 2.0 and c.rhs == pytest.approx(2.0)
        assert c.holds and c.equality

    def test_4_1(self):
        c = check_amgm_refinement(4.0, 1.0)
        assert c.rhs == pytest.approx(2.5)
        assert c.lhs == pytest.approx(2 + 9 / 34)
        assert c.holds and not c.equality

    def test_1_100(self):
        c = check_amgm_refinement(1.0, 100.0)
        assert c.rhs == pytest.approx(10.1)
        assert c.lhs == pytest.approx(2 + 9801 / 20002)
        assert c.holds

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            check_amgm_refinement(0.0, 1.0)
        with pytest.raises(PreconditionError):
            check_amgm_refinement(2.0, -1.0)

    def test_fuzz_100k(self):
        rng = random.Random(20240817)
        for _ in range(100_000):
            x = rng.uniform(1e-6, 1e6)
            y = rng.uniform(1e-6, 1e6)
            assert check_amgm_refinement(x, y).holds


class TestBhatiaDavis:
    def test_two_valued_equality(self):
        c = check_bhatia_davis((4, 4, 1, 1, 1), 4, 1)
        assert c.lhs == Fraction(54, 25) and c.rhs == Fraction(54, 25)
        assert c.equality and c.certificate == "all entries at the bounds"

    def test_strict(self):
        c = check_bhatia_davis((1, 2, 3), 3, 1)
        assert c.lhs == Fraction(2, 3) and c.rhs == 1
        assert c.holds and not c.equality

    def test_constant(self):
        c = check_bhatia_davis((5, 5, 5), 5, 5)
        assert c.lhs == 0 and c.rhs == 0 and c.equality

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError, match="outside"):
            check_bhatia_davis((1, 2, 7), 5, 1)

    def test_fuzz_100k_exact(self):
        rng = random.Random(99)
        for _ in range(100_000):
            n = rng.randint(1, 7)
            seq = [rng.randint(-20, 20) for _ in range(n)]
            lower = min(seq) - rng.randint(0, 3)
            upper = max(seq) + rng.randint(0, 3)
            c = check_bhatia_davis(seq, upper, lower)
            assert c.holds
            at_bounds = all(v in (upper, lower) for v in seq)
            assert c.equality == at_bounds


class TestCheckAll:
    def test_p4_composition(self):
        by_id = {c.bound_id: c for c in check_all(path(4))}
        assert by_id["tree-lower"].equality
        assert by_id["max-count-lower"].equality
        assert by_id["nonregular-min"].equality
        assert by_id["laplacian-sigma-upper"].holds and not by_id["laplacian-sigma-upper"].equality
        assert by_id["energy-upper"].holds and not by_id["energy-upper"].equality
        assert by_id["triangle-free-upper"].holds
        assert all(c.skipped is None for c in by_id.values())

    def test_k23_composition(self):
        by_id = {c.bound_id: c for c in check_all(complete_bipartite(2, 3))}
        assert by_id["triangle-free-upper"].equality
        assert by_id["tree-lower"].skipped is not None

    def test_k4_composition(self):
        by_id = {c.bound_id: c for c in check_all(complete(4))}
        assert by_id["nonregular-min"].skipped == "graph is regular"
        assert by_id["max-count-lower"].skipped is not None
        assert by_id["triangle-free-upper"].skipped is not None

    def test_disconnected_never_raises(self):
        checks = check_all(Graph(5, [(0, 1), (2, 3)]))
        skipped = {c.bound_id for c in checks if c.skipped is not None}
        assert "energy-upper" in skipped and "laplacian-sigma-upper" in skipped
        assert all(c.holds for c in checks)

    def test_total_on_all_n4_graphs(self):
        pairs = pair_order(4)
        for mask in range(64):
            g = Graph(4, [pairs[e] for e in range(6) if mask >> e & 1])
            checks = check_all(g)
            assert all(c.holds for c in checks)
            ids = [c.bound_id for c in checks]
            assert ids == sorted(ids) and len(ids) == 9

    def test_certificates_are_built_only_on_equality(self, monkeypatch):
        # a tree and a cyclic triangle-free graph, each tight on no exact bound
        graphs = [SPIDER6, Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])]
        expected = [check_all(g) for g in graphs]
        exact = [c for checks in expected for c in checks if c.exact and c.skipped is None]
        assert {"tree-lower", "triangle-free-upper"} <= {c.bound_id for c in exact}
        assert not any(c.equality for c in exact)

        def unreachable(g):
            raise AssertionError("certificate built without equality")

        monkeypatch.setattr(bounds, "is_complete_bipartite", unreachable)
        monkeypatch.setattr(bounds, "is_path_graph", unreachable)
        assert [check_all(g) for g in graphs] == expected

    def test_json_shapes(self):
        checks = check_all(path(4))
        records = json.loads(canonical_json(checks))
        for d in records:
            assert set(d) == {
                "boundId", "lhs", "rhs", "holds", "equality",
                "certificate", "exact", "skipped",
            }
        frac = next(d for d in records if d["boundId"] == "simple-lower")
        assert frac["lhs"] == {"num": 4, "den": 3}


class TestGraphFacts:
    # every public graph check with the bound ids it reports
    CHECKS = (
        (("triangle-free-upper",), check_triangle_free_upper),
        (("degree-upper",), check_sigma_t_upper_degree),
        (("energy-upper",), check_energy_upper),
        (("max-count-lower",), check_max_count_lower),
        (("simple-lower",), check_simple_lower),
        (("tree-lower",), check_tree_lower),
        (("nonregular-min",), check_nonregular_min),
        (("laplacian-sigma-upper", "laplacian-sigma-t-upper"), check_laplacian_sandwich),
    )

    def test_check_all_matches_checks_on_bare_graphs(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_mask(n, mask)
                expected = []
                for ids, check in self.CHECKS:
                    try:
                        out = check(g)
                    except PreconditionError as exc:
                        reason = str(exc).split(": ", 1)[1]
                        expected += [BoundCheck(i, None, None, True, False, "", False, skipped=reason)
                                     for i in ids]
                        continue
                    expected += out if isinstance(out, tuple) else [out]
                expected.sort(key=lambda c: c.bound_id)
                assert check_all(g) == expected, (n, mask)

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("degrees", "edges"):
            monkeypatch.setattr(Graph, name, counted(name, getattr(Graph, name)))
        for name in ("is_connected", "is_path_graph", "spectra_by_order"):
            monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
        eigvalsh = np.linalg.eigvalsh

        def solve(a, *args, **kwargs):
            counts.setdefault("eigvalsh shapes", []).append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", solve))
        return counts

    @pytest.mark.parametrize("g, spectra", [
        (path(5), 1),
        (Graph(5, [(0, 1), (2, 3)]), 0),
        (cycle(6), 1),  # sandwich degenerate, but the energy bound needs the spectrum
    ])
    def test_each_fact_is_computed_once(self, calls, g, spectra):
        check_all(g)
        # the facts read the degrees once, and sigma walks the adjacency
        # rows with them, not Graph.edges
        once = {"degrees": 1, "is_connected": 1}
        if g == path(5):
            # tree-lower holds with equality, and its path certificate reads
            # the degrees again
            once.update({"degrees": 2, "is_path_graph": 1})
        if spectra:
            # both matrices go to one eigensolve as a (1, 2, n, n) stack
            once.update({"spectra_by_order": 1, "eigvalsh": 1, "eigvalsh shapes": [(1, 2, g.n, g.n)]})
        assert calls == once

    def test_facts_equal_the_definitions(self):
        # every labelled graph on up to 6 vertices, K1 and the disconnected
        # ones included
        for g in labelled_graphs(6):
            facts = GraphFacts(g)
            stats = degree_stats(g)
            assert (facts.n, facts.m, facts.degrees) == (stats.n, stats.m, stats.degrees)
            assert (facts.max_degree, facts.min_degree, facts.max_degree_count) == \
                (stats.max_degree, stats.min_degree, stats.max_degree_count)
            assert (facts.sigma, facts.sigma_t, facts.connected) == (sigma(g), sigma_t(g), is_connected(g))
            assert facts.tol == spectral_tolerance(g)

    def test_spectra_are_the_records_values(self):
        # from the stacked solves of graph_facts and from a bare graph's own
        # solve, bit for bit; mu2 is NaN at n = 1
        graphs = [Graph(1), path(2)] + list(seeded_graphs(random.Random(34), range(1, 16), 400))
        for g, f in zip(graphs, bounds.graph_facts(graphs)):
            assert ("spectrum" in vars(f)) == f.connected
            s = laplacian_spectrum(g)
            for spectrum in ([f.spectrum] if f.connected else []) + [GraphFacts(g).spectrum]:
                assert (spectrum.energy.hex(), spectrum.mu_max.hex()) == (s.energy.hex(), s.mu_max.hex())
                assert spectrum.mu2.hex() == s.mu2.hex() if g.n >= 2 else math.isnan(spectrum.mu2)

    def test_graph_facts_solve_the_connected_graphs_once_per_order(self, calls):
        graphs = [path(5), Graph(5, [(0, 1), (2, 3)]), cycle(6), Graph(1), star(5), complete(3), Graph(4)]
        facts = bounds.graph_facts(graphs)
        assert [f.graph for f in facts] == graphs
        # the connected graphs by order, in order of first appearance: P5 and S5, C6, K1, K3
        assert calls["eigvalsh shapes"] == [(2, 2, 5, 5), (1, 2, 6, 6), (1, 2, 1, 1), (1, 2, 3, 3)]
        assert [f.connected for f in facts] == [True, False, True, True, True, True, False]
        assert [("spectrum" in vars(f)) for f in facts] == [f.connected for f in facts]
        checks = [check_all(f) for f in facts]
        assert calls["eigvalsh"] == 4 and calls["spectra_by_order"] == 1
        assert checks == [check_all(g) for g in graphs]
