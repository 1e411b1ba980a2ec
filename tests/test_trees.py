"""The free-tree classes and the tree sweep built on them, against the
labeled Prüfer reference and counts computed other ways; Prüfer decoding,
the tree search and conjecture 2."""

import json
import logging
import math
import re
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from functools import lru_cache
from itertools import islice, permutations, product
from types import SimpleNamespace

import pytest

from sigmat import oracle, trees
from sigmat.cli import canonical_json
from sigmat.extremal import make_star
from sigmat.graph import Graph, encode_graph6, is_path_graph, is_tree, parse_graph6
from sigmat.invariants import sigma, sigma_t
from sigmat.oracle import LimitError, search_extremal
from sigmat.trees import prufer_edges, search_trees, tree_sweep, verify_conjecture2
from tests.reference import enumerate_trees, is_star_graph


@lru_cache(maxsize=None)
def _tree_reference(n):
    """The TreeSweep of n from enumerate_trees and the scalar invariants,
    independent of the rank decode and the lock-step Prüfer decode."""
    labelled = []
    for t in enumerate_trees(n):
        st, sg = sigma_t(t), sigma(t)
        labelled.append(SimpleNamespace(g6=encode_graph6(t), st=st, sigma=sg, bound=(n - 2) * sg,
                                        star=is_star_graph(t), path=is_path_graph(t)))
    top = max(t.st for t in labelled)
    bottom = min(t.st for t in labelled)
    maxima = [t for t in labelled if t.st == top]
    minima = [t for t in labelled if t.st == bottom]
    over = [t for t in labelled if t.st > t.bound]
    equal = [t for t in labelled if t.st == t.bound]
    sigma_eq = [t for t in labelled if t.st == t.sigma]

    def first(family):
        return tuple(t.g6 for t in family[:oracle.WITNESS_CAP])

    return trees.TreeSweep(
        n=n,
        trees=len(labelled),
        max_value=top,
        max_count=len(maxima),
        max_all_stars=all(t.star for t in maxima),
        max_witnesses=first(maxima),
        min_value=bottom,
        min_count=len(minima),
        min_all_paths=all(t.path for t in minima),
        min_witnesses=first(minima),
        ratio_violations=len(over),
        ratio_violation_witnesses=first(over),
        ratio_equality_count=len(equal),
        ratio_equality_all_paths=all(t.path for t in equal),
        ratio_equality_witnesses=first(equal),
        sigma_eq_count=len(sigma_eq),
        sigma_eq_all_stars=all(t.star for t in sigma_eq),
        star_count=sum(t.star for t in labelled),
    )


# trees on n vertices up to isomorphism, n = 1..16 (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)


def _level_tree(levels):
    """The Graph of a level sequence: each vertex joined to the latest
    vertex one level up."""
    last, edges = {}, []
    for v, depth in enumerate(levels):
        if depth:
            edges.append((last[depth - 1], v))
        last[depth] = v
    return Graph(len(levels), edges)


def _ahu(t):
    """A canonical string of a tree, by Aho, Hopcroft and Ullman's encoding
    rooted at its centre, or at both centres joined by their edge:
    independent of the level sequences of trees.free_trees."""
    adj = [set(t.neighbors(v)) for v in range(t.n)]
    rest, layer = set(range(t.n)), [v for v in range(t.n) if len(adj[v]) <= 1]
    while len(rest) > 2:
        rest -= set(layer)
        layer = [v for v in rest if len(adj[v] & rest) <= 1]

    def code(v, up):
        return "(" + "".join(sorted(code(c, {v}) for c in adj[v] - up)) + ")"

    return "|".join(sorted(code(v, rest - {v}) for v in rest))


def _profiles(n):
    """Every sorted digit-count profile of order n: the partitions of n - 2,
    padded with zeros to n parts."""
    def parts(total, most):
        if total == 0:
            yield ()
        for first in range(min(total, most), 0, -1):
            for rest in parts(total - first, first):
                yield (first, *rest)

    return [p + (0,) * (n - len(p)) for p in parts(n - 2, n - 2)]


def _class_rows(n):
    """Every free tree of order n in generation order, with its level
    sequence, n!/|Aut|, sigma_t, sigma, max degree and degree profile as the
    tree sweep evaluates them."""
    for levels in trees.free_trees(n):
        degrees, parent, aut = trees._tree_class(levels)
        st, sg = trees._tree_sigmas(degrees, zip(range(1, n), parent[1:]))
        profile = tuple(sorted((d - 1 for d in degrees), reverse=True))
        yield levels, (math.factorial(n) // aut, st, sg, max(degrees), profile)


class TestFreeTrees:
    """The free-tree classes against counts and labelled trees computed
    another way."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_class_counts_and_cayley(self, n):
        weights = [math.factorial(n) // trees._tree_class(levels)[2] for levels in trees.free_trees(n)]
        assert len(weights) == FREE_TREE_COUNTS[n - 1]
        assert sum(weights) == round(n ** (n - 2))  # Cayley

    def test_otters_formula_gives_the_class_counts(self):
        # A000055 from A000081, which the tree sweep checks its classes against
        assert tuple(trees.free_tree_count(n) for n in range(1, len(FREE_TREE_COUNTS) + 1)) == FREE_TREE_COUNTS
        assert trees.rooted_tree_counts(10) == (0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719)
        assert trees.free_tree_count(9) == 47
        assert trees.free_tree_count(18) == 123_867

    @pytest.mark.parametrize("n", range(1, 8))
    def test_weights_count_the_labelled_trees_of_each_class(self, n):
        labelled = Counter(_ahu(t) for t in (enumerate_trees(n) if n > 1 else [Graph(1, [])]))
        weights = {_ahu(_level_tree(levels)): math.factorial(n) // trees._tree_class(levels)[2]
                   for levels in trees.free_trees(n)}
        assert weights == labelled

    # the two facts the tree sweep's per-profile counts rest on

    @pytest.mark.parametrize("n", range(2, 17))
    def test_sigma_t_is_one_value_per_degree_profile(self, n):
        values = defaultdict(set)
        for _, (_, st, _, _, profile) in _class_rows(n):
            values[profile].add(st)
        assert all(len(v) == 1 for v in values.values())
        assert len(values) == len(_profiles(n))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_star_and_path_profiles_are_one_class_each(self, n):
        classes = defaultdict(list)
        for _, (_, _, _, max_deg, profile) in _class_rows(n):
            classes[profile].append(max_deg)
        assert classes[(n - 2,) + (0,) * (n - 1)] == [n - 1]  # the star
        assert classes[(1,) * (n - 2) + (0, 0)] == [min(n - 1, 2)]  # the path


class TestTreeSweepFastPath:
    """The free-tree sweep and its labelled witness search against
    independent references."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_field_matches_the_reference(self, n):
        assert tree_sweep.__wrapped__(n) == _tree_reference(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_table_matches_scalar_path(self, n):
        # the class rows against the scalar invariants of each class's tree
        for levels, (weight, st, sg, max_deg, profile) in _class_rows(n):
            t = _level_tree(levels)
            assert is_tree(t)
            assert (st, sg, max_deg) == (sigma_t(t), sigma(t), max(t.degrees()))
            assert profile == tuple(sorted((d - 1 for d in t.degrees()), reverse=True))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_values_match_the_mask_table_trees(self, mask_tables, mask_sigma_columns, n):
        table = mask_tables[n]
        table_sigma, _ = mask_sigma_columns[n]
        is_tree = table.deg.sum(axis=0) == 2 * (n - 1)
        weighted, deg_weighted = Counter(), Counter()
        for _, (weight, st, sg, max_deg, _) in _class_rows(n):
            weighted[st, sg] += weight
            deg_weighted[max_deg] += weight
        assert weighted == Counter(zip(table.sigma_t[is_tree].tolist(), table_sigma[is_tree].tolist()))
        assert deg_weighted == Counter(table.deg.max(axis=0)[is_tree].tolist())

    @pytest.mark.parametrize("n", [8, 9, 12, 17])
    def test_rank_windows_match_the_scalar_decode(self, n):
        # the witness search walks the Prüfer ranks in order: with every
        # profile its first hits are ranks 0..15, with a sigma predicate the
        # first ranks that pass it, and with the path or star profile the
        # first injective or constant sequences
        def decoded(seqs):
            return tuple(encode_graph6(Graph(n, prufer_edges(seq, n))) for seq in seqs)

        every = _profiles(n)
        ranks = list(islice(product(range(n), repeat=n - 2), 4000))
        assert trees._prufer_witnesses(n, every) == (decoded(ranks[:16]), 16)
        passing = [s for s in ranks if sigma(Graph(n, prufer_edges(s, n))) % 3 == 1][:16]
        assert len(passing) == 16
        assert trees._prufer_witnesses(n, every, lambda st, sg: sg % 3 == 1)[0] == decoded(passing)
        path = (1,) * (n - 2) + (0, 0)
        assert trees._prufer_witnesses(n, [path])[0] == decoded(islice(permutations(range(n), n - 2), 16))
        star = (n - 2,) + (0,) * (n - 1)
        stars = decoded((v,) * (n - 2) for v in range(min(n, 16)))
        assert trees._prufer_witnesses(n, [star]) == (stars, len(stars))
        assert trees._prufer_witnesses(n, []) == ((), 0)

    def test_witnesses_at_n8_and_n9_are_pinned(self):
        # the first labelled witnesses in Prüfer rank order, as the labelled
        # sweep found them
        n8, n9 = tree_sweep.__wrapped__(8), tree_sweep.__wrapped__(9)
        assert n8.max_witnesses == ("GsaCC?", "GiPAA?", "GXG`@?", "GFCO__", "G?{GOO", "G?BwGG",
                                    "G??FwC", "G???F{")
        assert n8.min_witnesses == n8.ratio_equality_witnesses == (
            "GhCK?G", "GhE?OC", "GhE??S", "Gh?[?O", "Gh_OGC", "Gh_O?K", "GhA?oO", "Gh_?gG",
            "Gh_?_K", "GhA?Oo", "Gh_?Gg", "Gh_?Gc", "GgKS?G", "GgM?_C", "GgM??c", "GgG[?_")
        assert n9.max_witnesses == ("HsaCCA?", "HiPAA@?", "HXG`@?_", "HFCO__O", "H?{GOOG",
                                    "H?BwGGC", "H??FwCA", "H???F{@", "H????B~")
        assert n9.min_witnesses == n9.ratio_equality_witnesses == (
            "HhCGK?A", "HhCK?G@", "HhCK??D", "HhC?[?C", "HhE?OC@", "HhE?O?B", "HhCC?WC", "HhE??SA",
            "HhE??OB", "HhCC?GK", "HhE??CI", "HhE??CH", "Hh?WS?A", "Hh?[?O@", "Hh?[??H", "Hh?O[?G")
        assert (n9.trees, n9.max_count, n9.min_count, n9.ratio_violations) == (9 ** 7, 9, 9 * 8 * 7 * 6 * 5 * 4 * 3, 0)

    def test_debug_line_reports_classes_and_candidates(self, monkeypatch, caplog):
        walk = trees._prufer_witnesses

        def slow(*args):
            time.sleep(0.01)
            return walk(*args)

        monkeypatch.setattr(trees, "_prufer_witnesses", slow)
        with caplog.at_level(logging.DEBUG, logger="sigmat.trees"):
            assert tree_sweep.__wrapped__(5) == _tree_reference(5)
        (record,) = [r for r in caplog.records if r.name == "sigmat.trees"]
        assert record.levelno == logging.DEBUG
        # 5 stars, 16 of the 60 paths for the minimum, 16 for the equality
        match = re.fullmatch(r"tree sweep at n=5: 3 classes, 125 labelled trees, "
                             r"37 witness candidates decoded, (\d+\.\d{3}) s", record.getMessage())
        assert match, record.getMessage()
        assert float(match.group(1)) >= 0.04  # the four witness searches

    def test_violation_witnesses_are_capped_in_pruefer_order(self, monkeypatch):
        # sigma read as 0 puts every tree on 6 vertices over the ratio bound
        evaluate = trees._tree_sigmas
        monkeypatch.setattr(trees, "_tree_sigmas", lambda degrees, edges: (evaluate(degrees, edges)[0], 0))
        monkeypatch.setattr(trees, "tree_sweep", tree_sweep.__wrapped__)
        first = tuple(encode_graph6(t) for t in islice(enumerate_trees(6), oracle.WITNESS_CAP))
        assert tree_sweep.__wrapped__(6) == replace(
            _tree_reference(6), ratio_violations=6 ** 4, ratio_violation_witnesses=first,
            ratio_equality_count=0, ratio_equality_witnesses=(), sigma_eq_count=0)
        report = verify_conjecture2(6)
        assert report.status == "counterexample" and report.counterexamples == first

    def test_star_and_path_flags_fail_when_every_tree_ties(self, monkeypatch):
        # sigma_t and sigma read as 0: every tree attains both extremes, the
        # ratio equality and sigma == sigma_t, so no "all stars/paths" holds
        monkeypatch.setattr(trees, "_tree_sigmas", lambda degrees, edges: (0, 0))
        monkeypatch.setattr(trees, "tree_sweep", tree_sweep.__wrapped__)
        first = tuple(encode_graph6(t) for t in islice(enumerate_trees(6), oracle.WITNESS_CAP))
        labelled = 6 ** 4
        assert tree_sweep.__wrapped__(6) == replace(
            _tree_reference(6), max_value=0, max_count=labelled, max_all_stars=False,
            max_witnesses=first, min_value=0, min_count=labelled, min_all_paths=False,
            min_witnesses=first, ratio_equality_count=labelled, ratio_equality_all_paths=False,
            ratio_equality_witnesses=first, sigma_eq_count=labelled, sigma_eq_all_stars=False)
        report = verify_conjecture2(6)
        assert report.status == "counterexample" and report.counterexamples == first

    def test_orders_outside_2_to_18_raise_limit_error(self):
        for n in (1, trees.MAX_TREE_ORDER + 1):
            with pytest.raises(LimitError, match=f"tree sweep covers 2 <= n <= 18, got n={n}"):
                tree_sweep(n)

    def test_sweep_builds_once_per_order(self, monkeypatch):
        monkeypatch.setattr(trees, "tree_sweep", lru_cache(maxsize=None)(tree_sweep.__wrapped__))
        calls = []
        generate = trees.free_trees

        def recording(n):
            calls.append(n)
            return generate(n)

        monkeypatch.setattr(trees, "free_trees", recording)
        for _ in range(2):
            for n in (4, 5):
                assert trees.tree_sweep(n) is trees.tree_sweep(n)
                assert search_trees(n, "max").graphs_visited == n ** (n - 2)
                assert verify_conjecture2(n).graphs_visited == n ** (n - 2)
        assert calls == [4, 5]
        assert tree_sweep.cache_info().maxsize is None
        assert tree_sweep(6) is tree_sweep(6)

    def test_tree_commands_reuse_the_cached_sweep(self, monkeypatch):
        tree_sweep(6)

        def no_trees(n):
            raise AssertionError(f"free trees generated again for n={n}")

        monkeypatch.setattr(trees, "free_trees", no_trees)
        assert search_trees(6, "max").graphs_visited == 6 ** 4
        assert verify_conjecture2(6).status == "verified"

    def test_sweep_memory_is_bounded(self):
        # the classes are counted as they are generated: the 19,320
        # classes at n = 16 are never held at once
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sweep = tree_sweep.__wrapped__(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep.trees == 16 ** 14
        assert peak < 2 * 2 ** 20


def naive_prufer(seq, n):
    """Textbook decoding: repeatedly join the smallest leaf to the next
    sequence entry."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    alive = set(range(n))
    edges = []
    for x in seq:
        leaf = min(v for v in alive if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        alive.remove(leaf)
    edges.append(tuple(sorted(alive)))
    return {tuple(sorted(e)) for e in edges}


class TestTrees:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, n, count):
        labelled = list(enumerate_trees(n))
        assert len(labelled) == count
        assert len(set(labelled)) == count
        assert all(is_tree(t) for t in labelled)

    def test_n3_all_paths(self):
        assert all(is_path_graph(t) for t in enumerate_trees(3))

    def test_decode_matches_naive_exhaustively(self):
        from itertools import product

        for n in (5, 6):
            for seq in product(range(n), repeat=n - 2):
                fast = {tuple(sorted(e)) for e in prufer_edges(seq, n)}
                assert fast == naive_prufer(seq, n)

    def test_limits(self):
        with pytest.raises(LimitError):
            next(enumerate_trees(10))
        with pytest.raises(LimitError):
            next(enumerate_trees(1))


class TestSearchTrees:
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_matches_stream_search(self, n, objective):
        fast = search_trees(n, objective)
        slow = search_extremal(enumerate_trees(n), objective)
        assert fast.extreme_value == slow.extreme_value
        assert fast.tie_count == slow.tie_count
        assert set(fast.witnesses) == set(slow.witnesses)

    def test_max_is_star(self):
        result = search_trees(7, "max")
        assert result.extreme_value == 6 * 25
        assert result.tie_count == 7
        assert all(is_star_graph(parse_graph6(w)) for w in result.witnesses)


class TestTreeSweep:
    def test_counts_and_extremes_n5(self):
        sweep = tree_sweep(5)
        assert sweep.trees == 125
        assert sweep.max_value == 4 * 9 and sweep.max_count == 5 and sweep.max_all_stars
        assert sweep.min_value == 6 and sweep.min_count == 60 and sweep.min_all_paths
        assert sweep.ratio_violations == 0
        assert sweep.ratio_equality_count == 60 and sweep.ratio_equality_all_paths
        assert sweep.sigma_eq_count == sweep.star_count == 5
        assert sweep.sigma_eq_all_stars

    def test_witnesses_decode_to_the_right_shapes(self):
        sweep = tree_sweep(6)
        assert all(is_star_graph(parse_graph6(w)) for w in sweep.max_witnesses)
        assert all(is_path_graph(parse_graph6(w)) for w in sweep.min_witnesses)

    def test_sigma_eq_set_cross_check(self):
        # independent pass over the enumerated trees
        for n in (4, 5, 6):
            sweep = tree_sweep(n)
            expected = sum(1 for t in enumerate_trees(n) if sigma(t) == sigma_t(t))
            assert sweep.sigma_eq_count == expected


class TestConjecture2:
    def test_n4(self):
        report = verify_conjecture2(4)
        assert report.status == "verified"
        assert report.equality_count == 12
        assert report.equality_all_paths
        assert all(is_path_graph(parse_graph6(w)) for w in report.extremal_witnesses)
        assert report.graphs_visited == 16

    def test_n5_star_is_strict(self):
        s = make_star(5)
        assert sigma_t(s) == 36 < (5 - 2) * sigma(s) == 108
        report = verify_conjecture2(5)
        assert report.status == "verified" and report.equality_count == 60

    def test_range(self):
        with pytest.raises(LimitError):
            verify_conjecture2(2)
        with pytest.raises(LimitError):
            verify_conjecture2(19)

    def test_json_has_equality_fields(self):
        d = json.loads(canonical_json(verify_conjecture2(4)))
        assert d["status"] == "verified"
        assert d["equalityCount"] == 12
        assert d["equalityWitnesses"] == d["extremalWitnesses"]
