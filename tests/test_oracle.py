"""Enumeration counts, stream ingestion, search and conjecture 1
harnesses, and the cross-validation of the bulk mask tables and batched
spectra."""

import json
import logging
import re
import time
import tracemalloc
import weakref
from collections import defaultdict
from dataclasses import fields, replace
from functools import lru_cache
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sigmat import bulk, extremal, oracle
from sigmat.cli import canonical_json
from sigmat.extremal import (
    is_generalized_complete_kpartite,
    make_complete_bipartite,
    make_path,
    make_star,
)
from sigmat.graph import (
    FILTERS,
    Graph,
    Graph6Error,
    degree_stats,
    encode_graph6,
    graph_from_mask,
    ingest_graph6,
    is_connected,
    is_path_graph,
    is_tree,
    is_triangle_free,
    pair_order,
    parse_graph6,
)
from sigmat.invariants import sigma, sigma_t
from sigmat.oracle import (
    LimitError,
    chunk_ranges,
    connected_graph_count,
    enumerate_connected_graphs,
    random_graphs,
    search_connected,
    search_extremal,
    verify_conjecture1,
    verify_identity_suite,
)
from sigmat.spectral import laplacian_spectra, laplacian_spectrum
from tests.reference import enumerate_trees, is_star_graph
from tests.test_graph import complete, cycle, path

# labeled connected graph counts by order
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CONNECTED_COUNTS.items()))
    def test_connected_counts(self, n, count):
        graphs = list(enumerate_connected_graphs(n))
        assert len(graphs) == count
        assert len(set(graphs)) == count
        assert all(g.n == n and is_connected(g) for g in graphs)

    def test_recurrence_gives_the_connected_counts(self):
        # A001187, which every mask sweep checks its rows against
        assert [connected_graph_count(n) for n in sorted(CONNECTED_COUNTS)] == \
            [CONNECTED_COUNTS[n] for n in sorted(CONNECTED_COUNTS)]
        assert connected_graph_count(7) == 1_866_256
        assert connected_graph_count(8) == 251_548_592

    @pytest.mark.parametrize("n", range(1, 8))
    def test_connected_table_rows_are_the_connected_count(self, n):
        assert bulk.connected_table(n).masks.size == connected_graph_count(n)

    def test_limits(self):
        with pytest.raises(LimitError, match="ingest_graph6"):
            next(enumerate_connected_graphs(8))
        with pytest.raises(LimitError):
            next(enumerate_connected_graphs(0))

    def test_mask_range_partitions_the_space(self, monkeypatch):
        monkeypatch.setattr(bulk, "CHUNK_MASKS", 16)
        whole = list(enumerate_connected_graphs(4))
        pieces = []
        for lo, hi in chunk_ranges(4):
            pieces.extend(enumerate_connected_graphs(4, mask_range=(lo, hi)))
        assert pieces == whole


class TestRandomGraphs:
    def test_reproducible(self):
        a = list(random_graphs(12, 20, seed=42))
        b = list(random_graphs(12, 20, seed=42))
        assert a == b
        c = list(random_graphs(12, 20, seed=43))
        assert a != c
        assert all(g.n == 12 for g in a)

    def test_zero_count_is_an_empty_stream(self):
        assert list(random_graphs(7, 0, seed=5)) == []

    @pytest.mark.parametrize("n,count,match", [
        (0, 5, "n >= 1, got n=0"),
        (-3, 5, "n >= 1, got n=-3"),
        (5, -2, "count must be >= 0, got -2"),
    ], ids=["n-zero", "n-negative", "count-negative"])
    def test_rejects_bad_arguments_when_called(self, n, count, match):
        with pytest.raises(ValueError, match=match):
            random_graphs(n, count, seed=0)


class TestIngest:
    def test_stream_in_order(self):
        lines = [encode_graph6(path(4)), encode_graph6(complete(4)), encode_graph6(cycle(5))]
        graphs = list(ingest_graph6(lines))
        assert graphs == [path(4), complete(4), cycle(5)]

    def test_blank_lines_skipped(self):
        lines = ["", encode_graph6(path(3)), "   ", encode_graph6(path(2))]
        assert len(list(ingest_graph6(lines))) == 2

    def test_empty_stream(self):
        assert list(ingest_graph6([])) == []

    def test_error_carries_line_number(self):
        lines = [encode_graph6(path(4)), "C~~~~", encode_graph6(path(3))]
        with pytest.raises(Graph6Error, match="line 2") as info:
            list(ingest_graph6(lines))
        # the byte offset is named once, as parse_graph6 names it
        with pytest.raises(Graph6Error) as bare:
            parse_graph6("C~~~~")
        assert str(info.value) == f"line 2: {bare.value}"
        assert info.value.offset == bare.value.offset

    def test_skip_policy_reports_diagnostics(self):
        lines = [encode_graph6(path(4)), "!!bad!!", encode_graph6(path(3))]
        seen = []
        graphs = list(ingest_graph6(lines, lambda no, line, exc: seen.append((no, line))))
        assert len(graphs) == 2
        assert seen == [(2, "!!bad!!")]


class TestSearchExtremal:
    def test_connected_n4_max(self):
        result = search_extremal(enumerate_connected_graphs(4), "max")
        assert result.extreme_value == 12
        assert result.tie_count == 4
        assert result.graphs_visited == 38
        assert result.objective == "max-sigma-t"
        for text in result.witnesses:
            assert is_star_graph(parse_graph6(text))

    def test_trees_n6_min(self):
        result = search_extremal(enumerate_trees(6), "min")
        assert result.extreme_value == 8
        assert result.tie_count == 360  # 6!/2 labeled paths
        assert len(result.witnesses) == 16  # capped
        assert all(is_path_graph(parse_graph6(w)) for w in result.witnesses)

    def test_predicate_filter(self):
        result = search_extremal(
            enumerate_connected_graphs(5), "min",
            predicate=lambda g: not all(d == g.degree(0) for d in g.degrees()),
        )
        assert result.extreme_value == 4

    def test_empty_family(self):
        with pytest.raises(ValueError, match="empty family"):
            search_extremal([], "max")
        with pytest.raises(ValueError, match="empty family"):
            search_extremal(enumerate_connected_graphs(3), "max",
                            predicate=lambda g: False)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            search_extremal([path(3), path(4)], "max")

    def test_bad_objective(self):
        with pytest.raises(ValueError):
            search_extremal([path(3)], "largest")

    def test_json_shape(self):
        d = json.loads(canonical_json(search_extremal(enumerate_connected_graphs(3), "max")))
        assert list(d) == ["familyDescription", "n", "objective", "extremeValue",
                           "witnesses", "tieCount", "graphsVisited"]


class TestSearchConnected:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("graph_filter,predicate", [
        ("none", None),
        ("triangle-free", is_triangle_free),
        ("nonregular", lambda g: len(set(g.degrees())) > 1),
        ("tree", is_tree),
    ])
    def test_matches_stream_search(self, n, objective, graph_filter, predicate):
        fast = search_connected(n, objective, graph_filter)
        slow = search_extremal(enumerate_connected_graphs(n), objective, predicate)
        assert fast.extreme_value == slow.extreme_value
        assert fast.tie_count == slow.tie_count
        assert fast.witnesses == slow.witnesses
        assert fast.graphs_visited == slow.graphs_visited
        # the filter's own stream predicate, which stream searches use
        keeps = FILTERS[graph_filter].keeps
        assert search_extremal(enumerate_connected_graphs(n), objective, keeps) == slow

    @pytest.mark.parametrize("n,width", [
        (1, 8), (2, 1), (4, 3), (4, 64), (4, 1 << 16), (6, 1 << 7), (7, 1 << 16),
    ])
    def test_chunks_tile_the_space_in_order(self, monkeypatch, n, width):
        monkeypatch.setattr(bulk, "CHUNK_MASKS", width)
        ranges = chunk_ranges(n)
        total = 1 << (n * (n - 1) // 2)
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(0 < hi - lo <= width for lo, hi in ranges)
        assert len(ranges) == -(-total // width)

    def test_limits_and_filters(self):
        with pytest.raises(LimitError):
            search_connected(8, "max")
        with pytest.raises(ValueError, match="unknown filter"):
            search_connected(4, "max", "planar")


@lru_cache(maxsize=None)
def _reference(n, objective, graph_filter):
    predicate = {
        "none": None,
        "triangle-free": is_triangle_free,
        "nonregular": lambda g: len(set(g.degrees())) > 1,
        "tree": is_tree,
    }[graph_filter]
    return search_extremal(enumerate_connected_graphs(n), objective, predicate)


class TestChunkBoundaries:
    """Chunk widths far below the default, so sweeps cross many chunk
    boundaries and meet chunks with no connected (or no kept) graph."""

    @pytest.mark.parametrize("n,width", [(5, 1 << 3), (6, 1 << 7)])
    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("graph_filter", ["none", "triangle-free", "nonregular", "tree"])
    def test_search_connected_matches_stream_search(self, monkeypatch, n, width, objective,
                                                    graph_filter):
        slow = _reference(n, objective, graph_filter)
        monkeypatch.setattr(bulk, "CHUNK_MASKS", width)
        fast = search_connected(n, objective, graph_filter)
        assert fast.extreme_value == slow.extreme_value
        assert fast.tie_count == slow.tie_count
        assert fast.witnesses == slow.witnesses
        assert fast.graphs_visited == slow.graphs_visited

    @pytest.mark.parametrize("n,width", [(5, 1 << 3), (6, 1 << 7)])
    def test_conjecture1_matches_stream_run(self, monkeypatch, n, width):
        graphs = list(enumerate_connected_graphs(n))
        slow = verify_conjecture1(n, graphs)
        monkeypatch.setattr(bulk, "CHUNK_MASKS", width)
        # the first chunk holds no connected graph
        assert bulk.connected_table(n, *chunk_ranges(n)[0]).masks.size == 0
        # only the internal sweep covers the whole family
        assert slow.status == "no-counterexample-in-input"
        assert verify_conjecture1(n) == replace(slow, status="verified")

    def test_counterexamples_are_capped_across_chunks(self, monkeypatch):
        # a reference of 0 makes every irregular triangle-free graph an
        # offender; the first WITNESS_CAP of them in mask order are reported
        monkeypatch.setattr(extremal, "max_bipartite_split", lambda n: SimpleNamespace(value=0))
        offenders = [
            encode_graph6(g) for g in enumerate_connected_graphs(5)
            if is_triangle_free(g) and sigma_t(g) > 0
        ]
        stream = verify_conjecture1(5, enumerate_connected_graphs(5))
        monkeypatch.setattr(bulk, "CHUNK_MASKS", 1 << 3)
        report = verify_conjecture1(5)
        assert report.status == "counterexample"
        assert report.counterexamples == tuple(offenders[:oracle.WITNESS_CAP])
        assert report == stream

    @staticmethod
    def fake_sweep(monkeypatch, build, chunks, rows):
        """``_sweep`` over ``chunks`` unit ranges whose tables ``build`` makes,
        with A001187's count replaced by ``rows``."""
        monkeypatch.setattr(oracle, "chunk_ranges", lambda n: [(i, i + 1) for i in range(chunks)])
        monkeypatch.setattr(bulk, "connected_table", build)
        monkeypatch.setattr(oracle, "connected_graph_count", lambda n: rows)

    @pytest.mark.parametrize("chunks", [0, 1, 2, 8, 200])
    def test_sweep_keeps_few_chunks_in_flight(self, monkeypatch, chunks):
        events = []

        class Total:
            def merge(self, part):
                events.append(("merge", part))

        def build(n, lo, hi):
            events.append(("build", lo))
            return SimpleNamespace(lo=lo, masks=np.array([lo], dtype=np.uint32))

        self.fake_sweep(monkeypatch, build, chunks, rows=chunks)
        totals = (Total(), Total())
        assert oracle._sweep(0, "sweep", lambda table: (table.lo, -table.lo), totals) is totals
        # no chunk is built before the previous chunk's partials are merged
        assert events == [event for lo in range(chunks)
                          for event in (("build", lo), ("merge", lo), ("merge", -lo))]

    def test_sweep_drops_each_table_before_building_the_next(self, monkeypatch):
        # a table still referenced while the next one is built doubles the
        # peak memory of a sweep
        class Table:
            masks = np.zeros(0, dtype=np.uint32)

        built = []

        def build(n, lo, hi):
            assert all(ref() is None for ref in built)
            table = Table()
            built.append(weakref.ref(table))
            return table

        self.fake_sweep(monkeypatch, build, 3, rows=0)
        assert oracle._sweep(0, "sweep", lambda table: (), ()) == ()
        assert len(built) == 3

    def test_sweep_logs_its_chunks_and_the_seconds_of_each_layer(self, monkeypatch, caplog):
        build = bulk.connected_table

        def slow_build(n, lo, hi):
            time.sleep(0.01)
            return build(n, lo, hi)

        def slow_scan(table):
            time.sleep(0.02)
            return ()

        monkeypatch.setattr(bulk, "CHUNK_MASKS", 1 << 8)
        monkeypatch.setattr(bulk, "connected_table", slow_build)
        with caplog.at_level(logging.DEBUG, logger="sigmat.oracle"):
            assert oracle._sweep(5, "labelled pass", slow_scan, ()) == ()
        (record,) = [r for r in caplog.records if r.name == "sigmat.oracle"]
        assert record.levelno == logging.DEBUG
        match = re.fullmatch(r"labelled pass at n=5: 4 chunks, (\d+\.\d{3}) s building tables, "
                             r"(\d+\.\d{3}) s scanning", record.getMessage())
        assert match, record.getMessage()
        build_s, scan_s = map(float, match.groups())
        assert build_s >= 0.04 and scan_s >= 0.08

    def test_sweep_with_a_short_row_count_raises(self, monkeypatch):
        # every table but the last holds one connected row
        build = lambda n, lo, hi: SimpleNamespace(masks=np.arange(lo, min(hi, 2), dtype=np.uint32))
        self.fake_sweep(monkeypatch, build, 3, rows=3)
        with pytest.raises(ArithmeticError) as raised:
            oracle._sweep(5, "labelled pass", lambda table: (), ())
        assert str(raised.value) == "labelled pass at n=5 visited 2 connected graphs, A001187 gives 3"

    def test_sweep_memory_is_bounded(self):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = search_connected(7, "max")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.graphs_visited == 1866256
        assert peak < 64 * 2 ** 20


class TestTally:
    @given(st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=3 * oracle.WITNESS_CAP),
                    max_size=8))
    def test_merging_any_split_equals_one_pass(self, parts):
        # parts may be empty or longer than WITNESS_CAP
        keys = [k for part in parts for k in part]
        one_pass = oracle.Tally(len(keys), keys[:oracle.WITNESS_CAP])
        assert oracle.Tally.of(np.array(keys, dtype=np.int64)) == one_pass
        chunked, streamed = oracle.Tally(), oracle.Tally()
        for part in parts:
            chunked.merge(oracle.Tally.of(np.array(part, dtype=np.int64)))
            for k in part:
                streamed.merge(oracle.Tally(1, [k]))
        assert chunked == streamed == one_pass


class TestConjecture1:
    def test_n5_internal(self):
        report = verify_conjecture1(5)
        assert report.status == "verified"
        assert report.max_value == 36 and report.reference_value == 36
        assert report.tie_count == 5
        assert all(is_star_graph(parse_graph6(w)) for w in report.extremal_witnesses)
        assert report.counterexamples == ()

    def test_n7_internal(self):
        report = verify_conjecture1(7)
        assert report.status == "verified"
        assert report.max_value == 150 and report.reference_value == 150
        assert report.tie_count == 7

    def test_internal_limit(self):
        with pytest.raises(LimitError, match="stream"):
            verify_conjecture1(10)

    def test_limit_is_checked_before_the_reference_scan(self, monkeypatch):
        # the O(n) bipartite scan would make a huge n slow to reject
        def refuse(n):
            raise AssertionError("scanned the bipartite splits before the order limit")

        monkeypatch.setattr(extremal, "max_bipartite_split", refuse)
        for n in (8, 10 ** 7):
            with pytest.raises(LimitError, match="stream"):
                verify_conjecture1(n)

    def test_n10_stream_reproduces_the_tie(self):
        graphs = [make_complete_bipartite(a, 10 - a) for a in range(1, 6)]
        graphs += [make_path(10), Graph(10, [(v, (v + 1) % 10) for v in range(10)])]
        report = verify_conjecture1(10, graphs)
        assert report.status == "no-counterexample-in-input"
        assert report.max_value == 576 and report.reference_value == 576
        assert report.tie_count == 2
        witnesses = {frozenset(degree_stats(parse_graph6(w)).degrees)
                     for w in report.extremal_witnesses}
        assert witnesses == {frozenset({9, 1}), frozenset({8, 2})}

    def test_stream_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="order"):
            verify_conjecture1(10, [make_star(5)])

    def test_stream_filters_out_everything(self):
        with pytest.raises(ValueError, match="no connected triangle-free"):
            verify_conjecture1(4, [complete(4)])


class TestIdentitySuite:
    def test_connected_small_orders(self):
        for n in range(1, 6):
            summary = verify_identity_suite(enumerate_connected_graphs(n))
            assert summary.failed == 0
            assert summary.checked == summary.passed == CONNECTED_COUNTS[n]
            assert summary.first_failure is None

    def test_random_stream_with_seed(self):
        summary = verify_identity_suite(random_graphs(12, 100, seed=11), seed=11)
        assert summary.checked == 100 and summary.failed == 0
        assert json.loads(canonical_json(summary))["seed"] == 11

    def test_empty_stream(self):
        summary = verify_identity_suite([])
        assert (summary.checked, summary.passed, summary.failed) == (0, 0, 0)


def _scalar_rows(n, lo, hi):
    """The rows of the connected masks in [lo, hi), from the scalar graph and
    invariants: the table's columns, and the columns derived from it."""
    stored, derived = [], []
    for mask in range(lo, hi):
        g = graph_from_mask(n, mask)
        if not is_connected(g):
            continue
        stats = degree_stats(g)
        stored.append({
            "masks": mask, "deg": list(g.degrees()), "sigma_t": sigma_t(g),
            "triangle_free": is_triangle_free(g),
        })
        derived.append({
            "m": g.m, "max_deg": stats.max_degree, "min_deg": stats.min_degree,
            "sigma": sigma(g), "gen_kpartite": is_generalized_complete_kpartite(g),
            "max_count": stats.max_degree_count,
        })
    return stored, derived


MASK_TABLE_DTYPES = {"masks": np.uint32, "deg": np.uint8, "sigma_t": np.int16, "triangle_free": np.bool_}
DERIVED_DTYPES = {"m": np.int64, "max_deg": np.uint8, "min_deg": np.uint8,
                  "sigma": np.int64, "gen_kpartite": np.bool_, "max_count": np.int64}


def _derived_columns(table):
    """The edge count, the max and min degree and the multiplicity of the max
    degree from the degrees, and sigma and the generalised k-partite flag
    from bulk.sigma_columns."""
    sigma, gen_kpartite = bulk.sigma_columns(table)
    max_deg = table.deg.max(axis=0)
    return {"m": table.deg.sum(axis=0, dtype=np.int64) // 2, "max_deg": max_deg,
            "min_deg": table.deg.min(axis=0), "sigma": sigma, "gen_kpartite": gen_kpartite,
            "max_count": (table.deg == max_deg).sum(axis=0)}


def _assert_table_matches(table, n, lo, hi):
    assert table.n == n
    stored, derived = _scalar_rows(n, lo, hi)
    for columns, dtypes, want in (
            ({name: getattr(table, name) for name in MASK_TABLE_DTYPES}, MASK_TABLE_DTYPES, stored),
            (_derived_columns(table), DERIVED_DTYPES, derived)):
        for name, dtype in dtypes.items():
            column = columns[name]
            assert column.dtype == dtype, name
            assert column.shape == ((n, len(want)) if name == "deg" else (len(want),)), name
            got = column.T.tolist() if name == "deg" else column.tolist()
            assert got == [row[name] for row in want], (name, n, lo, hi)


def _component(g, v):
    """The bitmask of the vertices that a breadth-first search from v reaches."""
    seen, frontier = 1 << v, [v]
    for u in frontier:
        for w in g.neighbors(u):
            if not seen >> w & 1:
                seen |= 1 << w
                frontier.append(w)
    return seen


# runs of one neighbourhood of the last vertex are 2^15 masks wide at n = 7
# and 2^21 at n = 8; inside an n = 8 run the order-7 bases turn over every
# 2^15 masks
RUN7, RUN8 = 1 << 15, 1 << 21
BUILDER_RANGES = [
    (7, 5 * RUN7 + 100, 5 * RUN7 + 900),          # inside one run
    (7, 3 * RUN7 - 300, 3 * RUN7 + 300),          # across a run boundary
    (7, 2 * RUN7 - 200, 2 * RUN7 + 200),          # across a chunk boundary too
    (7, RUN7 - 1, RUN7),                          # single masks at run edges:
    (7, RUN7, RUN7 + 1),                          # disconnected,
    (7, 2 * RUN7 - 1, 2 * RUN7),                  # K6 with a pendant vertex,
    (7, 63 * RUN7, 63 * RUN7 + 1),                # the star at vertex 6, and K7
    (7, 0, 1),
    (7, (1 << 21) - 1, 1 << 21),
    (7, (1 << 21) - 700, 1 << 21),                # the last masks of the space
    (7, RUN7, RUN7),                              # empty ranges
    (7, 12345, 12345),
    (8, 7 * RUN8 - 500, 7 * RUN8 + 500),
    (8, 3 * RUN8 + RUN7 - 300, 3 * RUN8 + RUN7 + 300),
    (8, 100 * RUN8 + 5 * RUN7 + 10, 100 * RUN8 + 5 * RUN7 + 600),
    (8, RUN8 - 1, RUN8),
    (8, RUN8, RUN8 + 1),
    (8, 2 * RUN8 - 1, 2 * RUN8),
    (8, 127 * RUN8, 127 * RUN8 + 1),
    (8, 127 * RUN8 - 1, 127 * RUN8),
    (8, (1 << 28) - 1, 1 << 28),
    (8, (1 << 28) - 400, 1 << 28),
    (8, RUN8, RUN8),
    (8, 5 * RUN8 + 17, 5 * RUN8 + 17),
    (8, 5 * RUN8 + RUN7, 5 * RUN8 + RUN7),
]


def _seeded_ranges(seed=2024, count=6):
    rng = np.random.default_rng(seed)
    ranges = []
    for n, run in ((7, RUN7), (8, RUN8)):
        for _ in range(count):
            lo = int(rng.integers(0, 1 << n * (n - 1) // 2))
            ranges.append((n, lo, min(lo + int(rng.integers(1, 1500)), 1 << n * (n - 1) // 2)))
        edge = int(rng.integers(1, (1 << n * (n - 1) // 2) // run)) * run
        ranges.append((n, edge - int(rng.integers(1, 800)), edge + int(rng.integers(1, 800))))
    return ranges


class TestBulkCrossValidation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_table_matches_scalar_path(self, n):
        table = bulk.connected_table(n)
        derived = _derived_columns(table)
        stream = list(enumerate_connected_graphs(n))
        assert table.masks.size == len(stream)
        for k, g in enumerate(stream):
            assert graph_from_mask(n, int(table.masks[k])) == g
            assert int(table.sigma_t[k]) == sigma_t(g)
            assert int(derived["sigma"][k]) == sigma(g)
            assert int(derived["m"][k]) == g.m
            assert bool(table.triangle_free[k]) == is_triangle_free(g)
            assert bool(derived["gen_kpartite"][k]) == is_generalized_complete_kpartite(g)
            stats = degree_stats(g)
            assert int(derived["max_deg"][k]) == stats.max_degree
            assert int(derived["min_deg"][k]) == stats.min_degree
            assert int(derived["max_count"][k]) == stats.max_degree_count
            assert tuple(int(x) for x in table.deg[:, k]) == g.degrees()

    @pytest.mark.parametrize("n,lo,hi", BUILDER_RANGES + _seeded_ranges())
    def test_ranges_match_the_scalar_invariants(self, n, lo, hi):
        _assert_table_matches(bulk.connected_table(n, lo, hi), n, lo, hi)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_column_has_its_dtype(self, n):
        assert [f.name for f in fields(bulk.MaskTable)] == ["n", *MASK_TABLE_DTYPES]
        for lo, hi in ((0, min(1 << n * (n - 1) // 2, 600)), (0, 0)):
            _assert_table_matches(bulk.connected_table(n, lo, hi), n, lo, hi)

    def test_gen_kpartite_comes_from_the_non_adjacent_pairs(self):
        # sigma == sigma_t holds exactly where gen_kpartite does (criterion
        # 9), so a flag derived from that equality would agree with every
        # reference; only a sigma_t column that reads wrong exposes it
        table = bulk.connected_table(5)
        corrupted = replace(table, sigma_t=np.full_like(table.sigma_t, -1))
        _, gen_kpartite = bulk.sigma_columns(corrupted)
        want = [is_generalized_complete_kpartite(graph_from_mask(5, int(mask))) for mask in table.masks]
        assert 0 < sum(want) < table.masks.size
        assert gen_kpartite.tolist() == want

    def test_only_orders_up_to_six_are_cached(self):
        bulk._all_graphs.cache_clear()
        bulk.connected_table(8, 9 * RUN8, 9 * RUN8 + (1 << 16))
        bulk.connected_table(7, 0, 1 << 16)
        assert bulk._all_graphs.cache_info().currsize == 7  # orders 0..6
        for k in range(7):
            degrees, free, comps = bulk._all_graphs(k)
            assert (degrees.dtype, free.dtype, comps.dtype) == (np.dtype("<u8"), np.bool_, np.uint8)
            assert degrees.shape == free.shape == (1 << k * (k - 1) // 2,)
            assert comps.shape == (k, degrees.size)
        assert bulk._all_graphs.cache_info().currsize == 7
        cached = sum(array.nbytes for k in range(7) for array in bulk._all_graphs(k))
        assert cached < 1 << 20

    def test_cached_bases_are_read_only(self):
        cached = [array for k in range(7) for array in bulk._all_graphs(k)]
        before = [a.tobytes() for a in cached]
        with pytest.raises(ValueError, match="read-only"):
            row = bulk._all_graphs(6)[2][2]
            row |= 1
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        for lo, hi in chunk_ranges(7):
            bulk.connected_table(7, lo, hi)
        for n, lo, hi in _seeded_ranges():
            bulk.connected_table(n, lo, hi)
        assert [a.tobytes() for a in cached] == before

    @pytest.mark.parametrize("k", range(7))
    def test_cached_bases_match_the_scalar_graphs(self, k):
        # every base mask, disconnected graphs included; the tables check
        # the components only through the connectivity of joined graphs
        degrees, free, comps = bulk._all_graphs(k)
        pairs = pair_order(k)
        packed = degrees.view(np.uint8).reshape(-1, 8)
        for mask in range(degrees.size):
            g = graph_from_mask(k, mask, pairs)
            assert packed[mask].tolist() == [*g.degrees(), *[0] * (8 - k)]
            assert free[mask] == is_triangle_free(g)
            assert comps[:, mask].tolist() == [_component(g, v) for v in range(k)]

    def test_a_whole_order_8_chunk_matches_the_scalar_pass(self):
        # a seeded sweep chunk: 2^16 masks under one neighbourhood of vertex
        # 7, across two neighbourhoods of vertex 6
        lo, hi = chunk_ranges(8)[int(np.random.default_rng(30).integers(2048, 4096))]
        assert lo // RUN8 == (hi - 1) // RUN8 and (lo % RUN7, hi - lo) == (0, 2 * RUN7)
        table = bulk.connected_table(8, lo, hi)
        pairs = pair_order(8)
        graphs = [(mask, g) for mask in range(lo, hi) if is_connected(g := graph_from_mask(8, mask, pairs))]
        assert 0 < len(graphs) < hi - lo
        assert table.masks.tolist() == [mask for mask, _ in graphs]
        assert table.deg.T.tolist() == [list(g.degrees()) for _, g in graphs]
        assert table.triangle_free.tolist() == [is_triangle_free(g) for _, g in graphs]

    def test_order_8_chunk_memory_is_bounded(self):
        # an order-7 table of all 2^21 graphs would take about 46 MB
        bulk.connected_table(8, 0, 1 << 10)  # the cached bases
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = bulk.connected_table(8, 77 * RUN8, 77 * RUN8 + (1 << 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.masks.size > 50_000
        assert peak < 16 << 20

    def test_mask_range_slices(self, monkeypatch):
        full = bulk.connected_table(4)
        monkeypatch.setattr(bulk, "CHUNK_MASKS", 16)
        parts = [bulk.connected_table(4, lo, hi) for lo, hi in chunk_ranges(4)]
        assert np.concatenate([p.masks for p in parts]).tolist() == full.masks.tolist()
        assert np.concatenate([p.sigma_t for p in parts]).tolist() == full.sigma_t.tolist()

    @pytest.mark.parametrize("lo,hi", [(-1, 10), (10, 5), (0, 65), (0, 1000), (64, 65)])
    def test_mask_range_outside_the_space_is_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="mask range"):
            bulk.connected_table(4, lo, hi)

    def test_mask_range_edges_are_accepted(self):
        assert bulk.connected_table(4, 0, 64).masks.size == 38
        assert bulk.connected_table(4, 64, 64).masks.size == 0
        assert bulk.connected_table(4, 5, 5).masks.size == 0

    def test_order_limit_follows_the_mask_width(self):
        assert bulk.connected_table(8, 0, 1 << 10).masks.size == 0
        with pytest.raises(ValueError, match="uint32"):
            bulk.connected_table(9, 0, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            bulk.connected_table(0)

    @pytest.mark.parametrize("width", [16, 7])
    def test_ranges_match_the_whole_table_at_any_chunk_width(self, monkeypatch, width):
        # a range is built in one pass, whatever the sweeps' chunk width
        whole = bulk.connected_table(5)
        calls = []
        build = bulk.connected_table

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(bulk, "CHUNK_MASKS", width)
        monkeypatch.setattr(bulk, "connected_table", counting)
        for lo, hi in ((0, 1 << 10), (100, 901), (5, 5)):
            part = bulk.connected_table(5, lo, hi)
            keep = (whole.masks >= lo) & (whole.masks < hi)
            for field in fields(bulk.MaskTable)[1:]:
                got, want = getattr(part, field.name), getattr(whole, field.name)[..., keep]
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
        # a table is not built from smaller ones through the module's name
        assert len(calls) == 3

    def test_whole_table_memory_is_bounded(self):
        # the n = 7 table is built in one pass straight into its columns, so
        # the peak is the table (14 bytes a row) plus a bool kept flag for
        # each of the 2^21 masks and the temporaries of one run, its kept
        # indices among them
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            table = bulk.connected_table(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(v.nbytes for v in vars(table).values() if hasattr(v, "nbytes"))
        assert table.masks.size == 1_866_256 and size == 26_127_584
        assert peak < 1.5 * size


def _charpoly(eigenvalues) -> tuple[int, ...]:
    return tuple(np.rint(np.poly(eigenvalues)).astype(np.int64).tolist())


@lru_cache(maxsize=None)
def _spectra_reference(n):
    """Every connected mask of order n with its scalar spectra, and the
    integer characteristic polynomials of A and L rebuilt from them, which
    tell the cospectral classes apart independently of the power sums."""
    masks = bulk.connected_table(n).masks
    spectra = [laplacian_spectrum(graph_from_mask(n, int(mask))) for mask in masks]
    return SimpleNamespace(
        masks=masks,
        energy=np.array([s.energy for s in spectra]),
        mu2=np.array([np.nan if s.mu2 is None else s.mu2 for s in spectra]),
        mu_max=np.array([s.mu_max for s in spectra]),
        adj_poly=[_charpoly(s.adjacency_eigenvalues) for s in spectra],
        lap_poly=[_charpoly(s.laplacian_eigenvalues) for s in spectra],
    )


@lru_cache(maxsize=None)
def _copy_count(n):
    """Distinct class keys among the connected masks of order n <= 6, in
    Python: below order 7 a mask's prefix copy is its sorted copy, and its
    class key is the sorted copy of that (:func:`_sorted_copy`)."""
    return len({_sorted_copy(n, _sorted_copy(n, int(mask))) for mask in bulk.connected_table(n).masks})


def _sorted_labels(n, mask):
    """The new label of each vertex in the Python stable sort on (degree,
    neighbour-degree sum): ties stay in vertex order."""
    g = graph_from_mask(n, mask)
    key = [(g.degree(v), sum(map(g.degree, g.neighbors(v)))) for v in range(n)]
    label = [0] * n
    for k, v in enumerate(sorted(range(n), key=key.__getitem__)):
        label[v] = k
    return label


def _sorted_copy(n, mask):
    """The mask with its vertices renumbered by :func:`_sorted_labels`."""
    label = _sorted_labels(n, mask)
    at = {frozenset(pair): e for e, pair in enumerate(pair_order(n))}
    return sum(1 << at[frozenset((label[u], label[v]))] for u, v in graph_from_mask(n, mask).edges())


def _exact_power_sums(n, mask):
    """tr A^k, then tr L^k, for k = 1..n, in Python integers."""
    adj = np.zeros((n, n), dtype=object)
    for u, v in graph_from_mask(n, mask).edges():
        adj[u, v] = adj[v, u] = 1
    lap = np.diag(adj.sum(axis=1)) - adj
    sums = []
    for matrix in (adj, lap):
        power = matrix
        for _ in range(n):
            sums.append(int(np.trace(power)))
            power = power @ matrix
    return sums


def _permuted(n, masks, perm):
    """Each mask with vertex v renamed perm[v]."""
    pairs = pair_order(n)
    at = {frozenset(pair): e for e, pair in enumerate(pairs)}
    out = np.zeros_like(masks)
    for e, (i, j) in enumerate(pairs):
        out |= ((masks >> e) & 1) << at[frozenset((perm[i], perm[j]))]
    return out


def _class_keys(n, masks):
    """The class key of every mask, as a list: its prefix copy relabelled,
    each distinct prefix copy once."""
    prefix = bulk._prefix_copies(n, masks)
    distinct = np.unique(prefix)
    relabelled = dict(zip(distinct.tolist(), bulk._relabelled(n, distinct).tolist()))
    return [relabelled[copy] for copy in prefix.tolist()]


def _keyed_reference(n, masks):
    """batched_spectra with the grouping in a dict: every mask keyed by its
    class key, and the first mask of each class in input order solved by
    laplacian_spectra."""
    keys = _class_keys(n, masks)
    first = {}
    for at, key in enumerate(keys):
        first.setdefault(key, at)
    cls = {key: c for c, key in enumerate(first)}
    inverse = [cls[key] for key in keys]
    spectra = laplacian_spectra([graph_from_mask(n, int(masks[at])) for at in first.values()])
    return tuple(np.array([getattr(s, name) for s in spectra])[inverse]
                 for name in ("energy", "mu2", "mu_max"))


def _spectra_log_counts(message):
    """The order, masks, forms and eigensolves of batched_spectra's debug
    line, after checking that its phase seconds add up to the total."""
    match = re.fullmatch(r"batched spectra at n=(\d+): (\d+) masks, (\d+) forms, (\d+) eigensolves, "
                         r"(\S+) s \(relabel (\S+) s, group (\S+) s, solve (\S+) s\)", message)
    assert match
    total, *phases = map(float, match.groups()[4:])
    assert min(phases) >= 0 and sum(phases) == pytest.approx(total, abs=2e-3)
    return tuple(map(int, match.groups()[:4]))


class TestBatchedSpectra:
    """One eigensolve pair per class of relabelled prefix copies, against
    the scalar spectra."""

    def test_the_last_power_sum_tells_spectra_apart(self):
        # two graphs on 8 vertices with one Laplacian spectrum and equal
        # tr A^k for k < 8: only tr A^8 separates their adjacency spectra
        masks = np.array([6608869, 7815407], dtype=np.uint32)
        first, second = (_exact_power_sums(8, int(mask)) for mask in masks)
        assert first[:7] == second[:7] and first[8:] == second[8:] and first[7] != second[7]
        energy, mu2, mu_max = bulk.batched_spectra(8, masks)
        spectra = [laplacian_spectrum(graph_from_mask(8, int(mask))) for mask in masks]
        assert abs(spectra[0].energy - spectra[1].energy) > 1e-3
        for k, summary in enumerate(spectra):
            assert (energy[k], mu2[k], mu_max[k]) == pytest.approx(
                (summary.energy, summary.mu2, summary.mu_max), abs=1e-9)

    @pytest.mark.parametrize("seed", [1, 7, None])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_scalar_spectra(self, n, seed):
        # the masks in a seeded random order (the table's ascending order
        # for seed None), and that order reversed
        ref = _spectra_reference(n)
        rows = np.arange(ref.masks.size)
        if seed is not None:
            rows = np.random.default_rng(seed).permutation(rows)
        for order in (rows, rows[::-1]):
            energy, mu2, mu_max = bulk.batched_spectra(n, ref.masks[order])
            for got, want in ((energy, ref.energy), (mu2, ref.mu2), (mu_max, ref.mu_max)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want[order], rtol=0, atol=1e-9)

    @staticmethod
    def _count_eigensolves(monkeypatch):
        """Wrap numpy.linalg.eigvalsh: the number of matrices of each call."""
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            solved.append(int(np.prod(a.shape[:-2])))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return solved

    def test_one_eigensolve_pair_per_class_over_the_whole_input(self, monkeypatch):
        masks = bulk.connected_table(6).masks
        solved = self._count_eigensolves(monkeypatch)
        bulk.batched_spectra(6, masks)
        assert solved == [2 * _copy_count(6)] == [2 * 391]

    def test_one_eigensolve_pair_per_class_at_n7(self, monkeypatch, caplog, mask_tables, spectra7):
        # the 1,866,256 connected masks at n = 7 have 27,738 prefix copies
        # in 2,166 classes
        masks = mask_tables[7].masks
        assert np.unique(bulk._prefix_copies(7, masks)).size == 27738
        assert len(set(_class_keys(7, masks))) == 2166
        solved = self._count_eigensolves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="sigmat.bulk"):
            got = bulk.batched_spectra(7, masks)
        assert solved == [2 * 2166]
        [record] = [r for r in caplog.records if r.name == "sigmat.bulk"]
        assert _spectra_log_counts(record.getMessage()) == (7, 1866256, 2166, 4332)
        for values, name in zip(got, ("energy", "mu2", "mu_max")):
            assert np.array_equal(values, spectra7[name])

    def test_whole_input_memory_is_bounded(self, mask_tables):
        # no chunk loop caps the transients: the prefix copies, their sort
        # and the inverse index must stay near the results' size
        masks = mask_tables[7].masks
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            results = bulk.batched_spectra(7, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(values.nbytes for values in results)
        assert size == 3 * 8 * 1_866_256
        assert peak < 2.5 * size

    def test_both_spectra_enter_the_key(self):
        # at n = 6 some graphs share the adjacency spectrum but not the
        # Laplacian one, and others the reverse: a key of either matrix alone
        # merges classes whose values differ
        ref = _spectra_reference(6)
        assert len(set(ref.adj_poly)) == 111
        assert len(set(ref.lap_poly)) == 110
        assert len(set(zip(ref.adj_poly, ref.lap_poly))) == 112

        def merged(shared, other):
            others = defaultdict(set)
            for s, o in zip(shared, other):
                others[s].add(o)
            return np.array([k for k, s in enumerate(shared) if len(others[s]) > 1])

        by_adj = merged(ref.adj_poly, ref.lap_poly)
        by_lap = merged(ref.lap_poly, ref.adj_poly)
        assert (by_adj.size, by_lap.size) == (270, 720)
        assert np.ptp(ref.mu2[by_adj]) > 0.4 and np.ptp(ref.mu_max[by_adj]) > 1
        assert np.ptp(ref.energy[by_lap]) > 1
        energy, mu2, mu_max = bulk.batched_spectra(6, ref.masks)
        for rows in (by_adj, by_lap):
            for got, want in ((energy, ref.energy), (mu2, ref.mu2), (mu_max, ref.mu_max)):
                np.testing.assert_allclose(got[rows], want[rows], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_relabelled_copies_are_vertex_permutations(self, n):
        # and so are the prefix copies, table lookups below n = 7
        masks = np.arange(1 << n * (n - 1) // 2, dtype=np.uint32)
        copies = np.stack([bulk._relabelled(n, masks), bulk._prefix_copies(n, masks)])
        assert copies.dtype == np.uint32 and copies.shape == (2, masks.size)
        found = np.zeros(copies.shape, dtype=bool)
        for perm in permutations(range(n)):
            found |= _permuted(n, masks, perm) == copies
        assert found.all()

    def test_relabelled_copies_keep_the_power_sums(self):
        # dense masks at n = 8 and K8, where every vertex has degree 7 and
        # neighbour-degree sum 49, the largest sort key
        rng = np.random.default_rng(11)
        dense = np.bitwise_or.reduce(rng.integers(0, 1 << 28, (3, 48)))
        masks = np.concatenate([[(1 << 28) - 1], dense]).astype(np.uint32)
        copies = bulk._relabelled(8, masks)
        assert copies[0] == masks[0]
        assert (copies != masks).any()
        for mask, copy in zip(masks, copies):
            assert _exact_power_sums(8, int(copy)) == _exact_power_sums(8, int(mask))

    def test_relabelled_copies_sort_by_degree_then_neighbour_degrees(self):
        masks = bulk.connected_table(6).masks
        copies = bulk._relabelled(6, masks)
        assert np.unique(copies).size < masks.size
        for mask, copy in zip(masks[::97], copies[::97]):
            assert copy == _sorted_copy(6, int(mask))

    def test_prefix_copies_at_order_6_are_the_relabelled_copies(self):
        masks = np.arange(1 << 15, dtype=np.uint32)
        assert np.array_equal(bulk._prefix_copies(6, masks), bulk._relabelled(6, masks))
        assert bulk._prefix_copies(6, masks[::-1].astype(np.int64)).tolist() == \
            bulk._relabelled(6, masks[::-1]).tolist()

    @pytest.mark.parametrize("n", [7, 8])
    def test_prefix_copies_rename_the_order_6_prefix(self, n):
        # vertices 0..5 renamed by the sort of the graph they induce,
        # vertices 6 and 7 kept
        nedges = n * (n - 1) // 2
        masks = np.random.default_rng(n).integers(0, 1 << nedges, 3000, dtype=np.uint32)
        masks[:2] = 0, (1 << nedges) - 1
        if n == 8:
            edge67 = masks >> 27 & 1
            assert 0 < edge67.sum() < masks.size
        copies = bulk._prefix_copies(n, masks)
        assert copies.dtype == np.uint32 and copies.shape == masks.shape
        for mask, copy in zip(masks.tolist(), copies.tolist()):
            perm = _sorted_labels(6, mask & 0x7FFF) + [6, 7][:n - 6]
            assert _permuted(n, np.array([mask], dtype=np.uint32), perm)[0] == copy
        for mask, copy in zip(masks[:200].tolist(), copies[:200].tolist()):
            assert _exact_power_sums(n, copy) == _exact_power_sums(n, mask)

    @pytest.mark.parametrize("dtype,high", [(np.uint32, 1 << 32), (np.uint32, 40),
                                            (np.uint16, 1 << 16), (np.uint8, 3)])
    def test_one_row_keys_group_as_the_stable_lexsort(self, dtype, high):
        rng = np.random.default_rng(high)
        for size in (0, 1, 2, 1000):
            key = rng.integers(0, high, size, dtype=np.uint64).astype(dtype)
            self._assert_grouped_as_lexsort(key)

    def test_relabelled_copies_group_as_the_stable_lexsort(self, mask_tables):
        # batched_spectra groups the prefix copies of the whole input at once
        self._assert_grouped_as_lexsort(bulk._prefix_copies(7, mask_tables[7].masks))

    @staticmethod
    def _assert_grouped_as_lexsort(key):
        first, inverse = bulk._classes(key)
        order = np.lexsort(key[None])  # the stable sort the packed sort stands in for
        ordered = key[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = ordered[1:] != ordered[:-1]
        assert first.tolist() == order[new].tolist()
        assert inverse[order].tolist() == (np.cumsum(new) - 1).tolist()
        values = key.tolist()
        firsts = {}
        for at, value in enumerate(values):
            firsts.setdefault(value, at)
        distinct = sorted(firsts)
        cls = {value: c for c, value in enumerate(distinct)}
        assert first.tolist() == [firsts[v] for v in distinct]
        assert inverse.tolist() == [cls[v] for v in values]

    def test_bitwise_identical_to_keying_every_mask(self):
        # the first original mask of each copy in input order is solved, not
        # the copy, whatever the order
        table = bulk.connected_table(6).masks
        rows = np.arange(table.size)
        for order in (rows, rows[::-1], np.random.default_rng(6).permutation(rows)):
            masks = table[order]
            for got, want in zip(bulk.batched_spectra(6, masks), _keyed_reference(6, masks)):
                assert np.array_equal(got, want)

    def test_bitwise_identical_to_keying_every_mask_at_n7(self, mask_tables):
        # at n = 7 a class holds several prefix copies, and the first mask of
        # the class in input order is solved, not that of its first copy
        masks = np.random.default_rng(7).permutation(mask_tables[7].masks)[:200_000]
        for got, want in zip(bulk.batched_spectra(7, masks), _keyed_reference(7, masks)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,match", [(0, "n >= 1"), (-2, "n >= 1"), (9, "uint32")])
    def test_order_outside_the_mask_width_is_rejected(self, n, match):
        with pytest.raises(ValueError, match=match):
            bulk.batched_spectra(n, np.zeros(1, dtype=np.uint32))

    @pytest.mark.parametrize("bad,dtype", [(64, np.uint32), (1 << 31, np.uint32), (64, np.int64),
                                           (-1, np.int64), (1 << 40, np.uint64)])
    def test_bits_at_or_above_the_edge_count_are_rejected(self, bad, dtype):
        with pytest.raises(ValueError, match=r"not within \[0, 64\) at n=4"):
            bulk.batched_spectra(4, np.array([3, bad, 5], dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_non_integer_masks_are_rejected(self, dtype):
        with pytest.raises(ValueError, match="integer dtype"):
            bulk.batched_spectra(4, np.array([3, 5], dtype=dtype))

    def test_masks_within_the_space_are_accepted(self):
        wide = bulk.batched_spectra(4, np.array([63, 0, 11], dtype=np.int64))
        narrow = bulk.batched_spectra(4, np.array([63, 0, 11], dtype=np.uint8))
        for a, b in zip(wide, narrow):
            assert a.tolist() == b.tolist()
        energy, _, mu_max = wide
        assert (energy[0], energy[1], mu_max[0]) == pytest.approx((6.0, 0.0, 4.0))
        assert all(x.size == 0 for x in bulk.batched_spectra(4, np.array([], dtype=np.uint32)))

    def test_logs_one_debug_line(self, caplog, capsys):
        ref = _spectra_reference(4)
        with caplog.at_level(logging.DEBUG, logger="sigmat.bulk"):
            bulk.batched_spectra(4, ref.masks)
        records = [r for r in caplog.records if r.name == "sigmat.bulk"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        assert _copy_count(4) == 9
        assert _spectra_log_counts(records[0].getMessage()) == (4, 38, 9, 18)
        assert capsys.readouterr().out == ""
