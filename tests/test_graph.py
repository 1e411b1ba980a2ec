"""Graph type, graph6 codec, degree stats, and structural predicates."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sigmat.graph import (
    Graph,
    Graph6Error,
    degree_stats,
    encode_graph6,
    find_triangle,
    graph_from_mask,
    is_bipartite,
    is_complete_bipartite,
    is_connected,
    is_path_graph,
    is_regular,
    is_star_graph,
    is_tree,
    is_triangle_free,
    pair_order,
    parse_graph6,
    _read_header,
    two_coloring,
)


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def star(n):
    return Graph(n, [(0, v) for v in range(1, n)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    nbits = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << nbits) - 1))
    pairs = pair_order(n)
    return Graph(n, [pairs[e] for e in range(nbits) if mask >> e & 1])


def labelled_graphs(max_n):
    """Every labelled graph on 1..max_n vertices: K1, the edgeless and the
    disconnected graphs included."""
    for n in range(1, max_n + 1):
        pairs = pair_order(n)
        for mask in range(1 << len(pairs)):
            yield graph_from_mask(n, mask, pairs)


def seeded_record(rng, n):
    """A graph6 record of order n with random payload bits and zero padding."""
    nbits = n * (n - 1) // 2
    groups = [rng.getrandbits(6) for _ in range(-(-nbits // 6))]
    if groups:
        pad = -nbits % 6
        groups[-1] &= 63 >> pad << pad
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    return header + "".join(chr(b + 63) for b in groups)


def pair_list_decode(text):
    """The payload decoder that looked each set bit up in the whole
    ``pair_order(n)`` list, with the same checks and byte offsets."""
    data = text.encode("ascii")
    n, start = _read_header(data)
    nbits = n * (n - 1) // 2
    pairs = pair_order(n)
    masks = [0] * n
    bit = 0
    for k in range(start, len(data)):
        byte = data[k]
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid payload byte {byte}", offset=k)
        for t in range(6):
            if (byte - 63) >> (5 - t) & 1:
                if bit >= nbits:
                    raise Graph6Error("nonzero padding bits", offset=k)
                i, j = pairs[bit]
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            bit += 1
    return Graph.from_masks(n, tuple(masks))


def seeded_graphs(rng, orders, count):
    """``count`` graphs drawn from ``rng``, each with an order from
    ``orders`` and its own edge density."""
    for _ in range(count):
        n = rng.choice(orders)
        p = rng.random()
        yield Graph(n, [pair for pair in pair_order(n) if rng.random() < p])


class TestGraphType:
    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0)
        with pytest.raises(ValueError):
            Graph(-3)

    def test_rejects_loops_and_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_adjacency_is_symmetric_and_deduplicated(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert list(g.edges()) == [(0, 1)]

    def test_equality_and_hash(self):
        assert path(4) == Graph(4, [(2, 3), (1, 2), (0, 1)])
        assert path(4) != path(5)
        assert len({path(4), Graph(4, [(0, 1), (1, 2), (2, 3)])}) == 1

    def test_neighbors_sorted(self):
        g = Graph(5, [(2, 4), (2, 0), (2, 3)])
        assert list(g.neighbors(2)) == [0, 3, 4]

    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.m


class TestGraph6:
    def test_parse_standard_5_vertex_record(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        # a star centered at the last vertex
        assert sorted(g.degrees()) == [1, 1, 1, 1, 4]
        assert g.degree(4) == 4
        assert encode_graph6(g) == "D?{"

    def test_parse_complete_graph(self):
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6
        assert g == complete(4)

    def test_parse_empty_graph(self):
        g = parse_graph6("B?")
        assert g.n == 3 and g.m == 0

    def test_encode_single_vertex(self):
        assert encode_graph6(Graph(1)) == "@"

    def test_encode_k4(self):
        assert encode_graph6(complete(4)) == "C~"

    def test_path4_round_trip(self):
        text = encode_graph6(path(4))
        assert parse_graph6(text) == path(4)

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<C~") == complete(4)

    def test_encode_rejects_large_order(self):
        with pytest.raises(Graph6Error, match="n <= 258047"):
            encode_graph6(Graph(258048))

    def test_parse_rejects_empty(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_parse_rejects_bad_header(self):
        with pytest.raises(Graph6Error) as info:
            parse_graph6("\x3e")  # byte 62, below the offset range
        assert info.value.offset == 0

    def test_parse_rejects_long_form(self):
        with pytest.raises(Graph6Error, match="long-form"):
            parse_graph6("~??")  # truncated header

    @pytest.mark.parametrize("n", [63, 100, 200])
    def test_long_form_round_trip(self, n):
        rng = random.Random(n)
        pairs = pair_order(n)
        g = Graph(n, [p for p in pairs if rng.random() < 0.3])
        text = encode_graph6(g)
        assert text[0] == "~" and len(text) == 4 + (len(pairs) + 5) // 6
        assert parse_graph6(text) == g
        assert parse_graph6(encode_graph6(star(n))) == star(n)

    def test_long_form_header_decodes_the_order(self):
        # '?' '?' '~' are the 6-bit groups 0, 0, 63, so n = 63
        assert parse_graph6("~??~" + "?" * (63 * 62 // 2 // 6 + 1)).n == 63
        assert encode_graph6(Graph(63)).startswith("~??~")
        assert encode_graph6(Graph(62))[0] == "}"

    @pytest.mark.parametrize("text,offset", [("~", 1), ("~?", 2), ("~??", 3)])
    def test_parse_rejects_truncated_long_header(self, text, offset):
        with pytest.raises(Graph6Error, match="truncated long-form header") as info:
            parse_graph6(text)
        assert info.value.offset == offset

    @pytest.mark.parametrize("text", ["~~", "~~??????", "~~???~??" + "?" * 100])
    def test_parse_rejects_the_8_byte_header(self, text):
        with pytest.raises(Graph6Error, match="8-byte long-form header"):
            parse_graph6(text)

    def test_parse_checks_the_long_form_payload(self):
        with pytest.raises(Graph6Error, match="expected 326 payload bytes for n=63, got 0"):
            parse_graph6("~??~")
        with pytest.raises(Graph6Error, match="invalid header byte 32") as info:
            parse_graph6("~? ~")
        assert info.value.offset == 2

    def test_parse_rejects_length_mismatch(self):
        with pytest.raises(Graph6Error, match="payload"):
            parse_graph6("C~~")
        with pytest.raises(Graph6Error, match="payload"):
            parse_graph6("D~")

    def test_parse_rejects_nonzero_padding(self):
        # n=3 uses 3 bits; '@' = 0b000001 sets a pad bit
        with pytest.raises(Graph6Error, match="padding") as info:
            parse_graph6("B@")
        assert info.value.offset == 1

    def test_parse_rejects_zero_order(self):
        with pytest.raises(Graph6Error, match="at least 1"):
            parse_graph6("??")

    def test_exhaustive_round_trip_n4(self):
        pairs = pair_order(4)
        for mask in range(64):
            g = Graph(4, [pairs[e] for e in range(6) if mask >> e & 1])
            assert parse_graph6(encode_graph6(g)) == g

    @given(graphs(max_n=20))
    def test_round_trip(self, g):
        assert parse_graph6(encode_graph6(g)) == g

    def test_encoder_round_trips_every_graph_up_to_n5(self):
        for n in range(1, 6):
            pairs = pair_order(n)
            for mask in range(1 << len(pairs)):
                g = Graph(n, [p for e, p in enumerate(pairs) if mask >> e & 1])
                assert parse_graph6(encode_graph6(g)) == g

    @pytest.mark.parametrize("n", [62, 63, 64, 4096])
    def test_encoder_round_trips_seeded_records(self, n):
        # a seeded random record with zero padding, decoded by the parser
        text = seeded_record(random.Random(n), n)
        assert encode_graph6(parse_graph6(text)) == text

    def test_parser_matches_the_pair_list_decoder(self):
        def outcome(decode, text):
            try:
                return decode(text)
            except Graph6Error as exc:
                return exc.reason, exc.offset

        rng = random.Random(70)
        for n in range(1, 71):
            text = seeded_record(rng, n)
            assert parse_graph6(text) == pair_list_decode(text)
            # one payload byte replaced: a bad byte, set padding bits, or another
            # graph; the last byte holds the padding
            payload = range(1 if n <= 62 else 4, len(text))
            for k in {*rng.sample(payload, min(8, len(payload))), *payload[-1:]}:
                bad = text[:k] + chr(rng.randrange(33, 127)) + text[k + 1:]
                assert outcome(parse_graph6, bad) == outcome(pair_list_decode, bad)

    def test_parser_memory_stays_below_n_squared_bytes(self):
        # the graph is n bitmasks of n bits: no per-pair list of the order
        n = 1500
        rng = random.Random(n)
        g = Graph(n, [pair for pair in pair_order(n) if rng.random() < 0.01])
        text = encode_graph6(g)
        tracemalloc.start()
        try:
            parsed = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n
        assert parsed == g


class TestDegreeStats:
    def test_path4(self):
        s = degree_stats(path(4))
        assert s.degrees == (2, 2, 1, 1)
        assert (s.n, s.m, s.max_degree, s.min_degree) == (4, 3, 2, 1)
        assert s.max_degree_count == 2
        assert s.mean_degree == Fraction(3, 2)

    def test_star5(self):
        s = degree_stats(star(5))
        assert s.degrees == (4, 1, 1, 1, 1)
        assert s.m == 4 and s.max_degree_count == 1

    def test_complete5(self):
        s = degree_stats(complete(5))
        assert s.degrees == (4,) * 5
        assert s.max_degree == s.min_degree == 4
        assert s.max_degree_count == 5

    def test_single_vertex(self):
        s = degree_stats(Graph(1))
        assert s.degrees == (0,) and s.m == 0 and s.mean_degree == 0

    @given(graphs())
    def test_stats_consistent(self, g):
        s = degree_stats(g)
        assert list(s.degrees) == sorted(g.degrees(), reverse=True)
        assert s.min_degree <= s.mean_degree <= s.max_degree
        assert sum(s.degrees) == 2 * s.m
        assert 1 <= s.max_degree_count <= s.n


class TestPredicates:
    def test_connectivity(self):
        assert is_connected(path(4))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph(1))

    def test_cycle5(self):
        g = cycle(5)
        assert is_regular(g)
        assert is_triangle_free(g)
        assert not is_bipartite(g)

    def test_complete_bipartite_23(self):
        g = complete_bipartite(2, 3)
        assert is_complete_bipartite(g)
        assert is_triangle_free(g)
        assert is_bipartite(g)

    def test_complete4(self):
        g = complete(4)
        assert not is_triangle_free(g)
        assert is_regular(g)
        assert find_triangle(g) is not None

    def test_find_triangle_names_a_clique(self):
        g = Graph(5, [(0, 2), (2, 4), (0, 4), (1, 3)])
        tri = find_triangle(g)
        assert tri is not None
        u, v, w = tri
        assert g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)

    def test_two_disjoint_edges_not_complete_bipartite(self):
        assert not is_complete_bipartite(Graph(4, [(0, 1), (2, 3)]))

    def test_edgeless_graphs_are_complete_bipartite(self):
        # one side may be empty, so K_1 and empty graphs qualify
        assert is_complete_bipartite(Graph(1))
        assert is_complete_bipartite(Graph(3))

    def test_p4_not_complete_bipartite(self):
        assert is_bipartite(path(4))
        assert not is_complete_bipartite(path(4))

    def test_two_coloring(self):
        colors = two_coloring(path(4))
        assert colors == (0, 1, 0, 1)
        assert two_coloring(cycle(5)) is None

    def test_tree_path_star(self):
        assert is_tree(path(5)) and is_path_graph(path(5)) and not is_star_graph(path(5))
        assert is_tree(star(5)) and is_star_graph(star(5)) and not is_path_graph(star(5))
        assert not is_tree(cycle(4))
        # K_2 counts as both
        assert is_path_graph(path(2)) and is_star_graph(path(2))
        spider = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        assert is_tree(spider)
        assert not is_path_graph(spider) and not is_star_graph(spider)

    @given(graphs(max_n=8))
    def test_complete_bipartite_implies_bipartite_triangle_free(self, g):
        if is_complete_bipartite(g):
            assert is_bipartite(g)
            assert is_triangle_free(g)
