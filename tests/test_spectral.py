"""Spectra against closed forms, trace identities, a separately built
reference, and the Rayleigh ratio."""

import json
import math
import random
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given

from sigmat.cli import canonical_json
from sigmat.graph import Graph, encode_graph6, is_connected, pair_order, parse_graph6
from sigmat.invariants import sigma, sigma_t
from sigmat.spectral import (
    SpectralSummary,
    laplacian_spectra,
    laplacian_spectrum,
    rayleigh_ratio,
    rayleigh_ratios,
    spectra_by_order,
    spectral_matrices,
    spectral_tolerance,
    spectrum_values,
)
from tests.test_graph import complete, graphs, labelled_graphs, path, seeded_graphs, star


def test_star4_laplacian_closed_form():
    s = laplacian_spectrum(star(4))
    assert np.allclose(s.laplacian_eigenvalues, [0.0, 1.0, 1.0, 4.0], atol=1e-9)
    assert s.mu2 == pytest.approx(1.0)
    assert s.mu_max == pytest.approx(4.0)


def test_path4_laplacian_closed_form():
    # 2 - 2cos(k*pi/4) for k = 0..3
    expected = sorted(2 - 2 * math.cos(k * math.pi / 4) for k in range(4))
    s = laplacian_spectrum(path(4))
    assert np.allclose(s.laplacian_eigenvalues, expected, atol=1e-9)
    assert s.mu2 == pytest.approx(2 - math.sqrt(2))
    assert s.mu_max == pytest.approx(2 + math.sqrt(2))


def test_complete4_laplacian():
    s = laplacian_spectrum(complete(4))
    assert np.allclose(s.laplacian_eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-9)


def test_star4_energy():
    assert laplacian_spectrum(star(4)).energy == pytest.approx(2 * math.sqrt(3), abs=1e-9)


def test_path4_energy():
    energy = laplacian_spectrum(path(4)).energy
    assert energy == pytest.approx(2 * math.sqrt(5), abs=1e-9)
    assert energy == pytest.approx(4.4721, abs=1e-4)


def test_empty_graph_energy():
    assert laplacian_spectrum(Graph(3)).energy == 0.0


def test_single_vertex():
    s = laplacian_spectrum(Graph(1))
    assert s.laplacian_eigenvalues == (0.0,)
    assert s.mu2 is None
    assert s.energy == 0.0


def test_matrices():
    stack = spectral_matrices([path(3)])
    assert stack.shape == (1, 2, 3, 3) and stack.dtype == np.float64
    lap, a = stack[0]
    assert np.array_equal(a, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert np.array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def reference_matrices(g):
    """A by an edge loop and L = diag(rowsum) - A, built apart from
    :func:`spectral_matrices`."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return np.diag(a.sum(1)) - a, a


def reference_spectrum(lap_matrix, adj_matrix):
    """Both spectra from two separate eigensolves."""
    lap = np.linalg.eigvalsh(lap_matrix)
    adj = np.linalg.eigvalsh(adj_matrix)
    return SpectralSummary(
        laplacian_eigenvalues=tuple(float(x) for x in lap),
        adjacency_eigenvalues=tuple(float(x) for x in adj),
        energy=float(np.abs(adj).sum()),
        mu2=float(lap[1]) if len(lap) >= 2 else None,
        mu_max=float(lap[-1]),
    )


def assert_matches_the_reference(g):
    """Matrices and spectra equal the reference bit for bit, and no zero
    entry, the off-diagonal Laplacian ones included, is -0.0."""
    stack = spectral_matrices([g])
    lap_matrix, adj_matrix = reference_matrices(g)
    assert stack.tobytes() == lap_matrix.tobytes() + adj_matrix.tobytes()
    assert np.array_equal(np.signbit(stack), stack < 0)
    assert laplacian_spectrum(g) == reference_spectrum(lap_matrix, adj_matrix)


def test_every_labelled_graph_up_to_n6_matches_the_reference():
    for g in labelled_graphs(6):
        assert_matches_the_reference(g)


def test_seeded_random_graphs_match_the_reference():
    for g in seeded_graphs(random.Random(20240613), range(7, 31), 500):
        assert_matches_the_reference(g)


def long_form_graph():
    rng = random.Random(70)
    record = encode_graph6(Graph(70, [(u, v) for u, v in pair_order(70) if rng.random() < 0.3]))
    assert record.startswith("~")
    return parse_graph6(record)


def test_long_form_graph_matches_the_reference():
    assert_matches_the_reference(long_form_graph())


def summary_bits(s):
    """Every float of a summary in hex, so that -0.0 and 0.0 differ."""
    return [x.hex() if isinstance(x, float) else x if x is None else [v.hex() for v in x]
            for x in astuple(s)]


def test_stacked_solves_equal_the_one_graph_solves_bit_for_bit():
    # K1, edgeless graphs, the long-form record and the seeded n = 7..30 draws
    graphs = [Graph(1), Graph(1), Graph(4), Graph(9), long_form_graph(), path(4), complete(7)]
    graphs += seeded_graphs(random.Random(20240613), range(7, 31), 500)
    random.Random(20261019).shuffle(graphs)
    spectra = laplacian_spectra(graphs)
    assert len(spectra) == len(graphs)
    for g, s in zip(graphs, spectra):
        assert summary_bits(s) == summary_bits(laplacian_spectrum(g))
        assert s == reference_spectrum(*reference_matrices(g))


def assert_arrays_equal_the_records(graphs):
    """spectra_by_order's eigenvalues, and the energy, mu2 and mu_max that
    spectrum_values reads from them, equal each graph's laplacian_spectrum
    bit for bit; mu2 is NaN at n = 1."""
    solved = spectra_by_order(graphs)
    assert sorted(k for members, _ in solved for k in members) == list(range(len(graphs)))
    firsts = [members[0] for members, _ in solved]
    assert firsts == sorted(firsts) and len({graphs[k].n for k in firsts}) == len(solved)
    for members, values in solved:
        n = graphs[members[0]].n
        assert values.shape == (len(members), 2, n) and values.dtype == np.float64
        columns = spectrum_values(values)
        assert all(column.shape == (len(members),) and column.dtype == np.float64 for column in columns)
        for row, k in enumerate(members):
            s = laplacian_spectrum(graphs[k])
            assert graphs[k].n == n
            assert [x.hex() for x in values[row].ravel().tolist()] == \
                [x.hex() for x in s.laplacian_eigenvalues + s.adjacency_eigenvalues]
            energy, mu2, mu_max = (float(column[row]) for column in columns)
            assert (energy.hex(), mu_max.hex()) == (s.energy.hex(), s.mu_max.hex())
            assert mu2.hex() == s.mu2.hex() if n >= 2 else math.isnan(mu2) and s.mu2 is None


def test_every_labelled_graph_up_to_n6_has_the_arrays_of_its_records():
    assert_arrays_equal_the_records(list(labelled_graphs(6)))


def test_seeded_stream_has_the_arrays_of_its_records():
    graphs = [Graph(1), Graph(1), Graph(4), long_form_graph(), path(4), complete(7)]
    graphs += seeded_graphs(random.Random(20261022), range(1, 31), 500)
    random.Random(34).shuffle(graphs)
    assert_arrays_equal_the_records(graphs)


def test_spectra_of_no_graphs():
    assert laplacian_spectra([]) == []
    assert spectra_by_order([]) == []


def test_matrix_stack_of_several_graphs():
    graphs = [path(4), star(4), Graph(4)]
    stack = spectral_matrices(graphs)
    assert stack.shape == (3, 2, 4, 4)
    assert stack.tobytes() == b"".join(spectral_matrices([g]).tobytes() for g in graphs)


@pytest.mark.parametrize("graphs, message", [([], "no graphs"), ([path(3), path(4)], "more than one order")])
def test_matrix_stack_needs_graphs_of_one_order(graphs, message):
    with pytest.raises(ValueError, match=message):
        spectral_matrices(graphs)


def test_spectrum_memory_stays_near_the_stack():
    # the (1, 2, n, n) float64 stack is 2 x 8n^2 bytes and the uint8 bit matrix
    # n^2 more; one more n x n float64 temporary would reach 3 x 8n^2
    n = 1500
    rng = random.Random(1500)
    g = parse_graph6(encode_graph6(Graph(n, [(u, v) for u, v in pair_order(n) if rng.random() < 0.01])))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        laplacian_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3 * 8 * n * n


@given(graphs(max_n=9))
def test_trace_identities(g):
    s = laplacian_spectrum(g)
    tol = spectral_tolerance(g)
    assert abs(sum(s.laplacian_eigenvalues) - 2 * g.m) <= tol
    assert abs(sum(s.adjacency_eigenvalues)) <= tol
    assert abs(sum(x * x for x in s.adjacency_eigenvalues) - 2 * g.m) <= tol
    assert s.laplacian_eigenvalues[0] >= -tol
    assert abs(s.laplacian_eigenvalues[0]) <= tol
    if g.n >= 2 and is_connected(g):
        assert s.mu2 > tol
    assert s.energy <= math.sqrt(2 * g.m * g.n) + tol


def test_rayleigh_path4_degree_vector():
    g = path(4)
    ratio = rayleigh_ratio(g, (1, 2, 2, 1))
    assert ratio == pytest.approx(2.0, abs=1e-12)
    assert 2 - math.sqrt(2) <= ratio <= 2 + math.sqrt(2)


def test_rayleigh_k2_indicator():
    ratio = rayleigh_ratio(path(2), (1.0, 0.0))
    assert ratio == pytest.approx(2.0, abs=1e-12)


def test_rayleigh_star4_hits_top():
    assert rayleigh_ratio(star(4), (3, 1, 1, 1)) == pytest.approx(4.0, abs=1e-12)


def test_rayleigh_rejects_constant_vector():
    with pytest.raises(ValueError, match="constant"):
        rayleigh_ratio(path(4), (2.0, 2.0, 2.0, 2.0))


def test_rayleigh_rejects_bad_length():
    with pytest.raises(ValueError, match="length"):
        rayleigh_ratio(path(4), (1.0, 2.0))


def test_rayleigh_degree_vector_relates_sigma_indices():
    # with x = degrees, numerator is sigma and denominator sigma_t
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    ratio = rayleigh_ratio(g, g.degrees())
    assert ratio == pytest.approx(g.n * sigma(g) / sigma_t(g), abs=1e-12)


@given(graphs(max_n=8))
def test_batched_rayleigh_matches_the_scalar_form(g):
    if g.n < 2:
        return
    rng = random.Random(g.n * 7919 + g.m)
    xs = [[rng.uniform(-1.0, 1.0) for _ in range(g.n)] for _ in range(6)]
    xs.append(list(g.degrees()) if max(g.degrees()) > min(g.degrees()) else [0.0] * (g.n - 1) + [1.0])
    ratios = rayleigh_ratios(g, np.array(xs))
    assert ratios.shape == (len(xs),)
    for x, ratio in zip(xs, ratios):
        assert ratio == pytest.approx(rayleigh_ratio(g, x), rel=1e-12, abs=1e-12)


def test_batched_rayleigh_rejects_bad_batches():
    with pytest.raises(ValueError, match="constant"):
        rayleigh_ratios(path(4), [[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]])
    for bad in ([1.0, 2.0, 3.0, 4.0], [[1.0, 2.0]], np.zeros((2, 4, 1))):
        with pytest.raises(ValueError, match="array"):
            rayleigh_ratios(path(4), bad)
    assert rayleigh_ratios(path(4), np.empty((0, 4))).shape == (0,)


@given(graphs(max_n=8))
def test_rayleigh_brackets_for_connected(g):
    if not is_connected(g) or g.n < 2:
        return
    s = laplacian_spectrum(g)
    tol = spectral_tolerance(g)
    rng = random.Random(g.n * 1009 + g.m)
    for _ in range(5):
        x = [rng.uniform(-1.0, 1.0) for _ in range(g.n)]
        if max(x) == min(x):
            continue
        ratio = rayleigh_ratio(g, x)
        assert s.mu2 - tol <= ratio <= s.mu_max + tol


def test_json_rounding():
    d = json.loads(canonical_json(laplacian_spectrum(path(4))))
    assert d["muN"] == float(f"{2 + math.sqrt(2):.12g}")
    assert len(d["laplacianEigenvalues"]) == 4
    assert d["energy"] == float(f"{2 * math.sqrt(5):.12g}")
