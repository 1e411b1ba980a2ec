"""Degree-based graph irregularity indices, their extremal families and
bounds, and exhaustive small-order verification tools."""

import os

# numpy's OpenBLAS thread pool only slows start-up: every eigensolve here is
# small. sigmat imports numpy only where it builds arrays, after this line has
# run, so the default holds for those later imports too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .graph import (
    DegreeStats,
    Graph,
    Graph6Error,
    degree_stats,
    encode_graph6,
    is_bipartite,
    is_complete_bipartite,
    is_connected,
    is_regular,
    is_triangle_free,
    parse_graph6,
)
from .invariants import (
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
from .spectral import SpectralSummary, laplacian_spectra, laplacian_spectrum, rayleigh_ratio, rayleigh_ratios
from .extremal import (
    BipartiteMax,
    MaxSplit,
    SplitCriticalPoint,
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
from .bounds import BoundCheck, PreconditionError, check_all
from .oracle import (
    ConjectureReport,
    IdentitySummary,
    LimitError,
    SearchResult,
    TreeSweep,
    enumerate_connected_graphs,
    enumerate_trees,
    ingest_graph6,
    random_graphs,
    search_connected,
    search_extremal,
    search_trees,
    tree_sweep,
    verify_conjecture1,
    verify_conjecture2,
    verify_identity_suite,
)

__version__ = "0.1.0"
