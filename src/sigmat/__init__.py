"""Degree-based graph irregularity indices, their extremal families and
bounds, and exhaustive small-order verification tools.

Importing the package loads none of its modules: each name below is
imported from its module on first access (PEP 562), so a command pays only
for the modules it runs.
"""

import os
from importlib import import_module

# numpy's OpenBLAS thread pool only slows start-up: every eigensolve here is
# small. sigmat imports numpy only where it builds arrays, after this line has
# run, so the default holds for those later imports too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# every exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("graph", "DegreeStats Graph Graph6Error degree_stats encode_graph6 ingest_graph6 "
                  "is_bipartite is_complete_bipartite is_connected is_regular is_triangle_free "
                  "parse_graph6"),
        ("invariants", "InvariantReport albertson_irr degree_variance forgotten_f full_report "
                       "sigma sigma_t sigma_t_pairsum zagreb_m1 zagreb_m2"),
        ("spectral", "SpectralSummary laplacian_spectra laplacian_spectrum rayleigh_ratio "
                     "rayleigh_ratios"),
        ("extremal", "BipartiteMax MaxSplit SplitCriticalPoint is_generalized_complete_kpartite "
                     "make_complete_bipartite make_generalized_kpartite make_path make_split "
                     "make_star max_bipartite_split max_split_sigma_t sigma_t_bipartite_formula "
                     "sigma_t_split_formula split_critical_point"),
        ("bounds", "BoundCheck PreconditionError check_all"),
        ("oracle", "ConjectureReport IdentitySummary LimitError SearchResult "
                   "enumerate_connected_graphs random_graphs search_connected search_extremal "
                   "verify_conjecture1 verify_identity_suite"),
        ("trees", "TreeSweep search_trees tree_sweep verify_conjecture2"),
    )
    for name in names.split()
}
_MODULES = frozenset(_EXPORTS.values()) | {"bulk", "cli"}

__all__ = tuple(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
