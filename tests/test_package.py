"""The package namespace: every exported name resolves on first access to
the object its module defines, and nothing else is exported."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import sigmat

# the names the package exported when it imported every module eagerly
EXPORTS = (
    "BipartiteMax", "BoundCheck", "ConjectureReport", "DegreeStats", "Graph", "Graph6Error",
    "IdentitySummary", "InvariantReport", "LimitError", "MaxSplit", "PreconditionError",
    "SearchResult", "SpectralSummary", "SplitCriticalPoint", "TreeSweep", "albertson_irr",
    "check_all", "degree_stats", "degree_variance", "encode_graph6", "enumerate_connected_graphs",
    "forgotten_f", "full_report", "ingest_graph6", "is_bipartite",
    "is_complete_bipartite", "is_connected", "is_generalized_complete_kpartite", "is_regular",
    "is_triangle_free", "laplacian_spectra", "laplacian_spectrum", "make_complete_bipartite",
    "make_generalized_kpartite", "make_path", "make_split", "make_star", "max_bipartite_split",
    "max_split_sigma_t", "parse_graph6", "random_graphs", "rayleigh_ratio", "rayleigh_ratios",
    "search_connected", "search_extremal", "search_trees", "sigma", "sigma_t",
    "sigma_t_bipartite_formula", "sigma_t_pairsum", "sigma_t_split_formula", "split_critical_point",
    "tree_sweep", "verify_conjecture1", "verify_conjecture2", "verify_identity_suite", "zagreb_m1",
    "zagreb_m2",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_object_its_module_defines(name):
    value = getattr(sigmat, name)
    module = value.__module__
    assert module.startswith("sigmat.")
    assert getattr(importlib.import_module(module), name) is value
    # bound on first access, so later lookups skip the module hook
    assert vars(sigmat)[name] is value


def test_star_import_yields_exactly_the_exports():
    namespace = {}
    exec("from sigmat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert sorted(sigmat.__all__) == sorted(EXPORTS)


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(sigmat))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        sigmat.no_such_name
    assert not hasattr(sigmat, "pair_order")


def test_submodules_are_attributes():
    assert sigmat.oracle is importlib.import_module("sigmat.oracle")
    assert sigmat.graph.parse_graph6 is sigmat.parse_graph6


def test_tree_names_are_defined_only_in_trees():
    # oracle keeps no alias of what moved to trees
    oracle, trees = sigmat.oracle, sigmat.trees
    for name in ("TreeSweep", "free_trees", "prufer_edges", "search_trees", "tree_sweep",
                 "verify_conjecture2", "MAX_TREE_ORDER"):
        assert hasattr(trees, name) and not hasattr(oracle, name)


def test_version_is_unchanged():
    assert sigmat.__version__ == "0.1.0"


SOURCES = {path.stem: path.read_text().splitlines() for path in Path(sigmat.__file__).parent.glob("*.py")}


def _definitions(private):
    """(module, name, first line, last line) of every module-level private
    (or, if not ``private``, public) function, class or constant of the
    package; dunder names are neither."""
    for module, lines in sorted(SOURCES.items()):
        for node in ast.parse("\n".join(lines)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__") and name.startswith("_") == private:
                    yield module, name, node.lineno, node.end_lineno


def _mentioned_elsewhere(module, name, first, last):
    """Whether ``name`` appears as a whole word anywhere in the package
    outside lines first..last of ``module``; the name strings of
    ``sigmat._EXPORTS`` count."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(line) for other, lines in SOURCES.items()
               for i, line in enumerate(lines, start=1) if not (other == module and first <= i <= last))


@pytest.mark.parametrize("module,name,first,last", [
    pytest.param(*definition, id=".".join(definition[:2])) for definition in _definitions(private=True)])
def test_private_definitions_are_used(module, name, first, last):
    # a helper whose only mention is its own definition is dead code
    assert _mentioned_elsewhere(module, name, first, last), \
        f"{module}.{name} is referenced only in its own definition"


@pytest.mark.parametrize("module,name,first,last", [
    pytest.param(*definition, id=".".join(definition[:2])) for definition in _definitions(private=False)])
def test_public_definitions_are_used(module, name, first, last):
    # a public name that nothing in the package runs or exports is test-only
    # code: it belongs with the tests that use it
    assert _mentioned_elsewhere(module, name, first, last), \
        f"{module}.{name} is neither used nor exported by the package"
