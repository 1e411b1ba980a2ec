"""Test-only references that no command runs: the labeled trees by Prüfer
decoding, against which the free-tree sweep is checked, and a star test
for the witnesses it reports."""

from itertools import product
from typing import Iterator

from sigmat.graph import Graph, is_tree
from sigmat.oracle import _require_order
from sigmat.trees import prufer_edges

MAX_PRUFER_ORDER = 9


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees via Prüfer decoding, in sequence order: the
    reference for the tree sweep."""
    _require_order(n, 2, "tree enumeration", MAX_PRUFER_ORDER)
    for seq in product(range(n), repeat=n - 2):
        yield Graph(n, prufer_edges(seq, n))


def is_star_graph(g: Graph) -> bool:
    """Connected with one center adjacent to all n-1 leaves (K_2 included)."""
    if not is_tree(g) or g.n < 2:
        return False
    degs = sorted(g.degrees())
    return degs[-1] == g.n - 1 and (g.n == 2 or degs[-2] == 1)
