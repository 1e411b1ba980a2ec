"""Test-only references that no command runs: the labeled trees by Prüfer
decoding, against which the free-tree sweep is checked, a star test for
the witnesses it reports, and the field-by-field JSON writer, against
which the compiled record layouts of ``sigmat.cli`` are checked."""

from dataclasses import is_dataclass
from fractions import Fraction
from itertools import product
from json.encoder import encode_basestring_ascii
from typing import Iterator

from sigmat.cli import _BASE_VALUES, _layout, format_float
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


def reference_json(obj) -> str:
    """The canonical JSON of ``obj``, with every result dataclass written
    field by field from ``_layout``: the writer ``sigmat.cli`` used before
    it compiled a layout per class."""
    parts: list[str] = []
    _write_reference(obj, parts)
    return "".join(parts)


def _write_reference(obj, parts: list[str]) -> None:
    cls = type(obj)
    if cls is str:
        parts.append(encode_basestring_ascii(obj))
    elif cls is int:
        parts.append(int.__repr__(obj))
    elif cls is float:
        parts.append(format_float(obj))
    elif cls is bool:
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif cls is list or cls is tuple:
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(", ")
            _write_reference(item, parts)
        parts.append("]")
    elif cls is Fraction:
        parts.append(f'{{"num": {obj.numerator}, "den": {obj.denominator}}}')
    elif cls is dict:
        parts.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                parts.append(", ")
            text = (str.__str__(key) if isinstance(key, str)
                    else int.__repr__(key) if isinstance(key, int) else str(key))
            parts.append(encode_basestring_ascii(text) + ": ")
            _write_reference(value, parts)
        parts.append("}")
    elif is_dataclass(cls):
        parts.append("{")
        separator = ""
        for name, _, encoded_key, optional in _layout(cls):
            value = getattr(obj, name)
            if optional and value is None:
                continue
            parts.append(separator + encoded_key)
            _write_reference(value, parts)
            separator = ", "
        parts.append("}")
    else:
        for base, value in _BASE_VALUES:
            if isinstance(obj, base):
                _write_reference(value(obj), parts)
                return
        raise TypeError(f"cannot serialize {cls.__name__}")
