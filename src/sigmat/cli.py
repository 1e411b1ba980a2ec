"""Command-line surface: compute, bounds, spectral, extremal, search,
conjecture, and verify-identities subcommands with JSON or table output.

JSON is byte-stable: fixed key order per command and floats rendered in
12-significant-digit shortest form, so re-serializing parsed output
reproduces the bytes. This module is the only one that knows the format: a
result dataclass is written straight from its fields, in field order, each
under its name in camelCase (or the key its ``json_key`` metadata names),
and a field marked ``json_optional`` is left out while it is None. A
Fraction is written as ``{"num": a, "den": b}`` (``a/b`` in a table).

``bounds`` and ``spectral`` read their input in chunks of at most
``CHUNK_GRAPHS`` graphs and ``CHUNK_ENTRIES`` summed n^2 matrix entries (a
larger graph is a chunk of its own), solve each chunk's spectra by order in
stacked eigensolves, and then print its records in input order. An input
error prints the records read before it first.

Exit codes: 0 success, 1 verification failure (violated bound or
conjecture counterexample), 2 usage or input error, 3 internal error (a
failed eigensolve or any other unexpected exception; the traceback is
logged at debug level, see ``SIGMAT_LOG``), 141 stdout closed by its reader
(128 + SIGPIPE, with nothing printed). A failed eigensolve drops every
record of its chunk: the records of earlier chunks are printed, none of its
own. It is numpy's ``LinAlgError``, a ValueError; it is told apart from
input errors through ``sys.modules``, so this module never imports numpy
and only the commands that build arrays (``bounds``, ``spectral`` and the
mask sweeps) load it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .bounds import BoundCheck, check_all, graph_facts
from .extremal import (
    make_complete_bipartite,
    make_path,
    make_split,
    make_star,
    max_bipartite_split,
    max_split_sigma_t,
)
from .graph import Graph, Graph6Error, encode_graph6, parse_graph6, require_graph6_order
from .invariants import full_report, sigma_t
from .oracle import (
    FILTERS,
    LimitError,
    ingest_graph6,
    random_graphs,
    enumerate_connected_graphs,
    search_connected,
    search_extremal,
    search_trees,
    verify_conjecture1,
    verify_conjecture2,
    verify_identity_suite,
)
from .spectral import laplacian_spectra

log = logging.getLogger("sigmat.cli")

# a chunk of bounds/spectral input closes at whichever limit it reaches
# first; the matrix stacks of a chunk of two or more graphs take at most
# 16 * CHUNK_ENTRIES bytes
CHUNK_GRAPHS = 256
CHUNK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    return f"{x:.12g}"


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


@lru_cache(maxsize=None)
def _layout(cls) -> tuple[tuple[str, str, str, bool], ...]:
    """(field name, JSON key, the key encoded with its colon, left out while
    None) for each field of a result dataclass, computed once per class."""
    layout = []
    for f in fields(cls):
        key = f.metadata.get("json_key") or _camel(f.name)
        layout.append((f.name, key, json.dumps(key) + ": ", bool(f.metadata.get("json_optional"))))
    return tuple(layout)


def record_items(record) -> dict:
    """The JSON keys and field values of a result dataclass, in field order,
    without its unset optional fields."""
    return {key: getattr(record, name) for name, key, _, optional in _layout(type(record))
            if not (optional and getattr(record, name) is None)}


def canonical_json(obj) -> str:
    """Serialize with insertion-order keys and .12g floats; idempotent under
    parse-and-re-render."""
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, parts: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``parts``, with the writer
    ``_WRITERS`` holds for its exact type or else :func:`_writer_for` its
    type. The container writers repeat this lookup inline for their items."""
    (_WRITERS.get(type(obj)) or _writer_for(type(obj)))(obj, parts)


def _write_null(obj, parts: list[str]) -> None:
    parts.append("null")


def _write_bool(obj, parts: list[str]) -> None:
    parts.append("true" if obj else "false")


def _write_int(obj, parts: list[str]) -> None:
    parts.append(str(obj))


def _write_float(obj, parts: list[str]) -> None:
    parts.append(format_float(obj))


def _write_str(obj, parts: list[str]) -> None:
    parts.append(encode_basestring_ascii(obj))


def _write_array(obj, parts: list[str]) -> None:
    parts.append("[")
    writer = _WRITERS.get
    for k, item in enumerate(obj):
        if k:
            parts.append(", ")
        (writer(type(item)) or _writer_for(type(item)))(item, parts)
    parts.append("]")


def _write_object(obj, parts: list[str]) -> None:
    parts.append("{")
    writer = _WRITERS.get
    for k, (key, value) in enumerate(obj.items()):
        if k:
            parts.append(", ")
        parts.append(encode_basestring_ascii(str(key)))
        parts.append(": ")
        (writer(type(value)) or _writer_for(type(value)))(value, parts)
    parts.append("}")


def _write_fraction(obj, parts: list[str]) -> None:
    parts.append(f'{{"num": {obj.numerator}, "den": {obj.denominator}}}')


def _write_record(obj, parts: list[str]) -> None:
    parts.append("{")
    writer = _WRITERS.get
    first = True
    for name, _, encoded_key, optional in _layout(type(obj)):
        value = getattr(obj, name)
        if optional and value is None:
            continue
        parts.append(encoded_key if first else ", " + encoded_key)
        (writer(type(value)) or _writer_for(type(value)))(value, parts)
        first = False
    parts.append("}")


# by exact type; _writer_for matches any other class against these in order
_WRITERS = {
    type(None): _write_null,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    list: _write_array,
    tuple: _write_array,
    dict: _write_object,
    Fraction: _write_fraction,
}


@lru_cache(maxsize=None)
def _writer_for(cls):
    """The writer for a class without an entry in ``_WRITERS``: that of the
    first entry it subclasses (``np.float64`` is written as a float, a
    namedtuple as a list, an IntEnum as an int), else the record writer for
    a result dataclass; chosen once per class."""
    for base, write in _WRITERS.items():
        if issubclass(cls, base):
            return write
    if is_dataclass(cls):
        return _write_record
    raise TypeError(f"cannot serialize {cls.__name__}")


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return " ".join(_cell(v) for v in value)
    return str(value)


def _format_rows(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_table(report) -> str:
    """Fixed-column text rendering; equalities are marked '=' and skipped
    checks 'skip(<reason>)'."""
    if isinstance(report, list) and all(isinstance(c, BoundCheck) for c in report):
        rows = [("bound", "lhs", "rhs", "status", "certificate")]
        for c in report:
            if c.skipped is not None:
                status, lhs, rhs = f"skip({c.skipped})", "", ""
            else:
                status = "=" if c.equality else ("✓" if c.holds else "✗")
                lhs, rhs = (format_float(x) if isinstance(x, float) else str(x) for x in (c.lhs, c.rhs))
            rows.append((c.bound_id, lhs, rhs, status, c.certificate))
        return _format_rows(rows)
    if is_dataclass(report):
        report = record_items(report)
    if isinstance(report, dict):
        rows = [("field", "value")]
        rows.extend((str(k), _cell(v)) for k, v in report.items())
        return _format_rows(rows)
    raise TypeError(f"cannot render {type(report).__name__}")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_input_flags(sub, required: bool) -> None:
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--graph6", metavar="G6", help="one graph6 record")
    group.add_argument("--file", metavar="PATH", help="file of graph6 lines")
    group.add_argument("--stdin", action="store_true", help="read graph6 lines from stdin")


def _add_format_flag(sub) -> None:
    sub.add_argument("--format", choices=("json", "table"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmat",
        description="Degree-based irregularity indices, bounds, extremal families, and exhaustive verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, about in (("compute", "all invariants of each input graph"),
                        ("bounds", "run every applicable bound check"),
                        ("spectral", "Laplacian/adjacency spectra and energy")):
        p = subs.add_parser(name, help=about)
        _add_input_flags(p, required=True)
        _add_format_flag(p)
        p.add_argument("--skip-bad-lines", action="store_true")

    p = subs.add_parser("extremal", help="extremal family constructions and optima")
    p.add_argument("--family", choices=("split", "bipartite", "star", "path"), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format_flag(p)

    p = subs.add_parser("search", help="extremal sigma_t over a family or stream")
    _add_input_flags(p, required=False)
    p.add_argument("--n", type=int, help="order for the internal enumerators; with an input "
                   "stream, every stream graph must have this order")
    p.add_argument("--objective", choices=("max", "min"), required=True)
    p.add_argument("--filter", choices=tuple(FILTERS), default="none")
    p.add_argument("--skip-bad-lines", action="store_true")
    _add_format_flag(p)

    p = subs.add_parser("conjecture", help="verify a conjecture exhaustively")
    p.add_argument("--id", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_input_flags(p, required=False)
    p.add_argument("--skip-bad-lines", action="store_true")
    _add_format_flag(p)

    p = subs.add_parser("verify-identities", help="check the index identities on a stream")
    _add_input_flags(p, required=False)
    p.add_argument("--n", type=int)
    p.add_argument("--random", type=int, metavar="COUNT",
                   help="use COUNT seeded random graphs of order --n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-bad-lines", action="store_true")
    _add_format_flag(p)

    return parser


def _has_stream(args) -> bool:
    """Whether the command was given a graph6 input (record, file or stdin)."""
    return args.graph6 is not None or args.file is not None or args.stdin


def _input_graphs(args) -> Iterator[Graph]:
    def report(lineno, line, exc):
        print(f"skipping line {lineno}: {exc}", file=sys.stderr)

    on_bad = report if getattr(args, "skip_bad_lines", False) else None
    if args.graph6 is not None:
        yield parse_graph6(args.graph6)
    elif args.file is not None:
        # non-ASCII bytes reach parse_graph6, which reports them with the line number
        with open(args.file, "r", encoding="ascii", errors="surrogateescape") as handle:
            yield from ingest_graph6(handle, on_bad)
    else:
        yield from ingest_graph6(sys.stdin, on_bad)


def _chunks(graphs: Iterable[Graph]) -> Iterator[list[Graph]]:
    """The graphs in input order, in lists of at most ``CHUNK_GRAPHS``
    graphs and ``CHUNK_ENTRIES`` summed n^2 entries; a graph of more
    entries is a list of its own. If reading the input raises, the graphs
    read before it are yielded first."""
    chunk: list[Graph] = []
    entries = 0
    try:
        for g in graphs:
            size = g.n * g.n
            if chunk and entries + size > CHUNK_ENTRIES:
                yield chunk
                chunk, entries = [], 0
            chunk.append(g)
            entries += size
            if len(chunk) == CHUNK_GRAPHS or entries >= CHUNK_ENTRIES:
                yield chunk
                chunk, entries = [], 0
    except Exception:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _emit(args, payload) -> None:
    print(render_table(payload) if args.format == "table" else canonical_json(payload))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    for g in _input_graphs(args):
        _emit(args, full_report(g))
    return 0


def _cmd_bounds(args) -> int:
    violated = False
    for chunk in _chunks(_input_graphs(args)):
        for facts in graph_facts(chunk):
            checks = check_all(facts)
            violated = violated or any(not c.holds for c in checks)
            _emit(args, checks)
    return 1 if violated else 0


def _cmd_spectral(args) -> int:
    for chunk in _chunks(_input_graphs(args)):
        for spectrum in laplacian_spectra(chunk):
            _emit(args, spectrum)
    return 0


def _cmd_extremal(args) -> int:
    n = args.n
    # before any construction: split and bipartite graphs take O(n^2) memory
    require_graph6_order(n)
    if args.family == "split":
        best = max_split_sigma_t(n)
        graph = make_split(best.x, n - best.x)
        payload = {"family": "split", "n": n, "x": best.x, "value": best.value,
                   "graph6": encode_graph6(graph)}
    elif args.family == "bipartite":
        best = max_bipartite_split(n)
        graph = make_complete_bipartite(best.n1, n - best.n1)
        payload = {"family": "bipartite", "n": n, **record_items(best),
                   "graph6": encode_graph6(graph)}
    elif args.family == "star":
        graph = make_star(n)
        payload = {"family": "star", "n": n, "sigmaT": sigma_t(graph),
                   "graph6": encode_graph6(graph)}
    else:
        graph = make_path(n)
        payload = {"family": "path", "n": n, "sigmaT": sigma_t(graph),
                   "graph6": encode_graph6(graph)}
    _emit(args, payload)
    return 0


def _cmd_search(args) -> int:
    if _has_stream(args):
        result = search_extremal(
            _input_graphs(args), args.objective, FILTERS[args.filter].keeps,
            description=f"graph6 stream ({args.filter})", n=args.n,
        )
    else:
        if args.n is None:
            raise UsageError("search needs --n or an input stream")
        if args.filter == "tree":
            result = search_trees(args.n, args.objective)
        else:
            result = search_connected(args.n, args.objective, args.filter)
    _emit(args, result)
    return 0


def _cmd_conjecture(args) -> int:
    if args.id == 1:
        graphs = _input_graphs(args) if _has_stream(args) else None
        report = verify_conjecture1(args.n, graphs)
    else:
        if _has_stream(args):
            raise UsageError("conjecture 2 is tree-enumeration only; drop the input stream")
        report = verify_conjecture2(args.n)
    _emit(args, report)
    return 1 if report.status == "counterexample" else 0


def _cmd_verify_identities(args) -> int:
    if args.random is not None:
        if args.n is None:
            raise UsageError("--random needs --n")
        summary = verify_identity_suite(
            random_graphs(args.n, args.random, args.seed), seed=args.seed
        )
    elif _has_stream(args):
        summary = verify_identity_suite(_input_graphs(args))
    elif args.n is not None:
        summary = verify_identity_suite(enumerate_connected_graphs(args.n))
    else:
        raise UsageError("verify-identities needs --n, --random, or an input stream")
    _emit(args, summary)
    return 1 if summary.failed else 0


class UsageError(Exception):
    pass


_COMMANDS = {
    "compute": _cmd_compute,
    "bounds": _cmd_bounds,
    "spectral": _cmd_spectral,
    "extremal": _cmd_extremal,
    "search": _cmd_search,
    "conjecture": _cmd_conjecture,
    "verify-identities": _cmd_verify_identities,
}


def main(argv: Iterable[str] | None = None) -> int:
    level = os.environ.get("SIGMAT_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.DEBUG))
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # an OSError, but not a usage or input error
        # the reader closed stdout: point it at devnull so the interpreter's
        # final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, Graph6Error, LimitError, ValueError, OSError) as exc:
        # numpy's LinAlgError is a ValueError, but not the user's; it cannot
        # have been raised unless numpy.linalg is loaded
        linalg = sys.modules.get("numpy.linalg")
        if linalg is None or not isinstance(exc, linalg.LinAlgError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        internal = exc
    except Exception as exc:
        internal = exc
    log.debug("internal error in %s", args.command, exc_info=internal)
    print(f"error: internal: {type(internal).__name__}: {internal}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
