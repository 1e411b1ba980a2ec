"""Command-line surface: compute, bounds, spectral, extremal, search,
conjecture, and verify-identities subcommands with JSON or table output.

JSON is byte-stable: fixed key order per command and floats rendered in
12-significant-digit shortest form, so re-serializing parsed output
reproduces the bytes. This module is the only one that knows the format: a
result dataclass is written straight from its fields, in field order, each
under its name in camelCase (or the key its ``json_key`` metadata names),
and a field marked ``json_optional`` is left out while it is None. Each
class's layout is compiled once into one function whose one expression
writes every field, with str, int, float, bool and None values of exactly
those types written inline; every other value goes through the one
recursive writer, ``_write_json``. A
Fraction is written as ``{"num": a, "den": b}`` (``a/b`` in a table), and
an instance of a subclass of a JSON type (``np.float64``, a namedtuple, an
IntEnum) as its value in that type, never through its own ``__str__``, and
so is a dict key that is an instance of a subclass of str or int.

``compute``, ``bounds`` and ``spectral`` read their input in chunks of at
most ``CHUNK_GRAPHS`` graphs and ``CHUNK_ENTRIES`` summed n^2 matrix entries
(a larger graph is a chunk of its own). One function of a chunk solves its
spectra by order in stacked eigensolves and renders its records, and each
chunk's records are printed together, in input order. Once a second chunk
has been read, the chunks run on a ``fork`` pool of one worker per CPU the
process may use, forked before numpy is loaded; this process reads and
parses the input, keeps at most two chunks per worker in flight, and
writes the results in input order. A one-chunk input, one CPU or a
platform without ``fork`` runs the chunks in this process, and never loads
``multiprocessing``. The output and the exit codes are the same either
way, and every exit joins the workers once they have finished the chunks
in flight. An input error prints the records read before it first.

Exit codes: 0 success, 1 verification failure (violated bound or
conjecture counterexample), 2 usage or input error, 3 internal error (a
failed eigensolve or any other unexpected exception; the traceback is
logged at debug level, see ``SIGMAT_LOG``), 141 stdout closed by its reader
(128 + SIGPIPE, with nothing printed). A failed eigensolve drops every
record of its chunk: the records of earlier chunks are printed, none of its
own or of later ones. It is numpy's ``LinAlgError``, a ValueError; it is
told apart from input errors through ``sys.modules``, so this module never
imports numpy and only the commands that build arrays (``bounds``,
``spectral`` and the mask sweeps) load it (a worker's error loads
``numpy.linalg`` here when it is unpickled).

Each command imports the sigmat modules it calls when it runs, so a process
loads only those, besides ``graph`` (the input reader and the search
filters); ``logging`` is loaded only when ``SIGMAT_LOG`` is set or an
internal error is logged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple

from .graph import FILTERS, Graph, encode_graph6, ingest_graph6, parse_graph6, require_graph6_order

# a chunk of bounds/spectral input closes at whichever limit it reaches
# first; the matrix stacks of a chunk of two or more graphs take at most
# 16 * CHUNK_ENTRIES bytes
CHUNK_GRAPHS = 256
CHUNK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0: "-0" would parse back as the integer 0
    return f"{x + 0.0:.12g}"


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
    """Append the JSON text of ``obj`` to ``parts``: its exact type is tested
    first, the most frequent first, then whether it is a result dataclass,
    written by its compiled layout (:func:`_record_writer`), and then each
    base in ``_BASE_VALUES`` in turn."""
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
            _write_json(item, parts)
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
            _write_json(value, parts)
        parts.append("}")
    elif is_dataclass(cls):
        parts.append(_record_writer(cls)(obj))
    else:
        for base, value in _BASE_VALUES:
            if isinstance(obj, base):
                _write_json(value(obj), parts)
                return
        raise TypeError(f"cannot serialize {cls.__name__}")


def _inline(name: str, kind: str, other: str, value: str | None = None) -> str:
    """The source of an expression that is the JSON text of the variable
    ``name`` when its exact type, which it binds to ``kind``, is str, int,
    float or bool, or it is None, and is ``other`` for anything else. With
    ``value``, it first binds ``name`` to that expression. It quotes with
    double quotes only, so that it fits in a single-quoted f-string."""
    bound = name if value is None else f"{name} := {value}"
    return (f'(_str({name}) if ({kind} := type({bound})) is str else _int({name}) if {kind} is int '
            f'else _float({name}) if {kind} is float else ("true" if {name} else "false") '
            f'if {kind} is bool else "null" if {name} is None else {other})')


# the names the compiled writers call
_WRITER_NAMES = {"_str": encode_basestring_ascii, "_int": int.__repr__, "_float": format_float,
                 "_text": canonical_json}


@lru_cache(maxsize=None)
def _items_writer():
    """The JSON text of a list or tuple, from one function compiled once:
    each str, int, float or bool item, or None, of exactly that type is
    written inline, and any other through :func:`_write_json`."""
    source = 'lambda v: "[" + ", ".join([' + _inline("x", "t", "_text(x)") + ' for x in v]) + "]"'
    return eval(compile(source, "<items>", "eval"), dict(_WRITER_NAMES))


@lru_cache(maxsize=None)
def _record_writer(cls):
    """The JSON text of an instance of a result dataclass, from one function
    compiled from ``_layout(cls)``: one f-string of every field's encoded
    key and value. A str, int, float or bool value, or None, of exactly that
    type is written inline, and so is each such item of a list or tuple
    value; anything else goes through :func:`_write_json`. A
    ``json_optional`` field is left out while it is None."""
    layout = _layout(cls)
    # a first field that may be left out: every key gets a separator, and
    # the first one written loses it
    leading_optional = bool(layout) and layout[0][3]
    namespace = dict(_WRITER_NAMES, _items=_items_writer())
    pieces = []
    for k, (name, _, encoded_key, optional) in enumerate(layout):
        # each key, with the separator before it, is a constant of the code
        namespace[f"_key{k}"] = (", " if k or leading_optional else "") + encoded_key
        value = _inline("v", "t", "_items(v) if t is list or t is tuple else _text(v)",
                        None if optional else f"obj.{name}")
        pieces.append(f'{{(_key{k} + {value}) if (v := obj.{name}) is not None else ""}}' if optional
                      else f"{{_key{k}}}{{{value}}}")
    body = "".join(pieces)
    source = f"'{{' + f'{body}'[2:] + '}}'" if leading_optional else f"f'{{{{{body}}}}}'"
    exec(compile(f"def write(obj):\n    return {source}\n", f"<layout of {cls.__qualname__}>", "exec"),
         namespace)
    return namespace["write"]


# (base, the value of an instance of a subclass as that exact type), in order
_BASE_VALUES = ((int, int.__int__), (float, float.__float__), (str, str.__str__),
                (list, list), (tuple, tuple), (dict, dict), (Fraction, Fraction))


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
    if is_dataclass(report):
        report = record_items(report)
    if isinstance(report, dict):
        rows = [("field", "value")]
        rows.extend((str(k), _cell(v)) for k, v in report.items())
        return _format_rows(rows)
    if isinstance(report, list):
        from .bounds import BoundCheck  # only the bounds command prints lists

        if all(isinstance(c, BoundCheck) for c in report):
            rows = [("bound", "lhs", "rhs", "status", "certificate")]
            for c in report:
                if c.skipped is not None:
                    status, lhs, rhs = f"skip({c.skipped})", "", ""
                else:
                    status = "=" if c.equality else ("✓" if c.holds else "✗")
                    lhs, rhs = (format_float(x) if isinstance(x, float) else str(x) for x in (c.lhs, c.rhs))
                rows.append((c.bound_id, lhs, rhs, status, c.certificate))
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
    p.add_argument("--n", type=int, help="order of the enumerated or random graphs; with an "
                   "input stream, every stream graph must have this order")
    p.add_argument("--random", type=int, metavar="COUNT",
                   help="use COUNT seeded random graphs of order --n, instead of an input stream")
    p.add_argument("--seed", type=int, help="seed of the --random graphs (default 0)")
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
# stream commands
# ---------------------------------------------------------------------------

class ChunkOutput(NamedTuple):
    """What one chunk of a stream command gives the writer: its records'
    text, their number, whether a bound is violated, and the seconds spent."""

    text: str
    records: int
    violated: bool
    seconds: float


def _chunk_output(command: str, fmt: str, graphs: list[Graph]) -> ChunkOutput:
    """The output of ``compute``, ``bounds`` or ``spectral`` for one chunk:
    the spectra are solved by order, in stacked eigensolves, and the records
    are rendered in input order. ``bounds`` reads each graph's degrees once
    and its energy, mu2 and mu_max straight from the eigenvalue arrays
    (:func:`sigmat.bounds.graph_facts`); only ``spectral`` builds spectrum
    records."""
    start = time.perf_counter()
    violated = False
    if command == "bounds":
        from .bounds import check_all, graph_facts

        records = [check_all(facts) for facts in graph_facts(graphs)]
        violated = any(not c.holds for checks in records for c in checks)
    elif command == "spectral":
        from .spectral import laplacian_spectra

        records = laplacian_spectra(graphs)
    else:
        from .invariants import full_report

        records = [full_report(g) for g in graphs]
    render = render_table if fmt == "table" else canonical_json
    text = "".join(render(record) + "\n" for record in records)
    return ChunkOutput(text, len(records), violated, time.perf_counter() - start)


def _worker_count() -> int:
    """Worker processes for a stream: one per CPU this process may run on,
    or 1 (no pool) where there is no ``fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate_chunks(work, chunks: Iterator[list[Graph]], write) -> int:
    """``write(work(chunk))`` for every chunk, in input order; returns the
    number of worker processes, 0 when the chunks ran in this process.

    With one worker, each chunk runs here as it is read. Otherwise the first
    chunk waits for the next read: at the end of the input it runs here, and
    a second chunk starts a ``fork`` pool of ``_worker_count()`` workers.
    Before each read, the results due next are written as soon as they are
    ready, and at the latest when two chunks per worker are in flight, so
    the reader is never further ahead of the writer. An error reading the
    input ends the reading: the chunks read before it are still written,
    and then it is raised. An error in a chunk is raised when that chunk is
    due, so no later chunk is written. Every exit, Ctrl-C included, closes
    the pool and joins the workers once they have finished the chunks in
    flight, at most two per worker."""
    workers = _worker_count()
    if workers == 1:
        for chunk in chunks:
            write(work(chunk))
        return 0
    pending: deque = deque()  # the first chunk, or the results in flight
    pool = error = None
    try:
        while True:
            while pool is not None and pending and (len(pending) == 2 * workers or pending[0].ready()):
                write(pending.popleft().get())
            try:
                chunk = next(chunks, None)
            except Exception as exc:
                chunk, error = None, exc
            if chunk is None:
                break
            if pool is None and pending:
                pool = _fork_pool(workers)
                pending = deque(pool.apply_async(work, (c,)) for c in pending)
            pending.append(chunk if pool is None else pool.apply_async(work, (chunk,)))
        for item in pending:
            write(work(item) if pool is None else item.get())
        if error is not None:
            raise error
    finally:
        if pool is not None:
            # not terminate(): a worker terminated while it sends a result
            # can leave the result pipe locked or holding part of a message,
            # and the pool's teardown then waits on it forever
            pool.close()
            pool.join()
    return 0 if pool is None else workers


def _fork_pool(workers: int):
    """A ``fork`` pool of ``workers`` processes that ignore SIGINT, so that
    Ctrl-C interrupts only this process, which then joins them. The
    stream commands fork with no other thread running: numpy, and with it
    the BLAS threads, is not loaded yet, and a pool starts its own threads
    after its workers."""
    import multiprocessing
    import signal

    # a worker that exits flushes the stream buffers it inherited
    sys.stdout.flush()
    return multiprocessing.get_context("fork").Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN))


def _cmd_stream(args) -> int:
    """``compute``, ``bounds`` and ``spectral``: each chunk of the input is
    one :func:`_chunk_output`, written in input order; exit 1 if a bound is
    violated."""
    start = time.perf_counter()
    records = chunks = 0
    busy, violated = 0.0, False

    def write(output: ChunkOutput) -> None:
        nonlocal records, chunks, busy, violated
        sys.stdout.write(output.text)
        records += output.records
        chunks += 1
        busy += output.seconds
        violated = violated or output.violated

    work = partial(_chunk_output, args.command, args.format)
    workers = _evaluate_chunks(work, _chunks(_input_graphs(args)), write)
    if os.environ.get("SIGMAT_LOG"):
        import logging

        wall = time.perf_counter() - start
        logging.getLogger("sigmat.cli").debug(
            "%s: %d records in %d chunks, %s, %.3f s worker busy, %.3f s wall, %.0f graphs/s",
            args.command, records, chunks, f"{workers} workers" if workers else "in-process",
            busy, wall, records / wall)
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_extremal(args) -> int:
    from .extremal import (make_complete_bipartite, make_path, make_split, make_star,
                           max_bipartite_split, max_split_sigma_t)
    from .invariants import sigma_t

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
    from .oracle import search_connected, search_extremal

    if _has_stream(args):
        result = search_extremal(
            _input_graphs(args), args.objective, FILTERS[args.filter].keeps,
            description=f"graph6 stream ({args.filter})", n=args.n,
        )
    else:
        if args.n is None:
            raise UsageError("search needs --n or an input stream")
        if args.filter == "tree":
            from .trees import search_trees

            result = search_trees(args.n, args.objective)
        else:
            result = search_connected(args.n, args.objective, args.filter)
    _emit(args, result)
    return 0


def _cmd_conjecture(args) -> int:
    from .oracle import verify_conjecture1

    if args.id == 1:
        graphs = _input_graphs(args) if _has_stream(args) else None
        report = verify_conjecture1(args.n, graphs)
    else:
        if _has_stream(args):
            raise UsageError("conjecture 2 is tree-enumeration only; drop the input stream")
        from .trees import verify_conjecture2

        report = verify_conjecture2(args.n)
    _emit(args, report)
    return 1 if report.status == "counterexample" else 0


def _cmd_verify_identities(args) -> int:
    from .oracle import _of_order, enumerate_connected_graphs, random_graphs, verify_identity_suite

    if args.seed is not None and args.random is None:
        raise UsageError("--seed needs --random")
    if args.random is not None:
        if args.n is None:
            raise UsageError("--random needs --n")
        if _has_stream(args):
            raise UsageError("--random takes no input stream")
        seed = 0 if args.seed is None else args.seed
        summary = verify_identity_suite(random_graphs(args.n, args.random, seed), seed=seed)
    elif _has_stream(args):
        graphs = _input_graphs(args)
        summary = verify_identity_suite(graphs if args.n is None else _of_order(graphs, args.n))
    elif args.n is not None:
        summary = verify_identity_suite(enumerate_connected_graphs(args.n))
    else:
        raise UsageError("verify-identities needs --n, --random, or an input stream")
    _emit(args, summary)
    return 1 if summary.failed else 0


class UsageError(Exception):
    pass


_COMMANDS = {
    "compute": _cmd_stream,
    "bounds": _cmd_stream,
    "spectral": _cmd_stream,
    "extremal": _cmd_extremal,
    "search": _cmd_search,
    "conjecture": _cmd_conjecture,
    "verify-identities": _cmd_verify_identities,
}


def main(argv: Iterable[str] | None = None) -> int:
    level = os.environ.get("SIGMAT_LOG")
    if level:
        import logging

        logging.basicConfig(level=getattr(logging, level.upper(), logging.DEBUG))
    parser = build_parser()
    args = parser.parse_args(argv if argv is None else list(argv))
    try:
        if getattr(args, "skip_bad_lines", False) and not _has_stream(args):
            raise UsageError("--skip-bad-lines needs an input stream")
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # an OSError, but not a usage or input error
        # the reader closed stdout: point it at devnull so the interpreter's
        # final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError, OSError) as exc:
        # input errors (Graph6Error) and order limits (LimitError) are
        # ValueErrors; numpy's LinAlgError is one too, but not the user's,
        # and it cannot have been raised unless numpy.linalg is loaded
        linalg = sys.modules.get("numpy.linalg")
        if linalg is None or not isinstance(exc, linalg.LinAlgError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        internal = exc
    except Exception as exc:
        internal = exc
    import logging

    logging.getLogger("sigmat.cli").debug("internal error in %s", args.command, exc_info=internal)
    print(f"error: internal: {type(internal).__name__}: {internal}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
