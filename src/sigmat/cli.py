"""Command-line surface: compute, bounds, spectral, extremal, search,
conjecture, and verify-identities subcommands with JSON or table output.

JSON is byte-stable: fixed key order per command and floats rendered in
12-significant-digit shortest form, so re-serializing parsed output
reproduces the bytes. Exit codes: 0 success, 1 verification failure
(violated bound or conjecture counterexample), 2 usage or input error,
3 internal error (a failed eigensolve or any other unexpected exception;
the traceback is logged at debug level, see ``SIGMAT_LOG``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from numpy.linalg import LinAlgError

from .bounds import BoundCheck, check_all
from .extremal import (
    make_complete_bipartite,
    make_path,
    make_split,
    make_star,
    max_bipartite_split,
    max_split_sigma_t,
)
from .graph import Graph, Graph6Error, encode_graph6, is_regular, is_tree, is_triangle_free, parse_graph6
from .invariants import full_report, sigma_t
from .oracle import (
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
from .spectral import laplacian_spectrum

log = logging.getLogger("sigmat.cli")


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    return f"{x:.12g}"


def canonical_json(obj) -> str:
    """Serialize with insertion-order keys and .12g floats; idempotent under
    parse-and-re-render."""
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(", ")
            _write_json(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _write_json(value, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_cell(v) for v in value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return f"{value['num']}/{value['den']}"
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
                lhs, rhs = _cell(c.lhs), _cell(c.rhs)
            rows.append((c.bound_id, lhs, rhs, status, c.certificate))
        return _format_rows(rows)
    if hasattr(report, "to_json_dict"):
        report = report.to_json_dict()
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

    p = subs.add_parser("compute", help="all invariants of each input graph")
    _add_input_flags(p, required=True)
    _add_format_flag(p)
    p.add_argument("--skip-bad-lines", action="store_true")

    p = subs.add_parser("bounds", help="run every applicable bound check")
    _add_input_flags(p, required=True)
    _add_format_flag(p)
    p.add_argument("--skip-bad-lines", action="store_true")

    p = subs.add_parser("spectral", help="Laplacian/adjacency spectra and energy")
    _add_input_flags(p, required=True)
    _add_format_flag(p)
    p.add_argument("--skip-bad-lines", action="store_true")

    p = subs.add_parser("extremal", help="extremal family constructions and optima")
    p.add_argument("--family", choices=("split", "bipartite", "star", "path"), required=True)
    p.add_argument("--n", type=int, required=True)
    _add_format_flag(p)

    p = subs.add_parser("search", help="extremal sigma_t over a family or stream")
    _add_input_flags(p, required=False)
    p.add_argument("--n", type=int, help="order for the internal enumerators")
    p.add_argument("--objective", choices=("max", "min"), required=True)
    p.add_argument("--filter", choices=("triangle-free", "tree", "nonregular", "none"),
                   default="none")
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
    skip = getattr(args, "skip_bad_lines", False)

    def report(lineno, line, exc):
        print(f"skipping line {lineno}: {exc}", file=sys.stderr)

    on_bad = report if skip else None
    if args.graph6 is not None:
        yield parse_graph6(args.graph6)
    elif args.file is not None:
        # non-ASCII bytes reach parse_graph6, which reports them with the line number
        with open(args.file, "r", encoding="ascii", errors="surrogateescape") as handle:
            yield from ingest_graph6(handle, skip_bad=skip, on_bad=on_bad)
    else:
        yield from ingest_graph6(sys.stdin, skip_bad=skip, on_bad=on_bad)


def _emit(args, payload) -> None:
    if args.format == "table":
        print(render_table(payload))
    else:
        body = payload.to_json_dict() if hasattr(payload, "to_json_dict") else payload
        if isinstance(body, list):
            body = [c.to_json_dict() if hasattr(c, "to_json_dict") else c for c in body]
        print(canonical_json(body))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    for g in _input_graphs(args):
        _emit(args, full_report(g))
    return 0


def _cmd_bounds(args) -> int:
    violated = False
    for g in _input_graphs(args):
        checks = check_all(g)
        violated = violated or any(not c.holds for c in checks)
        if args.format == "table":
            print(render_table(checks))
        else:
            _emit(args, [c.to_json_dict() for c in checks])
    return 1 if violated else 0


def _cmd_spectral(args) -> int:
    for g in _input_graphs(args):
        _emit(args, laplacian_spectrum(g))
    return 0


def _cmd_extremal(args) -> int:
    n = args.n
    if args.family == "split":
        best = max_split_sigma_t(n)
        graph = make_split(best.x, n - best.x)
        payload = {"family": "split", "n": n, "x": best.x, "value": best.value,
                   "graph6": encode_graph6(graph)}
    elif args.family == "bipartite":
        best = max_bipartite_split(n)
        graph = make_complete_bipartite(best.n1, n - best.n1)
        payload = {"family": "bipartite", "n": n, **best.to_json_dict(),
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


def _filter_predicate(name: str):
    return {
        "none": None,
        "triangle-free": is_triangle_free,
        "tree": is_tree,
        "nonregular": lambda g: not is_regular(g),
    }[name]


def _cmd_search(args) -> int:
    if _has_stream(args):
        predicate = _filter_predicate(args.filter)
        result = search_extremal(
            _input_graphs(args), args.objective, predicate,
            description=f"graph6 stream ({args.filter})",
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
    return 0 if report.status == "verified" else 1


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
    except LinAlgError as exc:  # a ValueError, but not the user's
        internal = exc
    except (UsageError, Graph6Error, LimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        internal = exc
    log.debug("internal error in %s", args.command, exc_info=internal)
    print(f"error: internal: {type(internal).__name__}: {internal}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
