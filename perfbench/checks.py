"""Correctness checks for every command the benchmark runs, against
expectations derived in :mod:`refgraph`, plus the output digest.

``check(argv, code, bodies, records)`` takes the parsed JSON lines of one
command's stdout and returns ``(ok, graphs, reason)``: whether the exit code
and output are right, how many graphs (or trees, or stream records) the
output says were verified, and why a check failed.
"""

from __future__ import annotations

import hashlib
import json
from math import isfinite

import refgraph as R


def parse(text: str) -> list:
    """The JSON lines of one command's stdout; raises ValueError."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _witnesses_ok(records, n, value, *, nonregular=False, triangle_free=False) -> bool:
    for rec in records:
        order, adj = R.decode(rec)
        degs = R.degrees(adj)
        if order != n or not R.is_connected(adj) or R.sigma_t(adj) != value:
            return False
        if nonregular and min(degs) == max(degs):
            return False
        if triangle_free and not R.is_triangle_free(adj):
            return False
    return True


def _search(argv, body):
    n = int(_flag(argv, "--n"))
    connected = R.labelled_connected(n)
    found, visited = body["extremeValue"], body["graphsVisited"]
    if _flag(argv, "--filter", "none") == "nonregular":
        if found != R.nonregular_min(n) or not 0 < visited < connected:
            return f"nonregular min {found} over {visited} graphs, expected {R.nonregular_min(n)}"
        if not _witnesses_ok(body["witnesses"], n, found, nonregular=True):
            return "a nonregular witness fails re-evaluation"
        return None
    value, copies = R.max_split(n)
    if (found, body["tieCount"], visited) != (value, copies, connected):
        return f"max {found} x{body['tieCount']} over {visited}, expected {value} x{copies} over {connected}"
    if not _witnesses_ok(body["witnesses"], n, found):
        return "a max witness fails re-evaluation"
    return None


def _conjecture(argv, body):
    n = int(_flag(argv, "--n"))
    if body["status"] != "verified" or body["counterexamples"]:
        return f"status {body['status']} with {len(body['counterexamples'])} counterexamples"
    if argv[argv.index("--id") + 1] == "1":
        reference = R.max_complete_bipartite(n)
        if body["referenceValue"] != reference or body["maxValue"] != reference:
            return f"reference {body['referenceValue']} / max {body['maxValue']}, expected {reference}"
        if not _witnesses_ok(body["extremalWitnesses"], n, reference, triangle_free=True):
            return "a triangle-free witness fails re-evaluation"
        return None
    expect = (R.labelled_trees(n), R.labelled_paths(n), True)
    got = (body["graphsVisited"], body["equalityCount"], body["equalityAllPaths"])
    if got != expect:
        return f"trees, equalities, all-paths = {got}, expected {expect}"
    if not all(R.is_path(R.decode(w)[1]) for w in body["equalityWitnesses"]):
        return "an equality witness is not a path"
    return None


def _compute(records, bodies):
    for rec, body in zip(records, bodies):
        n, adj = R.decode(rec)
        m = sum(R.degrees(adj)) // 2
        if (body["n"], body["m"], body["sigmaT"]) != (n, m, R.sigma_t(adj)):
            return f"{rec}: n, m, sigmaT = {body['n']}, {body['m']}, {body['sigmaT']}"
    return None


def _bounds(records, bodies):
    for rec, checks in zip(records, bodies):
        if not all(c["holds"] for c in checks):
            return f"{rec}: a bound does not hold"
    return None


def _spectral(records, bodies):
    for rec, body in zip(records, bodies):
        n, adj = R.decode(rec)
        two_m = sum(R.degrees(adj))
        lap, adj_eigs = body["laplacianEigenvalues"], body["adjacencyEigenvalues"]
        if len(lap) != n or len(adj_eigs) != n:
            return f"{rec}: {len(lap)} and {len(adj_eigs)} eigenvalues for n={n}"
        # traces: sum of Laplacian eigenvalues is 2m, of adjacency ones 0
        if abs(sum(lap) - two_m) > 1e-6 * max(1, two_m) or abs(sum(adj_eigs)) > 1e-6 * max(1, two_m):
            return f"{rec}: eigenvalue sums disagree with the traces"
    return None


def _spectra7(body):
    if body["graphs"] != R.labelled_connected(body["n"]):
        return f"{body['graphs']} graphs, expected {R.labelled_connected(body['n'])}"
    bad = {k: v for k, v in body.items() if k.endswith("Violations") and v}
    if bad or not all(isfinite(body[k]) for k in ("energySum", "mu2Sum", "muMaxSum")):
        return f"violations {bad}"
    return None


def check(argv: list[str], code: int, bodies: list, records: list[str] | None):
    """(ok, graphs verified, reason) for one finished command."""
    try:
        if code != 0:
            return False, 0, f"exit code {code}"
        cmd = argv[0]
        if cmd in ("compute", "bounds", "spectral"):
            if len(bodies) != len(records):
                return False, 0, f"{len(bodies)} records out for {len(records)} in"
            reason = {"compute": _compute, "bounds": _bounds, "spectral": _spectral}[cmd](records, bodies)
            return reason is None, len(bodies), reason
        if len(bodies) != 1:
            return False, 0, f"{len(bodies)} JSON lines, expected 1"
        body = bodies[0]
        if cmd == "extremal":
            n = int(_flag(argv, "--n"))
            star = R.encode(n, [(0, v) for v in range(1, n)])
            ok = body["sigmaT"] == (n - 1) * (n - 2) ** 2 and body["graph6"] == star
            return ok, 1, None if ok else f"star output {body}"
        if cmd == "search":
            reason = _search(argv, body)
        elif cmd == "conjecture":
            reason = _conjecture(argv, body)
        elif cmd == "spectra7":
            reason = _spectra7(body)
        else:
            return False, 0, f"no check for {cmd}"
        return reason is None, body.get("graphsVisited", body.get("graphs", 0)), reason
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, 0, f"unreadable output: {exc!r}"


def _normalise(value):
    """Floats to 6 significant digits and |x| < 1e-9 to 0, so a digest
    survives last-digit eigensolver noise; integers and strings stay exact."""
    if isinstance(value, float):
        return 0.0 if abs(value) < 1e-9 else float(f"{value:.6g}")
    if isinstance(value, list):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    return value


def digest(bodies: list) -> str:
    """sha256 of the parsed output lines, each normalised."""
    h = hashlib.sha256()
    for body in bodies:
        h.update(json.dumps(_normalise(body)).encode())
        h.update(b"\n")
    return h.hexdigest()
