"""sigmat benchmark: runs one workload the way users drive sigmat, checks
every output, and prints the metrics as one JSON line at the end.

    python3 perfbench/run.py --workload graphs7 --seed 0 --seconds 25 --trace 0

Untraced (``--trace 0``): each CLI command runs in a fresh child process
(``python -m sigmat.cli``; ``spectra7`` runs the library script), started
by ``spawner.py``, with its peak RSS taken from ``os.wait4``. The command
list repeats while another pass fits in ``--seconds`` (at least once);
end-to-end metrics are medians over passes. ``setup_s`` is the median of
no-work invocations made before and after the passes.

Traced (``--trace 1``): the workload runs twice in fresh processes through
``inproc.py``, once plain and once with the wrappers from ``tracer.py``;
per-layer metrics come from the traced process and the plain one gives the
tracing overhead. Both outputs are checked and must agree byte for byte.

``--record-digests`` stores the output digests of one untraced pass as the
expected ones (at the default seed for the seeded ``stream`` workload).
The program is run from ``src/`` of the checkout holding this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import refgraph
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # before the passes and again after them

END_TO_END = {"wall_s": "s", "graphs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "bulk.connected_table.s": "s",
    "bulk.connected_table.calls": "count",
    "bulk.masks_scanned": "count",
    "bulk.connected_ratio": "1",
    "bulk.table_bytes": "B",
    "bulk.batched_spectra.s": "s",
    "bulk.eigensolves": "count",
    "oracle.search_connected.self_s": "s",
    "oracle.verify_conjecture1.self_s": "s",
    "oracle.witness_encode.s": "s",
    "oracle.tree_sweep.s": "s",
    "oracle.trees_per_s": "1/s",
    "graph.parse_graph6.s": "s",
    "graph.parse_graph6.calls": "count",
    "graph.degree_stats.per_graph": "1/graph",
    "graph.is_connected.per_graph": "1/graph",
    "invariants.full_report.s": "s",
    "invariants.sigma_t.per_graph": "1/graph",
    "spectral.laplacian_spectrum.s": "s",
    "spectral.graph_energy.s": "s",
    "spectral.eigensolves.per_graph": "1/graph",
    "bounds.check_all.s": "s",
    "bounds.check_all.us_per_graph": "us",
    "extremal.max_bipartite_split.s": "s",
    "cli.canonical_json.s": "s",
    "cli.stdout_bytes": "B",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "1",
}

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
))


class Tally:
    """Commands attempted and failed; each failure is reported on stderr."""

    def __init__(self, expected_digests: list[str] | None):
        self.expected = expected_digests
        self.attempted = 0
        self.failed = 0

    def verify(self, k: int | None, argv, code, text, records) -> int:
        """Check one command's result (``k`` indexes the expected digests);
        returns the graphs it verified."""
        self.attempted += 1
        try:
            bodies = checks.parse(text)
        except ValueError as exc:
            ok, graphs, reason = False, 0, f"exit code {code}, unparsable output: {exc}"
        else:
            ok, graphs, reason = checks.check(argv, code, bodies, records)
        if ok and k is not None and self.expected is not None and checks.digest(bodies) != self.expected[k]:
            ok, reason = False, "output digest differs from the recorded one"
        if not ok:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)
        return graphs


class Spawner:
    """Runs one command at a time in a fresh process, through spawner.py,
    so that each child's peak RSS is its own."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=ENV, cwd=ROOT, start_new_session=True,
        )
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str]) -> tuple[int, str, float, float]:
        """(exit code, stdout, wall seconds, peak RSS in MB) of one command."""
        if argv == ["spectra7"]:
            cmd = [sys.executable, str(HERE / "spectra7.py")]
        else:
            cmd = [sys.executable, "-m", "sigmat.cli", *argv]
        out = WORK / "stdout.txt"
        self.proc.stdin.write(json.dumps({"argv": cmd, "stdout": str(out)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], out.read_text("utf-8", "replace"), reply["wall_s"], reply["rss_mb"]


def measure_setup(spawner: Spawner, tally: Tally, walls: list[float]) -> None:
    for _ in range(SETUP_REPEATS):
        code, out, wall, _ = spawner.run(workloads.SETUP_COMMAND)
        tally.verify(None, workloads.SETUP_COMMAND, code, out, None)
        walls.append(wall)


def untraced(spawner: Spawner, cmds, records, seconds: float, tally: Tally) -> dict[str, float]:
    setup_walls: list[float] = []
    measure_setup(spawner, tally, setup_walls)
    walls, rates, peak_mb = [], [], 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        wall = graphs = 0
        for k, argv in enumerate(cmds):
            code, out, cmd_wall, mb = spawner.run(argv)
            graphs += tally.verify(k, argv, code, out, records)
            wall += cmd_wall
            peak_mb = max(peak_mb, mb)
        walls.append(wall)
        rates.append(graphs / wall)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    measure_setup(spawner, tally, setup_walls)
    print(f"passes: {len(walls)}; wall_s per pass: {' '.join(f'{w:.3f}' for w in walls)}")
    return {
        "wall_s": statistics.median(walls),
        "graphs_per_s": statistics.median(rates),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup_walls),
    }


def run_inproc(workload: str, stream_path: str, trace: bool) -> dict | None:
    out = WORK / f"inproc-{workload}-{int(trace)}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "inproc.py"), workload, stream_path, str(int(trace)), str(out)]
    code = subprocess.run(cmd, env=ENV, cwd=ROOT).returncode
    if code != 0 or not out.is_file():
        print(f"FAILED in-process run (trace={int(trace)}): exit code {code}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def traced(workload, stream_path, cmds, records, tally: Tally) -> dict[str, float]:
    reports = [run_inproc(workload, stream_path, trace) for trace in (False, True)]
    for report in reports:
        if report is None:
            tally.attempted += len(cmds)
            tally.failed += len(cmds)
            continue
        for k, (argv, res) in enumerate(zip(cmds, report["commands"])):
            tally.verify(k, argv, res["code"], res["stdout"], records)
    plain, trace = reports
    if plain is None or trace is None:
        return {name: 0.0 for name in PER_LAYER}
    for argv, a, b in zip(cmds, plain["commands"], trace["commands"]):
        tally.attempted += 1
        if a["stdout"] != b["stdout"]:
            tally.failed += 1
            print(f"FAILED {' '.join(argv)}: traced output differs from untraced", file=sys.stderr)
    metrics = dict(trace["layers"])
    metrics["cli.stdout_bytes"] = sum(len(c["stdout"].encode()) for c in trace["commands"])
    metrics["cli.import_s"] = trace["import_s"]
    metrics["trace.wall_s"] = trace["wall_s"]
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_ratio"] = (trace["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    print(f"self time by span (traced wall {trace['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s):")
    for name, self_s, calls in trace["self_times"][:10]:
        print(f"  {name:32s} {self_s:9.3f} s {100 * self_s / trace['wall_s']:5.1f}%  {calls} calls")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    # a terminated run still stops the command it is measuring
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "sigmat" / "cli.py").is_file():
        print(f"error: no sigmat source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    stream_path = WORK / f"stream-{args.seed}.g6"
    seeded = args.workload == "stream"
    records = None
    if seeded:
        records = refgraph.stream(args.seed, workloads.STREAM_RECORDS)
        stream_path.write_text("\n".join(records) + "\n")
    cmds = workloads.commands(args.workload, str(stream_path))

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = recorded.get(args.workload) if args.seed == DEFAULT_SEED or not seeded else None
    if args.record_digests:
        if seeded and args.seed != DEFAULT_SEED:
            parser.error(f"record stream digests at the default seed {DEFAULT_SEED}")
        with Spawner() as spawner:
            outs = [spawner.run(argv) for argv in cmds]
        tally = Tally(None)
        for k, (argv, (code, out, _, _)) in enumerate(zip(cmds, outs)):
            tally.verify(k, argv, code, out, records)
        if tally.failed:
            return 1
        recorded[args.workload] = [checks.digest(checks.parse(out)) for _, out, _, _ in outs]
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        return 0

    tally = Tally(expected)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"digests {'checked' if expected else 'not checked'}")
    if args.trace:
        metrics, units = traced(args.workload, str(stream_path), cmds, records, tally), PER_LAYER
    else:
        with Spawner() as spawner:
            metrics, units = untraced(spawner, cmds, records, args.seconds, tally), END_TO_END
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted} commands)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
