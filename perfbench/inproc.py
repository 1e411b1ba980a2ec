"""One workload in one fresh process, for the traced run and its untraced
reference: every command calls ``cli.main(argv)`` (or the spectra7 library script)
with stdout sent to an in-memory sink; the parent counts its bytes.

Usage: ``PYTHONPATH=src python3 perfbench/inproc.py WORKLOAD STREAM TRACE OUT``
where TRACE is 0 or 1 and OUT is the JSON result file. With TRACE 1 the
spans are also written beside OUT, as ``OUT.spans.json``.

A fresh process per workload matters: ``oracle.tree_sweep`` keeps an
unbounded ``lru_cache``, so a repeat in one process is a cache hit.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import workloads


def main(workload: str, stream_path: str, trace: bool, out_path: str) -> None:
    start = time.perf_counter()
    from sigmat import cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced (absent): {', '.join(missing)}", file=sys.stderr)
        run_command = tracer.span("command", _run_command)
    else:
        run_command = _run_command

    results = []
    wall_start = time.perf_counter()
    for argv in workloads.commands(workload, stream_path):
        sink = io.StringIO()
        code = run_command(cli, argv, sink)
        results.append({"code": code, "stdout": sink.getvalue()})
    wall_s = time.perf_counter() - wall_start

    report = {"import_s": import_s, "wall_s": wall_s, "commands": results}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["self_times"] = tracer.self_times()
        tracer.dump(out_path + ".spans.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle)


def _run_command(cli, argv: list[str], sink: io.StringIO) -> int:
    with contextlib.redirect_stdout(sink):
        if argv == ["spectra7"]:
            import spectra7

            spectra7.run(sink)
            return 0
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    wl, stream_file, trace_flag, out = sys.argv[1:5]
    main(wl, stream_file, trace_flag == "1", out)
