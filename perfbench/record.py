"""Repeat the benchmark over seeds and write ``perfbench/record.json``.

    python3 perfbench/record.py [--seeds 10] [--seconds 25] [--out PATH] [WORKLOAD ...]

For each workload (default: all) it runs ``run.py`` untraced once per seed
(0..N-1) and traced once at seed 0, printing each run's report. It then
records per end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median, from
``statistics.quantiles(values, n=4)``), plus the traced per-layer numbers,
next to the workload description, the layer map and the machine facts.
Workloads not rerun keep their earlier entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

RECORD = run.HERE / "record.json"

# ROADMAP.md's baseline, single wall-clock runs on the same 2-core box
# (Python 3.11.7, numpy 2.4.6), for comparison with the medians measured here
ROADMAP_BASELINE = {
    "search --n 7 --objective max": {"wall_s": 2.0, "peak_rss_mb": 523},
    "conjecture --id 1 --n 7": {"wall_s": 1.7},
    "conjecture --id 2 --n 9": {"wall_s": 12.2},
    "bulk.connected_table(7)": {"s": 1.6},
    "oracle.tree_sweep(9)": {"s": 12.7},
    "bulk.batched_spectra at n = 7": {"s": 14.2},
    "bounds.check_all at n = 6": {"us_per_graph": 210},
}


# numpy's version and the OpenBLAS thread count a child process sees (the
# symbol is that of the scipy-openblas64 build numpy wheels ship)
BLAS_PROBE = """
import ctypes, numpy
print(numpy.__version__)
lib = next(l.split()[-1] for l in open('/proc/self/maps') if 'openblas' in l)
print(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
"""


def machine() -> dict:
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=run.ENV, capture_output=True, text=True)
    lines = out.stdout.split()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": lines[0] if lines else None,
        "blas_threads": int(lines[1]) if len(lines) > 1 else None,
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def describe() -> dict:
    return {
        "workloads": {name: {"commands": w["commands"], "why": w["why"]} for name, w in workloads.WORKLOADS.items()},
        "setup_command": workloads.SETUP_COMMAND,
        "stream_records": workloads.STREAM_RECORDS,
        "end_to_end": run.END_TO_END,
        "per_layer": {name: {"unit": unit, "moves": workloads.LAYER_MAP[name][0], "on": workloads.LAYER_MAP[name][1]}
                      for name, unit in run.PER_LAYER.items()},
        "machine": machine(),
    }


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result line, plus ``run_s``, how long the whole run took,
    and ``report``, the lines it printed before the result."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT).stdout
    *report, last = out.strip().splitlines()
    result = json.loads(last)
    result["run_s"] = time.perf_counter() - start
    result["report"] = report
    print("\n".join(report), flush=True)
    return result


def summarise(rows: list[dict]) -> dict:
    out = {}
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", default=str(RECORD))
    parser.add_argument("workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.is_file() else {}
    record.update(describe())
    record["roadmap_baseline"] = ROADMAP_BASELINE
    results = record.setdefault("measured", {})
    ok = True
    for workload in args.workloads:
        rows = [bench(workload, seed, args.seconds, 0) for seed in range(args.seeds)]
        layers = bench(workload, 0, args.seconds, 1)
        correct = all(r["correct"] for r in rows) and layers["correct"]
        ok = ok and correct
        results[workload] = {
            "seeds": list(range(args.seeds)),
            "run_seconds": args.seconds,
            "correct": correct,
            "run_s": [round(r["run_s"], 1) for r in rows] + [round(layers["run_s"], 1)],
            "end_to_end": summarise(rows),
            "traced_seed0": {k: v["value"] for k, v in layers["metrics"].items()},
            "traced_seed0_report": layers["report"],
        }
        for name, s in results[workload]["end_to_end"].items():
            print(f"{workload:9s} {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
