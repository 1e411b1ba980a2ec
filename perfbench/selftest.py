"""The benchmark's own test.

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that the stream generator is deterministic and agrees with sigmat's
graph6 codec, that the closed-form expectations match brute force at small
orders, that BENCHMARK.json names exactly the metrics run.py prints, and
that two traced runs of each workload (default: all) give identical counts.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

import refgraph as R
import run
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def test_stream() -> None:
    a, b = R.stream(7, 500), R.stream(7, 500)
    expect(a == b, "same seed, same stream")
    expect(a != R.stream(8, 500), "another seed, another stream")
    orders = {R.decode(r)[0] for r in a}
    expect(orders == set(range(5, 15)), "stream orders cover 5..14")
    disconnected = sum(not R.is_connected(R.decode(r)[1]) for r in a)
    expect(0 < disconnected < len(a) // 4, f"stream has a share of disconnected graphs ({disconnected}/500)")

    sys.path.insert(0, str(run.ROOT / "src"))
    from sigmat.graph import encode_graph6, parse_graph6

    expect(all(encode_graph6(parse_graph6(r)) == r and tuple(R.decode(r)[1]) == parse_graph6(r).adj for r in a),
           "benchmark graph6 codec agrees with sigmat's")


def _brute(n: int):
    """(connected count, max sigma_t, min non-regular sigma_t, max
    triangle-free sigma_t) over all connected labelled graphs on n vertices."""
    pairs = R.pair_order(n)
    count, best, low, tf_best = 0, -1, None, -1
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for e, (i, j) in enumerate(pairs):
            if mask >> e & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        if not R.is_connected(adj):
            continue
        count += 1
        st = R.sigma_t(adj)
        best = max(best, st)
        degs = R.degrees(adj)
        if min(degs) != max(degs):
            low = st if low is None else min(low, st)
        if R.is_triangle_free(adj):
            tf_best = max(tf_best, st)
    return count, best, low, tf_best


def test_expectations() -> None:
    for n in range(3, 7):
        got = _brute(n)
        want = (R.labelled_connected(n), R.max_split(n)[0], R.nonregular_min(n), R.max_complete_bipartite(n))
        expect(got == want, f"closed forms match brute force at n={n}: {want}")
    expect(R.labelled_connected(7) == 1866256, "1,866,256 connected labelled graphs at n=7")


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end-to-end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per-layer metrics match run.py")
    expect(set(run.PER_LAYER) == set(workloads.LAYER_MAP), "every per-layer metric is in the layer map")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def _traced(workload: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "3", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_counts_repeat(names) -> None:
    for workload in names:
        first, second = _traced(workload), _traced(workload)
        expect(first["correct"] and second["correct"], f"{workload}: traced runs correct")
        counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "1/graph", "B")}
        counts.add("bulk.connected_ratio")
        differ = sorted(k for k in counts if first["metrics"][k] != second["metrics"][k])
        expect(not differ, f"{workload}: counts repeat exactly between traced runs" + (f", except {differ}" if differ else ""))


if __name__ == "__main__":
    test_stream()
    test_expectations()
    test_benchmark_json()
    test_counts_repeat(sys.argv[1:] or list(workloads.WORKLOADS))
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    sys.exit(1 if FAILURES else 0)
