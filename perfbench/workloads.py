"""The workloads: command lists, why each exists, and the layer map.

A command is a ``sigmat`` CLI argv, or ``["spectra7"]`` for the library
script in ``spectra7.py``. ``STREAM`` stands for the seeded graph6 file.
"""

from __future__ import annotations

STREAM = "{stream}"
STREAM_RECORDS = 6000
SETUP_COMMAND = ["extremal", "--family", "star", "--n", "3"]

WORKLOADS = {
    "graphs7": {
        "why": "exhaustive sweeps over all 2^21 masks at n = 7: bulk.connected_table decode, "
               "connectivity and degree tables, then the oracle reduction and witness encoding",
        "commands": [
            ["search", "--n", "7", "--objective", "max"],
            ["search", "--n", "7", "--objective", "min", "--filter", "nonregular"],
            ["conjecture", "--id", "1", "--n", "7"],
        ],
    },
    "trees9": {
        "why": "the pure-Python Pruefer loop in oracle.tree_sweep over 9^7 labelled trees; "
               "no numpy and no bulk, so a bulk change must read no change here",
        "commands": [["conjecture", "--id", "2", "--n", "9"]],
    },
    "stream": {
        "why": "a seeded graph6 stream through the scalar per-graph path: parse_graph6, "
               "invariants, bounds.check_all, dense eigensolves and canonical JSON",
        "commands": [
            ["bounds", "--file", STREAM],
            ["compute", "--file", STREAM],
            ["spectral", "--file", STREAM],
        ],
    },
    "spectra7": {
        "why": "the only caller of bulk.batched_spectra: both spectra of all 1,866,256 "
               "connected graphs at n = 7, checked against the energy bound and the sandwich",
        "commands": [["spectra7"]],
    },
}

# per-layer metric -> (end-to-end metric it should move, workloads)
LAYER_MAP = {
    "bulk.connected_table.s": ("wall_s, peak_rss_mb", "graphs7; a small share of spectra7"),
    "bulk.connected_table.calls": ("wall_s, peak_rss_mb", "graphs7"),
    "bulk.masks_scanned": ("wall_s", "graphs7, spectra7"),
    "bulk.connected_ratio": ("wall_s", "graphs7, spectra7"),
    "bulk.table_bytes": ("peak_rss_mb", "graphs7, spectra7"),
    "bulk.batched_spectra.s": ("wall_s", "spectra7"),
    "bulk.eigensolves": ("wall_s", "spectra7"),
    "oracle.search_connected.self_s": ("wall_s", "graphs7"),
    "oracle.verify_conjecture1.self_s": ("wall_s", "graphs7"),
    "oracle.witness_encode.s": ("wall_s", "graphs7"),
    "oracle.tree_sweep.s": ("wall_s", "trees9"),
    "oracle.trees_per_s": ("graphs_per_s", "trees9"),
    "graph.parse_graph6.s": ("wall_s", "stream"),
    "graph.parse_graph6.calls": ("wall_s", "stream"),
    "graph.degree_stats.per_graph": ("wall_s", "stream"),
    "graph.is_connected.per_graph": ("wall_s", "stream"),
    "invariants.full_report.s": ("wall_s", "stream"),
    "invariants.sigma_t.per_graph": ("wall_s", "stream"),
    "spectral.laplacian_spectrum.s": ("wall_s", "stream"),
    "spectral.graph_energy.s": ("wall_s", "stream"),
    "spectral.eigensolves.per_graph": ("wall_s", "stream"),
    "bounds.check_all.s": ("wall_s", "stream"),
    "bounds.check_all.us_per_graph": ("wall_s", "stream"),
    "extremal.max_bipartite_split.s": ("none: a control, about 0", "graphs7"),
    "cli.canonical_json.s": ("wall_s", "stream"),
    "cli.stdout_bytes": ("wall_s", "stream"),
    "cli.import_s": ("setup_s", "all"),
    "trace.wall_s": ("none: traced run", "all"),
    "trace.untraced_wall_s": ("none: in-process reference for the overhead", "all"),
    "trace.overhead_ratio": ("none: tracing overhead", "all"),
}


def commands(workload: str, stream_path: str) -> list[list[str]]:
    return [[stream_path if a == STREAM else a for a in cmd] for cmd in WORKLOADS[workload]["commands"]]
