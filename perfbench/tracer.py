"""Spans and counters around calls into sigmat's layers, recorded from the
benchmark's side: sigmat itself is not modified.

Wrappers go where a function is looked up, not where it is defined:
``bounds``, ``cli``, ``oracle`` and ``extremal`` bind functions with
``from .x import f``, so e.g. ``bounds.laplacian_spectrum`` and
``cli.laplacian_spectrum`` are wrapped separately. ``oracle`` reaches
``bulk`` through the module, so ``bulk.*`` is wrapped once. Eigensolves are
counted by wrapping ``numpy.linalg.eigvalsh``, which ``spectral`` and
``bulk`` both look up at call time.

Each span is (name, start, end, parent index); spans stay in memory until
:meth:`Tracer.dump`. The traced run is single-threaded (``--shards 1``), so
one stack gives every span its parent.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

# (module, attribute, span name): timed wrappers
SPANNED = (
    ("bulk", "connected_table", "bulk.connected_table"),
    ("bulk", "batched_spectra", "bulk.batched_spectra"),
    ("cli", "search_connected", "oracle.search_connected"),
    ("cli", "verify_conjecture1", "oracle.verify_conjecture1"),
    ("oracle", "tree_sweep", "oracle.tree_sweep"),
    ("oracle", "graph_from_mask", "oracle.graph_from_mask"),
    ("oracle", "encode_graph6", "oracle.encode_graph6"),
    ("oracle", "max_bipartite_split", "extremal.max_bipartite_split"),
    ("cli", "max_bipartite_split", "extremal.max_bipartite_split"),
    ("oracle", "parse_graph6", "graph.parse_graph6"),
    ("cli", "parse_graph6", "graph.parse_graph6"),
    ("cli", "full_report", "invariants.full_report"),
    ("cli", "check_all", "bounds.check_all"),
    ("cli", "laplacian_spectrum", "spectral.laplacian_spectrum"),
    ("bounds", "laplacian_spectrum", "spectral.laplacian_spectrum"),
    ("bounds", "graph_energy", "spectral.graph_energy"),
    ("cli", "canonical_json", "cli.canonical_json"),
)

# (module, attribute, counter name): call counts only, for per-graph ratios
COUNTED = (
    ("bounds", "degree_stats", "graph.degree_stats"),
    ("bounds", "is_connected", "graph.is_connected"),
    ("bounds", "sigma_t", "invariants.sigma_t"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.table_bytes = 0

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` runs once the span is closed."""
        spans, stack, opened = self.spans, self.stack, self.open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            opened[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                opened[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> list[str]:
        """Install every wrapper; returns the attributes that were missing."""
        import numpy
        from sigmat import bounds, bulk, cli, oracle

        modules = {"bounds": bounds, "bulk": bulk, "cli": cli, "oracle": oracle}
        after = {"bulk.connected_table": self._after_table, "oracle.tree_sweep": self._after_sweep}
        missing = []
        for mod, attr, name in SPANNED:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                missing.append(f"{mod}.{attr}")
                continue
            if name == "bulk.connected_table":
                self._table_sig = inspect.signature(fn)
            setattr(modules[mod], attr, self.span(name, fn, after.get(name)))
        for mod, attr, name in COUNTED:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                missing.append(f"{mod}.{attr}")
                continue
            setattr(modules[mod], attr, self.counter(name, fn))
        numpy.linalg.eigvalsh = self._eigvalsh(numpy.linalg.eigvalsh)
        return missing

    def _eigvalsh(self, fn):
        counts, opened = self.counts, self.open

        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            matrices = 1
            for dim in shape[:-2]:
                matrices *= dim
            if opened["bulk.batched_spectra"]:
                counts["bulk.eigensolves"] += matrices
            elif opened["bounds.check_all"]:
                counts["check_all.eigensolves"] += matrices
            else:
                counts["other.eigensolves"] += matrices
            return fn(a, *args, **kwargs)

        return wrapper

    def _after_table(self, args, kwargs, table):
        bound = self._table_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n, lo, hi = bound.arguments["n"], bound.arguments["mask_lo"], bound.arguments["mask_hi"]
        if hi is None:
            hi = 1 << (n * (n - 1) // 2)
        self.counts["bulk.masks_scanned"] += hi - lo
        self.counts["bulk.masks_kept"] += int(table.masks.size)
        size = sum(v.nbytes for v in vars(table).values() if hasattr(v, "nbytes"))
        self.table_bytes = max(self.table_bytes, size)

    def _after_sweep(self, args, kwargs, sweep):
        self.counts["oracle.trees"] += sweep.trees

    # -- reduction ----------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total duration, self time, and call count."""
        spans = self.spans
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(spans):
            self_time[name] += end - start - child[idx]
        return total, self_time, calls

    def layer_metrics(self) -> dict[str, float]:
        total, self_time, calls = self.totals()
        c = self.counts
        graphs = calls["bounds.check_all"]

        def per_graph(x):
            return x / graphs if graphs else 0.0

        scanned = c["bulk.masks_scanned"]
        return {
            "bulk.connected_table.s": total["bulk.connected_table"],
            "bulk.connected_table.calls": calls["bulk.connected_table"],
            "bulk.masks_scanned": scanned,
            "bulk.connected_ratio": c["bulk.masks_kept"] / scanned if scanned else 0.0,
            "bulk.table_bytes": self.table_bytes,
            "bulk.batched_spectra.s": total["bulk.batched_spectra"],
            "bulk.eigensolves": c["bulk.eigensolves"],
            "oracle.search_connected.self_s": self_time["oracle.search_connected"],
            "oracle.verify_conjecture1.self_s": self_time["oracle.verify_conjecture1"],
            "oracle.witness_encode.s": total["oracle.graph_from_mask"] + total["oracle.encode_graph6"],
            "oracle.tree_sweep.s": total["oracle.tree_sweep"],
            "oracle.trees_per_s": c["oracle.trees"] / total["oracle.tree_sweep"] if c["oracle.trees"] else 0.0,
            "graph.parse_graph6.s": total["graph.parse_graph6"],
            "graph.parse_graph6.calls": calls["graph.parse_graph6"],
            "graph.degree_stats.per_graph": per_graph(c["graph.degree_stats"]),
            "graph.is_connected.per_graph": per_graph(c["graph.is_connected"]),
            "invariants.full_report.s": total["invariants.full_report"],
            "invariants.sigma_t.per_graph": per_graph(c["invariants.sigma_t"]),
            "spectral.laplacian_spectrum.s": total["spectral.laplacian_spectrum"],
            "spectral.graph_energy.s": total["spectral.graph_energy"],
            "spectral.eigensolves.per_graph": per_graph(c["check_all.eigensolves"]),
            "bounds.check_all.s": total["bounds.check_all"],
            "bounds.check_all.us_per_graph": per_graph(total["bounds.check_all"]) * 1e6,
            "extremal.max_bipartite_split.s": total["extremal.max_bipartite_split"],
            "cli.canonical_json.s": total["cli.canonical_json"],
        }

    def self_times(self) -> list[tuple[str, float, int]]:
        """(span name, self seconds, calls), largest self time first."""
        _, self_time, calls = self.totals()
        return sorted(((k, v, calls[k]) for k, v in self_time.items()), key=lambda r: -r[1])

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] plus the counters."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)
