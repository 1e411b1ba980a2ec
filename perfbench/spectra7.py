"""Library script for the ``spectra7`` workload: the batched eigensolves
have no CLI, so this runs them the way criterion 7 does at n = 7.

It builds ``bulk.connected_table(7)``, solves both spectra of every
connected graph with ``bulk.batched_spectra``, and checks the energy upper
bound and the Laplacian sandwich on all of them within the spectral
tolerance 1e-8 * max(1, n * maxdeg). The degree data the bounds need is
decoded from the masks here, not taken from the table. Prints one JSON
summary line.

Run as ``PYTHONPATH=src python3 perfbench/spectra7.py``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

N = 7


def run(out) -> None:
    from sigmat import bulk

    masks = bulk.connected_table(N).masks
    energy, mu2, mu_max = bulk.batched_spectra(N, masks)

    pairs = [(i, j) for j in range(1, N) for i in range(j)]
    bits = [((masks >> np.uint32(e)) & np.uint32(1)).astype(np.int32) for e in range(len(pairs))]
    deg = np.zeros((N, masks.size), dtype=np.int32)
    for (i, j), bit in zip(pairs, bits):
        deg[i] += bit
        deg[j] += bit
    m = deg.sum(axis=0) // 2
    st = N * (deg * deg).sum(axis=0) - 4 * m * m
    sg = np.zeros(masks.size, dtype=np.int32)
    for (i, j), bit in zip(pairs, bits):
        diff = deg[i] - deg[j]
        sg += bit * diff * diff
    dmax = deg.max(axis=0)
    dmin = deg.min(axis=0)
    tol = 1e-8 * np.maximum(1.0, float(N) * dmax)

    energy_rhs = np.sqrt(2.0 * m * N) - N * np.sqrt(dmin.astype(np.float64)) * st / (
        4.0 * (N * N * dmax * dmax + 4 * m * m)
    )
    summary = {
        "n": N,
        "graphs": int(masks.size),
        "energyViolations": int((energy > energy_rhs + tol).sum()),
        "sandwichUpperViolations": int((sg > mu_max / N * st + tol).sum()),
        "sandwichLowerViolations": int((st > N / mu2 * sg + tol).sum()),
        "energySum": float(energy.sum()),
        "mu2Sum": float(mu2.sum()),
        "muMaxSum": float(mu_max.sum()),
    }
    out.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    run(sys.stdout)
