"""Shared fixtures: the heavy exhaustive sweeps are built once per session."""

import pytest

from sigmat import bulk


@pytest.fixture(scope="session")
def mask_tables():
    """Connected mask tables for every internally enumerable order."""
    return {n: bulk.connected_table(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def spectra7(mask_tables):
    """Batched energy / mu2 / mu_max for every connected graph on 7 vertices."""
    table = mask_tables[7]
    energy, mu2, mu_max = bulk.batched_spectra(7, table.masks)
    return {"energy": energy, "mu2": mu2, "mu_max": mu_max}


@pytest.fixture(scope="session")
def mask_sigma_columns(mask_tables):
    """sigma and the generalised k-partite flag of every table row, by order."""
    return {n: bulk.sigma_columns(table) for n, table in mask_tables.items()}
