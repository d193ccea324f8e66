"""Readers of the files the package writes, and the JSON form of a
spectral field, kept for the round-trip tests.

The package writes grid samples as CSV (``GridField.to_csv``) and the
eigenvalue table as JSON (``EigenTable.to_json``, the output of the
``spectrum`` subcommand) but reads neither back, and nothing in it
serializes a spectral field.
"""

from __future__ import annotations

import json

import numpy as np

from diskvort.fields import GridField, SpectralField
from diskvort.spectrum import EigenTable, ModeIndex


def grid_field_from_csv(grid, path) -> GridField:
    """The GridField that ``GridField.to_csv`` wrote to ``path``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != grid.n_radial * grid.n_angular:
        raise ValueError("csv row count does not match grid size")
    vals = data[:, 2].reshape(grid.n_radial, grid.n_angular)
    return GridField(grid, vals)


def table_from_json(text: str) -> EigenTable:
    """The EigenTable that ``EigenTable.to_json`` wrote, from its alpha
    and norm blocks (K+1, J) filled mode by mode at (k, j-1)."""
    payload = json.loads(text)
    alpha = np.full((payload["K"] + 1, payload["J"]), np.nan)
    norm = alpha.copy()
    for d in payload["modes"]:
        alpha[d["k"], d["j"] - 1] = d["alpha"]
        norm[d["k"], d["j"] - 1] = d["norm"]
    return EigenTable(alpha, norm)


def field_to_json(field: SpectralField) -> str:
    rows = [
        {"k": m.k, "j": m.j, "parity": m.parity, "coeff": field.coeffs[i]}
        for i, m in enumerate(field.table.modes)
    ]
    return json.dumps(rows, indent=1)


def field_from_json(table: EigenTable, text: str, kind: str = "vorticity") -> SpectralField:
    rows = json.loads(text)
    c = np.zeros(len(table))
    for row in rows:
        m = ModeIndex(row["k"], row["j"], row["parity"])
        c[table.position(m)] = row["coeff"]
    return SpectralField(table, c, kind)
