"""The eigenvalue table as the package once built it: one row per mode
(lambda, k, parity, mode, alpha, norm), sorted on (lambda, k, parity)
with cos before sin, then the block positions ``perm`` filled mode by
mode.

``table_rows(K, J)`` returns ``(modes, lam, alpha, norm, perm)`` in the
layout of ``EigenTable``; ``table_json`` writes them as
``EigenTable.to_json`` does.  The zeros and normalization constants
come from the same (K+1, J) blocks as ``build_table``'s, so a
difference is in the ordering and gathering alone.

``bessel_j_zero_rows(max_order, count)`` is the zero block of every
order 0..max_order from one ``specfun._zero_search``; ``build_table``
searches only the orders 1..K+1, so the table's zeros are checked
against a search over a different set of rows.
"""

from __future__ import annotations

import json

import numpy as np

from diskvort import specfun
from diskvort.spectrum import ModeIndex, _norm_consts

_PARITIES = ("cos", "sin")


def bessel_j_zero_rows(max_order: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_0 .. J_max_order, one row per
    order, shape (max_order + 1, count)."""
    return specfun._zero_search(np.arange(max_order + 1), count)


def table_rows(K: int, J: int):
    alpha_block = bessel_j_zero_rows(K + 1, J)[1:]
    norm_block = _norm_consts(alpha_block)
    rows = []
    for k in range(K + 1):
        for j in range(1, J + 1):
            a = float(alpha_block[k, j - 1])
            c = float(norm_block[k, j - 1])
            for p in ("cos",) if k == 0 else _PARITIES:
                rows.append((a * a, k, _PARITIES.index(p), ModeIndex(k, j, p), a, c))
    rows.sort(key=lambda t: (t[0], t[1], t[2]))
    modes = tuple(t[3] for t in rows)
    lam, alpha, norm = (np.array([t[i] for t in rows]) for i in (0, 4, 5))
    perm = np.full((2, K + 1, J), len(modes), dtype=np.intp)
    for i, m in enumerate(modes):
        perm[_PARITIES.index(m.parity), m.k, m.j - 1] = i
    return modes, lam, alpha, norm, perm


def table_json(K: int, J: int, modes, lam, alpha, norm) -> str:
    payload = {
        "K": K,
        "J": J,
        "modes": [
            {
                "k": m.k,
                "j": m.j,
                "parity": m.parity,
                "lambda": lam[i],
                "alpha": alpha[i],
                "norm": norm[i],
            }
            for i, m in enumerate(modes)
        ],
    }
    return json.dumps(payload, indent=1)
