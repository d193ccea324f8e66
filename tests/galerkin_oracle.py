"""The annulus Galerkin spectra as the package once assembled them: every
form and every constraint null space rebuilt at each angular mode k.

``galerkin_spectra(geom, n_poly, k_max)`` takes the package's Legendre
table and constraint rows and returns the fields of
``annulus.SpectraResult`` as a dict.  It calls scipy's ``null_space``
and ``eigh`` itself, 3 (k_max + 1) times each, so a test that wraps the
package's bindings counts the package's calls only.  The package builds
each space's null space once for k = 0 and once for every k >= 1, and
its gradient and mass forms once per call; its spectra equal these bit
for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh, null_space

from diskvort.annulus import _N_EIGS, _constraint_rows, _legendre_tables


def galerkin_spectra(geom, n_poly: int = 24, k_max: int = 4) -> dict:
    rq, wq, (T0, T1, T2), ends = _legendre_tables(n_poly, geom.r_inner)
    per_S, per_V, per_Z = {}, {}, {}
    for k in range(k_max + 1):
        lap = T2 + T1 / rq - (k * k) * T0 / rq**2
        grad_w = wq * rq
        G = (T1 * grad_w) @ T1.T + (k * k) * ((T0 * (wq / rq)) @ T0.T)
        D = (lap * grad_w) @ lap.T
        M2 = (T0 * grad_w) @ T0.T
        for kind, per in (("S", per_S), ("Z", per_Z)):
            N = null_space(_constraint_rows(ends, kind, k))
            per[k] = np.sort(eigh(N.T @ D @ N, N.T @ G @ N, eigvals_only=True))[:_N_EIGS]
        N_V = null_space(_constraint_rows(ends, "V", k))
        hs = [np.ones_like(rq)] if k == 0 else [rq**k, rq ** (-k)]
        Hh = np.array([[float(np.sum(grad_w * a * b)) for b in hs] for a in hs])
        Ch = np.array([(T0 * grad_w) @ h for h in hs]).T
        MP = M2 - Ch @ np.linalg.solve(Hh, Ch.T)
        mu = np.sort(eigh(N_V.T @ MP @ N_V, N_V.T @ G @ N_V, eigvals_only=True))
        per_V[k] = np.sort(1.0 / mu[mu > 0][-_N_EIGS:])
    return {
        "lambda_S": min(float(v[0]) for v in per_S.values()),
        "lambda_V": min(float(v[0]) for v in per_V.values()),
        "lambda_Z": min(float(v[0]) for v in per_Z.values()),
        "per_mode_S": per_S,
        "per_mode_V": per_V,
        "per_mode_Z": per_Z,
    }
