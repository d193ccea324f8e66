"""The annulus circulation run's propagator as the package once ran it:
the dense generator -M^-1 S, its matrix exponential over one output step,
and a loop that steps the state from c0 = M^-1 b.

``expm_readout`` has the signature of ``annulus._modal_readout``: the
read-out ``rows`` (one per row) at each viscous time nu t of ``nu_t``,
as (times, rows).  The times must be equally spaced from 0, as the run's
output times are.  Each row is read by its own dot product, as the run
read Gamma and the flux, so under the Legendre table of
``legendre_oracle`` and its rule the run gives the old numbers bit for
bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def expm_readout(M, S, b, rows, nu_t):
    gen = -np.linalg.solve(M, S)
    prop = expm(nu_t[1] * gen)
    states = [np.linalg.solve(M, b)]
    for _ in range(len(nu_t) - 1):
        states.append(prop @ states[-1])
    return np.array([[row @ state for row in rows] for state in states])
