"""Bessel derivatives and second-kind functions kept for the tests.

The package needs only J_k values at scattered points (``bessel_j``);
the annulus cross-product eigenvalue equations and the recurrence
identities in the tests also need J_k' and Y_k, Y_k'.  These take them
from scipy with the package's order and argument checks, and take J_k
itself from the package.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from diskvort import specfun


def bessel_j(order: int, x, derivative: bool = False):
    """J_order(x) from the package, or J'_order(x) with ``derivative=True``."""
    value = specfun.bessel_j(order, x)  # checks the order and the argument
    if not derivative:
        return value
    out = special.jvp(order, np.asarray(x, dtype=float), 1)
    return float(out) if np.ndim(out) == 0 else out


def bessel_y(order: int, x, derivative: bool = False):
    """Y_order(x) for x > 0 (second-kind cylinder function, annulus work)."""
    order = specfun._check_order(order)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("bessel_y requires finite arguments > 0")
    out = special.yvp(order, arr, 1) if derivative else special.yv(order, arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out
