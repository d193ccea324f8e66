"""Bessel evaluations, Bessel zeros, and Gauss-Legendre rules.

Everything downstream (eigenvalue tables, grid transforms, quadrature
projections) sits on the three primitives in this module, so their
contracts are deliberately narrow and loudly validated:

* ``bessel_j`` / ``bessel_y``: cylinder functions of integer order,
  vectorized over the argument.
* ``bessel_j_zero``: the j-th positive zero of J_k, bracketed by strict
  interlacing with the zeros of J_{k-1} (McMahon estimates seed order 0)
  and polished to full double precision.  A bracket that fails to change
  sign raises instead of silently returning garbage.
  ``bessel_j_zero_rows`` returns the leading zeros of every order up to
  a maximum, computing each order's row once.
* ``gauss_legendre``: an n-point rule on (a, b) with positive weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special as _sp
from scipy.optimize import brentq

MAX_ORDER = 64

__all__ = [
    "MAX_ORDER",
    "QuadratureRule",
    "bessel_j",
    "bessel_y",
    "bessel_j_zero",
    "bessel_j_zero_rows",
    "gauss_legendre",
]


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)):
        raise TypeError(f"Bessel order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"Bessel order must be in [0, {MAX_ORDER}], got {order}")
    return int(order)


def bessel_j(order: int, x, derivative: bool = False):
    """J_order(x), or J'_order(x) with ``derivative=True``.

    ``x`` may be a scalar or an array; the result follows numpy
    broadcasting.  Non-finite arguments are rejected.
    """
    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j requires finite arguments")
    out = _sp.jvp(order, arr, 1) if derivative else _sp.jv(order, arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def bessel_y(order: int, x, derivative: bool = False):
    """Y_order(x) for x > 0 (second-kind cylinder function, annulus work)."""
    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("bessel_y requires finite arguments > 0")
    out = _sp.yvp(order, arr, 1) if derivative else _sp.yv(order, arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _mcmahon_zero(order: int, j: int) -> float:
    # Two-term McMahon expansion; only used to seed order 0, where it is
    # accurate to ~1e-3 already for j = 1.
    beta = (j + 0.5 * order - 0.25) * np.pi
    mu = 4.0 * order * order
    return beta - (mu - 1.0) / (8.0 * beta)


def _refine(order: int, lo: float, hi: float) -> float:
    flo = _sp.jv(order, lo)
    fhi = _sp.jv(order, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RuntimeError(
            f"bracket failure for zero of J_{order} on [{lo:.6g}, {hi:.6g}]: "
            f"no sign change (f(lo)={flo:.3g}, f(hi)={fhi:.3g}); "
            "the search window does not isolate the requested zero"
        )
    root = brentq(
        lambda t: _sp.jv(order, t), lo, hi, xtol=1e-14, rtol=4.0 * np.finfo(float).eps
    )
    # Two Newton steps squeeze out the last ulps; J' is well conditioned at
    # simple zeros.
    for _ in range(2):
        f = _sp.jv(order, root)
        df = _sp.jvp(order, root, 1)
        if df != 0.0:
            step = f / df
            if abs(step) < 1e-8 * max(1.0, abs(root)):
                root -= step
    return float(root)


@lru_cache(maxsize=None)
def _zero_row(order: int, count: int) -> tuple[float, ...]:
    """First ``count`` positive zeros of J_order.

    Order 0 brackets come from McMahon estimates (spacing ~ pi makes a
    +-0.5pi window safe); higher orders use strict interlacing,
    alpha_{k,j} in (alpha_{k-1,j}, alpha_{k-1,j+1}), which is guaranteed
    to change sign at the endpoints.
    """
    if order == 0:
        roots = []
        for j in range(1, count + 1):
            guess = _mcmahon_zero(0, j)
            roots.append(_refine(0, guess - 0.45 * np.pi, guess + 0.45 * np.pi))
        return tuple(roots)
    prev = _zero_row(order - 1, count + 1)
    return tuple(_refine(order, prev[j], prev[j + 1]) for j in range(count))


def bessel_j_zero(order: int, j: int) -> float:
    """The j-th positive zero of J_order (j = 1, 2, ...)."""
    order = _check_order(order)
    if not isinstance(j, (int, np.integer)) or j < 1:
        raise ValueError(f"zero index must be a positive integer, got {j!r}")
    return _zero_row(order, int(j))[j - 1]


def bessel_j_zero_rows(max_order: int, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_0 .. J_max_order, one row per
    order, shape (max_order + 1, count).

    The interlacing recursion asks order o-1 for one zero more than
    order o, so rows of length count + max_order - o, built from order 0
    up, compute each order once.  A row's leading zeros do not depend on
    its length, so every entry equals ``bessel_j_zero`` bit for bit.
    """
    max_order = _check_order(max_order)
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"zero count must be a positive integer, got {count!r}")
    count = int(count)
    return np.array([_zero_row(o, count + max_order - o)[:count] for o in range(max_order + 1)])


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights of a quadrature rule on (a, b), nodes increasing."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    """n-point Gauss-Legendre rule on (a, b); exact through degree 2n-1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need a positive node count, got {n!r}")
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"need finite bounds with b > a, got ({a}, {b})")
    x, w = leggauss(int(n))
    half = 0.5 * (b - a)
    nodes = half * x + 0.5 * (a + b)
    weights = half * w
    return QuadratureRule(nodes=nodes, weights=weights, a=float(a), b=float(b))
