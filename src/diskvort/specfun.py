"""Bessel evaluations, Bessel zeros, and Gauss-Legendre rules.

Everything downstream (eigenvalue tables, grid transforms, quadrature
projections) sits on the primitives in this module, so their contracts
are deliberately narrow and loudly validated:

* ``bessel_j``: the cylinder function of integer order, vectorized over
  the argument.
* ``_bessel_stack`` (private): J_n and J_n' for many orders at once, row
  i of the argument at order ``orders[i]``.  Where x >= n it runs the
  upward three-term recurrence from ``j0``/``j1``, which is stable
  there because every intermediate order is <= x; the points with
  x < n take Miller's backward recurrence, scaled by J_0 and J_1.  No
  per-order scipy ``jv`` is called.  Radial profiles, normalization
  constants and the zero search all read it.
* ``bessel_j_zero``: the j-th positive zero of J_k.  ``_zero_search``
  brackets the zeros of every requested order at once by the sign
  changes of one stack on a fixed grid of step 2 from x = max(k, 2),
  then refines all brackets together by one bracket-safeguarded Newton
  iteration: six stack calls in all, 4 ms for orders 0..33 at 24 zeros
  each, within a relative 2.5e-16 of mpmath over orders 0..64 and
  j <= 64.  A scan with too few sign changes raises instead of returning
  garbage.  ``spectrum.build_table`` calls it on the orders 1..K+1 its
  modes use; each zero depends only on its own grid cell, so the table's
  zeros equal ``bessel_j_zero``'s bit for bit.
* ``gauss_legendre``: the nodes and positive weights of an n-point rule
  on (a, b), mapped from one cached rule on [-1, 1] per n: Newton on
  scipy's compiled Legendre recurrence, O(n^2) where an eigensolve is O(n^3).
* ``is_integer``: the one test, used package-wide, that a count, order
  or index argument is an integer (Python or numpy, not a bool).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special as _sp

MAX_ORDER = 64

__all__ = [
    "MAX_ORDER",
    "bessel_j",
    "bessel_j_zero",
    "gauss_legendre",
    "is_integer",
]


def is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; bools are not."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_order(order: int) -> int:
    if not is_integer(order):
        raise TypeError(f"Bessel order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"Bessel order must be in [0, {MAX_ORDER}], got {order}")
    return int(order)


def bessel_j(order: int, x):
    """J_order(x).

    ``x`` may be a scalar or an array; the result follows numpy
    broadcasting.  Non-finite arguments are rejected.
    """
    order = _check_order(order)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j requires finite arguments")
    out = _sp.jv(order, arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


# rescale Miller's unnormalized values before they can overflow
_MILLER_BIG = 1e100


def _miller(n: np.ndarray, x: np.ndarray, j0: np.ndarray, j1: np.ndarray):
    """J_n(x) and J_{n-1}(x) at points with 0 < x < n, ``n`` nondecreasing,
    given J_0(x) and J_1(x).

    Miller's algorithm (Gautschi, SIAM Rev. 9, 1967): the backward
    recurrence f_{m-1} = (2m/x) f_m - f_{m+1} from f = (0, 1) high above
    n is stable for the minimal solution J, and the values at orders 0
    and 1 fix its scale by least squares against J_0 and J_1, which never
    vanish together.
    """
    # J_m(x) decays past m = x over a width ~ x^(1/3), so the start is that
    # many orders above n; 6 + 5.5 n^(1/3) already gives full precision
    # at x -> n for n = 1..64 (against mpmath)
    top = int(n[-1] + 10.0 + 6.0 * np.cbrt(n[-1]))
    # the points of order m are n[bounds[m]:bounds[m + 1]]
    bounds = np.searchsorted(n, np.arange(top + 3))
    fn, fnm1 = np.zeros_like(x), np.zeros_like(x)
    nxt, cur = np.zeros_like(x), np.ones_like(x)  # f_{m+1}, f_m
    two_x = 2.0 / x
    for m in range(top, -1, -1):
        fn[bounds[m] : bounds[m + 1]] = cur[bounds[m] : bounds[m + 1]]
        fnm1[bounds[m + 1] : bounds[m + 2]] = cur[bounds[m + 1] : bounds[m + 2]]
        if m == 0:
            break
        nxt, cur = cur, (m * two_x) * cur - nxt
        if np.any(np.abs(cur) > _MILLER_BIG):  # a NaN point stops no rescale
            s = np.where(np.abs(cur) > _MILLER_BIG, 1.0 / _MILLER_BIG, 1.0)
            for f in (cur, nxt, fn, fnm1):
                f *= s
    scale = (j0 * cur + j1 * nxt) / (cur * cur + nxt * nxt)
    return fn * scale, fnm1 * scale


def _bessel_stack(orders, x, precise: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """J_n(x) and J_n'(x) with n = ``orders[i]`` on row i of ``x``.

    ``orders`` is a nondecreasing integer sequence, one entry per
    leading row of ``x``; x > 0 on rows of order n >= 1.  Every row runs
    the upward recurrence J_{m+1} = (2m/x) J_m - J_{m-1} (DLMF 10.6.1)
    from J_0, J_1 until it reaches its order, so one pass serves all
    rows.  It is stable where x >= n.  The points with x < n take a
    stand-in coefficient 2m/n in that pass (bounded, their values are
    dropped) and get their values from Miller's backward recurrence
    instead.  The derivative is J_n' = J_{n-1} - (n/x) J_n (DLMF 10.6.2),
    with J_{-1} = -J_1.

    J_0 and J_1 come from scipy's j0/j1, whose error near x = 100 is a
    few 1e-15 of the envelope sqrt(2/(pi x)).  ``precise`` takes them
    from jv instead: about five times more accurate there and six times
    slower, for the few points where a relative error is amplified (the
    normalization constants and the stream lift, both at the zeros).
    """
    x = np.asarray(x, dtype=float)
    orders = np.asarray(orders, dtype=np.intp)
    n = orders.reshape((-1,) + (1,) * (x.ndim - 1))
    low = x < n
    xs = np.where(low, n, x)
    j0, j1 = (_sp.jv(0, x), _sp.jv(1, x)) if precise else (_sp.j0(x), _sp.j1(x))
    val = np.empty_like(x)
    der = np.empty_like(x)
    prev, cur = -j1, j0  # J_{m-1}, J_m on the rows not yet done
    done = 0
    for m in range(int(orders[-1]) + 1):
        stop = int(np.searchsorted(orders, m, side="right"))
        if stop > done:
            val[done:stop] = cur[: stop - done]
            der[done:stop] = prev[: stop - done]
            if m:
                der[done:stop] -= m / xs[: stop - done] * cur[: stop - done]
            prev, cur, xs = prev[stop - done :], cur[stop - done :], xs[stop - done :]
            done = stop
        if done < len(orders):
            prev, cur = cur, (2 * m / xs) * cur - prev
    if low.any():
        # boolean indexing keeps row order, so these orders are nondecreasing
        nl, xl = np.broadcast_to(n, x.shape)[low], x[low]
        jn, jnm1 = _miller(nl, xl, j0[low], j1[low])
        val[low] = jn
        der[low] = jnm1 - nl / xl * jn
    return val, der


# The scan's cell width: J_0's first zero is 2.405 and no two zeros of one
# order are closer than J_0's first gap, 3.115 (DLMF 10.21), so no zero
# lies before a row's first point and no cell holds two.
_SCAN_STEP = 2.0
# Newton stops once its step is this small relative to the iterate; the
# step is still taken, and quadratic convergence leaves ~1e-18.
_NEWTON_RTOL = 1e-9
_MAX_ITER = 100


def _zero_search(orders, count: int) -> np.ndarray:
    """The first ``count`` positive zeros of J_n for each n in ``orders``
    (nondecreasing), shape (len(orders), count).

    One ``_bessel_stack`` call samples every order on x = max(n, H) + iH,
    H = ``_SCAN_STEP``: J_n has no zero on (0, n], and x >= n takes only
    the upward recurrence.  The row runs to (count + n/2) pi, which bounds
    the count-th zero (McMahon's leading term plus pi/4), and the first
    ``count`` sign changes of a row bracket its zeros.  One Newton
    iteration over all brackets starts from their regula falsi points;
    every evaluation shrinks the bracket by sign, and a step that would
    leave it is replaced by bisection.  A zero stops iterating once its
    own step is below ``_NEWTON_RTOL``, so it depends only on its bracket,
    never on the rest of the batch.
    """
    orders = np.asarray(orders, dtype=np.intp)
    start = np.maximum(orders, _SCAN_STEP)
    n_cols = 2 + int(np.max(((count + orders / 2) * np.pi - start) // _SCAN_STEP))
    grid = start[:, None] + _SCAN_STEP * np.arange(n_cols)
    f = _bessel_stack(orders, grid)[0]
    change = (f[:, :-1] > 0.0) != (f[:, 1:] > 0.0)
    found = change.sum(axis=1)
    if np.any(found < count):
        i = np.flatnonzero(found < count)[0]
        raise RuntimeError(
            f"the scan of J_{orders[i]} to x = {grid[i, -1]:.6g} found {found[i]} sign changes, "
            f"{count} zeros were requested"
        )
    row, col = np.nonzero(change & (np.cumsum(change, axis=1) <= count))
    order = orders[row]
    lo, hi, flo, fhi = grid[row, col], grid[row, col + 1], f[row, col], f[row, col + 1]
    x = lo - flo * (hi - lo) / (fhi - flo)
    left_sign = np.sign(flo)
    active = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            if active.size == 0:
                return x.reshape(orders.size, count)
            xa = x[active]
            f, df = _bessel_stack(order[active], xa)
            right = np.sign(f) == left_sign[active]  # the zero lies right of xa
            lo[active] = np.where(right, xa, lo[active])
            hi[active] = np.where(right, hi[active], xa)
            step = f / df
            new = xa - step
            converged = np.abs(step) <= _NEWTON_RTOL * xa
            outside = ~((new > lo[active]) & (new < hi[active]) | converged)
            x[active] = np.where(outside, 0.5 * (lo[active] + hi[active]), new)
            active = active[~converged]
    raise RuntimeError(f"zero search did not converge in {_MAX_ITER} iterations")


@lru_cache(maxsize=None)
def _zero_row(order: int, count: int) -> tuple[float, ...]:
    """First ``count`` positive zeros of J_order: ``_zero_search`` of the
    one order, a scan of about (count + order/2) pi / 2 points and four or
    five Newton steps, each zero within a relative 2.5e-16 of mpmath."""
    return tuple(_zero_search([order], count)[0].tolist())


def bessel_j_zero(order: int, j: int) -> float:
    """The j-th positive zero of J_order (j = 1, 2, ...)."""
    order = _check_order(order)
    if not is_integer(j) or j < 1:
        raise ValueError(f"zero index must be a positive integer, got {j!r}")
    return _zero_row(order, int(j))[j - 1]


@lru_cache(maxsize=32)
def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule on [-1, 1], read-only: Newton on P_n from Tricomi's
    guesses over the positive half (the odd n's middle node exactly 0)
    until every step is <= 1e-10, 2 or 3 steps; then the weights
    2 (1 - x^2) / (n (P_{n-1} - x P_n))^2 at the rounded nodes, mirrored."""
    k = np.arange(1, n // 2 + 1)
    x = (1 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x, step = np.r_[x, [0.0] * (n % 2)], np.inf
    while True:
        p, q = _sp.eval_legendre(n, x), _sp.eval_legendre(n - 1, x)
        if step <= 1e-10:
            break
        dx = p * (1 - x * x) / (n * (q - x * p))
        x, step = x - dx, np.max(np.abs(dx), initial=0.0)
    w = 2 * (1 - x * x) / (n * (q - x * p)) ** 2
    x, w = np.r_[-x[: n // 2], x[::-1]], np.r_[w[: n // 2], w[::-1]]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, increasing, and weights of the n-point Gauss-Legendre rule
    on (a, b), exact through degree 2n-1: a fresh copy of ``_unit_rule(n)``
    mapped onto (a, b)."""
    if not is_integer(n) or n < 1:
        raise ValueError(f"need a positive node count, got {n!r}")
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"need finite bounds with b > a, got ({a}, {b})")
    x, w = _unit_rule(int(n))
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w
