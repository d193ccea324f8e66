"""Bessel evaluations, Bessel zeros, and Gauss-Legendre rules.

Everything downstream (eigenvalue tables, grid transforms, quadrature
projections) sits on the primitives in this module, so their contracts
are deliberately narrow and loudly validated:

* ``bessel_j``: the cylinder function of integer order, vectorized over
  the argument.
* ``_bessel_stack`` (private): J_n and J_n' for many orders at once, row
  i of the argument at order ``orders[i]``.  It splits the points once
  at x >= n.  Those run the upward three-term recurrence from
  ``j0``/``j1``, which is stable there because every intermediate order
  is <= x; the points with x < n take Miller's backward recurrence, each
  from its own order's start, scaled by J_0 and J_1 and rescaled by an
  exact power of two only as often as the smallest argument needs.
  Each part runs only over its own points, so a point's bits never
  depend on its batch.  No per-order scipy ``jv`` is called.  The grid
  stack at (K, J) = (32, 24) has 69,696 points, 23,489 of them with
  x < n; it takes about two thirds of the time of an upward pass over
  every point plus Miller's from one common start (16 against 25 ms on
  a shared 2-CPU machine), and scipy's j0/j1 are 6 ms of it.  Radial
  profiles, normalization constants and the zero search all read it.
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


# Miller's values above this power of two, about 8.7e99, are divided by
# it; an exact rescale commutes with the recurrence and the final
# normalization, so no bit depends on when it runs
_MILLER_BIG = 2.0**332


def _upward(n: np.ndarray, x: np.ndarray, j0: np.ndarray, j1: np.ndarray):
    """J_n(x) and J_n'(x) at points with x >= n, ``n`` nondecreasing, given
    J_0(x) and J_1(x), which it overwrites.

    The upward recurrence J_{m+1} = (2m/x) J_m - J_{m-1} (DLMF 10.6.1) is
    stable where every order it passes is <= x.  The step to order m + 1
    runs only over the points of order > m, a suffix, in three buffers
    rotated each order, so no order allocates.
    """
    val, der = np.empty_like(x), np.empty_like(x)
    prev, cur, nxt = np.negative(j1, out=j1), j0, np.empty_like(x)  # J_{m-1}, J_m
    ends = np.searchsorted(n, np.arange(n[-1] + 1), side="right").tolist()
    done = 0
    for m, stop in enumerate(ends):
        if stop > done:
            val[done:stop] = cur[done:stop]
            der[done:stop] = prev[done:stop]
            if m:
                der[done:stop] -= m / x[done:stop] * cur[done:stop]
            done = stop
        if done == x.size:
            break
        new = np.divide(2 * m, x[done:], out=nxt[done:])
        new *= cur[done:]
        new -= prev[done:]
        prev, cur, nxt = cur, nxt, prev
    return val, der


def _miller(n: np.ndarray, x: np.ndarray, j0: np.ndarray, j1: np.ndarray):
    """J_n(x) and J_n'(x) at points with 0 < x < n, ``n`` nondecreasing,
    given J_0(x) and J_1(x).

    Miller's algorithm (Gautschi, SIAM Rev. 9, 1967): the backward
    recurrence f_{m-1} = (2m/x) f_m - f_{m+1} from f = (0, 1) high above
    n is stable for the minimal solution J, and the values at orders 0
    and 1 fix its scale by least squares against J_0 and J_1, which never
    vanish together.

    Each point starts at its own order's start, and the step from order m
    runs only over the points started by then, a suffix, in three rotated
    buffers.  One order multiplies a point's values by at most
    G = 2 top / x_min + 1, so the overflow test runs every 332 / log2(G)
    orders (every order at least) and after the last: a point above
    ``_MILLER_BIG`` = 2^332 then is at most 2^664 and is divided by it.
    That rescale is exact, so a point's bits do not depend on the test
    spacing, hence not on its batch.
    """
    # J_m(x) decays past m = x over a width ~ x^(1/3), so the start is that
    # many orders above n; 6 + 5.5 n^(1/3) already gives full precision
    # at x -> n for n = 1..64 (against mpmath)
    start = (n + 10.0 + 6.0 * np.cbrt(n)).astype(np.intp)
    top = int(start[-1])
    # the points of order m are [bounds[m]:bounds[m + 1]], those started by
    # order m are [first[m]:]
    bounds = np.searchsorted(n, np.arange(top + 3)).tolist()
    first = np.searchsorted(start, np.arange(top + 2)).tolist()
    with np.errstate(divide="ignore"):
        every = max(1, int(332 / np.log2(2.0 * top / x.min() + 1.0)))
    fn, fnm1 = np.zeros_like(x), np.zeros_like(x)
    nxt, cur, new = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)  # f_{m+1}, f_m
    two_x = 2.0 / x
    for m in range(top, -1, -1):
        a = first[m]
        cur[a : first[m + 1]] = 1.0  # the points that start at order m
        fn[bounds[m] : bounds[m + 1]] = cur[bounds[m] : bounds[m + 1]]
        fnm1[bounds[m + 1] : bounds[m + 2]] = cur[bounds[m + 1] : bounds[m + 2]]
        if m == 0:
            break
        f = np.multiply(two_x[a:], m, out=new[a:])
        f *= cur[a:]
        f -= nxt[a:]
        nxt, cur, new = cur, new, nxt
        if (m - 1) % every == 0:  # a NaN point stops no rescale
            big = np.flatnonzero(np.maximum(np.abs(cur[a:]), np.abs(nxt[a:])) > _MILLER_BIG)
            if big.size:
                big += a
                for values in (cur, nxt, fn, fnm1):
                    values[big] /= _MILLER_BIG
    scale = (j0 * cur + j1 * nxt) / (cur * cur + nxt * nxt)
    jn = fn * scale
    return jn, fnm1 * scale - n / x * jn


def _bessel_stack(orders, x, precise: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """J_n(x) and J_n'(x) with n = ``orders[i]`` on row i of ``x``.

    ``orders`` is a nondecreasing integer sequence, one entry per
    leading row of ``x``; x > 0 on rows of order n >= 1.  The points are
    split once at x >= n and each part is compacted in row order, so by
    nondecreasing order: ``_upward`` recurs up from J_0, J_1 over the
    points with x >= n, ``_miller`` down from above n over those with
    x < n.  The derivative is J_n' = J_{n-1} - (n/x) J_n (DLMF 10.6.2),
    with J_{-1} = -J_1.  Each point's value depends only on its order and
    argument, never on the rest of the batch.  At (K, J) = (32, 24) the
    grid stack has 69,696 points, 46,207 of them with x >= n.

    J_0 and J_1 come from scipy's j0/j1, whose error near x = 100 is a
    few 1e-15 of the envelope sqrt(2/(pi x)).  ``precise`` takes them
    from jv instead: about five times more accurate there and six times
    slower, for the few points where a relative error is amplified (the
    normalization constants).
    """
    x = np.asarray(x, dtype=float)
    orders = np.asarray(orders, dtype=np.intp)
    n = np.broadcast_to(orders.reshape((-1,) + (1,) * (x.ndim - 1)), x.shape)
    seeds = (lambda z: (_sp.jv(0, z), _sp.jv(1, z))) if precise else (lambda z: (_sp.j0(z), _sp.j1(z)))
    low = x < n
    val, der = np.empty_like(x), np.empty_like(x)
    for part, recur in ((~low, _upward), (low, _miller)):
        if part.any():
            xp = x[part]
            val[part], der[part] = recur(n[part], xp, *seeds(xp))
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
    until every step is <= 1e-10, 2 or 3 steps, and at most ``_MAX_ITER``;
    then the weights 2 (1 - x^2) / (n (P_{n-1} - x P_n))^2 at the rounded
    nodes, mirrored."""
    k = np.arange(1, n // 2 + 1)
    x = (1 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x, step = np.r_[x, [0.0] * (n % 2)], np.inf
    for _ in range(_MAX_ITER):
        p, q = _sp.eval_legendre(n, x), _sp.eval_legendre(n - 1, x)
        if step <= 1e-10:
            break
        dx = p * (1 - x * x) / (n * (q - x * p))
        x, step = x - dx, np.max(np.abs(dx), initial=0.0)
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} did not converge in {_MAX_ITER} iterations")
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
