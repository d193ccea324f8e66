"""Bessel primitives against independent high-precision oracles, and the
one integer rule for the package's count, order and index arguments."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import jn_zeros, jv, jvp

from bessel_oracle import bessel_j, bessel_y
from diskvort import specfun
from diskvort.fields import SpectralField, norm_at
from diskvort.specfun import (
    MAX_ORDER,
    _bessel_stack,
    bessel_j_zero,
    gauss_legendre,
)
from diskvort.spectrum import ModeIndex, build_table
from table_oracle import bessel_j_zero_rows

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# values


@pytest.mark.parametrize("order", [0, 1, 2, 5, 13, 40, 64])
@pytest.mark.parametrize("x", [0.1, 1.0, 3.8317, 17.5, 80.0, 200.0])
def test_bessel_j_matches_mpmath(order, x):
    want = float(mpmath.besselj(order, mpmath.mpf(x)))
    got = bessel_j(order, x)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


@pytest.mark.parametrize("order", [0, 1, 4, 11])
@pytest.mark.parametrize("x", [0.05, 0.9, 6.2, 55.0])
def test_bessel_y_matches_mpmath(order, x):
    want = float(mpmath.bessely(order, mpmath.mpf(x)))
    got = bessel_y(order, x)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-12)


def test_bessel_j_vectorized():
    x = np.linspace(0.0, 12.0, 7)
    vals = bessel_j(3, x)
    assert vals.shape == x.shape
    for xi, vi in zip(x, vals):
        assert vi == pytest.approx(bessel_j(3, float(xi)), abs=1e-15)


def test_bessel_domain_validation():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(TypeError):
        bessel_j(1.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, float("nan"))
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(0, -2.0)


def test_bessel_stack_matches_mpmath_near_turning_points():
    # x within 1e-3 of the order on both sides, where the upward recurrence
    # (x >= n) hands over to Miller's (x < n); and a small argument
    n = np.arange(MAX_ORDER + 1)
    x = np.stack([np.maximum(n - 1e-3, 1e-3), n + 1e-3, np.full(n.size, 3.8e-3)], axis=-1)
    val, der = _bessel_stack(n, x)
    for k in range(MAX_ORDER + 1):
        for i in range(3):
            xi = mpmath.mpf(x[k, i])
            jk = mpmath.besselj(k, xi)
            djk = mpmath.besselj(k - 1, xi) - k / xi * jk
            assert abs(val[k, i] - float(jk)) <= 1e-14 * np.abs(val[k]).max(), (k, i)
            assert abs(der[k, i] - float(djk)) <= 1e-14 * np.abs(der[k]).max(), (k, i)


def test_bessel_stack_rescale_schedule_changes_no_bit():
    # Miller's overflow test runs every 332 / log2(2 top / x_min + 1)
    # orders of the batch's smallest argument, and its rescale is an exact
    # power of two: appending x = 1e-12 (a test every 6 orders in place of
    # 18) changes no bit of the other points, whose values hold mpmath's
    # wherever they are above 1e-280 (J_64(1e-3) is 4.3e-301)
    n = np.arange(MAX_ORDER + 1)
    x = np.stack([np.full(n.size, 1e-3), np.full(n.size, 0.1), np.ones(n.size), np.maximum(n - 1e-3, 1e-3)], axis=-1)
    val, der = _bessel_stack(n, x)
    with np.errstate(all="ignore"):
        batch_val, batch_der = _bessel_stack(n, np.append(x, np.full((n.size, 1), 1e-12), axis=1))
    np.testing.assert_array_equal(batch_val[:, :-1], val)
    np.testing.assert_array_equal(batch_der[:, :-1], der)
    for k in range(MAX_ORDER + 1):
        for i in range(x.shape[1]):
            xi = mpmath.mpf(x[k, i])
            jk = mpmath.besselj(k, xi)
            djk = mpmath.besselj(k - 1, xi) - k / xi * jk
            for got, want in ((val[k, i], jk), (der[k, i], djk)):
                if abs(want) > 1e-280:
                    assert abs(got - float(want)) <= 1e-13 * abs(float(want)), (k, i)


def test_bessel_stack_matches_scipy_on_mixed_rows():
    # rows of repeated and skipped orders, arguments on both sides of each
    orders = np.array([0, 0, 3, 7, 7, 20])
    x = np.linspace(0.05, 40.0, 6 * 9).reshape(6, 9)
    val, der = _bessel_stack(orders, x)
    for row, k in enumerate(orders):
        np.testing.assert_allclose(val[row], jv(k, x[row]), rtol=0, atol=1e-14)
        np.testing.assert_allclose(der[row], jvp(k, x[row]), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# recurrences (property tests)


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=MAX_ORDER - 1),
    x=st.floats(min_value=0.05, max_value=150.0, allow_nan=False),
)
def test_three_term_recurrence(order, x):
    # J_{k-1}(x) + J_{k+1}(x) = (2k/x) J_k(x); scale-relative tolerance
    lhs = bessel_j(order - 1, x) + bessel_j(order + 1, x)
    rhs = 2.0 * order / x * bessel_j(order, x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(
    order=st.integers(min_value=0, max_value=MAX_ORDER - 1),
    x=st.floats(min_value=0.05, max_value=150.0, allow_nan=False),
)
def test_derivative_identity(order, x):
    # J_k'(x) = (k/x) J_k(x) - J_{k+1}(x)
    lhs = bessel_j(order, x, derivative=True)
    rhs = order / x * bessel_j(order, x) - bessel_j(order + 1, x)
    assert abs(lhs - rhs) <= 1e-10


# ---------------------------------------------------------------------------
# zeros


@pytest.mark.parametrize("order", [0, 1, 2, 7, 23, 64])
def test_zeros_match_mpmath(order):
    for j in (1, 2, 5, 12):
        got = bessel_j_zero(order, j)
        want = float(mpmath.besseljzero(order, j))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("order", list(range(0, MAX_ORDER + 1, 8)))
def test_zeros_cross_check_scipy(order):
    got = np.array([bessel_j_zero(order, j) for j in range(1, 13)])
    want = jn_zeros(order, 12)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order,j", [(0, 1), (1, 1), (5, 3), (40, 1), (64, 20)])
def test_zero_residual_and_simplicity(order, j):
    z = bessel_j_zero(order, j)
    assert abs(bessel_j(order, z)) < 1e-11
    # simple zero: sign change across a tiny window
    eps = 1e-6 * z
    assert bessel_j(order, z - eps) * bessel_j(order, z + eps) < 0.0


def test_zero_ordering_and_interlacing():
    for order in (0, 3, 17):
        zs = [bessel_j_zero(order, j) for j in range(1, 9)]
        assert all(a < b for a, b in zip(zs, zs[1:]))
        nxt = [bessel_j_zero(order + 1, j) for j in range(1, 8)]
        for j in range(7):
            assert zs[j] < nxt[j] < zs[j + 1]


def test_zero_rows_equal_per_zero_requests():
    rows = bessel_j_zero_rows(5, 7)
    assert rows.shape == (6, 7)
    for order in range(6):
        for j in range(1, 8):
            assert rows[order, j - 1] == bessel_j_zero(order, j)


def test_zero_rows_equal_per_zero_requests_at_every_order():
    rows = bessel_j_zero_rows(MAX_ORDER, 40)
    for order in range(MAX_ORDER + 1):
        assert rows[order].tolist() == [bessel_j_zero(order, j) for j in range(1, 41)], order


def test_zero_row_searched_alone_equals_its_batch_row():
    batch = specfun._zero_search(np.arange(MAX_ORDER + 1), 30)
    for order in (0, 1, 17, 33, MAX_ORDER):
        assert specfun._zero_search([order], 30)[0].tolist() == batch[order].tolist(), order


def test_zeros_interlace_strictly():
    # alpha_{o-1,j} < alpha_{o,j} < alpha_{o-1,j+1}: a skipped or doubled zero
    # in one row breaks it, independently of how the zeros were found.  Row 0
    # is anchored (J_0's first zero, and its gaps stay below pi), and every
    # entry must be a zero of its order.
    rows = bessel_j_zero_rows(MAX_ORDER, 64)
    assert np.all(rows[:-1] < rows[1:])
    assert np.all(rows[1:, :-1] < rows[:-1, 1:])
    assert rows[0, 0] == pytest.approx(2.404825557695773, rel=1e-15)
    assert np.all(np.diff(rows[0]) < np.pi)
    assert np.max(np.abs(jv(np.arange(MAX_ORDER + 1)[:, None], rows))) < 1e-13


@pytest.mark.parametrize("order", [0, 1, 31, 63, 64])
def test_many_zeros_match_scipy(order):
    got = np.array(specfun._zero_row(order, 200))
    np.testing.assert_allclose(got, jn_zeros(order, 200), rtol=1e-12, atol=1e-12)


def test_first_zero_pins():
    assert bessel_j_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-12)
    assert bessel_j_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-12)


def test_zero_index_validation():
    with pytest.raises(ValueError):
        bessel_j_zero(0, 0)
    with pytest.raises(ValueError):
        bessel_j_zero(0, -3)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_basics():
    nodes, weights = gauss_legendre(12, 0.0, 1.0)
    assert nodes.shape == weights.shape == (12,)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert weights @ np.ones(12) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
def test_quadrature_polynomial_exactness(n):
    # exact through degree 2n-1 on (0, 2)
    nodes, weights = gauss_legendre(n, 0.0, 2.0)
    for deg in range(2 * n):
        got = weights @ nodes**deg
        want = 2.0 ** (deg + 1) / (deg + 1)
        assert got == pytest.approx(want, rel=1e-12)


def test_quadrature_smooth_integrand():
    nodes, weights = gauss_legendre(30, 0.0, math.pi)
    got = weights @ np.sin(nodes)
    assert got == pytest.approx(2.0, abs=1e-14)


# every Legendre moment sum w P_k, k < 2n, is within this of exact
MOMENT_TOL = 2e-15
RULE_SIZES = [1, 2, 3, 4, 5, 16, 36, 64, 88, 260, 600]


def moment_error(x, w) -> float:
    """max over k < 2n of |sum_i w_i P_k(x_i) - int P_k|, summed in
    np.longdouble, for a rule (x, w) on [-1, 1]."""
    ld = np.longdouble
    moments = np.asarray(w, dtype=ld) @ legvander(np.asarray(x, dtype=ld), 2 * len(x) - 1)
    moments[0] -= 2
    return float(np.max(np.abs(moments)))


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_moments_symmetry_and_nodes(n):
    x, w = gauss_legendre(n, -1.0, 1.0)
    assert moment_error(x, w) <= MOMENT_TOL
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    want, _ = leggauss(n)
    assert np.max(np.abs(x - want)) <= 2 * np.spacing(np.max(np.abs(want)))


def test_rule_newton_loop_stops_at_max_iter(monkeypatch):
    # a Legendre value that is NaN never meets the step bound, so only
    # the cap stops the loop; the uncached rule, so no cached one is
    # returned or left behind
    monkeypatch.setattr(specfun._sp, "eval_legendre", lambda n, x: np.full_like(x, np.nan))
    with pytest.raises(RuntimeError, match=rf"^Gauss-Legendre nodes for n=8 did not converge in {specfun._MAX_ITER} "):
        specfun._unit_rule.__wrapped__(8)


@pytest.mark.parametrize("n", [260, 600])
def test_rule_moments_beat_companion_matrix_rule(n):
    assert moment_error(*gauss_legendre(n, -1.0, 1.0)) < moment_error(*leggauss(n))


def test_rule_takes_numpy_integers_and_returns_fresh_arrays():
    x, w = gauss_legendre(np.int64(16), 0.0, 1.0)
    want = gauss_legendre(16, 0.0, 1.0)
    np.testing.assert_array_equal(x, want[0])
    np.testing.assert_array_equal(w, want[1])
    x[:] = w[:] = 0.0  # a caller's copy, not the cached rule
    np.testing.assert_array_equal(gauss_legendre(16, 0.0, 1.0), want)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 2.0, 1.0)


# ---------------------------------------------------------------------------
# integer arguments


def _norm_at(index):
    return norm_at(SpectralField.zeros(build_table(1, 1)), index)


_ORDER = "Bessel order must be an integer, got {!r}"
# entry point: (call of its one integer argument, a valid value, error,
# message); PolarGrid, AnnulusGeometry, the annulus counts and RunConfig
# have their own cases in test_fields, test_annulus and test_solver
INTEGER_ARGS = {
    "bessel_j-order": (lambda v: specfun.bessel_j(v, 1.0), 1, TypeError, _ORDER),
    "bessel_j_zero-order": (lambda v: bessel_j_zero(v, 1), 1, TypeError, _ORDER),
    "bessel_j_zero-j": (lambda v: bessel_j_zero(0, v), 1, ValueError,
                        "zero index must be a positive integer, got {!r}"),
    "gauss_legendre-n": (lambda v: gauss_legendre(v, 0.0, 1.0), 4, ValueError,
                         "need a positive node count, got {!r}"),
    "norm_at-index": (_norm_at, 1, ValueError, "norm index must be an integer in [-4, 4], got {!r}"),
    "ModeIndex-k": (lambda v: ModeIndex(v, 1, "cos"), 1, ValueError,
                    "angular wavenumber must be an integer, got {!r}"),
    "ModeIndex-j": (lambda v: ModeIndex(1, v, "cos"), 1, ValueError,
                    "radial index must be an integer, got {!r}"),
    "build_table-K": (lambda v: build_table(v, 2), 1, ValueError,
                      f"K must be an integer in [0, {MAX_ORDER - 1}], got {{!r}}"),
    "build_table-J": (lambda v: build_table(2, v), 1, ValueError, "J must be an integer >= 1, got {!r}"),
}


@pytest.mark.parametrize("value", [True, 1.0, 1.5])
@pytest.mark.parametrize("entry", INTEGER_ARGS)
def test_integer_arguments_reject_bools_and_floats(entry, value):
    # one rule, specfun.is_integer: Python and numpy integers, not bools
    call, good, error, message = INTEGER_ARGS[entry]
    with pytest.raises(error, match=f"^{re.escape(message.format(value))}$"):
        call(value)
    call(np.int64(good))
    call(good)


def test_zero_search_names_a_scan_short_of_its_zeros(monkeypatch):
    # a J_3 with no sign change: the scan of x = 3, 5, ..., 11 finds none
    stack = specfun._bessel_stack
    monkeypatch.setattr(specfun, "_bessel_stack", lambda orders, x: (np.abs(stack(orders, x)[0]) + 1.0, None))
    with pytest.raises(RuntimeError, match=r"^the scan of J_3 to x = 11 found 0 sign changes, 2 zeros were requested$"):
        specfun._zero_search([3], 2)


def test_zero_search_newton_loop_stops_at_max_iter(monkeypatch):
    # a stack that reads NaN after the scan never meets the step bound,
    # so only the cap stops the loop: one scan, then one call per iteration
    stack, calls = specfun._bessel_stack, []

    def nan_after_scan(orders, x):
        calls.append(len(calls))
        f, df = stack(orders, x)
        return (f, df) if len(calls) == 1 else (np.full_like(f, np.nan), np.full_like(df, np.nan))

    monkeypatch.setattr(specfun, "_bessel_stack", nan_after_scan)
    with pytest.raises(RuntimeError, match=rf"^zero search did not converge in {specfun._MAX_ITER} iterations$"):
        specfun._zero_search([1], 3)
    assert len(calls) == specfun._MAX_ITER + 1


def test_zero_search_bisects_a_newton_step_that_leaves_its_bracket(monkeypatch):
    # the first Newton evaluation returns a derivative 1e6 too small, so
    # every step leaves its bracket and is replaced by the midpoint
    stack, calls = specfun._bessel_stack, []

    def shrunk(orders, x):
        calls.append(len(calls))
        f, df = stack(orders, x)
        return (f, df * 1e-6) if len(calls) == 2 else (f, df)

    want = jn_zeros(2, 6)
    monkeypatch.setattr(specfun, "_bessel_stack", shrunk)
    np.testing.assert_allclose(specfun._zero_search([2], 6)[0], want, rtol=4e-16)
    assert len(calls) > 2
