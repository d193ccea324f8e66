"""Eigenvalue table: pins, ordering, normalization, membership."""

import json

import mpmath
import numpy as np
import pytest
from scipy import special

from diskvort.fields import PolarGrid
from diskvort.pressure import _radial_mesh
from diskvort.specfun import MAX_ORDER, bessel_j_zero
from diskvort.spectrum import (
    EigenTable,
    ModeIndex,
    build_table,
    radial_profiles,
)
from serialization import table_from_json
from table_oracle import gram_residuals, table_json, table_rows
from transform_oracle import eigenfunction_eval

mpmath.mp.dps = 30


@pytest.fixture(scope="module")
def table():
    return build_table(8, 8)


def membership_moments(table):
    """Per-mode |(e, h)| in table order, h the unit harmonic of the mode's
    symmetry: the moment map of the solver's drift guard,
    ``PolarGrid.project_radial`` of ``harm``, on check 2's radial rule of
    ceil(alpha_max) + 24 nodes."""
    grid = PolarGrid(table, n_radial=int(np.ceil(table.alpha.max())) + 24)
    return table.from_blocks(np.abs(grid.project_radial(grid.harm)))


def test_smallest_eigenvalue_pin(table):
    # square of the first positive zero of J_1
    want = float(mpmath.besseljzero(1, 1) ** 2)
    assert table.lambda_min == pytest.approx(want, rel=1e-14)
    assert table.lambda_min == pytest.approx(14.6819706421, rel=1e-10)


def test_mode_count_and_indexing(table):
    # k = 0 contributes J modes, each k >= 1 contributes 2J
    assert len(table) == 8 + 2 * 8 * 8
    m = ModeIndex(3, 2, "sin")
    n = table.position(m)
    assert table.modes[n] == m
    assert m in table.modes
    assert ModeIndex(9, 1, "cos") not in table.modes
    for outside in (ModeIndex(9, 1, "cos"), ModeIndex(1, 9, "sin")):
        with pytest.raises(KeyError, match=r"not in table \(K=8, J=8\)"):
            table.position(outside)


def test_eigenvalues_sorted_with_parity_ties(table):
    assert np.all(np.diff(table.lam) >= 0)
    for i in range(len(table) - 1):
        a, b = table.modes[i], table.modes[i + 1]
        if table.lam[i] == table.lam[i + 1] and (a.k, a.j) == (b.k, b.j):
            assert (a.parity, b.parity) == ("cos", "sin")


TABLE_SIZES = [(K, J) for K in (0, 1, 4, 8, 16, 32, 63) for J in (1, 2, 8, 24)] + [(8, 40)]


@pytest.mark.parametrize("K,J", TABLE_SIZES)
def test_table_matches_per_mode_oracle(K, J):
    # the block construction orders and gathers exactly as the per-mode sort did
    table = build_table(K, J)
    modes, lam, alpha, norm, perm = table_rows(K, J)
    assert table.modes == modes
    for got, want in [(table.lam, lam), (table.alpha, alpha), (table.norm, norm), (table.perm, perm)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert table.to_json() == table_json(K, J, modes, lam, alpha, norm)


def test_large_table_zeros_bit_identical_to_per_zero_requests():
    # build_table searches the orders 1..K+1 in one batch; the per-zero
    # requests search one order at a time through their own cache rows
    big = build_table(32, 24)
    want = np.array([bessel_j_zero(m.k + 1, m.j) for m in big.modes])
    assert np.array_equal(big.alpha, want)
    assert np.array_equal(big.lam, want * want)


def test_top_order_table_zeros_match_mpmath():
    # K = MAX_ORDER - 1 needs zeros of J_MAX_ORDER, the largest order the
    # zero search and the recurrences support
    big = build_table(MAX_ORDER - 1, 3)
    for k, j in [(0, 1), (31, 2), (MAX_ORDER - 2, 3), (MAX_ORDER - 1, 1), (MAX_ORDER - 1, 3)]:
        want = float(mpmath.besseljzero(k + 1, j))
        assert big.alpha[big.perm[0, k, j - 1]] == pytest.approx(want, rel=1e-13)
    assert np.all(np.isfinite(big.norm))
    with pytest.raises(ValueError, match=r"^K must be an integer in \[0, 63\], got 64$"):
        build_table(MAX_ORDER, 1)


def test_eigenvalues_match_bessel_zeros(table):
    for i, m in enumerate(table.modes):
        want = float(mpmath.besseljzero(m.k + 1, m.j))
        assert table.alpha[i] == pytest.approx(want, rel=1e-13)
        assert table.lam[i] == pytest.approx(want * want, rel=1e-13)


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(-1, 1, "cos")
    with pytest.raises(ValueError):
        ModeIndex(0, 0, "cos")
    with pytest.raises(ValueError):
        ModeIndex(0, 1, "sin")
    with pytest.raises(ValueError):
        ModeIndex(1, 1, "tan")


def test_build_table_validation():
    with pytest.raises(ValueError, match=r"^K must be an integer in \[0, 63\], got -1$"):
        build_table(-1, 4)
    with pytest.raises(ValueError, match=r"^J must be an integer >= 1, got 0$"):
        build_table(4, 0)
    for alpha, norm in [(np.ones((3, 2)), np.ones((3, 3))), (np.ones(4), np.ones(4)), (np.ones((1, 0)),) * 2]:
        with pytest.raises(ValueError, match="^inconsistent table arrays$"):
            EigenTable(alpha, norm)


def test_sign_convention(table):
    # radial profile positive at r = 1/2 on the cosine ray
    for i, m in enumerate(table.modes):
        if m.parity == "sin":
            continue
        v = eigenfunction_eval(table, i, 0.5, 0.0)
        assert v > 0.0 or abs(v) < 1e-14


def test_eigenfunction_boundary_values(table):
    # J_k(alpha) != 0 since alpha is a zero of J_{k+1}: modes do NOT
    # vanish at r = 1 (these are vorticities, not streams)
    theta = np.linspace(0.0, 2 * np.pi, 17)
    vals = eigenfunction_eval(table, ModeIndex(0, 1, "cos"), np.ones_like(theta), theta)
    assert np.all(np.abs(vals) > 1e-3)


def test_eigenfunction_eval_domain(table):
    with pytest.raises(ValueError):
        eigenfunction_eval(table, 0, 1.5, 0.0)
    with pytest.raises(ValueError):
        eigenfunction_eval(table, 0, -0.1, 0.0)
    with pytest.raises(IndexError):
        eigenfunction_eval(table, len(table), 0.5, 0.0)


def test_normalization_and_moments(table):
    normalization, orthogonality = gram_residuals(table)
    assert np.max(normalization) < 1e-12
    assert np.max(membership_moments(table)) < 1e-12
    assert orthogonality < 1e-12


def test_membership_moments_off_the_zeros_match_the_closed_form():
    # on the true table the moments are rounding (check 2 reads 1e-15),
    # so a scale on them shows only where alpha is off the zeros of
    # J_{k+1}: there int e h dA = c c_k J_{k+1}(alpha) / alpha times the
    # angular integral, pi, or 2 pi at k = 0.  The map is the one behind
    # step's drift guard and check 7, so this is its closed-form test
    base = build_table(4, 3)
    alpha = base.alpha[base.perm[0]] + 0.37
    norm = base.norm[base.perm[0]]
    detuned = EigenTable(alpha, norm)
    k = np.array([m.k for m in detuned.modes])
    a = detuned.alpha
    c_k = np.where(k == 0, 1.0 / np.sqrt(np.pi), np.sqrt((2.0 * k + 2.0) / np.pi))
    angular = np.where(k == 0, 2.0 * np.pi, np.pi)
    want = np.abs(angular * detuned.norm * c_k * special.jv(k + 1, a) / a)
    assert want.min() > 1e-3
    np.testing.assert_allclose(membership_moments(detuned), want, rtol=1e-12)


def test_helmholtz_residual(table):
    # -Laplacian e = lambda e, checked by second-order finite differences
    # away from the origin
    m = ModeIndex(2, 3, "cos")
    n = table.position(m)
    lam = table.lam[n]
    r0, t0, h = 0.55, 0.9, 1e-4

    def f(r, t):
        return eigenfunction_eval(table, n, r, t)

    frr = (f(r0 + h, t0) - 2 * f(r0, t0) + f(r0 - h, t0)) / h**2
    fr = (f(r0 + h, t0) - f(r0 - h, t0)) / (2 * h)
    ftt = (f(r0, t0 + h) - 2 * f(r0, t0) + f(r0, t0 - h)) / h**2
    lap = frr + fr / r0 + ftt / r0**2
    assert -lap == pytest.approx(lam * f(r0, t0), rel=1e-5)


def test_json_round_trip(table):
    text = table.to_json()
    back = table_from_json(text)
    assert back.K == table.K and back.J == table.J
    assert back.modes == table.modes
    for name in ("lam", "alpha", "norm", "perm"):
        np.testing.assert_array_equal(getattr(back, name), getattr(table, name))
    assert back.to_json() == text
    payload = json.loads(text)
    assert payload["modes"][0]["lambda"] == table.lam[0]


def test_radial_profiles_match_scipy_derivatives(table):
    # value and d_r of both kinds against scipy's Bessel derivatives; the
    # pressure layer's stream d_rr by the Bessel equation is checked in
    # test_pressure.test_stream_d_rr_matches_scipy
    from scipy import special

    r = np.linspace(0.05, 1.0, 23)
    prof, harm = radial_profiles(table, r)
    assert prof.shape == (2, 2, table.K + 1, table.J, r.size)
    assert harm.shape == (2, table.K + 1, r.size)
    for i, m in enumerate(table.modes):
        k, a, c = m.k, table.alpha[i], table.norm[i]
        lift = (r**k, k * r ** max(k - 1, 0))
        for order in range(2):
            bessel = c * a**order * special.jvp(k, a * r, order)
            tol = 1e-13 * a**order
            np.testing.assert_allclose(prof[order, 0, k, m.j - 1], bessel, rtol=0, atol=tol)
            stream = bessel - c * special.jv(k, a) * lift[order]
            np.testing.assert_allclose(prof[order, 1, k, m.j - 1], stream, rtol=0, atol=tol)
    for k in range(table.K + 1):
        ck = np.sqrt((2.0 * k + 2.0) / np.pi) if k else 1.0 / np.sqrt(np.pi)
        np.testing.assert_allclose(harm[0, k], ck * r**k, rtol=1e-15, atol=0)
        np.testing.assert_allclose(harm[1, k], ck * k * r ** max(k - 1, 0), rtol=1e-15, atol=0)


def test_radial_profiles_scalar_radius():
    # a scalar r is one radius: the same numbers and shapes as a 1-element
    # array, at J = K + 1, where the k and j axes could be confused
    K, J = 4, 5
    big = build_table(K, J)
    prof, harm = radial_profiles(big, 0.7)
    want_prof, want_harm = radial_profiles(big, np.array([0.7]))
    assert prof.shape == (2, 2, K + 1, J, 1) and harm.shape == (2, K + 1, 1)
    np.testing.assert_array_equal(prof, want_prof)
    np.testing.assert_array_equal(harm, want_harm)


@pytest.mark.parametrize("tiny", [0.0, 1e-200])
def test_radial_profiles_pointwise_at_tiny_radii(table, tiny):
    # a radius where Miller's recurrence turns NaN leaves the rest of its
    # batch bit-identical; the NaN once stopped their rescaling, moving
    # the profiles at 2.131e-5 and 1e-5 by up to 267
    r = np.array([2.131e-5, 1e-5, 0.3])
    want = radial_profiles(table, r)
    with np.errstate(all="ignore"):
        got = radial_profiles(table, np.append(r, tiny))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g[..., :3], w)


def _profile_cases():
    nodes, qpts, _ = _radial_mesh(256)
    for K, J in [(0, 1), (4, 12), (8, 8), (32, 24), (63, 2)]:
        yield f"grid-{K}-{J}", K, J, np.append(1e-3, PolarGrid(build_table(K, J)).r)
    yield "pressure-qpts", 4, 12, qpts
    yield "pressure-mids", 4, 12, 0.5 * (nodes[:-1] + nodes[1:])


@pytest.mark.parametrize("name,K,J,r", list(_profile_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_radial_profiles_match_mpmath(name, K, J, r):
    # value and d_r of both kinds within 1e-14 of each row's max, against
    # mpmath at 30 digits, on a sample of every order: the first and last
    # radial index and one more, at the smallest, the largest and two
    # more radii
    big = build_table(K, J)
    prof, _ = radial_profiles(big, r)
    rng = np.random.default_rng(K * 100 + J + r.size)
    for k in range(K + 1):
        for j in sorted({0, J - 1, int(rng.integers(J))}):
            pos = big.perm[0, k, j]
            a, c = mpmath.mpf(big.alpha[pos]), mpmath.mpf(big.norm[pos])
            lift = mpmath.besselj(k, a)
            for i in sorted({0, r.size - 1, *rng.integers(r.size, size=2).tolist()}):
                ri = mpmath.mpf(r[i])
                jk = mpmath.besselj(k, a * ri)
                djk = mpmath.besselj(k - 1, a * ri) - k / (a * ri) * jk
                want = {
                    (0, 0): c * jk,
                    (1, 0): c * a * djk,
                    (0, 1): c * (jk - lift * ri**k),
                    (1, 1): c * (a * djk - k * lift * ri ** (k - 1)),
                }
                for (order, kind), w in want.items():
                    row = prof[order, kind, k, j]
                    err = abs(row[i] - float(w))
                    assert err <= 1e-14 * np.abs(row).max(), (name, order, kind, k, j, i)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: the k = 30 d_r rows read 1.0766e-14 at node 65 (x = 72.94, j index 13) "
    "and 1.0337e-14 at node 51 (j index 22) of the row max, against 1e-14",
)
def test_radial_profiles_match_mpmath_at_every_radius():
    # the weakest rows of the every-radius sweep on the (32, 24) grid:
    # value and d_r of both kinds at k = 30, 0-based radial indices 13
    # and 22, within 1e-14 of each row's max, against mpmath at 30 digits
    big, k = build_table(32, 24), 30
    r = PolarGrid(big).r
    prof, _ = radial_profiles(big, r)
    worst = []
    for j in (13, 22):
        pos = big.perm[0, k, j]
        a, c = mpmath.mpf(big.alpha[pos]), mpmath.mpf(big.norm[pos])
        lift = mpmath.besselj(k, a)
        for i, ri in enumerate(map(mpmath.mpf, r)):
            jk = mpmath.besselj(k, a * ri)
            djk = mpmath.besselj(k - 1, a * ri) - k / (a * ri) * jk
            want = {
                (0, 0): c * jk,
                (1, 0): c * a * djk,
                (0, 1): c * (jk - lift * ri**k),
                (1, 1): c * (a * djk - k * lift * ri ** (k - 1)),
            }
            for (order, kind), w in want.items():
                row = prof[order, kind, k, j]
                err = abs(row[i] - float(w)) / np.abs(row).max()
                if err > 1e-14:
                    worst.append((err, order, kind, j, i))
    assert worst == [], max(worst)


@pytest.mark.parametrize("K,J", [(8, 8), (63, 3)])
def test_table_lift_is_norm_times_bessel_at_the_zero(K, J):
    # the table's exact lift coefficient, sign from the interlacing of the
    # zeros of J_k and J_{k+1}, is c J_k(alpha) by mpmath
    big = build_table(K, J)
    for i, m in enumerate(big.modes):
        want = mpmath.mpf(big.norm[i]) * mpmath.besselj(m.k, mpmath.mpf(big.alpha[i]))
        assert abs(big.lift[i] - float(want)) <= 1e-14 * abs(float(want)), m
    assert set(np.abs(big.lift)) == {1.0 / np.sqrt(np.pi), np.sqrt(2.0 / np.pi)}


def test_radial_profiles_bessel_calls_per_order(table, monkeypatch):
    from diskvort import specfun, spectrum

    per_order, stacks = [], []
    real_j, real_stack = specfun.bessel_j, spectrum._bessel_stack

    def counting(order, x):
        per_order.append(order)
        return real_j(order, x)

    def counting_stack(orders, x, **kw):
        stacks.append(list(orders))
        return real_stack(orders, x, **kw)

    monkeypatch.setattr(spectrum, "bessel_j", counting, raising=False)
    monkeypatch.setattr(spectrum, "_bessel_stack", counting_stack)
    radial_profiles(table, np.linspace(0.1, 1.0, 5))
    # no per-order calls: one stack of all orders at alpha r; the lift's
    # J_k(alpha) is the table's
    assert per_order == []
    assert stacks == [list(range(table.K + 1))]
