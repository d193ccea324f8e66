"""Advection term and elliptic correction."""

import re

import numpy as np
import pytest

from diskvort.fields import (
    GridField,
    PolarGrid,
    SpectralField,
    biot_savart,
    from_grid,
    norm_at,
    to_grid,
)
from diskvort.nonlinear import (
    _advect,
    advection,
    elliptic_correction,
    elliptic_map,
    velocity_max,
)
from diskvort.spectrum import ModeIndex, build_table
from harmonic_oracle import disk_harmonic_values
from transform_oracle import (
    advection_time_derivative,
    elliptic_stream_values,
    from_grid_groups,
    to_grid_groups,
)


@pytest.fixture(scope="module")
def table():
    return build_table(5, 5)


@pytest.fixture(scope="module")
def grid(table):
    return PolarGrid(table)


@pytest.fixture(scope="module")
def fine_grid(table):
    # oversized for triple-product quadrature in pairing checks
    return PolarGrid(table, n_radial=3 * table.J + 2 * table.K + 12)


def random_v0_field(table, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(table)) / table.lam
    f = SpectralField(table, c, "vorticity")
    return f * (1.0 / norm_at(f, 0))


def random_rows(rng, degree):
    """Random cos/sin rows (2, degree+1), zero where sin(0 theta) sits."""
    return np.stack([rng.standard_normal(degree + 1), np.r_[0.0, rng.standard_normal(degree)]])


def advection_values(omega, grid):
    """Lambda sampled by the solver's own advection kernel, as check 8 takes it."""
    table = omega.table
    return _advect(table.to_blocks(omega.coeffs), grid)[3]


def raw_l2_norm(omega, grid):
    """Grid L^2 norm of the unprojected advection term."""
    return np.sqrt(grid.integrate(advection_values(omega, grid) ** 2))


def advection_values_oracle(omega, grid):
    psi = biot_savart(omega)
    dpsi_r, dpsi_t = to_grid_groups(psi, grid, "d_r"), to_grid_groups(psi, grid, "d_theta")
    dom_r, dom_t = to_grid_groups(omega, grid, "d_r"), to_grid_groups(omega, grid, "d_theta")
    return (dpsi_r * dom_t - dpsi_t * dom_r) / grid.r[:, None]


# ---------------------------------------------------------------------------
# advection


def test_radial_field_is_steady(table, grid):
    c = np.zeros(len(table))
    for j in range(1, table.J + 1):
        c[table.position(ModeIndex(0, j, "cos"))] = 1.0 / j
    omega = SpectralField(table, c, "vorticity")
    res = advection(omega, grid)
    assert norm_at(res.projected, 0) < 1e-10
    assert np.linalg.norm(res.harmonic) < 1e-10
    assert raw_l2_norm(omega, grid) < 1e-10


def test_single_nonradial_mode_not_steady(table, grid):
    omega = SpectralField.from_mode(table, ModeIndex(1, 1, "cos"))
    assert raw_l2_norm(omega, grid) > 1e-3


def test_parseval_inequality(table, grid):
    for seed in range(5):
        omega = random_v0_field(table, seed)
        res = advection(omega, grid)
        lhs = norm_at(res.projected, 0) ** 2 + np.sum(res.harmonic**2)
        assert lhs <= raw_l2_norm(omega, grid) ** 2 + 1e-8


def test_skew_symmetry_pairing(table, fine_grid):
    # <Lambda, psi> = 0: advection cannot change the V_{-1} energy
    for seed in range(20):
        omega = random_v0_field(table, seed)
        lam_vals = advection_values(omega, fine_grid)
        psi_vals = to_grid(biot_savart(omega), fine_grid).values
        pairing = abs(fine_grid.integrate(lam_vals * psi_vals))
        assert pairing <= 1e-8 * norm_at(omega, 0) ** 3


def test_mean_conservation(table, fine_grid):
    for seed in range(10):
        omega = random_v0_field(table, seed + 100)
        lam_vals = advection_values(omega, fine_grid)
        assert abs(fine_grid.integrate(lam_vals)) < 1e-9


def test_two_mode_refined_grid_oracle(table, grid):
    modes = (ModeIndex(0, 1, "cos"), ModeIndex(1, 1, "cos"))
    omega = SpectralField(table, sum(SpectralField.from_mode(table, m).coeffs for m in modes), "vorticity")
    res = advection(omega, grid)
    fine = PolarGrid(table, n_radial=4 * grid.n_radial, n_angular=4 * grid.n_angular)
    ref = advection(omega, fine)
    np.testing.assert_allclose(res.projected.coeffs, ref.projected.coeffs, atol=1e-6)
    assert np.linalg.norm(res.harmonic - ref.harmonic) < 1e-6


def test_advection_validation(table, grid):
    psi = biot_savart(random_v0_field(table, 1))
    with pytest.raises(ValueError):
        advection(psi, grid)
    other = build_table(5, 5)
    with pytest.raises(ValueError):
        advection(SpectralField.zeros(other), grid)


def test_velocity_max_positive(table, grid):
    omega = random_v0_field(table, 33)
    assert velocity_max(omega, grid) > 0.0


def test_advection_umax_is_velocity_max(table, grid):
    for seed in range(5):
        omega = random_v0_field(table, 40 + seed)
        assert advection(omega, grid).umax == velocity_max(omega, grid)


def test_advection_matches_group_oracle(table, grid):
    omega = random_v0_field(table, 23)
    res = advection(omega, grid)
    want, want_harm = from_grid_groups(advection_values_oracle(omega, grid), grid, table)
    np.testing.assert_allclose(res.projected.coeffs, want.coeffs, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.harmonic, want_harm, rtol=0, atol=1e-13)


@pytest.mark.parametrize("K,J", [(4, 12), (8, 8), (32, 24)])
def test_advection_matches_group_oracle_at_run_sizes(K, J):
    # check 10's run, the reference run and the large benchmark run
    big = build_table(K, J)
    test_advection_matches_group_oracle(big, PolarGrid(big))


@pytest.mark.parametrize("K,J", [(8, 8), (4, 12)])
def test_advect_without_speed_returns_the_same_blocks_and_moments(K, J):
    # the step's second stage: every output it reads is the same bits,
    # and the speed it does not read is not formed
    big = build_table(K, J)
    grid = PolarGrid(big)
    w = big.to_blocks(random_v0_field(big, 61).coeffs)
    blocks, moments, umax, lam_vals = _advect(w, grid)
    got = _advect(w, grid, speed=False)
    assert umax > 0.0 and got[2] is None
    for a, b in zip((blocks, moments, lam_vals), (got[0], got[1], got[3])):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# elliptic correction


def test_elliptic_zero(table, grid):
    h = np.zeros((2, table.K + 1))
    omega_b, psi_b = elliptic_correction(h, 1.0, grid)
    assert np.max(np.abs(omega_b.coeffs)) == 0.0
    assert np.max(np.abs(psi_b.values)) == 0.0


def test_elliptic_fd_laplacian_oracle(table):
    # Delta psi_B = h / nu, by second-order finite differences
    h = np.zeros((2, table.K + 1))
    h[0, 1] = 1.0  # harmonic function: ch_1 * r cos(theta)
    nu = 1.0
    r0, t0, step = 0.57, 0.8, 1e-4

    def f(r, t):
        return float(elliptic_stream_values(h, nu, r, t))

    frr = (f(r0 + step, t0) - 2 * f(r0, t0) + f(r0 - step, t0)) / step**2
    fr = (f(r0 + step, t0) - f(r0 - step, t0)) / (2 * step)
    ftt = (f(r0, t0 + step) - 2 * f(r0, t0) + f(r0, t0 - step)) / step**2
    lap = frr + fr / r0 + ftt / r0**2
    want = disk_harmonic_values(h, r0, t0) / nu
    assert lap == pytest.approx(float(want), rel=1e-5)


def test_elliptic_fd_laplacian_k0_and_nu(table):
    h = np.zeros((2, table.K + 1))
    h[0, 0] = 2.0
    nu = 0.25
    r0, step = 0.4, 1e-4

    def f(r):
        return float(elliptic_stream_values(h, nu, r, 0.0))

    lap = (f(r0 + step) - 2 * f(r0) + f(r0 - step)) / step**2 + (
        f(r0 + step) - f(r0 - step)
    ) / (2 * step) / r0
    want = float(disk_harmonic_values(h, r0, 0.0)) / nu
    assert lap == pytest.approx(want, rel=1e-5)


def test_elliptic_boundary_trace(table):
    rng = np.random.default_rng(5)
    h = random_rows(rng, table.K)
    theta = np.linspace(0.0, 2 * np.pi, 37)
    vals = elliptic_stream_values(h, 0.7, np.ones_like(theta), theta)
    assert np.max(np.abs(vals)) < 1e-12


def test_elliptic_dr_matches_fd(table):
    h = np.zeros((2, table.K + 1))
    h[0, 2], h[1, 1] = 0.6, -1.1
    nu, r0, t0, step = 0.5, 0.63, 2.2, 1e-6
    fd = (
        float(elliptic_stream_values(h, nu, r0 + step, t0))
        - float(elliptic_stream_values(h, nu, r0 - step, t0))
    ) / (2 * step)
    an = float(elliptic_stream_values(h, nu, r0, t0, what="d_r"))
    assert an == pytest.approx(fd, rel=1e-8)


def test_omega_b_is_admissible(table, grid):
    h = np.zeros((2, table.K + 1))
    h[0, 0], h[0, 1], h[1, 2] = 0.3, -0.9, 1.2
    omega_b, _ = elliptic_correction(h, 0.1, grid)
    _, harm, _ = from_grid(to_grid(omega_b, grid), table)
    assert np.linalg.norm(harm) < 1e-8


def test_elliptic_linearity(table, grid):
    # the correction is linear in its harmonic argument, which the
    # solver exploits to commute it with time differencing
    h1 = np.zeros((2, table.K + 1))
    h2 = np.zeros((2, table.K + 1))
    h1[0, 1], h2[1, 2] = 0.8, -0.5
    nu = 0.3
    w1, _ = elliptic_correction(h1, nu, grid)
    w2, _ = elliptic_correction(h2, nu, grid)
    wsum, _ = elliptic_correction(h1 + 2.0 * h2, nu, grid)
    np.testing.assert_allclose(
        wsum.coeffs, w1.coeffs + 2.0 * w2.coeffs, atol=1e-14
    )


def grid_sampled_correction(h, nu, grid):
    """omega_B as the projection of the closed-form psi_B sampled on the grid."""
    rr, tt = grid.node_polar()
    return from_grid(GridField(grid, elliptic_stream_values(h, nu, rr, tt)), grid.table)[0]


def test_elliptic_map_matches_grid_sampled_correction(table, grid):
    rng = np.random.default_rng(6)
    emap = elliptic_map(grid)
    assert emap.shape == (2, table.K + 1, table.J)
    for nu in (0.1, 0.7):
        h = random_rows(rng, table.K)
        want = grid_sampled_correction(h, nu, grid)
        got = table.from_blocks(emap * (h / nu)[:, :, None])
        np.testing.assert_allclose(got, want.coeffs, rtol=0, atol=1e-14 * np.max(np.abs(want.coeffs)))


@pytest.mark.parametrize("degree", [0, 2, 5])
def test_elliptic_correction_matches_closed_form(table, grid, degree):
    # psi_B on the grid is the closed form; omega_B is its grid projection,
    # for harmonic degrees below and at the table's K
    rng = np.random.default_rng(40 + degree)
    h = random_rows(rng, degree)
    nu = 0.3
    omega_b, psi_b = elliptic_correction(h, nu, grid)
    rr, tt = grid.node_polar()
    want_psi = elliptic_stream_values(h, nu, rr, tt)
    np.testing.assert_allclose(psi_b.values, want_psi, rtol=0, atol=1e-14 * np.max(np.abs(want_psi)))
    want_omega = grid_sampled_correction(h, nu, grid).coeffs
    np.testing.assert_allclose(omega_b.coeffs, want_omega, rtol=0, atol=1e-14 * np.max(np.abs(want_omega)))


def test_omega_b_difference_is_correction_of_moment_difference(table, grid):
    # the solver differences omega_B = E h / nu between steps; by
    # linearity that is the correction of the backward-differenced moments
    nu, dt = 0.3, 0.01
    res0 = advection(random_v0_field(table, 50), grid)
    res1 = advection(random_v0_field(table, 51), grid)
    emap = elliptic_map(grid)

    def omega_b(h):
        return table.from_blocks(emap * (h / nu)[:, :, None])

    got = (omega_b(res1.harmonic) - omega_b(res0.harmonic)) / dt
    want, _ = elliptic_correction(advection_time_derivative(res1, res0, dt), nu, grid)
    np.testing.assert_allclose(got, want.coeffs, rtol=0, atol=1e-11 * np.max(np.abs(want.coeffs)))


def test_elliptic_validation(table, grid):
    h = np.zeros((2, table.K + 4))
    h[0, table.K + 3] = 1.0
    with pytest.raises(ValueError):
        elliptic_correction(h, 1.0, grid)
    # only cos/sin rows (2, n) with 1 <= n <= K+1 are harmonic parts
    for shape in ((table.K + 1,), (3, table.K + 1), (2, 0), (1, 2, table.K + 1), (2, table.K + 2)):
        with pytest.raises(ValueError, match=re.escape(f"shape (2, n <= {table.K + 1}), got {shape}")):
            elliptic_correction(np.zeros(shape), 1.0, grid)
    for nu in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match=f"^{re.escape(f'viscosity must be positive, got {nu}')}$"):
            elliptic_correction(np.zeros((2, 1)), nu, grid)
    with pytest.raises(ValueError):
        elliptic_stream_values(np.zeros((2, 3)), -1.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# time derivative of the harmonic moments


def test_advection_td_identical_inputs(table, grid):
    omega = random_v0_field(table, 9)
    res = advection(omega, grid)
    td = advection_time_derivative(res, res, 0.01)
    assert np.max(np.abs(td)) == 0.0


def test_advection_td_linear_slope(table, grid):
    omega = random_v0_field(table, 13)
    res0 = advection(omega, grid)
    res1 = advection(omega, grid)
    res1.harmonic = res0.harmonic + 0.02 * np.stack([np.ones(table.K + 1), np.zeros(table.K + 1)])
    td = advection_time_derivative(res1, res0, 0.02)
    np.testing.assert_allclose(td[0], np.ones(table.K + 1), rtol=1e-12)


def test_advection_td_first_order_vs_centered(table, grid):
    # backward difference drifts from the centered difference at O(dt)
    def h_of_t(t):
        h = np.zeros((2, table.K + 1))
        h[0, 1] = np.sin(t)
        return h

    omega = random_v0_field(table, 17)

    def result_at(t):
        r = advection(omega, grid)
        r.harmonic = h_of_t(t)
        return r

    t0 = 0.7
    errs = []
    for dt in (0.1, 0.05):
        backward = advection_time_derivative(result_at(t0), result_at(t0 - dt), dt)
        centered = (h_of_t(t0 + dt) - h_of_t(t0 - dt)) * (1.0 / (2 * dt))
        errs.append(np.linalg.norm(backward - centered))
    assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.15)


def test_advection_td_validation(table, grid):
    omega = random_v0_field(table, 19)
    res = advection(omega, grid)
    with pytest.raises(ValueError):
        advection_time_derivative(res, res, 0.0)
