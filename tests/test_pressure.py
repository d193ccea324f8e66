"""Pressure recovery: conjugate algebra, variational potential, momentum defect."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from diskvort.fields import PolarGrid, SpectralField
from diskvort.pressure import (
    PressureField,
    harmonic_conjugate,
    momentum_residual,
    phi_of_u,
    recover_pressure,
)
from diskvort import pressure
from diskvort.fields import split_rows as _split_rows
from diskvort.fields import synthesize_rows
from diskvort.pressure import _p1_rows, _phi_tables, _radial_mesh, _solve_radial
from diskvort.solver import RunConfig, prepare, run, stokes_run
from diskvort.specfun import bessel_j
from diskvort.spectrum import ModeIndex, build_table
from harmonic_oracle import disk_harmonic_values


@pytest.fixture(scope="module")
def table44():
    return build_table(4, 4)


@pytest.fixture(scope="module")
def grid44(table44):
    return PolarGrid(table44)


def circular_mode(table):
    return SpectralField.from_mode(table, ModeIndex(0, 1, "cos"))


def circular_speed(table, r):
    """u_theta(r) for the lowest radial mode, from the closed form."""
    pos = table.position(ModeIndex(0, 1, "cos"))
    alpha = table.alpha[pos]
    return table.norm[pos] * alpha / table.lam[pos] * bessel_j(1, alpha * r)


# ---------------------------------------------------------------------------
# harmonic conjugate


def norm_l2(h):
    """L^2 norm of a harmonic part: its rows are orthonormal coordinates."""
    return float(np.sqrt(np.sum(h[0] ** 2) + np.sum(h[1] ** 2)))


class TestHarmonicConjugate:
    def test_degree_one_rotation(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = harmonic_conjugate(h)
        r = np.array([0.3, 0.7, 1.0])
        th = np.array([0.2, 1.1, 4.0])
        # conjugate of r cos(theta) is r sin(theta), same normalization
        assert_allclose(disk_harmonic_values(c, r, th), np.sqrt(4.0 / np.pi) * r * np.sin(th),
                        rtol=0, atol=1e-15)

    def test_degree_two_sin_rotation(self):
        h = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        c = harmonic_conjugate(h)
        r = np.array([0.5, 0.9])
        th = np.array([0.7, 2.3])
        # conjugate of r^2 sin(2 theta) is -r^2 cos(2 theta)
        const = np.sqrt(6.0 / np.pi)
        assert_allclose(disk_harmonic_values(c, r, th), -const * r**2 * np.cos(2 * th),
                        rtol=0, atol=1e-15)

    def test_twice_is_negation(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6)
        a[0] = 0.0
        b = rng.normal(size=6)
        b[0] = 0.0
        h = np.stack([a, b])
        cc = harmonic_conjugate(harmonic_conjugate(h))
        np.testing.assert_array_equal(cc, -h)

    def test_isometry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=5)
            a[0] = 0.0
            b = rng.normal(size=5)
            b[0] = 0.0
            h = np.stack([a, b])
            assert norm_l2(harmonic_conjugate(h)) == norm_l2(h)

    def test_mean_component_rejected(self):
        h = np.array([[0.5, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero mean"):
            harmonic_conjugate(h)

    def test_zero_maps_to_zero(self):
        h = np.zeros((2, 4))
        c = harmonic_conjugate(h)
        assert norm_l2(c) == 0.0


# ---------------------------------------------------------------------------
# variational potential


class TestPhiOfU:
    def test_circular_radial_derivative_oracle(self, table44):
        """d Phi / dr = u_theta^2 / r for circular flow, second order."""
        om = circular_mode(table44)
        errs = {}
        for n_aux in (128, 256):
            nodes, T = _phi_tables(om, n_aux)
            h = nodes[1] - nodes[0]
            a, b = nodes[:-1], nodes[1:]
            cent = (2.0 / 3.0) * (b**3 - a**3) / (b**2 - a**2)
            dT = np.diff(T[0, 0]) / h
            u_t = circular_speed(table44, cent)
            errs[n_aux] = np.max(np.abs(dT - u_t**2 / cent))
        assert errs[256] < 1e-5
        ratio = errs[128] / errs[256]
        assert 3.2 < ratio < 4.8

    def test_circular_values_match_antiderivative(self, table44, grid44):
        om = circular_mode(table44)
        phi = phi_of_u(om, grid44)

        def integrand(s):
            return circular_speed(table44, s) ** 2 / s

        anti = np.array([quad(integrand, 0.0, r, limit=200)[0] for r in grid44.r])
        mean = grid44.integrate(np.broadcast_to(anti[:, None], phi.values.shape)) / np.pi
        expected = anti - mean
        assert np.max(np.abs(phi.values - expected[:, None])) < 1e-5

    def test_angular_independence_for_circular_flow(self, table44, grid44):
        om = circular_mode(table44)
        phi = phi_of_u(om, grid44)
        spread = phi.values.max(axis=1) - phi.values.min(axis=1)
        assert np.max(spread) < 1e-12

    def test_zero_mean(self, table44, grid44):
        om = circular_mode(table44)
        phi = phi_of_u(om, grid44)
        assert abs(grid44.integrate(phi.values)) < 1e-12

    def test_rejects_stream_field(self, table44, grid44):
        from diskvort.fields import biot_savart

        psi = biot_savart(circular_mode(table44))
        with pytest.raises(ValueError, match="vorticity"):
            phi_of_u(psi, grid44)

    def test_rejects_foreign_grid(self, table44):
        other = PolarGrid(build_table(3, 3))
        with pytest.raises(ValueError, match="different table"):
            phi_of_u(circular_mode(table44), other)


# ---------------------------------------------------------------------------
# radial solves and the angular split


def dense_radial_solve(mesh, k, f_r, g):
    """One row's P1 system assembled element by element and solved densely."""
    nodes, qpts, qw = mesh
    h = nodes[1] - nodes[0]
    A = np.zeros((nodes.size, nodes.size))
    b = np.zeros(nodes.size)
    for e in range(nodes.size - 1):
        q = slice(4 * e, 4 * e + 4)
        r, w = qpts[q], qw[q]
        hats = ((e, (nodes[e + 1] - r) / h, -1.0 / h), (e + 1, (r - nodes[e]) / h, 1.0 / h))
        for i, vi, si in hats:
            b[i] += np.sum(-f_r[q] * si * w * r + g[q] * vi * w)
            for j, vj, sj in hats:
                A[i, j] += np.sum((si * sj + k * k / r**2 * vi * vj) * w * r)
    A[0] = 0.0
    A[0, 0] = 1.0
    b[0] = 0.0
    return np.linalg.solve(A, b)


def test_banded_solve_matches_dense_per_row_assembly():
    mesh = _radial_mesh(12)
    rng = np.random.default_rng(3)
    f_r, g = rng.standard_normal((2, 2, 5, mesh[1].size))
    T = _solve_radial(*mesh, f_r, g)
    assert T.shape == (2, 5, mesh[0].size)
    for p in range(2):
        for k in range(5):
            want = dense_radial_solve(mesh, k, f_r[p, k], g[p, k])
            assert_allclose(T[p, k], want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("n", [0, -3])
def test_radial_mesh_needs_an_element(n):
    with pytest.raises(ValueError, match="at least 1 radial element"):
        _radial_mesh(n)


def test_p1_rows_are_the_piecewise_linear_interpolant():
    # values against np.interp at the nodes, the midpoints and random
    # radii; d_r against each element's slope at its midpoint
    rng = np.random.default_rng(5)
    nodes = np.linspace(0.0, 1.0, 9)
    T = rng.standard_normal((2, 3, nodes.size))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    r = np.r_[nodes, mids, rng.uniform(0.0, 1.0, 20)]
    value, slope = _p1_rows(nodes, T, r)
    assert value.shape == slope.shape == (2, 3, r.size)
    for p in range(2):
        for k in range(3):
            assert_allclose(value[p, k], np.interp(r, nodes, T[p, k]), rtol=0, atol=1e-14)
    assert_allclose(slope[..., nodes.size : nodes.size + mids.size], np.diff(T) / np.diff(nodes), rtol=1e-14)


def test_failed_radial_solve_raises(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(pressure, "solve_banded", singular)
    with pytest.raises(RuntimeError, match="radial pressure solve failed"):
        _phi_tables(circular_mode(build_table(1, 2)), 8)


def test_split_rows_inverts_synthesis():
    K = 3
    trig = pressure._dealiased_trig(K)
    rows = np.random.default_rng(4).standard_normal((2, 2 * K + 1, 6))
    rows[1, 0] = 0.0  # there is no sin(0 theta)
    assert_allclose(_split_rows(synthesize_rows(rows, trig), trig), rows, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# full pressure


class TestRecoverPressure:
    def test_mean_is_machine_zero(self, table44, grid44):
        p = recover_pressure(circular_mode(table44), 0.1, grid44)
        assert abs(grid44.integrate(p.values) / np.pi) < 1e-9

    def test_circular_flow_has_no_conjugate_part(self, table44, grid44):
        """Radial vorticity leaves only a constant trace: p equals Phi[u]."""
        om = circular_mode(table44)
        p = recover_pressure(om, 0.1, grid44)
        phi = phi_of_u(om, grid44)
        assert np.max(np.abs(p.values - phi.values)) < 1e-13

    def test_nonradial_mode_engages_conjugate_part(self, table44, grid44):
        om = SpectralField.from_mode(table44, ModeIndex(1, 1, "cos"))
        p = recover_pressure(om, 0.1, grid44)
        phi = phi_of_u(om, grid44)
        assert np.max(np.abs(p.values - phi.values)) > 1e-4

    def test_viscosity_scaling_of_conjugate_part(self, table44, grid44):
        om = SpectralField.from_mode(table44, ModeIndex(1, 1, "cos"))
        phi = phi_of_u(om, grid44)
        d1 = recover_pressure(om, 0.1, grid44).values - phi.values
        d2 = recover_pressure(om, 0.2, grid44).values - phi.values
        # the conjugate term is linear in nu; means differ by a constant only
        d1 -= d1.mean()
        d2 -= d2.mean()
        assert_allclose(d2, 2.0 * d1, atol=1e-12)

    def test_validation(self, table44, grid44):
        with pytest.raises(ValueError, match="viscosity"):
            recover_pressure(circular_mode(table44), 0.0, grid44)
        with pytest.raises(ValueError, match="shape"):
            PressureField(grid44, np.zeros((2, 2)))

    def test_csv_export(self, table44, grid44, tmp_path):
        p = recover_pressure(circular_mode(table44), 0.1, grid44)
        path = tmp_path / "p.csv"
        p.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,theta,p"
        assert len(lines) == 1 + grid44.n_radial * grid44.n_angular
        first = lines[1].split(",")
        assert float(first[0]) == grid44.r[0]
        assert float(first[2]) == p.values[0, 0]


# ---------------------------------------------------------------------------
# momentum residual


def stokes_circular_trajectory(dt):
    cfg = RunConfig(nu=0.1, K=4, J=4, dt=dt, t_final=0.4,
                    init_modes=(((0, 1, "cos"), 1.0),), output_every=1)
    ctx = prepare(cfg)
    return cfg, ctx, stokes_run(cfg, ctx=ctx)


class TestMomentumResidual:
    def test_stokes_circular_small(self):
        cfg, ctx, traj = stokes_circular_trajectory(0.01)
        res = momentum_residual(traj, len(traj) // 2, cfg.nu, ctx.grid)
        assert res < 1e-4

    def test_second_order_in_dt(self):
        vals = {}
        for dt in (0.04, 0.02):
            cfg, ctx, traj = stokes_circular_trajectory(dt)
            vals[dt] = momentum_residual(traj, len(traj) // 2, cfg.nu, ctx.grid)
        ratio = vals[0.04] / vals[0.02]
        assert 3.0 < ratio < 5.0

    def test_two_mode_nonlinear_run(self):
        cfg = RunConfig(nu=0.1, K=4, J=12, dt=0.002, t_final=0.5,
                        init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)),
                        output_every=1)
        ctx = prepare(cfg)
        traj = run(cfg, ctx=ctx)
        res = momentum_residual(traj, len(traj) // 2, cfg.nu, ctx.grid)
        assert res < 1e-3

    def test_boundary_index_rejected(self):
        cfg, ctx, traj = stokes_circular_trajectory(0.04)
        with pytest.raises(ValueError, match="centered"):
            momentum_residual(traj, 0, cfg.nu, ctx.grid)
        with pytest.raises(ValueError, match="centered"):
            momentum_residual(traj, len(traj) - 1, cfg.nu, ctx.grid)

    def test_viscosity_validated(self):
        cfg, ctx, traj = stokes_circular_trajectory(0.04)
        with pytest.raises(ValueError, match="viscosity"):
            momentum_residual(traj, 1, -1.0, ctx.grid)
