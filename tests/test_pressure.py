"""Pressure recovery: conjugate algebra, variational potential, momentum defect."""

import gc
import inspect
import weakref

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
from diskvort import pressure, specfun, spectrum
from diskvort.fields import split_rows as _split_rows
from diskvort.fields import synthesize_rows, trig_table
from diskvort.pressure import _p1_rows, _phi_tables, _radial_mesh, _solve_radial
from diskvort.solver import RunConfig, prepare, run, stokes_run
from diskvort.specfun import bessel_j
from diskvort.spectrum import ModeIndex, build_table, radial_profiles
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
        h = np.array([[0.5, 1.0], [0.0, 0.25]])
        with pytest.raises(ValueError, match=r"zero mean component, got h\[0, 0\]=0.5$"):
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


@pytest.mark.parametrize("n", [1, 3, 12])
def test_radial_mesh_is_a_4_point_gauss_rule_per_element_of_0_1(n):
    nodes, qpts, qw = _radial_mesh(n)
    assert_allclose(nodes, np.arange(n + 1) / n, rtol=0, atol=2e-16)
    assert np.all((qpts.reshape(n, 4) > nodes[:-1, None]) & (qpts.reshape(n, 4) < nodes[1:, None]))
    # exact through degree 7 on every element, so on [0, 1]
    for p in range(8):
        assert abs(np.sum(qw * qpts**p) - 1.0 / (p + 1)) <= 1e-15


@pytest.mark.parametrize("n", [0, -3])
def test_radial_mesh_needs_an_element(n):
    with pytest.raises(ValueError, match="at least 1 radial element"):
        _radial_mesh(n)
    # the pressure layer meets the same refusal before it caches a basis
    pressure._aux_basis.cache_clear()
    with pytest.raises(ValueError, match="at least 1 radial element"):
        _phi_tables(circular_mode(build_table(1, 2)), n)
    assert pressure._aux_basis.cache_info().currsize == 0


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
    n = 4 * K + 4  # the pressure layer's dealiased table
    trig = trig_table(2 * K, 2.0 * np.pi * np.arange(n) / n)
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


# ---------------------------------------------------------------------------
# the auxiliary basis, built once per (table, n_aux)


@pytest.fixture(scope="module")
def two_mode_run():
    # nu = 0.05, off the 0.1 of the other dynamics tests
    cfg = RunConfig(nu=0.05, K=4, J=8, dt=0.002, t_final=0.02,
                    init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)), output_every=1)
    ctx = prepare(cfg)
    return cfg, ctx, run(cfg, ctx=ctx)


def test_recovered_pressure_is_the_potential_plus_nu_times_the_conjugate(two_mode_run):
    # p = Phi[u] + nu H*(trace extension), less its mean: linear in nu,
    # with the conjugate of the zero-mean extension as its slope
    from diskvort.fields import trace_extension

    cfg, ctx, traj = two_mode_run
    omega, grid = traj.states[-1], ctx.grid
    extension = trace_extension(omega)
    extension[0, 0] = 0.0
    slope = synthesize_rows(harmonic_conjugate(extension)[:, :, None] * grid.harm, grid.trig)
    slope -= grid.integrate(slope) / np.pi
    assert np.max(np.abs(slope)) > 1e-2
    phi = phi_of_u(omega, grid).values
    for nu in (0.05, 0.3):
        p = recover_pressure(omega, nu, grid).values
        assert abs(grid.integrate(p)) <= 1e-15 * np.max(np.abs(p))
        assert_allclose(p, phi + nu * slope, rtol=0, atol=1e-14 * np.max(np.abs(p)))


def test_momentum_residual_of_a_fluid_at_rest_is_zero():
    cfg = RunConfig(nu=0.1, K=2, J=2, dt=0.01, t_final=0.02, init_modes=(((0, 1, "cos"), 0.0),), output_every=1)
    ctx = prepare(cfg)
    assert momentum_residual(run(cfg, ctx), 1, cfg.nu, ctx.grid, n_aux=8) == 0.0
    # the demo's default auxiliary mesh
    assert inspect.signature(momentum_residual).parameters["n_aux"].default == 256


@pytest.mark.parametrize("n_aux", [128, 256])
def test_cold_and_warm_calls_give_the_same_bits(two_mode_run, n_aux):
    cfg, ctx, traj = two_mode_run
    final = traj.states[-1]
    calls = {
        "momentum_residual": lambda: momentum_residual(traj, len(traj) // 2, cfg.nu, ctx.grid, n_aux=n_aux),
        "recover_pressure": lambda: recover_pressure(final, cfg.nu, ctx.grid, n_aux).values,
        "phi_of_u": lambda: phi_of_u(final, ctx.grid, n_aux).values,
    }
    for name, call in calls.items():
        pressure._aux_basis.cache_clear()
        cold = call()
        hits = pressure._aux_basis.cache_info().hits
        warm = call()
        assert pressure._aux_basis.cache_info().hits > hits, name
        np.testing.assert_array_equal(warm, cold, err_msg=name)


@pytest.mark.parametrize(
    "n_aux, recovery_first",
    [pytest.param(128, False, id="128"), pytest.param(256, False, id="256"), pytest.param(256, True, id="recovery-first")],
)
def test_cli_pattern_builds_the_profiles_once_per_point_set(two_mode_run, monkeypatch, n_aux, recovery_first):
    # diskvort pressure: one residual, then one recovery, same n_aux; in
    # either order the first call builds the one basis and the second none
    cfg, ctx, traj = two_mode_run
    sizes = []

    def counted(table, r):
        sizes.append(r.size)
        return radial_profiles(table, r)

    monkeypatch.setattr(pressure, "radial_profiles", counted)
    pressure._aux_basis.cache_clear()
    calls = [
        lambda: momentum_residual(traj, len(traj) // 2, cfg.nu, ctx.grid, n_aux=n_aux),
        lambda: recover_pressure(traj.states[-1], cfg.nu, ctx.grid, n_aux),
    ]
    first, second = calls[::-1] if recovery_first else calls
    first()
    assert sizes == [4 * n_aux, n_aux]  # the quadrature points, then the midpoints
    second()
    assert sizes == [4 * n_aux, n_aux]


def test_warm_recovery_evaluates_no_bessel_function(two_mode_run, monkeypatch):
    # the wall trace is the table's exact lift times the coefficients, so
    # on a warm basis the recovery calls no Bessel stack
    cfg, ctx, traj = two_mode_run
    final = traj.states[-1]
    recover_pressure(final, cfg.nu, ctx.grid)
    calls = []
    stack = specfun._bessel_stack

    def counted(*args, **kwargs):
        calls.append(args[0])
        return stack(*args, **kwargs)

    for module in (specfun, spectrum):
        monkeypatch.setattr(module, "_bessel_stack", counted)
    recover_pressure(final, cfg.nu, ctx.grid)
    assert calls == []


def test_basis_arrays_are_read_only():
    table = build_table(2, 3)
    mesh, qpts_stream, trig, mids = pressure._aux_basis(table, 8)
    for a in (*mesh, qpts_stream, trig, *mids):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def fresh_stream(table, r):
    """Stream value, d_r and d_rr at the radii r from one fresh profile stack."""
    return pressure._stream_rows(table, r)[0]


def test_stream_d_rr_matches_scipy():
    # the stream d_rr that the pressure layer takes from the Bessel
    # equation, against scipy's second derivative of J_k less the lift's
    from scipy import special

    table = build_table(8, 8)
    r = np.linspace(0.05, 1.0, 23)
    d_rr = pressure._stream_rows(table, r)[0][2]
    assert d_rr.shape == (table.K + 1, table.J, r.size)
    for i, m in enumerate(table.modes):
        k, a, c = m.k, table.alpha[i], table.norm[i]
        lift = c * special.jv(k, a) * k * (k - 1) * r ** max(k - 2, 0)
        want = c * a**2 * special.jvp(k, a * r, 2) - lift
        np.testing.assert_allclose(d_rr[k, m.j - 1], want, rtol=0, atol=1e-13 * a**2)


def test_basis_is_keyed_on_the_table_and_one_is_held():
    pressure._aux_basis.cache_clear()
    first, second = build_table(4, 4), build_table(4, 4)
    basis = pressure._aux_basis(first, 16)
    fresh = pressure._aux_basis(second, 16)
    assert fresh is not basis
    assert pressure._aux_basis.cache_info().currsize == 1

    # bit-equal to fresh profiles of the second table at the same radii
    (nodes, qpts, _), qpts_stream, trig, (r, stream, vort, harm) = fresh
    np.testing.assert_array_equal(qpts_stream, fresh_stream(second, qpts))
    n = 4 * second.K + 4  # wavenumbers 0..2K, the band of the convective term
    np.testing.assert_array_equal(trig, trig_table(2 * second.K, 2.0 * np.pi * np.arange(n) / n))
    prof, want_harm = radial_profiles(second, r)
    np.testing.assert_array_equal(stream, fresh_stream(second, r))
    np.testing.assert_array_equal(vort, prof[:, 0])
    np.testing.assert_array_equal(harm, want_harm)
    np.testing.assert_array_equal(r, 0.5 * (nodes[:-1] + nodes[1:]))

    # the second key evicted the first: nothing holds the first table now
    held = weakref.ref(first)
    del first, basis
    gc.collect()
    assert held() is None
    misses = pressure._aux_basis.cache_info().misses
    pressure._aux_basis(second, 8)
    assert pressure._aux_basis.cache_info().misses == misses + 1
    assert pressure._aux_basis.cache_info().currsize == 1


@pytest.mark.parametrize("chunk", [1, 6 * 5 * 4 * 7, 2**40])
def test_basis_chunks_give_the_same_bits(monkeypatch, chunk):
    # one quadrature point per chunk, seven per chunk (the last chunk
    # short), all in one: the stream rows of one full profile stack; a
    # fresh float array starts as NaN, so a point no chunk fills shows
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    monkeypatch.setattr(pressure, "_PROFILE_CHUNK", chunk)
    pressure._aux_basis.cache_clear()
    table = build_table(4, 4)
    (_, qpts, _), qpts_stream, _, _ = pressure._aux_basis(table, 16)
    pressure._aux_basis.cache_clear()
    np.testing.assert_array_equal(qpts_stream, fresh_stream(table, qpts))
