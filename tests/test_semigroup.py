"""Exact propagation, ETD stepping, and decay-rate fitting."""

from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from diskvort.fields import SpectralField, norm_at
from diskvort.semigroup import (
    DecayFit,
    Trajectory,
    duhamel_step,
    fit_decay_rate,
    phi1,
    phi2,
)
from diskvort.spectrum import ModeIndex, build_table
from transform_oracle import duhamel_reference, propagate


@pytest.fixture(scope="module")
def table():
    return build_table(4, 4)


def random_field(table, seed):
    rng = np.random.default_rng(seed)
    return SpectralField(table, rng.standard_normal(len(table)) / table.lam, "vorticity")


# ---------------------------------------------------------------------------
# phi functions


def test_phi_values_at_zero():
    assert phi1(0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi2(0.0) == pytest.approx(0.5, abs=1e-15)


def test_phi_branch_continuity():
    # either side of 1e-5, where phi1 once switched to a series
    for z in (9.9e-6, 1.01e-5, -9.9e-6, -1.01e-5):
        direct1 = np.expm1(z) / z
        direct2 = (np.expm1(z) - z) / z**2
        assert phi1(z) == pytest.approx(direct1, rel=1e-12)
        assert phi2(z) == pytest.approx(direct2, rel=1e-10)


def test_phi_known_value():
    assert phi1(1.0) == pytest.approx(np.e - 1.0, rel=1e-14)
    assert phi2(1.0) == pytest.approx(np.e - 2.0, rel=1e-14)
    assert phi1(-50.0) == pytest.approx((np.exp(-50.0) - 1.0) / -50.0, rel=1e-13)


def test_phi1_matches_mpmath():
    # expm1(z)/z with no series: 2.2e-16 relative is the largest error
    # measured, down to |z| = 1e-300 and up to |z| = 100
    tiny = np.logspace(-300, -5, 600)
    z = np.r_[-tiny, tiny, -np.logspace(-5, 2, 301), np.logspace(-5, 2, 301)]
    got = phi1(z)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.expm1(mpmath.mpf(x)) / mpmath.mpf(x)) for x in z])
    assert np.max(np.abs(got - want) / want) <= 5e-16
    assert phi1(0.0) == 1.0 and phi1(-0.0) == 1.0


def test_phi2_matches_mpmath():
    z = -np.logspace(-8, 2, 301)
    got = phi2(z)
    with mpmath.workdps(40):
        want = np.array(
            [float((mpmath.expm1(mpmath.mpf(x)) - mpmath.mpf(x)) / mpmath.mpf(x) ** 2) for x in z]
        )
    assert np.max(np.abs(got - want) / want) <= 1e-14
    # either side of the series cut
    for x in (-0.4999999, -0.5, -0.5000001, 0.4999999, 0.5000001):
        with mpmath.workdps(40):
            ref = float((mpmath.expm1(mpmath.mpf(x)) - mpmath.mpf(x)) / mpmath.mpf(x) ** 2)
        assert phi2(x) == pytest.approx(ref, rel=1e-14)


def test_phi_vectorized():
    z = np.array([-2.0, -1e-7, 0.0, 1e-7, 2.0])
    v1, v2 = phi1(z), phi2(z)
    assert v1.shape == z.shape and v2.shape == z.shape
    assert np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))


# ---------------------------------------------------------------------------
# propagate


def test_propagate_identity_at_zero(table):
    f = random_field(table, 5)
    g = propagate(f, 0.3, 0.0)
    np.testing.assert_array_equal(g.coeffs, f.coeffs)


def test_propagate_halving(table):
    m = ModeIndex(0, 1, "cos")
    f = SpectralField.from_mode(table, m)
    lam = table.lam[table.position(m)]
    nu = 0.1
    t = np.log(2.0) / (nu * lam)
    g = propagate(f, nu, t)
    assert g.coeffs[table.position(m)] == pytest.approx(0.5, rel=1e-14)


def test_propagate_semigroup_property(table):
    f = random_field(table, 9)
    a = propagate(propagate(f, 0.2, 0.7), 0.2, 1.1)
    b = propagate(f, 0.2, 1.8)
    np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("level", [-2, -1, 0, 1, 2])
def test_propagate_decay_every_level(table, level):
    f = random_field(table, 3)
    nu, t = 0.15, 0.8
    g = propagate(f, nu, t)
    bound = np.exp(-nu * table.lambda_min * t) * norm_at(f, level)
    assert norm_at(g, level) <= bound * (1 + 1e-12)


def test_propagate_validation(table):
    f = random_field(table, 1)
    with pytest.raises(ValueError):
        propagate(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        propagate(f, 0.1, -1.0)


# ---------------------------------------------------------------------------
# duhamel


def etd_factors(table, nu, dt):
    z = -nu * table.lam * dt
    return np.exp(z), dt * phi1(z), dt * phi2(z)


def test_duhamel_zero_forcing_is_propagate(table):
    f = random_field(table, 11)
    zero = np.zeros(len(table))
    g = duhamel_step(f.coeffs, zero, lambda a: zero, *etd_factors(table, 0.1, 0.05))
    np.testing.assert_array_equal(g, propagate(f, 0.1, 0.05).coeffs)


def test_duhamel_step_matches_reference(table):
    # the array update against the eigen-ordered field step it replaced
    f, g = random_field(table, 12), random_field(table, 13)
    forcing = lambda s: g * np.sin(3.0 * s)
    i, dt = 6, 0.05
    got = duhamel_step(
        f.coeffs,
        forcing(i * dt).coeffs,
        lambda a: forcing((i + 1) * dt).coeffs,
        *etd_factors(table, 0.1, dt),
    )
    want = duhamel_reference(f, forcing, 0.1, i, dt)
    np.testing.assert_array_equal(got, want.coeffs)


def test_duhamel_constant_forcing_steady_state(table):
    m = ModeIndex(1, 1, "cos")
    n = table.position(m)
    force = 3.0 * SpectralField.from_mode(table, m)
    nu = 0.2
    u = SpectralField.zeros(table)
    for i in range(400):
        u = duhamel_reference(u, lambda t: force, nu, i, 0.05, "etd1")
    target = 3.0 / (nu * table.lam[n])
    assert u.coeffs[n] == pytest.approx(target, rel=1e-10)


def test_duhamel_etd2rk_second_order(table):
    # forcing sin t on one mode vs closed-form particular solution
    m = ModeIndex(0, 1, "cos")
    n = table.position(m)
    nu = 0.1
    a = nu * table.lam[n]

    def exact(t):
        return (a * np.sin(t) - np.cos(t) + np.exp(-a * t)) / (1.0 + a * a)

    def forcing(s):
        f = SpectralField.zeros(table)
        f.coeffs[n] = np.sin(s)
        return f

    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        u = SpectralField.zeros(table)
        for i in range(round(1.0 / dt)):
            u = duhamel_reference(u, forcing, nu, i, dt, "etd2rk")
        errs.append(abs(u.coeffs[n] - exact(1.0)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 1.8 and order2 > 1.8


def test_stokes_energy_identity_second_order(table):
    # homogeneous flow: half d/dt ||w||_0^2 + nu ||w||_1^2 = 0; the
    # trapezoid-discretized residual per step shrinks at O(dt^2)
    f = random_field(table, 21)
    nu = 0.1

    def residual(dt):
        g = propagate(f, nu, dt)
        dE = 0.5 * (norm_at(g, 0) ** 2 - norm_at(f, 0) ** 2) / dt
        diss = 0.5 * nu * (norm_at(f, 1) ** 2 + norm_at(g, 1) ** 2)
        return abs(dE + diss)

    r1, r2, r4 = residual(1e-2), residual(5e-3), residual(2.5e-3)
    assert np.log2(r1 / r2) > 1.8
    assert np.log2(r2 / r4) > 1.8


# ---------------------------------------------------------------------------
# decay fit


def test_fit_exact_exponential():
    ts = np.linspace(0.0, 4.0, 41)
    series = [(t, np.exp(-3.0 * t)) for t in ts]
    fit = fit_decay_rate(series)
    assert fit.rate == pytest.approx(3.0, abs=1e-10)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.window[0] == pytest.approx(2.0)


def test_fit_propagate_series(table):
    m = ModeIndex(0, 1, "cos")
    f = SpectralField.from_mode(table, m)
    nu = 0.1
    ts = np.linspace(0.0, 5.0, 26)
    series = [(t, norm_at(propagate(f, nu, t), 0)) for t in ts]
    fit = fit_decay_rate(series)
    assert fit.rate == pytest.approx(nu * table.lambda_min, abs=1e-8)


def test_fit_with_noise():
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 6.0, 121)
    series = [(t, np.exp(-2.0 * t) * (1.0 + 0.01 * rng.uniform(-1, 1))) for t in ts]
    fit = fit_decay_rate(series)
    assert fit.rate == pytest.approx(2.0, rel=0.02)


@pytest.mark.parametrize("rate, noise", [(2.0, 1.0), (0.01, 0.01)], ids=["steep", "flat"])
def test_fit_r_squared_is_the_squared_correlation_in_the_window(rate, noise):
    # the flat series has a total sum of squares below 1
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 6.0, 61)
    vs = np.exp(-rate * ts + noise * rng.standard_normal(ts.size))
    fit = fit_decay_rate(list(zip(ts, vs)))
    inside = ts >= fit.window[0]
    want = np.corrcoef(ts[inside], np.log(vs[inside]))[0, 1] ** 2
    assert 0.1 < want < 0.9
    assert fit.r_squared == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("value, n", [(0.7, 121), (0.001, 31), (2.5, 61), (0.123456, 61)])
def test_fit_of_a_constant_series_has_r_squared_one(value, n):
    # the log values' mean is off their value by rounding, so both sums
    # of squares are rounding noise; r^2 is read off the series itself
    fit = fit_decay_rate([(t, value) for t in np.linspace(0.0, 6.0, n)])
    assert fit.r_squared == 1.0
    assert fit.rate == pytest.approx(0.0, abs=1e-15)


def test_fit_needs_four_samples_in_its_window():
    ts = np.arange(7.0)  # the window [3, 6] holds 4 samples
    assert fit_decay_rate([(t, np.exp(-t)) for t in ts]).rate == pytest.approx(1.0)
    with pytest.raises(ValueError, match="need >= 4 samples inside window"):
        fit_decay_rate([(t, np.exp(-t)) for t in ts[:6]])  # [2.5, 5] holds 3


def test_fit_validation():
    with pytest.raises(ValueError, match="need >= 4 samples inside window"):
        fit_decay_rate([(0.0, 1.0), (1.0, 0.5)])  # too few in window
    for series in ([], [(0.0, 1.0)]):
        with pytest.raises(ValueError, match="at least 2 samples overall"):
            fit_decay_rate(series)
    ts = np.linspace(-1, 1, 19)
    bad = [(t, 1.0 - t) for t in ts]  # hits zero in the window (0, 1)
    with pytest.raises(ValueError, match="nonpositive"):
        fit_decay_rate(bad)


def test_fit_explicit_window():
    # the window is the last half of the series' time span
    ts = np.linspace(4.0, 10.0, 61)
    series = [(t, np.exp(-1.5 * t)) for t in ts]
    fit = fit_decay_rate(series)
    assert isinstance(fit, DecayFit)
    assert fit.window == (7.0, 10.0)
    assert fit.rate == pytest.approx(1.5, abs=1e-9)


# ---------------------------------------------------------------------------
# trajectory


@dataclass
class Row:
    t: float
    energy: float


def test_trajectory_validation(table):
    f = random_field(table, 1)
    rows = [Row(0.0, 1.0), Row(1.0, 0.5)]
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], states=[f, f], diagnostics=rows)
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=[f], diagnostics=rows)
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=[f, f], diagnostics=rows[:1])
    tr = Trajectory(times=[0.0, 1.0], states=[f, propagate(f, 0.1, 1.0)], diagnostics=rows)
    assert len(tr) == 2
    assert norm_at(tr.states[0], 0) > norm_at(tr.states[1], 0)


def test_trajectory_csv(tmp_path, table):
    f = random_field(table, 4)
    tr = Trajectory(
        times=[0.0, 0.5],
        states=[f, propagate(f, 0.1, 0.5)],
        diagnostics=[Row(0.0, 1.0), Row(0.5, 0.8)],
    )
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "t,energy"
    assert len(text) == 3
    assert float(text[2].split(",")[1]) == 0.8


def test_trajectory_csv_of_one_row(tmp_path, table):
    # the header comes from the first row, which may be the only one
    tr = Trajectory(times=[0.0], states=[random_field(table, 4)], diagnostics=[Row(0.0, 1.0)])
    tr.to_csv(tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text().splitlines() == ["t,energy", "0,1"]
