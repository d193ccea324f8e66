"""Field representation, norms, transforms, projections, potentials."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvort import fields
from diskvort.acceptance import SEED_FIELDS, _random_admissible, _stream_at_points
from diskvort.fields import (
    GridField,
    PolarGrid,
    SpectralField,
    biot_savart,
    from_grid,
    greens_potential,
    newtonian_potential,
    norm_at,
    radial_rows,
    synthesize_rows,
    to_grid,
    trace_extension,
)
from bessel_oracle import bessel_j
from harmonic_oracle import disk_harmonic_values
from diskvort.spectrum import ModeIndex, build_table, radial_profiles
from transform_oracle import (
    _profile,
    analyze_two_matmuls,
    eigenfunction_eval,
    from_grid_groups,
    laplacian,
    to_grid_groups,
)
from serialization import field_from_json, field_to_json, grid_field_from_csv
from test_golden_potentials import _check3_grid_field, _check3_points


@pytest.fixture(scope="module")
def table():
    return build_table(5, 5)


@pytest.fixture(scope="module")
def grid(table):
    return PolarGrid(table)


def random_field(table, seed, kind="vorticity", decay=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(table)) / table.lam**decay
    return SpectralField(table, c, kind)


# ---------------------------------------------------------------------------
# norms and diagonal maps


def test_norm_at_single_mode(table):
    m = ModeIndex(0, 1, "cos")
    f = 2.0 * SpectralField.from_mode(table, m)
    lam = table.lam[table.position(m)]
    assert norm_at(f, 0) == pytest.approx(2.0, abs=1e-15)
    assert norm_at(f, 1) == pytest.approx(2.0 * np.sqrt(lam), rel=1e-14)
    assert lam == pytest.approx(14.6819706421, rel=1e-10)


def test_norm_index_validation(table):
    f = SpectralField.zeros(table)
    with pytest.raises(ValueError):
        norm_at(f, 5)
    with pytest.raises(ValueError):
        norm_at(f, -5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_norm_interpolation_inequality(seed):
    tab = build_table(3, 3)
    f = random_field(tab, seed)
    # Cauchy-Schwarz in the lambda weights
    assert norm_at(f, 0) ** 2 <= norm_at(f, -1) * norm_at(f, 1) * (1 + 1e-12)


def test_biot_savart_diagonal(table):
    m = ModeIndex(0, 1, "cos")
    omega = SpectralField.from_mode(table, m)
    psi = biot_savart(omega)
    assert psi.kind == "stream"
    n = table.position(m)
    assert psi.coeffs[n] == pytest.approx(-1.0 / table.lam[n], rel=1e-15)


def test_biot_savart_round_trip(table):
    omega = random_field(table, 7)
    back = laplacian(biot_savart(omega))
    np.testing.assert_allclose(back.coeffs, omega.coeffs, rtol=4e-16)
    assert back.kind == "vorticity"


@pytest.mark.parametrize("level", [-2, -1, 0, 1, 2])
def test_biot_savart_isometry_every_level(table, level):
    omega = random_field(table, 11)
    psi = biot_savart(omega)
    assert norm_at(omega, level) == pytest.approx(norm_at(psi, level + 1), rel=1e-14)


def test_poincare_lower_bound(table):
    for seed in range(10):
        omega = random_field(table, seed)
        lhs = norm_at(omega, 1) ** 2
        rhs = table.lambda_min * norm_at(omega, 0) ** 2
        assert lhs >= rhs * (1 - 1e-12)
    ground = SpectralField.from_mode(table, ModeIndex(0, 1, "cos"))
    assert norm_at(ground, 1) ** 2 == pytest.approx(
        table.lambda_min * norm_at(ground, 0) ** 2, rel=1e-14
    )


def test_kind_tags_enforced(table):
    omega = random_field(table, 3)
    psi = biot_savart(omega)
    with pytest.raises(ValueError):
        biot_savart(psi)
    with pytest.raises(ValueError):
        laplacian(omega)


def test_field_arithmetic_and_table_identity(table):
    f = random_field(table, 1)
    np.testing.assert_array_equal((2.0 * f).coeffs, 2.0 * f.coeffs)
    np.testing.assert_array_equal((f * 2.0).coeffs, 2.0 * f.coeffs)
    alien = SpectralField.zeros(build_table(5, 5))
    with pytest.raises(ValueError, match="grid was built for a different table"):
        to_grid(alien, PolarGrid(table))


# ---------------------------------------------------------------------------
# stream dictionary against finite differences


def test_stream_laplacian_fd_oracle(table):
    # Delta phi = -lambda e for the lifted stream profile, checked by a
    # second-order FD Laplacian in polar coordinates
    m = ModeIndex(1, 1, "cos")
    n = table.position(m)
    alpha, c, lam = table.alpha[n], table.norm[n], table.lam[n]

    def phi(r, t):
        return c * (bessel_j(1, alpha * r) - bessel_j(1, alpha) * r) * np.cos(t)

    r0, t0, h = 0.55, 0.9, 1e-4
    frr = (phi(r0 + h, t0) - 2 * phi(r0, t0) + phi(r0 - h, t0)) / h**2
    fr = (phi(r0 + h, t0) - phi(r0 - h, t0)) / (2 * h)
    ftt = (phi(r0, t0 + h) - 2 * phi(r0, t0) + phi(r0, t0 - h)) / h**2
    lap = frr + fr / r0 + ftt / r0**2
    want = -lam * eigenfunction_eval(table, n, r0, t0)
    assert lap == pytest.approx(want, rel=1e-4)


def test_stream_clamped_at_boundary(table):
    # both the value and the radial derivative of every stream profile
    # vanish at r = 1; sample the lifted dictionary right at the edge
    psi = biot_savart(random_field(table, 5))
    fine = PolarGrid(table, n_radial=60)
    vals = to_grid(psi, fine).values
    # d_r samples from the grid's own d_r stream rows, psi per unit omega
    omega_blocks = table.to_blocks(-table.lam * psi.coeffs)
    drs = synthesize_rows(radial_rows(omega_blocks, fine.kernel_rows[1, 1]), fine.trig)
    # extrapolate to r=1 from the outermost nodes using the analytic form
    n = table.position(ModeIndex(2, 1, "cos"))
    alpha, c = table.alpha[n], table.norm[n]
    edge_val = c * (bessel_j(2, alpha) - bessel_j(2, alpha))
    assert edge_val == 0.0
    edge_dr = c * (alpha * bessel_j(2, alpha, derivative=True) - 2 * bessel_j(2, alpha))
    # J_k'(a) = (k/a)J_k(a) - J_{k+1}(a) and J_3(alpha_{3,1}) = 0 at this mode's zero
    assert edge_dr == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(drs))


# ---------------------------------------------------------------------------
# grid transforms


def test_to_grid_matches_eigenfunction_eval(table, grid):
    m = ModeIndex(2, 3, "sin")
    f = SpectralField.from_mode(table, m)
    out = to_grid(f, grid).values
    rr, tt = grid.node_polar()
    want = eigenfunction_eval(table, m, rr, tt)
    np.testing.assert_allclose(out, want, atol=1e-13)


def test_round_trip_identity(table, grid):
    f = random_field(table, 9)
    spec, harm, residual = from_grid(to_grid(f, grid), table)
    np.testing.assert_allclose(spec.coeffs, f.coeffs, atol=1e-10)
    assert np.linalg.norm(harm) < 1e-10
    assert residual < 1e-10


@settings(max_examples=25, deadline=None)
@given(K=st.integers(0, 6), J=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_round_trip_random_sizes(K, J, seed):
    # 16 radial nodes over the default make the Gauss rule exact to
    # roundoff for these sizes, so the bound tests the transform pair,
    # not the default grid's quadrature error (up to 3e-10 at K=0, J=4)
    small = build_table(K, J)
    f = random_field(small, seed)
    grid = PolarGrid(small, n_radial=2 * J + K + 24)
    spec, harm, residual = from_grid(to_grid(f, grid), small)
    scale = np.max(np.abs(f.coeffs))
    np.testing.assert_allclose(spec.coeffs, f.coeffs, rtol=0, atol=1e-12 * scale)
    assert np.linalg.norm(harm) <= 1e-12 * scale
    assert residual <= 1e-12 * scale


@pytest.mark.parametrize("KJ", [(0, 1), (1, 3), (5, 5), (8, 8)])
def test_batched_transforms_match_group_oracle(KJ):
    small = build_table(*KJ)
    g = PolarGrid(small)
    for kind in ("vorticity", "stream"):
        f = random_field(small, 7, kind)
        want = to_grid_groups(f, g)
        got = to_grid(f, g).values
        assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1.0)
    v = np.random.default_rng(8).standard_normal((g.n_radial, g.n_angular))
    spec, harm, _ = from_grid(GridField(g, v), small)
    want_spec, want_harm = from_grid_groups(v, g, small)
    np.testing.assert_allclose(spec.coeffs, want_spec.coeffs, rtol=0, atol=1e-14)
    np.testing.assert_allclose(harm, want_harm, rtol=0, atol=1e-14)


@pytest.mark.parametrize("KJ", [(0, 1), (4, 12), (8, 8), (32, 24)])
def test_analyze_matches_two_matmul_reference(KJ):
    # one matmul with the analysis matrix against one per part: the
    # blocks and the moments differ only in the order of the sums
    small = build_table(*KJ)
    g = PolarGrid(small)
    v = np.random.default_rng(9).standard_normal((g.n_radial, g.n_angular))
    blocks, moments = g.analyze(v)
    want_blocks, want_moments = analyze_two_matmuls(g, v)
    assert blocks.shape == (2, small.K + 1, small.J) and moments.shape == (2, small.K + 1)
    np.testing.assert_allclose(blocks, want_blocks, rtol=0, atol=1e-15)
    np.testing.assert_allclose(moments, want_moments, rtol=0, atol=1e-15)
    assert moments[1, 0] == 0.0


def test_block_layout_round_trip(table):
    c = random_field(table, 4).coeffs
    blocks = table.to_blocks(c)
    assert blocks.shape == (2, table.K + 1, table.J)
    assert np.all(blocks[1, 0] == 0.0)
    assert np.all(table.perm[1, 0] == len(table))
    for i, m in enumerate(table.modes):
        assert blocks[0 if m.parity == "cos" else 1, m.k, m.j - 1] == c[i]
    np.testing.assert_array_equal(table.from_blocks(blocks), c)
    # to_blocks takes leading axes; from_blocks gathers one set at a time
    stacked = np.stack([c, -c])
    np.testing.assert_array_equal([table.from_blocks(b) for b in table.to_blocks(stacked)], stacked)


@pytest.mark.parametrize("K,J", [(8, 8), (32, 24)])
def test_grid_profiles_bit_identical_to_per_group_profiles(K, J):
    # PolarGrid takes its profiles from spectrum.radial_profiles; the step
    # loop must see the numbers of the per-group scipy construction.  The
    # profiles come from a recurrence, not from scipy's jv/jvp, so they
    # agree to the oracle's own error plus margin, relative to the max of
    # each (order, kind, k) row: at (32,24) scipy's jv is up to 2.7e-14 of a
    # profile's max off mpmath, and J_k' up to 5.1e-14 whether it comes
    # from jv or from jvp; the worst d_r row reads 4.4e-14 either way.
    # test_radial_profiles_match_mpmath gates the profiles at 1e-14.  The
    # kernel rows hold the value rows over r and psi per unit omega, so
    # each row is compared with those scalings undone.
    big = build_table(K, J)
    g = PolarGrid(big)
    for order, what in enumerate(("value", "d_r")):
        for i, kind in enumerate(("vorticity", "stream")):
            for k in range(K + 1):
                want = _profile(big, big.perm[0, k], k, g.r, kind, what)
                got = g.kernel_rows[order, i, k] * (g.r if order == 0 else 1.0)
                if kind == "stream":
                    got = got * -big.lam[big.perm[0, k]][:, None]
                err = np.abs(got - want).max()
                assert err <= 5e-14 * np.abs(want).max(), (what, kind, k)
    ck = [1.0 / np.sqrt(np.pi)] + [np.sqrt((2.0 * k + 2.0) / np.pi) for k in range(1, K + 1)]
    assert np.array_equal(g.harm, np.stack([ck[k] * g.r**k for k in range(K + 1)]))


def test_grid_profiles_are_a_view_of_the_profile_stack(table, monkeypatch):
    # PolarGrid scales the value and d_r stack of one radial_profiles call
    # in place into its kernel rows; a copy would change the set-up's
    # allocations, which move the benchmark's scaled metrics
    calls = []

    def recorded(*args):
        calls.append(radial_profiles(*args))
        return calls[-1]

    monkeypatch.setattr(fields, "radial_profiles", recorded)
    g = PolarGrid(table)
    ((prof, harm),) = calls
    assert g.kernel_rows is prof
    assert prof.shape == (2, 2, table.K + 1, table.J, g.n_radial)
    assert np.shares_memory(g.harm, harm)
    want = radial_profiles(table, g.r)[0]
    want[:, 1] *= (-1.0 / table.lam[table.perm[0]])[..., None]
    want[0] /= g.r
    np.testing.assert_array_equal(g.kernel_rows, want)


def boundary_values(f, theta):
    """A vorticity field at r = 1, one eigenfunction at a time."""
    return sum(f.coeffs[i] * eigenfunction_eval(f.table, i, 1.0, theta) for i in range(len(f.table)))


def test_boundary_trace_is_profile_at_one(table):
    f = random_field(table, 12)
    theta = np.linspace(0.0, 2.0 * np.pi, 9)
    ext = trace_extension(f)
    assert ext.shape == (2, table.K + 1) and ext[1, 0] == 0.0
    got = disk_harmonic_values(ext, 1.0, theta)
    np.testing.assert_allclose(got, boundary_values(f, theta), rtol=0, atol=1e-13)


@pytest.mark.parametrize("K,J", [(4, 12), (8, 8), (32, 24), (63, 3)])
def test_trace_extension_matches_the_profiles_at_the_wall(K, J):
    # the trace reads the table's exact lift for c J_k(alpha), where the
    # profile stack at r = 1 evaluates J_k(alpha) itself
    table = build_table(K, J)
    omega = random_field(table, K + J, decay=0.0)
    prof, harm = radial_profiles(table, [1.0])
    want = np.sum(table.to_blocks(omega.coeffs) * prof[0, 0, :, :, 0], axis=-1) / harm[0, :, 0]
    got = trace_extension(omega)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_from_grid_pure_mode(table, grid):
    f = SpectralField.from_mode(table, ModeIndex(1, 2, "cos"))
    spec, harm, residual = from_grid(to_grid(f, grid), table)
    n = table.position(ModeIndex(1, 2, "cos"))
    assert spec.coeffs[n] == pytest.approx(1.0, abs=1e-9)
    rest = np.delete(spec.coeffs, n)
    assert np.max(np.abs(rest)) < 1e-9
    assert np.linalg.norm(harm) < 1e-9
    assert residual < 1e-9


def test_from_grid_pure_harmonic(table, grid):
    rr, tt = grid.node_polar()
    gf = GridField(grid, rr * np.cos(tt))
    spec, harm, residual = from_grid(gf, table)
    assert np.max(np.abs(spec.coeffs)) < 1e-9
    rec = disk_harmonic_values(harm, rr, tt)
    np.testing.assert_allclose(rec, gf.values, atol=1e-9)
    assert residual < 1e-9
    # coefficient against h_1^c: (r cos, h_1^c) = 1/ch where h = ch r cos
    ch = np.sqrt(4.0 / np.pi)
    assert harm[0, 1] == pytest.approx(1.0 / ch, rel=1e-12)
    assert abs(harm[0, 0]) < 1e-12 and np.max(np.abs(harm[1])) < 1e-12


def test_projection_idempotence(table, grid):
    rng = np.random.default_rng(42)
    raw = GridField(grid, rng.standard_normal((grid.n_radial, grid.n_angular)))
    spec1, _, _ = from_grid(raw, table)
    spec2, harm2, _ = from_grid(to_grid(spec1, grid), table)
    np.testing.assert_allclose(spec2.coeffs, spec1.coeffs, atol=1e-11)
    assert np.linalg.norm(harm2) < 1e-11


def test_projection_self_adjoint_and_orthogonal(table, grid):
    rng = np.random.default_rng(3)
    f = rng.standard_normal((grid.n_radial, grid.n_angular))
    g = rng.standard_normal((grid.n_radial, grid.n_angular))

    def project(v):
        spec, _, _ = from_grid(GridField(grid, v), table)
        return to_grid(spec, grid).values

    pf, pg = project(f), project(g)
    assert grid.integrate(pf * g) == pytest.approx(grid.integrate(f * pg), abs=1e-9)
    # P o P = P
    np.testing.assert_allclose(project(pf), pf, atol=1e-10)
    # harmonic part of a projected field vanishes
    _, harm, _ = from_grid(GridField(grid, pf), table)
    assert np.linalg.norm(harm) < 1e-10


def test_stream_dictionary_biorthogonality(table, grid):
    # (e_n, phi_m) = delta_nm: the harmonic correction is L2-orthogonal
    # to the admissible span, so from_grid of a stream field returns the
    # stream coefficients unchanged
    psi = biot_savart(random_field(table, 21))
    spec, harm, residual = from_grid(to_grid(psi, grid), table)
    np.testing.assert_allclose(spec.coeffs, psi.coeffs, atol=1e-11)
    assert np.linalg.norm(harm) > 0.0  # the lifts do carry harmonic content
    assert residual < 1e-10


# ---------------------------------------------------------------------------
# harmonic parts: cos/sin rows (2, K+1) against the unit harmonics c_k r^k


def test_harmonic_orthonormality_by_quadrature(table, grid):
    K = table.K
    rr, tt = grid.node_polar()
    basis = []
    for k in range(K + 1):
        for parity in (0, 1) if k >= 1 else (0,):
            e = np.zeros((2, K + 1))
            e[parity, k] = 1.0
            basis.append(disk_harmonic_values(e, rr, tt))
    gram = np.array([[grid.integrate(u * v) for v in basis] for u in basis])
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)


def test_harmonic_norm_equals_coefficients(table, grid):
    rng = np.random.default_rng(8)
    h = np.stack([rng.standard_normal(6), np.r_[0.0, rng.standard_normal(5)]])
    rr, tt = grid.node_polar()
    quad = np.sqrt(grid.integrate(disk_harmonic_values(h, rr, tt) ** 2))
    assert quad == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_harmonic_is_harmonic_fd(table):
    h = np.array([[0.3, -1.2, 0.7], [0.0, 0.4, -0.9]])

    def f(r, t):
        return disk_harmonic_values(h, r, t)

    r0, t0, step = 0.6, 1.1, 1e-4
    frr = (f(r0 + step, t0) - 2 * f(r0, t0) + f(r0 - step, t0)) / step**2
    fr = (f(r0 + step, t0) - f(r0 - step, t0)) / (2 * step)
    ftt = (f(r0, t0 + step) - 2 * f(r0, t0) + f(r0, t0 - step)) / step**2
    lap = frr + fr / r0 + ftt / r0**2
    assert abs(lap) < 1e-5


# ---------------------------------------------------------------------------
# q1 split: omega = (omega - extension) + extension, the first part zero
# on the boundary, the second the harmonic trace extension


def test_q1_split_radial_mode_trace(table):
    m = ModeIndex(0, 1, "cos")
    omega = SpectralField.from_mode(table, m)
    n = table.position(m)
    trace_const = table.norm[n] * bessel_j(0, table.alpha[n])
    extension = trace_extension(omega)
    assert extension[0, 0] == pytest.approx(trace_const * np.sqrt(np.pi), rel=1e-13)
    theta = np.linspace(0, 2 * np.pi, 50)
    dirichlet = boundary_values(omega, theta) - disk_harmonic_values(extension, 1.0, theta)
    assert np.max(np.abs(dirichlet)) < 1e-8


def test_q1_split_dirichlet_orthogonality(table, grid):
    omega = random_field(table, 17)
    extension = trace_extension(omega)
    rr, tt = grid.node_polar()

    def grad_sq(sample_fn):
        return grid.integrate(sample_fn("d_r") ** 2 + (sample_fn("d_theta") / rr) ** 2)

    def ext_part(what):
        return disk_harmonic_values(extension, rr, tt, what)

    total = grad_sq(lambda w: to_grid_groups(omega, grid, w))
    d_part = grad_sq(lambda w: to_grid_groups(omega, grid, w) - ext_part(w))
    e_part = grad_sq(ext_part)
    assert d_part + e_part == pytest.approx(total, rel=1e-6)


def test_q1_split_boundary_vanishes(table):
    omega = random_field(table, 23)
    theta = np.linspace(0, 2 * np.pi, 64)
    dirichlet = boundary_values(omega, theta) - disk_harmonic_values(trace_extension(omega), 1.0, theta)
    assert np.max(np.abs(dirichlet)) < 1e-8


# ---------------------------------------------------------------------------
# newtonian potential


def test_newtonian_zero_field(table):
    small = PolarGrid(table, n_radial=20, n_angular=32)
    gf = GridField(small, np.zeros((20, 32)))
    res = newtonian_potential(gf, [(1.5, 0.0), (0.3, 0.1)])
    np.testing.assert_array_equal(res.values, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_potentials_of_non_finite_samples_are_not_finite(table, bad):
    small = PolarGrid(table, n_radial=20, n_angular=32)
    values = np.zeros((20, 32))
    values[7, 3] = bad
    for route in (newtonian_potential, greens_potential):
        with np.errstate(invalid="ignore"):  # the rfft of inf warns
            res = route(GridField(small, values), [(0.3, 0.1), (0.0, 0.0)])
        assert not np.isfinite(res.values).any()


def test_newtonian_exterior_vanishes(table):
    # admissible vorticity has zero Newtonian potential outside the disk
    omega = SpectralField.from_mode(table, ModeIndex(0, 1, "cos"))
    fine = PolarGrid(table, n_radial=80, n_angular=128)
    gf = to_grid(omega, fine)
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    pts = np.stack([1.5 * np.cos(angles), 1.5 * np.sin(angles)], axis=1)
    res = newtonian_potential(gf, pts)
    assert not np.any(res.near_node)
    assert np.max(np.abs(res.values)) < 1e-6 * norm_at(omega, 0)


def test_newtonian_point_shape_validation(table):
    small = PolarGrid(table, n_radial=12, n_angular=32)
    gf = GridField(small, np.zeros((12, 32)))
    with pytest.raises(ValueError):
        newtonian_potential(gf, np.zeros((3, 3)))


def test_greens_matches_newtonian_for_admissible_data(table):
    # the image correction is harmonic in the source variable, so it
    # integrates to zero against fields with no harmonic moments
    omega = random_field(table, 23)
    fine = PolarGrid(table, n_radial=120, n_angular=192)
    gf = to_grid(omega, fine)
    pts = [(0.4, 0.2), (-0.55, 0.3), (0.7, -0.6), (0.05, 0.9)]
    a = greens_potential(gf, pts)
    b = newtonian_potential(gf, pts)
    assert not np.any(a.near_node)
    np.testing.assert_allclose(a.values, b.values, atol=1e-5)


def test_greens_matches_spectral_stream(table):
    m = ModeIndex(0, 1, "cos")
    omega = SpectralField.from_mode(table, m)
    pos = table.position(m)
    alpha, lam, c = table.alpha[pos], table.lam[pos], table.norm[pos]
    fine = PolarGrid(table, n_radial=160, n_angular=256)
    gf = to_grid(omega, fine)
    pts = np.array([(0.31, 0.12), (-0.5, 0.22), (0.03, -0.62)])
    res = greens_potential(gf, pts)
    r = np.hypot(pts[:, 0], pts[:, 1])
    exact = -(c / lam) * (bessel_j(0, alpha * r) - bessel_j(0, alpha))
    np.testing.assert_allclose(res.values, exact, atol=2e-5)


def test_greens_rejects_exterior_points(table):
    small = PolarGrid(table, n_radial=12, n_angular=32)
    gf = GridField(small, np.zeros((12, 32)))
    with pytest.raises(ValueError, match="interior"):
        greens_potential(gf, [(1.0, 0.0)])
    with pytest.raises(ValueError, match="interior"):
        greens_potential(gf, [(1.2, 0.5)])


def test_greens_zero_field(table):
    small = PolarGrid(table, n_radial=12, n_angular=32)
    gf = GridField(small, np.zeros((12, 32)))
    res = greens_potential(gf, [(0.3, 0.1), (0.0, 0.0)])
    np.testing.assert_array_equal(res.values, 0.0)


def _spectral_stream(omega, pts):
    """The clamped Biot-Savart stream at points (n, 2); ``radial_profiles``
    takes radii in (0, 1], so the origin reads at r = 1e-100."""
    pts = np.array(pts, dtype=float)
    pts[np.all(pts == 0.0, axis=1)] = 1e-100, 0.0
    return _stream_at_points(biot_savart(omega), pts)


def _on_circles(radii, angles):
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    return np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)


def test_potentials_match_spectral_stream_to_rounding():
    # check 3's field and grid: inside the disk both kernels give the
    # spectral stream to rounding at check 3's points, on node radii, on
    # two nodes (the last radius at angle 0 is the last node exactly),
    # at the origin and next to it; outside, the Newtonian potential
    # vanishes at check 3's exterior points
    grid, gf = _check3_grid_field()
    omega = _random_admissible(grid.table, SEED_FIELDS)
    interior, exterior = _check3_points(grid)
    on_radii = _on_circles(grid.r[[0, 1, 129, 258, 259]], [0.0, 0.3, 2.1, 4.4])
    node = [grid.r[100] * np.cos(grid.theta[7]), grid.r[100] * np.sin(grid.theta[7])]
    center = [(0.0, 0.0), (1e-12 * np.cos(0.7), 1e-12 * np.sin(0.7)), (1e-9 * np.cos(2.0), 1e-9 * np.sin(2.0))]
    pts = np.vstack([interior, on_radii, [node], center])
    want = _spectral_stream(omega, pts)
    for route in (newtonian_potential, greens_potential):
        res = route(gf, pts)
        assert not res.near_node.any()
        err = np.max(np.abs(res.values - want))
        assert err <= 1e-13, f"{route.__name__}: off the spectral stream by {err:.2e}"
    out = newtonian_potential(gf, exterior).values
    assert np.max(np.abs(out)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("K, J", [(8, 32), (8, 48)])
def test_potentials_resolve_rows_of_high_radial_content(K, J):
    # unit-coefficient fields reach alpha 114 and 164: on 260 radial
    # nodes their rows hold Legendre degrees up to 127 and 221, past the
    # 63 that one 32-point panel takes exactly (such a panel read 3.8e-5
    # and 1.2 of max|psi| on these fields), so the panels' rule grows
    # with the rows.  Both kernels hold the spectral stream on two rays,
    # on node radii and next to the center; the samples' own rounding
    # leaves 1.3e-13 at (8, 48)
    table = build_table(K, J)
    omega = SpectralField(table, np.random.default_rng(1).standard_normal(len(table)), "vorticity")
    grid = PolarGrid(table, n_radial=260)
    gf = to_grid(omega, grid)
    rays = _on_circles(np.linspace(0.05, 0.95, 19), [0.7, 2.9])
    pts = np.vstack([rays, _on_circles(grid.r[[0, 1, 129, 259]], [0.0, 4.4]), _on_circles([1e-9, 1e-4, 1e-2], [1.0])])
    want = _spectral_stream(omega, pts)
    for route in (newtonian_potential, greens_potential):
        err = np.max(np.abs(route(gf, pts).values - want))
        assert err <= 1e-12 * np.max(np.abs(want)), f"{route.__name__}: off by {err:.2e}"


def test_potentials_past_the_last_node_read_within_the_shell_bound():
    # between the last radial node and the wall the grid's nodes take the
    # kernel, blind to its kink at rho: both potentials read about 0
    # where the clamped stream is about (1 - rho)^2 omega / 2, 0.33
    # (1 - rho)^2 max|omega| on check 3's field; a larger error fails the
    # bound, which adds rounding for the points next to the wall
    grid, gf = _check3_grid_field()
    omega = _random_admissible(grid.table, SEED_FIELDS)
    gap = 1.0 - grid.r[-1]  # 2.13e-5
    one_minus = np.array([0.999 * gap, 0.75 * gap, 0.5 * gap, 1e-6, 1e-9])
    pts = _on_circles(1.0 - one_minus, [0.0, 0.7, 2.1, 4.4])
    want = _spectral_stream(omega, pts)
    bound = np.max(np.abs(gf.values)) * (0.5 * np.repeat(one_minus, 4) ** 2 + 1e-13)
    for route in (newtonian_potential, greens_potential):
        err = np.abs(route(gf, pts).values - want)
        assert np.all(err <= bound), f"{route.__name__}: {np.max(err / bound):.2f} of the bound"


@pytest.mark.parametrize("near", [False, True], ids=["clear", "near"])
@pytest.mark.parametrize("count", [1, 44, 45, 46, 90, 91, 92])
def test_blocked_potentials_match_per_point_oracle(table, count, near):
    # ``count`` points in one call against the spectral stream, the
    # per-point oracle, up to the last radial node (past it, see the test
    # above); with ``near`` the last point sits on a quadrature node
    grid = PolarGrid(table, n_radial=60, n_angular=96)
    omega = random_field(table, 5)
    gf = to_grid(omega, grid)
    rng = np.random.default_rng(count)
    rad, ang = grid.r[-1] * np.sqrt(rng.uniform(0, 1, count)), rng.uniform(0, 2 * np.pi, count)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    if near:
        pts[-1] = grid.r[37] * np.cos(grid.theta[11]), grid.r[37] * np.sin(grid.theta[11])
    want = _spectral_stream(omega, pts)
    for route in (newtonian_potential, greens_potential):
        res = route(gf, pts)
        np.testing.assert_array_equal(res.near_node, False)
        np.testing.assert_allclose(res.values, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("block", [1, 2**22])
def test_potentials_do_not_depend_on_block_size(table, block):
    # points fed in calls of ``block`` points each (one at a time, or all
    # at once), in a shuffled order, give the same bits as all at once in
    # order; points share radii, one sits on a node and one at the origin
    grid = PolarGrid(table, n_radial=60, n_angular=96)
    gf = to_grid(random_field(table, 9), grid)
    rng = np.random.default_rng(9)
    pts = np.vstack([_on_circles(rng.uniform(0.05, 0.95, 6), rng.uniform(0, 2 * np.pi, 5)), [(0.0, 0.0)]])
    pts[-2] = grid.r[37] * np.cos(grid.theta[11]), grid.r[37] * np.sin(grid.theta[11])
    order = rng.permutation(len(pts))
    for route in (newtonian_potential, greens_potential):
        want = route(gf, pts)
        got = np.empty(len(pts))
        for s in range(0, len(pts), block):
            got[order[s : s + block]] = route(gf, pts[order[s : s + block]]).values
        np.testing.assert_array_equal(got, want.values)
        np.testing.assert_array_equal(want.near_node, False)


def test_greens_potential_wall_limit(table):
    # the Green potential over 1 - |x|^2 tends to a smooth limit (half its
    # normal derivative) as x reaches the wall; a non-admissible random
    # field keeps that away from zero.  At 1 - |x| = 1e-12 the rounded points move
    # their distance from the wall by ~1e-4 relative, so the quotient
    # takes 1 - |x|^2 of the stored points.  Writing the image argument
    # as |x|^2 |y|^2 - 2 x.y + 1 cancels to ~1e-3 relative there.
    grid = PolarGrid(table, n_radial=120, n_angular=192)
    gf = GridField(grid, np.random.default_rng(4).standard_normal((120, 192)))
    # angles midway between the rule's angular nodes
    ang = 2 * np.pi * (12 * np.arange(16) + 0.5) / 192
    quotients = []
    for delta in (1e-6, 1e-12):
        pts = (1 - delta) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        res = greens_potential(gf, pts)
        assert not res.near_node.any()
        quotients.append(res.values / (1 - np.sum(pts**2, axis=1)))
    coarse, fine = quotients
    assert np.max(np.abs(coarse - fine)) <= 1e-4 * np.max(np.abs(coarse))


# ---------------------------------------------------------------------------
# serialization


def test_spectral_field_json_round_trip(table):
    f = random_field(table, 31)
    back = field_from_json(table, field_to_json(f))
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


def test_grid_field_csv_round_trip(table, tmp_path):
    small = PolarGrid(table, n_radial=8, n_angular=17)
    rng = np.random.default_rng(12)
    gf = GridField(small, rng.standard_normal((8, 17)))
    path = tmp_path / "snap.csv"
    gf.to_csv(path)
    back = grid_field_from_csv(small, path)
    np.testing.assert_array_equal(back.values, gf.values)


def test_grid_reports_every_refusal(table):
    # one message per bad count, in PolarGrid's order; None is the default
    assert fields.grid_size_problems(5, 5, None, None) == fields.grid_size_problems(5, 5, 7, 16) == []
    problems = ["angular count 10 under aliasing floor 16 for K=5", "radial count 3 too small for J=5"]
    assert fields.grid_size_problems(5, 5, 3, 10) == problems
    with pytest.raises(ValueError, match="^" + re.escape("; ".join(problems)) + "$"):
        PolarGrid(table, n_radial=3, n_angular=10)
    assert fields.grid_size_problems(5, 5, 6.5, 10) == ["n_radial must be an integer, got 6.5", problems[0]]


@pytest.mark.parametrize("K, floor", [(0, 2), (1, 4), (2, 7)])
def test_aliasing_floor_is_max_of_2k_plus_2_and_3k_plus_1(K, floor):
    assert fields.grid_size_problems(K, 1, None, floor) == []
    assert fields.grid_size_problems(K, 1, None, floor - 1) == [
        f"angular count {floor - 1} under aliasing floor {floor} for K={K}"
    ]


def test_grid_validation(table):
    with pytest.raises(ValueError):
        PolarGrid(table, n_angular=10)  # below aliasing floor for K=5
    with pytest.raises(ValueError):
        PolarGrid(table, n_radial=3)
    # a count that is not an integer is rejected, not truncated
    for name, value in [("n_radial", 20.7), ("n_angular", 20.7), ("n_radial", True), ("n_angular", 20.0)]:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            PolarGrid(table, **{name: value})
    assert PolarGrid(table, n_radial=np.int64(20)).n_radial == 20
    grid = PolarGrid(table)
    with pytest.raises(ValueError):
        GridField(grid, np.zeros((2, 2)))


def test_potential_is_continuous_where_a_panel_point_meets_a_node():
    # at rho = r_j / x_k the k-th Gauss point of the [0, rho] panel is the
    # node r_j, where the barycentric interpolant reads 0 / 0 and takes
    # the node's sample; the potential there matches rho's next float
    r, wr = fields.gauss_legendre(24, 0.0, 1.0)
    theta = 2.0 * np.pi * np.arange(16) / 16
    values = np.cos(3.0 * r)[:, None] * (1.0 + np.cos(theta))
    x = fields.gauss_legendre(fields._panel_points(np.fft.rfft(values)[:, :2].copy(), np.arange(2)), 0.0, 1.0)[0]
    hits = [
        rho
        for j in range(8, 16)
        for k in range(x.size)
        if (rho := r[j] / x[k]) <= r[-1] and rho * x[k] == r[j] and np.sqrt(rho * rho) == rho
    ]
    assert len(hits) >= 10
    for rho in hits[:10]:
        at, next_to = (fields._log_potential(r, wr, values, np.array([s * s]), np.array([0.3])) for s in (rho, np.nextafter(rho, 1.0)))
        assert np.isfinite(at).all()
        assert abs(at - next_to) <= 1e-14 * abs(at)
