"""Multiply connected toolkit: circulation functions, spectra, flux laws."""

import inspect
import itertools
import re

import mpmath
import numpy as np
import pytest
from numpy.polynomial.polyutils import mapparms
from scipy.optimize import brentq

from diskvort import annulus
from diskvort.annulus import (
    AnnulusGeometry,
    BoundaryReport,
    ProjectedField,
    annulus_stokes_circulation,
    bergman_project,
    galerkin_spectra,
    newtonian_bs_annulus,
    omega_big,
    q1_dirichlet_split,
    xi_circulation,
    zeta_pairing,
    _constraint_rows,
    _harmonic_moments,
    _integrate,
    _legendre_tables,
    _sample,
)
from bessel_oracle import bessel_j, bessel_y
from galerkin_oracle import galerkin_spectra as per_mode_spectra
from harmonic_oracle import basis_terms, dense_projection, element_values, rows_in_term_order
from legendre_oracle import legendre_tables
from propagator_oracle import expm_readout

R = 0.5
RTOL_BRENT = 4 * np.finfo(float).eps


@pytest.fixture(scope="module")
def geom():
    return AnnulusGeometry(R)


@pytest.fixture(scope="module")
def xi(geom):
    return xi_circulation(geom)


@pytest.fixture(scope="module")
def spectra(geom):
    return galerkin_spectra(geom, n_poly=24, k_max=4)


def first_roots(f, count, lo=0.5, hi=60.0, n=4000):
    xs = np.linspace(lo, hi, n)
    vs = np.array([f(x) for x in xs])
    roots = []
    for i in range(n - 1):
        if vs[i] * vs[i + 1] < 0:
            roots.append(brentq(f, xs[i], xs[i + 1], xtol=1e-14, rtol=RTOL_BRENT))
            if len(roots) == count:
                break
    return roots


def band_field(rng, band=3):
    """Random smooth field with angular content up to the given band."""
    cr = rng.normal(size=(band + 1, 3))

    def f(r, theta, what="value"):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape)
        for k in range(band + 1):
            prof = (
                cr[k, 0] * np.sin(np.pi * (r - R) / (1 - R))
                + cr[k, 1] * (r - R) * (1 - r)
                + cr[k, 2] * r**2
            )
            dpr = (
                cr[k, 0] * np.cos(np.pi * (r - R) / (1 - R)) * np.pi / (1 - R)
                + cr[k, 1] * ((1 - r) - (r - R))
                + cr[k, 2] * 2 * r
            )
            if what == "value":
                out = out + prof * np.cos(k * theta)
            elif what == "d_r":
                out = out + dpr * np.cos(k * theta)
            else:
                raise ValueError(what)
        return out

    return f


def j_bump(r, theta, what="value"):
    s = np.sin(np.pi * (r - R) / (1 - R)) ** 2
    ds = np.pi / (1 - R) * np.sin(2 * np.pi * (r - R) / (1 - R))
    if what == "value":
        return s * (1.0 + np.cos(theta))
    if what == "d_r":
        return ds * (1.0 + np.cos(theta))
    raise ValueError(what)


class TestGeometry:
    def test_rejects_radius_outside_band(self):
        for r_inner in (0.02, 0.0499, 0.9501, 0.97):
            with pytest.raises(ValueError, match=r"\[0.05, 0.95\]"):
                AnnulusGeometry(r_inner)
        assert AnnulusGeometry(0.05).r_inner == 0.05 and AnnulusGeometry(0.95).r_inner == 0.95

    def test_rejects_tiny_quadrature(self):
        for counts in ({"n_radial": 4}, {"n_radial": 15}, {"n_angular": 15}):
            with pytest.raises(ValueError, match="resolution"):
                AnnulusGeometry(0.5, **counts)
        assert AnnulusGeometry(0.5, n_radial=16, n_angular=16).n_radial == 16

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda g: AnnulusGeometry(R, n_angular=256.5), "n_angular"),
            (lambda g: AnnulusGeometry(R, n_radial=200.0), "n_radial"),
            (lambda g: AnnulusGeometry(R, n_radial=True), "n_radial"),
            (lambda g: newtonian_bs_annulus(g, j_bump, n_boundary=0), "n_boundary"),
            (lambda g: newtonian_bs_annulus(g, j_bump, n_boundary=-1), "n_boundary"),
            (lambda g: newtonian_bs_annulus(g, j_bump, n_boundary=2.5), "n_boundary"),
            (lambda g: newtonian_bs_annulus(g, j_bump, n_boundary=True), "n_boundary"),
            # the report reads the rule's own angles
            (
                lambda g: newtonian_bs_annulus(
                    AnnulusGeometry(R, n_radial=32, n_angular=64), j_bump, n_boundary=7
                ),
                "n_boundary must divide n_angular = 64, got 7",
            ),
        ],
    )
    def test_rejects_counts_that_are_not_integers(self, geom, build, name):
        with pytest.raises(ValueError, match=name):
            build(geom)

    def test_accepts_numpy_integer_counts(self):
        geo = AnnulusGeometry(R, n_radial=np.int64(40), n_angular=np.int32(64))
        assert geo.theta().size == 64
        proj = bergman_project(geo, j_bump, degree=4)
        rep = newtonian_bs_annulus(geo, proj, degree=4, n_boundary=np.int64(8))
        assert rep == newtonian_bs_annulus(geo, proj, degree=4, n_boundary=8)

    def test_defaults_of_the_shipped_calls(self):
        # the resolution and sizes that annulus-verify, the demo and a bare
        # call use when none is given
        geom = AnnulusGeometry(R)
        assert (geom.n_radial, geom.n_angular) == (200, 256)
        defaults = lambda fn: {k: p.default for k, p in inspect.signature(fn).parameters.items() if p.default is not p.empty}
        assert defaults(q1_dirichlet_split) == {"degree": 8}
        assert defaults(newtonian_bs_annulus) == {"degree": 8, "n_boundary": 64}
        assert defaults(galerkin_spectra) == {"n_poly": 24, "k_max": 4}
        assert defaults(annulus_stokes_circulation) == {"omega0": None, "n_out": 80}

    def test_quadrature_weights_cover_the_interval(self, geom):
        _, wr = geom.radial_rule()
        assert abs(wr.sum() - (1.0 - R)) < 1e-14


def unit_harmonics(geom, degree):
    """Each zero-flux harmonic up to the degree as a field callable: the
    package's harmonic sum of rows (2, 2, degree+1) with one entry 1 on a
    zero base.  The slots of r^-0 and of sin at k = 0 hold no harmonic."""
    for power, parity, k in itertools.product(range(2), range(2), range(degree + 1)):
        if k == 0 and (power or parity):
            continue
        rows = np.zeros((2, 2, degree + 1))
        rows[power, parity, k] = 1.0
        yield ProjectedField(lambda r, t, what="value": 0.0, geom, rows)


def gram_condition(geom, degree):
    """The Gram condition number ``bergman_project`` refuses above 1e12:
    max over min of the eigenvalues of ``_harmonic_moments``' Gram blocks,
    which the sampled values do not enter."""
    eig = np.linalg.eigvalsh(_harmonic_moments(geom, degree, np.zeros((geom.n_radial, geom.n_angular)))[1])
    return float(eig.max() / eig.min())


class TestHarmonicBasis:
    def test_every_element_has_zero_inner_flux(self, geom):
        # log r is excluded by construction, so each member must carry
        # no flux through the inner circle
        th = geom.theta()
        for h in unit_harmonics(geom, 8):
            deriv = h(np.full_like(th, R), th, "d_r")
            flux = float(np.sum(-deriv) * (2 * np.pi / th.size) * R)
            assert abs(flux) <= 1e-10

    def test_elements_are_unit_normalized(self, geom):
        for h in unit_harmonics(geom, 6):
            nrm2 = _integrate(geom, _sample(geom, h) ** 2)
            assert abs(nrm2 - 1.0) < 1e-12

    def test_rejects_negative_degree(self, geom):
        with pytest.raises(ValueError, match="nonnegative"):
            bergman_project(geom, j_bump, degree=-1)

    @pytest.mark.parametrize("degree", [8, 9, 7.0, 2.5, True])
    def test_rejects_degree_the_angular_rule_aliases(self, degree):
        # with 16 angles wavenumber 8 aliases: the split's outer trace was
        # 2.0 and the projection failed as "ill-conditioned (cond 3.1e30)"
        geo = AnnulusGeometry(R, n_radial=32, n_angular=16)
        for call in (
            lambda: bergman_project(geo, j_bump, degree=degree),
            lambda: q1_dirichlet_split(geo, j_bump, degree=degree),
            lambda: newtonian_bs_annulus(geo, j_bump, degree=degree),
        ):
            with pytest.raises(ValueError, match=r"degree must be a nonnegative integer below n_angular / 2 = 8, got"):
                call()

    def test_split_at_the_largest_degree_the_rule_resolves(self):
        geo = AnnulusGeometry(R, n_radial=32, n_angular=16)
        th = geo.theta()
        split = q1_dirichlet_split(geo, band_field(np.random.default_rng(5), band=7), degree=np.int64(7))
        assert np.max(np.abs(split(np.ones_like(th), th))) <= 1e-12
        assert np.std(split(np.full_like(th, R), th)) <= 1e-12


class TestXi:
    def test_inner_flux_is_minus_one(self, xi):
        assert abs(xi.inner_flux() + 1.0) <= 1e-10

    def test_outer_trace_vanishes(self, xi):
        assert xi(1.0, 0.3) == 0.0

    def test_harmonic_by_finite_differences(self, xi):
        h = 1e-4
        for r0 in (0.6, 0.75, 0.9):
            lap = (xi(r0 + h, 0.0) - 2 * xi(r0, 0.0) + xi(r0 - h, 0.0)) / h**2
            lap += xi(r0, 0.0, "d_r") / r0
            assert abs(lap) <= 1e-6


class TestOmegaBig:
    def test_matches_mean_free_xi(self, geom, xi):
        # closed form: xi is radial and harmonic, so the projection only
        # removes the constant component
        om = omega_big(geom, xi, degree=8)
        r, wr = geom.radial_rule()
        th = geom.theta()
        mean_xi = 2 * np.pi * float((wr * r) @ xi(r, 0.0)) / (np.pi * (1.0 - R * R))
        diff = om(r[:, None], th[None, :]) - (xi(r[:, None], th[None, :]) - mean_xi)
        assert np.sqrt(_integrate(geom, diff**2)) <= 1e-12

    def test_flux_is_preserved(self, geom, xi):
        om = omega_big(geom, xi, degree=8)
        th = geom.theta()
        deriv = om(np.full_like(th, R), th, "d_r")
        flux = float(np.sum(-deriv) * (2 * np.pi / th.size) * R)
        assert abs(flux + 1.0) <= 1e-8

    def test_orthogonal_to_every_basis_element(self, geom, xi):
        om = omega_big(geom, xi, degree=8)
        r, wr = geom.radial_rule()
        th = geom.theta()
        w = (wr * r)[:, None] * (2 * np.pi / geom.n_angular)
        fv = _sample(geom, om)
        for term in basis_terms(R, 8):
            comp = float(np.sum(w * element_values(*term, r[:, None], th[None, :]) * fv))
            assert abs(comp) <= 1e-8

    def test_differs_from_xi(self, geom, xi):
        om = omega_big(geom, xi, degree=8)
        diff = _sample(geom, om) - _sample(geom, xi)
        assert np.sqrt(_integrate(geom, diff**2)) > 1e-3

    def test_condition_number_below_the_refusal(self, geom):
        assert 1.0 <= gram_condition(geom, 8) < 1e12


class TestBergmanProjection:
    def test_idempotent(self, geom):
        f = band_field(np.random.default_rng(7))
        second = bergman_project(geom, bergman_project(geom, f, degree=6), degree=6)
        assert np.max(np.abs(second.rows)) <= 1e-9

    @pytest.mark.parametrize("r_inner", [0.05, 0.95])
    def test_idempotent_at_the_largest_degree_of_the_default_rule(self, r_inner):
        # at R = 0.05 the norm of r^-127 once overflowed; (R/r)^k keeps
        # every radial factor at most 1 on the annulus
        geo = AnnulusGeometry(r_inner)
        first = bergman_project(geo, band_field(np.random.default_rng(7)), degree=127)
        assert np.all(np.isfinite(first.rows))
        assert np.max(np.abs(bergman_project(geo, first, degree=127).rows)) <= 1e-9

    @pytest.mark.parametrize("r_inner", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("degree", [0, 1, 8, 40])
    def test_block_solve_matches_dense_oracle(self, r_inner, degree):
        geo = AnnulusGeometry(r_inner)
        f = band_field(np.random.default_rng(degree), band=min(degree, 6))
        proj = bergman_project(geo, f, degree=degree)
        want, cond = dense_projection(geo, f, degree)
        got = -rows_in_term_order(proj.rows)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert abs(gram_condition(geo, degree) - cond) <= 1e-10 * cond
        # the slots of r^-0 and of sin at k = 0 stay empty
        assert proj.rows[1, 0, 0] == proj.rows[1, 1, 0] == proj.rows[0, 1, 0] == 0.0

    def test_block_solve_matches_dense_oracle_on_sine_content(self, geom):
        # band_field is a cosine series; a turn of the angle gives every
        # wavenumber a sine part too
        f = band_field(np.random.default_rng(3), band=4)
        turned = lambda r, t, what="value": f(r, t + 0.7, what)
        proj = bergman_project(geom, turned, degree=4)
        want, _ = dense_projection(geom, turned, 4)
        assert np.min(np.abs(want)) > 1e-3
        assert np.max(np.abs(-rows_in_term_order(proj.rows) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("eigenvalues, refused", [((2.0, 1.99e12), False), ((2.0, 2.01e12), True)])
    def test_condition_above_1e12_refused(self, geom, monkeypatch, eigenvalues, refused):
        # the condition is the largest over the smallest Gram eigenvalue
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: np.array(eigenvalues))
        if refused:
            with pytest.raises(RuntimeError, match=r"ill-conditioned \(cond = 1.005e\+12 > 1e12\)"):
                bergman_project(geom, j_bump, degree=4)
        else:
            assert isinstance(bergman_project(geom, j_bump, degree=4), ProjectedField)

    def test_self_adjoint(self, geom):
        u = band_field(np.random.default_rng(11))
        v = band_field(np.random.default_rng(13))
        pu = bergman_project(geom, u, degree=6)
        pv = bergman_project(geom, v, degree=6)
        lhs = _integrate(geom, _sample(geom, pu) * _sample(geom, v))
        rhs = _integrate(geom, _sample(geom, u) * _sample(geom, pv))
        assert abs(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("what", ["value", "d_r"])
    def test_separable_evaluation_matches_per_element_sum(self, geom, what):
        # both fields are base + the sum of their terms
        f = band_field(np.random.default_rng(17))
        proj = bergman_project(geom, f, degree=6)
        split = q1_dirichlet_split(geom, f, degree=6)
        r, _ = geom.radial_rule()
        th = geom.theta()
        shapes = [
            (r[:, None], th[None, :]),  # the tensor grid, an outer product
            (r[:, None], th),
            (np.full_like(th, R), th),  # points
            (0.75, th),
            (0.8, 1.1),
            (r[:4, None, None], np.linspace(0.0, 3.0, 6).reshape(1, 3, 2)),
        ]
        for (rr, tt), field in itertools.product(shapes, (proj, split)):
            want = np.asarray(field.base(rr, tt, what), dtype=float)
            size = np.abs(want)
            for c, h in zip(rows_in_term_order(field.rows), basis_terms(R, 6)):
                term = c * element_values(*h, rr, tt, what)
                want, size = want + term, size + np.abs(term)
            got = field(rr, tt, what)
            assert got.shape == want.shape
            # the split cancels the base's traces, down to rounding on the
            # inner circle, so its error is measured against its summands
            scale = np.max(np.abs(want) if field is proj else size)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)

    def test_fields_refuse_d_theta(self, geom, xi):
        # an annulus field is evaluated for its value and d_r only
        f = band_field(np.random.default_rng(17))
        for field in (bergman_project(geom, f, degree=6), q1_dirichlet_split(geom, f, degree=6), xi):
            with pytest.raises(ValueError, match=r"^unknown what: 'd_theta'$"):
                field(0.75, 0.3, "d_theta")


class TestZetaPairing:
    def test_constant_field_pairs_to_zero(self, geom, xi):
        const = lambda r, t, what="value": 3.7 + 0 * r * t if what == "value" else 0 * r * t
        assert abs(zeta_pairing(geom, xi, const)) <= 1e-12
        assert abs(zeta_pairing(geom, xi, const, method="boundary")) <= 1e-12

    def test_zero_trace_field_matches_boundary_integral(self, geom, xi):
        # with zero boundary trace the Dirichlet correction vanishes and
        # the pairing equals the boundary integral of omega itself
        def f(r, t, what="value"):
            prof = (1 - r**2) * (r**2 - R**2)
            dpr = -2 * r * (r**2 - R**2) + (1 - r**2) * 2 * r
            if what == "value":
                return prof * (1 + np.cos(t))
            if what == "d_r":
                return dpr * (1 + np.cos(t))
            raise ValueError(what)

        th = geom.theta()
        boundary = float(np.mean(f(np.full_like(th, R), th)))  # (1/2pi) int omega(R) dtheta
        vol = zeta_pairing(geom, xi, f, method="volume")
        assert abs(vol - boundary) <= 1e-6

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_volume_and_boundary_routes_agree(self, geom, xi, seed):
        f = band_field(np.random.default_rng(seed))
        v = zeta_pairing(geom, xi, f, method="volume")
        b = zeta_pairing(geom, xi, f, method="boundary")
        assert abs(v - b) <= 1e-6

    def test_unknown_method_rejected(self, geom, xi):
        f = band_field(np.random.default_rng(1))
        with pytest.raises(ValueError, match="method"):
            zeta_pairing(geom, xi, f, method="contour")


class TestQ1Split:
    def test_traces_after_correction(self, geom):
        f = band_field(np.random.default_rng(23))
        split = q1_dirichlet_split(geom, f, degree=8)
        th = geom.theta()
        outer = split(np.ones_like(th), th)
        inner = split(np.full_like(th, R), th)
        assert np.max(np.abs(outer)) <= 1e-10
        assert np.std(inner) <= 1e-10
        # the k = 0 correction is one constant, so the inner constant is
        # the mean of f on the inner circle less that on the outer one
        assert abs(np.mean(inner) - (np.mean(f(R, th)) - np.mean(f(1.0, th)))) <= 1e-12


# radii of the hole where the series, ``annulus._log_potential`` with
# lo = R, meets ``ring_closed_form``, and its absolute bound for fields of
# max 1: the exact values fall like 1/k^2 and the error stays at
# rounding, 2.2e-16 at most (k = 63)
RING_HOLE = R * np.array([1.0, 0.9, 0.5])
RING_ATOL = 1e-15


def ring_closed_form(a, k, phi):
    """(1/2pi) int ln|x - y| r^a cos(k theta) dy over R < r < 1 at
    x = rho e^{i phi}, rows rho = 1 then ``RING_HOLE``: outside the
    annulus the kernel's Fourier series leaves one radial integral."""
    b = a + 2
    if k == 0:
        # int_R^1 r^(b-1) ln r dr, the hole's ln max(rho, r) = ln r
        hole = (R**b - 1.0 - b * R**b * np.log(R)) / b**2
        return np.vstack([np.zeros_like(phi), np.full((len(RING_HOLE), len(phi)), hole)])
    outer = -(1.0 - R ** (b + k)) / (2 * k * (b + k))
    inner = np.log(1.0 / R) if b == k else (1.0 - R ** (b - k)) / (b - k)
    scale = np.r_[outer, -(RING_HOLE**k) * inner / (2 * k)]
    return scale[:, None] * np.cos(k * phi)


# bounds on the boundary report of a field orthogonal to the zero-flux
# harmonics: about 1000x the largest the series reads on the projected
# bump, the five random fields and the two thin holes below (outer
# 2.0e-16, inner 9.4e-17, normal 6.9e-16).  The report cannot see the
# series' hole terms (the (rho/R)^m scale, the m = 0 ln r moment): they
# give the hole one constant, which the spread and the normal difference
# cancel, so only the closed-form oracle below catches a defect there.
REPORT_BOUNDS = {"outer_max": 2e-13, "inner_stddev": 1e-13, "normal_max": 7e-13}


def assert_report_within(rep, bounds=REPORT_BOUNDS, what=""):
    for name, bound in bounds.items():
        assert getattr(rep, name) <= bound, f"{what}{name} = {getattr(rep, name):.2e} > {bound:.0e}"


class TestNewtonianBoundary:
    def test_projected_bump_report(self):
        geo = AnnulusGeometry(R, n_radial=400, n_angular=512)
        proj = bergman_project(geo, j_bump, degree=4)
        assert_report_within(newtonian_bs_annulus(geo, proj, degree=4))

    def test_five_random_admissible_fields(self):
        geo = AnnulusGeometry(R, n_radial=600, n_angular=768)
        for i in range(5):
            f = band_field(np.random.default_rng(100 + i))
            p = bergman_project(geo, f, degree=4)
            nrm = np.sqrt(_integrate(geo, _sample(geo, p) ** 2))
            unit = lambda r, t, what="value", p=p, nrm=nrm: p(r, t, what) / nrm
            assert_report_within(newtonian_bs_annulus(geo, unit, degree=4), what=f"field {i}: ")

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40, 63, 64])
    @pytest.mark.parametrize("a", [0, 2])
    def test_boundary_series_matches_closed_form(self, a, k):
        # f = r^a cos k theta on a 64 x 128 rule, up to its Nyquist
        # wavenumber 64, against exact potentials at rho = 1 and in the hole
        geo = AnnulusGeometry(R, n_radial=64, n_angular=128)
        r, wr = geo.radial_rule()
        phi = geo.theta()
        rho = np.r_[1.0, RING_HOLE][:, None]
        # through the module, so a defect planted there reaches the test
        got = annulus._log_potential(r, wr, r[:, None] ** a * np.cos(k * phi), rho * rho, phi, lo=R)
        want = ring_closed_form(a, k, phi)
        err = np.max(np.abs(got - want))
        assert err <= RING_ATOL, f"off by {err:.2e}, {err / np.max(np.abs(want)):.2e} of the max"

    def test_rejects_field_with_harmonic_content(self, geom):
        # the message names the first component above tolerance in k order
        with pytest.raises(ValueError, match="orthogonal.* against k=0 cos r\\^0\\)"):
            newtonian_bs_annulus(geom, j_bump, degree=4)
        # r^-3 sin 3 theta less its component along r^3 sin 3 theta, added
        # to an orthogonal field: only the r^-3 component is off
        proj = bergman_project(geom, j_bump, degree=4)
        plus, minus = (next(h for h in basis_terms(R, 4) if h[:3] == (3, "sin", e)) for e in (3, -3))
        c = _integrate(geom, _sample(geom, lambda r, t, w: element_values(*plus, r, t, w) * element_values(*minus, r, t, w)))

        def tilted(r, t, what="value"):
            part = element_values(*minus, r, t, what) - c * element_values(*plus, r, t, what)
            return proj(r, t, what) + 1e-3 * part

        want = f"component {1e-3 * (1 - c * c):.3e} against k=3 sin r^-3)"
        with pytest.raises(ValueError, match=re.escape(want)):
            newtonian_bs_annulus(geom, tilted, degree=4)

    @pytest.mark.parametrize("r_inner, fd_step", [(0.5, 1e-2), (0.05, 0.05 / 8)])
    def test_report_reads_the_outer_circle_and_the_normal_chain(self, monkeypatch, r_inner, fd_step):
        # canned potentials in place of the series: row 0 on the outer
        # circle, then the chain R - m fd_step, m = 0..4, into the hole
        geo = AnnulusGeometry(r_inner, n_radial=48, n_angular=64)
        proj = bergman_project(geo, j_bump, degree=4)
        seen = {}

        def canned(r, wr, values, r2, phi, lo):
            seen.update(r2=r2, phi=phi, lo=lo)
            return np.array([[0.0, -3.0], [1.0, 5.0], [1.5, 5.0], [2.0, 4.0], [2.0, 4.5], [2.25, 4.5]])

        monkeypatch.setattr(annulus, "_log_potential", canned)
        rep = newtonian_bs_annulus(geo, proj, degree=4, n_boundary=2)
        rho = np.sqrt(seen["r2"][:, 0])
        np.testing.assert_allclose(rho, np.r_[1.0, r_inner - fd_step * np.arange(5)], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(seen["phi"], geo.theta()[::32])
        assert seen["lo"] == r_inner
        assert rep == BoundaryReport(outer_max=3.0, inner_stddev=2.0, normal_max=pytest.approx(1.0 / fd_step))

    def test_one_boundary_angle_is_enough(self, geom):
        proj = bergman_project(geom, j_bump, degree=4)
        assert_report_within(newtonian_bs_annulus(geom, proj, degree=4, n_boundary=1))

    @pytest.mark.parametrize("component, refused", [(0.995e-8, False), (1.005e-8, True)])
    def test_harmonic_component_tolerance_is_relative_to_the_norm(self, geom, component, refused):
        # an orthogonal field of norm 7 plus `component` times 7 of the
        # unit harmonic r^2 cos 2 theta
        proj = bergman_project(geom, j_bump, degree=4)
        scale = 7.0 / np.sqrt(_integrate(geom, _sample(geom, proj) ** 2))
        h = [h for h in unit_harmonics(geom, 4) if h.rows[0, 0, 2] == 1.0][0]
        f = lambda r, t, what="value": scale * proj(r, t, what) + component * 7.0 * h(r, t, what)
        if refused:
            with pytest.raises(ValueError, match="against k=2 cos r\\^2"):
                newtonian_bs_annulus(geom, f, degree=4)
        else:
            assert newtonian_bs_annulus(geom, f, degree=4).outer_max < 1e-7  # the harmonic's own potential

    def test_zero_field(self, geom):
        zero = lambda r, t, what="value": 0 * r * t
        assert newtonian_bs_annulus(geom, zero) == BoundaryReport(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("r_inner", [0.05, 0.07])
    def test_projected_bump_report_on_thin_holes(self, r_inner):
        # the normal chain's step shrinks to r_inner/8 below r_inner = 0.08,
        # so the default report runs across the whole admissible band
        def bump(r, theta, what="value"):
            if what == "value":
                return np.sin(np.pi * (r - r_inner) / (1 - r_inner)) ** 2 * (1.0 + np.cos(theta))
            raise ValueError(what)

        geo = AnnulusGeometry(r_inner)
        assert_report_within(newtonian_bs_annulus(geo, bergman_project(geo, bump, degree=4), degree=4))


def wall_and_node_table(tables):
    """The (order, degree, point) table of ``_legendre_tables``' output,
    its Gauss nodes followed by the walls R and 1."""
    _, _, table, ends = tables
    return np.concatenate([table, ends.transpose(0, 2, 1)], axis=2)


@pytest.mark.parametrize("r_inner", [0.05, 0.3, 0.5, 0.95])
@pytest.mark.parametrize("n_poly", [6, 7, 24, 28, 40])
def test_legendre_tables_match_per_degree_oracle(n_poly, r_inner):
    # the recurrence against one Legendre object per degree: the same rule,
    # and every (order, degree) row at the nodes and walls within 1e-13 of
    # the row's largest entry (4.0e-14 at worst over this grid); a row the
    # oracle holds at 0, such as P_0', is 0
    got, want = _legendre_tables(n_poly, r_inner), legendre_tables(n_poly, r_inner)
    for name, a, b in zip(("nodes", "weights"), got, want):
        np.testing.assert_array_equal(a, b, err_msg=name)
    a, b = wall_and_node_table(got), wall_and_node_table(want)
    assert a.shape == b.shape
    err = np.max(np.abs(a - b), axis=-1)
    scale = np.max(np.abs(b), axis=-1)
    assert np.all(err <= 1e-13 * scale), np.max(err / np.maximum(scale, 1e-300))


def mpmath_legendre_rows(n_poly, r_inner, columns):
    """The order-m derivative in r of each P_n, m = 0..2, at the ``columns``
    of ``wall_and_node_table``, in 40 digits at the float mapped points the
    package evaluates: (order, degree, point)."""
    nodes = _legendre_tables(n_poly, r_inner)[0]
    off, scl = mapparms((r_inner, 1.0), (-1.0, 1.0))
    xs = [mpmath.mpf(off + scl * r) for r in np.r_[nodes, r_inner, 1.0][columns]]
    with mpmath.workdps(40):
        return np.array([
            [[float(mpmath.diff(lambda t: mpmath.legendre(n, t), x, m) * mpmath.mpf(scl) ** m) for x in xs]
             for n in range(n_poly + 1)]
            for m in range(3)
        ])


@pytest.mark.parametrize("n_poly", [24, 28])
def test_legendre_recurrence_no_less_accurate_than_oracle(n_poly):
    # at both walls and three nodes (first, middle, last), each entry
    # relative to its row's largest exact value: the largest error over the
    # four radii of the grid above, the recurrence's against the oracle's
    # (9.8e-15 against 1.2e-14 at n_poly = 24, 1.2e-14 against 2.1e-14 at
    # 28).  At R = 0.3 alone the recurrence is the worse: the inner wall
    # maps to x = -1 - 4.4e-16, where its error grows linearly with the
    # degree (9.8e-15 at degree 24, against the oracle's 7.3e-15 there)
    worst = {"recurrence": 0.0, "oracle": 0.0}
    for r_inner in (0.05, 0.3, 0.5, 0.95):
        n_nodes = _legendre_tables(n_poly, r_inner)[0].size
        columns = [0, n_nodes // 2, n_nodes - 1, n_nodes, n_nodes + 1]
        exact = mpmath_legendre_rows(n_poly, r_inner, columns)
        scale = np.max(np.abs(exact), axis=-1, keepdims=True)
        for name, route in (("recurrence", _legendre_tables), ("oracle", legendre_tables)):
            err = np.abs(wall_and_node_table(route(n_poly, r_inner))[..., columns] - exact)
            worst[name] = max(worst[name], np.max(err / np.where(scale > 0, scale, 1.0)))
    assert worst["recurrence"] <= worst["oracle"], worst


class TestGalerkinSpectra:
    def test_stream_and_vorticity_spectra_agree(self, spectra):
        rel = abs(spectra.lambda_S - spectra.lambda_V) / spectra.lambda_S
        assert rel <= 1e-6
        for k in spectra.per_mode_S:
            s0, v0 = spectra.per_mode_S[k][0], spectra.per_mode_V[k][0]
            assert abs(s0 - v0) / s0 <= 1e-6

    def test_intermediate_eigenvalue_sits_below(self, spectra):
        assert spectra.lambda_Z <= spectra.lambda_S

    def test_axisymmetric_block_against_cross_product(self, spectra):
        # clamped streams, k = 0: eigenvalues are squared roots of the
        # derivative cross product
        f = lambda s: (
            bessel_j(0, s, derivative=True) * bessel_y(0, s * R, derivative=True)
            - bessel_y(0, s, derivative=True) * bessel_j(0, s * R, derivative=True)
        )
        roots = first_roots(f, 2)
        for got, s in zip(spectra.per_mode_S[0][:2], roots):
            assert abs(got - s * s) / (s * s) <= 1e-8

    def test_first_angular_block_against_determinant(self, spectra):
        def det(s, k=1):
            M = np.array(
                [
                    [bessel_j(k, s), bessel_y(k, s), 1.0, 1.0],
                    [
                        s * bessel_j(k, s, derivative=True),
                        s * bessel_y(k, s, derivative=True),
                        k,
                        -k,
                    ],
                    [bessel_j(k, s * R), bessel_y(k, s * R), R**k, R ** (-k)],
                    [
                        s * bessel_j(k, s * R, derivative=True),
                        s * bessel_y(k, s * R, derivative=True),
                        k * R ** (k - 1),
                        -k * R ** (-k - 1),
                    ],
                ]
            )
            return np.linalg.det(M)

        s1 = first_roots(det, 1)[0]
        got = spectra.per_mode_S[1][0]
        assert abs(got - s1 * s1) / (s1 * s1) <= 1e-8

    def test_z_blocks_against_dirichlet_cross_products(self, spectra):
        for k in (1, 2):
            f = lambda s, k=k: bessel_j(k, s) * bessel_y(k, s * R) - bessel_y(
                k, s
            ) * bessel_j(k, s * R)
            s1 = first_roots(f, 1)[0]
            got = spectra.per_mode_Z[k][0]
            assert abs(got - s1 * s1) / (s1 * s1) <= 1e-8
        f0 = lambda s: bessel_j(0, s) * bessel_y(0, s * R, derivative=True) - bessel_y(
            0, s
        ) * bessel_j(0, s * R, derivative=True)
        s1 = first_roots(f0, 1)[0]
        assert abs(spectra.per_mode_Z[0][0] - s1 * s1) / (s1 * s1) <= 1e-8

    def test_refinement_is_monotone(self, geom, spectra):
        # Rayleigh-Ritz from above; converged by n_poly ~ 10, so the
        # visible decrease lives at the smallest admissible sizes
        vals = [
            galerkin_spectra(geom, n_poly=n, k_max=4).lambda_S for n in (6, 7, 8)
        ]
        assert vals[0] > vals[1] > vals[2]
        for v in vals:
            assert v >= spectra.lambda_S - 1e-9 * spectra.lambda_S

    def test_trial_sizes_validated(self, geom):
        with pytest.raises(ValueError, match="n_poly must be at least 6, got 4"):
            galerkin_spectra(geom, n_poly=4)
        with pytest.raises(ValueError, match="k_max must be at least 3, got 1"):
            galerkin_spectra(geom, k_max=1)

    @pytest.mark.parametrize("name, value", [("n_poly", 6.5), ("n_poly", 24.0), ("n_poly", True), ("k_max", 3.5)])
    def test_trial_sizes_must_be_integers(self, geom, name, value):
        # k_max = 3.5 used to raise a bare TypeError from range, and
        # n_poly = 6.5 a message about a node count of 29.0
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            galerkin_spectra(geom, **{name: value})

    def test_numpy_integer_trial_sizes_accepted(self, geom, spectra):
        got = galerkin_spectra(geom, n_poly=np.int64(24), k_max=np.int32(4))
        assert got.lambda_S == spectra.lambda_S

    @pytest.mark.parametrize("n_poly, k_max", [(24, 4), (6, 3), (40, 6)])
    @pytest.mark.parametrize("r_inner", [0.05, 0.1, 0.3, 0.5, 0.7, 0.8, 0.95])
    def test_spectra_bit_identical_to_per_mode_oracle(self, r_inner, n_poly, k_max):
        # the shared null spaces and k-free forms change no bit of the
        # assembly that rebuilt them at every k
        geom = AnnulusGeometry(r_inner)
        got = galerkin_spectra(geom, n_poly=n_poly, k_max=k_max)
        want = per_mode_spectra(geom, n_poly, k_max)
        for name in ("lambda_S", "lambda_V", "lambda_Z"):
            assert getattr(got, name) == want[name], name
        for name in ("per_mode_S", "per_mode_V", "per_mode_Z"):
            assert list(getattr(got, name)) == list(range(k_max + 1))
            for k in range(k_max + 1):
                np.testing.assert_array_equal(getattr(got, name)[k], want[name][k], err_msg=f"{name}[{k}]")

    @pytest.mark.parametrize("k_max", [3, 4, 6])
    def test_six_null_spaces_at_any_k_max(self, geom, monkeypatch, k_max):
        # one per space (S, Z, V) for k = 0 and one for every k >= 1, where
        # a null space per (space, k) takes 3 (k_max + 1)
        calls = []
        real = annulus.null_space
        monkeypatch.setattr(annulus, "null_space", lambda rows: calls.append(rows.shape) or real(rows))
        galerkin_spectra(geom, n_poly=8, k_max=k_max)
        assert len(calls) == 6, calls

    def test_constraint_rows_read_k_only_as_k_at_least_1(self):
        ends = _legendre_tables(8, R)[3]
        for kind in "SVZ":
            first = _constraint_rows(ends, kind, 1)
            assert not np.array_equal(first, _constraint_rows(ends, kind, 0))
            for k in range(2, 7):
                np.testing.assert_array_equal(_constraint_rows(ends, kind, k), first, err_msg=f"{kind} at k = {k}")

    @pytest.mark.parametrize(
        "name, failing_call, mode",
        [("null_space", 1, 0), ("null_space", 5, 1), ("eigh", 1, 0), ("eigh", 10, 3)],
        ids=["null-space-k0", "null-space-shared", "eigh-k0", "eigh-k3"],
    )
    def test_linalg_failure_names_the_mode(self, geom, monkeypatch, name, failing_call, mode):
        # null spaces are built three per class, k = 0's at mode 0 and the
        # shared k >= 1 class's at mode 1; eigh runs three times per mode
        real, calls = getattr(annulus, name), itertools.count(1)

        def failing(*args, **kwargs):
            if next(calls) == failing_call:
                raise np.linalg.LinAlgError("planted failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(annulus, name, failing)
        with pytest.raises(RuntimeError, match=f"^Galerkin assembly failed at mode {mode}: planted failure$"):
            galerkin_spectra(geom, n_poly=8, k_max=4)


class TestCirculation:
    @pytest.mark.parametrize("gamma0", [1.2, 0.0])
    @pytest.mark.parametrize("r_inner", [0.5, 0.95])
    @pytest.mark.parametrize("n_out", [160, 3200])
    def test_modal_run_matches_expm_stepping(self, monkeypatch, n_out, r_inner, gamma0):
        # the pencil's eigenbasis against the matrix exponential of the
        # dense generator, stepped over the output times (nu = 0.1, t = 2,
        # n_poly = 28).  The flux at t = 0 is rounding noise in either
        # route (at R = 0.95, |flux| 1.2e-8 stepped and 5.4e-8 modal,
        # against a largest |flux| of 28), so each series is held against
        # the run's largest value.  Worst measured: Gamma 1.2e-12, the flux
        # 2.3e-9 (R = 0.95, n_out = 160, at t = 0), the Lamb residual
        # 1.4e-6.  At n_out = 3200 the residual is 2e-7 at R = 0.5, near
        # rounding, and the routes differ there by 5.7e-4 of it.  Without
        # circulation or vorticity both runs are exactly 0
        geo = AnnulusGeometry(r_inner)
        got = annulus_stokes_circulation(geo, gamma0, 0.1, 2.0, n_out=n_out)
        monkeypatch.setattr(annulus, "_modal_readout", expm_readout)
        want = annulus_stokes_circulation(geo, gamma0, 0.1, 2.0, n_out=n_out)
        np.testing.assert_array_equal(got.times, want.times)
        if gamma0 == 0.0:
            assert not np.any([got.gamma, got.flux, want.gamma, want.flux])
            return
        for key, rtol in (("gamma", 5e-12), ("flux", 5e-9)):
            a, b = getattr(got, key), getattr(want, key)
            assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), key
        if n_out == 160:
            assert abs(got.lamb_residual - want.lamb_residual) <= 1e-4 * want.lamb_residual

    def test_initial_circulation_matches(self, geom):
        run = annulus_stokes_circulation(geom, 1.0, 0.1, 2.0, n_out=40)
        assert abs(run.gamma[0] - 1.0) <= 1e-9

    def test_decay_rate_matches_cross_product(self, geom):
        # slowest mode of the shed-wall sector: first root of
        # J1(s) Y0(sR) - Y1(s) J0(sR)
        f = lambda s: bessel_j(1, s) * bessel_y(0, s * R) - bessel_y(1, s) * bessel_j(
            0, s * R
        )
        s1 = first_roots(f, 1)[0]
        nu = 0.1
        run = annulus_stokes_circulation(geom, 1.0, nu, 2.0, n_out=80)
        g, t = run.gamma, run.times
        rate = -(np.log(abs(g[-1])) - np.log(abs(g[-11]))) / (t[-1] - t[-11])
        assert abs(rate - nu * s1 * s1) / (nu * s1 * s1) <= 1e-4

    def test_lamb_residual_small(self, geom):
        run = annulus_stokes_circulation(geom, 1.0, 0.1, 2.0, n_out=160)
        assert run.lamb_residual <= 1e-4

    def test_halving_output_dt_shrinks_residual(self, geom):
        fine = annulus_stokes_circulation(geom, 1.0, 0.1, 2.0, n_out=160)
        coarse = annulus_stokes_circulation(geom, 1.0, 0.1, 2.0, n_out=80)
        assert coarse.lamb_residual / fine.lamb_residual >= 1.8

    def test_zero_circulation_is_invariant(self, geom):
        def bump(r, theta, what="value"):
            if what == "value":
                return np.sin(np.pi * (r - R) / (1 - R)) ** 2 + 0 * theta
            raise ValueError(what)

        run = annulus_stokes_circulation(geom, 0.0, 0.1, 2.0, omega0=bump, n_out=40)
        assert np.max(np.abs(run.gamma)) <= 1e-8

    @pytest.mark.parametrize("nu, burn_in", [(0.1, 0.4), (0.01, 1.0)])
    def test_lamb_residual_of_a_canned_readout(self, geom, monkeypatch, nu, burn_in):
        # Gamma = 3 - 0.01 t^2, whose centred difference is exact, and a
        # flux off -0.02 t by a wiggle; past the burn-in, min(0.16 (1-R)^2
        # / nu, t_final / 2), the residual is the largest wiggle over the
        # largest of |flux|, |dGamma/dt| and nu max(1, |Gamma|)
        t = np.linspace(0.0, 2.0, 11)
        gamma, flux = 3.0 - 0.01 * t**2, -0.02 * t + 0.001 * np.cos(7.0 * t)
        monkeypatch.setattr(annulus, "_modal_readout", lambda M, S, b, rows, nu_t: np.stack([gamma, flux], axis=1))
        run = annulus_stokes_circulation(geom, 1.0, nu, 2.0, n_out=10)
        assert run.burn_in == pytest.approx(burn_in, rel=1e-15)
        keep = (t >= burn_in)[1:-1]
        wiggle = np.max(np.abs(0.001 * np.cos(7.0 * t[1:-1]))[keep])
        scale = max(np.max(np.abs(flux[1:-1])[keep]), np.max(0.02 * t[1:-1][keep]), nu * 3.0)
        assert scale == pytest.approx(0.3 if nu == 0.1 else 0.036)  # the floor, then dGamma/dt
        assert run.lamb_residual == pytest.approx(wiggle / scale, rel=1e-12)

    def test_validation(self, geom):
        with pytest.raises(ValueError, match="nu must be positive and finite"):
            annulus_stokes_circulation(geom, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            annulus_stokes_circulation(geom, 1.0, 0.1, -1.0)
        with pytest.raises(ValueError, match="output times"):
            annulus_stokes_circulation(geom, 1.0, 0.1, 1.0, n_out=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_gamma0(self, geom, value):
        # used to return Gamma, the flux and the residual all NaN, with
        # only a RuntimeWarning
        with pytest.raises(ValueError, match=f"^gamma0 must be finite, got {value}$"):
            annulus_stokes_circulation(geom, value, 0.1, 1.0, n_out=10)

    @pytest.mark.parametrize("value", [5.0, True, 4, np.int64(4), "80"])
    def test_rejects_n_out_that_is_not_an_integer_of_at_least_5(self, geom, value):
        # n_out = 5.0 used to fail inside numpy with a TypeError
        with pytest.raises(ValueError, match=re.escape(f"n_out must be an integer number of output times >= 5, got {value!r}")):
            annulus_stokes_circulation(geom, 1.0, 0.1, 1.0, n_out=value)

    @pytest.mark.parametrize("gamma0", [0.0, -2.5])
    def test_zero_and_negative_gamma0_accepted(self, geom, gamma0):
        run = annulus_stokes_circulation(geom, gamma0, 0.1, 1.0, n_out=np.int64(5))
        assert abs(run.gamma[0] - gamma0) <= 1e-9
        assert np.all(np.isfinite(run.flux))

    @pytest.mark.xfail(strict=True, reason="degree 28 under-resolves small holes, and the centered "
                       "difference over t_final / n_out dominates elsewhere; see CHANGES.md")
    @pytest.mark.parametrize("r_inner", [0.1, 0.8])
    def test_circulation_law_at_default_flags(self, r_inner):
        # annulus-verify's circulation-law row: gamma0 = 1, nu = 0.1,
        # t_final = 2, n_out = 160, default n_poly
        run = annulus_stokes_circulation(AnnulusGeometry(r_inner), 1.0, 0.1, 2.0, n_out=160)
        assert run.lamb_residual <= 1e-4

    @pytest.mark.parametrize("name", ["nu", "t_final"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_scalars(self, geom, name, value):
        # nu = inf used to return a NaN Lamb residual with a RuntimeWarning
        scalars = {"nu": 0.1, "t_final": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            annulus_stokes_circulation(geom, 1.0, **scalars)

    def test_csv_export(self, geom, tmp_path):
        run = annulus_stokes_circulation(geom, 1.0, 0.1, 1.0, n_out=10)
        path = tmp_path / "circulation.csv"
        run.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,gamma,flux"
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1]) - run.gamma[0]) == 0.0
