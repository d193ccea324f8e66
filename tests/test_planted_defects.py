"""Planted defects: each one must fail the check named for it, an
acceptance check, an ``annulus-verify`` row or, for a defect no
acceptance check sees, a test.

A defective copy of a kernel is built from the shipped source by one
textual substitution, so it tracks the kernel as it changes; the
substitution must match exactly once, or the test fails before it
plants anything.
"""

import inspect

import pytest

import test_annulus
import test_nonlinear
import test_solver
from diskvort import acceptance, annulus, nonlinear, pressure, solver
from diskvort.annulus import AnnulusGeometry
from diskvort.fields import PolarGrid
from diskvort.spectrum import build_table

JACOBIAN = "lam_vals = (dpsi_r * dom_t - dpsi_t * dom_r) / grid.r[:, None]"
ELLIPTIC = "elliptic_map=elliptic_map(grid) / cfg.nu,"
EXP_FACTOR = "exp_factor=table.to_blocks(np.exp(z)),"
DERIVATIVE = "domega_b_dt = (wb_new - state.wb) / cfg.dt if state.steps else 0.0"
CONJUGATE = "return np.stack([-h[1], h[0]])"
STREAM_SCALE = "scale = table.to_blocks(-1.0 / table.lam)"


def planted(fn, old: str, new: str):
    """A copy of module function ``fn`` with ``old`` replaced by ``new``."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, f"{old!r} not found once in {fn.__name__}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize(
    "defect",
    [
        JACOBIAN.replace("- dpsi_t", "+ dpsi_t"),  # sign of one Jacobian term
        JACOBIAN + " ** 2",  # r^2 in place of r
    ],
    ids=["jacobian-sign", "r-squared"],
)
def test_check_8_catches_advection_kernel_defect(monkeypatch, defect):
    monkeypatch.setattr(acceptance, "_advect", planted(nonlinear._advect, JACOBIAN, defect))
    result = acceptance.check_skew_symmetry()
    assert not result.passed, result.detail


# defects of the coupled dynamics: (function, old, new)
DYNAMICS_DEFECTS = {
    "advection-negated": (nonlinear._advect, JACOBIAN, JACOBIAN + " * -1.0"),
    "advection-halved": (nonlinear._advect, JACOBIAN, JACOBIAN + " * 0.5"),
    "advection-zeroed": (nonlinear._advect, JACOBIAN, JACOBIAN + " * 0.0"),
    "elliptic-map-zeroed": (solver.prepare, ELLIPTIC, "elliptic_map=0.0 * elliptic_map(grid),"),
    "domega-b-dt-dropped": (solver.step, DERIVATIVE, "domega_b_dt = 0.0"),
    "exp-factor-power-1.02": (solver.prepare, EXP_FACTOR, EXP_FACTOR[:-1] + " ** 1.02,"),
    "conjugate-sign-flipped": (pressure.harmonic_conjugate, CONJUGATE, "return np.stack([h[1], -h[0]])"),
}


def plant(monkeypatch, fn, old: str, new: str) -> None:
    """Bind the planted copy of ``fn`` under its name in every module that
    looks it up, as a defect in the shipped function would reach them."""
    copy = planted(fn, old, new)
    for module in (nonlinear, solver, pressure, annulus, acceptance):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, copy)


@pytest.mark.parametrize("defect", DYNAMICS_DEFECTS.values(), ids=DYNAMICS_DEFECTS.keys())
def test_check_10_catches_dynamics_defect(monkeypatch, defect):
    plant(monkeypatch, *defect)
    result = acceptance.check_pressure_consistency()
    assert not result.passed, result.detail


def test_group_oracle_catches_stream_scale_defect(monkeypatch):
    # a 1e-4 relative error in the solver's Biot-Savart scale passes every
    # accept check; the advection kernel against the per-group oracle,
    # which takes the stream from fields.biot_savart, is off by about
    # 1e-5 against its atol of 1e-13
    plant(monkeypatch, nonlinear._stream_scale, STREAM_SCALE, STREAM_SCALE + " * (1 + 1e-4)")
    table = build_table(5, 5)
    with pytest.raises(AssertionError, match="Not equal to tolerance"):
        test_nonlinear.test_advection_matches_group_oracle(table, PolarGrid(table))


# annulus kernels, one line each
MASS = "MP = M2 - Ch @ np.linalg.solve(Hh, Ch.T)"
LEGENDRE = "vals = np.stack([legval(x, legder(eye, m=order, scl=scl)) for order in range(3)])"
TRIAL_VORTICITY = "omega_t = T1 + T0 / rq"
WALL_FLUX = "omega_d_end = inner[2] + inner[1] / R - inner[0] / R**2"
GRADIENT = "(k * k) * ((T0 * (wq / rq)) @ T0.T)"
LAPLACIAN = "lap = T2 + T1 / rq - (k * k) * T0 / rq**2"
CARRIER = "(1.0 / rq - rq)"

NO_DETECTOR = pytest.mark.xfail(
    strict=True,
    reason="no annulus check or row sees it yet; ROADMAP item 5 adds the per-mode "
    "spectra-equality row and a Gamma(0) row",
)

# (function, old, new, the check or annulus-verify row that must fail)
ANNULUS_DEFECTS = {
    "v-mass-unprojected": (annulus.galerkin_spectra, MASS, "MP = M2", "check 11"),
    "second-derivative-1pc": (
        annulus._legendre_tables,
        LEGENDRE,
        LEGENDRE + " * np.array([1.0, 1.0, 1.01])[:, None, None]",
        "check 11",
    ),
    "trial-vorticity-0.99": (
        annulus.annulus_stokes_circulation,
        TRIAL_VORTICITY,
        "omega_t = T1 + 0.99 * T0 / rq",
        "check 12",
    ),
    "flux-drops-u-over-r2": (
        annulus.annulus_stokes_circulation,
        WALL_FLUX,
        "omega_d_end = inner[2] + inner[1] / R",
        "circulation-law",
    ),
    "gradient-k2-weighted-by-r": (annulus.galerkin_spectra, GRADIENT, GRADIENT.replace("wq / rq", "wq * rq"), None),
    "laplacian-k2-over-r": (annulus.galerkin_spectra, LAPLACIAN, LAPLACIAN[:-3], None),
    "carrier-0.9r": (annulus.annulus_stokes_circulation, CARRIER, "(1.0 / rq - 0.9 * rq)", None),
}


def annulus_verdicts() -> dict:
    """Pass or fail of checks 11 and 12 and of each ``annulus-verify`` row
    at the default flags, by name.  Check 11's cached spectrum is cleared
    first, so a clean one cached before the defect cannot hide it."""
    acceptance._annulus_spectra.cache_clear()
    rows, _ = acceptance.annulus_rows(AnnulusGeometry(0.5))
    verdicts = {name: (passed, detail) for name, passed, detail in rows}
    for name, check in (("check 11", acceptance.check_annulus_spectra), ("check 12", acceptance.check_annulus_flux)):
        result = check()
        verdicts[name] = (result.passed, result.detail)
    return verdicts


@pytest.fixture
def fresh_annulus_spectra():
    # a spectrum cached under a planted defect must not outlive the test
    yield
    acceptance._annulus_spectra.cache_clear()


@pytest.mark.parametrize(
    "defect",
    [
        pytest.param(defect, marks=[NO_DETECTOR] if defect[3] is None else [])
        for defect in ANNULUS_DEFECTS.values()
    ],
    ids=ANNULUS_DEFECTS.keys(),
)
def test_annulus_defect_fails_its_detector(monkeypatch, fresh_annulus_spectra, defect):
    fn, old, new, detector = defect
    assert all(passed for passed, _ in annulus_verdicts().values())
    plant(monkeypatch, fn, old, new)
    verdicts = annulus_verdicts()
    if detector is None:
        # no named detector yet: the case passes once any of them fails
        assert not all(passed for passed, _ in verdicts.values()), verdicts
    else:
        passed, detail = verdicts[detector]
        assert not passed, detail


# the annulus boundary series: its hole terms and its per-wavenumber
# factors, each against the closed form at the case that reads it (k = 1
# inside the hole and for the factor, k = 0 for ln r, k = 64 for the
# Nyquist bin).  The boundary report cannot see any of them: its fields'
# moments vanish at every wavenumber they hold, and the hole terms give
# the hole one constant, which its spread and normal difference cancel.
HOLE_SCALE = "(hole[:, None] / R) ** m * (scale * moments[1])"
LOG_TERM = "rows[0, 0], rows[1:, 0] = 0.0, log_moment"
SCALE = "scale = -0.5 / np.maximum(m, 1)"
SERIES_DEFECTS = {
    "hole-scale-dropped": (HOLE_SCALE, "np.ones((len(hole), 1)) * (scale * moments[1])", 1),
    "log-r-term-dropped": (LOG_TERM, "rows[0, 0], rows[1:, 0] = 0.0, 0.0", 0),
    "scale-1e-6": (SCALE, SCALE + " * (1 + 1e-6)", 1),
    "nyquist-doubled": (SCALE, SCALE + " * np.where(m == n // 2, 2.0, 1.0)", 64),
}


@pytest.mark.parametrize("defect", SERIES_DEFECTS.values(), ids=SERIES_DEFECTS.keys())
def test_closed_form_oracle_catches_boundary_series_defect(monkeypatch, defect):
    old, new, k = defect
    monkeypatch.setattr(test_annulus, "_boundary_series", planted(annulus._boundary_series, old, new))
    oracle = test_annulus.TestNewtonianBoundary().test_boundary_series_matches_closed_form
    for a in (0, 2):
        with pytest.raises(AssertionError, match="off by"):
            oracle(a, k)


# the series' outer row: r^m rounded to single precision leaves an
# orthogonal field's moments at about 1e-11 in place of rounding (outer
# 4.6e-12 on the projected bump, 2.2e-11 and 7.3e-12 on the thin holes).
# The bounds the report had while it summed sampled log rows, which read
# 6.1e-6, 6.5e-7 and 1.7e-4 on the bump, pass it; today's fail it.
OUTER_TABLE = "np.exp(m * log_r) * dens_hat"
SAMPLED_ROW_BOUNDS = {"outer_max": 5e-5, "inner_stddev": 5e-5, "normal_max": 5e-4}


def test_report_bounds_catch_outer_row_defect(monkeypatch):
    plant(monkeypatch, annulus._boundary_series, OUTER_TABLE, "np.exp(m * log_r).astype(np.float32) * dens_hat")
    geo = AnnulusGeometry(test_annulus.R, n_radial=400, n_angular=512)
    proj = annulus.bergman_project(geo, test_annulus.j_bump, degree=4)
    test_annulus.assert_report_within(annulus.newtonian_bs_annulus(geo, proj, degree=4), SAMPLED_ROW_BOUNDS)
    boundary = test_annulus.TestNewtonianBoundary()
    with pytest.raises(AssertionError, match="outer_max"):
        boundary.test_projected_bump_report()
    for r_inner in (0.05, 0.07):
        with pytest.raises(AssertionError, match="outer_max"):
            boundary.test_projected_bump_report_on_thin_holes(r_inner)


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_scaling_relation_catches_fixed_nu_elliptic_map(monkeypatch, c):
    # E / nu built at nu = 0.1 whatever the run's nu: accept and the rest
    # of tier-1 pass it
    plant(monkeypatch, solver.prepare, ELLIPTIC, "elliptic_map=elliptic_map(grid) / 0.1,")
    with pytest.raises(AssertionError):
        test_solver.test_scaling_relation(solver.run, c)
