"""Planted defects: each one must fail the check named for it, an
acceptance check, an ``annulus-verify`` row or, for a defect no
acceptance check sees, a test.

A defective copy of a kernel is built from the shipped source by one
textual substitution, so it tracks the kernel as it changes; the
substitution must match exactly once, or the test fails before it
plants anything.  One defect is written out instead,
``elliptic_map_on_16_nodes``, and held bit-equal to the shipped kernel
where the two rules agree.
"""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import Phase, settings

import test_annulus
import test_cli
import test_nonlinear
import test_solver
import test_specfun
from diskvort import acceptance, annulus, cli, fields, nonlinear, pressure, solver, specfun, spectrum
from diskvort.annulus import AnnulusGeometry
from diskvort.fields import PolarGrid
from diskvort.specfun import gauss_legendre
from diskvort.spectrum import build_table, radial_profiles

JACOBIAN = "lam_vals = dpsi_r * dom_t - dpsi_t * dom_r"
ELLIPTIC = "elliptic_map=elliptic_map(grid) / cfg.nu,"
EXP_FACTOR = "exp_factor=np.exp(z),"
DERIVATIVE = "domega_b_dt = (wb_new - state.wb) / cfg.dt"
CONJUGATE = "return np.stack([-h[1], h[0]])"
STREAM_SCALE = "prof[:, 1] *= (-1.0 / table.to_blocks(table.lam)[0])[..., None]"


def scaled(factor: str) -> str:
    """The Jacobian line with Lambda times ``factor``."""
    return JACOBIAN.replace("= ", f"= {factor} * (") + ")"


def source_of(fn) -> str:
    return textwrap.dedent(inspect.getsource(fn))


def planted(fn, old: str, new: str):
    """A copy of module function or method ``fn`` with ``old`` replaced
    by ``new``."""
    source = source_of(fn)
    assert source.count(old) == 1, f"{old!r} not found once in {fn.__name__}"
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


@pytest.mark.parametrize(
    "defect",
    [
        JACOBIAN.replace("- dpsi_t", "+ dpsi_t"),  # sign of one Jacobian term
        scaled("1.0 / grid.r[:, None]"),  # r^2 in place of r
    ],
    ids=["jacobian-sign", "r-squared"],
)
def test_check_8_catches_advection_kernel_defect(monkeypatch, defect):
    monkeypatch.setattr(acceptance, "_advect", planted(nonlinear._advect, JACOBIAN, defect))
    (result,) = acceptance.run_all([8])
    assert not result.passed, result.detail


# defects of the coupled dynamics: (function, old, new)
DYNAMICS_DEFECTS = {
    "advection-negated": (nonlinear._advect, JACOBIAN, scaled("-1.0")),
    "advection-halved": (nonlinear._advect, JACOBIAN, scaled("0.5")),
    "advection-zeroed": (nonlinear._advect, JACOBIAN, scaled("0.0")),
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
    (result,) = acceptance.run_all([10])
    assert not result.passed, result.detail


def test_group_oracle_catches_stream_scale_defect(monkeypatch):
    # a 1e-4 relative error in the Biot-Savart scale of the grid's kernel
    # rows passes every accept check; the advection kernel against the
    # per-group oracle, which takes the stream from fields.biot_savart, is
    # off by about 1e-5 against its atol of 1e-13
    defect = STREAM_SCALE.replace("(-1.0", "(-(1 + 1e-4)")
    monkeypatch.setattr(PolarGrid, "__init__", planted(PolarGrid.__init__, STREAM_SCALE, defect))
    table = build_table(5, 5)
    with pytest.raises(AssertionError, match="Not equal to tolerance"):
        test_nonlinear.test_advection_matches_group_oracle(table, PolarGrid(table))


# annulus kernels, one line each
MASS = "MP = M2 - Ch @ np.linalg.solve(Hh, Ch.T)"
CHAIN_RULE = "np.array([1.0, scl, scl * scl])"
MODAL_FACTOR = "np.exp(-np.outer(nu_t, mu))"
TRIAL_VORTICITY = "omega_t = T1 + T0 / rq"
WALL_FLUX = "omega_d_end = inner[2] + inner[1] / R - inner[0] / R**2"
GRADIENT = "(T0 * (wq / rq)) @ T0.T"
LAPLACIAN = "lap = T2 + T1 / rq - (k * k) * T0 / rq**2"
CARRIER = "(1.0 / rq - rq)"
SHARED_NULLS = "if k < 2:"


def spectra_test(name: str):
    """The closed-form test ``name`` of ``TestGalerkinSpectra`` on the
    spectra of the test module's own ``galerkin_spectra`` binding."""
    geom = AnnulusGeometry(test_annulus.R)
    return lambda: getattr(test_annulus.TestGalerkinSpectra(), name)(
        test_annulus.galerkin_spectra(geom, n_poly=24, k_max=4)
    )


def initial_circulation_test():
    test_annulus.TestCirculation().test_initial_circulation_matches(AnnulusGeometry(test_annulus.R))


# (function, old, new, the check or annulus-verify row that must fail, or
# the test that must, for a defect that moves the physics no check reads)
ANNULUS_DEFECTS = {
    "v-mass-unprojected": (annulus.galerkin_spectra, MASS, "MP = M2", "check 11"),
    # k = 0's null spaces at every k: S and Z lose the inner value constraint
    # for k >= 1, so the clamped lowest value falls below the velocity one;
    # the bit oracle of test_annulus fails it too (test below)
    "k0-null-spaces-at-every-k": (annulus.galerkin_spectra, SHARED_NULLS, "if k < 1:", "check 11"),
    "second-derivative-1pc": (
        annulus._legendre_tables,
        CHAIN_RULE,
        "np.array([1.0, scl, 1.01 * scl * scl])",
        "check 11",
    ),
    "trial-vorticity-0.99": (
        annulus.annulus_stokes_circulation,
        TRIAL_VORTICITY,
        "omega_t = T1 + 0.99 * T0 / rq",
        "check 12",
    ),
    "time-scale-1pc": (
        annulus._modal_readout,
        MODAL_FACTOR,
        "np.exp(-1.01 * np.outer(nu_t, mu))",
        "check 12",
    ),
    "flux-drops-u-over-r2": (
        annulus.annulus_stokes_circulation,
        WALL_FLUX,
        "omega_d_end = inner[2] + inner[1] / R",
        "circulation-law",
    ),
    "gradient-k2-weighted-by-r": (
        annulus.galerkin_spectra,
        GRADIENT,
        GRADIENT.replace("wq / rq", "wq * rq"),
        spectra_test("test_first_angular_block_against_determinant"),
    ),
    "laplacian-k2-over-r": (
        annulus.galerkin_spectra,
        LAPLACIAN,
        LAPLACIAN[:-3],
        spectra_test("test_z_blocks_against_dirichlet_cross_products"),
    ),
    "carrier-0.9r": (annulus.annulus_stokes_circulation, CARRIER, "(1.0 / rq - 0.9 * rq)", initial_circulation_test),
}


def annulus_verdicts() -> dict:
    """Pass or fail of checks 11 and 12 and of each ``annulus-verify`` row
    at the default flags, by name."""
    rows, _ = acceptance.annulus_rows(AnnulusGeometry(0.5))
    verdicts = {name: (passed, detail) for name, passed, detail in rows}
    for result in acceptance.run_all([11, 12]):
        verdicts[f"check {result.number}"] = (result.passed, result.detail)
    return verdicts


@pytest.mark.parametrize("defect", ANNULUS_DEFECTS.values(), ids=ANNULUS_DEFECTS.keys())
def test_annulus_defect_fails_its_detector(monkeypatch, defect):
    fn, old, new, detector = defect
    if callable(detector):
        detector()  # the clean code passes it
        plant(monkeypatch, fn, old, new)
        monkeypatch.setattr(test_annulus, fn.__name__, getattr(annulus, fn.__name__))  # the test's own binding
        with pytest.raises(AssertionError):
            detector()
        return
    assert all(passed for passed, _ in annulus_verdicts().values())
    plant(monkeypatch, fn, old, new)
    passed, detail = annulus_verdicts()[detector]
    assert not passed, detail


def test_bit_oracle_catches_k0_null_spaces_at_every_k(monkeypatch):
    plant(monkeypatch, annulus.galerkin_spectra, SHARED_NULLS, "if k < 1:")
    monkeypatch.setattr(test_annulus, "galerkin_spectra", annulus.galerkin_spectra)  # the test's own binding
    with pytest.raises(AssertionError):
        test_annulus.TestGalerkinSpectra().test_spectra_bit_identical_to_per_mode_oracle(0.5, 24, 4)


# the log kernel's angular series, ``fields._log_potential``: its hole
# terms and its per-wavenumber factors, each against the annulus closed
# form at the case that reads it (k = 1 inside the hole and for the
# factor, k = 0 for ln r, k = 64 for the Nyquist bin).  The boundary
# report cannot see any of them: its fields' moments vanish at every
# wavenumber they hold, and the hole terms give the hole one constant,
# which its spread and normal difference cancel.
HOLE_RATIO = "q = np.minimum(s, rho) / np.maximum(s, rho)"
LOG_TERM = "kern[:, m == 0] = log_hi[:, None]"
SCALE = "kern = q[:, None] ** m / (2.0 * np.maximum(m, 1))"
NYQUIST = "weight = np.where((m == 0) | (2 * m == n), 1.0, 2.0) / n"
SERIES_DEFECTS = {
    "hole-scale-dropped": (HOLE_RATIO, "q = np.minimum(s, max(rho, lo)) / np.maximum(s, rho)", 1),
    "log-r-term-dropped": (LOG_TERM, "kern[:, m == 0] = 0.0", 0),
    "scale-1e-6": (SCALE, SCALE + " * (1 + 1e-6)", 1),
    "nyquist-doubled": (NYQUIST, "weight = np.where(m == 0, 1.0, 2.0) / n", 64),
}


@pytest.mark.parametrize("defect", SERIES_DEFECTS.values(), ids=SERIES_DEFECTS.keys())
def test_closed_form_oracle_catches_boundary_series_defect(monkeypatch, defect):
    old, new, k = defect
    plant(monkeypatch, fields._log_potential, old, new)
    oracle = test_annulus.TestNewtonianBoundary().test_boundary_series_matches_closed_form
    for a in (0, 2):
        with pytest.raises(AssertionError, match="off by"):
            oracle(a, k)


# the series' q^m table rounded to single precision leaves an orthogonal
# field's moments at about 1e-11 in place of rounding on the outer circle.
# The bounds the report had while it summed sampled log rows, which read
# 6.1e-6, 6.5e-7 and 1.7e-4 on the bump, pass it; today's fail it, and so
# does the closed form.
POWER_TABLE = "q[:, None] ** m / "
SAMPLED_ROW_BOUNDS = {"outer_max": 5e-5, "inner_stddev": 5e-5, "normal_max": 5e-4}


def test_report_bounds_catch_outer_row_defect(monkeypatch):
    plant(monkeypatch, fields._log_potential, POWER_TABLE, "(q[:, None] ** m).astype(np.float32) / ")
    geo = AnnulusGeometry(test_annulus.R, n_radial=400, n_angular=512)
    proj = annulus.bergman_project(geo, test_annulus.j_bump, degree=4)
    test_annulus.assert_report_within(annulus.newtonian_bs_annulus(geo, proj, degree=4), SAMPLED_ROW_BOUNDS)
    boundary = test_annulus.TestNewtonianBoundary()
    with pytest.raises(AssertionError, match="outer_max"):
        boundary.test_projected_bump_report()
    for r_inner in (0.05, 0.07):
        with pytest.raises(AssertionError, match="outer_max"):
            boundary.test_projected_bump_report_on_thin_holes(r_inner)
    with pytest.raises(AssertionError, match="off by"):
        boundary.test_boundary_series_matches_closed_form(2, 1)


# the table's Bessel zeros off the zeros of J_{k+1} by a relative 1e-8:
# the modes grow harmonic moments up to 6.0e-8, which check 2 reads
# through the solver's moment map against its bound 1e-9
ZEROS = "alpha = _zero_search(np.arange(1, K + 2), J)"


@pytest.fixture
def fresh_table88():
    # check 2 caches its K = J = 8 table: clear it around the defect
    acceptance._table88.cache_clear()
    yield
    acceptance._table88.cache_clear()


def test_check_2_catches_detuned_zeros(monkeypatch, fresh_table88):
    (result,) = acceptance.run_all([2])
    assert result.passed, result.detail
    acceptance._table88.cache_clear()
    plant(monkeypatch, spectrum.build_table, ZEROS, ZEROS.replace("= ", "= (1 + 1e-8) * "))
    (result,) = acceptance.run_all([2])
    assert not result.passed, result.detail


# Biot-Savart, the route check 3 holds against the log-kernel potential:
# a 1% scale and the k = 3 block negated
BIOT_SAVART = 'return SpectralField(omega.table, -omega.coeffs / omega.table.lam, "stream")'
K3_NEGATED = (
    "return SpectralField(omega.table, omega.table.from_blocks(omega.table.to_blocks(-omega.coeffs / omega.table.lam)"
    ' * np.where(np.arange(omega.table.K + 1) == 3, -1.0, 1.0)[:, None]), "stream")'
)
CHECK_3_DEFECTS = {
    "biot-savart-1pc": BIOT_SAVART.replace("omega.table.lam,", "omega.table.lam * 1.01,"),
    "k3-block-negated": K3_NEGATED,
}


@pytest.fixture
def fresh_potential_sweep():
    # check 3 caches its sweep: clear it around the defect
    acceptance._potential_sweep.cache_clear()
    yield
    acceptance._potential_sweep.cache_clear()


@pytest.mark.parametrize("defect", CHECK_3_DEFECTS.values(), ids=CHECK_3_DEFECTS.keys())
def test_check_3_catches_biot_savart_defect(monkeypatch, fresh_potential_sweep, defect):
    plant(monkeypatch, fields.biot_savart, BIOT_SAVART, defect)
    (result,) = acceptance.run_all([3])
    assert not result.passed, result.detail


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_scaling_relation_catches_fixed_nu_elliptic_map(monkeypatch, c):
    # E / nu built at nu = 0.1 whatever the run's nu: accept and the rest
    # of tier-1 pass it
    plant(monkeypatch, solver.prepare, ELLIPTIC, "elliptic_map=elliptic_map(grid) / 0.1,")
    with pytest.raises(AssertionError):
        test_solver.test_scaling_relation(solver.run, c)


def test_rotation_relation_catches_per_parity_elliptic_map(monkeypatch):
    # omega_B's sin rows 1% short: all 12 accept checks and the scaling and
    # reflection relations pass it, as a per-parity scale commutes with
    # the similarity and with theta -> -theta; a rotation mixes the rows
    sin_short = "elliptic_map=elliptic_map(grid) * np.array([1.0, 0.99])[:, None, None] / cfg.nu,"
    plant(monkeypatch, solver.prepare, ELLIPTIC, sin_short)
    with pytest.raises(AssertionError):
        test_solver.assert_rotation_commutes(solver.run, test_solver.SCALING_MODES, 3)


def elliptic_map_on_16_nodes(grid):
    """``nonlinear.elliptic_map`` with its quadrature on a fixed 16-node
    radial rule in place of the grid's, written out: the one defect here
    that is not a textual substitution, since a 16-node ``PolarGrid``
    refuses J > 14."""
    r, w = gauss_legendre(16, 0.0, 1.0)
    prof, harm = radial_profiles(grid.table, r)
    k = np.arange(grid.table.K + 1)[:, None]
    psi_b = harm[0] * (r**2 - 1.0) / (4.0 * k + 4.0)
    return grid._trig_norm[:, :, None] * np.einsum("kjr,kr->kj", prof[0, 0] * (w * r), psi_b)


def test_spatial_order_test_catches_16_node_elliptic_map(monkeypatch):
    # the shipped map, bit for bit, where the grid has 16 radial nodes; in
    # prepare its error does not fall with J, and the reference-free order
    # test reads negative orders.  accept passes it with every line unchanged
    grid = PolarGrid(build_table(4, 8), 16)
    np.testing.assert_array_equal(elliptic_map_on_16_nodes(grid), nonlinear.elliptic_map(grid))
    monkeypatch.setattr(solver, "elliptic_map", elliptic_map_on_16_nodes)
    for nu in test_solver.ORDER_LEAST:
        with pytest.raises(AssertionError):
            test_solver.test_spatial_orders_in_j_without_a_reference(nu)


# the Gauss weights with (1 - x^2) P_n' taken as n P_{n-1}, dropping the
# x P_n term that vanishes only at the exact nodes: the moment sums read
# 8.9e-15 to 3.2e-13 over these n, against the bound 2e-15
RULE_WEIGHT = "w = 2 * (1 - x * x) / (n * (q - x * p)) ** 2"


@pytest.mark.parametrize("n", [36, 64, 88, 260, 600])
def test_moment_bound_catches_rule_weight_defect(monkeypatch, n):
    rule = planted(specfun._unit_rule, RULE_WEIGHT, "w = 2 * (1 - x * x) / (n * q) ** 2")
    monkeypatch.setattr(specfun, "_unit_rule", rule)
    with pytest.raises(AssertionError):
        test_specfun.test_rule_moments_symmetry_and_nodes(n)


# the zero scan's grid step: at 3.5 one cell can hold two zeros of J_0
# (its gaps shrink towards pi from 3.115), whose sign changes cancel, and
# J_0's first zero, 2.405, lies before the row's first point
SCAN_GRID = "grid = start[:, None] + _SCAN_STEP * np.arange(n_cols)"


def test_interlacing_catches_wide_zero_scan(monkeypatch):
    search = planted(specfun._zero_search, SCAN_GRID, SCAN_GRID.replace("_SCAN_STEP", "3.5"))
    monkeypatch.setattr(specfun, "_zero_search", search)
    with pytest.raises(AssertionError):
        test_specfun.test_zeros_interlace_strictly()


SCAN_EXTENT = "(count + orders / 2) * np.pi"


def test_short_zero_scan_raises():
    # a scan that stops at half the bound sees too few sign changes
    search = planted(specfun._zero_search, SCAN_EXTENT, "(count + orders) * np.pi / 2")
    with pytest.raises(RuntimeError, match=r"scan of J_0 .* 20 zeros were requested"):
        search(range(4), 20)


# Miller's overflow test: without its rescale the backward recurrence
# overflows at small arguments and high orders (J_64(1e-3) starts near
# 1e300 below its start's 1), so the values there turn inf or NaN
MILLER_TEST = "if (m - 1) % every == 0:"


def test_rescale_schedule_test_catches_dropped_rescale(monkeypatch):
    monkeypatch.setattr(specfun, "_miller", planted(specfun._miller, MILLER_TEST, "if False:"))
    with pytest.raises(AssertionError), np.errstate(all="ignore"):
        test_specfun.test_bessel_stack_rescale_schedule_changes_no_bit()


# the init-mode screen of ``RunConfig.validate``, one loop over the
# entries: (old, new, the check that must fail)
ORACLE = test_solver.test_config_init_mode_messages_match_per_entry_oracle

SLOT = 'slot = (int(k), int(j), parity == "sin")'
VALID_MODE = 'int(k) >= 0 and int(j) >= 1 and (parity == "cos" or parity == "sin" and int(k) > 0)'
SCREEN_DEFECTS = {
    "repeat-slot-without-parity": (SLOT, "slot = (int(k), int(j))", ORACLE),
    "repeat-slot-without-j": (SLOT, 'slot = (int(k), parity == "sin")', ORACLE),
    "j-from-0": (VALID_MODE, VALID_MODE.replace("int(j) >= 1", "int(j) >= 0"), ORACLE),
    "k0-sine-guard-dropped": (VALID_MODE, VALID_MODE.replace(" and int(k) > 0", ""), ORACLE),
    "coefficient-finiteness-dropped": ("if not math.isfinite(value):", "if False:", ORACLE),
    "table-range-dropped": ("if sized and (slot[0] > K or slot[1] > J):", "if False:", ORACLE),
}


@pytest.mark.parametrize("defect", SCREEN_DEFECTS.values(), ids=SCREEN_DEFECTS.keys())
def test_init_mode_checks_catch_screen_defect(monkeypatch, defect):
    old, new, check = defect
    monkeypatch.setattr(solver, "_init_mode_problems", planted(solver._init_mode_problems, old, new))
    # the planted copy need only fail: shrinking the property's failing
    # example takes 3 to 10 s a defect, the unshrunk run 0.5 s at most
    unshrunk = settings(ORACLE._hypothesis_internal_use_settings, phases=[Phase.explicit, Phase.generate])
    monkeypatch.setattr(ORACLE, "_hypothesis_internal_use_settings", unshrunk)
    with pytest.raises(AssertionError):
        check()


# the output row of the run loop: the norm weights laid out in block order
# (the blocks' positive lam, which drops the k = 0 sine pad), and
# correction_norm taken from the total omega in place of omega_B
NORM_WEIGHTS = "norm_weights=np.stack([table.lam**power for power in (-1, 0, 1)]),"
BLOCK_ORDER_LAM = "table.to_blocks(table.lam)[table.to_blocks(table.lam) > 0]"
ROW_DEFECTS = {
    "norm-weights-in-block-order": (
        solver.prepare,
        NORM_WEIGHTS,
        NORM_WEIGHTS.replace("table.lam**power", BLOCK_ORDER_LAM + "**power"),
    ),
    "correction-norm-of-total-omega": (solver._integrate, "np.vdot(state.wb, state.wb)", "np.vdot(w, w)"),
}


@pytest.mark.parametrize("defect", ROW_DEFECTS.values(), ids=ROW_DEFECTS.keys())
def test_row_oracle_catches_row_defect(monkeypatch, defect):
    plant(monkeypatch, *defect)
    monkeypatch.setattr(test_solver, "prepare", solver.prepare)  # the test's own binding
    with pytest.raises(AssertionError):
        test_solver.test_rows_equal_norm_at_oracle(5, 7)


# the linear run's unforced step, the first step's carried advection, and
# the forced linear run's reuse of a step's end forcing at the next start:
# (function, old, new, the test that must fail)
UNFORCED_STEP = "ctx.exp_factor * state.w0"
HANDOVER = "SolverState(0, w - wb, wb, advected)"
FORCING_REUSE = "@lru_cache(maxsize=1)"
CARRIED_WORK_DEFECTS = {
    "unforced-step-by-phi1": (
        solver.stokes_rows,
        UNFORCED_STEP,
        UNFORCED_STEP.replace("exp_factor", "phi1_dt"),
        lambda: test_solver.test_stokes_run_matches_duhamel_reference(test_solver.STOKES_GATE_CONFIGS[1], "zero"),
    ),
    "handover-advects-omega-0": (
        solver.initial_state,
        HANDOVER,
        HANDOVER.replace("advected)", "_advect(w - wb, ctx.grid)[:3])"),
        test_solver.test_first_step_on_carried_advection_equals_a_fresh_one,
    ),
    "forcing-reuse-keyed-on-step-count": (
        solver.stokes_rows,
        FORCING_REUSE,
        FORCING_REUSE.replace("maxsize=1", "maxsize=0"),
        lambda: test_solver.test_forced_stokes_run_calls_forcing_once_per_time_point(0.1),
    ),
}


@pytest.mark.parametrize("defect", CARRIED_WORK_DEFECTS.values(), ids=CARRIED_WORK_DEFECTS.keys())
def test_carried_work_defect_fails_its_test(monkeypatch, defect):
    fn, old, new, detector = defect
    plant(monkeypatch, fn, old, new)
    # the test's own binding, if it has one: it calls stokes_run, which looks up stokes_rows
    monkeypatch.setattr(test_solver, fn.__name__, getattr(solver, fn.__name__), raising=False)
    with pytest.raises(AssertionError):
        detector()


# the step's one finiteness scan is of the new omega_0, which omega_B's new
# blocks reach through the forcing; a scan of those blocks alone misses the
# overflow that a finite 1e308 moment makes in the step
FINITENESS_SCAN = "np.isfinite(new0).all()"


def test_finiteness_scan_of_omega_b_alone_fails_the_injection_test(monkeypatch):
    plant(monkeypatch, solver.step, FINITENESS_SCAN, FINITENESS_SCAN.replace("new0", "wb_new"))
    monkeypatch.setattr(test_solver, "step", solver.step)  # the test's own binding
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_solver.test_non_finite_carried_moments_abort_the_step(0.1)


# the one path from config to run: the loader's initial state, whose
# |u|max the load-time CFL check reads and the run starts from.  No
# acceptance check runs the CLI.  (function, old, new, the test that
# must fail, given the planted test's own fixtures)
CFL_CASE = next(
    case.values
    for case in test_cli.test_config_report_is_whole_and_ordered.pytestmark[0].args[1]
    if case.id == "cfl-bound"
)
LOAD_PATH_DEFECTS = {
    "loader-state-not-handed-to-run": (
        cli._cmd_run,
        "run_rows(cfg, ctx, state)",
        "run_rows(cfg, ctx, _load_run(args.config, name)[3])",
        lambda tmp_path, monkeypatch, capsys: test_cli.test_run_starts_from_the_state_the_loader_checked(
            tmp_path, monkeypatch, "ns", 0.1
        ),
    ),
    # the largest moment, as advected[1] itself is an array no comparison takes
    "cfl-bound-off-the-moments": (
        cli._load_run,
        "umax = state.advected[2]",
        "umax = abs(state.advected[1]).max()",
        lambda tmp_path, monkeypatch, capsys: test_cli.test_config_report_is_whole_and_ordered(tmp_path, *CFL_CASE),
    ),
    "pressure-skips-the-cfl-check": (
        cli._load_run,
        'if subcommand == "stokes":',
        'if subcommand != "ns":',
        lambda tmp_path, monkeypatch, capsys: test_cli.test_cfl_bound_refused_before_the_run(
            tmp_path, capsys, "pressure"
        ),
    ),
}


@pytest.mark.parametrize("defect", LOAD_PATH_DEFECTS.values(), ids=LOAD_PATH_DEFECTS.keys())
def test_load_path_defect_fails_its_test(tmp_path, monkeypatch, capsys, defect):
    fn, old, new, detector = defect
    monkeypatch.setattr(cli, fn.__name__, planted(fn, old, new))
    # a detector fails by an assertion or, in pytest.raises, by "DID NOT RAISE"
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        detector(tmp_path, monkeypatch, capsys)


# every planted defect's anchor, by the defect's name: a defect whose
# anchor no longer occurs once fails ``planted`` with an AssertionError,
# which a strict xfail would count as its expected failure
ANCHORS = {
    **{name: (fn, old) for name, (fn, old, *_) in DYNAMICS_DEFECTS.items()},
    **{name: (fn, old) for name, (fn, old, *_) in ANNULUS_DEFECTS.items()},
    **{name: (fields._log_potential, old) for name, (old, *_) in SERIES_DEFECTS.items()},
    **{name: (fields.biot_savart, BIOT_SAVART) for name in CHECK_3_DEFECTS},
    **{name: (solver._init_mode_problems, old) for name, (old, *_) in SCREEN_DEFECTS.items()},
    **{name: (fn, old) for name, (fn, old, *_) in ROW_DEFECTS.items()},
    **{name: (fn, old) for name, (fn, old, *_) in CARRIED_WORK_DEFECTS.items()},
    **{name: (fn, old) for name, (fn, old, *_) in LOAD_PATH_DEFECTS.items()},
    "detuned-zeros": (spectrum.build_table, ZEROS),
    "advection-kernel": (nonlinear._advect, JACOBIAN),
    "finiteness-scan": (solver.step, FINITENESS_SCAN),
    "stream-scale": (PolarGrid.__init__, STREAM_SCALE),
    "power-table": (fields._log_potential, POWER_TABLE),
    "rule-weight": (specfun._unit_rule, RULE_WEIGHT),
    "scan-grid": (specfun._zero_search, SCAN_GRID),
    "scan-extent": (specfun._zero_search, SCAN_EXTENT),
    "miller-test": (specfun._miller, MILLER_TEST),
}


@pytest.mark.parametrize("fn, anchor", ANCHORS.values(), ids=ANCHORS.keys())
def test_every_anchor_occurs_once_in_its_function(fn, anchor):
    assert source_of(fn).count(anchor) == 1, f"{anchor!r} in {fn.__qualname__}"
