"""The twelve numbered acceptance checks behind ``diskvort accept``.

Each check re-derives its reference from an independent route (closed
forms, bisection oracles, dual quadratures) and returns ``(passed,
detail)``, with the measured numbers in the detail string; nothing is
asserted here.  ``ALL_CHECKS`` is the ordered table of ``(name,
check)`` pairs, a check's number is its 1-based place in it, and
``run_all`` alone numbers, names and times the checks it runs, one
CheckResult each, for the CLI report and the test suite alike.
Expensive shared artifacts (the reference nonlinear run, the
Biot-Savart quadrature sweep, the annulus spectra) are computed once
and cached at module level.

The six ``(name, passed, detail)`` rows of ``diskvort annulus-verify``
live here too: ``annulus_rows`` builds them all, and check 12 is the
three rows of ``annulus_flux_rows`` at the default flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

import numpy as np

from .annulus import (
    AnnulusGeometry,
    annulus_stokes_circulation,
    galerkin_spectra,
    inner_flux,
    omega_big,
    xi_circulation,
    zeta_pairing,
)
from .fields import (
    PolarGrid,
    SpectralField,
    biot_savart,
    greens_potential,
    newtonian_potential,
    norm_at,
    radial_rows,
    synthesize_points,
    to_grid,
)
from .nonlinear import _advect
from .pressure import momentum_residual, recover_pressure
from .semigroup import fit_decay_rate
from .solver import RunConfig, _random_admissible, prepare, run, stokes_run
from .specfun import bessel_j
from .spectrum import ModeIndex, build_table, membership_residuals, radial_profiles

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "run_all",
    "lambda_fundamental",
    "annulus_flux_rows",
    "annulus_rows",
]

SEED_REFERENCE = 2024
SEED_FIELDS = 77


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def lambda_fundamental() -> float:
    """Square of the first positive zero of J_1, by plain bisection."""
    lo, hi = 3.0, 4.5
    flo = bessel_j(1, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(1, mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-15:
            break
    z = 0.5 * (lo + hi)
    return z * z


# ---------------------------------------------------------------------------
# shared expensive artifacts


@lru_cache(maxsize=1)
def _table88():
    return build_table(8, 8)


@lru_cache(maxsize=1)
def _reference_trajectory():
    cfg = RunConfig(
        nu=0.1,
        K=8,
        J=8,
        dt=1e-3,
        t_final=6.0,
        init_seed=SEED_REFERENCE,
        output_every=10,
    )
    return run(cfg)


def _stream_at_points(psi: SpectralField, pts: np.ndarray) -> np.ndarray:
    table = psi.table
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    prof, _ = radial_profiles(table, r)
    return synthesize_points(radial_rows(table.to_blocks(psi.coeffs), prof[0, 1]), r, th)


@lru_cache(maxsize=1)
def _potential_sweep():
    """Log-kernel potentials of one admissible field, three routes, and
    the spectral stream at the interior points: radii at the midpoints
    between radial nodes nearest eight fixed radii, on three angles.
    The angular series is exact on the nodes too; the points stay fixed
    so the check's numbers stay comparable.
    """
    table = _table88()
    omega = _random_admissible(table, SEED_FIELDS)
    grid = PolarGrid(table, n_radial=260, n_angular=320)
    gf = to_grid(omega, grid)

    mids = 0.5 * (grid.r[:-1] + grid.r[1:])
    radii = np.array([mids[np.argmin(np.abs(mids - t))] for t in np.linspace(0.12, 0.86, 8)])
    angles = np.array([0.3, 2.1, 4.4])
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    interior = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)

    rr, aa = np.meshgrid(np.array([1.15, 1.4, 1.9]), angles, indexing="ij")
    exterior = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)

    newt_in = newtonian_potential(gf, interior)
    newt_out = newtonian_potential(gf, exterior)
    green_in = greens_potential(gf, interior)
    spectral = _stream_at_points(biot_savart(omega), interior)
    return {
        "norm": norm_at(omega, 0),
        "interior_defect": float(np.max(np.abs(newt_in.values - spectral))),
        "exterior_max": float(np.max(np.abs(newt_out.values))),
        "green_defect": float(np.max(np.abs(green_in.values - newt_in.values))),
    }


@lru_cache(maxsize=1)
def _annulus_spectra():
    return galerkin_spectra(AnnulusGeometry(0.5), n_poly=24, k_max=4)


# ---------------------------------------------------------------------------
# the twelve checks, each returning (passed, detail)


def check_spectrum_pin() -> tuple[bool, str]:
    lam_f = lambda_fundamental()
    table = build_table(4, 4)
    got = table.lambda_min
    rel = abs(got - lam_f) / lam_f
    pinned = abs(got - 14.6819706) / 14.6819706
    ok = rel <= 1e-6 and pinned <= 1e-6
    return ok, f"lambda_min={got:.10f}, bisection oracle={lam_f:.10f}, rel={rel:.2e}"


def check_membership_moments() -> tuple[bool, str]:
    worst = float(np.max(membership_residuals(_table88())))
    return worst <= 1e-9, f"max harmonic moment over K=J=8 table: {worst:.2e} (<= 1e-9)"


def check_newtonian_agreement() -> tuple[bool, str]:
    sweep = _potential_sweep()
    ok = sweep["interior_defect"] <= 1e-5 and sweep["exterior_max"] <= 1e-6 * sweep["norm"]
    return ok, (
        f"interior |quadrature - spectral| = {sweep['interior_defect']:.2e} (<= 1e-5), "
        f"exterior max = {sweep['exterior_max']:.2e} (<= {1e-6 * sweep['norm']:.1e})"
    )


def check_green_equivalence() -> tuple[bool, str]:
    sweep = _potential_sweep()
    return sweep["green_defect"] <= 1e-5, (
        f"max |image-kernel - log-kernel| = {sweep['green_defect']:.2e} (<= 1e-5)"
    )


def check_stokes_decay() -> tuple[bool, str]:
    nu, t_final = 0.1, 5.0
    cfg = RunConfig(
        nu=nu,
        K=0,
        J=1,
        dt=0.05,
        t_final=t_final,
        init_modes=(((0, 1, "cos"), 1.0),),
        output_every=20,
    )
    traj = stokes_run(cfg)
    lam = build_table(0, 1).lambda_min
    got = float(traj.states[-1].coeffs[0])
    exact = math.exp(-nu * lam * t_final)
    rel = abs(got - exact) / exact
    return rel <= 1e-10, f"coefficient at t=5: {got:.15e}, exact {exact:.15e}, rel={rel:.2e}"


def check_ns_decay_rates() -> tuple[bool, str]:
    traj = _reference_trajectory()
    lam_f = lambda_fundamental()
    energy = fit_decay_rate([(r.t, r.energy) for r in traj.diagnostics])
    palin = fit_decay_rate([(r.t, r.palinstrophy_norm) for r in traj.diagnostics])
    ok = energy.rate >= 0.95 * 0.1 * lam_f and palin.rate >= 0.95 * 0.5 * 0.1 * lam_f
    return ok, (
        f"energy rate {energy.rate:.4f} (>= {0.95 * 0.1 * lam_f:.4f}), "
        f"palinstrophy rate {palin.rate:.4f} (>= {0.95 * 0.05 * lam_f:.4f}), "
        f"window {energy.window}"
    )


def check_moment_invariance() -> tuple[bool, str]:
    traj = _reference_trajectory()
    drift = max(r.moment_drift for r in traj.diagnostics)
    per_time = drift / float(traj.times[-1])
    return per_time <= 1e-8, f"max harmonic moment {drift:.2e}, per unit time {per_time:.2e} (<= 1e-8)"


def check_skew_symmetry() -> tuple[bool, str]:
    table = _table88()
    grid = PolarGrid(table)
    worst = 0.0
    for seed in range(20):
        omega = _random_admissible(table, seed)
        # Lambda sampled by the solver's own advection kernel on its grid
        lam_vals = _advect(table.to_blocks(omega.coeffs), grid)[3]
        pairing = abs(grid.integrate(lam_vals * to_grid(biot_savart(omega), grid).values))
        worst = max(worst, pairing / norm_at(omega, 0) ** 3)
    return worst <= 1e-8, f"max |<advection, stream>| / ||w||^3 over 20 fields: {worst:.2e} (<= 1e-8)"


def check_energy_identity_order() -> tuple[bool, str]:
    nu = 0.1

    def residual(dt):
        cfg = RunConfig(
            nu=nu,
            K=4,
            J=4,
            dt=dt,
            t_final=1.0,
            init_seed=9,
            output_every=1,
        )
        ctx = prepare(cfg)
        g = _random_admissible(ctx.table, 5)
        forcing = lambda t: g * math.cos(2.0 * t)
        traj = stokes_run(cfg, forcing=forcing, ctx=ctx)
        worst = 0.0
        for i in range(len(traj) - 1):
            w0, w1 = traj.states[i], traj.states[i + 1]
            tm0, tm1 = traj.times[i], traj.times[i + 1]
            de = 0.5 * (norm_at(w1, 0) ** 2 - norm_at(w0, 0) ** 2) / dt
            diss = 0.5 * nu * (norm_at(w0, 1) ** 2 + norm_at(w1, 1) ** 2)
            work = 0.5 * (
                float(forcing(tm0).coeffs @ w0.coeffs)
                + float(forcing(tm1).coeffs @ w1.coeffs)
            )
            worst = max(worst, abs(de + diss - work))
        return worst

    r1, r2, r4 = residual(1e-2), residual(5e-3), residual(2.5e-3)
    o1, o2 = math.log2(r1 / r2), math.log2(r2 / r4)
    return o1 >= 1.8 and o2 >= 1.8, (
        f"per-step residuals {r1:.2e} / {r2:.2e} / {r4:.2e} under dt halving, "
        f"orders {o1:.2f}, {o2:.2f} (>= 1.8)"
    )


def check_pressure_consistency() -> tuple[bool, str]:
    # circular flow: the radial pressure slope balances the centripetal
    # term; for axisymmetric data the additive conjugate part is a
    # constant, so the slope lives entirely in the convective potential,
    # read at the element centroids by the P1 layer's one evaluator
    from .pressure import _p1_rows, _phi_tables

    table = build_table(0, 1)
    omega = SpectralField.from_mode(table, ModeIndex(0, 1, "cos"))
    pos = table.position(ModeIndex(0, 1, "cos"))
    alpha, lam, cn = table.alpha[pos], table.lam[pos], table.norm[pos]

    def circular_defect(n_aux):
        nodes, T = _phi_tables(omega, n_aux)
        a, b = nodes[:-1], nodes[1:]
        cent = (2.0 / 3.0) * (b**3 - a**3) / (b**2 - a**2)
        slope = _p1_rows(nodes, T[0, 0], cent)[1]
        u_t = cn * alpha / lam * bessel_j(1, alpha * cent)
        return float(np.max(np.abs(slope - u_t**2 / cent)))

    circ_fine = circular_defect(256)
    circ_coarse = circular_defect(128)
    ratio = circ_coarse / circ_fine

    # close the loop: the full recovered pressure is the potential plus
    # a constant, so the centroid check above is a check on p itself
    from .pressure import phi_of_u

    grid = PolarGrid(table, n_radial=48, n_angular=4)
    shift = recover_pressure(omega, 0.1, grid).values - phi_of_u(omega, grid).values
    const_defect = float(np.max(shift) - np.min(shift))

    # two-mode momentum residual on a short nonlinear run
    cfg = RunConfig(
        nu=0.1,
        K=4,
        J=12,
        dt=0.002,
        t_final=0.5,
        init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)),
        output_every=1,
    )
    ctx = prepare(cfg)
    traj = run(cfg, ctx)
    index = int(np.argmin(np.abs(traj.times - 0.25)))
    resid = momentum_residual(traj, index, cfg.nu, ctx.grid, n_aux=256)

    ok = (
        circ_fine <= 1e-4
        and resid <= 1e-3
        and ratio >= 3.0
        and const_defect <= 1e-10
    )
    return ok, (
        f"circular d_r p defect {circ_fine:.2e} (<= 1e-4), mesh-halving ratio "
        f"{ratio:.2f} (>= 3), p - potential constant to {const_defect:.1e}, "
        f"two-mode momentum residual {resid:.2e} (<= 1e-3)"
    )


def check_annulus_spectra() -> tuple[bool, str]:
    spectra = _annulus_spectra()
    rel = abs(spectra.lambda_S - spectra.lambda_V) / spectra.lambda_S
    lam_f = lambda_fundamental()
    ok = rel <= 1e-6 and spectra.lambda_Z <= lam_f
    return ok, (
        f"clamped vs velocity-side lowest: {spectra.lambda_S:.8f} vs {spectra.lambda_V:.8f} "
        f"(rel {rel:.2e} <= 1e-6); intermediate {spectra.lambda_Z:.7f} <= disk {lam_f:.7f}"
    )


def _band_field(r, theta, what: str = "value"):
    """A fixed smooth annulus field of angular band 3,
    e^r (1 + cos theta - sin 2 theta + cos 3 theta); d_r equals the value."""
    if what not in ("value", "d_r"):
        raise ValueError(f"unknown what: {what!r}")
    return np.exp(r) * (1.0 + np.cos(theta) - np.sin(2.0 * theta) + np.cos(3.0 * theta))


def annulus_flux_rows(geom: AnnulusGeometry, nu: float = 0.1, t_final: float = 2.0):
    """The rows ``xi-flux``, ``projected-flux`` and ``circulation-law``, each
    ``(name, passed, detail)``, and the circulation run (gamma0 = 1, 160
    output times) that the last one reads."""
    xi = xi_circulation(geom)
    flux_xi = xi.inner_flux()
    flux_om = inner_flux(geom, omega_big(geom, xi, degree=8))
    circ = annulus_stokes_circulation(geom, 1.0, nu, t_final, n_out=160)
    rows = [
        ("xi-flux", abs(flux_xi + 1.0) <= 1e-10, f"{flux_xi:.12f} (= -1 +- 1e-10)"),
        ("projected-flux", abs(flux_om + 1.0) <= 1e-8, f"{flux_om:.10f} (= -1 +- 1e-8)"),
        ("circulation-law", circ.lamb_residual <= 1e-4, f"residual {circ.lamb_residual:.2e} (<= 1e-4)"),
    ]
    return rows, circ


def annulus_rows(
    geom: AnnulusGeometry, n_poly: int = 24, k_max: int = 4, nu: float = 0.1, t_final: float = 2.0
):
    """Every ``annulus-verify`` row in print order, and the circulation run:
    the flux rows, the two routes to the zeta pairing of ``_band_field``,
    and the Galerkin spectra of degree ``n_poly`` over modes 0..``k_max``."""
    (xi_row, om_row, law_row), circ = annulus_flux_rows(geom, nu, t_final)
    xi = xi_circulation(geom)
    zeta_v, zeta_b = (zeta_pairing(geom, xi, _band_field, method=m) for m in ("volume", "boundary"))
    gap = abs(zeta_v - zeta_b)
    spectra = galerkin_spectra(geom, n_poly=n_poly, k_max=k_max)
    lam_s, lam_v, lam_z, lam_f = spectra.lambda_S, spectra.lambda_V, spectra.lambda_Z, lambda_fundamental()
    zeta = f"volume {zeta_v:.10f} vs boundary {zeta_b:.10f} (|diff| {gap:.1e} <= 1e-6)"
    rows = [
        xi_row,
        om_row,
        ("zeta-routes", gap <= 1e-6, zeta),
        ("spectra-equality", abs(lam_s - lam_v) / lam_s <= 1e-6, f"{lam_s:.8f} vs {lam_v:.8f}"),
        ("spectrum-ordering", lam_z <= lam_f, f"{lam_z:.7f} <= {lam_f:.7f}"),
        law_row,
    ]
    return rows, circ


def check_annulus_flux() -> tuple[bool, str]:
    rows, _ = annulus_flux_rows(AnnulusGeometry(0.5))
    (_, ok_xi, xi), (_, ok_om, om), (_, ok_law, law) = rows
    return ok_xi and ok_om and ok_law, "xi flux " + xi + ", projected flux " + om + ", circulation-law " + law


# the checks in order: a check's number is its 1-based place here
ALL_CHECKS = (
    ("spectrum-pin", check_spectrum_pin),
    ("membership-moments", check_membership_moments),
    ("newtonian-agreement", check_newtonian_agreement),
    ("green-equivalence", check_green_equivalence),
    ("stokes-decay", check_stokes_decay),
    ("ns-decay-rates", check_ns_decay_rates),
    ("moment-invariance", check_moment_invariance),
    ("skew-symmetry", check_skew_symmetry),
    ("energy-identity-order", check_energy_identity_order),
    ("pressure-consistency", check_pressure_consistency),
    ("annulus-spectra", check_annulus_spectra),
    ("annulus-flux", check_annulus_flux),
)


def run_all(numbers=None, stream=None) -> list[CheckResult]:
    """Run the checks whose numbers are in ``numbers`` (all if None) in
    order, timing each, and stream one PASS/FAIL line per check."""
    results = []
    for number, (name, check) in enumerate(ALL_CHECKS, start=1):
        if numbers is not None and number not in numbers:
            continue
        t0 = perf_counter()
        passed, detail = check()
        res = CheckResult(number, name, bool(passed), detail, perf_counter() - t0)
        results.append(res)
        if stream is not None:
            tag = "PASS" if res.passed else "FAIL"
            stream(f"{tag} {res.number:2d} {res.name} ({res.seconds:.2f} s): {res.detail}")
    return results
