"""One benchmark job in a fresh interpreter; prints one JSON line.

Run by ``perfbench/run.py``, which pins BLAS to one thread in the
environment before this interpreter imports numpy.  Two job kinds:

``ns``       cold ``solver.prepare`` of one nonlinear configuration, then
             repeated ``solver.run`` passes over a fixed horizon until
             the time share is spent, each pass gated.
``battery``  cold set-up of the post-solve configurations, then the four
             operations that run after a solve (pressure, stokes,
             potential, annulus), each timed and gated.

Every random input is drawn here from the seed; the package receives
only the generated coefficients, fields and configurations.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import special  # noqa: E402

from diskvort import annulus, fields, pressure, solver, specfun, spectrum  # noqa: E402
from diskvort.solver import RunConfig  # noqa: E402

DEFAULT_SEED = 2024
REFERENCE = Path(__file__).with_name("reference.json")
# relative max-norm distance allowed between final coefficients and the
# stored reference; outputs are bit-identical across BLAS thread counts,
# so this only absorbs a different CPU's rounding
REFERENCE_RTOL = 1e-9

NS = {
    # K=J=8 reference configuration of acceptance checks 6-7: tiny arrays,
    # so a step costs Python call overhead times ~21 transforms
    "ns-k8": dict(K=8, J=8, nu=0.1, dt=1e-3, horizon=0.05, output_every=10),
    # large K: the radial profile stacks outgrow L2 and the cold Bessel-zero
    # search dominates set-up; CFL number 0.036 at dt=2e-3
    "ns-k32": dict(K=32, J=24, nu=0.1, dt=2e-3, horizon=0.02, output_every=10),
}

# check 10's two-mode run, the nonlinear run behind the pressure operation
PRESSURE_RUN = dict(
    nu=0.1, K=4, J=12, dt=0.002, t_final=0.3, output_every=1,
    init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)),
)
PRESSURE_T = 0.25
STOKES_RUN = dict(nu=0.1, K=16, J=16, dt=0.005, t_final=1.0, output_every=1)
ANNULUS_R = 0.5
# Check 3 bounds the interior quadrature defect by 1e-5 for its one field
# (4.0e-6 at seed 77).  Over 80 seeded unit-enstrophy K=J=8 fields on the
# same 260x320 grid the defect had median 5.8e-6 and maximum 1.04e-5, so
# a gate that must hold for every seed gets twice the bound.
INTERIOR_TOL = 2e-5


class Gates:
    """Counts gates attempted and failed; a raised exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return bool(ok)

    def crash(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def random_modes(K: int, J: int, rng) -> tuple:
    """Unit-enstrophy random vorticity as ((k, j, parity), coeff) pairs.

    Amplitudes fall like 1/lambda, with lambda from McMahon's estimate
    alpha ~ pi (j + k/2 + 1/4) of the zeros of J_{k+1}, so that drawing
    the field needs no Bessel zero and leaves the set-up cold.
    """
    keys, amp = [], []
    for k in range(K + 1):
        for j in range(1, J + 1):
            for parity in ("cos",) if k == 0 else ("cos", "sin"):
                keys.append((k, j, parity))
                amp.append((math.pi * (j + 0.5 * k + 0.25)) ** -2)
    c = rng.standard_normal(len(keys)) * np.array(amp)
    c /= np.sqrt(np.sum(c * c))
    return tuple(zip(keys, c.tolist()))


def _field(table, modes) -> fields.SpectralField:
    f = fields.SpectralField.zeros(table)
    for (k, j, parity), coeff in modes:
        f.coeffs[table.position(spectrum.ModeIndex(k, j, parity))] = coeff
    return f


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


def _rows(traj) -> np.ndarray:
    return np.array(
        [[r.t, r.energy, r.enstrophy, r.palinstrophy_norm, r.moment_drift, r.correction_norm]
         for r in traj.diagnostics]
    )


@functools.cache
def _reference(key: str):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(key)


def _rel(got, ref) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def environment() -> dict:
    """Machine, versions and BLAS threading as this interpreter sees them."""
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# timing against a calibration probe

# The probe does two fixed kinds of work on arrays of its own, so no
# change to the package can move it: small numpy calls from a Python loop,
# bound by interpreter overhead like a K=8 step, and a log kernel over
# arrays larger than L2, bound by memory like the potentials.  Contention
# slows the two by different amounts, and the workloads sit in between.
_R = np.random.default_rng(12345)
_PROBE_SMALL = [(_R.standard_normal(8), _R.standard_normal((8, 32)), _R.standard_normal(26)) for _ in range(17)]
_PROBE_X = _R.random(250_000) + 0.1
_PROBE_W = _R.random(250_000)
# the unit of scaled times: the probe's time in a quiet stretch on the
# machine described in NOTES.md; any fixed constant would do
PROBE_REF_S = 0.0083


def probe() -> float:
    t = perf_counter()
    for _ in range(40):
        out = np.zeros((32, 26))
        for g, prof, ang in _PROBE_SMALL:
            out += np.outer(g @ prof, ang)
    for _ in range(2):
        float(_PROBE_W @ np.log(_PROBE_X * _PROBE_X))
    return perf_counter() - t


@dataclasses.dataclass(frozen=True)
class Timing:
    """Wall seconds of a piece of work, and the same scaled by the probe."""

    raw: float
    s: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.raw + other.raw, self.s + other.s)


class Meter:
    """Times pieces of work, each between two runs of the probe.

    The machine this was built on ran the same code up to 1.8x slower
    for stretches of seconds to minutes (NOTES.md).  Each piece's wall
    time is scaled by PROBE_REF_S over the mean of the probes just
    before and just after it, which removed most of that slowdown."""

    def __init__(self):
        self._last = probe()

    def __call__(self, fn, *args, **kwargs):
        t = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t
        after = probe()
        factor = PROBE_REF_S / (0.5 * (self._last + after))
        self._last = after
        return result, Timing(raw, raw * factor)


# ---------------------------------------------------------------------------
# ns job


def gate_ns(gates: Gates, name: str, traj, cfg: RunConfig, lam1: float, seed: int) -> None:
    rows = _rows(traj)
    final = traj.states[-1].coeffs
    if not gates.check(f"{name}: finite rows and state", _finite(rows, final)):
        return
    t, energy, drift = rows[:, 0], rows[:, 1], rows[:, 4]
    gates.check(f"{name}: energy never increases", bool(np.all(np.diff(energy) <= 0.0)))
    bound = energy[0] * np.exp(-cfg.nu * lam1 * t)
    gates.check(f"{name}: energy <= E0 exp(-nu lam1 t)", bool(np.all(energy <= bound * (1 + 1e-12))))
    gates.check(f"{name}: moment drift per unit time <= 1e-8", float(np.max(drift)) / cfg.t_final <= 1e-8)
    ref = _reference(name)
    if seed == DEFAULT_SEED and ref is not None:
        gates.check(f"{name}: final coefficients match reference", _rel(final, ref) <= REFERENCE_RTOL)


def ns_config(name: str, seed: int) -> RunConfig:
    spec = NS[name]
    modes = random_modes(spec["K"], spec["J"], _rng(seed, 1))
    return RunConfig(
        nu=spec["nu"], K=spec["K"], J=spec["J"], dt=spec["dt"], t_final=spec["horizon"],
        init_modes=modes, output_every=spec["output_every"],
    )


def ns_job(name: str, seed: int, share: float, passes: int, gates: Gates) -> dict:
    """Cold set-up, then gated ``solver.run`` passes until ``share`` is spent.

    ``wall`` is set-up plus the first pass and its gates."""
    cfg = ns_config(name, seed)
    out: dict = {"steps_per_pass": int(round(cfg.t_final / cfg.dt)), "pass": []}
    meter = Meter()
    try:
        ctx, setup = meter(solver.prepare, cfg)
    except Exception as exc:
        gates.crash(f"{name}: prepare", exc)
        return out
    out["setup"] = setup
    loop_start = perf_counter()
    while len(out["pass"]) < passes or perf_counter() - loop_start < share:
        try:
            traj, elapsed = meter(solver.run, cfg, ctx)
        except Exception as exc:
            gates.crash(f"{name}: run", exc)
            break
        out["pass"].append(elapsed)
        _, checked = meter(gate_ns, gates, name, traj, cfg, ctx.table.lambda_min, seed)
        out.setdefault("wall", setup + elapsed + checked)
        out.setdefault("final", traj.states[-1].coeffs.tolist())
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
# battery job


def _band_field(rng, band: int = 3):
    """Smooth random annulus field with angular content up to ``band``."""
    cr = rng.standard_normal((band + 1, 3))
    R = ANNULUS_R

    def f(r, theta, what="value"):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape)
        s = np.pi * (r - R) / (1 - R)
        for k in range(band + 1):
            prof = cr[k, 0] * np.sin(s) + cr[k, 1] * (r - R) * (1 - r) + cr[k, 2] * r**2
            if what == "value":
                out = out + prof * np.cos(k * theta)
            elif what == "d_r":
                dpr = (cr[k, 0] * np.cos(s) * np.pi / (1 - R)
                       + cr[k, 1] * (1 + R - 2 * r) + 2 * cr[k, 2] * r)
                out = out + dpr * np.cos(k * theta)
            elif what == "d_theta":
                out = out - prof * k * np.sin(k * theta)
            else:
                raise ValueError(what)
        return out

    return f


def _stream_oracle(psi: fields.SpectralField, pts: np.ndarray) -> np.ndarray:
    """Clamped stream function at points, summed mode by mode with scipy."""
    table = psi.table
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    out = np.zeros(pts.shape[0])
    for i, m in enumerate(table.modes):
        a = table.alpha[i]
        rad = table.norm[i] * (special.jv(m.k, a * r) - special.jv(m.k, a) * r**m.k)
        ang = np.cos(m.k * th) if m.parity == "cos" else np.sin(m.k * th)
        out += psi.coeffs[i] * rad * ang
    return out


def _check_points(grid: fields.PolarGrid):
    """Checks 3-4: interior points at midpoints between radial nodes, and
    exterior points, on three angles."""
    mids = 0.5 * (grid.r[:-1] + grid.r[1:])
    radii = np.array([mids[np.argmin(np.abs(mids - t))] for t in np.linspace(0.12, 0.86, 8)])
    angles = np.array([0.3, 2.1, 4.4])

    def polar(rad):
        rr, aa = np.meshgrid(rad, angles, indexing="ij")
        return np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)

    return polar(radii), polar(np.array([1.15, 1.4, 1.9]))


class Battery:
    """The post-solve operations, their inputs drawn from one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.p_cfg = RunConfig(**PRESSURE_RUN)
        self.s_cfg = RunConfig(
            init_modes=random_modes(STOKES_RUN["K"], STOKES_RUN["J"], _rng(seed, 2)),
            **STOKES_RUN,
        )
        self.pot_modes = random_modes(8, 8, _rng(seed, 3))
        self.band = _band_field(_rng(seed, 4))
        self.gamma0 = 0.5 + float(_rng(seed, 5).random())
        self.lam_fundamental = float(special.jn_zeros(1, 1)[0] ** 2)

    def setup(self) -> None:
        """Cold tables, grids and quadrature rules of every operation."""
        self.p_ctx = solver.prepare(self.p_cfg)
        self.s_ctx = solver.prepare(self.s_cfg)
        self.pot_table = spectrum.build_table(8, 8)
        self.pot_grid = fields.PolarGrid(self.pot_table, n_radial=260, n_angular=320)
        self.geom = annulus.AnnulusGeometry(ANNULUS_R)
        self.geom_fine = annulus.AnnulusGeometry(ANNULUS_R, n_radial=600, n_angular=768)
        self.geom.radial_rule()
        self.geom_fine.radial_rule()

    def pressure(self, meter: Meter, gates: Gates) -> dict:
        cfg, ctx = self.p_cfg, self.p_ctx
        traj, run = meter(solver.run, cfg, ctx)
        index = int(np.argmin(np.abs(traj.times - PRESSURE_T)))
        resid, t_resid = meter(pressure.momentum_residual, traj, index, cfg.nu, ctx.grid, n_aux=256)
        p, t_recover = meter(pressure.recover_pressure, traj.states[-1], cfg.nu, ctx.grid)
        final = traj.states[-1].coeffs
        _, checked = meter(self._check_pressure, gates, traj, resid, p, final)
        steps = int(round(cfg.t_final / cfg.dt))
        return {"pressure": run + t_resid + t_recover, "run": run, "steps": steps,
                "gates": checked, "final": final.tolist()}

    @staticmethod
    def _check_pressure(gates: Gates, traj, resid, p, final) -> None:
        if gates.check("pressure: finite rows, state and pressure", _finite(_rows(traj), final, p.values, resid)):
            gates.check("pressure: momentum residual <= 1e-3", resid <= 1e-3)
            ref = _reference("pressure")
            if ref is not None:
                gates.check("pressure: final coefficients match reference", _rel(final, ref) <= REFERENCE_RTOL)

    def stokes(self, meter: Meter, gates: Gates) -> dict:
        traj, elapsed = meter(solver.stokes_run, self.s_cfg, ctx=self.s_ctx)
        _, checked = meter(self._check_stokes, gates, traj)
        return {"stokes": elapsed, "gates": checked}

    def _check_stokes(self, gates: Gates, traj) -> None:
        cfg, table = self.s_cfg, self.s_ctx.table
        c0 = _field(table, cfg.init_modes).coeffs
        want = np.exp(-cfg.nu * table.lam * np.asarray(traj.times)[:, None]) * c0
        got = np.array([s.coeffs for s in traj.states])
        if gates.check("stokes: finite rows and states", _finite(_rows(traj), got)):
            rel = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
            gates.check("stokes: coefficients match exp(-nu lam t) c0 to 1e-10", float(np.max(rel)) <= 1e-10)

    def _disk_potentials(self, omega, interior, exterior):
        gf = fields.to_grid(omega, self.pot_grid)
        return (fields.newtonian_potential(gf, interior), fields.newtonian_potential(gf, exterior),
                fields.greens_potential(gf, interior))

    def _unit_projection(self):
        """Bergman projection of the band field, scaled to unit L2 norm."""
        geom = self.geom_fine
        r, wr = geom.radial_rule()
        th = geom.theta()
        proj = annulus.bergman_project(geom, self.band, degree=4)
        vals = proj(r[:, None], th[None, :])
        norm = math.sqrt(float(np.sum((wr * r) @ vals**2) * 2.0 * np.pi / th.size))
        return lambda rr, tt, what="value": proj(rr, tt, what) / norm

    def potential(self, meter: Meter, gates: Gates) -> dict:
        omega = _field(self.pot_table, self.pot_modes)
        interior, exterior = _check_points(self.pot_grid)
        (newt_in, newt_out, green_in), disk = meter(self._disk_potentials, omega, interior, exterior)
        unit, project = meter(self._unit_projection)
        rep, boundary = meter(annulus.newtonian_bs_annulus, self.geom_fine, unit, degree=4, n_boundary=16)
        _, checked = meter(self._check_potential, gates, omega, interior, newt_in, newt_out, green_in, rep)
        return {"potential": disk + project + boundary, "gates": checked}

    @staticmethod
    def _check_potential(gates: Gates, omega, interior, newt_in, newt_out, green_in, rep) -> None:
        spectral = _stream_oracle(fields.biot_savart(omega), interior)
        enstrophy = fields.norm_at(omega, 0)
        numbers = [newt_in.values, newt_out.values, green_in.values, rep.outer_max, rep.inner_stddev, rep.normal_max]
        if gates.check("potential: finite values", _finite(*numbers)):
            gates.check("potential: no point near a node", not (newt_in.near_node.any() or green_in.near_node.any()))
            gates.check(f"potential: interior |newtonian - spectral| <= {INTERIOR_TOL:g}",
                        np.max(np.abs(newt_in.values - spectral)) <= INTERIOR_TOL)
            gates.check("potential: exterior |newtonian| <= 1e-6 ||w||",
                        np.max(np.abs(newt_out.values)) <= 1e-6 * enstrophy)
            gates.check("potential: |green - newtonian| <= 1e-5",
                        np.max(np.abs(green_in.values - newt_in.values)) <= 1e-5)
            gates.check("potential: annulus outer trace <= 5e-5", rep.outer_max <= 5e-5)
            gates.check("potential: annulus inner spread <= 5e-5", rep.inner_stddev <= 5e-5)
            gates.check("potential: annulus normal derivative <= 5e-4", rep.normal_max <= 5e-4)

    def _annulus_ops(self):
        geom = self.geom
        th = geom.theta()
        xi = annulus.xi_circulation(geom)
        flux_xi = xi.inner_flux()
        om = annulus.omega_big(geom, xi, degree=8)
        deriv = om(np.full_like(th, geom.r_inner), th, "d_r")
        flux_om = float(np.sum(-deriv) * (2 * np.pi / th.size) * geom.r_inner)
        spectra = annulus.galerkin_spectra(geom, n_poly=24, k_max=4)
        circ = annulus.annulus_stokes_circulation(geom, self.gamma0, 0.1, 2.0, n_out=160)
        return flux_xi, flux_om, spectra, circ

    def annulus(self, meter: Meter, gates: Gates) -> dict:
        results, elapsed = meter(self._annulus_ops)
        _, checked = meter(self._check_annulus, gates, *results)
        return {"annulus": elapsed, "gates": checked}

    def _check_annulus(self, gates: Gates, flux_xi, flux_om, spectra, circ) -> None:
        numbers = [flux_xi, flux_om, spectra.lambda_S, spectra.lambda_V, spectra.lambda_Z, circ.lamb_residual]
        if gates.check("annulus: finite values", _finite(*numbers)):
            gates.check("annulus: xi flux = -1 +- 1e-10", abs(flux_xi + 1.0) <= 1e-10)
            gates.check("annulus: projected flux = -1 +- 1e-8", abs(flux_om + 1.0) <= 1e-8)
            gates.check("annulus: clamped and velocity spectra agree to 1e-6",
                        abs(spectra.lambda_S - spectra.lambda_V) / spectra.lambda_S <= 1e-6)
            gates.check("annulus: intermediate eigenvalue <= disk fundamental",
                        spectra.lambda_Z <= self.lam_fundamental)
            gates.check("annulus: circulation-law residual <= 1e-4", circ.lamb_residual <= 1e-4)


# repetitions per round: short operations run more often, so that their
# median rests on as many samples as the long ones can afford
OPERATIONS = {"pressure": 1, "stokes": 1, "potential": 1, "annulus": 3}


def battery_job(seed: int, share: float, passes: int, gates: Gates) -> dict:
    """Cold set-up, then rounds of the operations until ``share`` is spent.

    ``wall`` is set-up plus the first round and its gates."""
    battery = Battery(seed)
    out: dict = {"rounds": []}
    meter = Meter()
    try:
        _, setup = meter(battery.setup)
    except Exception as exc:
        gates.crash("battery: set-up", exc)
        return out
    out["setup"] = setup
    loop_start = perf_counter()
    while len(out["rounds"]) < passes or perf_counter() - loop_start < share:
        record: dict[str, list] = {}
        try:
            for op, reps in OPERATIONS.items():
                for _ in range(reps):
                    for key, value in getattr(battery, op)(meter, gates).items():
                        record.setdefault(key, []).append(value)
        except Exception as exc:
            gates.crash(op, exc)
            break
        out["rounds"].append(record)
        if "wall" not in out:
            spent = [t for op in OPERATIONS for t in record[op]] + record["gates"]
            out["wall"] = sum(spent, setup)
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", required=True, choices=("battery", *NS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--share", type=float, default=0.0, help="seconds of passes after set-up")
    ap.add_argument("--passes", type=int, default=1, help="minimum number of passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    fresh = specfun._zero_row.cache_info().currsize == 0 and "diskvort.acceptance" not in sys.modules
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gates = Gates()
    t0 = perf_counter()
    if args.job == "battery":
        out = battery_job(args.seed, args.share, args.passes, gates)
    else:
        out = ns_job(args.job, args.seed, args.share, args.passes, gates)
    out["job_s"] = perf_counter() - t0
    out.update(
        job=args.job,
        fresh_interpreter=fresh,
        environment=environment(),
        attempted=gates.attempted,
        failed=gates.failed,
    )
    if tracer is not None:
        out["layers"] = tracer.layers()
    print(json.dumps(out, default=dataclasses.asdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
