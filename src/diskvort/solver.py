"""Time integration of the coupled parabolic-elliptic vorticity system.

The unknown splits as omega = omega_0 + omega_B.  The admissible track
omega_0 evolves by an exponential (ETD2RK) step with forcing

    F = -P Lambda - d/dt omega_B,

the linear factor handled exactly mode-wise.  The elliptic track
omega_B is slaved to the harmonic moments h of the advection term,
refreshed once per accepted step from the current Lambda (one-step
lag).  Since omega_B = E h / nu for the fixed block map E built in
``prepare`` (``nonlinear.elliptic_map``), its time derivative is the
backward difference (omega_B,n - omega_B,n-1)/dt, the correction of
the backward difference of the moments.  The initial state absorbs the
instantaneous correction, so the total initial vorticity equals the
requested one, and carries that advection for the first step's first
stage; the first step's difference is therefore exactly zero.

The state is the step count i, at t = i dt, and omega_0 and omega_B
as coefficient blocks (2, K+1, J).  Apart from the advection every map
in a step is a block scale fixed in ``prepare``: the exponential
factors, E/nu and the moment map.  Biot-Savart's -1/lambda and the
polar 1/r are fixed too, folded into the grid's kernel rows
(``fields.PolarGrid``).  The advection kernel runs twice, each one
radial matmul, one angular matmul and one analysis matmul on omega's
blocks; the CFL guard reads |u|max off the first run.
Both stages are the one ETD2RK update, ``semigroup.duhamel_step``; the
linear ``stokes_run`` has no omega_B and takes it with a given forcing
in place of advection, or, unforced, its exact value e^{-nu lambda dt}
times the state, and shares with ``run`` the one loop, which
alone turns blocks into eigen-sorted fields, once per output row, and
yields each row as it is made (``run_rows``, ``stokes_rows``), which
``run`` and ``stokes_run`` collect.  A row gathers the total's blocks
into eigen order once; one ``vecdot`` of the squares against the
lambda-weight table (lambda^-1, 1, lambda) built in ``prepare`` gives
its three norms as ``fields.norm_at`` takes each, and ``norm_at`` is
the row's oracle in the tests.

Every object in the loop lives in the eigen-span, so the harmonic
moments of the total vorticity are conserved structurally; the solver
still measures them each step, as max |M c| for the quadrature moment
map M built in ``prepare``, and aborts loudly if they ever exceed 10x
``MOMENT_TOL``.  A state whose speed, moments or new
coefficients are not finite aborts too, and so does a run whose output
row is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from .fields import PolarGrid, SpectralField, grid_size_problems, norm_at
from .nonlinear import _advect, elliptic_map
from .semigroup import Trajectory, duhamel_step, phi1, phi2
from .specfun import is_integer
from .spectrum import EigenTable, ModeIndex, build_table, table_size_problems

__all__ = [
    "MOMENT_TOL",
    "RunConfig",
    "SolverState",
    "DiagnosticsRow",
    "RunContext",
    "SolverAbort",
    "CFLViolation",
    "MomentDriftError",
    "NonFiniteState",
    "prepare",
    "initial_state",
    "step",
    "run_rows",
    "run",
    "stokes_rows",
    "stokes_run",
    "measure_moment_drift",
]


MOMENT_TOL = 1e-8  # a step aborts once the harmonic moments exceed 10x this


class SolverAbort(RuntimeError):
    """A refused step; a run sets ``step`` and ``t``, the step count and
    time of its last accepted state."""

    step = t = None


class CFLViolation(SolverAbort):
    """The explicit nonlinear part would be advanced beyond its
    stability bound; the step is refused, nothing is mutated."""


class MomentDriftError(SolverAbort):
    """The total vorticity grew harmonic moments beyond 10x tolerance;
    the state is corrupt and the run aborts."""


class NonFiniteState(SolverAbort):
    """The state, its speed or its harmonic moments are NaN or infinite;
    no comparison against a bound can catch that, so the run aborts."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible run needs.

    Exactly one of ``init_modes`` (exact coefficients) or ``init_seed``
    (a seed >= 0 for random admissible data, coefficients ~ lambda^{-1},
    normalized to unit enstrophy) must be given.
    """

    nu: float
    K: int
    J: int
    dt: float
    t_final: float
    init_modes: Optional[tuple] = None  # ((k, j, parity), coeff) pairs
    init_seed: Optional[int] = None
    n_radial: Optional[int] = None
    n_angular: Optional[int] = None
    output_every: int = 10
    cfl: float = 0.5

    def __post_init__(self):
        # numpy scalars stand for the Python numbers they hold
        for name, value in list(vars(self).items()):
            if isinstance(value, (np.integer, np.floating)):
                object.__setattr__(self, name, value.item())

    def validate(self) -> list[str]:
        """All violations at once, not just the first.

        The init modes are checked in one loop over the entries (see
        ``_init_mode_problems``), and only the entries it flags are
        formatted, in entry order; no ``ModeIndex`` is built for a valid
        entry."""
        errs = []
        real = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)

        def positive(name) -> bool:
            """Whether the field is a positive finite number; if not, say so."""
            value = getattr(self, name)
            if not (real(value) and value > 0):
                errs.append(f"{name} must be > 0, got {value!r}")
            elif value == math.inf:
                errs.append(f"{name} must be finite, got {value!r}")
            return real(value) and 0 < value < math.inf

        positive("nu")
        errs += table_size_problems(self.K, self.J)
        dt_ok, t_final_ok = positive("dt"), positive("t_final")
        if dt_ok and t_final_ok:
            n = self.t_final / self.dt
            if n == math.inf:
                errs.append(f"t_final={self.t_final} over dt={self.dt} is too many steps to count")
            elif abs(n - round(n)) > 1e-9 * max(1.0, n):
                errs.append(
                    f"t_final={self.t_final} is not an integer multiple of dt={self.dt}"
                )
            elif round(n) == 0:
                errs.append(f"t_final={self.t_final} is shorter than one step of dt={self.dt}")
        if (self.init_modes is None) == (self.init_seed is None):
            errs.append("exactly one of init_modes or init_seed must be set")
        if self.init_seed is not None and not (is_integer(self.init_seed) and self.init_seed >= 0):
            errs.append(f"init_seed must be an integer >= 0, got {self.init_seed!r}")
        errs += _init_mode_problems(self.init_modes, self.K, self.J)
        errs += grid_size_problems(self.K, self.J, self.n_radial, self.n_angular)
        if not (is_integer(self.output_every) and self.output_every >= 1):
            errs.append(f"output_every must be an integer >= 1, got {self.output_every!r}")
        if not (real(self.cfl) and self.cfl > 0):
            errs.append(f"cfl must be > 0, got {self.cfl!r}")
        return errs


def _is_index(x) -> bool:
    """A mode index is an integer or a float holding a whole number, like 2.0."""
    return is_integer(x) or (isinstance(x, float) and x.is_integer())


def _init_mode_problems(init_modes, K, J) -> list[str]:
    """What is wrong with each init mode, in entry order, empty if nothing.

    One pass over the entries.  A valid mode has k >= 0, j >= 1 and
    parity "cos", or "sin" with k > 0; only a bad one builds a
    ``ModeIndex``, whose ``ValueError`` words the reason.  A repeat is a
    valid entry whose (k, j, sine) slot an earlier entry holds; the slots
    are Python ints, so indices past int64 compare exactly.  An entry's
    name is formatted only if it has a message.
    """
    try:
        entries = () if init_modes is None else tuple(init_modes)
    except TypeError as e:
        return [f"malformed init_modes: {e}"]
    sized = is_integer(K) and is_integer(J)
    errs, seen = [], set()
    for entry in entries:
        try:
            (k, j, parity), coeff = entry
        except (TypeError, ValueError):
            errs.append(f"init mode {entry!r} is not ((k, j, parity), coefficient)")
            continue
        reasons, slot = [], None
        if not (_is_index(k) and _is_index(j)):
            reasons.append(" needs integer k and j")
        elif int(k) >= 0 and int(j) >= 1 and (parity == "cos" or parity == "sin" and int(k) > 0):
            slot = (int(k), int(j), parity == "sin")
        else:
            try:
                ModeIndex(int(k), int(j), parity)
            except ValueError as e:
                reasons.append(f": {e}")
        try:
            value = float(coeff)
        except (TypeError, ValueError):
            reasons.append(f" has coefficient {coeff!r}, not a number")
        else:
            if not math.isfinite(value):
                reasons.append(f" has coefficient {coeff!r}, not finite")
        if slot is not None:
            if slot in seen:
                reasons.append(" given twice")
            seen.add(slot)
            if sized and (slot[0] > K or slot[1] > J):
                reasons.append(f" outside table K={K} J={J}")
        if reasons:
            name = f"init mode ({k},{j},{parity})"
            errs += [name + reason for reason in reasons]
    return errs


@dataclass
class SolverState:
    """The state after ``steps`` steps, at t = steps * dt: omega_0 and
    omega_B (None in the linear run) as coefficient blocks (2, K+1, J),
    ``EigenTable.to_blocks``, and, if the next step may take it in place
    of its own, the total's advection: the first three of ``_advect``."""

    steps: int
    w0: np.ndarray
    wb: Optional[np.ndarray] = None
    advected: Optional[tuple] = None


@dataclass
class DiagnosticsRow:
    t: float
    energy: float  # V_{-1} norm of the total vorticity
    enstrophy: float  # V_0 norm
    palinstrophy_norm: float  # V_1 norm
    moment_drift: float  # max harmonic moment, measured by quadrature
    correction_norm: float  # V_0 norm of omega_B


@dataclass
class RunContext:
    """Precomputed per-run machinery shared by all steps; the arrays are
    coefficient blocks (2, K+1, J), ``EigenTable.to_blocks``.  In the k = 0
    sine pad slot, lambda reads 0: the factors read 1, dt, dt/2 and multiply 0."""

    table: EigenTable
    grid: PolarGrid
    exp_factor: np.ndarray  # exp(-nu lam dt)
    phi1_dt: np.ndarray  # dt phi1(-nu lam dt)
    phi2_dt: np.ndarray  # dt phi2(-nu lam dt)
    sqrt_lam_max: float
    elliptic_map: np.ndarray  # E / nu: omega_B blocks per unit moment
    moment_map: np.ndarray  # harmonic moments of each basis function
    norm_weights: np.ndarray  # (3, n): lam^-1, 1, lam, a row's V_-1, V_0, V_1 norm weights
    prepared_for: dict  # the config fields prepare read, by name; a run's config must match


def prepare(cfg: RunConfig) -> RunContext:
    errs = cfg.validate()
    if errs:
        raise ValueError("invalid configuration:\n" + "\n".join(errs))
    table = build_table(cfg.K, cfg.J)
    grid = PolarGrid(table, cfg.n_radial, cfg.n_angular)
    z = -cfg.nu * table.to_blocks(table.lam) * cfg.dt
    return RunContext(
        table=table,
        grid=grid,
        exp_factor=np.exp(z),
        phi1_dt=cfg.dt * phi1(z),
        phi2_dt=cfg.dt * phi2(z),
        sqrt_lam_max=float(np.sqrt(table.lambda_max)),
        elliptic_map=elliptic_map(grid) / cfg.nu,
        moment_map=grid.project_radial(grid.harm),
        norm_weights=np.stack([table.lam**power for power in (-1, 0, 1)]),
        prepared_for={f: getattr(cfg, f) for f in ("nu", "dt", "K", "J", "n_radial", "n_angular")},
    )


def _initial_field(cfg: RunConfig, table: EigenTable) -> np.ndarray:
    """Blocks (2, K+1, J) of the initial vorticity: each init mode at its
    slot (parity, k, j-1), or the random field, drawn in eigen order."""
    if cfg.init_modes is None:
        return table.to_blocks(_random_admissible(table, cfg.init_seed).coeffs)
    modes, coeffs = zip(*cfg.init_modes)
    k, j, parity = zip(*modes)
    sin = np.array([p == "sin" for p in parity], dtype=np.intp)  # faster than np.equal on strings
    w = np.zeros((2, table.K + 1, table.J))  # validate rejects repeated modes
    w[sin, np.array(k, dtype=np.intp), np.array(j, dtype=np.intp) - 1] = np.array(coeffs, dtype=float)
    return w


def _random_admissible(table: EigenTable, seed) -> SpectralField:
    """Random admissible vorticity: standard normal coefficients over
    lambda, normalized to unit enstrophy."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(table)) / table.lam
    f = SpectralField(table, c, "vorticity")
    return f * (1.0 / norm_at(f, 0))


def initial_state(cfg: RunConfig, ctx: RunContext) -> SolverState:
    """Split the requested initial vorticity into the two tracks.

    omega_B(0) is the instantaneous elliptic solve against the initial
    advection moments, and omega_0(0) = omega_i - omega_B(0), so the
    total equals the requested field exactly; the first step takes that
    advection of omega_i as its own.
    """
    w = _initial_field(cfg, ctx.table)
    advected = _advect(w, ctx.grid)[:3]
    wb = ctx.elliptic_map * advected[1][:, :, None]
    return SolverState(0, w - wb, wb, advected)


def _max_moment(blocks: np.ndarray, ctx: RunContext) -> float:
    return float(np.abs(np.vecdot(ctx.moment_map, blocks)).max())


def measure_moment_drift(blocks: np.ndarray, ctx: RunContext) -> float:
    """Max harmonic moment, by grid quadrature, of the vorticity with
    coefficient blocks (2, K+1, J), as max |M c|."""
    return _max_moment(blocks, ctx)


def step(state: SolverState, cfg: RunConfig, ctx: RunContext) -> SolverState:
    """One accepted ETD2RK step of the coupled system, on coefficient blocks."""
    t = state.steps * cfg.dt
    w = state.w0 + state.wb

    projected, moments, umax = state.advected or _advect(w, ctx.grid)[:3]
    courant = cfg.dt * umax * ctx.sqrt_lam_max
    drift = _max_moment(w, ctx)
    if not (math.isfinite(courant) and math.isfinite(drift)):
        raise NonFiniteState(
            f"refusing step at t={t:.6g}: |u|max = {umax:.3g}, "
            f"harmonic moments = {drift:.3g}"
        )
    if courant > cfg.cfl:
        raise CFLViolation(
            f"refusing step at t={t:.6g}: dt*|u|*sqrt(lam_max) = "
            f"{courant:.3g} exceeds {cfg.cfl}"
        )
    if drift > 10.0 * MOMENT_TOL:
        raise MomentDriftError(
            f"harmonic moments reached {drift:.3e} at t={t:.6g} "
            f"(tolerance {MOMENT_TOL:.1e}); state no longer admissible"
        )

    wb_new = ctx.elliptic_map * moments[:, :, None]
    domega_b_dt = (wb_new - state.wb) / cfg.dt
    f0 = -projected - domega_b_dt
    forcing = lambda a: -_advect(a + wb_new, ctx.grid, speed=False)[0] - domega_b_dt
    new0 = duhamel_step(state.w0, f0, forcing, ctx.exp_factor, ctx.phi1_dt, ctx.phi2_dt)
    if not np.isfinite(new0).all():  # a non-finite wb_new reaches new0 through f0 and a
        raise NonFiniteState(f"step from t={t:.6g} produced non-finite coefficients")

    return SolverState(state.steps + 1, new0, wb_new)


def _integrate(cfg: RunConfig, ctx: RunContext, state: SolverState, advance) -> Iterator[tuple]:
    """Map ``state`` to the next by ``advance`` once per step up to t_final,
    yielding ``(t, total vorticity, diagnostics row)`` as each is made: at
    the start, every ``output_every`` steps and at the end; a row whose
    time does not rise, or a last row short of t_final, is a ``ValueError``.
    A ``SolverAbort`` leaves with the step count and time of the last
    accepted state, or of the row, if a row to yield is not finite
    (``NonFiniteState``)."""
    given = {name: getattr(cfg, name) for name in ctx.prepared_for}
    if given != ctx.prepared_for:
        raise ValueError(f"context prepared for {ctx.prepared_for}, not {given}")
    n_steps = int(round(cfg.t_final / cfg.dt))
    table = ctx.table

    def record(state: SolverState) -> tuple:
        t = state.steps * cfg.dt
        w = state.w0 if state.wb is None else state.w0 + state.wb  # the linear run has no omega_B
        c = table.from_blocks(w)
        norms = np.sqrt(np.vecdot(ctx.norm_weights, c * c)).tolist()
        # correction_norm, omega_B's V_0 norm, on the blocks: the weight lam^0 is 1
        correction = 0.0 if state.wb is None else math.sqrt(np.vdot(state.wb, state.wb))
        row = DiagnosticsRow(t, *norms, measure_moment_drift(w, ctx), correction)
        if not all(map(math.isfinite, vars(row).values())):
            bad = [f"{name}={value:.3g}" for name, value in vars(row).items() if not math.isfinite(value)]
            err = NonFiniteState(f"output row at t={t:.6g} is not finite: {', '.join(bad)}")
            err.step, err.t = state.steps, t
            raise err
        return t, SpectralField(table, c, "vorticity"), row

    yield record(state)
    shown = state.steps  # the step count of the last row
    for _ in range(state.steps, n_steps):
        try:
            state = advance(state)
        except SolverAbort as e:
            e.step, e.t = state.steps, state.steps * cfg.dt
            raise
        if state.steps % cfg.output_every == 0 or state.steps == n_steps:
            if state.steps <= shown:
                raise ValueError("times must be strictly increasing")
            yield record(state)
            shown = state.steps
    if shown < n_steps:  # an advance stuck between two rows
        raise ValueError(f"the step count stopped at {state.steps} of {n_steps}")


def run_rows(cfg: RunConfig, ctx: RunContext, state: SolverState) -> Iterator[tuple]:
    """The rows of a run to t_final from ``state``, as ``_integrate`` yields them."""
    return _integrate(cfg, ctx, state, lambda state: step(state, cfg, ctx))


def run(cfg: RunConfig, ctx: Optional[RunContext] = None, state: Optional[SolverState] = None) -> Trajectory:
    """Integrate to t_final from ``state``, by default ``initial_state``
    on ``ctx``: the trajectory of ``run_rows``, made before it returns."""
    if ctx is None:
        ctx = prepare(cfg)
    if state is None:
        state = initial_state(cfg, ctx)
    return Trajectory(*zip(*run_rows(cfg, ctx, state)))


def stokes_rows(
    cfg: RunConfig,
    forcing: Optional[Callable[[float], SpectralField]] = None,
    ctx: Optional[RunContext] = None,
) -> Iterator[tuple]:
    """The rows of the linear evolution: the ETD2RK update of ``step``
    with the forcing, a function of t or none, in place of advection,
    and no elliptic track.  Step i takes the forcing at i dt and (i+1)
    dt, one call per time point; unforced, it is e^{-nu lambda dt} w."""
    if ctx is None:
        ctx = prepare(cfg)
    if forcing is None:
        advance = lambda state: SolverState(state.steps + 1, ctx.exp_factor * state.w0)
    else:
        factors = (ctx.exp_factor, ctx.phi1_dt, ctx.phi2_dt)

        @lru_cache(maxsize=1)  # a step's t0 is the last step's t1: one call per time point
        def force(t: float) -> np.ndarray:
            f = forcing(t)
            if not isinstance(f, SpectralField):
                raise TypeError(f"expected SpectralField, got {type(f).__name__}")
            if f.table is not ctx.table:
                raise ValueError("fields built on different tables cannot be combined")
            if f.kind != "vorticity":
                raise ValueError(f"cannot combine kind 'vorticity' with {f.kind!r}")
            return ctx.table.to_blocks(f.coeffs)

        def advance(state: SolverState) -> SolverState:
            t0, t1 = state.steps * cfg.dt, (state.steps + 1) * cfg.dt
            f0, f1 = force(t0), force(t1)
            return SolverState(state.steps + 1, duhamel_step(state.w0, f0, lambda a: f1, *factors))

    return _integrate(cfg, ctx, SolverState(0, _initial_field(cfg, ctx.table)), advance)


def stokes_run(
    cfg: RunConfig,
    forcing: Optional[Callable[[float], SpectralField]] = None,
    ctx: Optional[RunContext] = None,
) -> Trajectory:
    """The trajectory of ``stokes_rows``, every row made before it returns."""
    return Trajectory(*zip(*stokes_rows(cfg, forcing, ctx)))
