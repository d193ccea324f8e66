"""Command line front end: config parsing, dispatch, artifact plumbing.

Subcommands
-----------
spectrum            eigenvalue table as JSON
stokes              linear run from a config file
ns                  nonlinear run from a config file
biot-savart-check   dual-route stream-function agreement report
pressure            pressure recovery and momentum defect along a run
annulus-verify      flux, zeta-pairing, spectra and circulation rows on an annulus (``acceptance``)
accept              the full numbered acceptance suite

Exit codes: 0 success, 2 a ``ConfigError`` (bad flags, config or
thread count, refused before the manifest is written and printed as
``config error: ...``), 3 numerical tolerance failure in a check
subcommand, 4 a run aborted by the solver's guards (CFL bound,
harmonic-moment drift, non-finite state); any other error propagates
and leaves the manifest "running".

Config files are flat INI with sections [domain], [solver], [init],
[output]; the [domain] and [solver] keys are ``solver.RunConfig``
fields.  One loader, ``_load_run``, takes a file to a prepared run and
reports every problem it finds at once: unknown sections or keys,
values that do not parse, the [init] rules (``seed`` only with
``kind = random``, ``modes`` only with ``kind = modes``) and the run's
own checks, the table and grid sizes among them.  For ``ns`` and
``pressure`` it builds the initial state, checks the CFL bound on it
and hands it to the run.  Every default is echoed into the manifest.  Example::

    [solver]
    nu = 0.1
    dt = 0.001
    t_final = 2.0

    [init]
    kind = random
    seed = 42

Every subcommand keeps one run record, the ``_recorded`` context: it
writes ``manifest.json`` into the output directory before doing any
work (status "running") and rewrites it on success (status "completed",
wall clock, file list), so a crashed run is recognizable by its
unfinished manifest.  A solver abort, in any subcommand, rewrites it
with status "failed" and ``failure`` {type, message, step, t}, the step
count and time of the last accepted state, and lists the files written
before it: ``ns`` and ``stokes`` write each row of ``trajectory.csv``
and each due snapshot as the run makes it.  Manifests and reports are
written to a temporary file first, which replaces the old one in one
rename.  All other emitted files are listed in the manifest; numeric
CSV fields carry 17 significant digits.

The BLAS thread count is taken from ``--threads`` or the
``DISKVORT_THREADS`` environment variable; it must be applied before
the first numpy import, so the numerical modules are imported lazily
inside the handlers.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

__all__ = ["ConfigError", "RunManifest", "dispatch", "main"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ConfigError(ValueError):
    """All configuration problems at once, one message per line."""

    def __init__(self, problems):
        self.problems = [str(p) for p in problems]
        super().__init__("\n".join(self.problems))


@dataclasses.dataclass
class RunManifest:
    subcommand: str
    config_path: str | None
    parameters: dict
    outdir: str
    seed: int | None
    version: str
    status: str = "running"
    wall_clock_s: float | None = None
    files: list = dataclasses.field(default_factory=list)
    failure: dict | None = None

    def write(self) -> None:
        self.files.sort()
        _write_json(Path(self.outdir) / "manifest.json", dataclasses.asdict(self))


def _write_json(path: Path, payload) -> None:
    """Indented JSON with sorted keys, written to a temporary file that
    then replaces ``path`` in one rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


@contextlib.contextmanager
def _recorded(subcommand, parameters, outdir, seed=None, config_path=None):
    """The run's record: a "running" manifest, written before the body
    runs and yielded to it; the body lists its outputs in ``man.files``.

    When the body returns, the manifest is rewritten "completed" with the
    wall clock.  A solver abort rewrites it "failed" with a ``failure``
    record and propagates; any other error leaves it "running".  Each
    write lists the files written so far, sorted.
    """
    from . import __version__
    from .solver import SolverAbort

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    man = RunManifest(
        subcommand=subcommand,
        config_path=None if config_path is None else str(config_path),
        parameters=parameters,
        outdir=str(outdir),
        seed=seed,
        version=__version__,
    )
    man.write()
    t0 = time.monotonic()
    try:
        yield man
    except SolverAbort as e:
        man.status = "failed"
        man.failure = {"type": type(e).__name__, "message": str(e), "step": e.step, "t": e.t}
        man.write()
        raise
    man.status = "completed"
    man.wall_clock_s = time.monotonic() - t0
    man.write()


# ---------------------------------------------------------------------------
# config files

_SCHEMA = {
    "domain": {
        "K": (int, 8),
        "J": (int, 8),
        "n_radial": (int, None),
        "n_angular": (int, None),
    },
    "solver": {
        "nu": (float, None),  # the one required key
        "dt": (float, 1e-3),
        "t_final": (float, 1.0),
        "cfl": (float, 0.5),
    },
    "init": {
        "kind": (str, "modes"),
        "modes": (str, "0 1 cos 1.0"),
        "seed": (int, None),
    },
    "output": {
        "every": (int, 10),
        "snapshot_every": (int, 0),
    },
}


def _parse_file(path) -> dict:
    """INI text -> {section: {key: raw string}}, with line-numbered errors."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (K vs k)
    try:
        with open(path) as f:
            parser.read_file(f, source=str(path))
    except OSError as e:
        raise ConfigError([f"cannot read config: {e}"])
    except configparser.Error as e:
        # configparser messages carry "[line N]" markers already
        raise ConfigError([f"parse error: {e}"])
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _parse_modes(text: str):
    entries = []
    for piece in text.split(";"):
        fields = piece.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise ValueError(
                f"entry {piece.strip()!r} must be 'k j parity amplitude'"
            )
        k, j, parity, amp = fields
        try:
            k, j, amp = int(k), int(j), float(amp)
        except ValueError:
            raise ValueError(f"entry {piece.strip()!r} has non-numeric k, j, or amplitude")
        if parity not in ("cos", "sin"):
            raise ValueError(f"entry {piece.strip()!r}: parity must be cos or sin")
        entries.append(((k, j, parity), amp))
    if not entries:
        raise ValueError("no mode entries given")
    return tuple(entries)


def _load_run(path, subcommand: str):
    """Parse, type, vet and prepare a run config file for ``subcommand``
    (``ns``, ``stokes`` or ``pressure``), all problems in one report:
    unknown sections and keys, values that do not parse, the [init]
    rules, the ``RunConfig.validate`` list (table and grid sizes
    included), for ``pressure`` the three output rows a centred time
    derivative needs, a ``nu`` so small that the prepared elliptic
    correction E/nu overflows and, for ``ns`` and ``pressure``, a ``dt``
    past the advective stability bound of the initial state, by
    ``step``'s own inequality (refused before any time stepping).

    Returns ``(resolved, cfg, ctx, state)``: the typed sections with
    every default applied, the run configuration, its prepared context
    and its initial state (None for ``stokes``), for the run to start
    from.  An init whose speed is not a finite positive number has no
    bound to break; the run refuses it at its step-0 row
    (``NonFiniteState``).
    """
    from .solver import RunConfig, initial_state, prepare

    raw = _parse_file(path)
    problems = [f"unknown section [{section}]" for section in raw if section not in _SCHEMA]
    resolved = {}
    for section, keys in _SCHEMA.items():
        got = raw.get(section, {})
        problems += [f"unknown key '{key}' in [{section}]" for key in got if key not in keys]
        out = resolved[section] = {}
        for key, (typ, default) in keys.items():
            out[key] = default
            if key in got:
                try:
                    out[key] = typ(got[key])
                except ValueError:
                    problems.append(
                        f"[{section}] {key}: cannot parse {got[key]!r} as {typ.__name__}"
                    )
    if problems:
        raise ConfigError(problems)

    # the [domain] and [solver] keys are RunConfig fields
    run, ini = {**resolved["domain"], **resolved["solver"]}, resolved["init"]
    if run["nu"] is None:
        problems.append("[solver] nu is required")
        run["nu"] = 1.0  # placeholder so the remaining checks still run
    kind = ini["kind"]
    if kind not in ("modes", "random"):
        problems.append(f"[init] kind must be 'modes' or 'random', got {kind!r}")
        kind = "modes"
    seed = ini["seed"]
    if kind == "random" and seed is None:
        problems.append("[init] seed is mandatory when kind = random")
        seed = 0
    if kind == "modes" and seed is not None:
        problems.append("[init] seed is only meaningful when kind = random")
    if kind == "random" and "modes" in raw.get("init", {}):
        problems.append("[init] modes is only meaningful when kind = modes")
    modes = (((0, 1, "cos"), 1.0),)
    if kind == "modes":
        try:
            modes = _parse_modes(ini["modes"])
        except ValueError as e:
            problems.append(f"[init] modes: {e}")
    snapshot_every = resolved["output"]["snapshot_every"]
    if snapshot_every < 0:
        problems.append(f"[output] snapshot_every must be >= 0, got {snapshot_every}")
    cfg = RunConfig(
        **run,
        init_modes=modes if kind == "modes" else None,
        init_seed=seed if kind == "random" else None,
        output_every=resolved["output"]["every"],
    )
    problems += cfg.validate()
    # the row count is known once dt, t_final and every are valid
    steps_known = 0 < cfg.dt < math.inf and 0 < cfg.t_final < math.inf and cfg.output_every >= 1
    if subcommand == "pressure" and steps_known and cfg.t_final / cfg.dt / cfg.output_every < 2:
        problems.append("pressure needs at least 3 output rows to center a time derivative")
    if problems:
        raise ConfigError(problems)
    ctx = prepare(cfg)
    if not math.isfinite(abs(ctx.elliptic_map).max()):
        raise ConfigError(
            [f"[solver] nu = {cfg.nu!r} is too small: the elliptic correction E/nu overflows"]
        )
    if subcommand == "stokes":
        return resolved, cfg, ctx, None
    state = initial_state(cfg, ctx)
    umax = state.advected[2]
    # step's Courant number, so the loader admits exactly the dt the first step takes
    if 0.0 < umax < math.inf and cfg.dt * umax * ctx.sqrt_lam_max > cfg.cfl:
        raise ConfigError(
            [
                f"[solver] dt = {cfg.dt:g} violates the advective stability "
                f"bound dt <= {cfg.cfl / (umax * ctx.sqrt_lam_max):.3e} for this init "
                f"(|u|_max = {umax:.3g}, sqrt(lambda_max) = {ctx.sqrt_lam_max:.3g})"
            ]
        )
    return resolved, cfg, ctx, state


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectrum(args) -> int:
    from .spectrum import build_table, table_size_problems

    # each problem starts with the name of its flag
    problems = table_size_problems(args.K, args.J)
    if problems:
        raise ConfigError([f"--{p.split()[0]}: {p}" for p in problems])
    with _recorded("spectrum", {"K": args.K, "J": args.J}, args.outdir) as man:
        text = build_table(args.K, args.J).to_json()
        (Path(args.outdir) / "eigenvalues.json").write_text(text + "\n")
        man.files = ["eigenvalues.json"]
    print(text)
    return 0


def _cmd_biot_savart_check(args) -> int:
    from .acceptance import run_all

    with _recorded("biot-savart-check", {}, args.outdir) as man:
        results = run_all([3, 4])
        report = {
            r.name: {"passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        }
        _write_json(Path(args.outdir) / "report.json", report)
        man.files = ["report.json"]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 3


def _snapshots(rows, outdir: Path, every: int, files: list):
    """The run's rows passed on as they are made, the state of every
    ``every``-th (none for 0) first written to ``snapshots/`` and listed
    in ``files``."""
    from .fields import write_csv

    for idx, (t, state, row) in enumerate(rows):
        if every > 0 and idx % every == 0:
            name = f"snapshots/state_{idx:06d}.csv"
            (outdir / "snapshots").mkdir(exist_ok=True)
            files.append(name)
            coeffs = ((m.k, m.j, m.parity, c) for m, c in zip(state.table.modes, state.coeffs))
            write_csv(outdir / name, ("k", "j", "parity", "coeff"), coeffs)
        yield t, state, row


def _cmd_run(args) -> int:
    """``ns``, ``stokes`` and ``pressure``: the run of a config file and
    its snapshots, with its trajectory or, for ``pressure``, the momentum
    defect along it and the pressure of its final state."""
    from .fields import write_csv
    from .solver import DiagnosticsRow, run_rows, stokes_rows

    name = args.subcommand
    if name == "pressure" and args.n_aux < 1:
        raise ConfigError([f"--n-aux must be at least 1, got {args.n_aux}"])
    resolved, cfg, ctx, state = _load_run(args.config, name)
    outdir = Path(args.outdir)
    with _recorded(name, resolved, outdir, resolved["init"]["seed"], args.config) as man:
        made = stokes_rows(cfg, ctx=ctx) if state is None else run_rows(cfg, ctx, state)
        rows = _snapshots(made, outdir, resolved["output"]["snapshot_every"], man.files)
        if name == "pressure":
            from .pressure import momentum_residual, recover_pressure
            from .semigroup import Trajectory

            traj = Trajectory(*zip(*rows))
            index = (len(traj) - 1) // 2
            resid = momentum_residual(traj, index, cfg.nu, ctx.grid, n_aux=args.n_aux)
            p = recover_pressure(traj.states[-1], cfg.nu, ctx.grid, n_aux=args.n_aux)
            p.to_csv(outdir / "pressure.csv")
            report = {
                "momentum_residual": resid,
                "residual_time": float(traj.times[index]),
                "pressure_time": float(traj.times[-1]),
                "n_aux": args.n_aux,
            }
            _write_json(outdir / "report.json", report)
            man.files += ["pressure.csv", "report.json"]
            summary = (
                f"pressure: momentum residual {resid:.6e} at t={traj.times[index]:g}; "
                f"field on the final state written to {outdir / 'pressure.csv'}"
            )
        else:
            man.files.append("trajectory.csv")
            header = [field.name for field in dataclasses.fields(DiagnosticsRow)]
            # the last row stays bound for the summary line
            values = (vars(last := row).values() for _, _, row in rows)
            n_rows = write_csv(outdir / "trajectory.csv", header, values)
            summary = (
                f"{name}: {n_rows} output rows to {outdir / 'trajectory.csv'}; "
                f"final t={last.t:g} energy={last.energy:.6e} enstrophy={last.enstrophy:.6e}"
            )
    print(summary)
    return 0


def _cmd_annulus_verify(args) -> int:
    from .acceptance import annulus_rows
    from .annulus import AnnulusGeometry, check_limits

    limits = {"--n-poly": args.n_poly, "--k-max": args.k_max, "--nu": args.nu, "--t-final": args.t_final}
    try:
        check_limits(limits)
    except ValueError as e:
        raise ConfigError([e]) from None
    try:
        geom = AnnulusGeometry(args.r_inner)
    except ValueError as e:
        raise ConfigError([f"--r-inner: {e}"]) from None
    parameters = {name: getattr(args, name) for name in ("r_inner", "n_poly", "k_max", "nu", "t_final")}
    with _recorded("annulus-verify", parameters, args.outdir) as man:
        rows, circ = annulus_rows(geom, args.n_poly, args.k_max, args.nu, args.t_final)
        circ.to_csv(Path(args.outdir) / "circulation.csv")
        report = {name: {"passed": ok, "detail": detail} for name, ok, detail in rows}
        _write_json(Path(args.outdir) / "report.json", report)
        man.files = ["circulation.csv", "report.json"]
    for name, ok, detail in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in rows) else 3


def _cmd_accept(args) -> int:
    from .acceptance import ALL_CHECKS, run_all

    numbers = None
    if args.only:
        try:
            numbers = sorted({int(x) for x in args.only.split(",")})
        except ValueError:
            raise ConfigError([f"--only expects numbers, got {args.only!r}"]) from None
        if any(n < 1 or n > len(ALL_CHECKS) for n in numbers):
            raise ConfigError([f"--only: criteria are numbered 1..{len(ALL_CHECKS)}, got {args.only!r}"])
    with _recorded("accept", {"only": numbers}, args.outdir) as man:
        results = run_all(numbers=numbers, stream=print)
        report = {
            "results": [dataclasses.asdict(r) for r in results],
            "all_passed": all(r.passed for r in results),
        }
        _write_json(Path(args.outdir) / "report.json", report)
        man.files = ["report.json"]
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return 0 if n_fail == 0 else 3


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskvort",
        description="Spectral vorticity dynamics on the unit disk and annulus.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        metavar="N",
        help="BLAS thread count (also: DISKVORT_THREADS env var)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--outdir", default=f"runs/{name}", help="output directory")
        return p

    p = add("spectrum", _cmd_spectrum, help="eigenvalue table as JSON")
    p.add_argument("--K", type=int, default=8, help="max angular wavenumber")
    p.add_argument("--J", type=int, default=8, help="radial modes per wavenumber")

    for name, blurb in (
        ("stokes", "linear run from a config file"),
        ("ns", "nonlinear run from a config file"),
    ):
        p = add(name, _cmd_run, help=blurb)
        p.add_argument("--config", required=True, help="INI config path")

    add(
        "biot-savart-check",
        _cmd_biot_savart_check,
        help="dual-route stream-function agreement report",
    )

    p = add("pressure", _cmd_run, help="pressure recovery along a run")
    p.add_argument("--config", required=True, help="INI config path")
    p.add_argument("--n-aux", type=int, default=256, help="auxiliary radial elements")

    p = add("annulus-verify", _cmd_annulus_verify, help="annulus toolkit checks")
    p.add_argument("--r-inner", type=float, default=0.5, help="inner radius")
    p.add_argument("--n-poly", type=int, default=24, help="radial trial degree")
    p.add_argument("--k-max", type=int, default=4, help="max angular wavenumber")
    p.add_argument("--nu", type=float, default=0.1, help="viscosity for the circulation run")
    p.add_argument("--t-final", type=float, default=2.0, help="circulation run horizon")

    p = add("accept", _cmd_accept, help="run the numbered acceptance suite")
    p.add_argument("--only", help="comma-separated criterion numbers, e.g. 1,5,11")

    return parser


def _apply_thread_count(args) -> None:
    """Export the BLAS thread count of ``--threads`` or ``DISKVORT_THREADS``."""
    threads = args.threads if args.threads is not None else os.environ.get("DISKVORT_THREADS")
    if threads is None:
        return
    try:
        n = int(threads)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError([f"thread count must be a positive integer, got {threads!r}"])
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse prints usage itself
        return 0 if e.code in (0, None) else 2

    try:
        _apply_thread_count(args)
        import numpy as np  # numpy reads the thread count on import

        from .solver import SolverAbort

        try:
            # the solver's guards turn every overflow into NonFiniteState
            with np.errstate(over="ignore"):
                return args.handler(args)
        except SolverAbort as e:
            print(f"run aborted: {type(e).__name__}: {e}", file=sys.stderr)
            return 4
    except ConfigError as e:
        for line in e.problems:
            print(f"config error: {line}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
