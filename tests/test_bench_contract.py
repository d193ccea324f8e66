"""What the benchmark under perfbench/ needs from the package.

A traced run (``--trace 1``) looks up every name in ``tracing.TRACED``
with getattr and rebinds it, and each job checks that it runs in a
fresh interpreter by reading the size of the Bessel-zero row cache.  A
refactor that renames or removes one of these breaks the benchmark, not
the package's own tests, so they are pinned here, together with the
call shapes ``perfbench/jobs.py`` uses for the pressure operation and
the potential grid.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("target", _traced_names())
def test_traced_name_is_public_callable(target):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"diskvort.{module_name}")
    assert not attr.startswith("_")
    assert callable(getattr(module, attr))


def test_zero_row_cache_info():
    from diskvort import specfun

    info = specfun._zero_row.cache_info()
    assert info.currsize >= 0


# (function, positional arguments, keyword arguments) as perfbench/jobs.py calls them
JOB_CALLS = [
    ("pressure.momentum_residual", ("traj", "index", "nu", "grid"), {"n_aux": 256}),
    ("pressure.recover_pressure", ("state", "nu", "grid"), {}),
    ("fields.PolarGrid", ("table",), {"n_radial": 260, "n_angular": 320}),
    ("fields.to_grid", ("omega", "grid"), {}),
    ("fields.newtonian_potential", ("gf", "points"), {}),
    ("fields.greens_potential", ("gf", "points"), {}),
    ("spectrum.build_table", (8, 8), {}),
    ("solver.prepare", ("cfg",), {}),
    ("solver.run", ("cfg", "ctx"), {}),
    ("solver.stokes_run", ("cfg",), {"ctx": "ctx"}),
    ("annulus.AnnulusGeometry", (0.5,), {"n_radial": 600, "n_angular": 768}),
    ("annulus.bergman_project", ("geom", "band"), {"degree": 4}),
    ("annulus.newtonian_bs_annulus", ("geom", "unit"), {"degree": 4, "n_boundary": 16}),
    ("annulus.omega_big", ("geom", "xi"), {"degree": 8}),
    ("annulus.galerkin_spectra", ("geom",), {"n_poly": 24, "k_max": 4}),
    ("annulus.annulus_stokes_circulation", ("geom", 1.0, 0.1, 2.0), {"n_out": 160}),
]


@pytest.mark.parametrize("target,args,kwargs", JOB_CALLS, ids=[c[0] for c in JOB_CALLS])
def test_job_call_shapes_bind(target, args, kwargs):
    module_name, attr = target.split(".")
    fn = getattr(importlib.import_module(f"diskvort.{module_name}"), attr)
    inspect.signature(fn).bind(*args, **kwargs)


def test_run_calls_module_step_once_per_step(monkeypatch):
    # a traced run reads its per-step layers off the ``solver.step`` spans,
    # which exist only if ``run`` calls the module-global ``step``
    from diskvort import solver

    calls = []
    step = solver.step

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counting)
    cfg = solver.RunConfig(nu=0.1, K=4, J=4, dt=2e-3, t_final=0.05, init_seed=1, output_every=7)
    traj = solver.run(cfg, solver.prepare(cfg))
    assert len(calls) == round(cfg.t_final / cfg.dt) == 25
    assert traj.times[-1] == pytest.approx(cfg.t_final)


@pytest.mark.parametrize("runner", ["run", "stokes_run"])
def test_loop_calls_module_moment_drift_once_per_row(monkeypatch, runner):
    # the traced ``solver.measure_moment_drift`` metric counts output rows,
    # which holds only while the loop's row calls the module-global one
    from diskvort import solver

    calls = []
    drift = solver.measure_moment_drift

    def counting(*args, **kwargs):
        calls.append(1)
        return drift(*args, **kwargs)

    monkeypatch.setattr(solver, "measure_moment_drift", counting)
    cfg = solver.RunConfig(nu=0.1, K=4, J=4, dt=2e-3, t_final=0.05, init_seed=1, output_every=7)
    traj = getattr(solver, runner)(cfg, ctx=solver.prepare(cfg))
    assert len(calls) == len(traj) == 5


def test_table_reads_of_the_jobs():
    # perfbench/jobs.py fills a field with ``position(ModeIndex(...))``,
    # bounds energy with ``lambda_min`` and sums its stream oracle and the
    # Stokes gate mode by mode from ``modes[i]``, ``alpha[i]``, ``norm[i]``
    # and ``lam[i]``
    import numpy as np
    from scipy import special

    from diskvort.specfun import bessel_j_zero
    from diskvort.spectrum import ModeIndex, build_table

    table = build_table(4, 3)
    assert table.lambda_min == table.lam[0] == table.lam.min()
    assert np.array_equal(table.lam, table.alpha**2)
    for i, m in enumerate(table.modes):
        assert table.position(ModeIndex(m.k, m.j, m.parity)) == i
        assert table.alpha[i] == bessel_j_zero(m.k + 1, m.j)
        scale = np.sqrt((1.0 if m.k == 0 else 2.0) / np.pi)
        assert abs(table.norm[i]) == pytest.approx(scale / abs(special.jv(m.k, table.alpha[i])), rel=1e-12)
    i = table.position(ModeIndex(2, 3, "sin"))
    assert isinstance(i, int)
    assert table.modes[i] == ModeIndex(2, 3, "sin")
    assert table.lam[i] == table.alpha[i] ** 2 == bessel_j_zero(3, 3) ** 2
