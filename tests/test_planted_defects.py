"""Planted defects: each one must fail the acceptance check named for it.

A defective copy of a kernel is built from the shipped source by one
textual substitution, so it tracks the kernel as it changes; the
substitution must match exactly once, or the test fails before it
plants anything.
"""

import inspect

import pytest

from diskvort import acceptance, nonlinear, pressure, solver

JACOBIAN = "lam_vals = (dpsi_r * dom_t - dpsi_t * dom_r) / grid.r[:, None]"
ELLIPTIC = "elliptic_map=elliptic_map(grid) / cfg.nu,"
EXP_FACTOR = "exp_factor=table.to_blocks(np.exp(z)),"
DERIVATIVE = "domega_b_dt = (wb_new - state.wb) / cfg.dt if state.steps else 0.0"
CONJUGATE = "return np.stack([-h[1], h[0]])"


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
    for module in (nonlinear, solver, pressure, acceptance):
        if getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, copy)


@pytest.mark.parametrize("defect", DYNAMICS_DEFECTS.values(), ids=DYNAMICS_DEFECTS.keys())
def test_check_10_catches_dynamics_defect(monkeypatch, defect):
    plant(monkeypatch, *defect)
    result = acceptance.check_pressure_consistency()
    assert not result.passed, result.detail
