"""Planted defects: each one must fail the acceptance check named for it.

A defective copy of a kernel is built from the shipped source by one
textual substitution, so it tracks the kernel as it changes; the
substitution must match exactly once, or the test fails before it
plants anything.
"""

import inspect

import pytest

from diskvort import acceptance, nonlinear

JACOBIAN = "lam_vals = (dpsi_r * dom_t - dpsi_t * dom_r) / grid.r[:, None]"


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
