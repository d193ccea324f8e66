"""One test per numbered acceptance criterion, at the contract tolerances.

The checks themselves live in diskvort.acceptance (shared with the
``accept`` subcommand); each test runs its check through ``run_all``,
as the CLI does, and asserts the PASS flag and the stated runtime
budget, with the measured numbers in the failure message.
"""

import numpy as np
import pytest

from diskvort import acceptance
from diskvort.annulus import AnnulusGeometry
from diskvort.pressure import PressureField
from diskvort.specfun import gauss_legendre


def _require(number, budget_s):
    (result,) = acceptance.run_all([number])
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"
    assert result.seconds < budget_s, (
        f"criterion {result.number} took {result.seconds:.1f} s (budget {budget_s} s)"
    )


def test_criterion_01_spectrum_pin():
    _require(1, 1.0)


def test_criterion_02_membership_moments():
    _require(2, 10.0)


def test_criterion_03_newtonian_agreement():
    _require(3, 30.0)


def test_criterion_04_green_equivalence():
    _require(4, 30.0)


def test_criterion_05_stokes_decay():
    _require(5, 5.0)


def test_criterion_06_ns_decay_rates():
    _require(6, 300.0)


def test_criterion_07_moment_invariance():
    # shares the reference run with criterion 6
    _require(7, 300.0)


def test_criterion_08_skew_symmetry():
    _require(8, 30.0)


def test_criterion_09_energy_identity_order():
    _require(9, 120.0)


def test_criterion_10_pressure_consistency():
    _require(10, 120.0)


@pytest.mark.parametrize(
    "shift, passes, reads",
    [(lambda r, th: np.ones_like(r), True, None), (lambda r, th: 1e-6 * r * np.cos(th), False, "2.0e-06")],
    ids=["constant", "r-cos-theta"],
)
def test_check_10_holds_p_to_the_potential_up_to_a_constant(monkeypatch, shift, passes, reads):
    # a constant added to p is no defect; a 1e-6 r cos(theta) one is
    recover = acceptance.recover_pressure

    def shifted(omega, nu, grid, *args, **kw):
        return PressureField(grid, recover(omega, nu, grid, *args, **kw).values + shift(*grid.node_polar()))

    monkeypatch.setattr(acceptance, "recover_pressure", shifted)
    passed, detail = acceptance.check_pressure_consistency()
    assert passed == passes, detail
    if reads is not None:
        assert f"p - potential constant to {reads}," in detail


def test_check_10_reads_the_slope_at_the_element_centroids(monkeypatch):
    # the radius each element's P1 slope is read at is its centroid
    # int r^2 dr / int r dr, here by a 4-point Gauss rule (exact for both)
    read = []
    p1_rows = acceptance._p1_rows

    def recorded(nodes, T, r):
        read.append((nodes, r))
        return p1_rows(nodes, T, r)

    monkeypatch.setattr(acceptance, "_p1_rows", recorded)
    passed, detail = acceptance.check_pressure_consistency()
    assert passed, detail
    assert [r.size for _, r in read] == [256, 128]
    gx, gw = gauss_legendre(4, -1.0, 1.0)
    for nodes, r in read:
        a, b = nodes[:-1], nodes[1:]
        assert np.all((a <= r) & (r <= b))
        x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx
        np.testing.assert_allclose(r, (x**2 @ gw) / (x @ gw), rtol=1e-14, atol=0)


def test_criterion_11_annulus_spectra():
    _require(11, 120.0)


def test_criterion_12_annulus_flux():
    _require(12, 120.0)


def test_run_all_streams_one_line_each():
    lines = []
    results = acceptance.run_all(numbers=[1, 5], stream=lines.append)
    assert len(results) == 2 and len(lines) == 2
    assert lines[0].startswith("PASS  1 spectrum-pin")
    assert lines[1].startswith("PASS  5 stokes-decay")


def test_check_12_is_the_flux_rows_of_annulus_verify():
    rows, circ = acceptance.annulus_rows(AnnulusGeometry(0.5))
    names = [name for name, _, _ in rows]
    assert names == [
        "xi-flux", "projected-flux", "zeta-routes", "spectra-equality", "spectrum-ordering", "circulation-law",
    ]
    flux_rows, flux_circ = acceptance.annulus_flux_rows(AnnulusGeometry(0.5))
    assert [rows[i] for i in (0, 1, 5)] == flux_rows
    assert (circ.gamma == flux_circ.gamma).all()
    (_, _, xi), (_, _, om), (_, _, law) = flux_rows
    (check,) = acceptance.run_all([12])
    assert check.passed and all(passed for _, passed, _ in rows)
    assert check.detail == f"xi flux {xi}, projected flux {om}, circulation-law {law}"
