"""Golden verification numbers: log-kernel potentials and annulus moments.

The fixture ``golden_potentials.json`` was written by the verification
code as it stood before its log-kernel quadrature and its annulus
harmonic moments were each moved into one shared routine (a per-point
loop per caller, and full-grid basis tables with a loop over basis
pairs), and it is not regenerated by refactors.  A refactor that keeps
the numerics must reproduce it at the tolerances fixed below:

* absolute 1e-12 of max|interior Newtonian value| on every potential:
  check 3's Newtonian values inside and outside the disk and Green's
  values inside, plus both kernels at three points next to quadrature
  nodes; the ``near_node`` flags must match exactly;
* absolute 1e-12 on the fields of the ``BoundaryReport`` of
  ``tests/test_annulus.py``'s projected bump at 400x512 (degree 4);
  these three values alone were rebased when the report moved from
  sampled log rows, whose angular rule read 6.1e-6 on the outer circle,
  to the kernel's angular Fourier series, which reads rounding;
* relative 1e-12 in the max norm on the ``bergman_project``
  coefficients (the negated rows, in the order of
  ``harmonic_oracle.basis_terms``), at degree 4 for that bump and at
  degree 8 through ``omega_big`` at R = 0.5, and relative 1e-10 on their
  Gram condition numbers;
* relative 1e-12 in the max norm on the ``q1_dirichlet_split`` inner
  constant and harmonic extension coefficients of a fixed field with
  cosine and sine content (degree 8).

Regenerate (only before a change meant to alter the numbers) with

    PYTHONPATH=src python3 tests/test_golden_potentials.py --write KEY...

to rewrite only the named top-level keys (say ``bump_report``) and keep
every other byte of the file: use it when a change moves one quantity
on purpose.  A bare ``--write`` rewrites every key, which also takes in
the ulp-level drift that refactors since the fixture was written have
left inside its tolerances; use it only when every quantity is meant to
move.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from diskvort.acceptance import SEED_FIELDS, _random_admissible, _table88
from diskvort.annulus import (
    AnnulusGeometry,
    bergman_project,
    newtonian_bs_annulus,
    omega_big,
    q1_dirichlet_split,
    xi_circulation,
)
from diskvort.fields import PolarGrid, greens_potential, newtonian_potential, to_grid

from harmonic_oracle import basis_terms, rows_in_term_order
from test_annulus import R, j_bump

FIXTURE = Path(__file__).with_name("golden_potentials.json")
POTENTIAL_TOL = 1e-12  # of max|interior Newtonian value|
REPORT_TOL = 1e-12
COEFF_RTOL = 1e-12
COND_RTOL = 1e-10
Q1_DEGREE = 8


def _check3_grid_field():
    omega = _random_admissible(_table88(), SEED_FIELDS)
    grid = PolarGrid(omega.table, n_radial=260, n_angular=320)
    return grid, to_grid(omega, grid)


def _check3_points(grid):
    """The interior and exterior points of acceptance check 3."""
    mids = 0.5 * (grid.r[:-1] + grid.r[1:])
    radii = np.array([mids[np.argmin(np.abs(mids - t))] for t in np.linspace(0.12, 0.86, 8)])
    angles = np.array([0.3, 2.1, 4.4])
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    interior = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)
    rr, aa = np.meshgrid(np.array([1.15, 1.4, 1.9]), angles, indexing="ij")
    exterior = np.stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()], axis=1)
    return interior, exterior


def _near_points(grid):
    """A quadrature node, a point a fifth of a radial gap off one, the origin."""
    node = [grid.r[100] * np.cos(grid.theta[7]), grid.r[100] * np.sin(grid.theta[7])]
    gap = grid.r[181] - grid.r[180]
    off = [(grid.r[180] + 0.2 * gap) * np.cos(grid.theta[41]),
           (grid.r[180] + 0.2 * gap) * np.sin(grid.theta[41])]
    return np.array([node, off, [0.0, 0.0]])


def mixed_field(r, theta, what="value"):
    """Annulus field with cosine and sine content up to k = 3."""
    if what != "value":
        raise ValueError(what)
    s = (r - R) / (1 - R)
    return (
        0.7 + 0.5 * s + np.sin(np.pi * s) * np.cos(theta)
        - 0.4 * s**2 * np.sin(2 * theta)
        + 0.3 * (1 + s) * np.cos(3 * theta)
        + 0.2 * r * np.sin(3 * theta)
    )


def _extension_array(split):
    """(degree+1, 2, 2): (c_plus, c_minus) per wavenumber and parity, the
    coefficients of r^k and r^-k; ``basis_terms`` holds their scales."""
    out = np.zeros((Q1_DEGREE + 1, 2, 2))
    for c, (k, parity, expo, scale) in zip(rows_in_term_order(split.rows), basis_terms(R, Q1_DEGREE)):
        out[k, int(parity == "sin"), int(expo < 0)] = c * scale
    return out


def _coeffs(proj):
    """The projection's coefficients in the fixture's order and sign: the
    removed component, in the order of ``basis_terms``."""
    return -rows_in_term_order(proj.rows)


def potentials_record() -> dict:
    grid, gf = _check3_grid_field()
    interior, exterior = _check3_points(grid)
    near = _near_points(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runs = {
            "newtonian_in": newtonian_potential(gf, interior),
            "newtonian_out": newtonian_potential(gf, exterior),
            "greens_in": greens_potential(gf, interior),
            "newtonian_near": newtonian_potential(gf, near),
            "greens_near": greens_potential(gf, near),
        }
    record = {"interior": interior.tolist(), "exterior": exterior.tolist(), "near": near.tolist()}
    for key, res in runs.items():
        record[key] = {"values": res.values.tolist(), "near_node": res.near_node.tolist()}

    geo = AnnulusGeometry(R, n_radial=400, n_angular=512)
    proj = bergman_project(geo, j_bump, degree=4)
    rep = newtonian_bs_annulus(geo, proj, degree=4)
    record["bump_report"] = {
        "outer_max": rep.outer_max, "inner_stddev": rep.inner_stddev, "normal_max": rep.normal_max,
    }
    record["bump_projection"] = {"coeffs": _coeffs(proj).tolist(), "condition": proj.condition}

    geom = AnnulusGeometry(R)
    om = omega_big(geom, xi_circulation(geom), degree=8)
    record["omega_big"] = {"coeffs": _coeffs(om).tolist(), "condition": om.condition}

    split = q1_dirichlet_split(geom, mixed_field, degree=Q1_DEGREE)
    record["q1_split"] = {
        "inner_constant": split.inner_constant,
        "extension": _extension_array(split).tolist(),
    }
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def grid_field():
    return _check3_grid_field()


def test_points_are_check3_inputs(golden, grid_field):
    interior, exterior = _check3_points(grid_field[0])
    np.testing.assert_array_equal(interior, golden["interior"])
    np.testing.assert_array_equal(exterior, golden["exterior"])


@pytest.mark.parametrize(
    "key, route, points",
    [
        ("newtonian_in", newtonian_potential, "interior"),
        ("newtonian_out", newtonian_potential, "exterior"),
        ("greens_in", greens_potential, "interior"),
        ("newtonian_near", newtonian_potential, "near"),
        ("greens_near", greens_potential, "near"),
    ],
)
def test_potentials(golden, grid_field, key, route, points):
    pts = np.array(golden[points])
    want = golden[key]
    if any(want["near_node"]):
        with pytest.warns(UserWarning, match="half a radial cell"):
            res = route(grid_field[1], pts)
    else:
        res = route(grid_field[1], pts)
    scale = np.max(np.abs(golden["newtonian_in"]["values"]))
    err = np.max(np.abs(res.values - np.array(want["values"])))
    assert err <= POTENTIAL_TOL * scale, f"{key} differs by {err / scale:.2e} of the scale"
    np.testing.assert_array_equal(res.near_node, want["near_node"])


@pytest.fixture(scope="module")
def bump():
    geo = AnnulusGeometry(R, n_radial=400, n_angular=512)
    proj = bergman_project(geo, j_bump, degree=4)
    return proj, newtonian_bs_annulus(geo, proj, degree=4)


def test_bump_report(golden, bump):
    rep = bump[1]
    for name, want in golden["bump_report"].items():
        assert abs(getattr(rep, name) - want) <= REPORT_TOL, f"{name}: {getattr(rep, name)!r} vs {want!r}"


def _assert_projection(proj, want):
    coeffs = np.array(want["coeffs"])
    err = np.max(np.abs(_coeffs(proj) - coeffs)) / np.max(np.abs(coeffs))
    assert err <= COEFF_RTOL, f"coefficients differ by {err:.2e} relative"
    assert abs(proj.condition - want["condition"]) <= COND_RTOL * want["condition"]


def test_bump_projection(golden, bump):
    _assert_projection(bump[0], golden["bump_projection"])


def test_omega_big_projection(golden):
    geom = AnnulusGeometry(R)
    _assert_projection(omega_big(geom, xi_circulation(geom), degree=8), golden["omega_big"])


def test_q1_split(golden):
    split = q1_dirichlet_split(AnnulusGeometry(R), mixed_field, degree=Q1_DEGREE)
    want = golden["q1_split"]
    got = np.r_[split.inner_constant, _extension_array(split).ravel()]
    ref = np.r_[want["inner_constant"], np.ravel(want["extension"])]
    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert err <= COEFF_RTOL, f"split differs by {err:.2e} relative"


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit(__doc__)
    record, keys = potentials_record(), sys.argv[2:]
    if keys:
        unknown = sorted(set(keys) - record.keys())
        if unknown:
            sys.exit(f"no such key: {', '.join(unknown)}; keys are {', '.join(record)}")
        record = json.loads(FIXTURE.read_text()) | {key: record[key] for key in keys}
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
