"""Golden numbers of the annulus's two dense solvers.

The fixture ``golden_annulus.json`` was written by ``annulus.py`` as it
stood before its Legendre table was built from one coefficient matrix
(it evaluated one ``Legendre.basis`` object per degree and kept the wall
values in a dict keyed by wall and order), and it is not regenerated by
refactors.  A refactor that keeps the numerics must reproduce it at the
one tolerance fixed below, relative 1e-12 in the max norm:

* ``galerkin_spectra`` at n_poly = 24, k_max = 4 and R in {0.05, 0.5,
  0.95}: every per-mode S, V and Z eigenvalue list, each against its
  own largest value;
* ``annulus_stokes_circulation`` at R = 0.5, nu = 0.1, t_final = 2,
  n_out = 40 (degree 28) for gamma0 = 1, and for gamma0 = 0 with
  the regular vorticity of the velocity sin^2(pi (r - R) / (1 - R)):
  Gamma and the flux against the largest of either in that run, and
  ``lamb_residual`` against itself.  That velocity vanishes at both
  walls, so the pinned state keeps it and the flux stays O(1); the
  flux of a profile the walls cut off is rounding noise after t = 0.

Both records are taken on the routes the fixture was written on, which
the module's fixture pins for every test:

* the Gauss-Legendre rule, numpy's ``leggauss``, put under
  ``specfun.gauss_legendre`` by ``legendre_oracle.numpy_rule_pinned``.
  The package's own rule moves the spectra by up to 2.4e-11 and the flux
  by up to 1e-10 of their scales; the spectra of an exact rule rounded
  to doubles sit as far from either;
* the Legendre table of one ``Legendre`` object per degree,
  ``legendre_oracle.legendre_tables``, under
  ``annulus._legendre_tables`` (the package builds it by recurrence);
* the circulation run's matrix-exponential stepping,
  ``propagator_oracle.expm_readout``, under ``annulus._modal_readout``
  (the package runs in the pencil's eigenbasis).

Unpinned, the package's two routes move the spectra by up to 2.6e-11
of each mode's largest eigenvalue and the gamma0 = 1 flux by up to
2.9e-10 of the run's scale; ``test_annulus`` holds each route against
its oracle at bounds of its own.

Regenerate (only before a change meant to alter the numbers) with

    PYTHONPATH=src python3 tests/test_golden_annulus.py --write
"""

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from diskvort import annulus
from diskvort.annulus import AnnulusGeometry, annulus_stokes_circulation, galerkin_spectra

from legendre_oracle import legendre_tables, numpy_rule_pinned
from propagator_oracle import expm_readout

FIXTURE = Path(__file__).with_name("golden_annulus.json")
RTOL = 1e-12
SPECTRA_RADII = (0.05, 0.5, 0.95)
SPECTRA_SIZES = {"n_poly": 24, "k_max": 4}
CIRC_R = 0.5
CIRC_ARGS = {"nu": 0.1, "t_final": 2.0, "n_out": 40}


def wall_free_vorticity(r, theta, what="value"):
    """omega = u' + u / r of u = sin^2(pi s), s = (r - R) / (1 - R)."""
    if what != "value":
        raise ValueError(what)
    s = (r - CIRC_R) / (1 - CIRC_R)
    u = np.sin(np.pi * s) ** 2
    return np.pi / (1 - CIRC_R) * np.sin(2 * np.pi * s) + u / r + 0 * theta


RUNS = {
    "gamma0=1": {"gamma0": 1.0},
    "gamma0=0": {"gamma0": 0.0, "omega0": wall_free_vorticity},
}


def _spectra(r_inner):
    res = galerkin_spectra(AnnulusGeometry(r_inner), **SPECTRA_SIZES)
    return {
        kind: [getattr(res, f"per_mode_{kind}")[k].tolist() for k in range(SPECTRA_SIZES["k_max"] + 1)]
        for kind in "SVZ"
    }


def _run(name):
    run = annulus_stokes_circulation(AnnulusGeometry(CIRC_R), **RUNS[name], **CIRC_ARGS)
    return {"gamma": run.gamma.tolist(), "flux": run.flux.tolist(), "lamb_residual": run.lamb_residual}


def annulus_record() -> dict:
    return {
        "spectra": {str(r): _spectra(r) for r in SPECTRA_RADII},
        "circulation": {name: _run(name) for name in RUNS},
    }


@contextmanager
def fixture_routes_pinned():
    with numpy_rule_pinned(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(annulus, "_legendre_tables", legendre_tables)
        patch.setattr(annulus, "_modal_readout", expm_readout)
        yield


@pytest.fixture(scope="module", autouse=True)
def fixture_routes():
    with fixture_routes_pinned():
        yield


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def _assert_close(got, want, scale, what):
    err = np.max(np.abs(np.asarray(got) - np.asarray(want)))
    assert err <= RTOL * scale, f"{what} differs by {err / scale:.2e} relative"


@pytest.mark.parametrize("r_inner", SPECTRA_RADII)
def test_spectra(golden, r_inner):
    got = _spectra(r_inner)
    for kind, modes in golden["spectra"][str(r_inner)].items():
        for k, want in enumerate(modes):
            assert len(got[kind][k]) == len(want), f"{kind} mode {k}: eigenvalue count"
            _assert_close(got[kind][k], want, np.max(np.abs(want)), f"{kind} mode {k}")


@pytest.mark.parametrize("name", list(RUNS))
def test_circulation(golden, name):
    got, want = _run(name), golden["circulation"][name]
    scale = max(np.max(np.abs(want["gamma"])), np.max(np.abs(want["flux"])))
    for key in ("gamma", "flux"):
        _assert_close(got[key], want[key], scale, key)
    _assert_close(got["lamb_residual"], want["lamb_residual"], want["lamb_residual"], "lamb_residual")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with fixture_routes_pinned():
        FIXTURE.write_text(json.dumps(annulus_record(), indent=1) + "\n")
