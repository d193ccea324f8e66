"""Golden pressure numbers: check 10's runs against stored values.

The fixture ``golden_pressure.json`` was written by the pressure code as
it stood before it moved onto the shared Bessel-Fourier layer (one
``radial_profiles`` function, the table's block layout, banded radial
solves), and it is not regenerated by refactors.  A refactor that keeps
the numerics must reproduce it at the tolerances fixed below:

* relative 1e-10 on the momentum residuals of check 10's two-mode run
  (K=4, J=12, dt=2e-3) at t=0.25, with 128 and 256 auxiliary elements;
* absolute 1e-10 of max|p| on the recovered pressure of that run's
  state at t=0.3, sampled on the run's grid;
* absolute 1e-10 of max|T| on the nodal values T of the radial mode of
  Phi[u] for the circular mode (0, 1, cos), 256 elements.

Regenerate (only before a change meant to alter the numbers) with

    PYTHONPATH=src python3 tests/test_golden_pressure.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from diskvort.fields import SpectralField
from diskvort.pressure import _phi_tables, momentum_residual, recover_pressure
from diskvort.solver import RunConfig, prepare, run
from diskvort.spectrum import ModeIndex, build_table

FIXTURE = Path(__file__).with_name("golden_pressure.json")
REL_TOL = 1e-10
N_AUX = (128, 256)
RESIDUAL_T = 0.25

# check 10's two-mode run, cut at t=0.3
TWO_MODE = RunConfig(
    nu=0.1, K=4, J=12, dt=0.002, t_final=0.3, output_every=1,
    init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)),
)


def pressure_record() -> dict:
    ctx = prepare(TWO_MODE)
    traj = run(TWO_MODE, ctx)
    index = int(np.argmin(np.abs(traj.times - RESIDUAL_T)))
    residuals = {
        str(n): momentum_residual(traj, index, TWO_MODE.nu, ctx.grid, n_aux=n) for n in N_AUX
    }
    p = recover_pressure(traj.states[-1], TWO_MODE.nu, ctx.grid)
    circular = SpectralField.from_mode(build_table(0, 1), ModeIndex(0, 1, "cos"))
    _, T = _phi_tables(circular, 256)
    return {
        "residual_t": float(traj.times[index]),
        "residuals": residuals,
        "pressure": p.values.tolist(),
        "circular_Tc0": T[0, 0].tolist(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def record():
    return pressure_record()


def test_residual_time(golden, record):
    assert record["residual_t"] == pytest.approx(golden["residual_t"], rel=1e-14)


@pytest.mark.parametrize("n_aux", N_AUX)
def test_momentum_residual(golden, record, n_aux):
    got, want = record["residuals"][str(n_aux)], golden["residuals"][str(n_aux)]
    assert abs(got - want) <= REL_TOL * abs(want), f"{got!r} vs {want!r}"


@pytest.mark.parametrize("key", ["pressure", "circular_Tc0"])
def test_samples(golden, record, key):
    got, want = np.array(record[key]), np.array(golden[key])
    assert got.shape == want.shape
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= REL_TOL, f"{key} differs by {err:.2e} of its max"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(json.dumps(pressure_record(), indent=1) + "\n")
