"""Golden trajectories: two short nonlinear runs against stored numbers.

The fixture ``golden_trajectory.json`` was written by the solver as it
stood before the batched transform layer replaced the per-(k, parity)
transforms, and it is not regenerated by refactors.  A refactor that
keeps the numerics must reproduce it at the tolerances fixed below:

* relative 1e-10 on energy, enstrophy, palinstrophy, correction norm,
  and on the final coefficients (max-norm distance over max-norm);
* absolute 1e-13 on ``moment_drift``, which is roundoff (~1e-15), so
  only its size is part of the contract, not its digits.

Regenerate (only before a change meant to alter the numbers) with

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from diskvort.solver import RunConfig, run

FIXTURE = Path(__file__).with_name("golden_trajectory.json")
REL_TOL = 1e-10
DRIFT_ABS_TOL = 1e-13
ROW_FIELDS = ("t", "energy", "enstrophy", "palinstrophy_norm", "moment_drift", "correction_norm")

CONFIGS = {
    # the K=J=8 seed-2024 reference run of acceptance checks 6-7, 50 steps
    "reference-k8": RunConfig(
        nu=0.1, K=8, J=8, dt=1e-3, t_final=0.05, init_seed=2024, output_every=10
    ),
    # the two-mode run of acceptance check 10, 50 steps
    "two-mode-k4j12": RunConfig(
        nu=0.1, K=4, J=12, dt=0.002, t_final=0.1, output_every=1,
        init_modes=(((0, 1, "cos"), 0.4), ((2, 1, "cos"), 0.25)),
    ),
}


def trajectory_record(cfg: RunConfig) -> dict:
    traj = run(cfg)
    rows = [[getattr(r, name) for name in ROW_FIELDS] for r in traj.diagnostics]
    return {"rows": rows, "final": traj.states[-1].coeffs.tolist()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_trajectory(golden, name):
    want = golden[name]
    got = trajectory_record(CONFIGS[name])
    rows, ref_rows = np.array(got["rows"]), np.array(want["rows"])
    assert rows.shape == ref_rows.shape
    for col, field in enumerate(ROW_FIELDS):
        if field == "moment_drift":
            np.testing.assert_allclose(rows[:, col], ref_rows[:, col], rtol=0, atol=DRIFT_ABS_TOL)
        else:
            np.testing.assert_allclose(rows[:, col], ref_rows[:, col], rtol=REL_TOL, atol=0, err_msg=field)
    final, ref_final = np.array(got["final"]), np.array(want["final"])
    assert final.shape == ref_final.shape
    rel = np.max(np.abs(final - ref_final)) / np.max(np.abs(ref_final))
    assert rel <= REL_TOL, f"final coefficients differ by {rel:.2e} relative"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    record = {name: trajectory_record(cfg) for name, cfg in CONFIGS.items()}
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
