"""The scripts under demos/ run to the end and print their numbers.

Each runs in its own interpreter, from an empty directory, against the
package under src/, as a user would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskvort.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]

# (script and arguments, one line it prints)
DEMOS = [
    (["decaying_turbulence.py", "--t-final", "0.2"], "slowest admissible rate nu*lambda_F = 1.4682"),
    (["decaying_turbulence.py", "--t-final", "0.2", "--csv", "rows.csv"], "diagnostics written to rows.csv"),
    (["annulus_circulation.py"], "circulation generator flux through the hole: -1.000000000000"),
    (["pressure_recovery.py"], " 0.250          7.247e-04"),
]


@pytest.mark.parametrize(
    "argv, line", DEMOS, ids=[argv[0].removesuffix(".py") + "-csv" * ("--csv" in argv) for argv, _ in DEMOS]
)
def test_demo_runs(tmp_path, argv, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
    if "--csv" in argv:
        # the demo's table has the columns of the trajectory ``ns`` writes
        (tmp_path / "run.ini").write_text("[domain]\nK = 1\nJ = 1\n[solver]\nnu = 0.1\nt_final = 0.002\n")
        assert dispatch(["ns", "--config", str(tmp_path / "run.ini"), "--outdir", str(tmp_path / "ns")]) == 0
        header = (tmp_path / "ns" / "trajectory.csv").read_text().splitlines()[0]
        assert (tmp_path / "rows.csv").read_text().splitlines()[0] == header
