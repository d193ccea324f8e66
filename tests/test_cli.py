"""Config loading, dispatch exit codes, and artifact contracts."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvort import cli
from diskvort.cli import ConfigError, dispatch


MINIMAL = "[solver]\nnu = 0.25\n"

SMALL_RUN = """\
[domain]
K = 2
J = 2

[solver]
nu = 0.1
dt = 0.005
t_final = 0.05

[init]
kind = random
seed = 42

[output]
every = 2
"""


PRESSURE_RUN = (
    "[domain]\nK = 2\nJ = 4\n[solver]\nnu = 0.1\ndt = 0.005\nt_final = 0.05\n"
    "[init]\nmodes = 0 1 cos 0.4 ; 2 1 cos 0.25\n[output]\nevery = 1\n"
)


def load_config(path, subcommand="ns"):
    """Parse, default and validate a config file into a RunConfig, as
    the run subcommands do."""
    return cli._load_run(path, subcommand)[1]


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def outdir_files(outdir):
    found = []
    for root, _, names in os.walk(outdir):
        for n in names:
            full = os.path.join(root, n)
            found.append(os.path.relpath(full, outdir))
    return set(found)


class TestLoadConfig:
    def test_minimal_config_applies_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.nu == 0.25
        assert (cfg.K, cfg.J) == (8, 8)
        assert cfg.dt == 1e-3 and cfg.t_final == 1.0
        assert cfg.init_modes == (((0, 1, "cos"), 1.0),)
        assert cfg.init_seed is None
        assert cfg.output_every == 10

    def test_negative_nu_named(self, tmp_path):
        path = write(tmp_path, "[solver]\nnu = -1\n")
        with pytest.raises(ConfigError, match="nu must be > 0"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path, "[solver]\nnu = 0.1\nviscosity = 2\n[extra]\nx = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        text = str(exc.value)
        assert "unknown key 'viscosity' in [solver]" in text
        assert "unknown section [extra]" in text

    def test_parse_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, "nu = 0.1\n[solver]\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_range_violations_reported_together(self, tmp_path):
        path = write(
            tmp_path,
            "[solver]\nnu = -2\ndt = -0.1\n[output]\nevery = 0\n",
        )
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert len(exc.value.problems) >= 2

    def test_seed_mandatory_for_random(self, tmp_path):
        path = write(tmp_path, "[solver]\nnu = 0.1\n[init]\nkind = random\n")
        with pytest.raises(ConfigError, match="seed is mandatory"):
            load_config(path)

    def test_seed_rejected_for_mode_init(self, tmp_path):
        path = write(tmp_path, "[solver]\nnu = 0.1\n[init]\nseed = 3\n")
        with pytest.raises(ConfigError, match="only meaningful"):
            load_config(path)

    def test_malformed_modes(self, tmp_path):
        path = write(tmp_path, "[solver]\nnu = 0.1\n[init]\nmodes = 0 1 cos\n")
        with pytest.raises(ConfigError, match="k j parity amplitude"):
            load_config(path)
        path = write(tmp_path, "[solver]\nnu = 0.1\n[init]\nmodes = 0 1 up 1.0\n")
        with pytest.raises(ConfigError, match="parity"):
            load_config(path)

    def test_empty_mode_entries_are_skipped(self, tmp_path):
        path = write(tmp_path, "[solver]\nnu = 0.1\n[init]\nmodes = 0 1 cos 0.4 ; ; 2 1 sin 0.25 ;\n")
        assert load_config(path).init_modes == (((0, 1, "cos"), 0.4), ((2, 1, "sin"), 0.25))

    def test_cfl_violation_rejected_before_stepping(self, tmp_path):
        path = write(
            tmp_path,
            "[domain]\nK = 4\nJ = 8\n[solver]\nnu = 0.1\ndt = 0.05\nt_final = 0.2\n"
            "[init]\nmodes = 4 8 cos 40.0\n",
        )
        with pytest.raises(ConfigError, match="stability bound"):
            load_config(path)
        # the same data passes at a small enough step
        ok = write(
            tmp_path,
            "[domain]\nK = 4\nJ = 8\n[solver]\nnu = 0.1\ndt = 0.001\nt_final = 0.2\n"
            "[init]\nmodes = 4 8 cos 40.0\n",
            name="ok.ini",
        )
        assert load_config(ok).dt == 0.001

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")


@pytest.mark.parametrize(
    "text, problems",
    [
        pytest.param(
            "[init]\nkind = bogus\nseed = 3\nmodes = 0 1\n[output]\nsnapshot_every = -1\nevery = 0\n",
            [
                "[solver] nu is required",
                "[init] kind must be 'modes' or 'random', got 'bogus'",
                "[init] seed is only meaningful when kind = random",
                "[init] modes: entry '0 1' must be 'k j parity amplitude'",
                "[output] snapshot_every must be >= 0, got -1",
                "output_every must be an integer >= 1, got 0",
            ],
            id="init-and-output",
        ),
        pytest.param(
            "[solver]\nnu = 0.1\n[init]\nkind = random\n",
            ["[init] seed is mandatory when kind = random"],
            id="random-without-seed",
        ),
        pytest.param(
            "[solver]\nnu = -1\ndt = -0.1\n[init]\nseed = 3\nmodes = 0 1 up 1.0\n",
            [
                "[init] seed is only meaningful when kind = random",
                "[init] modes: entry '0 1 up 1.0': parity must be cos or sin",
                "nu must be > 0, got -1.0",
                "dt must be > 0, got -0.1",
            ],
            id="seed-parity-nu-dt",
        ),
        pytest.param(
            "[solver]\nnu = 0.1\n[init]\nmodes = 0 x cos 1.0\n",
            ["[init] modes: entry '0 x cos 1.0' has non-numeric k, j, or amplitude"],
            id="non-numeric-mode",
        ),
        pytest.param(
            "[domain]\nK = 0\nJ = 1\n[solver]\nnu = 0.1\n[init]\nmodes = 0 x cos 1.0\n",
            ["[init] modes: entry '0 x cos 1.0' has non-numeric k, j, or amplitude"],
            id="non-numeric-mode-on-the-smallest-table",
        ),
        pytest.param(
            "[solver]\nnu = 0.1\n[init]\nmodes = ;\n",
            ["[init] modes: no mode entries given"],
            id="no-mode-entries",
        ),
        pytest.param(
            "[solver]\nnu = 0.1\n[init]\nmodes = 2 1 cos 1.0 ; 2 1 cos 2.0 ; 9 1 sin 1.0\n",
            ["init mode (2,1,cos) given twice", "init mode (9,1,sin) outside table K=8 J=8"],
            id="repeated-and-outside-modes",
        ),
        pytest.param(
            "[solver]\nnu = 0.1\nviscosity = 2\n[extra]\nx = 1\n",
            ["unknown section [extra]", "unknown key 'viscosity' in [solver]"],
            id="unknown-section-and-key",
        ),
        pytest.param(
            "[domain]\nK = 2.5\n[solver]\nnu = abc\n",
            ["[domain] K: cannot parse '2.5' as int", "[solver] nu: cannot parse 'abc' as float"],
            id="unparsable-values",
        ),
        pytest.param(
            "[domain]\nK = 8\nJ = 4\nn_angular = 10\nn_radial = 3\n[solver]\nnu = 0.1\n",
            ["angular count 10 under aliasing floor 25 for K=8", "radial count 3 too small for J=4"],
            id="grid-counts",
        ),
        pytest.param(
            "[domain]\nK = 8\nJ = 4\nn_angular = 10\nn_radial = 3\n",
            [
                "[solver] nu is required",
                "angular count 10 under aliasing floor 25 for K=8",
                "radial count 3 too small for J=4",
            ],
            id="grid-counts-without-nu",
        ),
        pytest.param(
            "[domain]\nK = 64\nJ = 0\n[solver]\nnu = 0.1\n",
            [
                "K must be an integer in [0, 63], got 64",
                "J must be an integer >= 1, got 0",
                "init mode (0,1,cos) outside table K=64 J=0",
            ],
            id="table-size",
        ),
        pytest.param(
            "[solver]\nnu = inf\ndt = inf\nt_final = inf\ncfl = 0\n",
            [
                "nu must be finite, got inf",
                "dt must be finite, got inf",
                "t_final must be finite, got inf",
                "cfl must be > 0, got 0.0",
            ],
            id="infinite-and-zero-cfl",
        ),
        pytest.param(
            "[domain]\nK = 4\nJ = 8\n[solver]\nnu = 0.1\ndt = 0.05\nt_final = 0.2\n"
            "[init]\nmodes = 4 8 cos 40.0\n",
            [
                "[solver] dt = 0.05 violates the advective stability bound dt <= 7.601e-03 "
                "for this init (|u|_max = 2.07, sqrt(lambda_max) = 31.8)"
            ],
            id="cfl-bound",
        ),
    ],
)
def test_config_report_is_whole_and_ordered(tmp_path, text, problems):
    # every problem of a config, in the order the loader finds them
    with pytest.raises(ConfigError) as exc:
        load_config(write(tmp_path, text))
    assert exc.value.problems == problems


def test_schema_defaults_are_the_run_config_defaults():
    # cli must not import numpy before the thread count is set, so its
    # schema repeats two RunConfig defaults instead of reading them
    from diskvort.solver import RunConfig

    probe = "import sys, diskvort.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"
    assert cli._SCHEMA["solver"]["cfl"][1] == RunConfig.cfl
    assert cli._SCHEMA["output"]["every"][1] == RunConfig.output_every


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["spectrum", "--nope"]) == 2

    def test_help_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "spectrum" in capsys.readouterr().out

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "[solver]\nnu = -1\n")
        code = dispatch(["ns", "--config", str(path), "--outdir", str(tmp_path / "o")])
        assert code == 2
        assert "nu must be > 0" in capsys.readouterr().err

    def test_thread_flag_sets_environment(self, tmp_path, monkeypatch, capsys):
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            monkeypatch.setenv(var, "sentinel")
        for n in ("2", "1"):
            code = dispatch(
                ["--threads", n, "spectrum", "--K", "0", "--J", "1", "--outdir", str(tmp_path)]
            )
            assert code == 0
            assert os.environ["OMP_NUM_THREADS"] == n
            assert os.environ["OPENBLAS_NUM_THREADS"] == n


class TestSpectrumCommand:
    def test_json_table_and_pin(self, tmp_path, capsys):
        code = dispatch(["spectrum", "--K", "4", "--J", "4", "--outdir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["modes"]) >= 24
        smallest = min(m["lambda"] for m in payload["modes"])
        assert abs(smallest - 14.6819706) / 14.6819706 <= 1e-6
        on_disk = json.loads((tmp_path / "eigenvalues.json").read_text())
        assert on_disk == payload


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--K", "64"], "--K: K must be an integer in [0, 63], got 64"),
        (["spectrum", "--K", "70"], "--K: K must be an integer in [0, 63], got 70"),
        (["spectrum", "--K", "-1"], "--K: K must be an integer in [0, 63], got -1"),
        (["pressure", "--n-aux", "0"], "--n-aux must be at least 1, got 0"),
        (["pressure", "--n-aux", "-3"], "--n-aux must be at least 1, got -3"),
        (["annulus-verify", "--n-poly", "3"], "--n-poly must be at least 6, got 3"),
        (["annulus-verify", "--k-max", "2"], "--k-max must be at least 3, got 2"),
        (["annulus-verify", "--r-inner", "0.99"], "--r-inner: inner radius must lie in"),
        (["annulus-verify", "--nu", "-1"], "--nu must be positive and finite, got -1.0"),
        (["annulus-verify", "--t-final", "0"], "--t-final must be positive and finite, got 0.0"),
        (["annulus-verify", "--nu", "inf"], "--nu must be positive and finite, got inf"),
        (["annulus-verify", "--t-final", "inf"], "--t-final must be positive and finite, got inf"),
        (["accept", "--only", "abc"], "--only expects numbers, got 'abc'"),
        (["accept", "--only", "0,13"], "--only: criteria are numbered 1..12, got '0,13'"),
        (["--threads", "0", "spectrum"], "thread count must be a positive integer, got 0"),
        (["DISKVORT_THREADS=abc", "spectrum"], "thread count must be a positive integer, got 'abc'"),
        (["spectrum", "--J", "0"], "--J: J must be an integer >= 1, got 0"),
    ],
)
def test_bad_flag_rejected_before_the_run(tmp_path, capsys, monkeypatch, argv, message):
    # the flag is checked before the manifest is written, not by a
    # traceback (or numpy's message) after the solve; leading NAME=value
    # words set the environment, as on a shell command line
    while "=" in argv[0]:
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    out = tmp_path / "out"
    if argv[0] == "pressure":
        argv = argv + ["--config", str(write(tmp_path, PRESSURE_RUN))]
    assert dispatch(argv + ["--outdir", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--K", "2", "--J", "2"],
        ["ns", "--config"],
        ["stokes", "--config"],
        ["pressure", "--config"],
        ["biot-savart-check"],
        ["annulus-verify"],
        ["accept", "--only", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_subcommand_completes_its_manifest(tmp_path, capsys, argv):
    if argv[-1] == "--config":
        argv = argv + [str(write(tmp_path, PRESSURE_RUN))]
    out = tmp_path / "out"
    t0 = time.monotonic()
    assert dispatch(argv + ["--outdir", str(out)]) == 0
    elapsed = time.monotonic() - t0
    text = (out / "manifest.json").read_text()
    man = json.loads(text)
    assert text.splitlines()[1].startswith('  "config_path"')  # indented by two, keys sorted
    assert man["subcommand"] == argv[0]
    assert man["status"] == "completed" and man["failure"] is None
    assert 0 < man["wall_clock_s"] <= elapsed
    assert man["files"] == sorted(outdir_files(out) - {"manifest.json"})


def test_annulus_verify_records_every_flag(tmp_path, capsys):
    flags = {"r_inner": 0.4, "n_poly": 20, "k_max": 3, "nu": 0.2, "t_final": 1.0}
    argv = [f"--{name.replace('_', '-')}={value}" for name, value in flags.items()]
    assert dispatch(["annulus-verify", *argv, "--outdir", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["parameters"] == flags


@pytest.mark.parametrize("subcommand", ["ns", "stokes", "pressure"])
@pytest.mark.parametrize(
    "domain, message",
    [
        ("K = 64\n", "K must be an integer in [0, 63], got 64"),
        ("K = 8\nn_angular = 10\n", "angular count 10 under aliasing floor 25 for K=8"),
    ],
    ids=["K-past-the-zero-table", "angular-count-under-floor"],
)
def test_bad_domain_rejected_before_the_run(tmp_path, capsys, subcommand, domain, message):
    # the grid and table are built before the manifest is written, so a
    # domain they refuse is a config error, not a "running" manifest
    cfg = write(tmp_path, "[domain]\n" + domain + "J = 2\n[solver]\nnu = 0.1\ndt = 0.01\nt_final = 0.02\n")
    out = tmp_path / "out"
    assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["ns", "stokes"])
@pytest.mark.parametrize(
    "solver, message",
    [
        ("t_final = inf\n", "t_final must be finite, got inf"),
        ("nu = inf\n", "nu must be finite, got inf"),
        ("dt = inf\n", "dt must be finite, got inf"),
        ("dt = 1e10\nt_final = 1\n", "t_final=1.0 is shorter than one step of dt=10000000000.0"),
        ("dt = 1e-3\nt_final = 1e-12\n", "t_final=1e-12 is shorter than one step of dt=0.001"),
        ("[init]\nmodes = 0 1 cos inf\n", "init mode (0,1,cos) has coefficient inf, not finite"),
        ("[init]\nkind = random\nseed = 1\nmodes = 2 1 cos 5.0\n", "[init] modes is only meaningful when kind = modes"),
        ("[init]\nkind = random\nseed = -1\n", "init_seed must be an integer >= 0, got -1"),
    ],
    ids=["t_final-inf", "nu-inf", "dt-inf", "dt-past-t_final", "t_final-under-dt", "coefficient-inf",
         "modes-under-random", "negative-seed"],
)
def test_unrunnable_config_rejected_before_the_run(tmp_path, capsys, subcommand, solver, message):
    # t_final = inf used to end in an OverflowError traceback with no
    # manifest, and so did a negative seed, in numpy's generator; the
    # other cases ran, the zero-step ones to "completed" at t = 0, and
    # the random init with the modes it ignored echoed in the manifest
    if "nu" not in solver:
        solver = "nu = 0.1\n" + solver
    cfg = write(tmp_path, "[domain]\nK = 2\nJ = 2\n[solver]\n" + solver)
    out = tmp_path / "out"
    assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["ns", "stokes", "pressure"])
def test_nu_whose_elliptic_map_overflows_is_a_config_error(tmp_path, capsys, subcommand):
    # E/nu overflows at nu = 5e-324: ns used to print numpy's "invalid
    # value" warning and abort with a NonFiniteState row that did not
    # name nu (exit 4); stokes, which never reads omega_B, completed
    cfg = write(tmp_path, PRESSURE_RUN.replace("nu = 0.1", "nu = 5e-324"))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(out)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.splitlines() == [
        "config error: [solver] nu = 5e-324 is too small: the elliptic correction E/nu overflows"
    ]
    assert not out.exists()


def test_short_pressure_run_reported_with_the_other_problems(tmp_path, capsys):
    # one report holds the row count beside the loader's own problems
    cfg = write(tmp_path, PRESSURE_RUN.replace("t_final = 0.05", "t_final = 0.005") + "snapshot_every = -1\n")
    out = tmp_path / "out"
    assert dispatch(["pressure", "--config", str(cfg), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: [output] snapshot_every must be >= 0, got -1",
        "config error: pressure needs at least 3 output rows to center a time derivative",
    ]
    assert not (out / "manifest.json").exists()


def test_pressure_run_of_three_rows_and_one_aux_element(tmp_path, capsys):
    cfg = write(tmp_path, PRESSURE_RUN.replace("t_final = 0.05", "t_final = 0.01"))
    out = tmp_path / "out"
    assert dispatch(["pressure", "--config", str(cfg), "--n-aux", "1", "--outdir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["n_aux"], report["residual_time"], report["pressure_time"]) == (1, 0.005, 0.01)


@pytest.mark.parametrize("subcommand", ["biot-savart-check", "annulus-verify", "accept"])
def test_a_failed_check_exits_3(tmp_path, monkeypatch, capsys, subcommand):
    from diskvort import acceptance

    results = [acceptance.CheckResult(3, "newtonian-agreement", True, "fine", 0.0),
               acceptance.CheckResult(4, "green-equivalence", False, "off", 0.0)]
    monkeypatch.setattr(acceptance, "run_all", lambda numbers=None, stream=None: results)
    circulation = type("Run", (), {"to_csv": lambda self, path: Path(path).write_text("")})()
    rows = [("xi-flux", True, "fine"), ("zeta-routes", False, "off")]
    monkeypatch.setattr(acceptance, "annulus_rows", lambda *args: (rows, circulation))
    assert dispatch([subcommand, "--outdir", str(tmp_path)]) == 3
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == {"accept": "1/2 criteria passed", "annulus-verify": "FAIL zeta-routes: off"}.get(
        subcommand, "FAIL green-equivalence: off"
    )


def test_spectrum_defaults_to_the_reference_table(tmp_path, capsys):
    assert dispatch(["spectrum", "--outdir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "eigenvalues.json").read_text())
    assert (payload["K"], payload["J"], len(payload["modes"])) == (8, 8, 17 * 8)


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # only config and flag errors exit 2; a ValueError from inside the
    # run propagates and leaves the manifest "running"
    import diskvort.solver

    step = diskvort.solver.step

    def boom(state, cfg, ctx=None):
        if state.steps == 3:
            raise ValueError("induced internal failure")
        return step(state, cfg, ctx)

    monkeypatch.setattr(diskvort.solver, "step", boom)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="induced internal failure"):
        dispatch(["ns", "--config", str(write(tmp_path, PRESSURE_RUN)), "--outdir", str(out)])
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "running"


class TestRunArtifacts:
    def test_manifest_lifecycle_and_no_orphans(self, tmp_path):
        cfg = write(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        assert dispatch(["ns", "--config", str(cfg), "--outdir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "completed"
        assert man["subcommand"] == "ns"
        assert man["seed"] == 42
        assert man["wall_clock_s"] > 0
        # defaults echoed alongside explicit values
        assert man["parameters"]["solver"]["cfl"] == 0.5
        assert man["parameters"]["output"]["every"] == 2
        assert outdir_files(out) == set(man["files"]) | {"manifest.json"}

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        cfg = write(tmp_path, SMALL_RUN)
        a, b = tmp_path / "a", tmp_path / "b"
        assert dispatch(["ns", "--config", str(cfg), "--outdir", str(a)]) == 0
        assert dispatch(["ns", "--config", str(cfg), "--outdir", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_csv_carries_17_significant_digits(self, tmp_path):
        cfg = write(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        dispatch(["ns", "--config", str(cfg), "--outdir", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        cell = lines[2].split(",")[1]
        assert f"{float(cell):.17g}" == cell

    def test_snapshots_at_cadence(self, tmp_path):
        cfg = write(tmp_path, SMALL_RUN + "snapshot_every = 3\n")
        out = tmp_path / "out"
        assert dispatch(["ns", "--config", str(cfg), "--outdir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        snaps = sorted(f for f in man["files"] if f.startswith("snapshots/"))
        assert snaps == ["snapshots/state_000000.csv", "snapshots/state_000003.csv"]
        header, first = (out / snaps[0]).read_text().splitlines()[:2]
        assert header == "k,j,parity,coeff"
        assert first.split(",")[2] in ("cos", "sin")

    @pytest.mark.parametrize("line, snaps", [("", []), ("snapshot_every = 1\n", list(range(6)))])
    def test_snapshots_every_row_or_by_default_none(self, tmp_path, capsys, line, snaps):
        cfg = write(tmp_path, SMALL_RUN + line)
        out = tmp_path / "out"
        assert dispatch(["ns", "--config", str(cfg), "--outdir", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert sorted(f for f in man["files"] if f.startswith("snapshots/")) == [
            f"snapshots/state_{idx:06d}.csv" for idx in snaps
        ]
        # the summary line reads the last row of the trajectory
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert f"final t={float(last[0]):g} energy={float(last[1]):.6e} enstrophy={float(last[2]):.6e}" in capsys.readouterr().out

    def test_crashed_run_leaves_running_manifest(self, tmp_path, monkeypatch):
        import diskvort.solver

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(diskvort.solver, "run", boom)
        cfg = write(tmp_path, SMALL_RUN)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="induced"):
            dispatch(["ns", "--config", str(cfg), "--outdir", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "running"
        assert man["wall_clock_s"] is None

    def test_manifest_replaced_atomically(self, tmp_path, monkeypatch):
        renames = []
        real = os.replace

        def spy(src, dst):
            renames.append((os.path.basename(src), os.path.basename(dst)))
            with open(src) as f:
                json.load(f)  # complete before it replaces the manifest
            real(src, dst)

        monkeypatch.setattr(cli.os, "replace", spy)
        out = tmp_path / "out"
        assert dispatch(["spectrum", "--K", "1", "--J", "1", "--outdir", str(out)]) == 0
        assert renames == 2 * [("manifest.json.tmp", "manifest.json")]
        assert outdir_files(out) == {"eigenvalues.json", "manifest.json"}

    @pytest.mark.parametrize("subcommand", ["ns", "pressure"])
    @pytest.mark.parametrize("abort", ["CFLViolation", "MomentDriftError", "NonFiniteState"])
    def test_solver_abort_recorded_with_exit_4(self, tmp_path, monkeypatch, capsys, subcommand, abort):
        import diskvort.solver

        error = getattr(diskvort.solver, abort)
        step = diskvort.solver.step

        def boom(state, cfg, ctx=None):
            # refuse the fourth step, from the state after three
            if state.steps == 3:
                raise error(f"induced {abort}")
            return step(state, cfg, ctx)

        monkeypatch.setattr(diskvort.solver, "step", boom)
        cfg = write(tmp_path, PRESSURE_RUN)
        out = tmp_path / "out"
        assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(out)]) == 4
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert man["failure"] == {
            "type": abort,
            "message": f"induced {abort}",
            "step": 3,
            "t": 3 * 0.005,
        }
        assert man["wall_clock_s"] is None and man["files"] == []
        assert f"{abort}: induced {abort}" in capsys.readouterr().err
        assert outdir_files(out) == {"manifest.json"}

    def test_abort_in_accept_reference_run_recorded(self, tmp_path, monkeypatch, capsys):
        import functools

        import diskvort.acceptance
        import diskvort.solver

        # a fresh cache, so the reference run starts here; the shared one
        # comes back when the test ends
        reference = diskvort.acceptance._reference_trajectory.__wrapped__
        monkeypatch.setattr(diskvort.acceptance, "_reference_trajectory", functools.lru_cache(reference))
        step = diskvort.solver.step

        def boom(state, cfg, ctx=None):
            if state.steps == 3:
                raise diskvort.solver.NonFiniteState("induced NonFiniteState")
            return step(state, cfg, ctx)

        monkeypatch.setattr(diskvort.solver, "step", boom)
        out = tmp_path / "out"
        assert dispatch(["accept", "--only", "6", "--outdir", str(out)]) == 4
        man = json.loads((out / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert man["failure"] == {
            "type": "NonFiniteState",
            "message": "induced NonFiniteState",
            "step": 3,
            "t": 3 * 1e-3,
        }
        assert "run aborted: NonFiniteState: induced NonFiniteState" in capsys.readouterr().err
        assert outdir_files(out) == {"manifest.json"}

    def test_non_finite_row_recorded_with_exit_4(self, tmp_path, capsys):
        # the initial energy squares 1e300 past the floats; stokes used to
        # exit 0 with a "completed" manifest and energy=inf, and ns to
        # refuse the init as a CFL config error (exit 2, |u|_max = inf);
        # both printed numpy's overflow warnings before the abort line
        cfg = write(tmp_path, "[domain]\nK = 2\nJ = 2\n[solver]\nnu = 0.1\n[init]\nmodes = 0 1 cos 1e300\n")
        for subcommand in ("stokes", "ns"):
            out = tmp_path / subcommand
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(out)]) == 4
            assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
            man = json.loads((out / "manifest.json").read_text())
            assert man["status"] == "failed"
            assert man["failure"]["type"] == "NonFiniteState"
            assert man["failure"]["message"].startswith("output row at t=0 is not finite: energy=inf")
            assert (man["failure"]["step"], man["failure"]["t"]) == (0, 0.0)
            assert "run aborted: NonFiniteState: output row at t=0" in capsys.readouterr().err
            assert outdir_files(out) == {"manifest.json"}

    def test_stokes_runs_without_cfl_guard(self, tmp_path):
        # linear runs take any dt; the advective bound applies to ns only
        cfg = write(
            tmp_path,
            "[domain]\nK = 2\nJ = 2\n[solver]\nnu = 0.1\ndt = 0.05\nt_final = 0.2\n"
            "[init]\nmodes = 2 2 cos 40.0\n",
        )
        out = tmp_path / "out"
        assert dispatch(["stokes", "--config", str(cfg), "--outdir", str(out)]) == 0


class TestCheckCommands:
    def test_biot_savart_check(self, tmp_path, capsys):
        assert dispatch(["biot-savart-check", "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["newtonian-agreement"]["passed"]
        assert report["green-equivalence"]["passed"]

    def test_annulus_verify(self, tmp_path, capsys):
        assert dispatch(["annulus-verify", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "PASS zeta-routes" in out
        assert (tmp_path / "circulation.csv").exists()
        # the flags' defaults are check 12's geometry and run
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["parameters"] == {"r_inner": 0.5, "n_poly": 24, "k_max": 4, "nu": 0.1, "t_final": 2.0}

    def test_accept_subset(self, tmp_path, capsys):
        assert dispatch(["accept", "--only", "1,5", "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"]
        assert [r["number"] for r in report["results"]] == [1, 5]


class TestPressureCommand:
    def test_reports_residual(self, tmp_path, capsys):
        cfg = write(tmp_path, PRESSURE_RUN)
        out = tmp_path / "out"
        assert dispatch(["pressure", "--config", str(cfg), "--outdir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["momentum_residual"] < 0.1
        assert (report["residual_time"], report["pressure_time"]) == (0.025, 0.05)  # the middle row, the last
        assert (out / "pressure.csv").read_text().startswith("r,theta,p")
        # the file is PressureField.to_csv of the final state, byte for byte
        from diskvort.pressure import recover_pressure
        from diskvort.solver import prepare, run

        run_cfg = load_config(cfg)
        ctx = prepare(run_cfg)
        p = recover_pressure(run(run_cfg, ctx).states[-1], run_cfg.nu, ctx.grid)
        p.to_csv(tmp_path / "direct.csv")
        assert (out / "pressure.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


@pytest.mark.parametrize("subcommand", ["ns", "stokes", "pressure"])
def test_one_prepare_per_command(tmp_path, monkeypatch, subcommand):
    # the context the load-time CFL check builds is the one the run uses
    import diskvort.solver

    calls = []
    real = diskvort.solver.prepare

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(diskvort.solver, "prepare", counting)
    cfg = write(tmp_path, PRESSURE_RUN)
    assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("nu", [0.1, 0.01])
@pytest.mark.parametrize("subcommand", ["ns", "pressure"])
def test_run_starts_from_the_state_the_loader_checked(tmp_path, monkeypatch, subcommand, nu):
    # one initial field and one advection of it, which the CFL check reads
    # and the first step takes; then two advections a step, the first
    # step's carried one aside: 2n in all.  The loader used to rebuild the
    # field and advect it once more (2n + 1 and two fields)
    import diskvort.nonlinear
    import diskvort.solver

    calls = {"_advect": 0, "_initial_field": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    advect = counted(diskvort.nonlinear._advect)
    monkeypatch.setattr(diskvort.nonlinear, "_advect", advect)
    monkeypatch.setattr(diskvort.solver, "_advect", advect)
    monkeypatch.setattr(diskvort.solver, "_initial_field", counted(diskvort.solver._initial_field))
    cfg = write(tmp_path, PRESSURE_RUN.replace("nu = 0.1", f"nu = {nu}"))
    assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 0
    n = 10  # t_final / dt
    assert calls == {"_advect": 2 * n, "_initial_field": 1}


@pytest.mark.parametrize("subcommand", ["ns", "pressure"])
def test_cfl_bound_refused_before_the_run(tmp_path, capsys, subcommand):
    cfg = write(
        tmp_path,
        "[domain]\nK = 4\nJ = 8\n[solver]\nnu = 0.1\ndt = 0.05\nt_final = 0.2\n"
        "[init]\nmodes = 4 8 cos 40.0\n[output]\nevery = 1\n",
    )
    out = tmp_path / "out"
    assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: [solver] dt = 0.05 violates the advective stability bound dt <= 7.601e-03 "
        "for this init (|u|_max = 2.07, sqrt(lambda_max) = 31.8)"
    ]
    assert not out.exists()


def test_load_time_cfl_check_refuses_exactly_what_step_refuses(tmp_path, capsys):
    # the loader used to refuse dt > cfl / (|u|max sqrt(lam_max)), which
    # rounds apart from step's dt |u|max sqrt(lam_max) > cfl at the last
    # ulp: at this seed it admitted a dt whose first step raised
    # CFLViolation (exit 4, "= 0.5 exceeds 0.5")
    from diskvort.solver import initial_state, prepare

    text = (
        "[domain]\nK = 4\nJ = 4\n[solver]\nnu = 0.1\ndt = {dt!r}\nt_final = {dt!r}\n"
        "[init]\nkind = random\nseed = 99\n"
    )
    cfg = load_config(write(tmp_path, text.format(dt=1e-3)))
    ctx = prepare(cfg)
    umax = initial_state(cfg, ctx).advected[2]
    bound = cfg.cfl / (umax * ctx.sqrt_lam_max)
    for dt in (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf)):
        refused = dt * umax * ctx.sqrt_lam_max > cfg.cfl
        argv = ["ns", "--config", str(write(tmp_path, text.format(dt=dt))), "--outdir", str(tmp_path / repr(dt))]
        assert dispatch(argv) == (2 if refused else 0), (dt, refused, capsys.readouterr().err)
        assert ("stability bound" in capsys.readouterr().err) == refused


def test_pressure_writes_its_snapshots(tmp_path):
    # pressure echoed snapshot_every into its manifest and wrote no
    # snapshot; they are those of the ns run of the same config
    cfg = write(tmp_path, PRESSURE_RUN + "snapshot_every = 4\n")
    for subcommand in ("ns", "pressure"):
        assert dispatch([subcommand, "--config", str(cfg), "--outdir", str(tmp_path / subcommand)]) == 0
    man = json.loads((tmp_path / "pressure" / "manifest.json").read_text())
    snaps = [f"snapshots/state_{idx:06d}.csv" for idx in (0, 4, 8)]
    assert man["files"] == sorted(["pressure.csv", "report.json", *snaps])
    for name in snaps:
        assert (tmp_path / "pressure" / name).read_bytes() == (tmp_path / "ns" / name).read_bytes()


# the values the config property draws for each key: (valid or edge values,
# values that are invalid or at odds with a valid value of another key),
# None for a key left out.  The valid seed and modes depend on the kind
# drawn before them.  K, J and t_final are always given, and t_final / dt
# is at most 100, so every run is short
CONFIG_VALUES = {
    "domain": {
        "K": (["2", "0", "1", "3"], ["-1", "64", "2.5"]),
        "J": (["2", "1", "3"], ["0", "x"]),
        "n_radial": ([None, "12"], ["3", "0"]),
        "n_angular": ([None, "16"], ["4", "-2"]),
    },
    "solver": {
        "nu": (["0.1", "0.01", "1"], [None, "5e-324", "0", "-1", "inf", "nan", "abc"]),
        "dt": (["0.01", None, "0.02"], ["0.05", "0", "-0.1", "inf", "nan", "x"]),
        "t_final": (["0.1", "0.02"], ["0.05", "0.015", "0", "1e-12", "inf", "nan"]),
        "cfl": ([None, "0.5", "1e-3", "inf"], ["0", "-1", "nan"]),
    },
    "init": {
        "kind": ([None, "random", "modes"], ["bogus"]),
        "seed": ({None: [None], "random": ["0", "99"]}, ["3", "-1", "x"]),
        "modes": (
            {None: [None, "0 1 cos 1.0", "1 1 sin 0.5 ; 0 1 cos 0.3", "1 1 cos 40", "0 1 cos 1e300"], "random": [None]},
            ["0 1 cos 1.0", "2 2 cos 1", "0 1 sin 1.0", "0 1 cos inf", "1 1 cos 1 ; 1 1 cos 2", "0 1", ""],
        ),
    },
    "output": {
        "every": (["1", None, "2", "5"], ["0", "-1", "x"]),
        "snapshot_every": ([None, "0", "1", "3"], ["-1"]),
    },
}


@st.composite
def config_texts(draw):
    """An INI text over ``CONFIG_VALUES`` with at most three keys invalid."""
    keys = [(section, key) for section, section_keys in CONFIG_VALUES.items() for key in section_keys]
    bad = draw(st.sets(st.sampled_from(keys), max_size=3))
    lines, kind = [], None
    for section, section_keys in CONFIG_VALUES.items():
        lines.append(f"[{section}]")
        for key, (valid, invalid) in section_keys.items():
            if isinstance(valid, dict):
                valid = valid.get(kind, valid[None])
            value = draw(st.sampled_from(invalid if (section, key) in bad else valid))
            if key == "kind":
                kind = value
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def dispatched(subcommand, text, workdir):
    """Run ``subcommand`` on the config ``text`` through ``dispatch``, in
    process, ``pressure`` on 16 auxiliary elements to keep it short: the
    exit code, the stderr lines, the output directory and the warnings
    raised."""
    path = Path(workdir) / "run.ini"
    path.write_text(text)
    out = Path(workdir) / subcommand
    argv = [subcommand, "--config", str(path), "--outdir", str(out)]
    if subcommand == "pressure":
        argv += ["--n-aux", "16"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = dispatch(argv)
    return code, err.getvalue().splitlines(), out, caught


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(text=config_texts())
def test_every_config_completes_or_is_refused_with_its_cause(text):
    """Each of ``ns``, ``stokes`` and ``pressure`` ends a drawn config in
    one of three ways: exit 0 with a "completed" manifest and finite
    numbers in every file it lists; exit 2 with ``config error:`` lines
    and no manifest; exit 4 with a "failed" manifest naming the solver
    guard and its message, the one line it prints.  None raises, prints
    a warning or exits otherwise.

    Out of scope are the two open rules of a config's size: step counts
    too large to run (dt = 1e-300 with t_final = 0.02 validates) and
    grids or tables too large to hold (J, n_radial and n_angular have no
    upper bound); the drawn values stay far below both.
    """
    with tempfile.TemporaryDirectory() as workdir:
        for subcommand in ("ns", "stokes", "pressure"):
            code, err, out, caught = dispatched(subcommand, text, workdir)
            assert caught == [], (subcommand, [str(w.message) for w in caught])
            manifest = out / "manifest.json"
            if code == 2:
                assert err and all(line.startswith("config error: ") for line in err), err
                assert not manifest.exists()
                continue
            man = json.loads(manifest.read_text())
            if code == 4:
                failure = man["failure"]
                assert man["status"] == "failed"
                assert failure["type"] in ("CFLViolation", "MomentDriftError", "NonFiniteState")
                assert err == [f"run aborted: {failure['type']}: {failure['message']}"]
                continue
            assert (code, err, man["status"]) == (0, [], "completed"), (subcommand, code, err)
            for name in man["files"]:
                content = (out / name).read_text()
                cells = json.loads(content).values() if name.endswith(".json") else content.replace("\n", ",").split(",")
                for cell in cells:
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(cell)), (subcommand, name, cell)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diskvort.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "spectrum" in proc.stdout and "accept" in proc.stdout
