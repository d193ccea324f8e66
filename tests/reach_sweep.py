"""Package lines that only the tests reach, and lines that nothing reaches.

    python3 tests/reach_sweep.py

Run from anywhere in a source checkout; it takes a few minutes.  Tier-1
(``python -m pytest -q --continue-on-collection-errors`` at the root)
runs in this interpreter under a ``sys.settrace`` line tracer limited to
``src/diskvort``.  Then every entry point that is not a test runs in a
fresh interpreter with the same tracer as a ``sitecustomize`` module on
``PYTHONPATH``: ``diskvort accept``, each other CLI subcommand on a
temporary config, the three demos and ``perfbench/run.py --smoke``,
whose jobs inherit the ``PYTHONPATH`` and so are traced too.

The output is one ``module:line`` per package line that tier-1 reaches
and no entry point does, with its source text, after ``#`` lines that
give each run's exit code.  After a ``#`` line follow, in the same
form, the package lines that compile to code and that no run reaches,
tier-1 included: dead code, or paths that no test takes.  Only the
stdlib (and pytest, for tier-1) is used; without a ``test_`` prefix,
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "diskvort"

# the tracer: run by exec here, and as the sitecustomize of every entry
# point's interpreter; SEEN collects (file, line) of each line run under
# the package directory
TRACER = """
import os
import sys
import threading

PACKAGE = os.environ["REACH_SWEEP_PACKAGE"]
SEEN = set()


def _lines(frame, event, arg):
    if event == "line":
        SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(PACKAGE) else None


sys.settrace(_calls)
threading.settrace(_calls)
"""

# ... which writes SEEN to its own file in REACH_SWEEP_OUT at exit
SITECUSTOMIZE = TRACER + """

import atexit


@atexit.register
def _dump():
    path = os.path.join(os.environ["REACH_SWEEP_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as f:
        f.writelines(f"{line} {name}\\n" for name, line in SEEN)
"""

CONFIG = """\
[domain]
K = 4
J = 4

[solver]
nu = 0.1
dt = 0.002
t_final = 0.1

[init]
{init}

[output]
every = 10
snapshot_every = 20
"""

CLI = "from diskvort.cli import main; main()"


def entry_points(tmp: Path) -> list[list[str]]:
    """The command lines of the entry points, with their configs and
    output directories in ``tmp``."""
    configs = {}
    for kind, init in (("modes", "kind = modes\nmodes = 0 1 cos 0.4; 2 1 cos 0.25"),
                       ("random", "kind = random\nseed = 2024"),
                       ("bad-mode", "kind = modes\nmodes = -1 1 cos 0.4")):
        configs[kind] = tmp / f"{kind}.ini"
        configs[kind].write_text(CONFIG.format(init=init))
    cli = [
        ["accept"],
        ["spectrum", "--K", "4", "--J", "4"],
        ["stokes", "--config", str(configs["modes"])],
        ["ns", "--config", str(configs["random"])],
        ["ns", "--config", str(configs["bad-mode"])],  # a config error: exit 2
        ["pressure", "--config", str(configs["modes"])],
        ["biot-savart-check"],
        ["annulus-verify"],
    ]
    commands = [[sys.executable, "-c", CLI, *argv, "--outdir", str(tmp / argv[0])] for argv in cli]
    commands += [[sys.executable, str(path)] for path in sorted((ROOT / "demos").glob("*.py"))]
    commands.append([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"])
    return commands


def tier1_lines() -> tuple[int, set]:
    """Tier-1's exit code and the (file, line) it reaches, traced here."""
    import pytest

    traced = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    # as the tier-1 command sets it, for this run and the tests' subprocesses
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    exec(TRACER, traced)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout keeps the list alone
            code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os.chdir(cwd)
    return int(code), traced["SEEN"]


def entry_point_lines(tmp: Path) -> tuple[list[str], set]:
    """A ``#`` line per entry point with its exit code, and the (file,
    line) that any of their interpreters reaches."""
    site, out = tmp / "site", tmp / "lines"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(site), str(SRC)]),
        REACH_SWEEP_PACKAGE=str(PACKAGE) + os.sep,
        REACH_SWEEP_OUT=str(out),
    )
    notes = []
    for cmd in entry_points(tmp):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        shown = " ".join(Path(a).name if os.sep in a else a for a in cmd[1:])
        notes.append(f"# exit {proc.returncode}: {shown}")
        if proc.returncode:
            notes += [f"#   {line}" for line in proc.stderr.splitlines()[-3:]]
    seen = set()
    dumps = sorted(out.iterdir())
    for dump in dumps:
        for entry in dump.read_text().splitlines():
            line, name = entry.split(" ", 1)
            seen.add((name, int(line)))
    notes.append(f"# {len(dumps)} traced interpreters")
    return notes, seen


def code_lines() -> set:
    """(file, line) of every package line that compiles to code: the
    line table of each module and of every code object nested in it,
    but line 0, where a module's code starts and no source line is."""
    lines = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            lines.update((str(path), line) for _, _, line in code.co_lines() if line)
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def print_lines(lines: set) -> None:
    sources = {}
    for name, line in sorted(lines):
        path = Path(name)
        if path not in sources:
            sources[path] = path.read_text().splitlines()
        print(f"{path.stem}:{line}  {sources[path][line - 1].strip()}")


def main() -> int:
    os.environ["REACH_SWEEP_PACKAGE"] = str(PACKAGE) + os.sep
    code, tests = tier1_lines()
    with tempfile.TemporaryDirectory() as tmp:
        notes, entries = entry_point_lines(Path(tmp))
    print(f"# exit {code}: tier-1")
    print("\n".join(notes))
    print_lines(tests - entries)
    print("# lines that no run reaches, tier-1 included")
    print_lines(code_lines() - tests - entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
