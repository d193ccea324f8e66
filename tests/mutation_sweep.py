"""Single-point mutants of the package, and the check or test that kills each.

    python3 tests/mutation_sweep.py

Run from anywhere in a source checkout; it takes about an hour on two
CPUs.  Every module of ``src/diskvort`` is mutated at each site of four
operators, one site at a time:

- ``+`` <-> ``-`` and ``*`` <-> ``/``, in binary and augmented operations;
- a number literal times 1.01, an integer plus 1, a zero plus 1;
- a unary minus dropped.

A mutant is the module's source with the operator's bytes replaced at
the AST node's offsets, never an ``ast.unparse``: an unparsed module
differs in its text, and the tests that plant defects by matching the
shipped text fail on every such mutant.  A site is kept only if its
mutant parses to the original tree with that one node changed.

The sweep works in two copies of the checkout's tracked and untracked,
not ignored, files, one per worker process, which also hold the tests'
temporary directories; it writes nothing in the checkout.  First, in one copy, tier-1 runs once under the line tracer of
``tests/reach_sweep.py``, which records per test the package lines it
runs, in its own process and in the interpreters it starts.  At the
same time the entry points of ``reach_sweep`` run traced, for the lines
that ``accept`` or a run executes.  Then each mutant goes through the
stages below until one kills it, each stage in a forked child of a
worker that has imported numpy, scipy and pytest but not the package,
with a timeout; a timeout kills too:

1. ``diskvort accept``; a failed check, a non-zero exit or an error kills.
2. For ``accept``'s survivors, the tier-1 tests that run the mutated
   line, fastest first, with ``-x``.  A test that does not run the line
   cannot tell the mutant from the original: it runs the same code.
3. For the survivors of stage 2 on a line that runs at import, outside
   any function body, the rest of tier-1, with ``-x``.  Stage 2 gave
   such a line every test that runs a line of its module, which need not
   be every test that reads what the line defines.

The output is one JSON line per mutant on standard output: ``module``,
``line``, ``col``, ``operator``, ``source`` (the mutated line),
``outcome`` (``accept``, ``tier-1``, ``timeout`` or ``survived``),
``killer`` (the failed check, or the first failed test, or null),
``reached`` (whether ``accept`` or a run executes the line) and
``tests`` (how many tier-1 tests run it).  Progress and the per-module
counts go to standard error.  Only the stdlib, numpy and pytest are
used; without a ``test_`` prefix, pytest does not collect this file.
"""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import re
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from pair_runs import copy_working_tree

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diskvort"
WORKERS = 2
ACCEPT_TIMEOUT = 20  # seconds; an unmutated accept takes about 1.5
TIER1_TIMEOUT = 600  # the whole of tier-1 takes about 22

# the operators: the AST class of a site and the bytes its mutant writes
SWAPS = {ast.Add: b"-", ast.Sub: b"+", ast.Mult: b"/", ast.Div: b"*"}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}


@dataclass(frozen=True)
class Mutant:
    module: str  # the module's stem, e.g. "solver"
    line: int
    col: int
    operator: str  # "+->-", "*->/", ..., "number", "drop-minus"
    start: int  # byte offsets in the module's source of the replaced bytes
    end: int
    text: bytes  # what replaces them
    node: int  # the site's index in ast.walk of the module's tree
    at_import: bool  # outside every function body: runs when the module is imported


def _number(value):
    """A literal's mutant: zero plus 1, an integer plus 1, a float times 1.01."""
    if value == 0 or isinstance(value, int):
        return value + 1
    return value * 1.01


def _operator_offset(source: bytes, start: int, end: int) -> int:
    """The offset of the first operator byte between two operands, past
    blanks, brackets, line continuations and comments."""
    i = start
    while i < end:
        c = source[i : i + 1]
        if c == b"#":
            i = source.index(b"\n", i)
        elif c in b" \t\r\n\\()":
            i += 1
        else:
            return i
    raise ValueError(f"no operator between offsets {start} and {end}")


def sites(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of one module's source, in source order."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    offset = lambda line, col: starts[line - 1] + col
    index = {id(node): i for i, node in enumerate(ast.walk(tree))}
    found = []

    def add(node, operator, start, end, text, at_import):
        found.append(Mutant(module, node.lineno, node.col_offset, operator, start, end, text, index[id(node)], at_import))

    def visit(node, at_import):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            at = _operator_offset(source, offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset))
            new = SWAPS[type(node.op)]
            add(node, f"{source[at:at + 1].decode()}->{new.decode()}", at, at + 1, new, at_import)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            add(node, "number", start, end, repr(_number(node.value)).encode(), at_import)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            start = offset(node.lineno, node.col_offset)
            add(node, "drop-minus", start, start + 1, b"", at_import)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators and defaults run where the function is defined
            outer = [*getattr(node, "decorator_list", ()), node.args]
            for child in outer:
                visit(child, at_import)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, False)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, at_import)

    visit(tree, True)
    return [m for m in found if placed(source, m)]


def mutate(source: bytes, m: Mutant) -> bytes:
    return source[: m.start] + m.text + source[m.end :]


def placed(source: bytes, m: Mutant) -> bool:
    """Whether the mutant's text parses to the original tree with only
    the site changed: the operator swapped, the number replaced or the
    unary minus dropped."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    node = nodes[m.node]
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        node.op = SWAPPED[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value = _number(node.value)
    else:
        for parent in nodes:
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, node.operand)
                elif isinstance(value, list):
                    value[:] = [node.operand if v is node else v for v in value]
    try:
        return ast.dump(ast.parse(mutate(source, m))) == ast.dump(tree)
    except SyntaxError:
        return False


# ---------------------------------------------------------------------------
# the copies and the traced runs


def _env(copy: Path) -> dict:
    """The environment of a copy's runs: its ``src`` first on the path, one
    BLAS thread, no bytecode written (a mutant may keep its module's size
    and modification second, and so its stale bytecode)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def traced_tier1(copy: Path, out: Path) -> None:
    """Tier-1 in ``copy`` under ``reach_sweep``'s tracer, in this process
    and in the interpreters its tests start; writes ``out`` as JSON:
    {"tests": [[nodeid, seconds], ...], "lines": {"module:line": [test
    index, ...]}}."""
    import pytest

    import reach_sweep

    package = str(copy / "src" / "diskvort") + os.sep
    site, dumps = out.parent / "site", out.parent / "dumps"
    site.mkdir()
    dumps.mkdir()
    (site / "sitecustomize.py").write_text(reach_sweep.SITECUSTOMIZE)
    os.environ.update(_env(copy), REACH_SWEEP_PACKAGE=package)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(site), os.environ["PYTHONPATH"]])
    os.dup2(2, 1)  # standard output carries the mutants' lines alone
    sys.path.insert(0, str(copy / "src"))
    os.chdir(copy)
    traced = {}
    exec(reach_sweep.TRACER, traced)
    tests, lines = [], defaultdict(set)

    class PerTest:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item):
            index = len(tests)
            traced["SEEN"] = seen = set()
            os.environ["REACH_SWEEP_OUT"] = str(dumps / str(index))
            (dumps / str(index)).mkdir()
            t0 = time.perf_counter()
            yield
            tests.append((item.nodeid, time.perf_counter() - t0))
            for name, line in seen:
                lines[f"{Path(name).stem}:{line}"].add(index)

    try:
        args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", f"--basetemp={copy / 'tmp'}"]
        code = pytest.main(args, plugins=[PerTest()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for index in range(len(tests)):
        for dump in (dumps / str(index)).iterdir():
            for entry in dump.read_text().splitlines():
                line, name = entry.split(" ", 1)
                lines[f"{Path(name).stem}:{line}"].add(index)
    out.write_text(json.dumps({"code": int(code), "tests": tests, "lines": {k: sorted(v) for k, v in lines.items()}}))


# ---------------------------------------------------------------------------
# the workers: each owns a copy, and runs each stage in a forked child


_COPY = None  # this worker's copy


def _worker_init(copies) -> None:
    global _COPY
    _COPY = Path(copies.get())
    os.environ.update(_env(_COPY))
    os.chdir(_COPY)
    sys.dont_write_bytecode = True
    import numpy  # noqa: F401  the forked stages start with these imported
    import pytest  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    import hypothesis  # noqa: F401


def _forked(body, timeout: int, log: Path) -> tuple[str, int]:
    """Run ``body()`` in a forked child with stdout and stderr to ``log``;
    ("exit", code), or ("timeout", 0) if it runs past ``timeout`` seconds."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(timeout)
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            sys.path.insert(0, str(_COPY / "src"))
            sys.path.insert(0, str(_COPY / "tests"))
            code = body()
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code if isinstance(code, int) else 1)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        return ("timeout", 0) if os.WTERMSIG(status) == signal.SIGALRM else ("exit", -os.WTERMSIG(status))
    return "exit", os.WEXITSTATUS(status)


def _accept() -> int:
    from diskvort.cli import dispatch

    return dispatch(["accept", "--outdir", str(_COPY / "runs" / "accept")])


def _accept_killer(code: int, log: str) -> str:
    """The first failed check, or the exit code and the last line of the log."""
    failed = re.search(r"^FAIL +(\d+) ", log, re.M)
    if failed:
        return f"accept: check {int(failed.group(1))}"
    last = log.strip().splitlines()[-1:] or [""]
    return f"accept: exit {code}: {last[0][:100]}"


def _pytest(args: list[str], ran=()):
    """Tier-1 on the node ids ``args``, or on ``tests`` but the ids in ``ran``."""
    ran = set(ran)

    class Rest:
        def pytest_collection_modifyitems(self, items):
            items[:] = [item for item in items if item.nodeid not in ran]

    def body():
        import pytest

        shutil.rmtree(_COPY / ".hypothesis", ignore_errors=True)
        # the tests' temporary directories stay in the copy, emptied per run
        options = ["-q", "-x", "-p", "no:cacheprovider", f"--basetemp={_COPY / 'tmp'}"]
        return int(pytest.main([*options, *args], plugins=[Rest()]))

    return body


def _first_failure(log: str) -> str:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", log, re.M)
    return found.group(1) if found else "tier-1: collection or exit"


def sweep_one(task) -> dict:
    """The stages on one mutant, in this worker's copy."""
    m, tests, timeout = task
    path = _COPY / "src" / "diskvort" / f"{m.module}.py"
    original = path.read_bytes()
    log = _COPY / "sweep.log"
    try:
        path.write_bytes(mutate(original, m))
        status, code = _forked(_accept, ACCEPT_TIMEOUT, log)
        if status == "timeout":
            return {"outcome": "timeout", "killer": "accept"}
        if code != 0:
            return {"outcome": "accept", "killer": _accept_killer(code, log.read_text(errors="replace"))}
        # stage 2, the tests that run the line, then for an import-time line
        # stage 3, the rest of tier-1
        stages = [(_pytest(tests), timeout)] if tests else []
        if m.at_import:
            stages.append((_pytest(["tests"], ran=tests), TIER1_TIMEOUT))
        for body, limit in stages:
            status, code = _forked(body, limit, log)
            if status == "timeout":
                return {"outcome": "timeout", "killer": "tier-1"}
            if code not in (0, 5):  # 5: nothing left to run
                return {"outcome": "tier-1", "killer": _first_failure(log.read_text(errors="replace"))}
        return {"outcome": "survived", "killer": None}
    finally:
        path.write_bytes(original)


# ---------------------------------------------------------------------------
# the sweep


def reached_lines(work: Path) -> set:
    """The "module:line" that ``reach_sweep``'s entry points run."""
    import reach_sweep

    (work / "entries").mkdir()
    os.environ["REACH_SWEEP_PACKAGE"] = str(PACKAGE) + os.sep
    _, seen = reach_sweep.entry_point_lines(work / "entries")
    return {f"{Path(name).stem}:{line}" for name, line in seen}


def sweep(mutants: list[Mutant]) -> dict:
    """The stages on every mutant, one JSON line each on standard output;
    returns the per-module counts of outcomes."""
    t0 = time.monotonic()
    sources = {m.module: PACKAGE.joinpath(f"{m.module}.py").read_bytes() for m in mutants}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copies = [work / f"copy{i}" for i in range(WORKERS)]
        for copy in copies:
            copy.mkdir()
            copy_working_tree(copy)
        spawn = multiprocessing.get_context("spawn")
        traced = spawn.Process(target=traced_tier1, args=(copies[0], work / "tier1.json"))
        traced.start()
        reached = reached_lines(work)
        traced.join()
        tier1 = json.loads((work / "tier1.json").read_text())
        print(f"# traced tier-1: exit {tier1['code']}, {len(tier1['tests'])} tests, "
              f"{time.monotonic() - t0:.0f} s", file=sys.stderr)
        names, seconds = zip(*tier1["tests"])
        by_module = defaultdict(set)
        for key, indices in tier1["lines"].items():
            by_module[key.split(":")[0]].update(indices)

        def task(m: Mutant):
            indices = by_module[m.module] if m.at_import else tier1["lines"].get(f"{m.module}:{m.line}", ())
            chosen = sorted(indices, key=lambda i: seconds[i])
            return m, [names[i] for i in chosen], int(60 + 3 * sum(seconds[i] for i in chosen))

        queue = spawn.Queue()
        for copy in copies:
            queue.put(str(copy))
        counts = defaultdict(Counter)
        with spawn.Pool(WORKERS, _worker_init, (queue,)) as pool:
            results = pool.imap(sweep_one, map(task, mutants))
            for done, (m, result) in enumerate(zip(mutants, results), 1):
                key = f"{m.module}:{m.line}"
                record = {
                    "module": m.module,
                    "line": m.line,
                    "col": m.col,
                    "operator": m.operator,
                    "source": mutate(sources[m.module], m).decode().splitlines()[m.line - 1].strip(),
                    **result,
                    "reached": key in reached,
                    "tests": len(tier1["lines"].get(key, ())),
                }
                print(json.dumps(record), flush=True)
                counts[m.module][result["outcome"]] += 1
                if done % 50 == 0:
                    print(f"# {done}/{len(mutants)} after {time.monotonic() - t0:.0f} s", file=sys.stderr)
    return counts


def main() -> int:
    t0 = time.monotonic()
    modules = sorted(PACKAGE.glob("*.py"))
    mutants = [m for path in modules for m in sites(path.stem, path.read_bytes())]
    print(f"# {len(mutants)} mutants in {len(modules)} modules", file=sys.stderr)
    counts = sweep(mutants)
    for module, count in sorted(counts.items()):
        print(f"# {module}: {dict(sorted(count.items()))}", file=sys.stderr)
    print(f"# {len(mutants)} mutants in {time.monotonic() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
