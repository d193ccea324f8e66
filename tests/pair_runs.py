"""Parent-versus-change runs of the benchmark, and the verdict on a claim.

    python3 tests/pair_runs.py --seed SEED --claim verify:annulus_s:0.20 --control 5 --out BENCH_<n>.json
    python3 tests/pair_runs.py --numbers
    python3 tests/pair_runs.py --probe

Run from anywhere in a git checkout.  The parent side is ``git archive``
of ``--parent`` (default HEAD); the change side is ``git archive`` of
``--change`` if given, else the working tree, its tracked and untracked
files that git does not ignore.  Each is copied into its own directory
under ``--workdir`` (a new temporary directory by default), so each
runs its own ``perfbench/run.py`` on its own sources and its own
``perfbench/reference.json``.  Nothing under ``perfbench/`` is changed.

Pair mode runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0``, T the ``run_seconds`` of ``BENCHMARK.json``, once per side
and pair; pair i runs the parent first when i is odd and the change
first when it is even.  It writes the keys the
``BENCH_*.json`` files share: ``command``, ``seed``, ``pairs``,
``claim``, ``claim_result``, ``note``, ``environment``, ``summary``,
``parent`` and ``change``, then ``digest`` and ``sessions``, and
``control`` with ``--control``.  The
summary gives, per workload and end-to-end metric of ``BENCHMARK.json``,
both medians and quartiles, each side's runs sorted (a bimodal side
shows as a gap), the relative move of the medians, the pairs the change
won and whether the move stays within the metric's bound.

``digest`` is a sha256 per side of its files under ``src/`` and
``perfbench/`` (``code_digest``), taken before any run.  ``sessions``
gathers, per workload and metric, the parent's median of this session
and the median of every side of an earlier ``BENCH_*.json`` at the root
whose digest equals the parent's, with their spread: how far one code's
median moves between sessions.  A claim ``W:METRIC:SIZE``
(the metric improves by at least SIZE, a fraction, median against
median) is met when there are at least 10 pairs, the change wins at
least 9 in 10 of them, the medians differ by more than the parent's
interquartile distance, and the move is at least SIZE.

``--control N`` adds, per workload, N pairs of the parent against a
second ``git archive`` of the parent (the control side), spread evenly
among the workload's pairs on the same seed; control pair j runs the
parent first when j is odd.  Two copies of one code differ only by
noise, so the largest |relative move| of any control pair is the
control move of each metric, and a claim is met only if its move
exceeds the control move too.  The ``control`` block holds the control
pairs' runs, the control tree's digest and, per workload and metric,
each pair's move, both medians and the control move.

``--numbers`` runs ``ns`` and ``stokes`` on a K = J = 8, seed-2024
config, ``pressure`` on check 10's two-mode run, ``annulus-verify`` and
``accept`` in both trees.  It prints the largest move of every CSV
column against the column's largest magnitude, and the lines of
standard output that differ once the ``(x.xx s)`` fields are stripped.

``--probe`` runs, per benchmark job (battery, ns-k8, ns-k32) and side,
one fresh interpreter that sets the job up as ``perfbench/jobs.py``
does, then runs one ``jobs.probe()``, one pass (an ``ns`` run, or one
round of the battery's operations) and a second probe.  It prints the
minor page faults (``ru_minflt``) and the seconds of each probe: the
probe's time is the unit of every scaled metric, and whether its two
2 MB temporaries cost page faults depends on what the process mapped
before it.

Only the stdlib and numpy are used; without a ``test_`` prefix, pytest
does not collect this file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# a claim is met when the change wins at least this share of at least
# this many pairs
WIN_SHARE = 0.9
MIN_PAIRS = 10

NS_CONFIG = """[domain]
K = 8
J = 8
[solver]
nu = 0.1
dt = 0.001
t_final = 0.5
[init]
kind = random
seed = 2024
[output]
every = 10
"""

# acceptance check 10's two-mode run
PRESSURE_CONFIG = """[domain]
K = 4
J = 12
[solver]
nu = 0.1
dt = 0.002
t_final = 0.5
[init]
modes = 0 1 cos 0.4 ; 2 1 cos 0.25
[output]
every = 1
"""

NUMBERS_RUNS = {
    "ns": ["ns", "--config", "{dir}/ns.ini"],
    "stokes": ["stokes", "--config", "{dir}/ns.ini"],
    "pressure": ["pressure", "--config", "{dir}/pressure.ini"],
    "annulus-verify": ["annulus-verify"],
    "accept": ["accept"],
}

SECONDS_FIELD = re.compile(r"\(\d+\.\d+ s\)")

PROBE_JOBS = ("battery", "ns-k8", "ns-k32")

# run in a tree's root as: python -c PROBE_SCRIPT JOB SEED; prints one JSON line
PROBE_SCRIPT = """
import json, resource, sys
sys.path.insert(0, "perfbench")
import jobs

def probed():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    seconds = jobs.probe()
    return {"faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, "seconds": seconds}

name, seed = sys.argv[1], int(sys.argv[2])
if name == "battery":
    battery = jobs.Battery(seed)
    battery.setup()
    after_setup = probed()
    meter, gates = jobs.Meter(), jobs.Gates()
    for op, reps in jobs.OPERATIONS.items():
        for _ in range(reps):
            getattr(battery, op)(meter, gates)
else:
    cfg = jobs.ns_config(name, seed)
    ctx = jobs.solver.prepare(cfg)
    after_setup = probed()
    jobs.solver.run(cfg, ctx)
print(json.dumps({"job": name, "after_setup": after_setup, "after_run": probed()}))
"""


# ---------------------------------------------------------------------------
# summaries and the verdict: pure functions of the runs' final lines


def parse_run(stdout: str) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run, with the
    environment of its ``# environment`` line when it printed one."""
    lines = stdout.strip().splitlines()
    run = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    for line in lines:
        if line.startswith("# environment "):
            run["environment"] = json.loads(line[len("# environment "):])
            break
    return run


def _values(runs: list, metric: str) -> np.ndarray:
    return np.array([run["metrics"][metric]["value"] for run in runs])


def _stats(values: np.ndarray) -> tuple:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), [float(q1), float(q3)]


def _better(a: np.ndarray, b: np.ndarray, better: str) -> np.ndarray:
    """Where a is strictly better than b."""
    return a < b if better == "lower" else a > b


def summarize(parent: list, change: list, spec: dict) -> dict:
    """Per metric of ``spec`` (BENCHMARK.json's ``end_to_end`` entries by
    name) that both sides report: medians, quartiles, the relative move,
    the pairs the change won and whether the move is within the bound."""
    out = {}
    for name, entry in spec.items():
        if not all(name in run["metrics"] for run in parent + change):
            continue
        p, c = _values(parent, name), _values(change, name)
        (pm, pq), (cm, cq) = _stats(p), _stats(c)
        relative = (cm - pm) / pm
        worse = relative if entry["better"] == "lower" else -relative
        out[name] = {
            "parent_median": pm,
            "parent_quartiles": pq,
            "parent_runs": sorted(p.tolist()),
            "change_median": cm,
            "change_quartiles": cq,
            "change_runs": sorted(c.tolist()),
            "relative": relative,
            "change_better": f"{int(np.sum(_better(c, p, entry['better'])))} of {len(p)} pairs",
            "within_bound": bool(worse <= entry["bound"]),
        }
    return out


def control_summary(parent: list, control: list, spec: dict) -> dict:
    """Per metric of ``spec`` that both sides report, over the control
    pairs (the parent against a second copy of itself): each pair's
    relative move, both medians, and the control move, the largest
    |relative move| of any pair."""
    out = {}
    for name in spec:
        if not all(name in run["metrics"] for run in parent + control):
            continue
        p, c = _values(parent, name), _values(control, name)
        moves = (c - p) / p
        out[name] = {
            "parent_median": _stats(p)[0],
            "control_median": _stats(c)[0],
            "pair_moves": moves.tolist(),
            "control_move": float(np.max(np.abs(moves))),
        }
    return out


def claim_verdict(parent: list, change: list, metric: str, unit: str, better: str, size: float,
                  control_move=None) -> dict:
    """The claim that ``metric`` improves by at least ``size``: met when the
    change wins at least 9 of 10 pairs (of at least 10), the medians
    differ by more than the parent's interquartile distance, and the
    relative move reaches ``size`` and exceeds ``control_move``, if
    given (``control_summary``)."""
    p, c = _values(parent, metric), _values(change, metric)
    (pm, pq), (cm, cq) = _stats(p), _stats(c)
    wins = int(np.sum(_better(c, p, better)))
    gain = (pm - cm) / pm if better == "lower" else (cm - pm) / pm
    iqr = pq[1] - pq[0]
    reasons = [f"{len(p)} pairs are fewer than {MIN_PAIRS}"] if len(p) < MIN_PAIRS else []
    if wins < WIN_SHARE * len(p):
        reasons.append(f"the change won {wins} of {len(p)} pairs, fewer than {WIN_SHARE:.0%}")
    if not (gain > 0 and abs(cm - pm) > iqr):
        reasons.append("the medians do not differ by more than the parent's interquartile distance")
    if gain < size:
        reasons.append(f"the move {gain:.1%} is below the claimed {size:.0%}")
    if control_move is not None and not gain > control_move:
        reasons.append(f"the move {gain:.1%} does not exceed the control move {control_move:.1%}")
    return {
        "metric": f"{metric} ({unit})",
        "parent": {"median": pm, "quartiles": pq},
        "change": {"median": cm, "quartiles": cq},
        "relative": (cm - pm) / pm,
        "change_wins": f"{wins} of {len(p)} pairs",
        "median_difference": abs(cm - pm),
        "parent_interquartile_distance": iqr,
        "control_move": control_move,
        "verdict": "met" if not reasons else "not met: " + "; ".join(reasons),
    }


def describe(summary: dict, claim_result, all_correct: bool) -> str:
    """A note of the verdict and of every metric's move, per workload."""
    parts = []
    if claim_result is not None:
        cr = claim_result
        parts.append(
            f"claim {cr['verdict']}: {cr['metric']} {cr['relative']:+.1%} median against median "
            f"({cr['parent']['median']:.6g} -> {cr['change']['median']:.6g}), the change won "
            f"{cr['change_wins']}; the medians differ by {cr['median_difference']:.6g} against a parent "
            f"interquartile distance of {cr['parent_interquartile_distance']:.6g}"
            + ("." if cr["control_move"] is None else f", and the control move is {cr['control_move']:.1%}.")
        )
    for workload, metrics in summary.items():
        moves = ", ".join(
            f"{name} {m['relative']:+.1%} ({m['change_better']})" for name, m in metrics.items()
        )
        parts.append(f"{workload}: {moves}.")
    within = all(m["within_bound"] for metrics in summary.values() for m in metrics.values())
    parts.append(
        ("Every" if within else "Not every") + " end-to-end median is within its BENCHMARK.json bound; "
        + ("every run was correct." if all_correct else "some run was not correct.")
    )
    return " ".join(parts)


def session_spread(summary: dict, digest: str, earlier: dict) -> dict:
    """Per workload and metric of ``summary``, this session's parent
    median and the medians of every side of the ``earlier`` records
    ({name: a BENCH_*.json record}) whose ``digest`` equals ``digest``,
    by record and side, with (largest - smallest) / smallest; empty when
    no earlier side ran the same code."""
    out = {}
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            medians = {"this session": m["parent_median"]}
            for record_name, record in sorted(earlier.items()):
                for side, side_digest in record.get("digest", {}).items():
                    entry = record["summary"].get(workload, {}).get(name)
                    if side_digest == digest and entry is not None:
                        medians[f"{record_name} {side}"] = entry[f"{side}_median"]
            if len(medians) > 1:
                low, high = min(medians.values()), max(medians.values())
                out.setdefault(workload, {})[name] = {"medians": medians, "spread": (high - low) / low}
    return out


def session_lines(sessions: dict) -> list:
    return [
        f"{workload} {name}: the parent's median spreads {s['spread']:.1%} over "
        + ", ".join(f"{k} {v:.6g}" for k, v in s["medians"].items())
        for workload, metrics in sessions.items()
        for name, s in metrics.items()
    ]


def probe_lines(records: dict) -> list:
    """One line per side and job of ``records`` ({side: [the probe
    script's records]}), jobs in order, the parent's line first."""
    lines = ["# minor page faults and time of one jobs.probe(), after set-up and after one pass"]
    for i in range(len(records["parent"])):
        for side in records:
            rec = records[side][i]
            setup, run = rec["after_setup"], rec["after_run"]
            lines.append(f"{side} {rec['job']}: "
                         f"after set-up {setup['faults']} faults, {1e3 * setup['seconds']:.2f} ms; "
                         f"after one pass {run['faults']} faults, {1e3 * run['seconds']:.2f} ms")
    return lines


# ---------------------------------------------------------------------------
# the two trees


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def copy_working_tree(dest: Path) -> None:
    """The checkout's tracked and untracked, not ignored, files, under ``dest``."""
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def make_trees(parent_rev: str, workdir: Path, change_rev=None, control=False) -> dict:
    """``git archive`` of the parent revision, and of the change revision
    or else a copy of the working tree, under ``workdir``: {"parent":
    path, "change": path}, and "control", a second archive of the
    parent, if ``control``."""
    revs = {"parent": parent_rev, "change": change_rev, **({"control": parent_rev} if control else {})}
    trees = {side: workdir / side for side in revs}
    for side, path in trees.items():
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        if revs[side] is None:
            copy_working_tree(path)
            continue
        archive = subprocess.run(["git", "archive", revs[side]], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True)
    return trees


def code_digest(tree: Path) -> str:
    """sha256 over each file under ``src/`` and ``perfbench/`` of
    ``tree``, in path order: its path relative to the tree, NUL, its
    bytes, NUL.  Bytecode caches are left out."""
    h = hashlib.sha256()
    files = (p for top in ("src", "perfbench") for p in (tree / top).rglob("*"))
    for path in sorted(p for p in files if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def probe_once(tree: Path, job: str, seed: int) -> dict:
    """The probe script's record for ``job`` in ``tree``, with BLAS on one
    thread as ``perfbench/run.py`` pins it."""
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    env = {**_env(tree), "PYTHONDONTWRITEBYTECODE": "1", **threads}
    done = subprocess.run([sys.executable, "-c", PROBE_SCRIPT, job, str(seed)], cwd=tree, capture_output=True,
                          text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=_env(tree))
    try:
        run = parse_run(done.stdout)
    except json.JSONDecodeError:
        run = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    if done.returncode != 0:
        run["correct"] = False
    return run


def run_order(count: int, control: int) -> list:
    """One workload's pairs in run order: ("change", i) for i in 1..count
    and ("control", j) for j in 1..control, the control pairs spread
    evenly among the others."""
    keyed = [(i / (count + 1), 0, "change", i) for i in range(1, count + 1)]
    keyed += [(j / (control + 1), 1, "control", j) for j in range(1, control + 1)]
    return [(other, i) for *_, other, i in sorted(keyed)]


def run_pairs(trees: dict, plan: dict, seed: int, seconds: float, control: int = 0) -> tuple:
    """Runs by side and workload: {"parent", "change"} for the pairs and
    {"parent", "control"} for the control pairs, and the environment."""
    sides = {"parent": {}, "change": {}}
    controls = {"parent": {}, "control": {}}
    environment = None
    for workload, count in plan.items():
        for other, pair in run_order(count, control):
            order = ("parent", other) if pair % 2 else (other, "parent")
            record = sides if other == "change" else controls
            for side in order:
                run = bench_once(trees[side], workload, seed, seconds)
                environment = run.pop("environment", None) or environment
                record[side].setdefault(workload, []).append({"pair": pair, **run})
                print(f"{workload} {'pair' if other == 'change' else 'control pair'} {pair} {side}: "
                      f"correct {run['correct']}, "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in run["metrics"].items()),
                      file=sys.stderr, flush=True)
    return sides, controls, environment


def pairs_record(args, trees: dict) -> dict:
    plan = {workload: int(count) for workload, count in (entry.split("=") for entry in args.pairs)}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {entry["name"]: entry for entry in bench["end_to_end"]}
    digest = {side: code_digest(tree) for side, tree in trees.items() if side != "control"}
    sides, controls, environment = run_pairs(trees, plan, args.seed, seconds, args.control)
    summary = {w: summarize(sides["parent"][w], sides["change"][w], spec) for w in plan}
    control = None
    if args.control:
        control = {
            "pairs": f"{args.control} pairs per workload of the parent against a second git archive of "
                     f"{_git('rev-parse', '--short', args.parent).strip()}, spread evenly among the "
                     "workload's pairs; control pair j ran the parent first when j is odd",
            "digest": code_digest(trees["control"]),
            "summary": {w: control_summary(controls["parent"][w], controls["control"][w], spec) for w in plan},
            **controls,
        }
    claim, claim_result = "none", None
    if args.claim:
        workload, metric, size = args.claim.split(":")
        entry = spec[metric]
        claim = (f"{workload} {metric} {'falls' if entry['better'] == 'lower' else 'rises'} by at least "
                 f"{float(size):.0%}, median against median, winning at least 9 of 10 pairs"
                 + (", and by more than the control move" if control else ""))
        claim_result = claim_verdict(sides["parent"][workload], sides["change"][workload], metric,
                                     entry["unit"], entry["better"], float(size),
                                     control and control["summary"][workload][metric]["control_move"])
        claim_result["metric"] = f"{workload} {claim_result['metric']}"
    all_correct = all(run["correct"] for record in (sides, controls) for side in record.values()
                      for runs in side.values() for run in runs)
    workloads = ",".join(plan)
    change_side = (f"git archive of {_git('rev-parse', '--short', args.change).strip()}" if args.change
                   else "the working tree")
    return {
        "command": f"python3 perfbench/run.py --workload {{{workloads}}} --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "seed": args.seed,
        "pairs": "pair i ran the parent first when i is odd, the change first when i is even; "
                 + ", then ".join(f"{n} pairs on {w}" for w, n in plan.items())
                 + f"; the parent side was git archive of {_git('rev-parse', '--short', args.parent).strip()}, "
                 f"the change side {change_side}, "
                 "each run from its own copy with its own perfbench/reference.json",
        "claim": claim,
        "claim_result": claim_result,
        "note": describe(summary, claim_result, all_correct),
        "environment": environment,
        "summary": summary,
        "parent": sides["parent"],
        "change": sides["change"],
        "digest": digest,
        "sessions": session_spread(summary, digest["parent"], earlier_records(args.out)),
        **({"control": control} if control else {}),
    }


def earlier_records(out) -> dict:
    """{file name: record} of the ``BENCH_*.json`` files at the root,
    but the one this run writes."""
    paths = (p for p in ROOT.glob("BENCH_*.json") if out is None or p.resolve() != Path(out).resolve())
    return {p.name: json.loads(p.read_text()) for p in paths}


# ---------------------------------------------------------------------------
# --numbers: the same outputs from both trees


def run_numbers(tree: Path, outdir: Path) -> dict:
    """Each ``NUMBERS_RUNS`` command in ``tree``, its files under
    ``outdir``: {name: (exit code, its output with ``outdir`` and the
    seconds fields stripped)}."""
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "ns.ini").write_text(NS_CONFIG)
    (outdir / "pressure.ini").write_text(PRESSURE_CONFIG)
    cli_call = "import sys; from diskvort.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))"
    results = {}
    for name, argv in NUMBERS_RUNS.items():
        argv = [a.format(dir=outdir) for a in argv] + ["--outdir", str(outdir / name)]
        done = subprocess.run([sys.executable, "-c", cli_call, *argv], cwd=tree, capture_output=True,
                              text=True, env=_env(tree))
        text = (done.stdout + done.stderr).replace(str(outdir), "<outdir>")
        results[name] = (done.returncode, SECONDS_FIELD.sub("", text))
    return results


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def column_moves(parent_csv: Path, change_csv: Path) -> dict:
    """{column: largest |change - parent| over the column's largest
    |parent|}; a column that is not numeric maps to 0.0 when equal and
    to inf when not, as does a change in the row count."""
    with parent_csv.open() as f:
        a = list(csv.DictReader(f))
    with change_csv.open() as f:
        b = list(csv.DictReader(f))
    names = list(a[0]) if a else []
    if len(a) != len(b) or (b and list(b[0]) != names):
        return {name: math.inf for name in names or ["<rows>"]}
    moves = {}
    for name in names:
        x = [_number(row[name]) for row in a]
        y = [_number(row[name]) for row in b]
        if None in x or None in y:
            moves[name] = 0.0 if [row[name] for row in a] == [row[name] for row in b] else math.inf
            continue
        x, y = np.array(x), np.array(y)
        scale, diff = np.max(np.abs(x)), np.max(np.abs(y - x))
        moves[name] = float(diff / scale) if scale > 0 else (0.0 if diff == 0 else math.inf)
    return moves


def numbers_report(trees: dict, workdir: Path) -> list:
    outs = {side: workdir / f"numbers-{side}" for side in trees}
    for path in outs.values():
        if path.exists():
            shutil.rmtree(path)
    results = {side: run_numbers(trees[side], outs[side]) for side in trees}
    lines = []
    for name in NUMBERS_RUNS:
        (pc, pout), (cc, cout) = results["parent"][name], results["change"][name]
        lines.append(f"# {name}: exit {pc} -> {cc}")
        for path in sorted((outs["parent"] / name).rglob("*.csv")):
            rel = path.relative_to(outs["parent"])
            other = outs["change"] / rel
            if not other.is_file():
                lines.append(f"{rel}: missing in the change")
                continue
            for column, move in column_moves(path, other).items():
                lines.append(f"{rel} {column} {move:.3g}")
        pl, cl = pout.splitlines(), cout.splitlines()
        for i in range(max(len(pl), len(cl))):
            a = pl[i] if i < len(pl) else "<none>"
            b = cl[i] if i < len(cl) else "<none>"
            if a != b:
                lines += [f"- {a}", f"+ {b}"]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--change", help="git revision of the change side (default: the working tree)")
    ap.add_argument("--workdir", type=Path, help="where the two trees go (default: a new temporary directory)")
    ap.add_argument("--numbers", action="store_true", help="compare the outputs of both trees")
    ap.add_argument("--probe", action="store_true", help="page faults and time of the probe in both trees")
    ap.add_argument("--pairs", nargs="+", default=["verify=10", "ns-k8=5", "ns-k32=5"],
                    help="WORKLOAD=COUNT of pairs, in run order")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--claim", help="WORKLOAD:METRIC:SIZE, the fraction by which METRIC improves")
    ap.add_argument("--control", type=int, default=0, metavar="N",
                    help="N pairs per workload of the parent against a second copy of itself")
    ap.add_argument("--out", type=Path, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="pair_runs-"))
    trees = make_trees(args.parent, workdir, args.change, control=args.control > 0)
    if args.numbers:
        print("\n".join(numbers_report(trees, workdir)))
        return 0
    if args.probe:
        records = {side: [probe_once(trees[side], job, args.seed) for job in PROBE_JOBS] for side in trees}
        print("\n".join(probe_lines(records)))
        return 0
    record = pairs_record(args, trees)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join([record["note"], *session_lines(record["sessions"])]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
