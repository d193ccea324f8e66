"""diskvort benchmark: one command, every end-to-end metric, gated outputs.

    python3 perfbench/run.py --workload ns-k8 --seed 2024 --seconds 9 --trace 0

Run from the root of a source checkout.  Each job runs in a fresh
interpreter with BLAS pinned to one thread, so the ``lru_cache`` tables
in ``diskvort.specfun`` start cold.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced run with ``--trace 1``).  ``--smoke`` runs every
workload and gate once at reduced length; see NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Closed loop: one job at a time, each a single process; the next job
# starts when the previous one has exited.
WORKLOADS = {
    "ns-k8": dict(
        main="ns-k8",
        why="K=J=8 reference run: L1-sized arrays, so step time is Python "
        "overhead times ~21 transform calls per step; set-up is ~0.1 s",
    ),
    "ns-k32": dict(
        main="ns-k32",
        why="K=32, J=24: profile stacks past L2, transforms bound by array "
        "work, and the cold Bessel-zero search dominates set-up",
    ),
    "verify": dict(
        main="battery",
        why="post-solve operations (pressure, stokes, potentials, annulus) "
        "that use the transforms without the step loop: the control for "
        "solver-only changes",
    ),
}

# job slots per untraced run, each a share of --seconds; an ns workload
# splits every slot between an ns job and a battery job, so both sample
# the whole run.  Every job is a fresh interpreter.
SLOTS = 3
# minimum rounds of a verify job: its step-rate samples are the two-mode
# runs of the pressure operation, one per round
VERIFY_ROUNDS = 2
# traced passes per job: at least 100 steps, so p90 has 10 steps beyond it
TRACE_PASSES = {"ns-k8": 2, "ns-k32": 10, "battery": 1}
JOB_TIMEOUT_S = 170.0
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

OPERATIONS = ("pressure", "stokes", "potential", "annulus")
END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    **{f"{op}_s": "s" for op in OPERATIONS},
}

PER_LAYER = {
    "specfun.bessel_j_zero": ("calls", "s"),
    "spectrum.build_table": ("s",),
    "fields.PolarGrid": ("s",),
    "solver.prepare": ("s",),
    "fields.to_grid": ("calls", "per_step", "s", "self_s"),
    "fields.from_grid": ("calls", "per_step", "s", "self_s"),
    "fields.biot_savart": ("calls",),
    "nonlinear.advection": ("calls", "s", "self_s"),
    "nonlinear.velocity_max": ("calls", "s", "self_s"),
    "nonlinear.elliptic_correction": ("calls", "s", "self_s"),
    "solver.step": ("calls", "self_s", "p50_ms", "p90_ms"),
    "solver.measure_moment_drift": ("calls", "s"),
    "semigroup.duhamel_step": ("calls", "s"),
    "solver.stokes_run": ("s",),
    "pressure.momentum_residual": ("s",),
    "pressure.recover_pressure": ("s",),
    "pressure.phi_of_u": ("s",),
    "specfun.bessel_j": ("calls", "s"),
    "fields.newtonian_potential": ("s",),
    "fields.greens_potential": ("s",),
    "annulus.newtonian_bs_annulus": ("s",),
    "annulus.omega_big": ("s",),
    "annulus.bergman_project": ("s",),
    "annulus.galerkin_spectra": ("s",),
    "annulus.annulus_stokes_circulation": ("s",),
}
UNITS = {"calls": "count", "per_step": "calls/step", "s": "s", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}


class JobFailed(Exception):
    pass


def job(name: str, seed: int, share: float, passes: int, trace: int, deadline: float) -> dict:
    """Run one job in a fresh interpreter and return its JSON record."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in PINNED})
    cmd = [
        sys.executable, str(HERE / "jobs.py"), "--job", name, "--seed", str(seed),
        "--share", repr(share), "--passes", str(passes), "--trace", str(trace),
    ]
    timeout = min(JOB_TIMEOUT_S, deadline - monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise JobFailed(f"{name}: no result within {timeout:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobFailed(f"{name}: exit code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise JobFailed(f"{name}: no JSON record on its last line") from None


def samples(mains: list[dict], batteries: list[dict]) -> dict:
    """Every sample of each end-to-end metric in one untraced run, as
    (scaled, raw wall) pairs; see jobs.Meter for the scale."""
    rounds = [r for b in batteries for r in b["rounds"]]
    if mains[0]["job"] == "battery":
        rates = [(n / t["s"], n / t["raw"]) for r in rounds for n, t in zip(r["steps"], r["run"])]
    else:
        rates = [(m["steps_per_pass"] / t["s"], m["steps_per_pass"] / t["raw"]) for m in mains for t in m["pass"]]
    return {
        "setup_s": [(m["setup"]["s"], m["setup"]["raw"]) for m in mains],
        "steps_per_s": rates,
        "wall_s": [(m["wall"]["s"], m["wall"]["raw"]) for m in mains],
        "peak_rss_mb": [(m["peak_rss_mb"], m["peak_rss_mb"]) for m in mains],
        **{f"{op}_s": [(t["s"], t["raw"]) for r in rounds for t in r[op]] for op in OPERATIONS},
    }


def end_to_end(values: dict) -> dict:
    """Medians of the scaled samples; peak RSS is the largest job's."""
    return {
        k: {"value": (max if k == "peak_rss_mb" else statistics.median)(s for s, _ in v), "unit": END_TO_END[k]}
        for k, v in values.items()
    }


def per_layer(layers: dict, overhead_s: float) -> dict:
    steps = layers["solver.step"]["calls"]
    durations_ms = 1e3 * np.array(layers["solver.step"]["durations"])
    out = {}
    for span, fields in PER_LAYER.items():
        rec = layers.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "in_step": 0})
        for f in fields:
            if f == "per_step":
                value = rec["in_step"] / steps
            elif f == "p50_ms":
                value = float(np.percentile(durations_ms, 50))
            elif f == "p90_ms":
                value = float(np.percentile(durations_ms, 90))
            else:
                value = rec[f]
            out[f"{span}.{f}"] = {"value": value, "unit": UNITS[f]}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool, deadline: float):
    """Returns (metrics, attempted, failed gate names, job records, samples).

    Metrics are left empty when a gate failed."""
    main = WORKLOADS[name]["main"]
    if trace:
        passes = 1 if smoke else TRACE_PASSES[main]
        traced = job(main, seed, 0.0, passes, 1, deadline)
        plain = job(main, seed, 0.0, passes, 0, deadline)
        extra = [] if main == "battery" else [job("battery", seed, 0.0, 1, 1, deadline)]
        records = [traced, plain, *extra]
    else:
        slots = 1 if smoke else SLOTS
        share = 0.0 if smoke else seconds / slots
        mains, extra = [], []
        for _ in range(slots):
            if main == "battery":
                mains.append(job(main, seed, share, 1 if smoke else VERIFY_ROUNDS, 0, deadline))
            else:
                mains.append(job(main, seed, share / 2, 1, 0, deadline))
                extra.append(job("battery", seed, share / 2, 1, 0, deadline))
        records = mains + extra
    attempted = sum(r["attempted"] for r in records)
    failed = [f for r in records for f in r["failed"]]
    if failed:
        return {}, attempted, failed, records, {}
    if trace:
        # layers the main job calls come from it, the rest from the battery
        layers = {**(extra[0]["layers"] if extra else {}), **traced["layers"]}
        return per_layer(layers, traced["job_s"] - plain["job_s"]), attempted, failed, records, {}
    values = samples(mains, extra or mains)
    return end_to_end(values), attempted, failed, records, values


def report(name: str, seed: int, metrics, attempted: int, failed: list, records: list, values: dict) -> None:
    print(f"# workload {name}: {WORKLOADS[name]['why']}")
    print(f"# seed {seed}; {len(records)} jobs, each in a fresh interpreter: "
          f"{all(r['fresh_interpreter'] for r in records)}")
    for key, m in metrics.items():
        extra = ""
        if key in values:
            raw = [r for _, r in values[key]]
            extra = f"  ({len(raw)} samples; raw wall median {statistics.median(raw):.6g})"
        print(f"{name} {key} {m['value']:.6g} {m['unit']}{extra}")
    ratio = len(failed) / attempted if attempted else 1.0
    print(f"{name} failed_ratio {ratio:.6g} ratio ({len(failed)} of {attempted} gates)")
    for f in failed:
        print(f"{name} FAILED {f}")


def write_reference(seed: int, deadline: float) -> None:
    ref = {name: job(name, seed, 0.0, 1, 0, deadline)["final"] for name in ("ns-k8", "ns-k32")}
    ref["pressure"] = job("battery", seed, 0.0, 1, 0, deadline)["rounds"][0]["final"][0]
    (HERE / "reference.json").write_text(json.dumps(ref) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diskvort benchmark")
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=9.0, help="seconds of passes per run, after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload once, reduced length")
    ap.add_argument("--write-reference", action="store_true", help="store final coefficients at --seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diskvort" / "__init__.py").is_file():
        print(f"no diskvort sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = monotonic() + (900.0 if args.smoke else 175.0)
    if args.write_reference:
        write_reference(args.seed, deadline)
        return 0
    if args.smoke:
        names = tuple(WORKLOADS)
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        names = (args.workload,)

    total_attempted, total_failed, metrics = 0, [], {}
    for name in names:
        try:
            metrics, attempted, failed, records, values = run_workload(
                name, args.seed, args.seconds, args.trace, args.smoke, deadline
            )
        except JobFailed as exc:
            metrics, attempted, failed, records, values = {}, 1, [str(exc)], [], {}
        if records:
            print("# environment " + json.dumps(records[0]["environment"], sort_keys=True))
        report(name, args.seed, metrics, attempted, failed, records, values)
        total_attempted += attempted
        total_failed += failed
    correct = not total_failed
    print(json.dumps({
        "correct": correct,
        "attempted": total_attempted,
        "failed": len(total_failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
