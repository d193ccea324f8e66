#!/usr/bin/env python3
"""Free decay of random vorticity on the unit disk.

Starts from a seeded random admissible field (unit enstrophy, no
harmonic moments), integrates the vorticity equation, and fits the
late-time exponential rates of the three Sobolev-scale norms.  Every
norm must decay at least as fast as nu times the fundamental
eigenvalue, approaching it from above as the slowest mode takes over.

Usage:
    python3 decaying_turbulence.py [--seed 7] [--nu 0.1] [--t-final 8.0] [--csv out.csv]
"""

import argparse
import dataclasses

from diskvort.fields import write_csv
from diskvort.semigroup import fit_decay_rate
from diskvort.solver import DiagnosticsRow, RunConfig, run
from diskvort.spectrum import build_table


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--nu", type=float, default=0.1)
    ap.add_argument("--t-final", type=float, default=8.0)
    ap.add_argument("--dt", type=float, default=2e-3)
    ap.add_argument("--csv", help="write the diagnostics table here")
    args = ap.parse_args()

    cfg = RunConfig(
        nu=args.nu,
        K=8,
        J=8,
        dt=args.dt,
        t_final=args.t_final,
        init_seed=args.seed,
        output_every=10,
    )
    print(f"running K=J=8, nu={args.nu}, dt={args.dt}, seed={args.seed} ...")
    traj = run(cfg)

    lam_f = build_table(0, 1).lambda_min
    floor = args.nu * lam_f
    print(f"slowest admissible rate nu*lambda_F = {floor:.4f}\n")
    print(f"{'norm':<14} {'fitted rate':>12} {'rate/floor':>12}")
    for label, pick in (
        ("energy", lambda d: d.energy),
        ("enstrophy", lambda d: d.enstrophy),
        ("palinstrophy", lambda d: d.palinstrophy_norm),
    ):
        fit = fit_decay_rate([(d.t, pick(d)) for d in traj.diagnostics])
        print(f"{label:<14} {fit.rate:>12.4f} {fit.rate / floor:>12.4f}")

    drift = max(d.moment_drift for d in traj.diagnostics)
    print(f"\nmax harmonic-moment drift over the run: {drift:.2e}")

    if args.csv:
        header = [field.name for field in dataclasses.fields(DiagnosticsRow)]
        write_csv(args.csv, header, (vars(row).values() for row in traj.diagnostics))
        print(f"diagnostics written to {args.csv}")


if __name__ == "__main__":
    main()
