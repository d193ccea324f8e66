"""Spans around calls into diskvort's public functions, kept in memory.

The package modules import each other by name (``from .fields import
to_grid``), so a wrapper must replace the function object in every
``diskvort.*`` module that holds it, not only in the defining module.
Classes are traced through their ``__init__``.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

import numpy as np

# the layers a traced run measures, as "<module>.<public name>"
TRACED = (
    "specfun.bessel_j",
    "specfun.bessel_j_zero",
    "spectrum.build_table",
    "fields.PolarGrid",
    "fields.to_grid",
    "fields.from_grid",
    "fields.biot_savart",
    "fields.newtonian_potential",
    "fields.greens_potential",
    "nonlinear.advection",
    "nonlinear.velocity_max",
    "nonlinear.elliptic_correction",
    "semigroup.duhamel_step",
    "solver.prepare",
    "solver.step",
    "solver.stokes_run",
    "solver.measure_moment_drift",
    "pressure.momentum_residual",
    "pressure.recover_pressure",
    "pressure.phi_of_u",
    "annulus.bergman_project",
    "annulus.omega_big",
    "annulus.newtonian_bs_annulus",
    "annulus.galerkin_spectra",
    "annulus.annulus_stokes_circulation",
)

STEP = "solver.step"


class Tracer:
    """Records one span per wrapped call: name, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(float("nan"))
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self, targets=TRACED) -> None:
        """Rebind every traced name in every loaded diskvort module."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("diskvort.")]
        for target in targets:
            mod_name, attr = target.split(".")
            owner = sys.modules[f"diskvort.{mod_name}"]
            obj = getattr(owner, attr)
            if isinstance(obj, type):
                obj.__init__ = self._wrap(target, obj.__init__)
                continue
            wrapper = self._wrap(target, obj)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        setattr(mod, key, wrapper)

    def layers(self) -> dict:
        """Per span name: calls, inclusive and self seconds, calls made
        inside a ``solver.step`` span, and every step's duration."""
        n = len(self.names)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        in_step = [False] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                in_step[i] = in_step[p] or self.names[p] == STEP
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "in_step": 0})
            rec["calls"] += 1
            rec["s"] += float(dur[i])
            rec["self_s"] += float(dur[i] - child[i])
            rec["in_step"] += int(in_step[i])
        if STEP in out:
            out[STEP]["durations"] = [float(d) for d, m in zip(dur, self.names) if m == STEP]
        return out
