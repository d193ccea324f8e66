"""Exact diagonal semigroup, exponential time differencing, decay fits.

The linear vorticity operator is diagonal in the eigenbasis, so its
semigroup is the exact mode-wise factor e^{-nu lambda t}; stiffness
never enters.  Inhomogeneous problems step by exponential time
differencing built on

    phi1(z) = (e^z - 1)/z,      phi2(z) = (e^z - 1 - z)/z^2.

phi1 is ``scipy.special.exprel``: within 2.2e-16 relative of the exact
value for every 1e-300 <= |z| <= 100 and 1 at z = +-0.  phi2 subtracts
z from expm1(z), losing about eps/|z| relative, so a 14-term Taylor
series takes over for |z| < 1/2, where the direct formula is back to a
few ulps and the series' truncation is below 1e-17.

``duhamel_step`` is the one ETD2RK update: it takes e^z, dt phi1 and
dt phi2 as arrays computed once per run, and serves the nonlinear step
and the linear run alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np
from scipy.special import exprel

from .fields import write_csv

__all__ = [
    "Trajectory",
    "DecayFit",
    "phi1",
    "phi2",
    "duhamel_step",
    "fit_decay_rate",
]

_PHI2_SERIES_CUT = 0.5
_PHI2_TAYLOR = tuple(1.0 / math.factorial(n + 2) for n in range(14))


def phi1(z):
    """(e^z - 1)/z, and its limit 1 at z = 0: ``scipy.special.exprel``."""
    out = exprel(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def phi2(z):
    """(e^z - 1 - z)/z^2 with a 14-term series branch for |z| < 1/2."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI2_SERIES_CUT
    out = np.empty_like(z)
    zs = z[small]
    series = np.zeros_like(zs)
    for c in reversed(_PHI2_TAYLOR):
        series = series * zs + c
    out[small] = series
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return out if out.ndim else float(out)


def duhamel_step(w, f0, stage2, exp_factor, phi1_dt, phi2_dt):
    """One ETD2RK step of w' = -nu lambda w + f(t) on coefficient arrays.

    ``exp_factor``, ``phi1_dt`` and ``phi2_dt`` are e^z, dt phi1(z) and
    dt phi2(z) at z = -nu lambda dt, as ``solver.prepare`` holds them.
    ``f0`` is the forcing at the start of the step and ``stage2(a)`` the
    forcing at its end, given the predictor a; the corrector adds dt phi2
    times the forcing increment (exponential trapezoid).
    """
    a = exp_factor * w + phi1_dt * f0
    return a + phi2_dt * (stage2(a) - f0)


@dataclass
class Trajectory:
    """Time-ordered states with aligned diagnostics rows."""

    times: np.ndarray
    states: tuple
    diagnostics: tuple

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = tuple(self.states)
        if self.times.ndim != 1 or self.times.size != len(self.states):
            raise ValueError("times and states must align")
        if self.times.size >= 2 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.diagnostics = tuple(self.diagnostics)
        if len(self.diagnostics) != self.times.size:
            raise ValueError("diagnostics must align with times")

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path) -> None:
        """The diagnostics rows, one CSV column per field."""
        names = [fld.name for fld in fields(self.diagnostics[0])]
        write_csv(path, names, ([getattr(row, n) for n in names] for row in self.diagnostics))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential-rate fit over a time window."""

    window: tuple[float, float]
    rate: float
    r_squared: float


def fit_decay_rate(series: Sequence[tuple[float, float]]) -> DecayFit:
    """Fit value ~ C e^{-rate t} by least squares in log over the window
    of the last half of the series' time span, where the transients of
    the higher modes have died first.  Nonpositive values inside the
    window are an error: the series is not in the exponential regime.
    """
    t, v = np.asarray(series, dtype=float).reshape(-1, 2).T
    if t.size < 2:
        raise ValueError("need at least 2 samples overall")
    window = (float(t[0] + 0.5 * (t[-1] - t[0])), float(t[-1]))
    inside = (window[0] <= t) & (t <= window[1])
    n = int(inside.sum())
    if n < 4:
        raise ValueError(f"need >= 4 samples inside window {window}, got {n}")
    ts, vals = t[inside], v[inside]
    if np.any(vals <= 0.0):
        raise ValueError("nonpositive values in window: not an exponential regime")
    logv = np.log(vals)
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    sol, *_ = np.linalg.lstsq(A, logv, rcond=None)
    ss_res = float(np.sum((logv - A @ sol) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if np.ptp(logv) > 0.0 else 1.0  # a flat series fits itself
    return DecayFit(window=window, rate=-float(sol[0]), r_squared=r2)
