"""Reference transforms kept for the tests: one (k, parity) group at a time.

These are the grid transforms as the package computed them before the
batched layer in ``PolarGrid``: per group, a radial profile stack built
from the table with scipy's Bessel functions, then an outer product
with cos/sin (k theta).  They read only the public grid nodes and
weights, so they check the batched layer's layout and tables
independently; d_r takes J_k' = J_{k-1} - (k/x) J_k from jv.

Also here: the analysis and the advection kernel as the package took
them before ``PolarGrid`` held the kernel's rows pre-scaled
(``analyze_two_matmuls``, ``advect_reference``: unscaled profiles, the
stream's -1/lambda and the Jacobian's 1/r applied per call, one matmul
for the blocks and one for the moments).

And the exponential step of one eigen-ordered field as the
package took it before ``semigroup.duhamel_step`` became the block
update (``duhamel_reference``, ETD1 or ETD2RK, its exp and phi factors
recomputed from lambda on every call, step i taking the forcing at
i dt and (i+1) dt as the runs do); the backward difference of
harmonic moments that the solver used for d/dt omega_B before it
differenced omega_B itself; and the closed forms and diagonal maps the
package no longer calls: one eigenfunction at scattered points, the
stream correction psi_B of the elliptic solve, the spectral Laplacian
and the exact heat semigroup.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from diskvort.fields import SpectralField, _harm_const
from diskvort.semigroup import phi1, phi2
from diskvort.specfun import bessel_j
from diskvort.spectrum import ModeIndex, radial_profiles


def _groups(table):
    groups: dict[tuple[int, str], list[int]] = {}
    for i, m in enumerate(table.modes):
        groups.setdefault((m.k, m.parity), []).append(i)
    return {key: sorted(pos, key=lambda i: table.modes[i].j) for key, pos in groups.items()}


def _profile(table, pos, k, r, kind, what):
    alpha = table.alpha[pos][:, None]
    cn = table.norm[pos][:, None]
    jk_at_1 = special.jv(k, alpha)
    if what == "d_r":
        rkm1 = r ** (k - 1) if k >= 1 else np.zeros_like(r)
        x = alpha * r
        # J_k' = J_{k-1} - (k/x) J_k; at k = 0 that is J_{-1} = -J_1
        prof = alpha * (special.jv(k - 1, x) - k / x * special.jv(k, x))
        lift = k * jk_at_1 * rkm1
    else:
        prof = special.jv(k, alpha * r)
        lift = jk_at_1 * r**k
    return cn * (prof - lift if kind == "stream" else prof)


def to_grid_groups(field: SpectralField, grid, what: str = "value") -> np.ndarray:
    """Samples of ``field`` (or d_r, d_theta) on the grid, group by group."""
    table = field.table
    out = np.zeros((grid.n_radial, grid.n_angular))
    for (k, parity), pos in _groups(table).items():
        radial = field.coeffs[pos] @ _profile(table, pos, k, grid.r, field.kind, "d_r" if what == "d_r" else "value")
        if what == "d_theta":
            ang = -k * np.sin(k * grid.theta) if parity == "cos" else k * np.cos(k * grid.theta)
        else:
            ang = np.cos(k * grid.theta) if parity == "cos" else np.sin(k * grid.theta)
        out += np.outer(radial, ang)
    return out


def from_grid_groups(values: np.ndarray, grid, table):
    """Eigen-span coefficients and the harmonic moment rows (2, K+1) of
    grid samples."""
    wr_r = grid.wr * grid.r
    coeffs = np.zeros(len(table))
    moments = np.zeros((2, table.K + 1))
    for (k, parity), pos in _groups(table).items():
        ang = np.cos(k * grid.theta) if parity == "cos" else np.sin(k * grid.theta)
        radial_signal = values @ (ang * grid.wtheta)
        coeffs[pos] = _profile(table, pos, k, grid.r, "vorticity", "value") @ (wr_r * radial_signal)
        moment = float(np.dot(wr_r * _harm_const(k) * grid.r**k, radial_signal))
        moments[0 if parity == "cos" else 1, k] = moment
    return SpectralField(table, coeffs, "vorticity"), moments


@lru_cache(maxsize=4)
def _unscaled_profiles(grid):
    """The value and d_r profiles and the unit harmonics at the grid's radii."""
    prof, harm = radial_profiles(grid.table, grid.r)
    return prof, harm[0]


def analyze_two_matmuls(grid, values):
    """Blocks (2, K+1, J) and harmonic moments (2, K+1) of grid samples:
    one matmul with the vorticity value profiles, one with the unit
    harmonics, against the angular and radial quadrature of the samples."""
    K = grid.table.K
    prof, harm = _unscaled_profiles(grid)
    signal = (values @ (grid.trig * grid.wtheta).T) * (grid.wr * grid.r)[:, None]
    signal = signal.reshape(grid.n_radial, 2, K + 1).transpose(2, 0, 1)  # (K+1, n_r, 2)
    blocks = np.matmul(prof[0, 0], signal).transpose(2, 0, 1)
    moments = np.matmul(harm[:, None, :], signal)[:, 0, :].T.copy()
    moments[1, 0] = 0.0  # there is no sin(0 theta) harmonic
    return blocks, moments


def advect_reference(w, grid, *, speed=True):
    """The advection kernel on blocks w (2, K+1, J) from the unscaled
    profiles: psi's blocks scaled by -1/lambda, one radial and one
    angular matmul, Lambda = (d_r psi d_theta omega - d_theta psi d_r
    omega) / r and |u| with its own 1/r (None if ``speed`` is false),
    then ``analyze_two_matmuls``.  Returns what ``nonlinear._advect``
    returns."""
    table = grid.table
    K, n_r, n_t = table.K, grid.n_radial, grid.n_angular
    prof, _ = _unscaled_profiles(grid)
    scale = table.to_blocks(-1.0 / table.lam)
    radial = np.matmul((w * np.stack([np.ones_like(scale), scale])).swapaxes(1, 2), prof)
    rows = radial.transpose(0, 1, 4, 3, 2).reshape(2, 2 * n_r, 2 * (K + 1))
    # d/dtheta of the cos rows, then of the sin rows; then the rows themselves
    kt = np.outer(np.arange(K + 1), grid.theta)
    k = np.arange(K + 1)[:, None]
    trig = np.concatenate([np.cos(kt), np.sin(kt)])
    d_trig = np.concatenate([-k * np.sin(kt), k * np.cos(kt)])
    jacobian_trig = np.stack([d_trig, trig])
    (dom_t, dpsi_t), (dom_r, dpsi_r) = np.matmul(rows, jacobian_trig).reshape(2, 2, n_r, n_t)
    lam_vals = (dpsi_r * dom_t - dpsi_t * dom_r) / grid.r[:, None]
    umax = math.sqrt(((dpsi_t / grid.r[:, None]) ** 2 + dpsi_r**2).max()) if speed else None
    projected, moments = analyze_two_matmuls(grid, lam_vals)
    return projected, moments, umax, lam_vals


def quadrature_drift(omega: SpectralField, grid) -> float:
    """Largest harmonic moment of the sampled field, by grid quadrature."""
    _, harm = from_grid_groups(to_grid_groups(omega, grid), grid, omega.table)
    return float(np.max(np.abs(harm)))


def advection_time_derivative(current, previous, dt: float) -> np.ndarray:
    """Backward difference of the harmonic moment rows of two advection
    results."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if current.harmonic.shape != previous.harmonic.shape:
        raise ValueError("harmonic moment rows of different shapes")
    return (current.harmonic - previous.harmonic) * (1.0 / dt)


def _angular(mode: ModeIndex, theta: np.ndarray) -> np.ndarray:
    if mode.k == 0:
        return np.ones_like(theta)
    arg = mode.k * theta
    return np.cos(arg) if mode.parity == "cos" else np.sin(arg)


def eigenfunction_eval(table, mode, r, theta) -> np.ndarray:
    """Pointwise values of one eigenfunction; r and theta broadcast."""
    if isinstance(mode, ModeIndex):
        n = table.position(mode)
    else:
        n = int(mode)
        if not (0 <= n < len(table)):
            raise IndexError(f"mode position {n} out of range [0, {len(table)})")
    m = table.modes[n]
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0 + 1e-12):
        raise ValueError("radial coordinate must lie in [0, 1]")
    radial = table.norm[n] * bessel_j(m.k, table.alpha[n] * r)
    return radial * _angular(m, theta)


def elliptic_stream_values(
    h: np.ndarray, nu: float, r, theta, what: str = "value"
) -> np.ndarray:
    """Closed-form stream correction psi_B with Delta psi_B = h/nu for
    cos/sin rows h (2, n) against the unit harmonics.

    Component-wise: a r^k trig maps to (a/nu)(r^{k+2}-r^k)/(4k+4) trig,
    which vanishes at r = 1.  ``what`` selects value or d_r.
    """
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    if what not in ("value", "d_r"):
        raise ValueError(f"what must be value|d_r, got {what!r}")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape)
    for k in range(h.shape[1]):
        for coeff, trig in ((h[0, k], np.cos), (h[1, k], np.sin)):
            if coeff == 0.0:
                continue
            amp = coeff * _harm_const(k) / nu  # raw amplitude of a r^k term
            if what == "value":
                rad = (r ** (k + 2) - r**k) / (4.0 * k + 4.0)
            elif k == 0:
                rad = 0.5 * r
            else:
                rad = ((k + 2) * r ** (k + 1) - k * r ** (k - 1)) / (4.0 * k + 4.0)
            out = out + amp * rad * trig(k * theta)
    return out


def laplacian(psi: SpectralField) -> SpectralField:
    """Exact inverse of biot_savart: coefficients scaled by -lambda."""
    if psi.kind != "stream":
        raise ValueError("laplacian expects a stream field")
    return SpectralField(psi.table, -psi.table.lam * psi.coeffs, "vorticity")


def propagate(field: SpectralField, nu: float, t: float) -> SpectralField:
    """Exact heat flow: coefficients scaled by e^{-nu lambda t}."""
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    factors = np.exp(-nu * field.table.lam * t)
    return SpectralField(field.table, factors * field.coeffs, field.kind)


def duhamel_reference(
    field: SpectralField,
    forcing_eval,
    nu: float,
    i: int,
    dt: float,
    scheme: str = "etd2rk",
) -> SpectralField:
    """Step i, from i dt to (i+1) dt, of u' = -nu lambda u + f(t) by an
    exponential integrator.

    etd1 is first order; etd2rk adds the phi2 correction from the
    forcing increment over the step (exponential trapezoid), second
    order for time-dependent forcing.
    """
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if scheme not in ("etd1", "etd2rk"):
        raise ValueError(f"scheme must be etd1|etd2rk, got {scheme!r}")
    lam = field.table.lam
    z = -nu * lam * dt
    f0 = forcing_eval(i * dt)
    if f0.table is not field.table or f0.kind != field.kind:
        raise ValueError("forcing field incompatible with the state field")
    new = np.exp(z) * field.coeffs + dt * phi1(z) * f0.coeffs
    if scheme == "etd2rk":
        f1 = forcing_eval((i + 1) * dt)
        if f1.table is not field.table or f1.kind != field.kind:
            raise ValueError("forcing field incompatible with the state field")
        new = new + dt * phi2(z) * (f1.coeffs - f0.coeffs)
    return SpectralField(field.table, new, field.kind)
