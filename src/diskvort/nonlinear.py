"""Advection term, its harmonic/admissible split, and the elliptic correction.

The advection of a vorticity field by its own Biot-Savart velocity is
the polar Jacobian

    Lambda = u . grad omega = (1/r)(d_r psi d_theta omega
                                    - d_theta psi d_r omega),

sampled pseudo-spectrally.  The grid's kernel rows (``PolarGrid``)
carry Biot-Savart's -1/lambda and the value rows' 1/r, so omega's
blocks alone go through one radial and one angular matmul to the four
fields d_r omega, d_r psi, d_theta omega / r and d_theta psi / r.
Lambda is their product on the grid, with no division, and one
``PolarGrid.analyze`` matmul splits it into the admissible part
(consumed by the parabolic track) and the harmonic moments (consumed by
the elliptic correction): cos/sin rows (2, K+1) against the unit
harmonics c_k r^k, like every harmonic part in the package.  The same
samples give the largest speed |u| = |grad psi|, so the CFL guard needs
no transform of its own; a step's second stage, which the guard does
not read, asks the kernel not to form it.  Because the stream dictionary is clamped at the boundary,
u.n = 0 holds exactly and the classical identities survive
discretization: radial fields are steady, the pairing with the stream
vanishes, and the disk mean of Lambda is zero.

The elliptic correction inverts nu times the negative Laplacian on the
harmonic moments: for each component a r^k trig(k theta) of h, the
stream correction

    psi_B = (a/nu) (r^{k+2} - r^k)/(4k+4) trig(k theta)

satisfies Delta psi_B = h/nu with psi_B = 0 on the boundary (k = 0:
(a/nu)(r^2-1)/4), and omega_B is its admissible projection.  The sign
makes the harmonic moments of nu Delta omega_B equal +h, which is what
keeping the total vorticity admissible demands.  The map h -> omega_B
is linear and block-diagonal in (k, parity): ``elliptic_map`` computes
its (2, K+1, J) blocks once by the grid quadrature of the psi_B radial
profiles, and ``elliptic_correction`` applies them to one h and
synthesizes psi_B on the grid from the same profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GridField, PolarGrid, SpectralField, synthesize_rows

__all__ = [
    "AdvectionResult",
    "advection",
    "velocity_max",
    "elliptic_correction",
    "elliptic_map",
]


@dataclass
class AdvectionResult:
    """Bergman split of the advection term and the largest grid speed of
    the advecting velocity."""

    projected: SpectralField
    harmonic: np.ndarray  # cos/sin rows (2, K+1) against the unit harmonics
    umax: float


def _advect(w, grid: PolarGrid, *, speed=True):
    """The advection kernel on coefficient blocks (2, K+1, J).

    Returns the projected blocks, the harmonic moments (2, K+1), the
    largest grid speed |u| (None if ``speed`` is false: the step's
    second stage reads only the blocks) and the samples of Lambda.
    """
    # rows (order, field, (k, parity), n_r), order in (value / r, d_r), field in (omega, psi)
    radial = np.matmul(w.swapaxes(0, 1), grid.kernel_rows).reshape(2, 2, -1, grid.n_radial)
    (dom_t, dpsi_t), (dom_r, dpsi_r) = np.matmul(radial.swapaxes(2, 3), grid.jacobian_trig)
    # dom_t and dpsi_t are d_theta omega / r and d_theta psi / r
    lam_vals = dpsi_r * dom_t - dpsi_t * dom_r
    # u_r = -d_theta psi / r, u_theta = d_r psi
    umax = math.sqrt((dpsi_t * dpsi_t + dpsi_r * dpsi_r).max()) if speed else None
    projected, moments = grid.analyze(lam_vals)
    return projected, moments, umax, lam_vals


def advection(omega: SpectralField, grid: PolarGrid) -> AdvectionResult:
    """u . grad omega for u = perpendicular gradient of the stream."""
    if omega.kind != "vorticity":
        raise ValueError("advection expects a vorticity field")
    if grid.table is not omega.table:
        raise ValueError("grid was built for a different table")
    table = omega.table
    blocks, moments, umax, _ = _advect(table.to_blocks(omega.coeffs), grid)
    return AdvectionResult(
        projected=SpectralField(table, table.from_blocks(blocks), "vorticity"),
        harmonic=moments,
        umax=umax,
    )


def velocity_max(omega: SpectralField, grid: PolarGrid) -> float:
    """Max pointwise speed of the Biot-Savart velocity on the grid."""
    return advection(omega, grid).umax


def _elliptic_profiles(grid: PolarGrid) -> np.ndarray:
    """Radial profiles (K+1, n_radial) of psi_B per unit harmonic moment
    and unit nu: h_k(r) (r^2 - 1)/(4k + 4)."""
    k = np.arange(grid.table.K + 1)[:, None]
    return grid.harm * (grid.r**2 - 1.0) / (4.0 * k + 4.0)


def elliptic_correction(
    h: np.ndarray, nu: float, grid: PolarGrid
) -> tuple[SpectralField, GridField]:
    """Admissible vorticity omega_B whose Laplacian carries moments h/nu.

    ``h`` holds cos/sin rows (2, n) of wavenumbers 0..n-1 <= K against
    the unit harmonics.  Returns (omega_B, psi_B sampled on the grid):
    omega_B has the blocks of ``elliptic_map`` times h/nu, so its own
    harmonic moments vanish by construction.
    """
    table = grid.table
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != 2 or not 1 <= h.shape[1] <= table.K + 1:
        raise ValueError(f"harmonic rows must have shape (2, n <= {table.K + 1}), got {h.shape}")
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    amp = np.zeros((2, table.K + 1, 1))
    amp[:, : h.shape[1], 0] = h / nu
    omega_b = SpectralField(table, table.from_blocks(elliptic_map(grid) * amp), "vorticity")
    return omega_b, GridField(grid, synthesize_rows(amp * _elliptic_profiles(grid), grid.trig))


def elliptic_map(grid: PolarGrid) -> np.ndarray:
    """Blocks E (2, K+1, J) of the elliptic correction: omega_B has
    blocks E[p, k, :] * h[p, k] / nu for the cos/sin moment rows h.
    Each column is the quadrature projection of the psi_B
    of one unit harmonic."""
    return grid.project_radial(_elliptic_profiles(grid))
