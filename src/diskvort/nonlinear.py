"""Advection term, its harmonic/admissible split, and the elliptic correction.

The advection of a vorticity field by its own Biot-Savart velocity is
the polar Jacobian

    Lambda = u . grad omega = (1/r)(d_r psi d_theta omega
                                    - d_theta psi d_r omega),

sampled pseudo-spectrally: one batched synthesis of the four derivative
fields, their product on the grid, and one analysis into the admissible
part (consumed by the parabolic track) and the harmonic moments
(consumed by the elliptic correction).  The same samples give the
largest speed |u| = |grad psi|, so the CFL guard needs no transform of
its own.  Because the stream dictionary is clamped at the boundary,
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
its (2, K+1, J) blocks once by the grid quadrature, and
``elliptic_correction`` keeps the grid-sampled solve that also returns
psi_B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    GridField,
    HarmonicExpansion,
    PolarGrid,
    SpectralField,
    _harm_const,
    biot_savart,
    from_grid,
)

__all__ = [
    "AdvectionResult",
    "advection",
    "velocity_max",
    "elliptic_correction",
    "elliptic_map",
    "elliptic_stream_values",
]

# (kind, what) of d_theta omega, d_theta psi, d_r omega, d_r psi, in the
# order of PolarGrid.PROFILES, so that the synthesis copies no profiles
_JACOBIAN_FIELDS = (
    ("vorticity", "d_theta"),
    ("stream", "d_theta"),
    ("vorticity", "d_r"),
    ("stream", "d_r"),
)


@dataclass
class AdvectionResult:
    """Bergman split of the advection term, its raw grid norm, and the
    largest grid speed of the advecting velocity."""

    projected: SpectralField
    harmonic: HarmonicExpansion
    raw_l2_norm: float
    umax: float


def _speed_max(dpsi_r: np.ndarray, dpsi_t: np.ndarray, grid: PolarGrid) -> float:
    # u_r = -d_theta psi / r, u_theta = d_r psi
    return float(np.sqrt(np.max((dpsi_t / grid.r[:, None]) ** 2 + dpsi_r**2)))


def advection(omega: SpectralField, grid: PolarGrid) -> AdvectionResult:
    """u . grad omega for u = perpendicular gradient of the stream."""
    if omega.kind != "vorticity":
        raise ValueError("advection expects a vorticity field")
    if grid.table is not omega.table:
        raise ValueError("grid was built for a different table")
    w = omega.table.to_blocks(omega.coeffs)
    psi = omega.table.to_blocks(biot_savart(omega).coeffs)
    dom_t, dpsi_t, dom_r, dpsi_r = grid.synthesize(np.stack([w, psi, w, psi]), _JACOBIAN_FIELDS)
    lam_vals = (dpsi_r * dom_t - dpsi_t * dom_r) / grid.r[:, None]
    raw = float(np.sqrt(max(grid.integrate(lam_vals**2), 0.0)))
    blocks, moments = grid.analyze(lam_vals)
    return AdvectionResult(
        projected=SpectralField(omega.table, omega.table.from_blocks(blocks), "vorticity"),
        harmonic=HarmonicExpansion(moments[0], moments[1]),
        raw_l2_norm=raw,
        umax=_speed_max(dpsi_r, dpsi_t, grid),
    )


def velocity_max(omega: SpectralField, grid: PolarGrid) -> float:
    """Max pointwise speed of the Biot-Savart velocity on the grid."""
    psi = omega.table.to_blocks(biot_savart(omega).coeffs)
    dpsi_t, dpsi_r = grid.synthesize(np.stack([psi, psi]), _JACOBIAN_FIELDS[1::2])
    return _speed_max(dpsi_r, dpsi_t, grid)


def elliptic_stream_values(
    h: HarmonicExpansion, nu: float, r, theta, what: str = "value"
) -> np.ndarray:
    """Closed-form stream correction psi_B with Delta psi_B = h/nu.

    Component-wise: a r^k trig maps to (a/nu)(r^{k+2}-r^k)/(4k+4) trig,
    which vanishes at r = 1.  ``what`` selects value or d_r (the
    elliptic solve needs values; tests probe the derivative too).
    """
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    if what not in ("value", "d_r"):
        raise ValueError(f"what must be value|d_r, got {what!r}")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape)
    for k in range(h.degree + 1):
        for coeff, trig in ((h.a[k], np.cos), (h.b[k], np.sin)):
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


def elliptic_correction(
    h: HarmonicExpansion, nu: float, grid: PolarGrid
) -> tuple[SpectralField, GridField]:
    """Admissible vorticity omega_B whose Laplacian carries moments h/nu.

    Returns (omega_B, psi_B sampled on the grid).  omega_B is the
    projection of the closed-form stream correction, so its own harmonic
    moments vanish by construction.
    """
    table = grid.table
    if h.degree > table.K:
        raise ValueError(
            f"harmonic degree {h.degree} exceeds table angular bound {table.K}"
        )
    rr, tt = grid.node_polar()
    vals = elliptic_stream_values(h, nu, rr, tt)
    psi_b = GridField(grid, vals)
    omega_b, _, _ = from_grid(psi_b, table)
    return omega_b, psi_b


def elliptic_map(grid: PolarGrid) -> np.ndarray:
    """Blocks E (2, K+1, J) of the elliptic correction: omega_B has
    blocks E[p, k, :] * h[p, k] / nu for the moments h[0] = h.a,
    h[1] = h.b.  Each column is the quadrature projection of the
    closed-form psi_B of one unit harmonic, as ``elliptic_correction``
    computes it on the grid."""
    k = np.arange(grid.table.K + 1)[:, None]
    return grid.project_radial(grid.harm * (grid.r**2 - 1.0) / (4.0 * k + 4.0))
