"""Pressure recovery from the vorticity/stream solution.

For strong solutions with homogeneous boundary data the pressure is

    p = Phi[u] + nu H*(Q1-perp omega),   mean-normalized,

where Phi[u] is the H^1-mean solution of the variational problem

    (grad Phi, grad theta) = -((u.grad)u, grad theta)   for all theta,

and H* is the harmonic-conjugate map on the zero-mean harmonic part of
the vorticity trace extension.  Both are cos/sin rows (2, K+1) against
the unit harmonics c_k r^k, the package's one layout of a harmonic
part, so H* swaps the rows: (a, b) -> (-b, a).

All work runs on the shared Bessel-Fourier layer.  A field is a stack
of cos/sin rows (2, n_k, n_r), one radial function per angular
wavenumber: ``fields.radial_rows`` of the table's coefficient blocks
and the closed-form profiles of ``spectrum.radial_profiles`` (value
and d_r, with the stream's d_rr from the Bessel equation, so no sampled
data is differentiated anywhere).
d/dtheta is the row swap ``fields.d_theta_rows``, and samples are one
matmul with a cos/sin table.  The convective term has angular band 2K,
so it is sampled at 4K+4 angles, where ``fields.split_rows`` splits it
back into rows exactly.

The variational problem splits into independent radial two-point
problems, one per row, solved with piecewise-linear elements on a
uniform auxiliary radial grid (second order).  The tridiagonal systems
of all wavenumbers are assembled at once from element sums and solved
as one banded system.  The P1 layer is plain arrays, the mesh nodes
and the nodal values T (2, 2K+1, n_nodes) of Phi[u]'s rows, and
``_p1_rows`` is its one evaluator: T's rows and their d_r at any radii,
the caller's grid or the element midpoints.

The auxiliary basis, the mesh with the stream profiles at its
quadrature points and the dealiased cos/sin table, depends only on the
table and n_aux.  ``_aux_basis`` builds it once per (table, n_aux), in
chunks of points, and holds the last used: 8 * 12 n_aux (K+1) J bytes
of profiles, 101 MB at (K, J, n_aux) = (63, 64, 256).  The midpoint
profiles of ``momentum_residual``, ``_aux_mids``, add 5/12 of that.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .fields import (
    GridField,
    PolarGrid,
    SpectralField,
    biot_savart,
    d_theta_rows,
    radial_rows,
    split_rows,
    synthesize_rows,
    trace_extension,
    trig_table,
)
from .semigroup import Trajectory
from .specfun import gauss_legendre
from .spectrum import EigenTable, radial_profiles

__all__ = [
    "PressureField",
    "harmonic_conjugate",
    "phi_of_u",
    "recover_pressure",
    "momentum_residual",
]


def harmonic_conjugate(h: np.ndarray) -> np.ndarray:
    """Rotate each degree of cos/sin rows (2, n): r^k cos -> r^k sin,
    r^k sin -> -r^k cos.

    The mean component has no single-valued conjugate; a nonzero h[0, 0]
    is an error.  Applying the map twice negates the input.
    """
    if h[0, 0] != 0.0:
        raise ValueError(
            f"harmonic_conjugate requires zero mean component, got h[0, 0]={h[0, 0]}"
        )
    return np.stack([-h[1], h[0]])


# ---------------------------------------------------------------------------
# rows of the velocity and the convective term


def _dealiased_trig(K: int) -> np.ndarray:
    """Cos/sin table of wavenumbers 0..2K at 4K+4 uniform angles."""
    n = 4 * K + 4
    return trig_table(2 * K, 2.0 * np.pi * np.arange(n) / n)


def _velocity(psi_rows, r, trig) -> np.ndarray:
    """Samples (..., 6, n_r, n) of u_r, u_theta, d_r u_r, d_theta u_r,
    d_r u_theta and d_theta u_theta from the stream rows (..., 3, 2,
    n_k, n_r) of psi, d_r psi and d_rr psi.

    u_r = -(1/r) d_theta psi and u_theta = d_r psi.
    """
    s0, s1, s2 = np.moveaxis(psi_rows, -4, 0)
    t0, t1 = d_theta_rows(s0), d_theta_rows(s1)
    rows = np.stack([-t0 / r, s1, t0 / r**2 - t1 / r, -d_theta_rows(t0) / r, s2, t1], axis=-4)
    return synthesize_rows(rows, trig)


def _convective(u, r) -> tuple[np.ndarray, np.ndarray]:
    """(u.grad)u components F_r, F_theta from the samples of ``_velocity``."""
    u_r, u_t, dur_dr, dur_dt, dut_dr, dut_dt = u
    rc = r[:, None]
    F_r = u_r * dur_dr + (u_t / rc) * dur_dt - u_t**2 / rc
    F_t = u_r * dut_dr + (u_t / rc) * dut_dt + u_r * u_t / rc
    return F_r, F_t


# ---------------------------------------------------------------------------
# P1 radial solves


def _radial_mesh(n_elements: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform P1 mesh on [0, 1]: its nodes, and 4 Gauss points per
    element (flattened) with their plain dr weights."""
    if n_elements < 1:
        raise ValueError(f"need at least 1 radial element, got {n_elements}")
    nodes = np.linspace(0.0, 1.0, n_elements + 1)
    gx, gw = gauss_legendre(4, -1.0, 1.0)
    h = nodes[1] - nodes[0]
    qpts = (0.5 * (nodes[:-1] + nodes[1:])[:, None] + 0.5 * h * gx).ravel()
    qw = np.tile(0.5 * h * gw, n_elements)
    return nodes, qpts, qw


def _solve_radial(nodes, qpts, qw, f_r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Nodal values T (2, n_k, n_nodes) of one radial Neumann problem per
    cos/sin row of wavenumber k.

    Weak form with the r-Jacobian, for every P1 hat v:

        int (T' v' + k^2/r^2 T v) r dr = -int f_r v' r dr + int g v dr,

    on the mesh of ``_radial_mesh``, with f_r and g = d_theta f_theta
    given at its quadrature points qpts (shape (2, n_k, n_q)); natural BC
    at r = 1, T(0) pinned to zero (essential for k >= 1, a gauge fixed by
    the mean later for k = 0).
    The element sums give every k's tridiagonal matrix at once, and the
    matrices are solved as one block-diagonal banded system.
    """
    h = nodes[1] - nodes[0]
    n_el = nodes.size - 1

    def by_element(x):
        return x.reshape(x.shape[:-1] + (n_el, 4))

    r = by_element(qpts)
    wr = by_element(qw) * r
    v_right = (r - nodes[:-1, None]) / h
    v_left = 1.0 - v_right

    k2 = (np.arange(f_r.shape[1]) ** 2.0)[:, None]
    stiff = wr.sum(axis=1) / h**2
    mass = wr / r**2
    diag = np.zeros((k2.size, n_el + 1))
    diag[:, :-1] += stiff + k2 * (mass * v_left**2).sum(axis=1)
    diag[:, 1:] += stiff + k2 * (mass * v_right**2).sum(axis=1)
    off = -stiff + k2 * (mass * v_left * v_right).sum(axis=1)

    grad = (by_element(f_r) * wr).sum(axis=-1) / h
    gw = by_element(g) * by_element(qw)
    b = np.zeros(f_r.shape[:2] + (n_el + 1,))
    b[..., :-1] += grad + (gw * v_left).sum(axis=-1)
    b[..., 1:] += -grad + (gw * v_right).sum(axis=-1)

    # pin the origin: row 0 of every block keeps its diagonal, loses its
    # coupling to T(1) and has right side 0, so it reads T(0) = 0
    ab = np.zeros((3,) + diag.shape)
    ab[0, :, 2:] = off[:, 1:]
    ab[1] = diag
    ab[2, :, :-1] = off
    b[..., 0] = 0.0
    try:
        T = solve_banded((1, 1), ab.reshape(3, -1), b.reshape(2, -1).T)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"radial pressure solve failed: {exc}") from exc
    return T.T.reshape(b.shape)


# doubles per chunk of radii (8 MiB), six per radius and basis function:
# the four rows of the profile stack and two of the stream d_rr
_PROFILE_CHUNK = 2**20


def _stream_d_rr(table: EigenTable, r, prof) -> np.ndarray:
    """d_rr (K+1, J, r.size) of the stream profiles at the radii r, from
    their ``radial_profiles`` ``prof``.  Bessel's equation
    d_rr f = -d_r f / r + (k^2 / r^2 - alpha^2) f holds for each
    vorticity row e, and with alpha = 0 for the lift's r^k, so a stream
    row has d_rr phi = -d_r phi / r + (k^2 / r^2) phi - alpha^2 e."""
    k2 = (np.arange(table.K + 1) ** 2)[:, None, None]
    d_rr = (k2 / r**2) * prof[0, 1]
    d_rr -= prof[1, 1] / r
    d_rr -= table.lam[table.perm[0]][..., None] * prof[0, 0]
    return d_rr


@lru_cache(maxsize=1)
def _aux_basis(table: EigenTable, n_aux: int) -> tuple:
    """The auxiliary basis of ``table`` on ``n_aux`` elements, read-only
    ``(mesh, qpts_stream, trig)``: the ``_radial_mesh`` (nodes, qpts, qw),
    the stream profiles (value, d_r, d_rr) at qpts, (3, K+1, J, 4 n_aux),
    built in chunks of points, and the ``_dealiased_trig`` table.  Keyed
    on the table's identity; one basis is held at a time."""
    mesh = _radial_mesh(n_aux)
    qpts_stream = np.empty((3, table.K + 1, table.J, mesh[1].size))
    step = max(1, _PROFILE_CHUNK // (6 * (table.K + 1) * table.J))
    for s in range(0, mesh[1].size, step):
        r = mesh[1][s : s + step]
        prof = radial_profiles(table, r)[0]
        qpts_stream[:2, ..., s : s + step] = prof[:, 1]
        qpts_stream[2, ..., s : s + step] = _stream_d_rr(table, r, prof)
    trig = _dealiased_trig(table.K)
    for a in (*mesh, qpts_stream, trig):
        a.flags.writeable = False  # shared by every call on this (table, n_aux)
    return mesh, qpts_stream, trig


@lru_cache(maxsize=1)
def _aux_mids(table: EigenTable, n_aux: int) -> tuple:
    """Read-only (r, stream, vorticity, harm) at the element midpoints r
    of the auxiliary mesh: the stream profiles (value, d_r, d_rr), the
    vorticity value and d_r, and unit harmonics.  Built on first use,
    one held."""
    nodes = _radial_mesh(n_aux)[0]
    r = 0.5 * (nodes[:-1] + nodes[1:])
    prof, harm = radial_profiles(table, r)
    stream = np.concatenate([prof[:, 1], _stream_d_rr(table, r, prof)[None]])
    mids = (r, stream, np.ascontiguousarray(prof[:, 0]), harm)
    for a in mids:
        a.flags.writeable = False
    return mids


def _phi_tables(omega: SpectralField, n_aux: int) -> tuple[np.ndarray, np.ndarray]:
    """The auxiliary mesh's nodes and the nodal values T (2, 2K+1,
    n_nodes) of the cos/sin rows of Phi[u] there."""
    table = omega.table
    (nodes, r, qw), stream, trig = _aux_basis(table, n_aux)
    psi_rows = radial_rows(table.to_blocks(biot_savart(omega).coeffs), stream)
    F_r, F_t = split_rows(np.stack(_convective(_velocity(psi_rows, r, trig), r)), trig)
    return nodes, _solve_radial(nodes, r, qw, F_r, d_theta_rows(F_t))


def _p1_rows(nodes: np.ndarray, T: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Value and d_r rows (2, ..., r.size) of the P1 rows with nodal
    values T (..., nodes.size) at the radii r."""
    e = np.clip(np.searchsorted(nodes, r, side="right") - 1, 0, nodes.size - 2)
    slope = (T[..., e + 1] - T[..., e]) / (nodes[e + 1] - nodes[e])
    return np.stack([slope * (r - nodes[e]) + T[..., e], slope])


def phi_of_u(omega: SpectralField, grid: PolarGrid, n_aux: int = 256) -> GridField:
    """Variational convective potential Phi[u] sampled on the grid."""
    if omega.kind != "vorticity":
        raise ValueError("phi_of_u expects a vorticity field")
    if grid.table is not omega.table:
        raise ValueError("grid was built for a different table")
    nodes, T = _phi_tables(omega, n_aux)
    vals = synthesize_rows(_p1_rows(nodes, T, grid.r)[0], trig_table(T.shape[1] - 1, grid.theta))
    return GridField(grid, vals - grid.integrate(vals) / np.pi)


class PressureField(GridField):
    """Zero-mean pressure samples on a polar grid."""

    csv_column = "p"


def _conjugate_rows(omega: SpectralField) -> np.ndarray:
    """Cos/sin rows (2, K+1) of H* of the zero-mean vorticity trace
    extension, against the unit harmonics."""
    extension = trace_extension(omega)
    extension[0, 0] = 0.0  # the constant shifts p by a constant; the mean
    # normalization absorbs it, and only the zero-mean part has a conjugate
    return harmonic_conjugate(extension)


def recover_pressure(
    omega: SpectralField, nu: float, grid: PolarGrid, n_aux: int = 256
) -> PressureField:
    """p = Phi[u] + nu H*(trace extension of omega), mean-normalized."""
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    phi = phi_of_u(omega, grid, n_aux)
    conj = nu * _conjugate_rows(omega)[:, :, None] * grid.harm
    vals = phi.values + synthesize_rows(conj, grid.trig)
    return PressureField(grid=grid, values=vals - grid.integrate(vals) / np.pi)


# ---------------------------------------------------------------------------
# momentum residual


def momentum_residual(
    trajectory: Trajectory, index: int, nu: float, grid: PolarGrid, n_aux: int = 256
) -> float:
    """Normalized primitive-variable momentum defect at one output time.

    Builds d_t u (centered in the trajectory's output times), the
    convective term, nu Delta u = nu grad-perp omega, and grad p from
    the recovered pressure, all evaluated at auxiliary element midpoints
    crossed with a dealiased angular sampling; returns

        || d_t u + (u.grad)u - nu Delta u + grad p ||_{L^2}
        / (|| grad p ||_{L^2} + || d_t u ||_{L^2}).

    ``grid`` is not read: every sample lies on the auxiliary mesh.  It
    stays in the signature because the benchmark's jobs call it so.
    """
    if not (0 < index < len(trajectory) - 1):
        raise ValueError(
            f"index {index} cannot be centered in a trajectory of length {len(trajectory)}"
        )
    if not (nu > 0.0):
        raise ValueError(f"viscosity must be positive, got {nu}")
    states = trajectory.states[index - 1 : index + 2]
    span = trajectory.times[index + 1] - trajectory.times[index - 1]
    w_cur = states[1]

    table = w_cur.table
    _, _, trig = _aux_basis(table, n_aux)
    r, stream, vort, harm = _aux_mids(table, n_aux)

    # velocity of the three states from one set of stream profiles
    psi = table.to_blocks(np.stack([biot_savart(w).coeffs for w in states]))
    u = _velocity(radial_rows(psi[:, None], stream), r, trig)
    dudt_r, dudt_t = (u[2, :2] - u[0, :2]) / span
    F_r, F_t = _convective(u[1], r)

    # nu Delta u = nu grad-perp omega
    om0, om1 = radial_rows(table.to_blocks(w_cur.coeffs), vort)
    lap_r, lap_t = synthesize_rows(np.stack([-d_theta_rows(om0) / r, om1]), trig)

    # grad p at the midpoints: rows of p and d_r p there, with the
    # conjugate part added to the first K+1 wavenumbers
    p_rows = _p1_rows(*_phi_tables(w_cur, n_aux), r)
    p_rows[:, :, : table.K + 1] += nu * _conjugate_rows(w_cur)[:, :, None] * harm[:, None]
    dp_r, dp_t = synthesize_rows(np.stack([p_rows[1], d_theta_rows(p_rows[0]) / r]), trig)

    res_r = dudt_r + F_r - nu * lap_r + dp_r
    res_t = dudt_t + F_t - nu * lap_t + dp_t

    def l2(a, b):  # the midpoint rule, but for constant factors that cancel in the quotient
        return float(np.sqrt(np.sum(r[:, None] * (a * a + b * b))))

    scale = l2(dp_r, dp_t) + l2(dudt_r, dudt_t)
    if scale == 0.0:
        return 0.0
    return l2(res_r, res_t) / scale
