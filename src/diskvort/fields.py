"""Spectral fields on the disk: norms, projections, Biot-Savart, grids.

A ``SpectralField`` stores coefficients against an ``EigenTable`` with a
``kind`` tag.  Vorticity coefficients w_n expand in the eigenfunctions
e_n; stream coefficients t_n expand in the lifted dictionary

    phi_n(r, theta) = c_n [J_k(sqrt(lam) r) - J_k(sqrt(lam)) r^k] trig,

which satisfies Delta phi_n = -lam_n e_n and has both value and normal
derivative zero at r = 1.  That makes the diagonal maps exact:

* ``biot_savart``: t_n = -w_n / lam_n solves Delta psi = omega with the
  clamped boundary conditions (its inverse, the Laplacian, is the
  multiplication by -lam_n),
* ``norm_at(field, m)``: sqrt(sum lam^m w^2) for vorticity and
  sqrt(sum lam^{m+1} t^2) for streams, so the Biot-Savart isometry
  norm_at(omega, m) == norm_at(psi, m+1) holds to a relative 1e-14.

Grid work uses a Gauss-Legendre radial rule times a uniform angular
rule.  The transform is a dense radial matrix per angular wavenumber
followed by an angular DFT, and ``radial_rows`` is the one product of
coefficient blocks with profiles.  ``PolarGrid`` scales the value and
d_r stack of ``spectrum.radial_profiles`` once, in place, into the rows
the advection kernel (``nonlinear._advect``) multiplies: psi per unit
omega (Biot-Savart's -1/lambda) and value rows over r.  Its one
``analysis`` matrix gives blocks and harmonic moments in one matmul;
``PolarGrid.synthesize`` undoes the scalings on its own path.
``from_grid`` is the discrete orthogonal decomposition into the
eigen-span, the harmonic span (low-degree harmonic polynomials), and a
reported remainder; nothing is dropped silently.

A harmonic part has one layout: cos/sin rows (2, K+1) against the
L^2-orthonormal unit harmonics c_k r^k {cos, sin}(k theta), whose c_k r^k
profiles are ``PolarGrid.harm``: the moments of ``from_grid`` and
``PolarGrid.analyze``, and ``trace_extension`` (from the table's lift).

``write_csv`` is the one writer of every CSV file the package emits:
numbers carry 17 significant digits, so a file round-trips every float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legvander

from .specfun import gauss_legendre, is_integer
from .spectrum import EigenTable, ModeIndex, _harm_const, radial_profiles

__all__ = [
    "SpectralField",
    "PolarGrid",
    "GridField",
    "NewtonianResult",
    "grid_size_problems",
    "norm_at",
    "biot_savart",
    "to_grid",
    "from_grid",
    "newtonian_potential",
    "greens_potential",
    "trace_extension",
    "trig_table",
    "d_theta_rows",
    "radial_rows",
    "synthesize_rows",
    "synthesize_points",
    "split_rows",
    "write_csv",
]

_KINDS = ("vorticity", "stream")


class SpectralField:
    """Coefficient vector over an EigenTable plus a vorticity/stream tag."""

    __slots__ = ("table", "coeffs", "kind")

    def __init__(self, table: EigenTable, coeffs, kind: str):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(table),):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match table with "
                f"{len(table)} modes"
            )
        self.table = table
        self.coeffs = coeffs
        self.kind = kind

    @classmethod
    def zeros(cls, table: EigenTable) -> "SpectralField":
        """The zero vorticity field."""
        return cls(table, np.zeros(len(table)), "vorticity")

    @classmethod
    def from_mode(cls, table: EigenTable, mode: ModeIndex) -> "SpectralField":
        """The vorticity field of one eigenfunction, unit amplitude."""
        c = np.zeros(len(table))
        c[table.position(mode)] = 1.0
        return cls(table, c, "vorticity")

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.table, self.coeffs * float(scalar), self.kind)

    __rmul__ = __mul__


def norm_at(field: SpectralField, index: int) -> float:
    """Scale-of-spaces norm: level ``index`` of the vorticity chain, or of
    the stream chain for stream-tagged fields (one power of lambda up)."""
    if not (is_integer(index) and -4 <= index <= 4):
        raise ValueError(f"norm index must be an integer in [-4, 4], got {index!r}")
    power = index if field.kind == "vorticity" else index + 1
    return math.sqrt(np.vecdot(field.table.lam**power, field.coeffs**2))


def biot_savart(omega: SpectralField) -> SpectralField:
    """Stream function with Delta psi = omega, clamped boundary."""
    if omega.kind != "vorticity":
        raise ValueError("biot_savart expects a vorticity field")
    return SpectralField(omega.table, -omega.coeffs / omega.table.lam, "stream")


# ---------------------------------------------------------------------------
# grids


def trig_table(kmax: int, theta) -> np.ndarray:
    """Rows cos(k theta), k = 0..kmax, then sin(k theta): (2(kmax+1), n)."""
    kt = np.outer(np.arange(kmax + 1), theta)
    return np.concatenate([np.cos(kt), np.sin(kt)])


@lru_cache(maxsize=None)
def _d_theta_factor(n_k: int) -> np.ndarray:
    k = np.arange(n_k)
    factor = np.stack([k, -k])[:, :, None].astype(float)
    factor.flags.writeable = False  # shared by every caller
    return factor


def d_theta_rows(c) -> np.ndarray:
    """d/dtheta of cos/sin rows c (..., 2, n_k, m) of wavenumbers
    0..n_k-1: the cos and sin rows swap, scaled by +-k."""
    return _d_theta_factor(c.shape[-2]) * c[..., ::-1, :, :]


def radial_rows(blocks, prof) -> np.ndarray:
    """Cos/sin rows (..., 2, K+1, n_r) of coefficient blocks
    (..., 2, K+1, J) against radial profiles (..., K+1, J, n_r)."""
    return np.matmul(np.swapaxes(blocks, -3, -2), prof).swapaxes(-3, -2)


def synthesize_rows(rows, trig) -> np.ndarray:
    """Samples (..., n_r, n_theta) of cos/sin rows (..., 2, n_k, n_r);
    ``trig`` is a ``trig_table`` with at least n_k wavenumbers."""
    n_k, n_r = rows.shape[-2:]
    trig = trig.reshape(2, -1, trig.shape[-1])[:, :n_k].reshape(2 * n_k, -1)
    flat = rows.swapaxes(-1, -2).swapaxes(-2, -3).reshape(-1, 2 * n_k)
    return (flat @ trig).reshape(rows.shape[:-3] + (n_r, trig.shape[-1]))


def synthesize_points(rows, r, theta) -> np.ndarray:
    """Values at broadcast (r, theta) of cos/sin rows (2, n_k, r.size) of
    radial factors at the points of r: one matmul where r is constant
    along theta's only axis (a tensor grid), else one ``vecdot``."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    trig = trig_table(rows.shape[1] - 1, theta.ravel())
    if r.shape[-1:] == (1,) and theta.shape[-1:] == (theta.size,):
        return synthesize_rows(rows, trig).reshape(np.broadcast_shapes(r.shape, theta.shape))
    rows = rows.reshape(trig.shape[0], -1).T.reshape(r.shape + (-1,))
    return np.vecdot(rows, trig.T.reshape(theta.shape + (-1,)))


def split_rows(values, trig) -> np.ndarray:
    """Cos/sin rows (..., 2, n_k, n_r) of samples (..., n_r, n) at the n
    uniform angles of ``trig``: the transpose of ``synthesize_rows``,
    exact for wavenumbers below n/2."""
    n_k = trig.shape[0] // 2
    weight = np.where(np.arange(n_k) == 0, 1.0, 2.0) / trig.shape[1]
    rows = (values @ trig.T).reshape(values.shape[:-1] + (2, n_k))
    return np.moveaxis(rows * weight, -3, -1)


def write_csv(path, header, rows) -> None:
    """One comma-separated line for ``header`` and for each row; strings
    are written as they are, numbers with 17 significant digits."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")


def grid_size_problems(K, J, n_radial, n_angular) -> list[str]:
    """What is wrong with the grid counts for a table of size (K, J), in
    ``PolarGrid``'s order: one message per problem, empty if the grid is
    admissible.  ``None`` is the default count, which always is.  The
    angular count must beat the quadratic-nonlinearity aliasing bound
    max(2K+2, 3K+1), and the radial count must be at least J + 2."""
    problems = [
        f"{name} must be an integer, got {count!r}"
        for name, count in (("n_radial", n_radial), ("n_angular", n_angular))
        if count is not None and not is_integer(count)
    ]
    if is_integer(K) and is_integer(n_angular):
        floor = max(2 * K + 2, 3 * K + 1)
        if n_angular < floor:
            problems.append(f"angular count {n_angular} under aliasing floor {floor} for K={K}")
    if is_integer(J) and is_integer(n_radial) and n_radial < J + 2:
        problems.append(f"radial count {n_radial} too small for J={J}")
    return problems


class PolarGrid:
    """Gauss-Legendre (radial) x uniform (angular) tensor grid for one
    table; ``grid_size_problems`` says which counts it refuses.

    The transforms work on the table's coefficient blocks (2, K+1, J),
    ``EigenTable.to_blocks``.  Built once here, from the profiles of
    ``spectrum.radial_profiles``:

    * ``kernel_rows``, shape (2, 2, K+1, J, n_radial): by (order, field),
      the value rows over r and the d_r rows of omega and of psi per
      unit omega (stream profiles times -1/lambda): the profile stack
      itself, scaled in place, not a copy;
    * ``harm``, shape (K+1, n_radial): the unit harmonic profiles
      h_k(r) = c_k r^k;
    * ``analysis``, shape (K+1, J+1, n_radial): the vorticity value
      profiles and h_k times the weights r w_r, for ``analyze``;
    * ``trig``, shape (2(K+1), n_angular): rows cos(k theta), k = 0..K,
      then sin(k theta);
    * ``jacobian_trig``, shape (2, 1, 2(K+1), n_angular): d/dtheta of
      the ``trig`` rows, then ``trig``, with rows ordered (k, parity),
      for the advection kernel's one angular matmul.

    Synthesis is one batched radial matmul, ``radial_rows``, plus one
    angular matmul.  Analysis is the transpose.
    """

    def __init__(self, table: EigenTable, n_radial: int | None = None, n_angular: int | None = None):
        K, J = table.K, table.J
        problems = grid_size_problems(K, J, n_radial, n_angular)
        if problems:
            raise ValueError("; ".join(problems))
        if n_radial is None:
            n_radial = 2 * J + K + 8
        if n_angular is None:
            n_angular = 3 * K + 2
        self.table = table
        self.r, self.wr = gauss_legendre(n_radial, 0.0, 1.0)
        self.n_radial = int(n_radial)
        self.n_angular = int(n_angular)
        self.theta = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        self.wtheta = 2.0 * np.pi / self.n_angular

        self.trig = trig_table(K, self.theta)
        self._trig_w = self.trig * self.wtheta
        # the angular quadrature of trig^2: pi, or 2 pi for k = 0 cos, 0 for k = 0 sin
        self._trig_norm = (self.trig**2).sum(axis=1).reshape(2, K + 1) * self.wtheta

        prof, harm = radial_profiles(table, self.r)
        self.harm = harm[0]
        self.analysis = np.concatenate([prof[0, 0], self.harm[:, None]], axis=1) * (self.wr * self.r)
        prof[:, 1] *= (-1.0 / table.lam[table.perm[0]])[..., None]
        prof[0] /= self.r
        self.kernel_rows = prof
        d_trig = -d_theta_rows(self.trig.reshape(2, K + 1, -1))
        by_k = np.stack([d_trig, self.trig.reshape(d_trig.shape)]).swapaxes(1, 2)
        self.jacobian_trig = by_k.reshape(2, 1, 2 * (K + 1), -1)

    def synthesize(self, blocks, kind: str) -> np.ndarray:
        """Grid samples (n_radial, n_angular) of one field of the given
        kind from its blocks (2, K+1, J)."""
        i = _KINDS.index(kind)
        omega = blocks * self.table.to_blocks(-self.table.lam) if i else blocks  # psi rows per unit omega
        return synthesize_rows(radial_rows(omega, self.kernel_rows[0, i]) * self.r, self.trig)

    def analyze(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature projection of samples (n_radial, n_angular): the
        eigen-span blocks (2, K+1, J) and the harmonic moments (2, K+1)
        against the unit harmonics h_k {cos, sin}(k theta), both from
        one matmul with ``analysis``."""
        signal = (self._trig_w @ np.asarray(values).T).reshape(2, -1, self.n_radial)
        out = np.matmul(signal.swapaxes(0, 1), self.analysis.swapaxes(1, 2)).swapaxes(0, 1)
        return out[..., :-1], out[..., -1]

    def project_radial(self, profiles) -> np.ndarray:
        """Eigen-span blocks (2, K+1, J) of the functions
        profiles[k](r) {cos, sin}(k theta), by the grid quadrature."""
        radial = np.einsum("kjr,kr->kj", self.analysis[:, :-1], np.asarray(profiles))
        return self._trig_norm[:, :, None] * radial

    def node_polar(self):
        """Meshgrid arrays (n_radial, n_angular) of r and theta."""
        return np.meshgrid(self.r, self.theta, indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Disk integral of a sampled function (Jacobian r included)."""
        values = np.asarray(values)
        if values.shape != (self.n_radial, self.n_angular):
            raise ValueError("value shape does not match grid")
        return float(self.wtheta * np.dot(self.wr * self.r, values.sum(axis=1)))


@dataclass
class GridField:
    """Sampled values over a PolarGrid, row = radial node, column = angle.

    ``to_csv`` writes one ``r,theta,<csv_column>`` row per node; a
    subclass names its own column.
    """

    grid: PolarGrid
    values: np.ndarray
    csv_column = "value"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_radial, self.grid.n_angular):
            raise ValueError(
                f"value shape {self.values.shape} does not match grid "
                f"({self.grid.n_radial}, {self.grid.n_angular})"
            )

    def to_csv(self, path) -> None:
        rr, tt = self.grid.node_polar()
        write_csv(path, ("r", "theta", self.csv_column), zip(rr.flat, tt.flat, self.values.flat))


def to_grid(field: SpectralField, grid: PolarGrid) -> GridField:
    """Pointwise samples of the field on the grid's nodes."""
    if grid.table is not field.table:
        raise ValueError("grid was built for a different table")
    return GridField(grid, grid.synthesize(field.table.to_blocks(field.coeffs), field.kind))


def from_grid(values: GridField, table: EigenTable):
    """Discrete orthogonal decomposition of a sampled function.

    Returns ``(spectral, moments, residual)``: the projection onto the
    eigen-span, the cos/sin rows (2, K+1) of the projection onto the
    unit harmonics, and the grid L^2 norm of what neither part
    represents.
    """
    grid = values.grid
    if grid.table is not table:
        raise ValueError("grid was built for a different table")
    blocks, moments = grid.analyze(values.values)
    spectral = SpectralField(table, table.from_blocks(blocks), "vorticity")
    harmonic = synthesize_rows(moments[:, :, None] * grid.harm, grid.trig)
    rec = grid.synthesize(blocks, "vorticity") + harmonic
    residual = float(np.sqrt(grid.integrate((values.values - rec) ** 2)))
    return spectral, moments, residual


def trace_extension(omega: SpectralField) -> np.ndarray:
    """Cos/sin rows (2, K+1) against the unit harmonics of the harmonic
    polynomial with the boundary trace of a vorticity field.

    omega minus this polynomial vanishes on the boundary: it is the
    H^1_0 representative whose Bergman projection is omega.
    """
    if omega.kind != "vorticity":
        raise ValueError("trace_extension expects a vorticity field")
    table = omega.table
    # the vorticity profile c J_k(alpha r) at r = 1 is the table's lift,
    # and the unit harmonic c_k r^k is c_k there
    trace = np.sum(table.to_blocks(omega.coeffs * table.lift), axis=-1)
    return trace / _harm_const(np.arange(table.K + 1))


# ---------------------------------------------------------------------------
# log-kernel potentials (verification, not a solver path)

# the panel edges 16^-k that grade [rho, 1] toward the singular ln r at
# the center: no panel but the innermost, which ends at 16^-12, spans a
# ratio above 16
_GRADED = 16.0 ** -np.arange(12, 0, -1)


@lru_cache(maxsize=8)
def _legendre_analysis(n: int) -> np.ndarray:
    """(n, n): the orthonormal Legendre coefficients of the degree n - 1
    interpolant of values on the n-point Gauss nodes, any interval."""
    x, w = gauss_legendre(n, -1.0, 1.0)
    return np.ascontiguousarray(legvander(x, n - 1).T * w * np.sqrt(np.arange(n) + 0.5)[:, None])


def _panel_points(dens, m) -> int:
    """Gauss points per panel of a split radial integral over the rows
    ``dens`` (n_r, len(m)) at bins ``m``: max(32, (D + 1) / 2) takes the
    [lo, rho] integrand, a row times s (s / rho)^m, exactly.  Its degree
    is D = d + max(m) + 1, d the rows' last Legendre degree above 1e-12
    of their largest coefficient; below sits the samples' rounding.  The
    same count held the smooth [rho, 1] panels within 1e-13 of 256
    points on unit-coefficient rows up to alpha 205."""
    coef = np.max(np.abs(_legendre_analysis(len(dens)) @ dens.view(float)), axis=1, initial=0.0)
    degree = np.max(np.flatnonzero(coef > 1e-12 * coef.max()), initial=0)
    return max(32, -(-(degree + int(m.max(initial=0)) + 2) // 2))


def _log_potential(r, wr, values, r2, phi, lo=0.0, image=False):
    """(1/2pi) int ln|x - y| f(y) dy at the points x with |x|^2 = ``r2``
    and angle ``phi`` (broadcast), for f sampled as ``values`` (n_r, n)
    on radial nodes ``r`` (Gauss weights ``wr`` on (lo, 1)) times the
    angles 2 pi j / n.  With ``image`` the disk Green function's image
    term joins the kernel.

    ln|x - y| = ln max(rho, r) - sum_{m >= 1} (q^m / m) cos m(theta - phi),
    q = min / max, and the image term adds (rho r)^m / m.  Over each
    radial row's trigonometric interpolant that is one rfft per row, kept
    at the bins above 1e-14 of the largest, and per distinct r2 one row
    of angular coefficients, a radial integral that the points' angles
    synthesize.  The coefficients kink at r = rho: for rho up to the last
    node (and above ``lo`` unless lo = 0) the integral runs over each
    row's Legendre interpolant, barycentric from the nodes, by a Gauss
    rule sized to the rows (``_panel_points``) on [lo, rho] and on each
    panel of [rho, 1] split at ``_GRADED``.  Elsewhere the nodes take the
    kernel, smooth over them: off an annulus, outside the disk and past
    the last node, where they miss its kink at rho, an error of order
    (1 - rho)^2 |f|.  There the Green coefficient
    q^m expm1(2 m ln rho) / m, ln rho = log1p(r2 - 1) / 2, keeps the
    potential proportional to 1 - r2 of the stored point; the interpolant
    extrapolated past the last node would not (on the wall-limit test's
    white noise its [rho, 1] part reads 2.8e-4 against the bound 1e-4).
    """
    n = values.shape[1]
    dens = np.fft.rfft(values)
    size = np.max(np.abs(dens), axis=0)
    top = size.max()  # a sample that is not finite keeps every bin
    m = np.flatnonzero((size > 1e-14 * top) | ~np.isfinite(top))
    dens = np.ascontiguousarray(dens[:, m])
    r2, phi = np.broadcast_arrays(np.asarray(r2, dtype=float), np.asarray(phi, dtype=float))
    radii, inverse = np.unique(r2, return_inverse=True)
    beta = (-1.0) ** np.arange(r.size) * np.sqrt((r - lo) * (1.0 - r) * wr)  # barycentric
    rows = np.empty((radii.size, m.size), dtype=complex)
    panel = None  # sized on the first split integral
    # ln rho at the center is never read; s on a node gives 0 / 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, sq in zip(rows, radii):
            rho = np.sqrt(sq)
            s, w, trans = r, wr, dens
            if rho <= r[-1] and (rho > lo or lo == 0.0):
                if panel is None:
                    panel = gauss_legendre(_panel_points(dens, m), 0.0, 1.0)
                edges = np.unique(np.r_[lo, rho, _GRADED[_GRADED > rho], 1.0])
                width = np.diff(edges)[:, None]
                s, w = (edges[:-1, None] + width * panel[0]).ravel(), (width * panel[1]).ravel()
                interp = beta / (s[:, None] - r)
                interp /= interp.sum(axis=1, keepdims=True)
                interp[np.isnan(interp)] = 1.0  # s on a node takes its sample
                trans = (interp @ dens.view(float)).view(complex)
            log_rho = 0.5 * (np.log1p(sq - 1.0) if sq > 0.5 else np.log(sq))
            log_hi = np.where(s < rho, log_rho, np.log(s))
            q = np.minimum(s, rho) / np.maximum(s, rho)
            kern = q[:, None] ** m / (2.0 * np.maximum(m, 1))
            kern *= np.expm1(2.0 * m * log_hi[:, None]) if image else -1.0
            kern[:, m == 0] = log_hi[:, None]
            row[:] = np.sum((w * s)[:, None] * kern * trans, axis=0)
    # with the 1/2 above: bins 0 < m < n/2 count with their conjugates,
    # the Nyquist bin alone; 1/n is the angular weight 2 pi / n over 2 pi
    weight = np.where((m == 0) | (2 * m == n), 1.0, 2.0) / n
    phase = np.exp(1j * m * phi.reshape(-1, 1))
    return np.sum((rows[inverse.ravel()] * weight * phase).real, axis=-1).reshape(r2.shape)


@dataclass
class NewtonianResult:
    """Potential values and a per-point flag, always False, that the
    benchmark's potential gate reads."""

    values: np.ndarray
    near_node: np.ndarray


def _grid_potential(omega_samples: GridField, eval_points, image: bool) -> NewtonianResult:
    """Log-kernel (or Green, with ``image``) potential of grid samples."""
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("eval_points must have shape (n, 2)")
    r2 = np.sum(pts**2, axis=1)
    if image and np.any(r2 >= 1.0):
        raise ValueError("greens_potential is defined for interior points only")
    grid, phi = omega_samples.grid, np.arctan2(pts[:, 1], pts[:, 0])
    vals = _log_potential(grid.r, grid.wr, omega_samples.values, r2, phi, image=image)
    return NewtonianResult(values=vals, near_node=np.zeros(len(pts), dtype=bool))


def newtonian_potential(omega_samples: GridField, eval_points) -> NewtonianResult:
    """psi(x) = (1/2pi) int ln|x - y| omega(y) dy at points (n, 2), omega
    the samples' interpolant: trigonometric in angle, polynomial in r.

    For admissible vorticities (no harmonic moments) this is the clamped
    Biot-Savart stream inside the disk, to rounding on a grid that
    resolves the field, and zero outside.  The exception is the band
    between the last radial node and the wall, r[-1] < |x| < 1: there
    the values read about 0, off by up to (1 - |x|)^2 max|omega| / 2
    (2.3e-10 max|omega| at most on a 260-node grid).
    """
    return _grid_potential(omega_samples, eval_points, image=False)


def greens_potential(omega_samples: GridField, eval_points) -> NewtonianResult:
    """The same with the disk Green function, at points strictly inside.

    G(x, y) = (1/2pi)[ln|x - y| - ln|1 - x conj(y)|] (x, y complex): the
    image term is harmonic in y over the closed disk, so for admissible
    data the result matches the Newtonian potential, with the same
    error in the band r[-1] < |x| < 1.  Its series terms join the
    Newtonian ones, so the result over 1 - |x|^2 stays accurate at the
    wall.
    """
    return _grid_potential(omega_samples, eval_points, image=True)
