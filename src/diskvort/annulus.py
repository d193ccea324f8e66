"""Multiply connected machinery on the annulus R < r < 1.

The simply connected solver never sees circulation: on the disk every
stream function is single-valued and the vorticity determines the
velocity.  With a hole, three new objects appear and this module builds
discrete versions of each:

* the circulation generator xi (harmonic, zero on the outer circle,
  carrying flux -1 through the inner one) and its Bergman projection
  Omega = P xi;
* the pairing functional zeta, evaluated through the Dirichlet part of
  the trace split; its volume and boundary routes agree, which the
  ``zeta-routes`` row of ``diskvort annulus-verify`` checks on a fixed
  band field;
* flux conditions tying the circulation rate to the vorticity flux off
  the inner wall (Lamb), exercised on a linear Stokes evolution.

Alongside these, a dense Galerkin discretization checks that the
vorticity-side and stream-side Stokes operators share their lowest
eigenvalue and that the intermediate (zero-mean-flux) operator sits
below both.

Scalar fields are passed as callables f(r, theta, what) with what in
{"value", "d_r"}; r and theta broadcast.  Everything is single-annulus:
one hole exercises every mechanism.

The projection and the trace split are one class, ``ProjectedField``:
base + a harmonic part with one layout, ``rows`` (2, 2, degree+1),
indexed (power r^+k or r^-k, parity cos or sin, k), of the
L2-normalized zero-flux harmonics; the slots of r^-0 (the constant
again) and of sin at k = 0 stay zero.  The angular rule makes the
projection's Gram matrix 2x2 block-diagonal in (parity, k).

The boundary report of ``newtonian_bs_annulus`` reads the potential off
the open annulus by the log kernel's series, ``fields._log_potential``.

The two dense solvers, ``galerkin_spectra`` and
``annulus_stokes_circulation``, share one radial table of the Legendre
family mapped onto (R, 1), built by recurrence: ``tables`` (order,
degree, node) of values, first and second derivatives at the Gauss
nodes, and the wall values ``ends`` (order, wall, degree), wall 0 at
r = R and wall 1 at r = 1: ``_constraint_rows`` picks both solvers'
pinned walls, and slices are the circulation and flux rows.  The
circulation run is modal at degree ``CIRCULATION_DEGREE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polyutils import mapparms
from scipy.linalg import eigh, null_space
from scipy.special import exprel

from .fields import _log_potential, split_rows, synthesize_points, trig_table, write_csv
from .specfun import gauss_legendre, is_integer

__all__ = [
    "AnnulusGeometry",
    "XiFunction",
    "ProjectedField",
    "SpectraResult",
    "BoundaryReport",
    "CirculationRun",
    "check_limits",
    "bergman_project",
    "xi_circulation",
    "omega_big",
    "inner_flux",
    "q1_dirichlet_split",
    "zeta_pairing",
    "newtonian_bs_annulus",
    "galerkin_spectra",
    "annulus_stokes_circulation",
]


@dataclass(frozen=True)
class AnnulusGeometry:
    """Annulus r_inner < r < 1 with its quadrature resolution."""

    r_inner: float
    n_radial: int = 200
    n_angular: int = 256

    def __post_init__(self):
        if not (0.05 <= self.r_inner <= 0.95):
            raise ValueError(
                f"inner radius must lie in [0.05, 0.95], got {self.r_inner}"
            )
        for name in ("n_radial", "n_angular"):
            count = getattr(self, name)
            if not is_integer(count):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if self.n_radial < 16 or self.n_angular < 16:
            raise ValueError("quadrature resolution too small (min 16)")

    def radial_rule(self):
        return gauss_legendre(self.n_radial, self.r_inner, 1.0)

    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular


def _integrate(geom: AnnulusGeometry, values: np.ndarray) -> float:
    """Quadrature of a (n_radial, n_angular) sample table over the annulus."""
    r, wr = geom.radial_rule()
    wtheta = 2.0 * np.pi / geom.n_angular
    return float(np.sum((wr * r) @ values) * wtheta)


def _sample(geom: AnnulusGeometry, f, what: str = "value") -> np.ndarray:
    r, _ = geom.radial_rule()
    th = geom.theta()
    return np.asarray(f(r[:, None], th[None, :], what), dtype=float)


# ---------------------------------------------------------------------------
# zero-flux harmonics: rows (2, 2, degree+1) of (power r^+k | r^-k, cos | sin, k)


def _harmonic_norms(geom: AnnulusGeometry, degree: int) -> np.ndarray:
    """Normalizations (2, degree+1) of the zero-flux harmonics up to the
    angular degree: row 0 of r^k trig(k theta), row 1 of (R/r)^k trig(k
    theta), each to unit L2 norm over the annulus.

    log r is excluded by construction: it alone carries inner flux.  The
    slot of r^-0, the constant again, holds 0.  The degree stays below
    n_angular / 2, where the angular rule aliases.
    """
    if not (is_integer(degree) and 0 <= 2 * degree < geom.n_angular):
        limit = f"n_angular / 2 = {geom.n_angular / 2:g}"
        raise ValueError(f"degree must be a nonnegative integer below {limit}, got {degree!r}")
    R = geom.r_inner
    k = np.arange(degree + 1)
    # int_R^1 r^(2e+1) dr is g = (1 - R^m) / m = log(1/R) exprel(m log R) for
    # e = k, m = 2k + 2, and R^-m g for e = -k, m = |2k - 2|: r^-k has norm
    # R^(k-1) / sqrt(g ...), and (R/r)^k the coefficient 1 / (R sqrt(g ...))
    m = np.abs(np.stack([2 * k + 2, 2 * k - 2]))
    radial = -math.log(R) * exprel(m * math.log(R))
    angular = np.where(k == 0, 2.0 * np.pi, np.pi)
    norms = 1.0 / np.sqrt(radial * angular) / np.array([[1.0], [R]])
    norms[1, 0] = 0.0
    return norms


def _harmonic_profiles(geom: AnnulusGeometry, norms: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Radial factors (2, degree+1, r.size): norms times r^k and (R/r)^k."""
    k = np.arange(norms.shape[1])[:, None]
    return norms[:, :, None] * np.stack([r**k, (geom.r_inner / r) ** k])


def _harmonic_moments(geom: AnnulusGeometry, degree: int, values: np.ndarray):
    """Quadrature moments (h, values) of a (n_radial, n_angular) sample
    table against each zero-flux harmonic, as rows (2, 2, degree+1), and
    the Gram blocks (2, degree+1, 2, 2) of (parity, k).  The angular step
    is ``fields.split_rows``; the empty slots, r^-0 and sin at k = 0, get
    identity blocks.
    """
    r, wr = geom.radial_rule()
    prof = _harmonic_profiles(geom, _harmonic_norms(geom, degree), r)
    k = np.arange(degree + 1)
    angular = np.pi * np.stack([1.0 + (k == 0), k > 0])  # (parity, k); sin(0 theta) is 0
    fourier = split_rows(values, trig_table(degree, geom.theta())) * angular[:, :, None]
    wprof = prof * (wr * r)
    moments = np.einsum("pkr,qkr->pqk", wprof, fourier)
    gram = angular[:, :, None, None] * np.einsum("pkr,skr->kps", wprof, prof)
    gram[..., [0, 1], [0, 1]] += np.diagonal(gram, axis1=-2, axis2=-1) == 0.0
    return moments, gram


@dataclass
class ProjectedField:
    """``base`` plus the zero-flux harmonics of coefficient ``rows``
    (2, 2, degree+1) on ``geom``: its value or d_r at broadcast (r, theta).
    ``bergman_project`` returns f minus its least-squares component (the
    rows hold the component negated), ``q1_dirichlet_split`` omega plus
    its trace correction."""

    base: object
    geom: AnnulusGeometry
    rows: np.ndarray

    def __call__(self, r, theta, what: str = "value"):
        if what not in ("value", "d_r"):
            raise ValueError(f"unknown what: {what!r}")
        x = np.asarray(r, dtype=float).ravel()
        n_k = self.rows.shape[-1]
        prof = _harmonic_profiles(self.geom, _harmonic_norms(self.geom, n_k - 1), x)
        if what == "d_r":
            # d_r r^k = k r^k / r and d_r (R/r)^k = -k (R/r)^k / r
            prof = prof * (np.outer([1.0, -1.0], np.arange(n_k))[:, :, None] / x)
        radial = np.einsum("pqk,pkx->qkx", self.rows, prof)  # one radial row per (parity, k)
        return np.asarray(self.base(r, theta, what), dtype=float) + synthesize_points(radial, r, theta)


def bergman_project(geom: AnnulusGeometry, f, degree: int) -> ProjectedField:
    """L2-orthogonal removal of the zero-flux harmonic content of f.

    Least squares against the zero-flux harmonics, one 2x2 solve per
    (parity, k) block.  A Gram condition number, max over min of the
    blocks' eigenvalues, above 1e12 is an error that prints it (the two
    powers degenerate for thin annuli).
    """
    b, H = _harmonic_moments(geom, degree, _sample(geom, f))
    eig = np.linalg.eigvalsh(H)
    cond = float(eig.max() / eig.min())
    if cond > 1e12:
        raise RuntimeError(f"harmonic basis is ill-conditioned (cond = {cond:.3e} > 1e12)")
    coeffs = np.linalg.solve(H, b.transpose(1, 2, 0)[..., None])[..., 0]
    return ProjectedField(f, geom, -coeffs.transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# circulation generator and its projection


def inner_flux(geom: AnnulusGeometry, f) -> float:
    """Flux of f out of the fluid through the inner circle: the
    quadrature of -d_r f over r = R (the outward normal there is -e_r)."""
    R = geom.r_inner
    th = geom.theta()
    return float(np.sum(-f(np.full_like(th, R), th, "d_r")) * (2.0 * np.pi / th.size) * R)


@dataclass(frozen=True)
class XiFunction:
    """xi = log(r) / 2pi: harmonic, zero outer trace, inner flux -1."""

    geom: AnnulusGeometry

    def __call__(self, r, theta, what: str = "value"):
        r = np.asarray(r, dtype=float)
        if what == "value":
            vals = np.log(r) / (2.0 * np.pi)
        elif what == "d_r":
            vals = 1.0 / (2.0 * np.pi * r)
        else:
            raise ValueError(f"unknown what: {what!r}")
        return np.broadcast_to(vals, np.broadcast(r, np.asarray(theta, dtype=float)).shape).copy()

    def inner_flux(self) -> float:
        return inner_flux(self.geom, self)


def xi_circulation(geom: AnnulusGeometry) -> XiFunction:
    return XiFunction(geom)


def omega_big(geom: AnnulusGeometry, xi: XiFunction, degree: int) -> ProjectedField:
    """Omega = P xi: same inner flux as xi, orthogonal to zero-flux harmonics.

    Since xi is radial and harmonic, only the constant component is
    removed, but the least-squares route goes through the full basis so
    the orthogonality is a computed fact rather than an assumption.
    """
    return bergman_project(geom, xi, degree)


# ---------------------------------------------------------------------------
# Dirichlet trace split and the zeta pairing


def q1_dirichlet_split(geom: AnnulusGeometry, omega, degree: int = 8) -> ProjectedField:
    """Correct omega by zero-flux harmonics into the stream trace class.

    The correction h solves (omega + h)|_{r=1} = 0 exactly per angular
    mode up to the given degree, and (omega + h)|_{r=R} = constant; for
    k >= 1 both traces are matched (two coefficients per mode), for
    k = 0 only the outer trace can be matched and the inner constant is
    whatever remains.
    """
    norms = _harmonic_norms(geom, degree)
    R = geom.r_inner
    th = geom.theta()
    traces = np.stack([omega(np.full_like(th, rr), th, "value") for rr in (1.0, R)])
    # (parity, k) rows of the outer and the inner trace
    outer, inner = np.moveaxis(split_rows(traces, trig_table(degree, th)), -1, 0)
    # per k >= 1, h = a r^k + b (R/r)^k with a + R^k b = -outer and
    # R^k a + b = -inner; at k = 0 only the outer trace is matched
    Rk, out, inn = R ** np.arange(1, degree + 1), outer[:, 1:], inner[:, 1:]
    rows = np.zeros((2, 2, degree + 1))
    rows[..., 1:] = np.stack([Rk * inn - out, Rk * out - inn]) / (norms[:, None, 1:] * (1.0 - Rk * Rk))
    rows[0, 0, 0] = -outer[0, 0] / norms[0, 0]
    return ProjectedField(omega, geom, rows)


def zeta_pairing(geom: AnnulusGeometry, xi: XiFunction, omega, method: str = "volume") -> float:
    """<zeta, omega> = -(grad xi, grad Q1 omega), or its boundary form,
    with Q1 omega the ``q1_dirichlet_split`` of its default degree.

    The gradient of xi is radial, so the volume route reduces to a
    weighted quadrature of the radial derivative of the Dirichlet part;
    the boundary route uses that Q1 omega is constant on the inner
    circle and the xi flux is -1, giving exactly that constant.
    """
    split = q1_dirichlet_split(geom, omega)
    if method == "boundary":
        th = geom.theta()
        return float(np.mean(split(np.full_like(th, geom.r_inner), th, "value")))
    if method != "volume":
        raise ValueError(f"unknown method: {method!r}")
    return -_integrate(geom, _sample(geom, xi, "d_r") * _sample(geom, split, "d_r"))


# ---------------------------------------------------------------------------
# Newtonian potential boundary report


@dataclass(frozen=True)
class BoundaryReport:
    outer_max: float
    inner_stddev: float
    normal_max: float


def newtonian_bs_annulus(
    geom: AnnulusGeometry, omega, degree: int = 8, n_boundary: int = 64
) -> BoundaryReport:
    """Certify the boundary behavior of the Newtonian potential of omega.

    For data orthogonal to every zero-flux harmonic the log-kernel
    potential must vanish on the outer circle, be constant on the inner
    one, and have zero normal derivative there; the report carries the
    three measured defects.  The normal derivative is sampled by finite
    differences along the inward normal, with step min(1e-2, r_inner/8),
    through the hole where the potential must stay constant (it is C^1
    across the interface, so flatness there certifies the boundary
    condition).  Inputs failing the orthogonality precondition (relative
    component above 1e-8) are rejected.

    The report reads the potential at the ``n_boundary`` angles
    2 pi m / n_boundary, which must be angles of the rule: ``n_boundary``
    has to divide ``geom.n_angular``.  Its radii lie off the open annulus,
    where the log kernel is a Fourier series in angle
    (``fields._log_potential``).
    """
    _harmonic_norms(geom, degree)  # the degree is checked before any sampling
    if not is_integer(n_boundary) or n_boundary < 1:
        raise ValueError(f"n_boundary must be a positive integer, got {n_boundary!r}")
    if geom.n_angular % n_boundary:
        raise ValueError(f"n_boundary must divide n_angular = {geom.n_angular}, got {n_boundary}")
    fv = _sample(geom, omega)
    norm = math.sqrt(_integrate(geom, fv * fv))
    comps, _ = _harmonic_moments(geom, degree, fv)
    # the first component above tolerance in k order, (k, power, parity)
    bad = np.argwhere(np.abs(comps.transpose(2, 0, 1)) > 1e-8 * norm)
    if bad.size:
        k, power, parity = bad[0]
        raise ValueError(
            "omega is not orthogonal to the zero-flux harmonics "
            f"(component {comps[power, parity, k]:.3e} against "
            f"k={k} {('cos', 'sin')[parity]} r^{-k if power else k})"
        )
    # the outer circle, then the inward normal chain R - m fd_step for
    # m = 0..4 from the inner circle, all inside the hole
    fd_step = min(1e-2, geom.r_inner / 8.0)
    rho = np.r_[1.0, geom.r_inner - fd_step * np.arange(5)][:, None]
    phi = geom.theta()[:: geom.n_angular // n_boundary]
    vals = _log_potential(*geom.radial_rule(), fv, rho * rho, phi, lo=geom.r_inner)
    chain = vals[1:]
    return BoundaryReport(
        outer_max=float(np.max(np.abs(vals[0]))),
        inner_stddev=float(np.std(chain[0])),
        normal_max=float(np.max(np.abs(np.diff(chain, axis=0)))) / fd_step,
    )


# ---------------------------------------------------------------------------
# limits of the Galerkin and circulation runs

# the smallest Galerkin trial spaces: polynomial degree and angular modes
_LEAST = {"n_poly": 6, "k_max": 3}

# the circulation run's polynomial degree
CIRCULATION_DEGREE = 28


def check_limits(values: dict) -> None:
    """Reject Galerkin and circulation-run parameters outside their limits.

    ``values`` maps a parameter name to its value: ``n_poly`` an integer
    of at least 6 and ``k_max`` one of at least 3 (``galerkin_spectra``);
    any other name, here ``nu`` and ``t_final`` (the circulation run),
    positive and finite.  A name may also be spelled as its command-line
    flag (``--n-poly``).  The ValueError names the key as given.
    """
    for key, value in values.items():
        least = _LEAST.get(key.lstrip("-").replace("-", "_"))
        if least is not None and not is_integer(value):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{key} must be at least {least}, got {value}")
        if least is None and not 0.0 < value < math.inf:
            raise ValueError(f"{key} must be positive and finite, got {value}")


# ---------------------------------------------------------------------------
# dense Galerkin spectra


def _legendre_tables(n_poly: int, R: float):
    """The Gauss rule (nodes, weights) of 2 n_poly + 16 points on (R, 1),
    and the Legendre family of degree <= n_poly mapped onto (R, 1): its
    values (order 0), first and second derivatives as ``tables[order]``
    (n_poly+1, nodes), one row per degree, and at the walls as
    ``ends[order, wall, degree]``, wall 0 at R and wall 1 at 1.

    One loop on the mapped variable x takes each degree from the two below
    it: Bonnet's recurrence, P'_{n+1} = P'_{n-1} + (2n+1) P_n and P''_{n+1}
    = P''_{n-1} + (2n+1) P'_n.  Order m in r is scl^m times order m in x.
    """
    nodes, weights = gauss_legendre(2 * n_poly + 16, R, 1.0)
    off, scl = mapparms((R, 1.0), (-1.0, 1.0))
    x = off + scl * np.r_[nodes, R, 1.0]
    # row i + 1 holds degree i; row 0 holds P_-1 = 0, which starts all three
    p = np.zeros((3, n_poly + 2, x.size))
    p[0, 1] = 1.0
    for n in range(n_poly):
        p[0, n + 2] = ((2 * n + 1) * x * p[0, n + 1] - n * p[0, n]) / (n + 1)
        p[1:, n + 2] = p[1:, n] + (2 * n + 1) * p[:2, n + 1]
    vals = p[:, 1:] * np.array([1.0, scl, scl * scl])[:, None, None]
    return nodes, weights, vals[:, :, :-2], vals[:, :, -2:].transpose(0, 2, 1)


# eigenvalues kept per mode and space in ``SpectraResult.per_mode_*``
_N_EIGS = 4


@dataclass
class SpectraResult:
    lambda_S: float
    lambda_V: float
    lambda_Z: float
    per_mode_S: dict
    per_mode_V: dict
    per_mode_Z: dict


def _constraint_rows(ends, kind: str, k: int) -> np.ndarray:
    """Rows of the wall values ``ends[order, wall]`` a trial block of space
    ``kind`` must zero: the outer value, for S also the outer and inner
    slopes, then the inner value for k >= 1, or for Z at k = 0 the inner
    slope (the flux)."""
    keys = [(0, 1)] + [(1, 1), (1, 0)] * (kind == "S")
    if k >= 1:
        keys.append((0, 0))
    elif kind == "Z":
        keys.append((1, 0))
    return np.stack([ends[key] for key in keys])


def galerkin_spectra(geom: AnnulusGeometry, n_poly: int = 24, k_max: int = 4) -> SpectraResult:
    """Lowest eigenvalues of the three annulus Stokes quotients per mode.

    S: min ||Delta psi||^2 / ||grad psi||^2 over clamped streams;
    Z: the same quotient with only the traces (and the k=0 inner flux)
    constrained; V: min ||grad psi||^2 / ||P psi||^2 over the stream
    trace class, realized through the projected mass so that the
    vorticity-side operator never needs an explicit inverse.  S and V
    produce the same lowest value; the Z value can only sit below.
    Each space has one null space for k = 0 and one for every k >= 1.
    """
    check_limits({"n_poly": n_poly, "k_max": k_max})
    R = geom.r_inner
    rq, wq, (T0, T1, T2), ends = _legendre_tables(n_poly, R)
    grad_w = wq * rq
    G1, G0, M2 = (T1 * grad_w) @ T1.T, (T0 * (wq / rq)) @ T0.T, (T0 * grad_w) @ T0.T
    per_S, per_V, per_Z = {}, {}, {}
    for k in range(k_max + 1):
        lap = T2 + T1 / rq - (k * k) * T0 / rq**2
        G = G1 + (k * k) * G0
        D = (lap * grad_w) @ lap.T
        try:
            # the constraint rows read k only as k >= 1: k = 1's null spaces serve every later k
            if k < 2:
                N_S, N_Z, N_V = (null_space(_constraint_rows(ends, kind, k)) for kind in "SZV")
            # S: pencil (D, G) on the clamped space, Z the same under the weaker
            # constraints; n_poly >= 6 leaves >= 3 trials under <= 4 constraint rows
            for N, per in ((N_S, per_S), (N_Z, per_Z)):
                per[k] = np.sort(eigh(N.T @ D @ N, N.T @ G @ N, eigvals_only=True))[:_N_EIGS]

            # V: pencil (G, projected mass), inverted: the projected mass is semidefinite only approximately
            hs = [np.ones_like(rq)] if k == 0 else [rq**k, rq ** (-k)]
            Hh = np.array([[float(np.sum(grad_w * a * b)) for b in hs] for a in hs])
            Ch = np.array([(T0 * grad_w) @ h for h in hs]).T  # (n+1, nh)
            MP = M2 - Ch @ np.linalg.solve(Hh, Ch.T)
            mu = np.sort(eigh(N_V.T @ MP @ N_V, N_V.T @ G @ N_V, eigvals_only=True))
            per_V[k] = np.sort(1.0 / mu[mu > 0][-_N_EIGS:])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"Galerkin assembly failed at mode {k}: {exc}") from exc
    return SpectraResult(
        lambda_S=min(float(v[0]) for v in per_S.values()),
        lambda_V=min(float(v[0]) for v in per_V.values()),
        lambda_Z=min(float(v[0]) for v in per_Z.values()),
        per_mode_S=per_S,
        per_mode_V=per_V,
        per_mode_Z=per_Z,
    )


# ---------------------------------------------------------------------------
# Stokes evolution with circulation (k = 0 sector)


def _cumulative_moment(geom: AnnulusGeometry, omega0, targets: np.ndarray) -> np.ndarray:
    """int_R^t omega(s) s ds at each ascending target radius: a 16-point
    Gauss rule on each gap between consecutive targets, summed in order.

    This is the zero-circulation azimuthal velocity of a radial
    vorticity profile, up to the 1/r factor applied by the caller.
    """
    xg, wg = gauss_legendre(16, -1.0, 1.0)
    left = np.r_[geom.r_inner, targets[:-1]]
    half = 0.5 * (targets - left)
    s = (0.5 * (targets + left))[:, None] + half[:, None] * xg
    vals = np.asarray(omega0(s, np.zeros_like(s), "value"), dtype=float)
    return np.cumsum(half * ((vals * s) @ wg))


def _modal_readout(M, S, b, rows, nu_t):
    """rows @ c, (times, rows), at each viscous time nu t of ``nu_t`` for
    c = exp(-nu t M^-1 S) M^-1 b.  V = eigh(S, M) has V^T M V = I and V^T S
    V = diag(mu), so c = V e^{-nu t mu} a with a = V^T b: no solve."""
    mu, V = eigh(S, M)
    return (np.exp(-np.outer(nu_t, mu)) * (V.T @ b)) @ (rows @ V).T


@dataclass
class CirculationRun:
    times: np.ndarray
    gamma: np.ndarray
    flux: np.ndarray  # nu times the inner-circle vorticity flux
    lamb_residual: float
    burn_in: float

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "gamma", "flux"), zip(self.times, self.gamma, self.flux))


def annulus_stokes_circulation(
    geom: AnnulusGeometry,
    gamma0: float,
    nu: float,
    t_final: float,
    omega0=None,
    n_out: int = 80,
) -> CirculationRun:
    """Linear Stokes run in the axisymmetric sector, tracking circulation.

    The state is the azimuthal velocity profile u(r, t) with the heat
    dynamics d_t u = nu d_r omega, omega = u' + u/r, discretized by the
    symmetric vorticity form int omega_u omega_v r dr on polynomial
    trials of degree ``CIRCULATION_DEGREE``.  Constraint rows select the
    sector: a circulation-free state (gamma0 = 0) is pinned at both
    walls, so the inner-circle line integral of the velocity vanishes
    identically and zero circulation is invariant by construction.
    With circulation only the outer wall is pinned; the free inner value
    leaves omega(R) = 0 as the natural condition (the wall sheet has
    shed) and the circulation decays by the vorticity flux off the wall.
    The state evolves mode by mode in the eigenbasis of the two forms'
    pencil.

    The circulation carrier is the compatible profile 1/r - r (scaled
    to the requested line integral at the inner wall); its vorticity is
    the constant harmonic, so the regular vorticity part of the initial
    state is zero.  The optional omega0 callable supplies regular
    initial vorticity; only its axisymmetric part participates, sampled
    at theta = 0.

    At each output time the run records Gamma(t), the line integral of
    the velocity around the inner circle, and nu times the vorticity
    flux through it (radial normal).  The Lamb residual is the largest
    |dGamma/dt - flux| over the interior output times past the burn-in
    window (0.16 (1-R)^2 / nu, capped at half the horizon: the
    natural condition at the inner wall only holds weakly at t = 0 and
    the first moments of the run relax it), with the time derivative
    taken by centered differences, divided by the largest of |flux|,
    |dGamma/dt| there and nu max(1, |Gamma|).

    gamma0 must be finite (zero and negative values are allowed) and
    n_out an integer of at least 5.
    """
    check_limits({"nu": nu, "t_final": t_final})
    if not math.isfinite(gamma0):
        raise ValueError(f"gamma0 must be finite, got {gamma0}")
    if not is_integer(n_out) or n_out < 5:
        raise ValueError(f"n_out must be an integer number of output times >= 5, got {n_out!r}")
    R = geom.r_inner
    rq, wq, (T0, T1, T2), ends = _legendre_tables(CIRCULATION_DEGREE, R)

    # the outer value is pinned, and without circulation the inner one too
    N = null_space(_constraint_rows(ends, "V", int(gamma0 == 0.0)))
    rw = wq * rq
    omega_t = T1 + T0 / rq  # vorticity of each trial
    M = N.T @ ((T0 * rw) @ T0.T) @ N
    S = N.T @ ((omega_t * rw) @ omega_t.T) @ N

    # initial velocity: circulation carrier plus the zero-circulation
    # velocity of the optional regular vorticity, and its load M c0
    u0 = gamma0 / (2.0 * np.pi * (1.0 - R * R)) * (1.0 / rq - rq)
    if omega0 is not None:
        u0 = u0 + _cumulative_moment(geom, omega0, rq) / rq
    b = N.T @ ((T0 * rw) @ u0)

    # circulation and flux read-out rows at the inner wall
    inner = ends[:, 0]  # (order, degree)
    gamma_row = 2.0 * np.pi * R * (inner[0] @ N)
    omega_d_end = inner[2] + inner[1] / R - inner[0] / R**2
    flux_row = nu * 2.0 * np.pi * R * (omega_d_end @ N)

    burn_in = min(0.16 * (1.0 - R) ** 2 / nu, 0.5 * t_final)

    dt = t_final / n_out
    times = dt * np.arange(n_out + 1)
    gamma, flux = _modal_readout(M, S, b, np.stack([gamma_row, flux_row]), nu * times).T

    dgamma = (gamma[2:] - gamma[:-2]) / (2.0 * dt)
    keep = times[1:-1] >= burn_in
    resid = np.abs(dgamma[keep] - flux[1:-1][keep])
    scale = max(
        float(np.max(np.abs(flux[1:-1][keep]))),
        float(np.max(np.abs(dgamma[keep]))),
        nu * max(1.0, float(np.max(np.abs(gamma)))),
    )
    return CirculationRun(
        times=times,
        gamma=gamma,
        flux=flux,
        lamb_residual=float(np.max(resid)) / scale,
        burn_in=float(burn_in),
    )
