"""Eigenvalue table of the vorticity Stokes operator on the unit disk.

The eigenfunctions are

    e_{k,j}(r, theta) = c_{k,j} J_k(sqrt(lambda) r) {cos, sin}(k theta),

where sqrt(lambda_{k,j}) = alpha_{k+1,j} is the j-th positive zero of
J_{k+1}.  That zero condition is exactly orthogonality to the harmonic
polynomial r^k {cos,sin}(k theta): by the standard recurrence,

    int_0^1 J_k(alpha r) r^{k+1} dr = J_{k+1}(alpha) / alpha,

so the mode sits in the closed span of admissible vorticities (no
harmonic component) if and only if alpha kills J_{k+1}.  The smallest
eigenvalue is alpha_{1,1}^2 = 14.6819706...

Normalization uses int_0^1 J_k(alpha r)^2 r dr = J_k(alpha)^2 / 2, which
holds when J_{k+1}(alpha) = 0, giving |c| = 1/(sqrt(pi)|J_0(alpha)|) for
k = 0 and sqrt(2/pi)/|J_k(alpha)| for k >= 1.  The sign makes the radial
profile positive at r = 1/2 (fallback +1 if it vanishes there).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .specfun import MAX_ORDER, _bessel_stack, bessel_j_zero_rows, gauss_legendre

__all__ = [
    "ModeIndex",
    "EigenTable",
    "build_table",
    "table_size_problems",
    "radial_profiles",
    "membership_residuals",
]

_PARITIES = ("cos", "sin")
# the derivative orders of ``radial_profiles``
PROFILE_ORDERS = ("value", "d_r", "d_rr")


@dataclass(frozen=True)
class ModeIndex:
    """Angular wavenumber k, radial index j (1-based), angular parity."""

    k: int
    j: int
    parity: str

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"angular wavenumber must be >= 0, got {self.k}")
        if self.j < 1:
            raise ValueError(f"radial index must be >= 1, got {self.j}")
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be 'cos' or 'sin', got {self.parity!r}")
        if self.k == 0 and self.parity == "sin":
            raise ValueError("k = 0 modes are radial; only 'cos' parity exists")


def _norm_consts(alpha: np.ndarray) -> np.ndarray:
    """Normalization constants c_{k,j}, shape (K+1, J), from the zeros
    ``alpha[k, j-1]`` = alpha_{k+1,j}: |J_k(alpha)| and the sign probe
    J_k(alpha/2) of every mode from one Bessel stack."""
    k = np.arange(alpha.shape[0])
    jk = _bessel_stack(k, np.stack([alpha, 0.5 * alpha], axis=-1), precise=True)[0]
    scale = np.where(k == 0, 1.0 / np.sqrt(np.pi), np.sqrt(2.0 / np.pi))[:, None]
    base = scale / np.abs(jk[..., 0])
    return np.where(jk[..., 1] < 0.0, -base, base)


class EigenTable:
    """Modes of the disk vorticity operator, sorted by ascending eigenvalue.

    Ties (the cos/sin pair of one (k, j)) are broken by (k, parity) with
    cos first, so the ordering is deterministic.

    Transforms work on coefficient blocks, arrays (..., 2, K+1, J)
    indexed by (parity, k, j-1) with parity 0 = cos, 1 = sin; the k = 0
    sine row is identically zero.  ``perm[p, k, j-1]`` is the position
    of mode (k, j, parity p) in the sorted table (``len(table)``, a zero
    pad slot, for the k = 0 sine row); ``to_blocks`` and ``from_blocks``
    convert between the two layouts.
    """

    def __init__(self, K: int, J: int, modes, lam, alpha, norm):
        self.K = int(K)
        self.J = int(J)
        self.modes: tuple[ModeIndex, ...] = tuple(modes)
        self.lam = np.asarray(lam, dtype=float)
        self.alpha = np.asarray(alpha, dtype=float)
        self.norm = np.asarray(norm, dtype=float)
        self._pos = {m: i for i, m in enumerate(self.modes)}
        if not (len(self.modes) == self.lam.size == self.alpha.size == self.norm.size):
            raise ValueError("inconsistent table arrays")
        if np.any(np.diff(self.lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        self.perm = np.full((2, self.K + 1, self.J), len(self.modes), dtype=np.intp)
        for i, m in enumerate(self.modes):
            self.perm[_PARITIES.index(m.parity), m.k, m.j - 1] = i
        # gather indices of the two layouts; the pad slot reads mode 0, then is zeroed
        self._gather = np.where(self.perm == len(self.modes), 0, self.perm)
        self._scatter = np.argsort(self.perm, axis=None, kind="stable")[: len(self.modes)]

    def __len__(self) -> int:
        return len(self.modes)

    @property
    def lambda_min(self) -> float:
        return float(self.lam[0])

    @property
    def lambda_max(self) -> float:
        return float(self.lam[-1])

    def position(self, mode: ModeIndex) -> int:
        try:
            return self._pos[mode]
        except KeyError:
            raise KeyError(f"mode {mode} not in table (K={self.K}, J={self.J})") from None

    def to_blocks(self, coeffs) -> np.ndarray:
        """Eigenvalue-sorted coefficients (..., n) as blocks (..., 2, K+1, J)."""
        blocks = np.asarray(coeffs, dtype=float).take(self._gather, axis=-1)
        blocks[..., 1, 0, :] = 0.0
        return blocks

    def from_blocks(self, blocks) -> np.ndarray:
        """Inverse of ``to_blocks``; the k = 0 sine row is dropped."""
        blocks = np.asarray(blocks, dtype=float)
        return blocks.reshape(blocks.shape[:-3] + (-1,)).take(self._scatter, axis=-1)

    def to_json(self) -> str:
        payload = {
            "K": self.K,
            "J": self.J,
            "modes": [
                {
                    "k": m.k,
                    "j": m.j,
                    "parity": m.parity,
                    "lambda": self.lam[i],
                    "alpha": self.alpha[i],
                    "norm": self.norm[i],
                }
                for i, m in enumerate(self.modes)
            ],
        }
        return json.dumps(payload, indent=1)


def table_size_problems(K, J) -> list[str]:
    """What is wrong with the table size (K, J): one message per bad
    parameter, starting with its name; empty if the size is admissible.
    The table of K needs Bessel zeros up to order K + 1."""
    integer = lambda x: isinstance(x, (int, np.integer)) and not isinstance(x, bool)
    problems = []
    if not (integer(K) and 0 <= K <= MAX_ORDER - 1):
        problems.append(f"K must be an integer in [0, {MAX_ORDER - 1}], got {K!r}")
    if not (integer(J) and J >= 1):
        problems.append(f"J must be an integer >= 1, got {J!r}")
    return problems


def build_table(K: int, J: int) -> EigenTable:
    """All modes with k <= K and radial index j <= J, eigenvalue-sorted."""
    problems = table_size_problems(K, J)
    if problems:
        raise ValueError("; ".join(problems))
    alpha = bessel_j_zero_rows(K + 1, J)[1:]
    norm = _norm_consts(alpha)
    rows = []
    for k in range(K + 1):
        for j in range(1, J + 1):
            a = float(alpha[k, j - 1])
            lam = a * a
            c = float(norm[k, j - 1])
            parities = ("cos",) if k == 0 else _PARITIES
            for p in parities:
                rows.append((lam, k, _PARITIES.index(p), ModeIndex(k, j, p), a, c))
    rows.sort(key=lambda t: (t[0], t[1], t[2]))
    modes = [t[3] for t in rows]
    lam = [t[0] for t in rows]
    alpha = [t[4] for t in rows]
    norm = [t[5] for t in rows]
    return EigenTable(K, J, modes, lam, alpha, norm)


def _harm_const(k):
    """L^2 normalization of the unit harmonic c_k r^k {cos, sin}(k theta),
    elementwise for an array of wavenumbers."""
    k = np.asarray(k)
    return np.where(k == 0, 1.0 / np.sqrt(np.pi), np.sqrt((2.0 * k + 2.0) / np.pi))


def radial_profiles(table: EigenTable, r) -> tuple[np.ndarray, np.ndarray]:
    """Radial profiles of every basis function at radii ``r`` in (0, 1].

    Returns ``(prof, harm)``.  ``prof`` has shape (3, 2, K+1, J, n_r),
    indexed by derivative order ``PROFILE_ORDERS``, by kind (0:
    vorticity c J_k(alpha r); 1: stream, the lifted
    c [J_k(alpha r) - J_k(alpha) r^k]) and by the block indices (k, j-1)
    of ``EigenTable.to_blocks``.
    ``harm`` has shape (2, K+1, n_r): the unit harmonic profiles
    h_k = c_k r^k and their d_r.

    d_rr comes from the Bessel equation,

        alpha^2 J_k''(alpha r) = -alpha J_k'(alpha r) / r
                                 + (k^2 / r^2 - alpha^2) J_k(alpha r),

    so all orders come from two calls of the multi-order Bessel stack,
    J_k and J_k' at alpha r and J_k(alpha) for the lift (its precise
    variant: the lift's d_r, k c J_k(alpha), is up to ~50 at K = 63 and
    cancels against the vorticity row at r = 1).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    K, J = table.K, table.J
    k = np.arange(K + 1)[:, None, None]
    alpha = table.alpha[table.perm[0]][..., None]
    cn = table.norm[table.perm[0]][..., None]
    prof = np.empty((3, 2, K + 1, J, r.size))
    vort, stream = prof[:, 0], prof[:, 1]
    vort[0], vort[1] = _bessel_stack(k.ravel(), alpha * r)
    vort[1] *= alpha
    vort[2] = -vort[1] / r + (k * k / r**2 - alpha**2) * vort[0]
    jk_at_1 = _bessel_stack(k.ravel(), alpha, precise=True)[0]
    # r**i with a Python int i, which numpy computes as r*r at i = 2, not
    # with pow; rows 0 and 1 stand for r^-2 and r^-1, which k = 0, 1 do not use
    powers = np.stack(2 * [np.zeros_like(r)] + [r**i for i in range(K + 1)])[:, None]
    rk, rkm1, rkm2 = powers[2:], powers[1:-1], powers[:-2]
    for i, lift in enumerate((rk, k * rkm1, k * (k - 1) * rkm2)):
        stream[i] = vort[i] - jk_at_1 * lift
    prof *= cn
    ck = _harm_const(k[:, 0])
    harm = np.stack([ck * rk[:, 0], ck * k[:, 0] * rkm1[:, 0]])
    return prof, harm


def membership_residuals(table: EigenTable, n_radial: int | None = None) -> dict:
    """Quadrature checks that the table is what it claims to be.

    Returns per-mode arrays:

    * ``normalization``: | ||e||_{L^2}^2 - 1 |
    * ``harmonic_moment``: |(e, h)| against the unit-norm harmonic
      polynomial with the same angular symmetry (the only one that can
      couple); zero is membership in the admissible-vorticity space
    * ``orthogonality``: max off-diagonal Gram entry among same-symmetry
      mode pairs (scalar), the cross-symmetry entries vanishing exactly

    The cos and sin modes of one k share their radial profile, so each
    quantity is computed once per k and copied to both parities.
    """
    if n_radial is None:
        n_radial = int(np.ceil(table.alpha.max())) + 24
    rule = gauss_legendre(n_radial, 0.0, 1.0)
    r, w = rule.nodes, rule.weights
    prof, harm = radial_profiles(table, r)
    profiles = prof[0, 0]
    # angular integral of trig^2: 2 pi for k = 0, pi otherwise
    ang = np.where(np.arange(table.K + 1) == 0, 2.0 * np.pi, np.pi)[:, None, None]
    weighted = ang * (profiles * (w * r))
    gram = weighted @ profiles.transpose(0, 2, 1)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    off = np.where(np.eye(table.J, dtype=bool), 0.0, gram)
    moment = (weighted @ harm[0][:, :, None])[..., 0]

    def per_mode(values):
        return table.from_blocks(np.broadcast_to(values, (2,) + values.shape))

    return {
        "normalization": per_mode(np.abs(diag - 1.0)),
        "harmonic_moment": per_mode(np.abs(moment)),
        "orthogonality": float(np.max(np.abs(off))),
    }
