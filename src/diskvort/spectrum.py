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

``build_table`` computes the zeros and the constants as two (K+1, J)
blocks indexed (k, j-1), and ``EigenTable(alpha, norm)`` derives the
rest from them with array operations: the eigenvalue order of the
modes, the per-mode ``lam``, ``alpha`` and ``norm`` in that order, and
the block positions ``perm``; the ``modes`` tuple is built on first read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specfun import MAX_ORDER, _bessel_stack, _zero_search, gauss_legendre, is_integer

__all__ = [
    "ModeIndex",
    "EigenTable",
    "build_table",
    "table_size_problems",
    "radial_profiles",
    "membership_residuals",
]

_PARITIES = ("cos", "sin")


@dataclass(frozen=True)
class ModeIndex:
    """Angular wavenumber k, radial index j (1-based), angular parity."""

    k: int
    j: int
    parity: str

    def __post_init__(self):
        if not is_integer(self.k):
            raise ValueError(f"angular wavenumber must be an integer, got {self.k!r}")
        if not is_integer(self.j):
            raise ValueError(f"radial index must be an integer, got {self.j!r}")
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

    Built from two (K+1, J) blocks indexed (k, j-1): ``alpha``, the
    zeros alpha_{k+1,j}, and ``norm``, the constants c_{k,j}.  The
    modes are the slots (parity, k, j-1) of the coefficient blocks,
    arrays (..., 2, K+1, J) with parity 0 = cos, 1 = sin, except the
    k = 0 sine row, which is identically zero.  One sort on
    (lambda, k, parity), cos first within a cos/sin pair, orders them;
    ``lam`` = alpha^2, ``alpha`` and ``norm`` are gathers in that order.
    ``modes``, the ``ModeIndex`` of each position, is built on its first
    read (the solver never reads it).  ``perm[p, k, j-1]`` is the position of mode
    (k, j, parity p) in the sorted table (``len(table)``, a zero pad
    slot, for the k = 0 sine row); ``to_blocks`` and ``from_blocks``
    convert between the two layouts.
    """

    def __init__(self, alpha, norm):
        alpha, norm = (np.asarray(a, dtype=float) for a in (alpha, norm))
        if alpha.ndim != 2 or alpha.size == 0 or norm.shape != alpha.shape:
            raise ValueError("inconsistent table arrays")
        self.K, self.J = alpha.shape[0] - 1, alpha.shape[1]
        lam = alpha * alpha
        p, k, j = np.indices((2,) + alpha.shape).reshape(3, -1)
        pad = (p == 1) & (k == 0)
        # flat slots in table order, the pad row last (lexsort's last key is the primary one)
        slots = np.lexsort((p, k, lam[k, j], pad))
        n = slots.size - self.J
        self._scatter = slots[:n]
        self.perm = np.full((2, self.K + 1, self.J), n, dtype=np.intp)
        self.perm.flat[self._scatter] = np.arange(n)
        # the pad slot reads mode 0, then is zeroed
        self._gather = np.where(self.perm == n, 0, self.perm)
        k, j = k[self._scatter], j[self._scatter]
        self.lam, self.alpha, self.norm = lam[k, j], alpha[k, j], norm[k, j]

    @cached_property
    def modes(self) -> tuple[ModeIndex, ...]:
        p, k, j = np.unravel_index(self._scatter, self.perm.shape)
        return tuple(
            ModeIndex(kk, jj + 1, _PARITIES[pp])
            for pp, kk, jj in zip(p.tolist(), k.tolist(), j.tolist())
        )

    def __len__(self) -> int:
        return self._scatter.size

    @property
    def lambda_min(self) -> float:
        return float(self.lam[0])

    @property
    def lambda_max(self) -> float:
        return float(self.lam[-1])

    def position(self, mode: ModeIndex) -> int:
        if mode.k > self.K or mode.j > self.J:
            raise KeyError(f"mode {mode} not in table (K={self.K}, J={self.J})")
        return int(self.perm[_PARITIES.index(mode.parity), mode.k, mode.j - 1])

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
        modes = [
            {"k": m.k, "j": m.j, "parity": m.parity, "lambda": lam, "alpha": a, "norm": c}
            for m, lam, a, c in zip(self.modes, self.lam, self.alpha, self.norm)
        ]
        return json.dumps({"K": self.K, "J": self.J, "modes": modes}, indent=1)


def table_size_problems(K, J) -> list[str]:
    """What is wrong with the table size (K, J): one message per bad
    parameter, starting with its name; empty if the size is admissible.
    The table of K needs Bessel zeros up to order K + 1."""
    problems = []
    if not (is_integer(K) and 0 <= K <= MAX_ORDER - 1):
        problems.append(f"K must be an integer in [0, {MAX_ORDER - 1}], got {K!r}")
    if not (is_integer(J) and J >= 1):
        problems.append(f"J must be an integer >= 1, got {J!r}")
    return problems


def build_table(K: int, J: int) -> EigenTable:
    """All modes with k <= K and radial index j <= J, eigenvalue-sorted."""
    problems = table_size_problems(K, J)
    if problems:
        raise ValueError("; ".join(problems))
    alpha = _zero_search(np.arange(1, K + 2), J)
    return EigenTable(alpha, _norm_consts(alpha))


def _harm_const(k):
    """L^2 normalization of the unit harmonic c_k r^k {cos, sin}(k theta),
    elementwise for an array of wavenumbers."""
    k = np.asarray(k)
    return np.where(k == 0, 1.0 / np.sqrt(np.pi), np.sqrt((2.0 * k + 2.0) / np.pi))


def radial_profiles(table: EigenTable, r) -> tuple[np.ndarray, np.ndarray]:
    """Radial profiles of every basis function at radii ``r`` in (0, 1].

    Returns ``(prof, harm)``.  ``prof`` has shape (3, 2, K+1, J, n_r),
    indexed by derivative order (value, d_r, d_rr), by kind (0:
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


def membership_residuals(table: EigenTable) -> dict:
    """Quadrature checks that the table is what it claims to be, by a
    Gauss rule of ceil(alpha_max) + 24 radial nodes.

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
    r, w = gauss_legendre(int(np.ceil(table.alpha.max())) + 24, 0.0, 1.0)
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
