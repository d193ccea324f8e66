"""Reference evaluations of harmonic sums kept for the tests, one term
at a time on the full broadcast shape of (r, theta).

``basis_terms`` lists the annulus's zero-flux harmonics as the package
once kept them, one (k, parity, expo, scale) tuple per element in the
order constant, then per k the cos and sin of r^k, then of r^-k, with
the scale from the closed-form norm in plain floats.  ``dense_projection``
is the least squares against that list that the package's per-(parity,
k) 2x2 block solve is checked against: a full Gram matrix from one
``trig_table`` product, summed and solved in ``np.longdouble``, and
its float ``np.linalg.cond``.  ``element_values`` evaluates one term, scale
r^expo {cos,sin}(k theta), by its own radial power and its own cos or
sin of k theta; it reads only the four numbers, so it checks the summed
evaluation's row layout, its d_theta rows and its broadcasting
independently.

``disk_harmonic_values`` evaluates a disk harmonic part given as cos/sin
rows (2, n) against the unit harmonics h_k = c_k r^k, the way
``fields.HarmonicExpansion.eval`` did before the rows became the only
layout.  It spells out c_k itself rather than reading the package's.
"""

from __future__ import annotations

import math

import numpy as np

from diskvort.fields import trig_table


def basis_terms(r_inner: float, degree: int):
    """(k, parity, expo, scale) of each zero-flux harmonic up to the degree,
    scale the inverse L2 norm of r^expo {cos,sin}(k theta) over the annulus."""

    def nrm(expo: int, k: int) -> float:
        # int r^(2e) r dr over (R, 1), times the angular factor
        p = 2 * expo + 2
        radial = math.log(1.0 / r_inner) if p == 0 else (1.0 - r_inner**p) / p
        ang = 2.0 * math.pi if k == 0 else math.pi
        return 1.0 / math.sqrt(radial * ang)

    terms = [(0, "cos", 0)] + [
        (k, parity, expo) for k in range(1, degree + 1) for expo in (k, -k) for parity in ("cos", "sin")
    ]
    return [(k, parity, expo, nrm(expo, k)) for k, parity, expo in terms]


def rows_in_term_order(rows) -> np.ndarray:
    """The entries of harmonic rows (2, 2, degree+1), indexed (power r^+k
    or r^-k, parity, k), in the order of ``basis_terms``."""
    return np.r_[rows[0, 0, 0], rows[:, :, 1:].transpose(2, 0, 1).ravel()]


def dense_projection(geom, f, degree: int):
    """Least-squares coefficients of f against ``basis_terms`` (in that
    order) and the condition number of the full Gram matrix.

    The Gram matrix and the moments are summed in ``np.longdouble``, and
    each (parity, k) pair of r^k and r^-k is solved in that precision: the
    angular rule makes the rest of the matrix vanish up to rounding.  A
    float solve would carry cond * eps of its own, 8.6e-13 of the largest
    coefficient at degree 40 and R = 0.95, against the 1e-12 the block
    solve is held to.
    """
    ld = np.longdouble
    terms = basis_terms(geom.r_inner, degree)
    r, wr = geom.radial_rule()
    th = geom.theta()
    values = np.asarray(f(r[:, None], th[None, :], "value"), dtype=ld)
    trig = trig_table(degree, th).astype(ld)
    rows = [k + (degree + 1) * (q == "sin") for k, q, _, _ in terms]
    r = r.astype(ld)
    prof = np.array([ld(scale) * r**expo for _, _, expo, scale in terms])
    wprof = prof * (wr.astype(ld) * r)
    moments = np.sum(wprof * (values @ trig.T)[:, rows].T, axis=1)
    gram = (wprof @ prof.T) * (trig @ trig.T)[np.ix_(rows, rows)]
    coef = moments / np.diag(gram)  # the constant; the pairs are solved below
    for i in range(1, len(terms), 4):  # per k: cos r^k, sin r^k, cos r^-k, sin r^-k
        for a in (i, i + 1):
            b = a + 2
            det = gram[a, a] * gram[b, b] - gram[a, b] * gram[b, a]
            coef[a] = (gram[b, b] * moments[a] - gram[a, b] * moments[b]) / det
            coef[b] = (gram[a, a] * moments[b] - gram[b, a] * moments[a]) / det
    return coef.astype(float), float(np.linalg.cond(gram.astype(float)))


def element_values(k, parity, expo, scale, r, theta, what: str = "value"):
    """scale r^expo {cos,sin}(k theta), or its d_r / d_theta, at broadcast (r, theta)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if what == "value":
        rad = scale * r**expo
        ang = np.cos(k * theta) if parity == "cos" else np.sin(k * theta)
    elif what == "d_r":
        rad = scale * expo * r ** (expo - 1) if expo != 0 else np.zeros_like(r)
        ang = np.cos(k * theta) if parity == "cos" else np.sin(k * theta)
    elif what == "d_theta":
        rad = scale * r**expo
        ang = -k * np.sin(k * theta) if parity == "cos" else k * np.cos(k * theta)
    else:
        raise ValueError(f"unknown what: {what!r}")
    return rad * ang


def _unit_constant(k: int) -> float:
    """c_k with c_k r^k {cos,sin}(k theta) of unit L^2 norm on the disk."""
    return 1.0 / np.sqrt(np.pi) if k == 0 else np.sqrt((2.0 * k + 2.0) / np.pi)


def disk_harmonic_values(h, r, theta, what: str = "value"):
    """sum_k c_k r^k (h[0, k] cos(k theta) + h[1, k] sin(k theta)), or its
    d_r / d_theta, at broadcast (r, theta)."""
    if what not in ("value", "d_r", "d_theta"):
        raise ValueError(f"unknown what: {what!r}")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast_shapes(r.shape, theta.shape))
    for k in range(np.shape(h)[1]):
        c = _unit_constant(k)
        if what == "d_r":
            rad = c * k * r ** (k - 1) if k > 0 else np.zeros_like(r)
        else:
            rad = c * r**k
        cos, sin = np.cos(k * theta), np.sin(k * theta)
        if what == "d_theta":
            cos, sin = -k * sin, k * cos
        out = out + rad * (h[0][k] * cos + h[1][k] * sin)
    return out
