"""Reference evaluations of harmonic sums kept for the tests, one term
at a time on the full broadcast shape of (r, theta).

``element_values`` is ``annulus.HarmonicElement`` as the package
evaluated it before every harmonic sum went through
``fields.synthesize_points``: the element's own radial power times its
own cos or sin of k theta.  It reads only the element's record (k,
parity, expo, scale), so it checks the summed evaluation's row layout,
its d_theta rows and its broadcasting independently.

``disk_harmonic_values`` evaluates a disk harmonic part given as cos/sin
rows (2, n) against the unit harmonics h_k = c_k r^k, the way
``fields.HarmonicExpansion.eval`` did before the rows became the only
layout.  It spells out c_k itself rather than reading the package's.
"""

from __future__ import annotations

import numpy as np


def element_values(h, r, theta, what: str = "value"):
    """scale r^expo {cos,sin}(k theta), or its d_r / d_theta, at broadcast (r, theta)."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    k, e = h.k, h.expo
    if what == "value":
        rad = h.scale * r**e
        ang = np.cos(k * theta) if h.parity == "cos" else np.sin(k * theta)
    elif what == "d_r":
        rad = h.scale * e * r ** (e - 1) if e != 0 else np.zeros_like(r)
        ang = np.cos(k * theta) if h.parity == "cos" else np.sin(k * theta)
    elif what == "d_theta":
        rad = h.scale * r**e
        ang = -k * np.sin(k * theta) if h.parity == "cos" else k * np.cos(k * theta)
    else:
        raise ValueError(f"unknown what: {what!r}")
    return rad * ang


def element(h):
    """The element as a field callable f(r, theta, what)."""
    return lambda r, theta, what="value": element_values(h, r, theta, what)


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
