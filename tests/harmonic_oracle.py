"""Reference evaluation of one annulus harmonic kept for the tests.

This is ``annulus.HarmonicElement`` as the package evaluated it before
every harmonic sum went through ``fields.synthesize_points``: the
element's own radial power times its own cos or sin of k theta, on the
full broadcast shape of (r, theta).  It reads only the element's
record (k, parity, expo, scale), so it checks the summed evaluation's
row layout, its d_theta rows and its broadcasting independently.
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
