"""Reference log-kernel potentials kept for the tests: one point at a time.

These are ``newtonian_potential`` and ``greens_potential`` as the
package computed them before the blocked quadrature in ``fields``: for
each evaluation point, the squared distances to every quadrature node,
the clamped log kernel (plus the disk Green function's image term) and
one weighted sum.  They read only the public grid nodes and weights, so
they check the blocked routine's layout, its block boundaries and its
near-node guard independently.  They return the values and the
``near_node`` flags and raise no warning.
"""

from __future__ import annotations

import numpy as np


def _nodes_weights(omega_samples):
    grid = omega_samples.grid
    rr, tt = grid.node_polar()
    ynodes = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=1)
    wq = (np.outer(grid.wr * grid.r, np.full(grid.n_angular, grid.wtheta))).ravel()
    gaps = np.diff(grid.r)
    guard = 0.5 * float(np.min(gaps)) if gaps.size else 0.25
    return ynodes, wq * omega_samples.values.ravel(), guard


def newtonian_points(omega_samples, eval_points):
    """(values, near_node) of (1/2pi) int ln|x - y| omega(y) dy."""
    ynodes, dens, guard = _nodes_weights(omega_samples)
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    vals = np.empty(pts.shape[0])
    flags = np.empty(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        d2 = np.sum((ynodes - p) ** 2, axis=1)
        flags[i] = np.sqrt(float(np.min(d2))) < guard
        d2 = np.maximum(d2, 1e-280)
        vals[i] = float(np.dot(dens, 0.5 * np.log(d2))) / (2.0 * np.pi)
    return vals, flags


def greens_points(omega_samples, eval_points):
    """(values, near_node) of the disk Green function potential."""
    ynodes, dens, guard = _nodes_weights(omega_samples)
    pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
    radii2 = np.sum(pts**2, axis=1)
    y2 = np.sum(ynodes**2, axis=1)
    vals = np.empty(pts.shape[0])
    flags = np.empty(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        d2 = np.sum((ynodes - p) ** 2, axis=1)
        flags[i] = np.sqrt(float(np.min(d2))) < guard
        d2 = np.maximum(d2, 1e-280)
        image = radii2[i] * y2 - 2.0 * (ynodes @ p) + 1.0
        kernel = 0.5 * (np.log(d2) - np.log(image))
        vals[i] = float(np.dot(dens, kernel)) / (2.0 * np.pi)
    return vals, flags
