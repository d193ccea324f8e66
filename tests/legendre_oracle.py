"""The annulus's Legendre table as the package once built it, one
``numpy.polynomial.Legendre`` object per degree and derivative order,
each evaluated on its own.

``legendre_tables(n_poly, R)`` returns the Gauss rule (nodes, weights)
of 2 n_poly + 16 points on (R, 1), the tables (3, n_poly+1, nodes) of
the values, first and second derivatives of the Legendre family mapped
onto (R, 1), and the same at the walls as ends (3, 2, n_poly+1), wall 0
at R and wall 1 at 1: the layout of ``annulus._legendre_tables``.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Legendre

from diskvort.specfun import gauss_legendre


def legendre_tables(n_poly: int, R: float):
    nodes, weights = gauss_legendre(2 * n_poly + 16, R, 1.0)
    polys = [Legendre.basis(i, domain=[R, 1.0]) for i in range(n_poly + 1)]
    derivs = [[p.deriv(d) if d else p for p in polys] for d in range(3)]
    tables = np.stack([np.stack([p(nodes) for p in ps]) for ps in derivs])
    ends = np.array([[[p(point) for p in ps] for point in (R, 1.0)] for ps in derivs])
    return nodes, weights, tables, ends
