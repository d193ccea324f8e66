"""The annulus's Legendre table as the package once built it, one
``numpy.polynomial.Legendre`` object per degree and derivative order,
each evaluated on its own.

``legendre_tables(n_poly, R)`` returns the Gauss rule (nodes, weights)
of 2 n_poly + 16 points on (R, 1), the tables (3, n_poly+1, nodes) of
the values, first and second derivatives of the Legendre family mapped
onto (R, 1), and the same at the walls as ends (3, 2, n_poly+1), wall 0
at R and wall 1 at 1: the layout of ``annulus._legendre_tables``.

``numpy_rule_pinned()`` puts back under ``gauss_legendre`` the n-point
rule on [-1, 1] that the package took from numpy's ``leggauss`` before
``specfun._unit_rule``: nodes from the eigenvalues of the companion
matrix with one Newton step, weights from the derivative at them.  Its
moment sums are up to ~50 times less accurate at n = 600 (3.9e-14
against 7.9e-16), but golden fixtures written on it move by more than
their tolerances on the package's rule, so the tests that check them
pin it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from numpy.polynomial import Legendre
from numpy.polynomial.legendre import leggauss

from diskvort import specfun
from diskvort.specfun import gauss_legendre


@contextmanager
def numpy_rule_pinned():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_unit_rule", leggauss)
        yield


def legendre_tables(n_poly: int, R: float):
    nodes, weights = gauss_legendre(2 * n_poly + 16, R, 1.0)
    polys = [Legendre.basis(i, domain=[R, 1.0]) for i in range(n_poly + 1)]
    derivs = [[p.deriv(d) if d else p for p in polys] for d in range(3)]
    tables = np.stack([np.stack([p(nodes) for p in ps]) for ps in derivs])
    ends = np.array([[[p(point) for p in ps] for point in (R, 1.0)] for ps in derivs])
    return nodes, weights, tables, ends
