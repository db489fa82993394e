"""``g``, ``h`` and the dual polynomials against 40-digit mpmath values.

The references are written from the defining formulas, apart from the
library, and evaluated on the exact binary values of the float inputs.
The points lie within 1e-6 of the boundary of ``Q`` (the functionals
within 1e-6 of that of ``Q°``), where ``h`` and ``h°`` nearly vanish and
cancellation is worst.

What ``primal_polys``' ``rel_tol`` allows: its cross-check bounds
``|h - h_squared|`` by ``rel_tol·max(1, |h|)``, which is the absolute
bound 1e-9 everywhere in the cube.  On these points the two float forms
miss the 40-digit value, and each other, by at most about 2e-15, which is
1.3e-6 of that bound.  Relative to ``h`` itself the bound is loose: at the
Q3 and Q4 points ``|h|`` is about 1e-6 or less (the median over all points
is 9e-7), so there the check would pass a relative error of 1e-3 and more.
"""

import mpmath
import numpy as np
import pytest
from mpmath import mpf

from qbody import (
    Correlation,
    Functional,
    dual_polys,
    exposing_functional,
    extreme_from_angles,
    primal_polys,
)
from qbody.core import _h_squared

from helpers import q3_point, q5_point, random_symmetry, tetra_angles

_DIGITS = 40
_ABS = 1e-14        # float error allowed against the reference, |x| <= 1
_REL_TOL = 1e-9     # primal_polys' bound, core._REL_TOL


def _g_mp(c):
    c11, c12, c21, c22 = (mpf(v) for v in c)
    return 2 - (c11**2 + c12**2 + c21**2 + c22**2) + 2 * c11 * c12 * c21 * c22


def _h_mp(c):
    c11, c12, c21, c22 = (mpf(v) for v in c)
    return (4 * (1 - c11**2) * (1 - c12**2) * (1 - c21**2) * (1 - c22**2)
            - _g_mp(c) ** 2)


def _h_product_mp(c):
    c11, c12, c21, c22 = (mpf(v) for v in c)
    return (4 * (c11 * c22 - c12 * c21) * (c11 * c21 - c12 * c22)
            * (c11 * c12 - c21 * c22)
            - (c11 + c12 - c21 - c22) * (c11 - c12 + c21 - c22)
            * (c11 - c12 - c21 + c22) * (c11 + c12 + c21 + c22))


def _dual_mp(f):
    f11, f12, f21, f22 = (mpf(v) for v in f)
    k = (f11 * f22 - f12 * f21) * (f11 * f12 - f21 * f22) \
        * (f11 * f21 - f12 * f22)
    p = f11 * f12 * f21 * f22
    q = (f11 + f12 + f21 + f22) * (f11 - f12 + f21 - f22) \
        * (f11 + f12 - f21 - f22) * (f11 - f12 - f21 + f22)
    return {"k": k, "p": p, "q": q, "h_dual": k - p,
            "g_dual": 1 - 2 * (f11**2 + f12**2 + f21**2 + f22**2) + q}


def _near_boundary_points(rng, n):
    """Q4, Q3 and facet points under random group images, moved by up to
    1e-6 per coordinate and kept in the cube."""
    out = []
    for t in tetra_angles(rng, n):
        out.append(extreme_from_angles(t).c.as_array())
        out.append(q3_point(rng).as_array())
        out.append(q5_point(rng).as_array())
    return [Correlation.from_sequence(np.clip(
        random_symmetry(rng) @ c + rng.uniform(-1e-6, 1e-6, size=4),
        -1.0, 1.0)) for c in out]


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(_DIGITS):
        yield


class TestPrimalPolys:
    def test_within_float_rounding_of_forty_digits(self):
        rng = np.random.default_rng(41)
        points = _near_boundary_points(rng, 400)
        near = 0
        for c in points:
            t = c.as_tuple()
            h_ref = _h_mp(t)
            # the two exact forms of h are one polynomial
            assert abs(h_ref - _h_product_mp(t)) < mpf(10) ** -35
            near += abs(h_ref) < 1e-5
            polys = primal_polys(c)
            assert abs(polys.g - _g_mp(t)) <= _ABS
            assert abs(polys.h - h_ref) <= _ABS
            assert abs(_h_squared(*t) - h_ref) <= _ABS
        # most points really are close to the boundary, where h is small
        assert near >= len(points) // 2

    def test_rel_tol_headroom(self):
        """The float forms of ``h`` miss the reference, and each other, by
        a small share of the ``rel_tol`` bound."""
        rng = np.random.default_rng(43)
        used = 0.0
        for c in _near_boundary_points(rng, 200):
            t = c.as_tuple()
            h, h_sq, h_ref = primal_polys(c).h, _h_squared(*t), _h_mp(t)
            bound = _REL_TOL * max(1.0, abs(h), abs(h_sq))
            used = max(used, abs(h - h_sq) / bound,
                       float(abs(h - h_ref)) / bound,
                       float(abs(h_sq - h_ref)) / bound)
        assert used < 1e-4


class TestDualPolys:
    def test_within_float_rounding_of_forty_digits(self):
        rng = np.random.default_rng(47)
        for t in tetra_angles(rng, 600, k_min=0.2):
            f0 = random_symmetry(rng) @ exposing_functional(t).as_array()
            f = Functional.from_sequence(
                f0 * (1.0 + float(rng.uniform(-1e-6, 1e-6))))
            assert max(abs(v) for v in f.as_tuple()) <= 1.0
            polys = dual_polys(f)
            for name, ref in _dual_mp(f.as_tuple()).items():
                assert abs(getattr(polys, name) - ref) <= _ABS, name
