import math

import numpy as np
import pytest

from qbody import (
    ConsistencyError,
    Correlation,
    Functional,
    Tolerance,
    TransformDirection,
    chsh_values,
    dual_polys,
    dual_transform,
    orbit,
    primal_polys,
    symmetry_group,
)
from qbody.core import _assert_close, _fold_sum, _g, _h, _h_squared, _two_h

from helpers import (CHSH_POINT, EVEN_VERTEX_TUPLES, HADAMARD, SQRT2, TWO_H,
                     group_matrices, q2_point)


class TestPrimalPolys:
    def test_origin(self):
        polys = primal_polys(Correlation(0, 0, 0, 0))
        assert polys.g == 2.0
        assert polys.h == 0.0

    def test_maximal_violation_point(self):
        polys = primal_polys(CHSH_POINT)
        assert polys.g == pytest.approx(-0.5, abs=1e-14)
        assert polys.h == pytest.approx(0.0, abs=1e-14)

    def test_nonquantum_box(self):
        polys = primal_polys(Correlation(1, 1, 1, -1))
        assert polys.g == -4.0
        assert polys.h == -16.0

    def test_two_h_forms_agree_on_big_box(self):
        rng = np.random.default_rng(101)
        pts = rng.uniform(-2.0, 2.0, size=(100000, 4))
        a, b, c, d = pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]
        g = 2.0 - (pts * pts).sum(axis=1) + 2.0 * pts.prod(axis=1)
        h1 = 4.0 * ((1 - a * a) * (1 - b * b) * (1 - c * c) * (1 - d * d)) - g * g
        h2 = (4.0 * (a * d - b * c) * (a * c - b * d) * (a * b - c * d)
              - (a + b - c - d) * (a - b + c - d) * (a - b - c + d)
              * (a + b + c + d))
        scale = np.maximum(1.0, np.maximum(np.abs(h1), np.abs(h2)))
        assert (np.abs(h1 - h2) <= 1e-9 * scale).all()
        # and the scalar path agrees with the vectorized one on a sample
        for row in pts[:200]:
            assert _h(*row) == pytest.approx(
                _h_squared(*row), rel=1e-9, abs=1e-9)

    # g, h and the squared form overflow together in the first; in the
    # second only h does, and both forms of h read -inf, which the two-form
    # comparison would let through
    @pytest.mark.parametrize("entries", [(1e308, -1.0, -1.0, -1.0),
                                         (1e60, 1e60, 1e60, 0.5)])
    def test_overflow_is_named(self, entries):
        with pytest.raises(ConsistencyError, match="overflows the float range"):
            primal_polys(Correlation(*entries))


class TestDualPolys:
    def test_dual_boundary_point(self):
        f = Functional(*(v / (2 * SQRT2) for v in (1, 1, 1, -1)))
        polys = dual_polys(f)
        assert polys.p == pytest.approx(-1 / 64, abs=1e-15)
        assert polys.k == pytest.approx(-1 / 64, abs=1e-15)
        assert polys.h_dual == pytest.approx(0.0, abs=1e-15)

    def test_facet_functional(self):
        polys = dual_polys(Functional(1, 0, 0, 0))
        assert polys.k == 0.0
        assert polys.p == 0.0
        assert polys.q == 1.0
        assert polys.g_dual == 0.0

    def test_zero(self):
        polys = dual_polys(Functional(0, 0, 0, 0))
        assert (polys.k, polys.p, polys.q) == (0.0, 0.0, 0.0)
        assert polys.g_dual == 1.0

    def test_nan_in_cross_check_is_consistency_error(self):
        # at 2^270 both k and p overflow to -inf, so h_dual = k - p is NaN
        f = Functional(*(math.ldexp(v, 270) for v in (3, 1, 2, -1)))
        with pytest.raises(ConsistencyError):
            dual_polys(f)

    def test_infinite_polys_are_consistency_error(self):
        # k and h_dual overflow to -inf on both routes; equal infinities
        # are not agreement
        with pytest.raises(ConsistencyError):
            dual_polys(Functional(1e60, 1e60, 1e60, 0.5))

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.0, math.nan),
                                      (math.nan, math.nan),
                                      (-math.inf, -math.inf),
                                      (math.inf, math.inf), (math.inf, 1.0),
                                      (1.0, -math.inf)])
    def test_assert_close_rejects_nan_on_either_side(self, a, b):
        with pytest.raises(ConsistencyError):
            _assert_close(a, b, 1e-9, "nan")


class TestChshValues:
    def test_maximal_violation(self):
        assert max(chsh_values(CHSH_POINT)) == pytest.approx(SQRT2, abs=1e-12)

    def test_classical_vertex(self):
        vals = chsh_values(Correlation(1, 1, 1, 1))
        assert all(v in (0.0, 1.0, -1.0) for v in vals)
        assert max(vals) == 1.0

    def test_nonquantum_box(self):
        assert max(chsh_values(Correlation(1, 1, 1, -1))) == 2.0

    def test_multiset_invariant_under_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.uniform(-1, 1, size=4)
            base = sorted(chsh_values(Correlation.from_sequence(c)))
            S = symmetry_group()[int(rng.integers(0, 192))]
            image = sorted(chsh_values(Correlation.from_sequence(S @ c)))
            assert np.allclose(base, image, atol=1e-12)


class TestDualTransform:
    def test_from_dual_axis(self):
        assert dual_transform((1, 0, 0, 0), TransformDirection.FROM_DUAL) \
            == (1.0, 1.0, 1.0, 1.0)

    def test_round_trip(self):
        x = (0.3, -0.1, 0.7, 0.2)
        y = dual_transform(dual_transform(x, TransformDirection.FROM_DUAL),
                           TransformDirection.TO_DUAL)
        assert np.allclose(y, x, atol=1e-15)

    def test_eigenvector_direction(self):
        x = tuple(v / (2 * SQRT2) for v in (1, 1, 1, -1))
        y = dual_transform(x, TransformDirection.FROM_DUAL)
        assert np.allclose(y, [v / SQRT2 for v in (1, 1, 1, -1)], atol=1e-15)

    def test_orthogonal_involutive(self):
        assert np.abs(HADAMARD @ HADAMARD - np.eye(4)).max() == 0.0
        assert np.abs(HADAMARD @ HADAMARD.T - np.eye(4)).max() == 0.0
        assert np.array_equal(TWO_H @ TWO_H, 4 * np.eye(4, dtype=np.int64))


class TestTwoHKernel:
    """``_two_h`` against the matrix product it replaces, ``TWO_H @ v``."""

    def test_exact_on_dyadic_inputs(self):
        # integers times a power of two: every partial sum is exact on both
        # routes, whatever order the matrix product adds in
        rng = np.random.default_rng(41)
        for _ in range(2000):
            v = rng.integers(-2 ** 20, 2 ** 20, size=4) \
                * 2.0 ** int(rng.integers(-60, 60))
            assert _two_h(*v.tolist()) == tuple((TWO_H @ v).tolist())
            assert dual_transform(v, TransformDirection.TO_DUAL) \
                == tuple((0.5 * (HADAMARD @ v)).tolist())
            assert dual_transform(v, TransformDirection.FROM_DUAL) \
                == tuple((TWO_H @ v).tolist())

    def test_within_rounding_on_normal_vectors(self):
        # three roundings of partial sums up to 4·max|v| on either route
        rng = np.random.default_rng(43)
        for _ in range(5000):
            v = rng.normal(size=4) * 10.0 ** int(rng.integers(-30, 30))
            bound = 16 * np.spacing(np.abs(v).max())
            got = np.array(_two_h(*v.tolist()))
            assert np.abs(got - TWO_H @ v).max() <= bound


def _orbit_reference(c: Correlation, eps_angle: float = 1e-9) -> list[tuple]:
    """Images ``S @ c`` one matrix at a time, sorted as tuples, each kept
    unless it lies within ``eps_angle`` in max norm of any kept image."""
    v = c.as_array()
    images = sorted(tuple(float(t) for t in (S @ v))
                    for S in group_matrices())
    kept = []
    for img in images:
        if not any(max(abs(a - b) for a, b in zip(img, other)) < eps_angle
                   for other in kept):
            kept.append(img)
    return kept


class TestSymmetryGroup:
    def test_one_read_only_array_in_reference_order(self):
        group = symmetry_group()
        assert group.shape == (192, 4, 4) and group.dtype == np.int64
        assert np.array_equal(group, np.array(group_matrices()))
        with pytest.raises(ValueError):
            group[0, 0, 0] = 2

    def test_size_and_members(self):
        group = symmetry_group()
        assert len(group) == 192
        keys = {g.tobytes() for g in group}
        assert len(keys) == 192
        assert np.eye(4, dtype=np.int64).tobytes() in keys
        assert (-np.eye(4, dtype=np.int64)).tobytes() in keys

    def test_closure_and_inverse_exact(self):
        group = symmetry_group()
        keys = {g.tobytes() for g in group}
        rng = np.random.default_rng(3)
        for _ in range(400):
            i, j = rng.integers(0, 192, size=2)
            assert (group[i] @ group[j]).tobytes() in keys
            # the inverse of a signed permutation matrix is its transpose
            assert np.ascontiguousarray(group[i].T).tobytes() in keys

    def test_preserves_even_vertices(self):
        group = symmetry_group()
        vertices = {v for v in EVEN_VERTEX_TUPLES}
        for S in group:
            for v in EVEN_VERTEX_TUPLES:
                image = tuple(int(x) for x in S @ np.array(v))
                assert image in vertices

    def test_polys_invariant(self):
        rng = np.random.default_rng(11)
        group = symmetry_group()
        for _ in range(40):
            c = rng.uniform(-1.5, 1.5, size=4)
            g0 = _g(*c)
            h0 = _h(*c)
            for idx in rng.integers(0, 192, size=12):
                img = group[idx] @ c
                assert _g(*img) == pytest.approx(g0, rel=1e-9, abs=1e-9)
                assert _h(*img) == pytest.approx(
                    h0, rel=1e-9, abs=1e-9)


class TestOrbit:
    def test_fixed_point(self):
        assert orbit(Correlation(0, 0, 0, 0)) == [Correlation(0, 0, 0, 0)]

    def test_maximal_violation_orbit(self):
        points = orbit(CHSH_POINT)
        assert len(points) == 8
        for p in points:
            signs = [1 if v > 0 else -1 for v in p.as_tuple()]
            assert signs[0] * signs[1] * signs[2] * signs[3] == -1
            assert np.allclose(np.abs(p.as_array()), 1 / SQRT2, atol=1e-15)

    @pytest.mark.parametrize("eps_angle", [1e-9, 0.15])
    def test_matches_all_kept_scan(self, eps_angle):
        rng = np.random.default_rng(17)
        points = [Correlation.from_sequence(rng.uniform(-1, 1, size=4))
                  for _ in range(12)]
        points += [
            Correlation(0, 0, 0, 0),
            Correlation(-0.0, 0.0, -0.0, 0.0),
            Correlation(1, 1, 1, 1),
            q2_point(rng),
            CHSH_POINT,
            # coordinates closer than the default eps_angle
            Correlation(0.3, 0.3 + 4e-10, -0.3 - 2e-10, 1e-10),
            Correlation(-0.0, 0.5, 0.5 - 5e-10, 5e-10),
        ]
        tol = Tolerance(eps_boundary=max(eps_angle, 1e-9), eps_angle=eps_angle)
        for c in points:
            got = [p.as_tuple() for p in orbit(c, tol)]
            # repr tells signed zeros apart
            assert repr(got) == repr(_orbit_reference(c, eps_angle))

    def test_vertex_orbit_is_even_vertices(self):
        points = orbit(Correlation(1, 1, 1, 1))
        got = {tuple(int(round(v)) for v in p.as_tuple()) for p in points}
        assert got == set(EVEN_VERTEX_TUPLES)


class TestFoldSum:
    def test_adds_left_to_right_from_zero(self):
        # the builtin sum of Python 3.12 on compensates: 1.0 here
        assert _fold_sum([1e17, 1.0, -1e17]) == 0.0
        assert math.copysign(1.0, _fold_sum([-0.0])) == 1.0
        assert _fold_sum([2, 3]) == 5 and isinstance(_fold_sum([2, 3]), int)


class TestTolerance:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(eps_boundary=0.0)
        with pytest.raises(ValueError):
            Tolerance(eps_psd=1e-3, eps_boundary=1e-9)
        for name in ("eps_boundary", "eps_angle", "eps_psd"):
            with pytest.raises(ValueError, match="positive and finite"):
                Tolerance(**{name: math.inf})

    def test_correlation_requires_finite(self):
        with pytest.raises(ValueError):
            Correlation(math.nan, 0, 0, 0)
        with pytest.raises(ValueError):
            Functional(math.inf, 0, 0, 0)
