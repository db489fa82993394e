
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbody import (
    AngleTuple,
    ConsistencyError,
    Correlation,
    Functional,
    NCYCLE_RESIDUAL_NAMES,
    Oracle,
    OutsideTetrahedron,
    TransformDirection,
    ZeroFunctional,
    dual_completion,
    dual_member,
    dual_transform,
    exposing_functional,
    extreme_from_angles,
    gauge,
    member,
    ncycle_residuals,
    phi_map,
    quantum_case,
    solve_completion,
    support,
)
from qbody import duality

from helpers import (CHSH_ANGLES, CHSH_POINT, EVEN_VERTEX_TUPLES, SQRT2,
                     certificate_matrix, deep_interior_point,
                     dual_completion_grid, min_eigenvalue, random_symmetry,
                     tetra_angles)


class TestQuantumCase:
    def test_maximal_violation_direction(self):
        verdict = quantum_case(Functional(0.5, 0.5, 0.5, -0.5))
        assert verdict.quantum_case
        assert verdict.m_value == pytest.approx(4.0, abs=1e-12)
        assert verdict.phi_quantum == pytest.approx(SQRT2, abs=1e-12)

    def test_facet_functional_classical(self):
        verdict = quantum_case(Functional(1, 0, 0, 0))
        assert not verdict.quantum_case
        assert verdict.m_value is None

    def test_nonnegative_functional_classical(self):
        assert not quantum_case(Functional(1, 1, 1, 1)).quantum_case

    def test_zero_rejected(self):
        with pytest.raises(ZeroFunctional):
            quantum_case(Functional(0, 0, 0, 0))


class TestSupport:
    def test_tsirelson_value(self):
        assert support(Functional(0.5, 0.5, 0.5, -0.5)) \
            == pytest.approx(SQRT2, abs=1e-13)

    def test_facet_functional(self):
        assert support(Functional(1, 0, 0, 0)) == 1.0

    def test_classical_branch(self):
        assert support(Functional(1, 1, 1, 1)) == 4.0

    def test_zero(self):
        assert support(Functional(0, 0, 0, 0)) == 0.0

    def test_subnormal_entry_stays_classical(self):
        # 1/5e-324 overflows; m must still come out near 1, not infinite
        assert support(Functional(1.0, 2.0, 5e-324, -1.0)) == 4.0

    def test_tiny_quantum_functional(self):
        # k = -4e-360 underflows to zero in floating point
        f = Functional(1e-60, 1e-60, 1e-60, -1e-60)
        assert support(f) == pytest.approx(2.0 * SQRT2 * 1e-60,
                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("j", [-270, 200, 270])
    def test_homogeneous_where_products_leave_float_range(self, j):
        # at 2^-270 p underflows to 0 (read as classical); at 2^200 k
        # overflows (support inf), at 2^270 k and p do (support nan)
        f = (3.0, 1.0, 2.0, -1.0)
        scaled = Functional(*(math.ldexp(v, j) for v in f))
        assert quantum_case(scaled).quantum_case
        assert support(scaled) == math.ldexp(support(Functional(*f)), j)

    @pytest.mark.parametrize("entries", [(1.0, 1e-103, 1e-103, -1e-103),
                                         (0.9, 2e-104, -3e-104, 5e-104)])
    def test_subnormal_product_takes_exact_arithmetic(self, entries,
                                                      monkeypatch):
        # p of the scaled entries is subnormal, so quantum_case and the
        # maximizer of dual_completion each fall back to Fractions
        calls = []
        exact = duality._exact
        monkeypatch.setattr(duality, "_exact",
                            lambda e: calls.append(e) or exact(e))
        f = Functional(*entries)
        assert quantum_case(f).quantum_case and len(calls) == 1
        result = dual_completion(f)
        assert len(calls) == 3
        with mpmath.workdps(60):
            a, b, c, d = map(mpmath.mpf, entries)
            k = (a * d - b * c) * (a * b - c * d) * (a * c - b * d)
            reference = float(mpmath.sqrt(k / (a * b * c * d)))
        assert result.support == pytest.approx(reference, rel=1e-15, abs=0.0)
        assert f.dot(result.maximizer) == pytest.approx(result.support,
                                                        abs=1e-15)
        assert member(result.maximizer, Oracle.SEMIALG).inside

    def test_tiny_nonclassical_functional(self):
        f = Functional(3e-90, 1e-90, 2e-90, -1e-90)
        assert support(f) == pytest.approx(
            1e-90 * support(Functional(3, 1, 2, -1)), rel=1e-15, abs=0.0)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.tuples(*[st.floats(-2.0, 2.0).filter(lambda v: abs(v) >= 1e-3)]
                     * 4),
           st.integers(-300, 300))
    def test_positively_homogeneous_at_every_scale(self, entries, j):
        f = Functional(*entries)
        scaled = Functional(*(2.0 ** j * v for v in entries))
        assert support(scaled) == pytest.approx(2.0 ** j * support(f),
                                                rel=1e-15, abs=0.0)
        assert quantum_case(scaled).quantum_case == quantum_case(f).quantum_case

    def test_homogeneity(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            f = rng.uniform(-1, 1, size=4)
            lam = float(rng.uniform(0.1, 10.0))
            a = support(Functional.from_sequence(lam * f))
            b = lam * support(Functional.from_sequence(f))
            assert a == pytest.approx(b, rel=1e-12)

    def test_dominates_inner_products(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            f = Functional.from_sequence(rng.uniform(-1, 1, size=4))
            phi = support(f)
            for _ in range(50):
                c = deep_interior_point(rng, depth=1e-6)
                assert f.dot(c) <= phi + 1e-12

    def test_exposing_attains_support(self):
        rng = np.random.default_rng(83)
        for t in tetra_angles(rng, 100, k_min=0.2):
            f = exposing_functional(t)
            c = extreme_from_angles(t).c
            assert support(f) == pytest.approx(f.dot(c), abs=1e-9)


class TestGauge:
    def test_origin(self):
        assert gauge(Correlation(0, 0, 0, 0)) == 0.0

    def test_boundary_point(self):
        assert gauge(CHSH_POINT) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_scaling(self):
        assert gauge(Correlation(1, 1, 1, -1)) == pytest.approx(SQRT2, abs=1e-12)

    def test_overflowing_transform_is_a_domain_error(self):
        # Hc/2 sums entries of 1e308 to inf; this must not surface as the
        # ValueError of a non-finite Functional
        with pytest.raises(ConsistencyError, match="overflows"):
            gauge(Correlation(1e308, 1e308, 1e308, 1e308))

    def test_matches_membership_bisection(self):
        rng = np.random.default_rng(89)
        for _ in range(10000):
            raw = rng.uniform(-1.2, 1.2, size=4)
            scale = np.abs(raw).max()
            if scale < 1e-3:
                continue
            c = Correlation.from_sequence(raw)
            value = gauge(c)
            lo, hi = 0.0, 1.0 / scale + 1e-9
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                inside = member(
                    Correlation.from_sequence(mid * raw), Oracle.SEMIALG).inside
                lo, hi = (mid, hi) if inside else (lo, mid)
            bisected = 1.0 / lo
            assert value == pytest.approx(bisected, abs=1e-7, rel=1e-7)
            assert member(c, Oracle.SEMIALG).inside == (value <= 1.0) \
                or abs(value - 1.0) < 1e-9


class TestDualMember:
    def test_boundary_functional(self):
        f = Functional(*(v / (2 * SQRT2) for v in (1, 1, 1, -1)))
        verdict = dual_member(f)
        assert abs(verdict.margin) < 1e-12

    def test_facet_vertex(self):
        verdict = dual_member(Functional(1, 0, 0, 0))
        assert verdict.inside and abs(verdict.margin) < 1e-12

    def test_outside(self):
        assert not dual_member(Functional(1, 1, 1, 1)).inside

    def test_overflowing_transform_is_a_domain_error(self):
        # 2Hf sums entries near the float maximum to inf; this must not
        # surface as the ValueError of a non-finite Correlation
        with pytest.raises(ConsistencyError, match="overflows"):
            dual_member(Functional(1.7e308, 1e308, 1.5e308, -1e308))


class TestDualCompletion:
    def test_boundary_functional_witness(self):
        f = Functional(*(v / (2 * SQRT2) for v in (1, 1, 1, -1)))
        result = dual_completion(f)
        assert result.feasible
        assert result.witness.p1 == pytest.approx(0.5, abs=1e-9)
        assert result.witness.p3 == pytest.approx(0.5, abs=1e-9)
        eigs = np.linalg.eigvalsh(certificate_matrix(result.witness))
        assert np.allclose(eigs, [0, 0, 1, 1], atol=1e-9)

    def test_zero_functional(self):
        result = dual_completion(Functional(0, 0, 0, 0))
        assert result.feasible
        assert np.allclose(certificate_matrix(result.witness), 0.5 * np.eye(4),
                           atol=1e-9)

    def test_infeasible_outside_polar(self):
        assert not dual_completion(Functional(1, 1, 1, 1)).feasible

    def test_unbalanceable_diagonal_is_a_domain_error(self):
        # p1 is about 5e149, so 1 - p1 loses the unit and the diagonal
        # cannot sum to 2; this must not surface as a ValueError
        with pytest.raises(ConsistencyError, match="cannot be balanced"):
            dual_completion(Functional(3e150, 1e150, 2e150, -1e150))

    @pytest.mark.parametrize("scale", [1e15, 1e200])
    def test_inexact_diagonal_is_a_domain_error(self, scale):
        # the exact p1 = p3 = 1/2; the computed p1 is 0.75 at 1e15 and 0 at
        # 1e200, while p1 + p2 = 1 holds in both
        with pytest.raises(ConsistencyError, match="cannot be balanced"):
            dual_completion(Functional(scale, scale, scale, -scale))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e4])
    def test_certificate_is_exact_where_the_bound_holds(self, scale):
        result = dual_completion(Functional(scale, scale, scale, -scale))
        assert result.witness.p1 == pytest.approx(0.5, abs=1e-10)
        assert result.witness.p3 == pytest.approx(0.5, abs=1e-10)

    def test_agrees_with_dual_membership(self):
        rng = np.random.default_rng(97)
        for _ in range(60):
            f = Functional.from_sequence(rng.uniform(-0.6, 0.6, size=4))
            s = support(f)
            if abs(s - 1.0) < 1e-6:
                continue
            assert dual_completion(f).feasible == (s <= 1.0)

    def test_pairing_identity(self):
        # tr(C F) = 2 - 2 f.c for any primal and dual certificates
        rng = np.random.default_rng(101)
        for _ in range(100):
            c = deep_interior_point(rng)
            f_raw = dual_transform(
                deep_interior_point(rng).as_tuple(), TransformDirection.TO_DUAL)
            f = Functional.from_sequence(f_raw)
            C = certificate_matrix(solve_completion(c).witness)
            result = dual_completion(f)
            assert result.feasible
            F = certificate_matrix(result.witness)
            assert float(np.trace(C @ F)) == pytest.approx(
                2.0 - 2.0 * f.dot(c), abs=1e-10)

    def test_near_boundary_functional_feasible(self):
        # support 0.99894..., strictly inside Q°; the grid search that
        # built the certificate before reported it infeasible
        f = Functional(0.1317, 0.3538, -0.5143, 0.2592)
        s = support(f)
        result = dual_completion(f)
        assert result.feasible
        assert result.support == s
        assert min_eigenvalue(result.witness) == pytest.approx(
            (1.0 - s) / 2.0, abs=1e-12)

    def test_maximizer_attains_support_in_q(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            f = Functional.from_sequence(rng.uniform(-1, 1, size=4))
            result = dual_completion(f)
            assert f.dot(result.maximizer) == pytest.approx(
                result.support, abs=1e-12)
            assert member(result.maximizer, Oracle.SEMIALG).margin > -1e-12

    def test_maximizer_matches_angle_route(self):
        # the exposing functional of cos(t) is maximized at cos(t), and
        # the symmetry group acts alike on points and functionals
        rng = np.random.default_rng(107)
        for t in tetra_angles(rng, 300, k_min=0.2):
            S = random_symmetry(rng)
            f = Functional.from_sequence(S @ exposing_functional(t).as_array())
            assert quantum_case(f).quantum_case
            c_star = dual_completion(f).maximizer.as_array()
            assert np.abs(c_star - S @ t.cosines().as_array()).max() < 1e-9

    def test_classical_maximizer_is_best_even_vertex(self):
        rng = np.random.default_rng(109)
        checked = 0
        while checked < 300:
            f = Functional.from_sequence(rng.uniform(-1, 1, size=4))
            if quantum_case(f).quantum_case:
                continue
            best = max(EVEN_VERTEX_TUPLES, key=lambda v: f.dot(Correlation(*v)))
            assert dual_completion(f).maximizer.as_tuple() == best
            checked += 1

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.tuples(*[st.floats(-2.0, 2.0)] * 4))
    def test_matches_grid_search(self, entries):
        f = Functional(*entries)
        s = support(f)
        result = dual_completion(f)
        lam = min_eigenvalue(result.witness)
        grid_feasible, _, grid_lam = dual_completion_grid(f)
        scale = max(1.0, float(np.linalg.norm(entries)))
        assert lam >= grid_lam - 1e-12
        assert abs(lam - (1.0 - s) / 2.0) <= 1e-12 * scale
        if abs(s - 1.0) > 1e-9:
            assert result.feasible == (s <= 1.0)
            assert grid_feasible == result.feasible


class TestPhiMap:
    def test_fixed_point(self):
        image = phi_map(CHSH_ANGLES)
        assert max(abs(a - b) for a, b in
                   zip(image.as_tuple(), CHSH_ANGLES.as_tuple())) < 1e-10

    def test_involution_example(self):
        t = AngleTuple(0.3, 0.7, 0.5, -1.5)
        t2 = phi_map(phi_map(t))
        assert max(abs(a - b) for a, b in
                   zip(t.as_tuple(), t2.as_tuple())) < 1e-8

    def test_face_collapses_toward_vertex(self):
        # as alpha -> 0 the image concentrates near a vertex of the closure
        spreads = []
        for alpha in (1e-2, 1e-3, 1e-4):
            image = phi_map(AngleTuple(alpha, 1.0, 1.0, -(alpha + 2.0)))
            spreads.append(max(abs(v) for v in image.as_tuple()))
        assert spreads[0] > spreads[1] > spreads[2]
        assert spreads[2] < 0.05

    def test_rejects_outside_domain(self):
        with pytest.raises(OutsideTetrahedron):
            phi_map(AngleTuple(2.0, 2.0, 1.0, -5.0))

    def test_image_carries_the_tuple_eps(self):
        # delta misses -(alpha+beta+gamma) by 3e-9 and by 1e-7: outside the
        # default eps, inside eps = 1e-6; the image of a tuple whose delta
        # is off moves by about as much, and the round trip with it
        for t, bound in ((AngleTuple(0.3, 0.7, 0.5, -1.500000003, eps=1e-6),
                          1e-8),
                         (AngleTuple(0.3, 0.4, 0.5, -1.1999999, eps=1e-6),
                          1e-6)):
            image = phi_map(t)
            assert image.eps == 1e-6
            assert sum(image.as_tuple()) == 0.0
            assert max(abs(a - b) for a, b in
                       zip(t.as_tuple(), phi_map(image).as_tuple())) < bound

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.tuples(*[st.floats(0.05, 3.0)] * 3).filter(
               lambda abc: sum(abc) < math.pi - 0.05),
           st.sampled_from([1e-9, 1e-8, 1e-7, 1e-6]),
           st.floats(-1.0, 1.0))
    def test_admitted_delta_slack_closes_up(self, abc, eps, offset):
        # every tuple the domain check admits maps without ConsistencyError
        alpha, beta, gamma = abc
        delta = -(alpha + beta + gamma) + offset * eps
        assume(abs(delta + (alpha + beta + gamma)) <= eps)
        image = phi_map(AngleTuple(alpha, beta, gamma, delta, eps=eps))
        assert image.eps == eps
        assert sum(image.as_tuple()) == 0.0


class TestNcycleResiduals:
    def test_layout(self):
        assert len(NCYCLE_RESIDUAL_NAMES) == 20

    def test_incident_extreme_pair(self):
        c = extreme_from_angles(CHSH_ANGLES).c
        f = exposing_functional(CHSH_ANGLES)
        residuals = ncycle_residuals(c, f)
        assert len(residuals) == 20
        assert max(abs(r) for r in residuals) < 1e-10

    def test_vertex_facet_pair_incidence_only(self):
        residuals = ncycle_residuals(Correlation(1, 1, 1, 1),
                                     Functional(1, 0, 0, 0))
        assert residuals[0] == 0.0

    def test_non_incident_pair(self):
        residuals = ncycle_residuals(Correlation(0, 0, 0, 0),
                                     Functional(0, 0, 0, 0))
        assert residuals[0] == -1.0


class TestCaseSplitEdges:
    def test_no_spurious_disagreement_near_case_surfaces(self):
        # fuzz across the p = 0 and m = 2 surfaces; inside the margin band
        # the criteria may differ but must never raise
        rng = np.random.default_rng(137)
        for _ in range(2000):
            f = rng.uniform(0.2, 1.0, size=4)
            f[3] = -1.0 / 3.0 + rng.uniform(-1e-10, 1e-10)  # near m = 2
            quantum_case(Functional.from_sequence(f * rng.uniform(0.5, 2.0)))
        for _ in range(2000):
            f = rng.uniform(-1.0, 1.0, size=4)
            f[int(rng.integers(0, 4))] = rng.uniform(-1e-10, 1e-10)  # near p = 0
            if np.abs(f).max() == 0.0:
                continue
            quantum_case(Functional.from_sequence(f))
