import math
import struct
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbody import (
    DEFAULT_TOLERANCE,
    AmbiguousClassification,
    AngleSumViolation,
    AngleTuple,
    Correlation,
    DegenerateAngles,
    NotExtreme,
    NotPSD,
    Oracle,
    Stratum,
    Tolerance,
    angles_from_point,
    classify,
    exposing_functional,
    extreme_from_angles,
    gram_vectors,
    member,
    solve_completion,
    symmetry_group,
)
from qbody.boundary import Completion, _face
from qbody.core import _Floats
from qbody.membership import _entry_interval, _unit_gaps

from helpers import (
    CHSH_ANGLES,
    CHSH_POINT,
    SQRT2,
    angles_by_search,
    deep_interior_point,
    face_of,
    q1_point,
    q2_point,
    q3_point,
    q5_point,
    sine_rule_stratum,
    tetra_angles,
)


def _least_float(holds, lo: float, hi: float) -> float:
    """The least float in ``(lo, hi]`` at which ``holds``, by bisection on
    the bits of nonnegative floats, for a predicate that is false at
    ``lo`` (never called there), true at ``hi`` and monotone between."""
    def bits(v: float) -> int:
        return struct.unpack("<q", struct.pack("<d", v))[0]

    def value(b: int) -> float:
        return struct.unpack("<d", struct.pack("<q", b))[0]

    lo_bits, hi_bits = bits(lo), bits(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if holds(value(mid)):
            hi_bits = mid
        else:
            lo_bits = mid
    return value(hi_bits)


class TestSolveCompletion:
    def test_boundary_point_unique_rank2(self):
        result = solve_completion(CHSH_POINT)
        assert result.feasible and result.unique and result.rank == 2
        assert result.witness.u == pytest.approx(0.0, abs=1e-12)
        assert result.witness.v == pytest.approx(0.0, abs=1e-12)

    def test_origin_full_rank(self):
        result = solve_completion(Correlation(0, 0, 0, 0))
        assert result.feasible and not result.unique and result.rank == 4
        assert result.witness.u == 0.0 and result.witness.v == 0.0

    def test_nonquantum_box_infeasible(self):
        assert not solve_completion(Correlation(1, 1, 1, -1)).feasible

    def test_edge_midpoint(self):
        result = solve_completion(Correlation(1, 0, 0, 1))
        assert result.feasible and result.unique and result.rank == 2
        assert (result.witness.u, result.witness.v) == (0.0, 0.0)

    def test_witness_is_psd_for_members(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            c = Correlation.from_sequence(rng.uniform(-1, 1, size=4))
            result = solve_completion(c)
            assert result.feasible == member(c, Oracle.SEMIALG).inside \
                or abs(member(c, Oracle.SEMIALG).margin) < 1e-9
            if result.feasible:
                assert result.witness.is_psd()

    def test_uniqueness_iff_boundary(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            interior = deep_interior_point(rng)
            assert not solve_completion(interior).unique
        for t in tetra_angles(rng, 100):
            boundary = extreme_from_angles(t).c
            assert solve_completion(boundary).unique

    def test_feasible_at_a_margin_of_exactly_minus_eps(self):
        # just past the Tsirelson point: the margin is about -5.3e-4
        c = Correlation(0.7072, 0.7072, 0.7072, -0.7072)
        margin = member(c, Oracle.COMPLETION).margin
        assert margin < 0.0
        edge = Tolerance(eps_boundary=-margin)
        tighter = Tolerance(eps_boundary=math.nextafter(-margin, 0.0))
        assert solve_completion(c, edge).feasible
        assert member(c, Oracle.COMPLETION, edge).inside
        assert not solve_completion(c, tighter).feasible
        assert not member(c, Oracle.COMPLETION, tighter).inside

    # the v interval is the wider at the first point, the u interval at its
    # transpose, so each of the two width comparisons meets its edge once
    @pytest.mark.parametrize("c", [(0.3, 0.2, 0.1, -0.4),
                                   (0.3, 0.1, 0.2, -0.4)])
    def test_unique_at_a_width_of_exactly_the_bound(self, c, monkeypatch):
        from qbody import boundary
        from qbody.membership import _entry_interval, _unit_gaps
        c11, c12, c21, c22 = c
        gaps = g11, g12, g21, g22 = _unit_gaps(*c)
        lu, ru = _entry_interval(c11, c12, c21, c22, _Floats, gaps)
        lv, rv = _entry_interval(c11, c21, c12, c22, _Floats,
                                 (g11, g21, g12, g22))
        width = max(ru - lu, rv - lv)
        assert width > 1.0
        monkeypatch.setattr(boundary, "_UNIQUE_WIDTH", width)
        assert solve_completion(Correlation(*c)).unique
        monkeypatch.setattr(boundary, "_UNIQUE_WIDTH",
                            math.nextafter(width, 0.0))
        assert not solve_completion(Correlation(*c)).unique


class TestClassify:
    def test_examples(self):
        assert classify(Correlation(1, 1, 1, 1)) is Stratum.Q1
        assert classify(CHSH_POINT) is Stratum.Q4
        assert classify(Correlation(1, 0, 0, 1)) is Stratum.Q2
        assert classify(Correlation(-1, 0, 0, 0)) is Stratum.Q5
        assert classify(Correlation(0, 0, 0, 0)) is Stratum.Q6
        assert classify(Correlation(1, 1, 1, -1)) is Stratum.EXTERIOR

    def test_facet_cubic_root_is_q3(self):
        # on the facet c11 = -1 the elliptope condition reads
        # 1 - x^2 - y^2 - z^2 - 2xyz >= 0; solve the quadratic for the z root
        x, y = 0.2, 0.3
        z = (-2 * x * y + math.sqrt(4 * x * x * y * y
                                    + 4 * (1 - x * x - y * y))) / 2
        assert classify(Correlation(-1, x, y, z)) is Stratum.Q3

    def test_deep_exterior(self):
        assert classify(Correlation(2, 0, 0, 0)) is Stratum.EXTERIOR

    def test_rank_table_cross_check_enabled(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            assert classify(q2_point(rng)) is Stratum.Q2
            assert classify(q3_point(rng)) is Stratum.Q3
            assert classify(q5_point(rng)) is Stratum.Q5

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
           st.integers(0, 191))
    def test_group_images_answer_the_angle_stratum(self, abg, k):
        t = AngleTuple(*abg, -sum(abg))
        # away from the junctions, where a sine vanishes
        assume(min(abs(math.remainder(a, math.pi)) for a in t) >= 1e-3)
        c = Correlation.from_sequence(symmetry_group()[k] @ t.cosines()
                                      .as_array())
        assert classify(c) is extreme_from_angles(t).stratum

    def test_float_floor_of_a_cube_face(self):
        """On an open facet, an entry of modulus 1 is cube-active and the
        float below 1 is not at the default band: its pushout slack,
        ``(2/π)·acos(1 - 2⁻⁵³)``, is 9.5e-9.  ``eps_boundary = 1e-8`` is the
        first decade that takes it."""
        below = math.nextafter(1.0, 0.0)
        rest = (0.1, 0.2, 0.3)
        for sign in (1.0, -1.0):
            assert face_of(Correlation(sign, *rest)) is Stratum.Q5
            assert face_of(Correlation(sign * below, *rest)) is Stratum.Q6
            assert face_of(Correlation(sign * below, *rest),
                           Tolerance(eps_boundary=1e-8)) is Stratum.Q5


_BELOW = math.nextafter(1.0, 0.0)
_ANGLE = st.one_of(st.floats(-math.pi, math.pi),
                   st.sampled_from([k * math.pi / 2 for k in range(-2, 3)]))


@st.composite
def _group_image(draw):
    """A symmetry image of the cosines of an angle tuple; angles at
    multiples of π give the junctions Q1–Q3."""
    abg = draw(st.tuples(_ANGLE, _ANGLE, _ANGLE))
    c = symmetry_group()[draw(st.integers(0, 191))] \
        @ AngleTuple(*abg, -sum(abg)).cosines().as_array()
    return tuple(map(float, c))


@st.composite
def _admitted_tolerance(draw):
    """A ``Tolerance`` with ``eps_psd`` any positive float and
    ``eps_boundary`` any float from it up, as ``Tolerance`` admits."""
    finite = {"allow_nan": False, "allow_infinity": False}
    eps_psd = draw(st.floats(0.0, exclude_min=True, **finite))
    return Tolerance(eps_boundary=draw(st.floats(eps_psd, **finite)),
                     eps_psd=eps_psd)


@st.composite
def _eps_tuple(draw):
    """An angle tuple at one of six ``eps``, with angles from ``_ANGLE``
    or within a few ``eps`` of a multiple of π, and ``delta`` off the
    negated sum by up to ``eps``; None if its sum misses at ``eps``."""
    eps = draw(st.sampled_from([1e-16, 1e-12, 1e-9, 1e-8, 1e-7, 1e-6]))
    near = st.builds(lambda base, k: base + k * eps,
                     st.sampled_from([0.0, math.pi, -math.pi]),
                     st.floats(-3.0, 3.0))
    a, b, g = draw(st.tuples(*[st.one_of(_ANGLE, near)] * 3))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    try:
        return AngleTuple(a, b, g, -(a + b + g) + offset * eps, eps=eps)
    except AngleSumViolation:
        return None


@st.composite
def _thin_sine_tuple(draw):
    """An angle tuple at ``eps`` 1e-9 or 1e-6 with one angle 1 to 100
    ``eps`` off a multiple of π, so that its sine comes down to about
    ``eps``, two angles whose sines are at least 0.05, and ``delta`` off
    the negated sum by up to ``eps``; None if its sum misses at ``eps``."""
    eps = draw(st.sampled_from([1e-9, 1e-6]))
    thin = draw(st.sampled_from([0.0, math.pi, -math.pi])) \
        + draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1.0, 100.0)) * eps
    free = st.floats(-math.pi, math.pi).filter(
        lambda a: abs(math.sin(a)) >= 0.05)
    a, b, g = draw(st.permutations([thin, draw(free), draw(free)]))
    offset = draw(st.floats(-1.0, 1.0))
    try:
        return AngleTuple(a, b, g, -(a + b + g) + offset * eps, eps=eps)
    except AngleSumViolation:
        return None


@st.composite
def _facet_point(draw):
    """A point with one entry of modulus 1, the float below 1 or just
    above 1, inside or outside its facet's elliptope."""
    free = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    at = draw(st.sampled_from([1.0, _BELOW, 1.0 + 2e-16, 1.0 + 1e-9,
                               1.0 + 2e-9]))
    free.insert(draw(st.integers(0, 3)), draw(st.sampled_from([1, -1])) * at)
    return tuple(free)


_EDGE_ENTRIES = st.tuples(*[st.one_of(
    st.sampled_from([1.0, -1.0, _BELOW, -_BELOW, 0.0]),
    st.floats(-1.0, 1.0))] * 4)
# a group image pushed outward: beyond a CHSH face, or beyond the cube
# where it has an entry ±1
_BEYOND = st.builds(lambda c, step: tuple(v * (1.0 + step) for v in c),
                    _group_image(),
                    st.sampled_from([2e-16, 1e-12, 1e-9, 2e-9, 1e-8, 1e-6]))


def _completion_branches(c):
    """``u``, ``1 - u²`` and the two candidates for ``v`` (the fallback
    midpoint, and the formula clamped to the ``v`` interval, None where
    ``u = ±1``), by the builtins ``min`` and ``max``."""
    c11, c12, c21, c22 = c
    gaps = g11, g12, g21, g22 = _unit_gaps(*c)
    lu, ru = _entry_interval(c11, c12, c21, c22, _Floats, gaps)
    lv, rv = _entry_interval(c11, c21, c12, c22, _Floats,
                             (g11, g21, g12, g22))
    u = min(1.0, max(-1.0, 0.5 * (lu + ru)))
    fallback = min(1.0, max(-1.0, 0.5 * (lv + rv)))
    formula = None
    if u * u != 1.0:
        v = (c11 * c12 + c21 * c22 - (c11 * c22 + c12 * c21) * u) \
            / (1.0 - u * u)
        formula = min(max(v, min(lv, rv)), max(lv, rv))
    return u, 1.0 - u * u, fallback, formula, (lv, rv)


# entries of the cube, at its edges and up to 1e-9 beyond them
_CLAMP_ENTRIES = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, _BELOW, -_BELOW, 1.0 - 1e-12,
                     -1.0 + 1e-12, 1.0 + 1e-12, -1.0 - 1e-12, 1.0 + 1e-9]))


@st.composite
def _near_unit_u(draw):
    """Cosines of ``(a, b, c, d)`` with ``a``, ``c`` below 2e-6 and ``d``
    within 1e-6 of ``b``: ``u`` lies within about 1e-12 of 1, and the
    ``v`` interval is wide enough for the two branches to differ."""
    a, c = draw(st.tuples(*[st.floats(0.0, 2e-6)] * 2))
    b = draw(st.floats(0.1, 3.0))
    d = b + draw(st.floats(-1e-6, 1e-6))
    return tuple(math.cos(x) for x in (a, b, c, d))


class TestCompletionClamps:
    """The clamps of ``u`` and ``v`` in ``solve_completion``, and the
    ``1 - u²`` guard between the formula and the fallback for ``v``."""

    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(st.one_of(st.tuples(*[_CLAMP_ENTRIES] * 4), _group_image(),
                     _near_unit_u()),
           _admitted_tolerance())
    @example((1.0, 1.0, 1.0, 1.0), DEFAULT_TOLERANCE)
    @example((1.0, 1.0, 1.0 - 1e-12, 1.0 - 1e-12), DEFAULT_TOLERANCE)
    @example((-1.0, -1.0, 1.0 - 1e-12, 1.0 - 1e-12), DEFAULT_TOLERANCE)
    @example((0.0, 0.0, 1.0, 1.0 + 1e-12), DEFAULT_TOLERANCE)  # v > 1
    def test_branch_and_bounds(self, c, tol):
        u, gap, fallback, formula, (lv, rv) = _completion_branches(c)
        witness = solve_completion(Correlation(*c), tol).witness
        assert -1.0 <= witness.u <= 1.0
        # beyond the cube the v interval, and so v, may reach past ±1
        if max(map(abs, c)) <= 1.0:
            assert -1.0 <= witness.v <= 1.0
        assert repr(witness.u) == repr(u)
        if gap > 1e-12:
            assert min(lv, rv) <= witness.v <= max(lv, rv)
            assert repr(witness.v) == repr(formula)
        else:
            assert repr(witness.v) == repr(fallback)

    @pytest.mark.parametrize("c, fallback", [
        ((1.0, 1.0, 1.0, 1.0), True),                   # u = 1
        ((-1.0, -1.0, 1.0, 1.0), True),                 # u = -1
        # 1 - u² is 9.2e-13, then 2.0e-12: the two candidates differ
        ((0.999999999999875, -0.4568166328150184, 0.9999999999998571,
          -0.45681585552868176), True),
        ((0.9999999999995, 0.3306260723908462, 0.9999999999995045,
          0.3306257862555069), False),
    ])
    def test_guard_picks_the_branch(self, c, fallback):
        u, gap, want, formula, _ = _completion_branches(c)
        assert (gap <= 1e-12) == fallback
        if formula is not None:
            assert formula != want
        if not fallback:
            want = formula
        assert solve_completion(Correlation(*c)).witness.v == want


class TestFaceKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(_group_image(), _facet_point(), _EDGE_ENTRIES,
                              _BEYOND), min_size=1, max_size=64),
           st.sampled_from([1e-9, 1e-8]))
    def test_columns_match_scalar_path(self, points, eps):
        # np.arcsin and math.asin differ in the last bit on some inputs;
        # the face they give must not
        columns = _face(*np.array(points).T, eps, np)
        assert columns.tolist() == [_face(*c, eps, _Floats) for c in points]


class TestExtremeFromAngles:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(_eps_tuple())
    def test_face_table_gives_the_sine_rule(self, t):
        assume(t is not None)
        assert extreme_from_angles(t).stratum is sine_rule_stratum(t)

    def test_generic_q4_at_a_tiny_eps(self):
        # at eps = 1e-16 the odd half of the pushout 1 - 2|θ|/π misses 1 by
        # more than the slack 2·eps/π, so a face read there answered Q6
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b, g = rng.uniform(0.1, 1.0, 3)
            t = AngleTuple(a, b, g, -(a + b + g), eps=1e-16)
            assert extreme_from_angles(t).stratum is Stratum.Q4

    def test_sine_of_exactly_eps_counts_as_zero(self):
        # beta's sine is the only one near eps: at eps = |sin beta| it
        # counts as a multiple of pi (one cube coordinate, Q3), one ULP
        # below it does not
        angles = (0.7, 1e-7, 0.5, -(0.7 + 1e-7 + 0.5))
        eps = abs(math.sin(1e-7))
        t = AngleTuple(*angles, eps=eps)
        assert extreme_from_angles(t).stratum is Stratum.Q3
        t = AngleTuple(*angles, eps=math.nextafter(eps, 0.0))
        assert extreme_from_angles(t).stratum is Stratum.Q4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9])
    def test_eps_must_be_positive_and_finite(self, bad):
        # a NaN eps compares false with every residual, an infinite one
        # admits every sum
        with pytest.raises(ValueError, match="eps must be positive"):
            AngleTuple(0.5, 0.5, 0.5, 0.5, eps=bad)

    def test_maximal_violation_angles(self):
        result = extreme_from_angles(CHSH_ANGLES)
        assert result.stratum is Stratum.Q4
        assert np.allclose(result.c.as_array(), CHSH_POINT.as_array(),
                           atol=1e-15)
        assert CHSH_ANGLES.delta_product() == pytest.approx(-0.25, abs=1e-15)

    def test_vertex_angles(self):
        result = extreme_from_angles(AngleTuple(0, 0, math.pi, math.pi))
        assert result.stratum is Stratum.Q1
        assert result.c == Correlation(1, 1, -1, -1)

    def test_interior_angles(self):
        half_pi = math.pi / 2
        result = extreme_from_angles(
            AngleTuple(half_pi, half_pi, half_pi, half_pi))
        assert result.stratum is Stratum.Q6
        assert np.abs(result.c.as_array()).max() < 1e-15

    def test_sum_violation_raises(self):
        with pytest.raises(AngleSumViolation):
            AngleTuple(0.5, 0.5, 0.5, 0.5)

    def test_small_sine_product_answers_its_sign(self):
        # every sine is above eps, the sine product is not: the sign of the
        # product decides, as the face of the cosines does
        t = AngleTuple(1e-3, 1e-3, 1e-3, -3e-3)
        assert min(map(abs, t.sines())) > t.eps > abs(t.delta_product())
        assert extreme_from_angles(t).stratum is Stratum.Q4
        assert classify(t.cosines()) is Stratum.Q4

    def test_stratum_decided_at_the_tuple_eps(self):
        angles = (1e-3, 1e-3, 1e-3, -3e-3)
        assert extreme_from_angles(
            AngleTuple(*angles, eps=1e-13)).stratum is Stratum.Q4
        # at 1e-2 every sine counts as a multiple of pi
        assert extreme_from_angles(
            AngleTuple(*angles, eps=1e-2)).stratum is Stratum.Q1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        # a NaN sum residual compares false with eps, so finiteness is
        # checked first
        with pytest.raises(ValueError, match="must be finite"):
            AngleTuple(bad, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="must be finite"):
            AngleTuple(0.0, 0.0, 0.0, bad, eps=1.0)

    def test_sum_validated_at_given_eps(self):
        # the sum misses 0 by 1e-7: rejected by default, kept at 1e-6,
        # also through canonical(), which has to wrap alpha
        angles = (0.3 + 2.0 * math.pi, 0.4, 0.5, -1.1999999)
        with pytest.raises(AngleSumViolation):
            AngleTuple(*angles)
        t = AngleTuple(*angles, eps=1e-6).canonical()
        assert t.alpha == pytest.approx(0.3, abs=1e-15)
        assert t.eps == 1e-6
        assert t == AngleTuple(*t.as_tuple(), eps=1.0)

    def test_g_equals_twice_sine_product_on_extreme_patch(self):
        from qbody import primal_polys
        rng = np.random.default_rng(59)
        for t in tetra_angles(rng, 500):
            c = extreme_from_angles(t).c
            assert primal_polys(c).g == pytest.approx(
                2.0 * t.delta_product(), abs=1e-9)


class TestAnglesFromPoint:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_group_image())
    def test_face_gaps_give_the_search(self, point):
        c = Correlation(*point)
        for eps in (1e-9, 1e-6):
            tol = Tolerance(eps_angle=eps)
            try:
                expected = repr(angles_by_search(c, tol))
            except NotExtreme as exc:
                expected = repr(exc)
            try:
                got = repr(angles_from_point(c, tol))
            except NotExtreme as exc:
                got = repr(exc)
            assert got == expected

    @pytest.mark.parametrize("sampler", [q1_point, q2_point, q3_point])
    def test_junctions_give_the_search(self, sampler):
        # an entry at ±1 ties two sign patterns, and round-off picks one
        rng = np.random.default_rng(9)
        for _ in range(300):
            c = sampler(rng)
            assert repr(angles_from_point(c)) == repr(angles_by_search(c))

    def test_tied_patterns_pick_as_the_search(self):
        # four patterns meet the sum within 1.8e-9: their residuals tie
        # exactly and the first mask wins
        c = Correlation(-1.0, 1.0, 0.999999999999998, -0.9999999999999979)
        t = angles_from_point(c, Tolerance(eps_angle=1e-6))
        assert t.as_tuple() == (math.pi, 0.0, 6.322027276634106e-08,
                                3.1415925903695205)

    def test_maximal_violation_point(self):
        t = angles_from_point(CHSH_POINT)
        assert np.allclose(t.as_tuple(), CHSH_ANGLES.as_tuple(), atol=1e-12)

    def test_vertex(self):
        t = angles_from_point(Correlation(1, 1, 1, 1))
        assert t.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_facet_interior_rejected(self):
        with pytest.raises(NotExtreme):
            angles_from_point(Correlation(-1, 0, 0, 0))

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_admitted_tolerance(), st.integers(0, 3),
           st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
    @example(Tolerance(eps_boundary=2.0 ** -30), 0, (1.0, 1.0, 1.0))
    def test_entry_of_exactly_one_plus_eps_accepted(self, tol, at, signs):
        # a vertex of the cube with one entry pushed out to 1 + eps, at
        # every tolerance admitted; the even sign product keeps it extreme
        edge = 1.0 + tol.eps_boundary
        entries = list(signs)
        entries.insert(at, signs[0] * signs[1] * signs[2])

        def moved(v):
            c = list(entries)
            c[at] *= v
            return Correlation(*c)

        assert repr(angles_from_point(moved(edge), tol)) \
            == repr(angles_from_point(moved(1.0), tol))
        beyond = math.nextafter(edge, math.inf)
        if beyond < math.inf:
            with pytest.raises(NotExtreme, match="outside the cube"):
                angles_from_point(moved(beyond), tol)

    def test_residual_of_exactly_eps_angle_accepted(self):
        # the angles miss a zero sum by about 1e-7; the search's gate is
        # the reference for the least eps_angle that admits the point
        c = Correlation(math.cos(0.3), math.cos(0.4), math.cos(0.5),
                        math.cos(1.2 - 1e-7))

        def admitted(eps):
            try:
                angles_by_search(c, Tolerance(eps_angle=eps))
            except NotExtreme:
                return False
            return True

        eps = _least_float(admitted, 0.0, 1e-6)
        assert 1e-8 < eps < 1e-6
        assert repr(angles_from_point(c, Tolerance(eps_angle=eps))) \
            == repr(angles_by_search(c, Tolerance(eps_angle=eps)))
        with pytest.raises(NotExtreme, match="best residual"):
            angles_from_point(
                c, Tolerance(eps_angle=math.nextafter(eps, 0.0)))

    def test_round_trip_canonical(self):
        rng = np.random.default_rng(61)
        for t in tetra_angles(rng, 10000, collar=1e-3):
            canonical = t.canonical()
            recovered = angles_from_point(extreme_from_angles(t).c)
            assert max(abs(a - b) for a, b in
                       zip(canonical.as_tuple(), recovered.as_tuple())) < 1e-8


class TestExposingFunctional:
    def test_maximal_violation_functional(self):
        f = exposing_functional(CHSH_ANGLES)
        expected = np.array([1, 1, 1, -1]) * SQRT2 / 4
        assert np.allclose(f.as_array(), expected, atol=1e-15)
        assert f.dot(CHSH_POINT) == pytest.approx(1.0, abs=1e-12)

    def test_sines_bounded_at_the_tuple_eps(self):
        # sin(pi/4) is below 0.9
        with pytest.raises(DegenerateAngles, match="a sine vanishes"):
            exposing_functional(AngleTuple(*CHSH_ANGLES, eps=0.9))

    def test_degenerate_sine_rejected(self):
        with pytest.raises(DegenerateAngles):
            exposing_functional(
                AngleTuple(math.pi / 3, math.pi / 3, math.pi / 3, -math.pi))

    def test_generic_incidence(self):
        t = AngleTuple(math.pi / 3, math.pi / 4, math.pi / 6, -3 * math.pi / 4)
        f = exposing_functional(t)
        assert f.dot(extreme_from_angles(t).c) == pytest.approx(1.0, abs=1e-10)

    def test_strict_separation_on_samples(self):
        rng = np.random.default_rng(67)
        t = tetra_angles(rng, 1, k_min=0.3)[0]
        c = extreme_from_angles(t).c
        f = exposing_functional(t)
        for _ in range(10000):
            other = Correlation.from_sequence(rng.uniform(-1, 1, size=4))
            if not member(other, Oracle.SEMIALG).inside:
                continue
            value = f.dot(other)
            if value >= 1.0 - 1e-9:
                assert np.abs(other.as_array() - c.as_array()).max() <= 1e-4
            else:
                assert value < 1.0

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_thin_sine_tuple())
    def test_admitted_thin_sines_meet_the_incidence_band(self, t):
        # every tuple the sine, product and cotangent checks admit gives
        # a functional, not a ConsistencyError from the 1e-10 incidence band
        assume(t is not None)
        try:
            exposing_functional(t)
        except DegenerateAngles:
            pass


class TestGramVectors:
    def test_rank_two_system(self):
        gs = gram_vectors(solve_completion(CHSH_POINT).witness)
        assert gs.r == 2
        recon = gs.correlation()
        assert np.allclose(recon.as_array(), CHSH_POINT.as_array(), atol=1e-9)
        for v in gs.vectors():
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_identity_completion(self):
        gs = gram_vectors(Completion(Correlation(0, 0, 0, 0), 0.0, 0.0))
        assert gs.r == 4
        basis = np.stack(gs.vectors())
        assert np.allclose(basis @ basis.T, np.eye(4), atol=1e-12)

    def test_rank_one_system(self):
        gs = gram_vectors(Completion(Correlation(1, 1, 1, 1), 1.0, 1.0))
        assert gs.r == 1
        vecs = np.stack(gs.vectors())
        assert np.allclose(vecs, vecs[0], atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            gram_vectors(Completion(Correlation(1, 1, 1, -1), 0.0, 0.0))

    def test_random_members_reconstruct(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            c = deep_interior_point(rng)
            gs = gram_vectors(solve_completion(c).witness)
            assert np.abs(gs.correlation().as_array() - c.as_array()).max() \
                < 1e-9

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_group_image(), st.tuples(*[st.floats(-1e-9, 1e-9)] * 4),
           st.sampled_from([DEFAULT_TOLERANCE, Tolerance(eps_psd=1e-12)]))
    def test_feasible_moved_angle_points_meet_the_residual_band(
            self, point, move, tol):
        # a witness that solve_completion calls feasible factors, or is a
        # NotPSD domain error; never a ConsistencyError from the 1e-9
        # residual band
        c = Correlation(*(x + dx for x, dx in zip(point, move)))
        result = solve_completion(c, tol)
        assume(result.feasible)
        try:
            gram_vectors(result.witness, tol)
        except NotPSD:
            pass

    def test_rank_cut_is_not_a_residual(self):
        # feasible at eps_psd 1e-9, where the witness's eigenvalue 9.3e-10
        # falls under the threshold: the rank-2 factor leaves it out
        c = Correlation(-0.9204017438004054, -0.958758219970605,
                        -1.0000000000896587, -0.7713189770940735)
        tol = Tolerance(eps_psd=1e-9)
        result = solve_completion(c, tol)
        assert result.feasible and result.rank == 2
        gs = gram_vectors(result.witness, tol)
        assert gs.r == 2
        # pivoted Cholesky leaves ‖S‖ ≤ (1 + ‖W‖²)·λ3 with ‖W‖² ≤ 10 at
        # n = 4, r = 2, and λ3 under the threshold, eps_psd times the
        # largest entry |c21|; rescaling the rows at most doubles it
        assert max(abs(x - y) for x, y in zip(gs.correlation().as_tuple(),
                                               c.as_tuple())) \
            <= 22 * tol.eps_psd * abs(c.c21)

    # at an eps_psd near 1e-17 the rank counts an eigenvalue at round-off
    # scale, and the pivot of that step comes out below 0 (the first) or
    # at 0 with a row left to eliminate (the second)
    @pytest.mark.parametrize("c, eps_psd, eps_boundary", [
        ((-0.5663949006911358, -0.6055983304770682, -0.5215717990845617,
          0.9735435587737162), 5.721668724625977e-17, 6.269174845346078e-17),
        ((-0.053643298260743794, 0.6219623630871638, -1.0,
          0.8152837883870114), 1.5654136861145396e-17,
         1.5654136861145396e-17),
    ])
    def test_pivot_at_or_below_zero_gives_a_zero_column(
            self, c, eps_psd, eps_boundary):
        c = Correlation(*c)
        tol = Tolerance(eps_boundary=eps_boundary, eps_psd=eps_psd)
        result = solve_completion(c, tol)
        assert result.feasible
        gs = gram_vectors(result.witness, tol)
        assert gs.r == result.rank
        assert all(x == 0.0 for x in np.stack(gs.vectors())[:, -1])
        assert np.allclose(gs.correlation().as_array(), c.as_array(),
                           atol=1e-12)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_group_image(), st.tuples(*[st.floats(-1.0, 1.0)] * 4),
           _admitted_tolerance())
    # a rank-1 cut at eps_psd 2 leaves the row of a2 at 0: the steps go on
    @example((1.0, 6.123233995736766e-17, 6.123233995736766e-17, -1.0),
             (0.0, 0.0, 0.0, 0.0), Tolerance(eps_boundary=2.0, eps_psd=2.0))
    def test_feasible_moved_angle_points_factor_at_every_eps_psd(
            self, point, move, tol):
        # the move reaches eps_boundary, or 1 past which few points are
        # feasible, and eps_psd takes every value up to eps_boundary: a
        # feasible witness factors or is NotPSD
        c = Correlation(*(x + min(tol.eps_boundary, 1.0) * dx
                          for x, dx in zip(point, move)))
        result = solve_completion(c, tol)
        assume(result.feasible)
        try:
            gram_vectors(result.witness, tol)
        except NotPSD:
            pass


# the eight odd sign patterns of the CHSH faces of CL
_ODD_SIGNS = [signs for signs in product((1, -1), repeat=4)
              if signs[0] * signs[1] * signs[2] * signs[3] == -1]
_FACES = {(0, False): Stratum.Q6, (0, True): Stratum.Q4,
          (1, False): Stratum.Q5, (1, True): Stratum.Q3,
          (2, False): Stratum.Q2, (2, True): Stratum.Q2}


def _face_count_mp(c: Correlation, eps: float) -> tuple[Stratum, bool]:
    """The face of CL that holds ``(2/π)·asin(c)``, by 50-digit mpmath on
    the float input, and whether a slack it compares with ``eps`` lies
    within 1e-12 of it.  An entry in ``(1, 1 + eps]`` is read as ±1."""
    with mpmath.workdps(50):
        entries = [mpmath.mpf(v) for v in c.as_tuple()]
        x = [2 / mpmath.pi * mpmath.asin(max(-1, min(1, v)))
             for v in entries]
        odd = max(sum(s * v for s, v in zip(signs, x)) / 2
                  for signs in _ODD_SIGNS)
        slacks = [abs(v) - 1 for v in entries] \
            + [1 - abs(v) for v in x] + [odd - 1, 1 - odd]
        near = any(abs(s - eps) < 1e-12 for s in slacks)
        if max(abs(v) for v in entries) > 1 + eps or odd > 1 + eps:
            return Stratum.EXTERIOR, near
        cube = sum(1 for v in x if 1 - abs(v) <= eps)
        if cube >= 3:
            return Stratum.Q1, near
        return _FACES[cube, 1 - odd <= eps], near


class TestClassifyPerturbations:
    def test_band_perturbations_stay_sane(self):
        # nudge exact stratum points by sub-tolerance amounts: the face
        # count matches the 50-digit one of the same float input, and the
        # rank cross-check confirms it or reports the tolerance conflict.
        # An inward nudge of a vertex can leave Q: its pushout slack is
        # about 1e-6, far outside the band
        rng = np.random.default_rng(139)
        points = []
        for _ in range(300):
            base = q3_point(rng).as_array()
            noise = rng.uniform(-1e-10, 1e-10, size=4)
            points.append(Correlation.from_sequence(base + noise))
        for _ in range(300):
            base = q1_point(rng).as_array()
            noise = rng.uniform(-1e-10, 0.0, size=4) * np.sign(base)
            points.append(Correlation.from_sequence(base + noise))
        eps = DEFAULT_TOLERANCE.eps_boundary
        skipped = 0
        for c in points:
            expected, near = _face_count_mp(c, eps)
            if near:
                skipped += 1
                continue
            assert face_of(c) is expected, c
            try:
                assert classify(c) is expected, c
            except AmbiguousClassification:
                pass
        # the points too close to a threshold to compare
        assert skipped == 0
