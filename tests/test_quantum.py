import json
import math
from functools import reduce
from itertools import chain, product
from operator import add, mul, sub

import numpy as np
import pytest

from qbody import (
    AngleSumViolation,
    AngleTuple,
    BadWeights,
    Correlation,
    DimensionTooLarge,
    GramSystem,
    InvalidModel,
    build_model,
    clifford_model,
    correlations_of,
    gram_vectors,
    mixture_model,
    selftest_residuals,
    solve_completion,
)
from qbody import quantum
from qbody.quantum import QuantumModel

from helpers import (CHSH_ANGLES, CHSH_POINT, SINGLET_PSI, VALIDATION_FAMILIES,
                     checked_rows_reference, deep_interior_point, q4_point,
                     reflection_matrix, tetra_angles, validation_model)


def _scalar_model(values):
    mats = [np.array([[float(v)]]) for v in values]
    return QuantumModel(psi=np.array([1.0]), A1=mats[0], A2=mats[1],
                        B1=mats[2], B2=mats[3])


class TestBuildModel:
    def test_maximal_violation_model(self):
        c = correlations_of(build_model(CHSH_ANGLES))
        assert np.allclose(c.as_array(), CHSH_POINT.as_array(), atol=1e-12)

    def test_vertex_model(self):
        c = correlations_of(build_model(AngleTuple(0, 0, 0, 0)))
        assert np.allclose(c.as_array(), np.ones(4), atol=1e-12)

    def test_origin_model(self):
        half_pi = math.pi / 2
        c = correlations_of(
            build_model(AngleTuple(half_pi, half_pi, half_pi, half_pi)))
        assert np.abs(c.as_array()).max() < 1e-12

    def test_hypotheses_hold(self):
        rng = np.random.default_rng(103)
        for t in tetra_angles(rng, 50):
            build_model(t).validate()

    def test_cosine_identity_without_extremality(self):
        # the construction realizes the cosines for every valid tuple,
        # interior parameter values included
        rng = np.random.default_rng(107)
        for _ in range(200):
            a, b, g = rng.uniform(-3.0, 3.0, size=3)
            t = AngleTuple(a, b, g, -(a + b + g))
            c = correlations_of(build_model(t))
            expected = [math.cos(x) for x in t.as_tuple()]
            assert np.allclose(c.as_array(), expected, atol=1e-10)

    def test_singlet_reflection_identity(self):
        # <psi| M(u) x M(v) psi> = -cos(u - v)
        rng = np.random.default_rng(109)
        for _ in range(1000):
            u, v = rng.uniform(-6.0, 6.0, size=2)
            op = np.kron(reflection_matrix(u), reflection_matrix(v))
            value = SINGLET_PSI @ (op @ SINGLET_PSI)
            assert value == pytest.approx(-math.cos(u - v), abs=1e-12)


class TestCorrelationsOf:
    def test_scalar_identity_model(self):
        c = correlations_of(_scalar_model([1, 1, 1, 1]))
        assert c == Correlation(1, 1, 1, 1)

    def test_invalid_model_rejected(self):
        bad = QuantumModel(psi=np.array([1.0, 1.0]), A1=np.eye(2),
                           A2=np.eye(2), B1=np.eye(2), B2=np.eye(2))
        with pytest.raises(InvalidModel):
            correlations_of(bad)

    def test_commutator_violation_rejected(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.array([[1.0, 0.0], [0.0, -1.0]])
        bad = QuantumModel(psi=np.array([1.0, 0.0]), A1=sx, A2=sz,
                           B1=sz, B2=sx)
        with pytest.raises(InvalidModel):
            correlations_of(bad)


class TestSelfTest:
    def test_extreme_point_relations_hold(self):
        report = selftest_residuals(build_model(CHSH_ANGLES))
        for value in (report.residual_bpsi, report.residual_squares,
                      report.residual_anticommutator, report.residual_tracial):
            assert value < 1e-9
        assert report.u_value == pytest.approx(0.0, abs=1e-12)

    def test_scalar_classical_model(self):
        report = selftest_residuals(_scalar_model([1, 1, 1, 1]))
        assert report.residual_bpsi < 1e-12
        assert report.residual_anticommutator < 1e-12
        assert report.u_value == 1.0

    def test_mixture_breaks_relations(self):
        m1 = build_model(CHSH_ANGLES)
        m2 = build_model(AngleTuple(0.9, 0.7, 0.5, -2.1))
        report = selftest_residuals(mixture_model([(0.5, m1), (0.5, m2)]))
        worst = max(report.residual_bpsi, report.residual_squares,
                    report.residual_anticommutator, report.residual_tracial)
        assert worst > 1e-2

    def test_json_round_trip(self):
        model = build_model(CHSH_ANGLES)
        clone = QuantumModel.from_json_dict(model.to_json_dict())
        assert correlations_of(clone) == correlations_of(model)


class TestCliffordModel:
    def test_generators_anticommute(self):
        for r in range(1, 5):
            n = 2 ** (r - 1)
            generators = [np.array(g) for g in quantum._clifford_generators(r)]
            assert len(generators) == r
            for i, gi in enumerate(generators):
                assert gi.shape == (n, n)
                assert np.array_equal(gi, gi.T)
                for j, gj in enumerate(generators):
                    anti = gi @ gj + gj @ gi
                    expected = 2.0 * np.eye(n) if i == j else np.zeros((n, n))
                    assert np.abs(anti - expected).max() < 1e-14

    def test_rank_two_realization(self):
        gs = gram_vectors(solve_completion(CHSH_POINT).witness)
        model = clifford_model(gs)
        c = correlations_of(model)
        assert np.allclose(c.as_array(), CHSH_POINT.as_array(), atol=1e-10)
        # independent check of the entangled-pair trace identity: with
        # A1 = X x I and B1 = I x Y on R^n x R^n, the expectation equals
        # tr(X Y)/n
        n = math.isqrt(model.d)
        A1, B1 = np.array(model.A1), np.array(model.B1)
        psi = np.array(model.psi)
        X = A1[::n, ::n]
        Y = B1[:n, :n]
        assert psi @ (A1 @ (B1 @ psi)) == pytest.approx(
            float(np.trace(X @ Y)) / n, abs=1e-10)

    def test_aligned_vectors(self):
        e1 = np.array([1.0, 0.0])
        gs = GramSystem(a1=e1, a2=e1, b1=e1, b2=e1)
        c = correlations_of(clifford_model(gs))
        assert np.allclose(c.as_array(), np.ones(4), atol=1e-12)

    def test_orthonormal_vectors(self):
        basis = np.eye(4)
        gs = GramSystem(a1=basis[0], a2=basis[1], b1=basis[2], b2=basis[3])
        c = correlations_of(clifford_model(gs))
        assert np.abs(c.as_array()).max() < 1e-12

    def test_dimension_guard(self):
        basis = np.eye(5)
        gs = GramSystem(a1=basis[0], a2=basis[1], b1=basis[2], b2=basis[3])
        with pytest.raises(DimensionTooLarge):
            clifford_model(gs)

    def test_dimension_follows_the_gram_rank(self):
        rng = np.random.default_rng(127)
        for r in range(1, 5):
            for _ in range(5):
                vecs = rng.normal(size=(4, r))
                vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
                gs = GramSystem(*vecs)
                model = clifford_model(gs)
                assert model.d == 4 ** (r - 1)
                assert len(model.psi) == model.d
                c = correlations_of(model)
                assert np.abs(c.as_array()
                              - gs.correlation().as_array()).max() < 1e-12

    def test_rank_sized_models_self_test_like_the_standard_model(self):
        # every nonclassical extreme point is self-testing: the rank-2
        # Clifford model of a Q4 point has the standard model's gamma and
        # u, and satisfies every relation
        rng = np.random.default_rng(131)
        for t in tetra_angles(rng, 40):
            gs = gram_vectors(solve_completion(t.cosines()).witness)
            model = clifford_model(gs)
            assert gs.r == 2 and model.d == 4
            got, ref = selftest_residuals(model), selftest_residuals(
                build_model(t))
            assert np.abs(np.array(got.gamma) - np.array(ref.gamma)).max() \
                <= 1e-12
            assert got.u_value == pytest.approx(ref.u_value, abs=1e-12)
            assert max(got.residual_bpsi, got.residual_squares,
                       got.residual_anticommutator,
                       got.residual_tracial) <= 1e-12

    def test_json_round_trip_of_rank_four_model(self):
        # the CHSH model of TestRowRoute is 4-dimensional; a full-rank
        # interior witness gives a 64-dimensional model, in rows
        c = deep_interior_point(np.random.default_rng(137))
        model = clifford_model(gram_vectors(solve_completion(c).witness))
        clone = QuantumModel.from_json_dict(model.to_json_dict())
        assert isinstance(model.psi, tuple) and isinstance(model.A1, tuple)
        assert model.d == clone.d == 64
        assert correlations_of(clone) == correlations_of(model)
        assert selftest_residuals(clone) == selftest_residuals(model)

    def test_soundness_on_interior_completions(self):
        rng = np.random.default_rng(113)
        for _ in range(1000):
            c = deep_interior_point(rng)
            gs = gram_vectors(solve_completion(c).witness)
            realized = correlations_of(clifford_model(gs))
            assert np.abs(realized.as_array() - c.as_array()).max() < 1e-9


class TestMixtureModel:
    def test_antipodal_mixture_is_origin(self):
        t = CHSH_ANGLES
        flipped = AngleTuple(math.pi - t.alpha, math.pi - t.beta,
                             math.pi - t.gamma, math.pi - t.delta)
        mix = mixture_model([(0.5, build_model(t)), (0.5, build_model(flipped))])
        assert np.abs(correlations_of(mix).as_array()).max() < 1e-12

    def test_single_component(self):
        model = build_model(CHSH_ANGLES)
        mix = mixture_model([(1.0, model)])
        assert correlations_of(mix) == correlations_of(model)

    def test_convex_combination(self):
        m1 = build_model(CHSH_ANGLES)
        m2 = build_model(AngleTuple(0, 0, 0, 0))
        mix = mixture_model([(0.3, m1), (0.7, m2)])
        expected = 0.3 * correlations_of(m1).as_array() \
            + 0.7 * correlations_of(m2).as_array()
        assert np.allclose(correlations_of(mix).as_array(), expected,
                           atol=1e-10)

    def test_weight_validation(self):
        model = build_model(CHSH_ANGLES)
        with pytest.raises(BadWeights):
            mixture_model([(0.5, model), (0.6, model)])
        with pytest.raises(BadWeights):
            mixture_model([(-0.5, model), (1.5, model)])
        with pytest.raises(BadWeights):
            mixture_model([])


class TestAngleValidation:
    def test_bad_sum_rejected(self):
        good = AngleTuple(0.2, 0.3, 0.4, -0.9)
        assert good.canonical() == good
        with pytest.raises(AngleSumViolation):
            AngleTuple(0.2, 0.3, 0.4, 0.9)


# ---------------------------------------------------------------------------
# The Python-float route (d <= 4) against the numpy route
# ---------------------------------------------------------------------------

VERTEX_ANGLES = [AngleTuple(*(math.pi * k for k in ks))
                 for ks in product((0, 1), repeat=4) if sum(ks) % 2 == 0]


def _array_model(t: AngleTuple) -> QuantumModel:
    """The model of ``build_model`` in numpy arrays, built with np.kron."""
    eye2 = np.eye(2)
    return QuantumModel(
        psi=SINGLET_PSI.copy(),
        A1=np.kron(reflection_matrix(t.alpha), eye2),
        A2=np.kron(reflection_matrix(-t.gamma), eye2),
        B1=np.kron(eye2, reflection_matrix(math.pi)),
        B2=np.kron(eye2, reflection_matrix(t.alpha + t.beta + math.pi)))


def _stratum_angles(rng, n: int) -> list[AngleTuple]:
    """Angle tuples of Q1, Q2, Q3 and Q4 points and of arbitrary tuples,
    permuted and with an even number of angles shifted by pi (images under
    the symmetry group), and some shifted by 2 pi."""
    out = []
    while len(out) < n:
        kind = len(out) % 5
        b, g = (float(x) for x in rng.uniform(0.05, math.pi - 0.05, size=2))
        if kind == 0:
            angles = [0.0, 0.0, 0.0, 0.0]
        elif kind == 1:
            angles = [0.0, b, -b, 0.0]
        elif kind == 2:
            angles = [0.0, b, g, -(b + g)]
        elif kind == 3:
            angles = list(tetra_angles(rng, 1)[0].as_tuple())
        else:
            a, b, g = (float(x) for x in rng.uniform(-7.0, 7.0, size=3))
            angles = [a, b, g, -(a + b + g)]
        angles = [angles[i] for i in rng.permutation(4)]
        flips = rng.integers(0, 2, size=4)
        flips[0] ^= int(flips.sum()) % 2
        turns = rng.integers(-1, 2, size=4) * (rng.uniform() < 0.2)
        turns[0] -= int(turns.sum())
        out.append(AngleTuple(*(x + math.pi * f + 2 * math.pi * k
                                for x, f, k in zip(angles, flips, turns))))
    return out


def _model_stdout(m: QuantumModel, correlations) -> str:
    payload = m.to_json_dict()
    payload["correlations"] = list(correlations)
    return json.dumps(payload)


class TestRowRoute:
    def test_model_output_matches_array_route(self):
        # byte for byte, signed zeros included, as ``qbody model`` prints it
        rng = np.random.default_rng(211)
        tuples = [CHSH_ANGLES, *VERTEX_ANGLES, *_stratum_angles(rng, 10_000)]
        for t in tuples:
            rows, arrays = build_model(t), _array_model(t)
            assert _model_stdout(rows, correlations_of(rows).as_tuple()) \
                == _model_stdout(arrays, quantum._correlations_arrays(
                    *quantum._checked_arrays(arrays))), t

    def test_selftest_matches_array_route(self):
        rng = np.random.default_rng(223)
        tuples = [CHSH_ANGLES, *VERTEX_ANGLES,
                  AngleTuple(0.3, 0.4, -0.3, -0.4), *_stratum_angles(rng, 300)]
        for t in tuples:
            m = build_model(t)
            got = selftest_residuals(m)
            ref = quantum._selftest_arrays(*quantum._checked_arrays(m), m.d)
            assert isinstance(got.gamma, tuple)
            assert isinstance(ref.gamma, tuple)
            pairs = list(zip(sum(got.gamma, ()), sum(ref.gamma, ())))
            pairs += [(getattr(got, name), getattr(ref, name)) for name in (
                "residual_bpsi", "residual_squares",
                "residual_anticommutator", "residual_tracial", "u_value")]
            for value, expected in pairs:
                assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_rank_deficient_gamma_is_minimum_norm(self):
        # A1 = A2 at vertices and on this Q2 edge: of all gamma with
        # B_j psi = gamma_j1 A1 psi + gamma_j2 A2 psi the shortest is even
        for t in (AngleTuple(0, 0, 0, 0), AngleTuple(0.3, 0.4, -0.3, -0.4)):
            for g1, g2 in selftest_residuals(build_model(t)).gamma:
                assert g1 == pytest.approx(g2, abs=1e-15)

    def test_small_array_models_take_the_row_route(self):
        # A2 psi = -A1 psi: the shortest gamma splits each row evenly
        report = selftest_residuals(_scalar_model([1, -1, 1, -1]))
        assert sum(report.gamma, ()) == pytest.approx((0.5, -0.5, -0.5, 0.5),
                                                      abs=1e-15)
        assert correlations_of(_array_model(CHSH_ANGLES)) \
            == correlations_of(build_model(CHSH_ANGLES))

    def test_mixtures_do_not_depend_on_component_fields(self):
        pairs = [(0.3, CHSH_ANGLES), (0.7, AngleTuple(0.9, 0.7, 0.5, -2.1))]
        rows = mixture_model([(w, build_model(t)) for w, t in pairs])
        arrays = mixture_model([(w, _array_model(t)) for w, t in pairs])
        assert rows.d == arrays.d == 8
        for x, y in zip((rows.psi, *rows.observables()),
                        (arrays.psi, *arrays.observables())):
            assert x.tobytes() == y.tobytes()
        assert correlations_of(rows) == correlations_of(arrays)
        assert selftest_residuals(rows) == selftest_residuals(arrays)

    def test_json_round_trip_of_large_model(self):
        gs = gram_vectors(solve_completion(CHSH_POINT).witness)
        model = clifford_model(gs)
        clone = QuantumModel.from_json_dict(model.to_json_dict())
        assert isinstance(clone.psi, tuple)
        assert correlations_of(clone) == correlations_of(model)


def _two_dim(psi=(1.0, 0.0), A1=((1.0, 0.0), (0.0, 1.0)), A2=None, B1=None,
             B2=None) -> QuantumModel:
    eye = ((1.0, 0.0), (0.0, 1.0))
    return QuantumModel(psi=psi, A1=A1, A2=A2 or eye, B1=B1 or eye,
                        B2=B2 or eye)


SX = ((0.0, 1.0), (1.0, 0.0))
SZ = ((1.0, 0.0), (0.0, -1.0))


class TestValidation:
    @pytest.mark.parametrize("model", [
        pytest.param(_two_dim(psi=(1.0, 1.0)), id="norm"),
        pytest.param(_two_dim(psi=(1.0, 0.0, 0.0)), id="psi shape"),
        pytest.param(_two_dim(A1=((1.0, 0.0),)), id="observable shape"),
        pytest.param(_two_dim(A1=((0.0, 1.0), (1.0 + 1e-9, 0.0))),
                     id="asymmetric"),
        pytest.param(_two_dim(A1=((1.0 + 1e-9, 0.0), (0.0, 1.0))),
                     id="spectrum above"),
        pytest.param(_two_dim(A1=((0.0, 2.0), (2.0, 0.0))),
                     id="spectrum below"),
        pytest.param(_two_dim(A1=SX, B1=SZ), id="commutator"),
        pytest.param(_two_dim(A1=SX, B1=((1.0, 1e-13), (0.0, -1.0))),
                     id="commutator of inexactly symmetric"),
        pytest.param(_two_dim(psi=(math.nan, 0.0)), id="NaN psi"),
        pytest.param(_two_dim(A1=((math.inf, 0.0), (0.0, 1.0))),
                     id="infinite entry"),
        pytest.param(_two_dim(B2=((math.nan, 0.0), (0.0, 1.0))),
                     id="NaN entry"),
        pytest.param(_two_dim(A1=((1e308, 1e308), (1e308, 1e308))),
                     id="finite entries whose sum overflows"),
        pytest.param(_two_dim(psi=((1.0,), (0.0,))), id="psi of rows"),
    ])
    def test_both_routes_reject(self, model):
        with pytest.raises(InvalidModel):
            quantum._checked_arrays(model)
        for check in (QuantumModel.validate, correlations_of,
                      selftest_residuals):
            with pytest.raises(InvalidModel):
                check(model)

    def test_commutator_shortcut_matches_full_products(self):
        # exactly symmetric row tuples take the commutator's entries below
        # its diagonal, lists the full products: the detail is the same
        rng = np.random.default_rng(227)
        for d in (2, 3, 4):
            for _ in range(60):
                mats = [0.5 * np.eye(d)] * 4
                for k in (rng.integers(0, 2), rng.integers(2, 4)):
                    x = rng.uniform(-1.0, 1.0, size=(d, d)) / d
                    mats[k] = x + x.T
                    mats[k] /= 2.0
                details = []
                for rows in (lambda X: tuple(map(tuple, X.tolist())),
                             np.ndarray.tolist):
                    model = QuantumModel(
                        psi=(1.0,) + (0.0,) * (d - 1),
                        **dict(zip(("A1", "A2", "B1", "B2"), map(rows, mats))))
                    with pytest.raises(InvalidModel,
                                       match="commutator norm") as err:
                        model.validate()
                    details.append(str(err.value))
                assert details[0] == details[1]

    def test_both_routes_accept_the_tolerances(self):
        tilt = 1e-13
        model = _two_dim(A1=((1.0, tilt), (0.0, -1.0)),
                         B1=((1.0 + 1e-11, 0.0), (0.0, 1.0)))
        model.validate()
        quantum._checked_arrays(model)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_large_model_rejected(self, entry):
        mix = mixture_model([(0.5, build_model(CHSH_ANGLES)),
                             (0.5, build_model(AngleTuple(0, 0, 0, 0)))])
        A1 = mix.A1.copy()
        A1[3, 3] = entry
        bad = QuantumModel(psi=mix.psi, A1=A1, A2=mix.A2, B1=mix.B1,
                           B2=mix.B2)
        for check in (QuantumModel.validate, correlations_of,
                      selftest_residuals):
            with pytest.raises(InvalidModel, match="finite"):
                check(bad)


def _outcome(check, model):
    """What a validation returns: the rows, or the ``InvalidModel`` message."""
    try:
        return check(model)
    except InvalidModel as err:
        return str(err)


class TestSpectrumScreen:
    @pytest.mark.parametrize("family", VALIDATION_FAMILIES)
    def test_matches_the_reference(self, family):
        rng = np.random.default_rng(401 + VALIDATION_FAMILIES.index(family))
        for d in (1, 4) if family == "built" else (1, 2, 3, 4):
            for _ in range(200):
                model = validation_model(rng, family, d)
                assert _outcome(quantum._checked_rows, model) == _outcome(
                    checked_rows_reference, model)

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = []

        def counted(rows, shift):
            calls.append(shift)
            return count_above(rows, shift)

        count_above = quantum._count_above
        monkeypatch.setattr(quantum, "_count_above", counted)
        return calls

    def test_involutions_skip_the_counts(self, counts):
        rng = np.random.default_rng(409)
        for t in tetra_angles(rng, 5):
            correlations_of(build_model(t))
        for _ in range(5):
            gs = gram_vectors(solve_completion(q4_point(rng)).witness)
            assert gs.r == 2
            correlations_of(clifford_model(gs))
        assert counts == []

    def test_other_spectra_reach_the_counts(self, counts):
        # a projector onto (cos 0.4, sin 0.4) has row sums of |P·Pᵀ| = |P|
        # above 1, though its spectrum {0, 1} is inside [-1, 1]
        v = (math.cos(0.4), math.sin(0.4))
        projector = _two_dim(A1=tuple(tuple(x * y for y in v) for x in v))
        assert _outcome(quantum._checked_rows, projector) == \
            checked_rows_reference(projector)
        assert len(counts) == 2
        counts.clear()
        # the screen bounds |λ|², so an eigenvalue of 1 + 7e-11, inside the
        # counts' bound 1 + 1e-10, must still be counted
        inside = _two_dim(A1=((1.0 + 7e-11, 0.0), (0.0, 1.0)))
        assert _outcome(quantum._checked_rows, inside) == \
            checked_rows_reference(inside)
        assert len(counts) == 2
        counts.clear()
        # an eigenvalue of 1 + 2e-10 fails the screen and then the count
        above = _two_dim(A1=((1.0 + 2e-10, 0.0), (0.0, 1.0)))
        message = "A1 spectrum leaves [-1, 1]: an eigenvalue above 1"
        assert _outcome(checked_rows_reference, above) == message
        with pytest.raises(InvalidModel) as err:
            correlations_of(above)
        assert str(err.value) == message
        assert len(counts) == 1


# ---------------------------------------------------------------------------
# The straight-line 4x4 sums against the generic row code they replaced
# ---------------------------------------------------------------------------

def _sum(values) -> float:
    """``sum(values)`` as Python before 3.12 adds it: from the integer 0,
    in order (3.12's ``sum`` compensates float round-off)."""
    return reduce(add, values, 0)


def _generic_dot(x, y) -> float:
    return _sum(map(mul, x, y))


def _generic_screen(X) -> bool:
    S = [[0.0] * len(X) for _ in X]
    for i, row in enumerate(X):
        for j in range(i + 1):
            S[i][j] = S[j][i] = abs(_generic_dot(row, X[j]))
    return all(_sum(row) <= 1.0 + 1e-10 for row in S)


def _generic_checked_rows(m: QuantumModel):
    """The generic row validation at ``d ≤ 4``, frozen: the screen over
    ``d(d+1)/2`` row products, the commutator shortcut below the diagonal
    and the full products, each entry a ``sum(map(mul, …))``."""
    d = m.d
    psi = tuple(m.psi.tolist()) if hasattr(m.psi, "tolist") else m.psi
    obs = tuple(tuple(map(tuple, X.tolist())) if hasattr(X, "tolist") else X
                for X in m.observables())
    for name, X in zip(("A1", "A2", "B1", "B2"), obs):
        if len(X) != d or any(len(row) != d for row in X):
            raise InvalidModel(f"{name} is not {d}x{d}")
    if not all(map(math.isfinite, chain(psi, *chain(*obs)))):
        raise InvalidModel("model entries must be finite")
    norm = math.hypot(*psi)
    if abs(norm - 1.0) > 1e-12:
        raise InvalidModel(f"|psi| = {norm!r} not normalized")
    bound = 1.0 + 1e-10
    cols = [tuple(zip(*X)) for X in obs]
    exact = [X == XT for X, XT in zip(obs, cols)]
    for name, X, XT, symmetric in zip(("A1", "A2", "B1", "B2"), obs, cols,
                                      exact):
        if not symmetric and max(map(abs, map(
                sub, chain(*X), chain(*XT)))) > 1e-12:
            raise InvalidModel(f"{name} not symmetric")
        if _generic_screen(X):
            continue
        if quantum._count_above(X, bound):
            raise InvalidModel(
                f"{name} spectrum leaves [-1, 1]: an eigenvalue above 1")
        if quantum._count_above([[-x for x in row] for row in X], bound):
            raise InvalidModel(
                f"{name} spectrum leaves [-1, 1]: an eigenvalue below -1")
    for A, AT, a_exact in zip(obs[:2], cols[:2], exact[:2]):
        for B, BT, b_exact in zip(obs[2:], cols[2:], exact[2:]):
            if a_exact and b_exact:
                worst = max([abs(_generic_dot(A[i], B[j])
                                 - _generic_dot(A[j], B[i]))
                             for i in range(d) for j in range(i)],
                            default=0.0)
            else:
                worst = max(map(abs, map(
                    sub, [_generic_dot(row, col) for row in A for col in BT],
                    [_generic_dot(row, col) for row in B for col in AT])))
            if worst > 1e-10:
                raise InvalidModel(f"commutator norm {worst!r}")
    return psi, obs


def _generic_correlations(m: QuantumModel) -> Correlation:
    psi, (A1, A2, B1, B2) = _generic_checked_rows(m)
    b_psi = [[_generic_dot(row, psi) for row in B] for B in (B1, B2)]
    return Correlation(*[_generic_dot(psi, [_generic_dot(row, v)
                                            for row in A])
                         for A in (A1, A2) for v in b_psi])


def _kron_model(t: AngleTuple) -> QuantumModel:
    """The standard model with every observable a ``quantum._kron`` of 2x2
    rows."""
    def reflection(tau):
        return ((math.cos(tau), math.sin(tau)),
                (math.sin(tau), -math.cos(tau)))

    eye = ((1.0, 0.0), (0.0, 1.0))
    return QuantumModel(
        psi=quantum._SINGLET_ROW,
        A1=quantum._kron(reflection(t.alpha), eye),
        A2=quantum._kron(reflection(-t.gamma), eye),
        B1=quantum._kron(eye, reflection(math.pi)),
        B2=quantum._kron(eye, reflection(t.alpha + t.beta + math.pi)))


EDGE_FAMILIES = ("signed_zeros", "near_symmetric", "screen_edge", "overflow")


def _edge_model(rng: np.random.Generator, family: str,
                d: int) -> QuantumModel:
    """A row-tuple model on R^d, ``d ≤ 4``, at an edge of the arithmetic:

    * ``signed_zeros``: diagonal observables with entries in ``{±1,
      ±0.5, ±0.0}`` and ``±0.0`` off the diagonal, and ``psi`` with
      ``±0.0`` entries; one time in four ``B2`` swaps two basis vectors;
    * ``near_symmetric``: involutions with up to about 2e-12 added above
      the diagonal, which take the full commutator products;
    * ``screen_edge``: spectra of ``±(1 ± 7e-11)`` and ``±1``, in the
      standard or a random basis;
    * ``overflow``: one observable scaled by ``10^u``, ``|u|`` in
      ``[155, 300]``, so its products overflow or underflow.
    """
    def signed_zero():
        return -0.0 if rng.integers(0, 2) else 0.0

    if family == "signed_zeros":
        def observable():
            diag = rng.choice((-1.0, 1.0, 0.5, -0.5, 0.0), size=d)
            rows = [[signed_zero() for _ in range(d)] for _ in range(d)]
            for i in range(d):
                rows[i][i] = float(diag[i]) or signed_zero()
            return tuple(map(tuple, rows))

        mats = [observable() for _ in range(4)]
        if d > 1 and rng.integers(0, 4) == 0:
            rows = [[signed_zero() for _ in range(d)] for _ in range(d)]
            rows[0][1] = rows[1][0] = 1.0
            for i in range(2, d):
                rows[i][i] = 1.0
            mats[3] = tuple(map(tuple, rows))
        psi = [signed_zero() for _ in range(d)]
        live = rng.choice(d, size=rng.integers(1, d + 1), replace=False)
        values = rng.normal(size=len(live))
        values /= np.linalg.norm(values)
        for i, v in zip(live, values.tolist()):
            psi[i] = v
        return QuantumModel(psi=tuple(psi),
                            **dict(zip(("A1", "A2", "B1", "B2"), mats)))

    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    if family == "screen_edge" and rng.integers(0, 2):
        q = np.eye(d)

    def observable() -> np.ndarray:
        signs = rng.choice((-1.0, 1.0), size=d)
        if family == "screen_edge":
            signs = signs * (1.0 + rng.choice((-7e-11, 0.0, 7e-11), size=d))
        x = (q * signs) @ q.T
        if family == "near_symmetric":
            x = x + np.triu(rng.uniform(-1.0, 1.0, size=(d, d)), 1) \
                * 10.0 ** rng.uniform(-13.0, -11.7)
        return x

    mats = [observable() for _ in range(4)]
    if family == "overflow":
        k = rng.integers(0, 4)
        mats[k] = mats[k] * 10.0 ** (rng.choice((-1.0, 1.0))
                                     * rng.uniform(155.0, 300.0))
    psi = rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return QuantumModel(psi=tuple(psi.tolist()), **dict(zip(
        ("A1", "A2", "B1", "B2"), (tuple(map(tuple, x.tolist()))
                                   for x in mats))))


def _repr_outcome(check, model) -> str:
    try:
        return repr(check(model))
    except InvalidModel as err:
        return f"InvalidModel: {err}"


class TestStraightLineSums:
    def test_built_models(self):
        rng = np.random.default_rng(601)
        for a, b, g in rng.uniform(-7.0, 7.0, size=(2000, 3)).tolist():
            t = AngleTuple(a, b, g, -(a + b + g))
            model, kron = build_model(t), _kron_model(t)
            assert model.to_json_dict() == kron.to_json_dict()
            assert repr(model.to_json_dict()) == repr(kron.to_json_dict())
            assert repr(correlations_of(model)) == \
                repr(_generic_correlations(model))
            assert quantum._checked_rows(model) == \
                _generic_checked_rows(model)

    def test_integer_entries_keep_integer_sums(self):
        model = QuantumModel(psi=(0, 1), A1=((1, 0), (0, -1)),
                             A2=((0, 1), (1, 0)), B1=((1, 0), (0, 1)),
                             B2=((-1, 0), (0, -1)))
        assert repr(correlations_of(model)) == \
            repr(_generic_correlations(model)) == \
            "Correlation(c11=-1, c12=1, c21=0, c22=0)"

    @pytest.mark.parametrize("family", VALIDATION_FAMILIES + EDGE_FAMILIES)
    def test_families(self, family):
        rng = np.random.default_rng(613 + (VALIDATION_FAMILIES
                                           + EDGE_FAMILIES).index(family))
        for d in (1, 4) if family == "built" else (1, 2, 3, 4):
            for _ in range(150):
                model = (validation_model if family in VALIDATION_FAMILIES
                         else _edge_model)(rng, family, d)
                assert _repr_outcome(quantum._checked_rows, model) == \
                    _repr_outcome(_generic_checked_rows, model)
                assert _repr_outcome(correlations_of, model) == \
                    _repr_outcome(_generic_correlations, model)
                # the screen decides alike, though the counts it skips
                # would hide a difference from the outcomes
                padded = quantum._padded(model.psi, model.observables())[1]
                assert [quantum._norm_screen(X) for X in padded] == \
                    [_generic_screen(X) for X in model.observables()]

    def test_families_reach_every_branch(self, monkeypatch):
        # the edge families must exercise what they are named for: both
        # commutator branches, the counts, each kind of rejection and a
        # correlation that is zero, whose sign the sums fix
        seen = set()
        for name in ("_product", "_count_above"):
            def traced(*args, name=name, f=getattr(quantum, name)):
                seen.add(name)
                return f(*args)
            monkeypatch.setattr(quantum, name, traced)
        rng = np.random.default_rng(631)
        for family in EDGE_FAMILIES:
            for d in (1, 2, 3, 4):
                for _ in range(150):
                    try:
                        c = correlations_of(_edge_model(rng, family, d))
                    except InvalidModel as err:
                        seen.update(kind for kind in (
                            "not symmetric", "spectrum", "commutator")
                            if kind in str(err))
                    else:
                        seen.add("zero" if 0.0 in c.as_tuple() else "valid")
        assert seen == {"_product", "_count_above", "not symmetric",
                        "spectrum", "commutator", "zero", "valid"}
