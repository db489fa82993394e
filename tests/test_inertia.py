"""The inertia count behind ``CompletionResult.rank`` and ``is_psd``,
checked against ``numpy.linalg.eigvalsh`` thresholding.

The reference computes every eigenvalue and compares it with the same
threshold, ``eps_psd·max(1, max|M|)``.  Both sides round, so a matrix with
an eigenvalue within ``_EXEMPT`` spacings of ``max|M|`` of the threshold
is not compared; the band was fixed before the test was first run, and
each test bounds how many matrices fall in it.
"""

import math

import numpy as np
import pytest

from qbody import (
    DEFAULT_TOLERANCE,
    AmbiguousClassification,
    AngleTuple,
    Correlation,
    Functional,
    Oracle,
    Stratum,
    classify,
    dual_completion,
    exposing_functional,
    extreme_from_angles,
    member,
    solve_completion,
    support,
)
from qbody.boundary import _count_above

from helpers import (
    deep_interior_point,
    q5_point,
    random_symmetry,
    tetra_angles,
)

_EXEMPT = 256


def _reference(rows, tol=DEFAULT_TOLERANCE):
    """``(rank, psd, near)`` by eigvalsh: the eigenvalues above the
    threshold, whether none lies below minus it, and whether one lies
    within the exemption band of either."""
    matrix = np.array(rows, dtype=float)
    biggest = float(np.abs(matrix).max())
    thr = tol.eps_psd * max(1.0, biggest)
    eigs = np.linalg.eigvalsh(matrix)
    band = _EXEMPT * np.spacing(biggest)
    near = bool(min(np.abs(eigs - thr).min(), np.abs(eigs + thr).min())
                <= band)
    return int((eigs > thr).sum()), bool(eigs[0] >= -thr), near, thr


def _kernel(rows, thr):
    """Rank and PSD verdict from the inertia count alone."""
    negated = [[-x for x in row] for row in rows]
    return _count_above(rows, thr), _count_above(negated, thr) == 0


def _image(rng, c: Correlation) -> Correlation:
    return Correlation.from_sequence(random_symmetry(rng) @ c.as_array())


def _stratum_points(rng, n: int) -> list[tuple[Correlation, Stratum]]:
    """Extreme points of Q1..Q4 from their angles, under random group
    images, with the stratum the angles give."""
    out = []
    for _ in range(n):
        b, g = (float(x) for x in rng.uniform(0.05, math.pi - 0.05, size=2))
        k = int(rng.integers(0, 2))
        for t, stratum in (
                (AngleTuple(0.0, k * math.pi, 0.0, -k * math.pi), Stratum.Q1),
                (AngleTuple(k * math.pi, 0.0, b, -b - k * math.pi),
                 Stratum.Q2),
                (AngleTuple(0.0, b, g, -(b + g)), Stratum.Q3),
                (tetra_angles(rng, 1)[0], Stratum.Q4)):
            ext = extreme_from_angles(t)
            if ext.stratum is stratum:
                out.append((_image(rng, ext.c), stratum))
    return out


def _other_points(rng, n: int) -> list[Correlation]:
    """Facet, interior and exterior points, and points outside the cube
    with entries up to 1e200."""
    out = []
    for _ in range(n):
        out.append(q5_point(rng))
        out.append(deep_interior_point(rng))
        c = Correlation.from_sequence(rng.uniform(-1.3, 1.3, size=4))
        if not member(c, Oracle.SEMIALG).inside:
            out.append(c)
        mags = 10.0 ** rng.uniform(0.0, 200.0, size=4)
        signs = rng.choice((-1.0, 1.0), size=4)
        out.append(Correlation.from_sequence(signs * mags))
    return out


class TestCompletionRank:
    def test_matches_eigvalsh_on_every_stratum(self):
        rng = np.random.default_rng(2024)
        points = _stratum_points(rng, 300)
        assert {s for _, s in points} == {Stratum.Q1, Stratum.Q2,
                                          Stratum.Q3, Stratum.Q4}
        points = [c for c, _ in points] + _other_points(rng, 300)
        near = 0
        for c in points:
            result = solve_completion(c)
            rank, psd, close, _ = _reference(result.witness.rows())
            if close:
                near += 1
                continue
            assert result.rank == rank, c
            assert result.witness.is_psd() == psd, c
        assert len(points) > 2000 and near <= len(points) // 100

    def test_boundary_strata_have_the_table_rank(self):
        rng = np.random.default_rng(7)
        expected = {Stratum.Q1: 1, Stratum.Q2: 2, Stratum.Q3: 2,
                    Stratum.Q4: 2}
        for c, stratum in _stratum_points(rng, 100):
            assert solve_completion(c).rank == expected[stratum]

    # sweeps of 20,000 points cos(α, β, γ, -α-β-γ), (α, β, γ) uniform in
    # (low, π)³, where classify is known to raise; the first three points
    # are the ROADMAP sweep, the rest are held out from it.  The rank in a
    # rank message must not move
    _FACET = "facet point outside its elliptope but inside the margin band"

    @pytest.mark.parametrize("seed, low, index, message", [
        (1, 0.0, 4463, "stratum Q5 expects a unique rank-3 completion, got "
                       "feasible=True rank=4 unique=False"),
        (1, 0.0, 5450, _FACET),
        (1, 0.0, 15954, _FACET),
        (3, 0.0, 3925, _FACET),
        (3, 0.0, 11195, "stratum Q5 expects a unique rank-3 completion, got "
                        "feasible=True rank=3 unique=False"),
        (3, 0.0, 12491, _FACET),
        (3, 0.0, 18950, _FACET),
        (1, -math.pi, 1917, _FACET),
    ], ids=["4463", "5450", "15954", "rng3-3925", "rng3-11195", "rng3-12491",
            "rng3-18950", "signed-1917"])
    def test_sweep_faults_keep_their_messages(self, seed, low, index,
                                              message):
        a, b, g = np.random.default_rng(seed).uniform(
            low, math.pi, size=(20000, 3))[index].tolist()
        c = Correlation.from_sequence(np.cos((a, b, g, -(a + b + g))))
        # the exception set: within eps_boundary of a cube facet
        assert 1.0 - max(map(abs, c.as_tuple())) < 1e-9
        with pytest.raises(AmbiguousClassification) as info:
            classify(c)
        assert str(info.value) == message


class TestDualCertificate:
    def _functionals(self, rng) -> list[Functional]:
        """Functionals of support 1: exposing functionals of Q4 points,
        classical ones, and random ones divided by their support."""
        out = [exposing_functional(t)
               for t in tetra_angles(rng, 20, k_min=0.2)]
        out += [Functional(0.25, 0.25, 0.25, 0.25),
                Functional(1.0, 0.0, 0.0, 0.0)]
        for g in rng.normal(size=(20, 4)):
            out.append(Functional.from_sequence(g / support(
                Functional.from_sequence(g))))
        return out

    def test_matches_eigvalsh_near_support_one(self):
        rng = np.random.default_rng(99)
        supports = np.linspace(0.999999, 1.000001, 21)
        checked = near = 0
        for f0 in self._functionals(rng):
            for s in supports:
                f = Functional.from_sequence(s * f0.as_array())
                result = dual_completion(f)
                rank, psd, close, thr = _reference(result.witness.rows())
                if close:
                    near += 1
                    continue
                checked += 1
                assert result.feasible == psd, (f, s)
                assert _kernel(result.witness.rows(), thr) == (rank, psd)
        assert checked > 800 and near <= checked // 100

    @pytest.mark.parametrize("scale", [2.0 ** -200, 2.0 ** 200],
                             ids=["2^-200", "2^200"])
    def test_matches_eigvalsh_at_extreme_scales(self, scale):
        rng = np.random.default_rng(5)
        for f0 in self._functionals(rng):
            rows = dual_completion(f0).witness.rows()
            scaled = [[scale * x for x in row] for row in rows]
            rank, psd, close, thr = _reference(scaled)
            assert not close
            assert _kernel(scaled, thr) == (rank, psd)
            if scale < 1.0:
                # the tiny functional itself, through dual_completion
                f = Functional.from_sequence(scale * f0.as_array())
                result = dual_completion(f)
                rank, psd, close, _ = _reference(result.witness.rows())
                assert not close and result.feasible == psd


class TestTwoByTwoPivots:
    """A zero diagonal block leaves no 1x1 pivot at the first step."""

    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -200, 2.0 ** 200,
                                       1e-200, 1e200],
                             ids=["1", "2^-200", "2^200", "1e-200", "1e200"])
    def test_zero_diagonal_block(self, scale):
        rng = np.random.default_rng(31)
        checked = 0
        for k in range(400):
            if k % 2:
                block = rng.normal(size=(2, 2))
            else:  # rank one: two zero eigenvalues
                block = np.outer(rng.normal(size=2), rng.normal(size=2))
            lower = np.zeros((2, 2)) if k % 4 < 2 else np.diag(
                rng.normal(size=2) * 1e-3)
            matrix = scale * np.block([[np.zeros((2, 2)), block],
                                       [block.T, lower]])
            rows = matrix.tolist()
            rank, psd, close, thr = _reference(rows)
            if close:
                continue
            checked += 1
            assert _kernel(rows, thr) == (rank, psd), matrix
        assert checked >= 396

    def test_zero_matrix_and_signature(self):
        zero = [[0.0] * 4 for _ in range(4)]
        assert _count_above(zero, 0.0) == 0
        assert _count_above(zero, -1.0) == 4
        swap = [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, 2.0, 0.0]]
        # eigenvalues ±1 and ±2
        assert [_count_above(swap, s) for s in (-3, -1.5, -0.5, 0.5, 1.5,
                                                2.5)] == [4, 3, 2, 2, 1, 0]
