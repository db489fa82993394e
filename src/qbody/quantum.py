"""Explicit quantum models over real Hilbert spaces, and their self-tests.

A model is a unit vector ``psi`` together with real symmetric observables
``A1, A2, B1, B2`` satisfying ``[A_i, B_j] = 0`` and spectra in
``[-1, 1]``; it realizes the correlations ``c_ij = <psi| A_i B_j psi>``.
Real coefficients suffice for every point of the correlation body, so no
complex support is provided.

The workhorse family lives on R² ⊗ R² with the planar reflections

    M(tau) = [[cos tau, sin tau], [sin tau, -cos tau]]

and the antisymmetric maximally entangled state
``psi = (0, 1, -1, 0)/sqrt(2)``, for which

    <psi| M(u) ⊗ M(v) psi> = -cos(u - v).

Choosing ``A1 = M(alpha)⊗1``, ``A2 = M(-gamma)⊗1``, ``B1 = 1⊗M(pi)``,
``B2 = 1⊗M(alpha+beta+pi)`` realizes ``(cos alpha, cos beta, cos gamma,
cos delta)`` for every angle tuple, whether or not it is extreme.

At nonclassical extreme points the model is essentially unique, which is
certified numerically through the algebraic relations that force
uniqueness (all on the cyclic subspace generated from ``psi``):

* ``B_j psi = Σ_i gamma_ji A_i psi``  for a real 2x2 matrix gamma,
* ``X² = 1`` for each observable,
* ``A1 A2 + A2 A1 = 2u·1`` with ``u = <psi| A1 A2 psi>``,
* the state is tracial on words in ``A1, A2``:
  ``<psi| M psi> = (normalized trace of M)``.

Mixtures of distinct extreme models (block direct sums) break at least
one of these relations by a macroscopic amount, which is what makes the
relations a usable self-test.

Two routes check, evaluate and self-test a model, chosen by its
dimension ``d``.  Models with ``d ≤ 4`` (the family above, Clifford models
of Gram rank at most 2 and small hand-made models) run on Python floats in
row tuples, so that these paths do not import numpy, and the self-test
takes its bases from a one-sided Jacobi SVD.  Their spectrum test first
screens ``‖X‖₂²`` by the largest absolute row sum of ``X·Xᵀ``: a sum of
at most ``1 + _SPECTRUM_TOL`` settles it, as for every involution the
builders make.  Otherwise it counts the eigenvalues above 1 and below -1
by inertia (:func:`boundary._count_above`).  The screen, the commutators
and the correlations read ``psi`` and the observables zero-padded to
``d = 4`` (as given at ``d = 4``) and evaluate straight-line sums ``0 +
x0*y0 + x1*y1 + x2*y2 + x3*y3``, with the bits of the generic
``sum(map(mul, x, y))``: ``sum`` adds from 0, which is +0.0 for floats,
in index order (before Python 3.12, whose ``sum`` compensates the
round-off); a round-to-nearest sum that starts at +0.0 is never -0.0,
so the padded ±0.0 terms change no bit; and the screen and the
commutators read absolute values only.  A ``model`` operation
(:func:`build_model`, which writes its Kronecker rows directly, and
:func:`correlations_of`) takes about 42 µs, against 115 µs with the
generic rows (perfbench ``query``, Python 3.11).  Larger models
(Clifford models of rank 3 and 4, mixtures of several components) run on
numpy arrays.  Only :func:`mixture_model` makes arrays; every other
builder, and :meth:`QuantumModel.from_json_dict`, makes row tuples, and
each route converts what it is given on entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul, sub
from typing import Sequence

from .core import (
    BadWeights,
    ConsistencyError,
    Correlation,
    DimensionTooLarge,
    InvalidModel,
    _json_floats,
)
from .boundary import AngleTuple, GramSystem, _count_above

__all__ = [
    "QuantumModel",
    "SelfTestReport",
    "build_model",
    "correlations_of",
    "selftest_residuals",
    "clifford_model",
    "mixture_model",
]

# Hypothesis tolerances (fixed by the model contract, not user-tunable).
_PSI_NORM_TOL = 1e-12
_COMMUTATOR_TOL = 1e-10
_SPECTRUM_TOL = 1e-10
_SYMMETRY_TOL = 1e-12
# The inertia counts' shift, and the norm screen's threshold on a squared
# norm (see _norm_screen).
_SPECTRUM_BOUND = 1.0 + _SPECTRUM_TOL

# Models up to this dimension run on Python floats, larger ones on numpy.
_SMALL_D = 4
_OBSERVABLES = ("A1", "A2", "B1", "B2")
_EPS = 2.0 ** -52  # float64 machine epsilon, as numpy's ``finfo``
_JACOBI_SWEEPS = 30

# The building blocks of the models, as rows: the singlet ``psi`` and the
# Pauli reflections sigma1, sigma3.
_SIGMA1 = ((0.0, 1.0), (1.0, 0.0))
_SIGMA3 = ((1.0, 0.0), (0.0, -1.0))
_SINGLET_ROW = tuple(x / math.sqrt(2.0) for x in (0.0, 1.0, -1.0, 0.0))


def _reflection_kron(tau: float, left: bool):
    """``M(tau) ⊗ 1`` if ``left``, else ``1 ⊗ M(tau)``, as rows.

    The entries are those :func:`_kron` gives with the 2x2 identity: an
    entry of ``M(tau)`` times 1.0 or 0.0, so each zero carries the sign of
    the entry it came from (``model`` prints the ``-0.0``).
    """
    ct, st = math.cos(tau), math.sin(tau)
    mc = -ct
    zc, zs, zm = ct * 0.0, st * 0.0, mc * 0.0
    if left:
        return ((ct, zc, st, zs), (zc, ct, zs, st),
                (st, zs, mc, zm), (zs, st, zm, mc))
    return ((ct, st, zc, zs), (st, mc, zs, zm),
            (zc, zs, ct, st), (zs, zm, st, mc))


def _as_lists(x) -> list:
    """A vector or matrix field, numpy array or row tuples, as lists."""
    if hasattr(x, "tolist"):
        return x.tolist()
    return [list(row) if isinstance(row, tuple) else row for row in x]


@dataclass(frozen=True)
class QuantumModel:
    """State vector plus four commuting-pair observables on R^d, where
    ``d`` is the length of ``psi``."""

    psi: Sequence[float]
    A1: Sequence[Sequence[float]]
    A2: Sequence[Sequence[float]]
    B1: Sequence[Sequence[float]]
    B2: Sequence[Sequence[float]]

    @property
    def d(self) -> int:
        return len(self.psi)

    def observables(self) -> tuple:
        return (self.A1, self.A2, self.B1, self.B2)

    def validate(self) -> None:
        """Check the defining hypotheses; raise :class:`InvalidModel`."""
        if self.d <= _SMALL_D:
            _checked_rows(self)
        else:
            _checked_arrays(self)

    def to_json_dict(self) -> dict:
        """Row-major JSON export of the model."""
        return {"d": self.d, "psi": _as_lists(self.psi),
                **{name: _as_lists(X)
                   for name, X in zip(_OBSERVABLES, self.observables())}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuantumModel":
        """The model of a :meth:`to_json_dict` document, in row tuples.

        Raises ``ValueError`` on a document that is not a model: not an
        object, a missing key, a ``d`` that is not a positive integer, or a
        row that ``core._json_floats`` refuses; non-finite entries pass.
        """
        if not isinstance(data, dict):
            raise ValueError("a model must be a JSON object")
        missing = [k for k in ("d", "psi") + _OBSERVABLES if k not in data]
        if missing:
            raise ValueError(f"model lacks {', '.join(missing)}")
        d = data["d"]
        if type(d) is not int or d < 1:
            raise ValueError(f"model d must be a positive integer, got {d!r}")
        mats = {}
        for name in _OBSERVABLES:
            rows = data[name]
            if not isinstance(rows, list) or len(rows) != d:
                raise ValueError(f"model {name} must hold {d} rows")
            mats[name] = tuple(_json_floats(row, d, f"model {name} row")
                               for row in rows)
        return cls(psi=_json_floats(data["psi"], d, "model psi"), **mats)


@dataclass(frozen=True)
class SelfTestReport:
    gamma: tuple[tuple[float, float], tuple[float, float]]
    residual_bpsi: float
    residual_squares: float
    residual_anticommutator: float
    residual_tracial: float
    u_value: float


def _kron(a, b) -> tuple[tuple[float, ...], ...]:
    """Kronecker product of two matrices given as row tuples."""
    return tuple([tuple([x * y for x in ra for y in rb])
                  for ra in a for rb in b])


def _identity(n: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(i == j) for j in range(n)) for i in range(n))


def build_model(t: AngleTuple) -> QuantumModel:
    """The standard 4-dimensional model realizing the cosines of ``t``.

    ``t`` met its sum constraint at its own tolerance when it was built.
    """
    return QuantumModel(
        psi=_SINGLET_ROW,
        A1=_reflection_kron(t.alpha, True),
        A2=_reflection_kron(-t.gamma, True),
        B1=_reflection_kron(math.pi, False),
        B2=_reflection_kron(t.alpha + t.beta + math.pi, False))


def correlations_of(m: QuantumModel) -> Correlation:
    """Evaluate ``c_ij = <psi| A_i B_j psi>`` after validating the model."""
    if m.d <= _SMALL_D:
        return Correlation(*_correlations_rows(*_padded(*_checked_rows(m))))
    return Correlation(*_correlations_arrays(*_checked_arrays(m)))


def selftest_residuals(m: QuantumModel) -> SelfTestReport:
    """Evaluate the uniqueness-forcing algebraic relations on the model.

    All residuals are restricted to the cyclic subspace generated from
    ``psi`` (span of words of length at most 3 in the observables), where
    the relations are provable for extreme nonclassical correlations;
    gamma is recovered by least squares on span{A1 psi, A2 psi}, so
    off-manifold models yield informative residuals instead of errors.
    """
    if m.d <= _SMALL_D:
        return _selftest_rows(*_checked_rows(m), m.d)
    return _selftest_arrays(*_checked_arrays(m), m.d)


# ---------------------------------------------------------------------------
# The row route: Python floats, d ≤ 4
# ---------------------------------------------------------------------------

def _dot(x, y) -> float:
    return sum(map(mul, x, y))


def _matvec(X, v) -> tuple[float, ...]:
    return tuple([sum(map(mul, row, v)) for row in X])


def _matmul(X, Y) -> tuple[tuple[float, ...], ...]:
    cols = tuple(zip(*Y))
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in X)


def _minus_identity(X, lam: float) -> tuple[tuple[float, ...], ...]:
    """``X - lam·1``."""
    return tuple(tuple(x - lam if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(X))


def _max_abs(X) -> float:
    return max(abs(x) for row in X for x in row)


_NOT_NUMBERS = "psi must be a vector and the observables matrices of numbers"


def _padded(psi, obs):
    """``psi`` and the observables with zero entries, rows and columns
    appended up to ``d = 4``; at ``d = 4`` they are returned as given.

    The straight-line sums of the row route read length-4 rows.  A padded
    term is a product with a zero and leaves every sum it joins unchanged:
    a sum that starts at +0.0 is never -0.0 under round-to-nearest, so a
    ±0.0 term changes no bit of it, and the screen and the commutators
    read absolute values only.  The zeros are integers, so that integer
    entries keep integer sums, as with ``sum``.
    """
    pad = 4 - len(psi)
    if not pad:
        return psi, obs
    zeros = (0,) * pad
    rows = ((0,) * 4,) * pad
    return ((*psi, *zeros),
            tuple(tuple((*row, *zeros) for row in X) + rows for X in obs))


def _norm_screen(X) -> bool:
    """Whether a norm bound alone keeps the spectrum of ``X`` in ``[-1, 1]``.

    ``S = X·Xᵀ`` (the 10 row·row products of the padded 4x4 rows,
    mirrored) is positive semidefinite with largest eigenvalue ``‖X‖₂²``,
    which its largest absolute row sum ``m`` bounds.  An involution has
    ``S = 1`` and passes with room to spare.  Each product and row sum is
    one straight-line expression in the order ``sum`` adds, so it has the
    bits of ``abs(sum(map(mul, X[i], X[j])))`` up to the sign of a zero,
    which the absolute value drops; the padding adds zero rows, whose sums
    pass, and zero terms (:func:`_padded`).

    The threshold is ``1 + _SPECTRUM_TOL`` on ``m``, a squared norm, so a
    pass gives ``|λ| ≤ sqrt(1 + 1e-10) < 1 + 5e-11`` for every eigenvalue,
    4.9e-11 below the counts' ``bound = 1 + 1e-10``.  The counts factor
    ``±X - bound·1`` reading each off-diagonal pair from either triangle,
    so the ``_SYMMETRY_TOL = 1e-12`` asymmetry the symmetry check allows
    moves the eigenvalues they see by a few 1e-12, and their round-off by
    about 1e-14: both counts would return 0, and they are skipped.
    ``bound²`` as the threshold would let ``|λ|`` reach ``bound`` and leave
    no room for either error.  A row sum that is NaN fails the screen.
    """
    (x00, x01, x02, x03), (x10, x11, x12, x13), \
        (x20, x21, x22, x23), (x30, x31, x32, x33) = X
    s10 = abs(x10 * x00 + x11 * x01 + x12 * x02 + x13 * x03)
    s20 = abs(x20 * x00 + x21 * x01 + x22 * x02 + x23 * x03)
    s21 = abs(x20 * x10 + x21 * x11 + x22 * x12 + x23 * x13)
    s30 = abs(x30 * x00 + x31 * x01 + x32 * x02 + x33 * x03)
    s31 = abs(x30 * x10 + x31 * x11 + x32 * x12 + x33 * x13)
    s32 = abs(x30 * x20 + x31 * x21 + x32 * x22 + x33 * x23)
    # a sum of squares is never negative, nor -0.0, and needs no abs
    s00 = x00 * x00 + x01 * x01 + x02 * x02 + x03 * x03
    s11 = x10 * x10 + x11 * x11 + x12 * x12 + x13 * x13
    s22 = x20 * x20 + x21 * x21 + x22 * x22 + x23 * x23
    s33 = x30 * x30 + x31 * x31 + x32 * x32 + x33 * x33
    return (s00 + s10 + s20 + s30 <= _SPECTRUM_BOUND
            and s10 + s11 + s21 + s31 <= _SPECTRUM_BOUND
            and s20 + s21 + s22 + s32 <= _SPECTRUM_BOUND
            and s30 + s31 + s32 + s33 <= _SPECTRUM_BOUND)


def _product(A, B) -> tuple[float, ...]:
    """The 16 entries of ``A·B`` for padded 4x4 rows, row-major, each the
    bits of ``sum(map(mul, A[i], column j of B))`` up to the sign of a
    zero."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), \
        (a20, a21, a22, a23), (a30, a31, a32, a33) = A
    (b00, b01, b02, b03), (b10, b11, b12, b13), \
        (b20, b21, b22, b23), (b30, b31, b32, b33) = B
    return (a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30,
            a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31,
            a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32,
            a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33,
            a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30,
            a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31,
            a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32,
            a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33,
            a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30,
            a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31,
            a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32,
            a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33,
            a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30,
            a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31,
            a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32,
            a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33)


def _checked_rows(m: QuantumModel):
    """The validated fields as row tuples, numpy arrays converted.

    Each observable is checked for symmetry, skipped when it equals its
    transpose exactly, and then for a spectrum in ``[-1, 1]``: by
    :func:`_norm_screen` when that settles it, as it does for involutions,
    and otherwise by two inertia counts (:func:`boundary._count_above`)
    above ``1 + _SPECTRUM_TOL`` for ``X`` and ``-X``.  The screen and the
    commutators run on the fields zero-padded to ``d = 4`` (:func:`_padded`)
    as straight-line sums, the counts on the rows as given.
    """
    d = m.d
    try:
        psi = tuple(m.psi.tolist()) if hasattr(m.psi, "tolist") else m.psi
        obs = tuple(tuple(map(tuple, X.tolist())) if hasattr(X, "tolist")
                    else X for X in m.observables())
        for name, X in zip(_OBSERVABLES, obs):
            if len(X) != d or any(len(row) != d for row in X):
                raise InvalidModel(f"{name} is not {d}x{d}")
        finite = all(map(math.isfinite, chain(psi, *chain(*obs))))
    except TypeError:  # an entry that is not a number, or rows of rows
        raise InvalidModel(_NOT_NUMBERS) from None
    if not finite:
        raise InvalidModel("model entries must be finite")
    norm = math.hypot(*psi)
    if abs(norm - 1.0) > _PSI_NORM_TOL:
        raise InvalidModel(f"|psi| = {norm!r} not normalized")
    cols = [tuple(zip(*X)) for X in obs]
    exact = [X == XT for X, XT in zip(obs, cols)]
    padded = _padded(psi, obs)[1]
    for name, X, XT, symmetric, X4 in zip(_OBSERVABLES, obs, cols, exact,
                                          padded):
        if not symmetric and max(map(abs, map(
                sub, chain(*X), chain(*XT)))) > _SYMMETRY_TOL:
            raise InvalidModel(f"{name} not symmetric")
        if _norm_screen(X4):
            continue
        if _count_above(X, _SPECTRUM_BOUND):
            raise InvalidModel(
                f"{name} spectrum leaves [-1, 1]: an eigenvalue above 1")
        if _count_above([[-x for x in row] for row in X], _SPECTRUM_BOUND):
            raise InvalidModel(
                f"{name} spectrum leaves [-1, 1]: an eigenvalue below -1")
    for A, a_exact in zip(padded[:2], exact[:2]):
        for B, b_exact in zip(padded[2:], exact[2:]):
            AB = _product(A, B)
            if a_exact and b_exact:
                # exactly symmetric A and B give (B·A)_ij = (A·B)_ji to
                # the last bit (the same products, summed in the same
                # order), but for the sign of a zero, which abs drops: the
                # commutator is antisymmetric with a zero diagonal, and its
                # entries below the diagonal, in order, are those of the
                # full products
                worst = max(abs(AB[4] - AB[1]), abs(AB[8] - AB[2]),
                            abs(AB[9] - AB[6]), abs(AB[12] - AB[3]),
                            abs(AB[13] - AB[7]), abs(AB[14] - AB[11]))
            else:
                worst = max(map(abs, map(sub, AB, _product(B, A))))
            if worst > _COMMUTATOR_TOL:
                raise InvalidModel(f"commutator norm {worst!r}")
    return psi, obs


def _correlations_rows(psi, obs) -> list[float]:
    """``<psi| A_i B_j psi>`` for padded 4-rows, with the bits of
    ``_dot(psi, _matvec(A_i, _matvec(B_j, psi)))``.

    Only the outer sum starts, as ``sum`` does, at the integer 0: +0.0
    for float entries, and integer entries keep integer sums.  An inner
    sum without that start can differ only in the sign of a zero, which
    reaches the outer sum as the sign of a zero term, and a sum that
    starts at +0.0 ignores that.
    """
    p0, p1, p2, p3 = psi
    A1, A2, B1, B2 = obs
    vs = []
    for (b00, b01, b02, b03), (b10, b11, b12, b13), \
            (b20, b21, b22, b23), (b30, b31, b32, b33) in (B1, B2):
        vs.append((b00 * p0 + b01 * p1 + b02 * p2 + b03 * p3,
                   b10 * p0 + b11 * p1 + b12 * p2 + b13 * p3,
                   b20 * p0 + b21 * p1 + b22 * p2 + b23 * p3,
                   b30 * p0 + b31 * p1 + b32 * p2 + b33 * p3))
    out = []
    for (a00, a01, a02, a03), (a10, a11, a12, a13), \
            (a20, a21, a22, a23), (a30, a31, a32, a33) in (A1, A2):
        for v0, v1, v2, v3 in vs:
            out.append(0 + p0 * (a00 * v0 + a01 * v1 + a02 * v2 + a03 * v3)
                       + p1 * (a10 * v0 + a11 * v1 + a12 * v2 + a13 * v3)
                       + p2 * (a20 * v0 + a21 * v1 + a22 * v2 + a23 * v3)
                       + p3 * (a30 * v0 + a31 * v1 + a32 * v2 + a33 * v3))
    return out


def _hestenes(vectors) -> tuple[list[list[float]], list[list[float]]]:
    """One-sided (Hestenes) Jacobi orthogonalization.

    Rotates the vectors ``x_i`` pairwise into ``y_k = Σ_i V_ik x_i`` with
    ``V`` orthogonal until every pair is orthogonal to working precision,
    and returns the ``y_k`` and the columns of ``V``.  For the matrix
    ``X`` with columns ``x_i`` this is the SVD ``X = Σ_k |y_k| u_k v_kᵀ``
    with ``u_k = y_k/|y_k|`` and ``v_k`` the ``k``-th column of ``V``; for
    the matrix with rows ``x_i`` the columns of ``V`` are its left singular
    vectors.  Small singular values keep an absolute accuracy of about
    ``eps·|X|``, which a Gram matrix ``X·Xᵀ`` would square away.
    """
    n = len(vectors)
    ys = [list(x) for x in vectors]
    vs = [[float(i == k) for i in range(n)] for k in range(n)]
    tol = len(ys[0]) * _EPS
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                x, y = ys[p], ys[q]
                alpha, beta, gamma = _dot(x, x), _dot(y, y), _dot(x, y)
                if abs(gamma) <= tol * math.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                 + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                for pair in (ys, vs):
                    x, y = pair[p], pair[q]
                    pair[p] = [c * a - s * b for a, b in zip(x, y)]
                    pair[q] = [s * a + c * b for a, b in zip(x, y)]
                rotated = True
        if not rotated:
            return ys, vs
    raise ConsistencyError(
        f"Jacobi SVD did not converge in {_JACOBI_SWEEPS} sweeps")


def _selftest_rows(psi, obs, d: int) -> SelfTestReport:
    A1, A2, B1, B2 = obs
    # the cyclic basis: left singular vectors of the d x 85 word stack
    vectors = [psi]
    frontier = [psi]
    for _ in range(3):
        frontier = [_matvec(X, v) for X in obs for v in frontier]
        vectors.extend(frontier)
    rows, vs = _hestenes(list(zip(*vectors)))
    sigma = [math.hypot(*row) for row in rows]
    cut = 1e-10 * max(1.0, max(sigma))
    basis = [v for v, sk in zip(vs, sigma) if sk > cut]
    r = len(basis)

    def restrict(X):
        xb = [_matvec(X, b) for b in basis]
        return [[_dot(bk, v) for v in xb] for bk in basis]

    # minimum-norm least squares with numpy lstsq's singular value cut
    a_vecs = (_matvec(A1, psi), _matvec(A2, psi))
    ws, v_cols = _hestenes(a_vecs)
    sigma = [math.hypot(*w) for w in ws]
    cut = max(d, 2) * _EPS * max(sigma)
    gamma = []
    residual_bpsi = 0.0
    for B in (B1, B2):
        target = _matvec(B, psi)
        coeff = (0.0, 0.0)
        for w, v, sk in zip(ws, v_cols, sigma):
            if sk > cut:
                scale = _dot(w, target) / (sk * sk)
                coeff = (coeff[0] + scale * v[0], coeff[1] + scale * v[1])
        gamma.append(coeff)
        residual_bpsi = max(residual_bpsi, math.hypot(*(
            b - (a1 * coeff[0] + a2 * coeff[1])
            for b, a1, a2 in zip(target, *a_vecs))))

    residual_squares = max(
        _max_abs(restrict(_minus_identity(_matmul(X, X), 1.0))) for X in obs)

    u_value = _dot(psi, _matvec(A1, _matvec(A2, psi)))
    A1A2, A2A1 = _matmul(A1, A2), _matmul(A2, A1)
    jordan = _minus_identity(
        tuple(tuple(x + y for x, y in zip(r12, r21))
              for r12, r21 in zip(A1A2, A2A1)), 2.0 * u_value)
    residual_anticommutator = _max_abs(restrict(jordan))

    words = (_identity(d), A1, A2, _matmul(A1, A1), A1A2, A2A1,
             _matmul(A2, A2))
    residual_tracial = max(
        abs(_dot(psi, _matvec(M, psi))
            - sum(_dot(b, _matvec(M, b)) for b in basis) / r)
        for M in words)

    return SelfTestReport(gamma=tuple(gamma), residual_bpsi=residual_bpsi,
                          residual_squares=residual_squares,
                          residual_anticommutator=residual_anticommutator,
                          residual_tracial=residual_tracial,
                          u_value=u_value)


# ---------------------------------------------------------------------------
# The array route: numpy, d > 4
# ---------------------------------------------------------------------------

def _checked_arrays(m: QuantumModel):
    """The validated fields as numpy arrays."""
    import numpy as np
    d = m.d
    psi = np.asarray(m.psi, dtype=float)
    obs = tuple(np.asarray(X, dtype=float) for X in m.observables())
    if psi.shape != (d,):
        raise InvalidModel(f"psi shape {psi.shape} != ({d},)")
    if not all(np.isfinite(x).all() for x in (psi, *obs)):
        raise InvalidModel("model entries must be finite")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > _PSI_NORM_TOL:
        raise InvalidModel(f"|psi| = {norm!r} not normalized")
    for name, X in zip(_OBSERVABLES, obs):
        if X.shape != (d, d):
            raise InvalidModel(f"{name} shape {X.shape}")
        if np.abs(X - X.T).max() > _SYMMETRY_TOL:
            raise InvalidModel(f"{name} not symmetric")
        lo, hi = np.linalg.eigvalsh(X)[[0, -1]].tolist()
        if lo < -1.0 - _SPECTRUM_TOL or hi > 1.0 + _SPECTRUM_TOL:
            raise InvalidModel(
                f"{name} spectrum [{lo!r}, {hi!r}] leaves [-1, 1]")
    for A in obs[:2]:
        for B in obs[2:]:
            worst = float(np.abs(A @ B - B @ A).max())
            if worst > _COMMUTATOR_TOL:
                raise InvalidModel(f"commutator norm {worst!r}")
    return psi, obs


def _correlations_arrays(psi, obs) -> list[float]:
    A1, A2, B1, B2 = obs
    return [float(psi @ (A @ (B @ psi))) for A in (A1, A2) for B in (B1, B2)]


def _cyclic_basis(psi, obs) -> np.ndarray:
    """Orthonormal basis of the span of words of length <= 3 applied to psi."""
    import numpy as np
    vectors = [psi]
    frontier = [psi]
    for _ in range(3):
        frontier = [X @ v for X in obs for v in frontier]
        vectors.extend(frontier)
    stack = np.array(vectors).T  # d x n_words
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    keep = s > 1e-10 * max(1.0, float(s[0]))
    return u[:, keep]


def _selftest_arrays(psi, obs, d: int) -> SelfTestReport:
    import numpy as np
    A1, A2, B1, B2 = obs
    basis = _cyclic_basis(psi, obs)
    r = basis.shape[1]

    def restrict(X: np.ndarray) -> np.ndarray:
        return basis.T @ X @ basis

    a_vecs = np.stack([A1 @ psi, A2 @ psi], axis=1)  # d x 2
    gamma = np.zeros((2, 2))
    residual_bpsi = 0.0
    for j, B in enumerate((B1, B2)):
        target = B @ psi
        coeff, *_ = np.linalg.lstsq(a_vecs, target, rcond=None)
        gamma[j, :] = coeff
        residual_bpsi = max(residual_bpsi,
                            float(np.linalg.norm(target - a_vecs @ coeff)))

    eye = np.eye(d)
    residual_squares = max(
        float(np.abs(restrict(X @ X - eye)).max()) for X in obs)

    u_value = float(psi @ (A1 @ (A2 @ psi)))
    jordan = A1 @ A2 + A2 @ A1 - 2.0 * u_value * eye
    residual_anticommutator = float(np.abs(restrict(jordan)).max())

    words = (eye, A1, A2, A1 @ A1, A1 @ A2, A2 @ A1, A2 @ A2)
    residual_tracial = max(
        abs(float(psi @ (M @ psi)) - float(np.trace(restrict(M))) / r)
        for M in words)

    return SelfTestReport(gamma=tuple(map(tuple, gamma.tolist())),
                          residual_bpsi=residual_bpsi,
                          residual_squares=residual_squares,
                          residual_anticommutator=residual_anticommutator,
                          residual_tracial=residual_tracial,
                          u_value=u_value)


# ---------------------------------------------------------------------------
# Constructive realization of arbitrary Gram systems
# ---------------------------------------------------------------------------

def _clifford_generators(r: int) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """``r`` anticommuting real symmetric involutions on R^(2^(r-1)), as
    rows: ``(1)`` for ``r = 1``, then ``sigma1 ⊗ g`` for each earlier
    generator ``g`` and ``sigma3 ⊗ 1``.  No entry is nonzero in two
    generators, so their linear combinations are exact."""
    if r == 1:
        return (((1.0,),),)
    earlier = _clifford_generators(r - 1)
    return tuple(_kron(_SIGMA1, g) for g in earlier) \
        + (_kron(_SIGMA3, _identity(len(earlier[0]))),)


def clifford_model(gs: GramSystem) -> QuantumModel:
    """Realize ``c_ij = a_i·b_j`` by contracting anticommuting generators.

    With the ``r`` generators ``γ_k`` on R^n, Alice's observables are
    ``(Σ_k a_i^k γ_k) ⊗ 1`` and Bob's ``1 ⊗ (Σ_k b_j^k γ_k)`` on R^n ⊗ R^n,
    ``d = 4^(r-1)``, with ``psi = Σ_m e_m ⊗ e_m / sqrt(n)``, for which
    ``<psi| X ⊗ Y psi> = tr(XY)/n = a_i·b_j``.  Unit vectors make each
    observable an involution, so the hypotheses hold by construction.
    """
    if gs.r > 4:
        raise DimensionTooLarge(f"Gram vectors live in R^{gs.r}, maximum is 4")
    generators = _clifford_generators(gs.r)
    n = len(generators[0])
    eye = _identity(n)

    def contract(vec) -> tuple[tuple[float, ...], ...]:
        vec = tuple(map(float, vec))
        return tuple(tuple(_dot(vec, entries) for entries in zip(*rows))
                     for rows in zip(*generators))

    A1, A2 = (_kron(contract(a), eye) for a in (gs.a1, gs.a2))
    B1, B2 = (_kron(eye, contract(b)) for b in (gs.b1, gs.b2))
    psi = tuple(x / math.sqrt(n) for row in eye for x in row)
    return QuantumModel(psi=psi, A1=A1, A2=A2, B1=B1, B2=B2)


def mixture_model(models: Sequence[tuple[float, QuantumModel]]) -> QuantumModel:
    """Block direct sum realizing the weighted mixture of correlations."""
    import numpy as np
    if not models:
        raise BadWeights("empty mixture")
    weights = [w for w, _ in models]
    if min(weights) <= 0.0:
        raise BadWeights(f"weights must be positive, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise BadWeights(f"weights sum to {sum(weights)!r}, expected 1")

    d = sum(m.d for _, m in models)
    psi = np.concatenate([math.sqrt(w) * np.asarray(m.psi, dtype=float)
                          for w, m in models])

    def direct_sum(mats) -> np.ndarray:
        out = np.zeros((d, d))
        pos = 0
        for mat in mats:
            mat = np.asarray(mat, dtype=float)
            n = mat.shape[0]
            out[pos:pos + n, pos:pos + n] = mat
            pos += n
        return out

    return QuantumModel(psi=psi, **{
        name: direct_sum([getattr(m, name) for _, m in models])
        for name in _OBSERVABLES})
