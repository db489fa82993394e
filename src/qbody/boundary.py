"""Boundary strata, matrix completion, and the angle parametrization.

The unit-diagonal symmetric completion of a correlation point ``c`` is

        [ 1    u    c11  c12 ]
    C = [ u    1    c21  c22 ]
        [ c11  c21  1    v   ]
        [ c12  c22  v    1   ]

``c ∈ Q`` iff some real ``(u, v)`` makes ``C`` positive semidefinite.
Eliminating ``v`` leaves two concave parabolas in ``u``,

    m123(u) = b1 - (u - a1)²,   a1 = c11·c21,  b1 = (1-c11²)(1-c21²)
    m124(u) = b2 - (u - a2)²,   a2 = c12·c22,  b2 = (1-c12²)(1-c22²)

whose nonnegativity intervals must intersect; the intersection is nonempty
iff ``g(c) ≥ 0`` or ``h(c) ≥ 0``, which ties the solver to the
semialgebraic description.  Each interval is automatically contained in
``[-1, 1]``.  Once ``u`` is fixed, the determinant of ``C`` is maximized at

    v* = (c11·c12 + c21·c22 - (c11·c22 + c12·c21)·u) / (1 - u²)

and ``max_v det C = m123·m124 / (1 - u²)``.  The completion is unique
exactly on the boundary of ``Q``; there the rank of ``C`` identifies the
stratum:

    stratum   Q1  Q2  Q3  Q4  Q5        (Q6 = interior)
    rank C     1   2   2   2   3        (Q6 admits rank 4)

Extreme strata are parametrized by angle tuples ``(alpha, beta, gamma,
delta)`` with sum ≡ 0 (mod 2π) via ``c = (cos alpha, ..., cos delta)``.
With ``Delta = sin(alpha)·sin(beta)·sin(gamma)·sin(delta)``:

* ``Delta < 0``   exposed extreme points (Q4), where ``g(c) = 2·Delta``,
* ``Delta = 0``   lower strata by the count of angles that are multiples
  of π (four: Q1 vertices, two: Q2 edges, one: Q3 non-exposed extreme
  points),
* ``Delta > 0``   interior points.

A Q4 point is exposed by the unique functional

    f = (1/K) · (1/sin alpha, ..., 1/sin delta),
    K = cot alpha + cot beta + cot gamma + cot delta,

which satisfies ``f·c = 1`` and ``f·c' < 1`` elsewhere on ``Q``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

from .core import (
    DEFAULT_TOLERANCE,
    AmbiguousClassification,
    AngleSumViolation,
    ConsistencyError,
    Correlation,
    DegenerateAngles,
    Functional,
    NotExtreme,
    NotPSD,
    Tolerance,
    _Floats,
    _check_finite,
)
from .membership import (_completion_slack, _entry_interval,
                         _inverse_pushout, _max_abs, _odd_max, _unit_gaps)

__all__ = [
    "AngleTuple",
    "Completion",
    "CompletionResult",
    "Stratum",
    "GramSystem",
    "RANK_BY_STRATUM",
    "ExtremePoint",
    "solve_completion",
    "classify",
    "extreme_from_angles",
    "angles_from_point",
    "exposing_functional",
    "gram_vectors",
]

TWO_PI = 2.0 * math.pi

# An interval narrower than this counts as a single point when deciding
# completion uniqueness (exact boundary points give widths at roundoff
# scale; interior points at macroscopic depth give widths of that order).
_UNIQUE_WIDTH = 1e-8


def _wrap_angle(x: float, eps: float) -> float:
    """Reduce to the representative in (-pi, pi], identifying -pi with pi.

    Values already in range pass through unchanged so that canonical forms
    are exact fixed points.
    """
    if -math.pi < x <= math.pi:
        y = x
    else:
        y = math.fmod(x + math.pi, TWO_PI)
        if y <= 0.0:
            y += TWO_PI
        y -= math.pi
    if y < -math.pi + eps:
        y += TWO_PI
    return y


def _sum_residual(total: float) -> float:
    """Distance from the nearest multiple of 2π."""
    return abs(math.remainder(total, TWO_PI))


@dataclass(frozen=True)
class AngleTuple:
    """Angles ``(alpha, beta, gamma, delta)`` with sum ≡ 0 mod 2π.

    Construction validates the sum constraint at ``eps``, the default
    angle tolerance unless given; ``eps`` takes no part in equality.
    :meth:`canonical` returns the representative with every angle in
    ``(-pi, pi]`` and the overall-negation ambiguity of the cosine
    parametrization resolved (``alpha ∈ [0, pi]``), decided and validated
    at the tuple's own ``eps``, which the angle functions read as well.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    eps: float = field(default=DEFAULT_TOLERANCE.eps_angle, compare=False,
                       repr=False)

    def __post_init__(self) -> None:
        _check_finite(type(self).__name__, self.as_tuple())
        res = _sum_residual(self.alpha + self.beta + self.gamma + self.delta)
        if res > self.eps:
            raise AngleSumViolation(
                f"angle sum residual {res:.3e} exceeds tolerance")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta)

    def __iter__(self):
        return iter(self.as_tuple())

    def sines(self) -> tuple[float, float, float, float]:
        return tuple(math.sin(t) for t in self.as_tuple())

    def delta_product(self) -> float:
        """The sign marker ``Delta``, the product of the four sines."""
        s = self.sines()
        return s[0] * s[1] * s[2] * s[3]

    def cosines(self) -> Correlation:
        return Correlation(*(math.cos(t) for t in self.as_tuple()))

    def canonical(self) -> "AngleTuple":
        eps = self.eps
        vals = [_wrap_angle(t, eps) for t in self.as_tuple()]
        flip = False
        if vals[0] < -eps:
            flip = True
        elif abs(math.sin(vals[0])) <= eps:
            # alpha is 0 or pi; let the first rotating angle decide the sign
            for t in vals[1:]:
                if abs(math.sin(t)) > eps:
                    flip = t < 0.0
                    break
        if flip:
            vals = [_wrap_angle(-t, eps) for t in vals]
        return AngleTuple(*vals, eps=eps)


class Stratum(enum.Enum):
    Q1 = "Q1"          # 8 classical exposed vertices
    Q2 = "Q2"          # 24 exposed open edges
    Q3 = "Q3"          # 32 surfaces of non-exposed extreme points
    Q4 = "Q4"          # 8 threefolds of exposed extreme points
    Q5 = "Q5"          # 8 open facet elliptopes
    Q6 = "Q6"          # interior
    EXTERIOR = "EXTERIOR"


RANK_BY_STRATUM = {
    Stratum.Q1: 1,
    Stratum.Q2: 2,
    Stratum.Q3: 2,
    Stratum.Q4: 2,
    Stratum.Q5: 3,
}


def _psd_threshold(rows, tol: Tolerance) -> float:
    """Eigenvalue threshold for semidefiniteness and numerical rank:
    ``tol.eps_psd`` relative to the largest entry, or to 1 if larger."""
    return tol.eps_psd * max(1.0, max(abs(x) for row in rows for x in row))


# Bunch–Parlett's pivot ratio; it bounds the growth of the entries that
# the elimination below produces.
_BP_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0
_SAFE = 2.0 ** 500


def _count_above(rows, shift: float) -> int:
    """The number of eigenvalues of the symmetric matrix ``rows`` above
    ``shift``, counted without computing them.

    By Sylvester's law of inertia, ``A = M - shift·I`` has as many positive
    eigenvalues as the block diagonal ``D`` of its factorization
    ``A = L·D·Lᵀ``.  Bunch–Parlett complete pivoting eliminates the largest
    diagonal entry (a 1x1 pivot, counted if positive) when it is at least
    ``_BP_ALPHA`` times the largest off-diagonal entry, and otherwise the
    2x2 block of that off-diagonal entry, whose determinant is then
    negative: it holds one eigenvalue of each sign.  A block whose largest
    entry leaves ``[1/_SAFE, _SAFE]`` is first scaled by the power of two
    that puts it in ``[0.5, 1)``, as ``duality._normalized`` does.  The
    scaling is exact and keeps the inertia; inside that range no update
    overflows and no pivot or 2x2 determinant underflows.
    """
    a = [list(row) for row in rows]
    for i, row in enumerate(a):
        row[i] -= shift
    live = list(range(len(a)))
    above = 0
    while live:
        diag = off = 0.0
        p = q = r = live[0]
        rest = live  # the live indices after i
        for i in live:
            row = a[i]
            x = abs(row[i])
            if x > diag:
                diag, p = x, i
            rest = rest[1:]
            for j in rest:
                x = abs(row[j])
                if x > off:
                    off, q, r = x, i, j
        big = diag if diag > off else off
        if big == 0.0:
            break  # the rest is a zero block, whose eigenvalues are 0
        if not 1.0 / _SAFE <= big <= _SAFE:
            e = math.frexp(big)[1]
            for i in live:
                row = a[i]
                for j in live:
                    row[j] = math.ldexp(row[j], -e)
        # each step leaves the Schur complement, kept exactly symmetric;
        # ``rest`` runs over the live indices from i on
        if diag >= _BP_ALPHA * off:
            prow = a[p]
            d = prow[p]
            if d > 0.0:
                above += 1
            live.remove(p)
            rest = live
            for i in live:
                row = a[i]
                x = row[p] / d
                for j in rest:
                    row[j] = a[j][i] = row[j] - x * prow[j]
                rest = rest[1:]
        else:
            above += 1
            live.remove(q)
            live.remove(r)
            qrow, rrow = a[q], a[r]
            aqq, aqr, arr = qrow[q], qrow[r], rrow[r]
            det = aqq * arr - aqr * aqr
            rest = live
            for i in live:
                row = a[i]
                # (wq, wr) = E⁻¹·(a_qi, a_ri) for the pivot block E
                wq = (arr * row[q] - aqr * row[r]) / det
                wr = (aqq * row[r] - aqr * row[q]) / det
                for j in rest:
                    row[j] = a[j][i] = row[j] - (wq * qrow[j] + wr * rrow[j])
                rest = rest[1:]
    return above


class _Certificate:
    """PSD test and numerical rank shared by the primal and dual completion
    certificates, which give their entries as :meth:`rows`."""

    def is_psd(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        """Whether no eigenvalue lies below ``-_psd_threshold``
        (``tol.eps_psd`` relative to the largest entry, or to 1), that is
        whether ``-M`` has no eigenvalue above it (:func:`_count_above`).
        """
        rows = self.rows()
        return _count_above([[-x for x in row] for row in rows],
                            _psd_threshold(rows, tol)) == 0

    def rank(self, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
        """Numerical rank: the number of eigenvalues above
        ``_psd_threshold``, counted by inertia (:func:`_count_above`)."""
        rows = self.rows()
        return _count_above(rows, _psd_threshold(rows, tol))


@dataclass(frozen=True)
class Completion(_Certificate):
    """A candidate completion ``(u, v)`` of the 4x4 certificate matrix."""

    c: Correlation
    u: float
    v: float

    def rows(self) -> tuple[tuple[float, ...], ...]:
        c11, c12, c21, c22 = self.c.as_tuple()
        u, v = self.u, self.v
        return ((1.0, u, c11, c12),
                (u, 1.0, c21, c22),
                (c11, c21, 1.0, v),
                (c12, c22, v, 1.0))


@dataclass(frozen=True)
class CompletionResult:
    feasible: bool
    witness: Completion
    unique: bool
    tol: Tolerance

    @functools.cached_property
    def rank(self) -> int:
        """The witness's numerical rank (:meth:`_Certificate.rank`)."""
        return self.witness.rank(self.tol)


def solve_completion(c: Correlation,
                     tol: Tolerance = DEFAULT_TOLERANCE) -> CompletionResult:
    """Solve the unit-diagonal completion problem for ``c``.

    Feasible means the two-parabola slack, the ``COMPLETION`` margin, is at
    least ``-tol.eps_boundary``; ``feasible=False`` is a result, not an
    error.  The reported witness takes ``u`` at the midpoint of the
    feasible interval and ``v`` from the closed-form determinant maximizer
    (falling back to the ``v``-interval midpoint when ``|u| = 1`` makes the
    formula singular).  ``unique`` records whether both intervals
    degenerate to points, which happens exactly on the boundary of ``Q``.
    ``rank`` is the numerical rank of the witness at the relative
    eigenvalue threshold ``tol.eps_psd``.  Its inertia count runs when
    ``rank`` is first read, so callers that need only feasibility do no
    linear algebra.
    """
    c11, c12, c21, c22 = c.as_tuple()
    eps = tol.eps_boundary

    gaps = g11, g12, g21, g22 = _unit_gaps(c11, c12, c21, c22)
    lu, ru = _entry_interval(c11, c12, c21, c22, _Floats, gaps)
    lv, rv = _entry_interval(c11, c21, c12, c22, _Floats,
                             (g11, g21, g12, g22))

    feasible = _completion_slack(gaps, lu, ru, _Floats) >= -eps

    u = min(1.0, max(-1.0, 0.5 * (lu + ru)))
    if 1.0 - u * u > 1e-12:
        v = (c11 * c12 + c21 * c22 - (c11 * c22 + c12 * c21) * u) \
            / (1.0 - u * u)
        v = min(max(v, min(lv, rv)), max(lv, rv))
    else:
        v = min(1.0, max(-1.0, 0.5 * (lv + rv)))
    witness = Completion(c=c, u=u, v=v)

    unique = feasible and (ru - lu) <= _UNIQUE_WIDTH \
        and (rv - lv) <= _UNIQUE_WIDTH

    return CompletionResult(feasible=feasible, witness=witness, unique=unique,
                            tol=tol)


# ---------------------------------------------------------------------------
# Stratum classification
# ---------------------------------------------------------------------------

# The faces of ``CL`` by index ``2·min(cube, 3) + chsh``, then EXTERIOR.
_FACES = (Stratum.Q6, Stratum.Q4, Stratum.Q5, Stratum.Q3,
          Stratum.Q2, Stratum.Q2, Stratum.Q1, Stratum.Q1, Stratum.EXTERIOR)


def _face(a, b, c, d, eps, xp):
    """The ``_FACES`` index of the face of ``CL`` that holds the inverse
    pushout ``x = (2/π)·asin(c)``, with ``eps`` a slack in ``x``: EXTERIOR
    if ``|c_ij| > 1 + eps`` or an odd half of ``x`` exceeds ``1 + eps``,
    else by the count of cube-active ``|x_ij| ≥ 1 - eps`` and whether an
    odd half (a CHSH face) is at least ``1 - eps``.  A column kernel (see
    :mod:`qbody.core`).
    """
    x = [_inverse_pushout(v, xp) for v in (a, b, c, d)]
    odd = _odd_max(*x, xp)
    cube = sum(abs(v) >= 1.0 - eps for v in x)
    face = 2 * xp.minimum(cube, 3) + (odd >= 1.0 - eps)
    outside = (_max_abs(a, b, c, d, xp) > 1.0 + eps) | (odd > 1.0 + eps)
    return xp.maximum(face, 8 * outside)


def classify(c: Correlation, tol: Tolerance = DEFAULT_TOLERANCE) -> Stratum:
    """Assign ``c`` to a stratum Q1..Q6 or EXTERIOR.

    The stratum is the face of the cross polytope ``CL`` that holds the
    inverse pushout (:func:`_face` at ``eps = tol.eps_boundary``): three
    or four cube-active coordinates give Q1, two Q2, one Q3 with a CHSH
    face and Q5 without, none Q4 with a CHSH face and Q6 without.

    Float floor: near ``|c| = 1``, ``x`` resolves only to about
    ``(2/π)·sqrt(2·(1 - |c|))``, 9.5e-9 for ``1 - 2⁻⁵³``.  So at the
    default band only ``|c_ij| ≥ 1`` is cube-active, and ``eps = 1e-8``
    also takes the float below 1.

    A boundary face is always checked against the completion rank table,
    and a mismatch raises :class:`AmbiguousClassification`.  That is the
    exception set: faces inside the band that the completion, feasible at
    ``eps_boundary`` in its own slack and ranked at ``eps_psd``, reads
    otherwise, such as an entry 1e-12 from ±1 on an open facet (rank 2
    where Q5 asks for 3).
    """
    stratum = _FACES[_face(*c.as_tuple(), tol.eps_boundary, _Floats)]
    expected = RANK_BY_STRATUM.get(stratum)
    if expected is not None:
        comp = solve_completion(c, tol)
        if not comp.feasible or comp.rank != expected or not comp.unique:
            raise AmbiguousClassification(
                f"stratum {stratum.value} expects a unique rank-{expected} "
                f"completion, got feasible={comp.feasible} rank={comp.rank} "
                f"unique={comp.unique}")
    return stratum


# ---------------------------------------------------------------------------
# Angle parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremePoint:
    c: Correlation
    stratum: Stratum


def extreme_from_angles(t: AngleTuple) -> ExtremePoint:
    """Map an angle tuple to its correlation point and stratum.

    The stratum follows the sign of the sine product: negative gives an
    exposed extreme point (Q4), positive an interior point (Q6), and zero
    the lower strata by the number of angles that are multiples of π.
    "Zero" and "multiple" are judged at the tuple's own ``t.eps``, the
    tolerance its sum was validated at.
    """
    eps = t.eps
    point = t.cosines()
    sines = t.sines()
    delta = t.delta_product()
    if delta < -eps:
        stratum = Stratum.Q4
    elif delta > eps:
        stratum = Stratum.Q6
    else:
        multiples = sum(1 for s in sines if abs(s) <= eps)
        if multiples >= 3:
            # the sum constraint forces the fourth to be a multiple as well
            stratum = Stratum.Q1
        elif multiples == 2:
            stratum = Stratum.Q2
        elif multiples == 1:
            stratum = Stratum.Q3
        else:
            stratum = Stratum.Q4 if delta < 0.0 else Stratum.Q6
    return ExtremePoint(c=point, stratum=stratum)


def angles_from_point(c: Correlation,
                      tol: Tolerance = DEFAULT_TOLERANCE) -> AngleTuple:
    """Recover the canonical angle tuple of an extreme-stratum point.

    Searches the sign patterns of coordinatewise arccos, up to overall
    negation, for one meeting the sum constraint at ``tol.eps_angle``, the
    tuple's ``eps``.  Raises :class:`NotExtreme` when none does (facet
    interiors, interior points, and exterior points admit no cosine
    parametrization).  Accuracy degrades like ``1/|sin|`` next to the
    strata where a coordinate saturates.
    """
    values = c.as_tuple()
    if max(abs(v) for v in values) > 1.0 + tol.eps_boundary:
        raise NotExtreme("point outside the cube")
    base = [math.acos(min(1.0, max(-1.0, v))) for v in values]

    best: tuple[float, tuple[int, ...]] | None = None
    # masks m and 15 - m negate the total, and tie as math.remainder is
    # odd; the strict < keeps the lower one, so masks 8..15 never win
    for mask in range(8):
        signs = tuple(-1 if (mask >> j) & 1 else 1 for j in range(4))
        total = sum(s * b for s, b in zip(signs, base))
        res = _sum_residual(total)
        if best is None or res < best[0]:
            best = (res, signs)
    res, signs = best
    if res > tol.eps_angle:
        raise NotExtreme(
            f"no arccos sign pattern meets the sum constraint "
            f"(best residual {res:.3e})")
    raw = [s * b for s, b in zip(signs, base)]
    # absorb the residual so the constructed tuple passes validation exactly
    total = sum(raw)
    shift = TWO_PI * round(total / TWO_PI)
    raw[3] -= total - shift
    return AngleTuple(*raw, eps=tol.eps_angle).canonical()


def exposing_functional(t: AngleTuple) -> Functional:
    """The unique functional with ``f·c = 1`` exactly at the Q4 point of ``t``.

    Requires a strictly exposed point at the tuple's own ``t.eps``: every
    sine and the cotangent sum ``K`` at least ``t.eps`` in size and the
    sine product below ``-t.eps``, otherwise :class:`DegenerateAngles`.
    """
    eps = t.eps
    sines = t.sines()
    if min(abs(s) for s in sines) < eps:
        raise DegenerateAngles("a sine vanishes; the functional is unbounded")
    delta = t.delta_product()
    if delta >= -eps:
        raise DegenerateAngles(
            f"sine product {delta:.3e} is not strictly negative")
    K = sum(math.cos(a) / math.sin(a) for a in t.as_tuple())
    if abs(K) < eps:
        raise DegenerateAngles("cotangent sum vanishes")
    f = Functional(*(1.0 / (K * s) for s in sines))
    incidence = f.dot(t.cosines())
    if abs(incidence - 1.0) > 1e-10:
        raise ConsistencyError(
            f"exposing functional incidence f.c = {incidence!r}")
    return f


# ---------------------------------------------------------------------------
# Gram realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GramSystem:
    """Unit vectors ``a1, a2, b1, b2`` in r-space with ``c_ij = a_i·b_j``,
    as tuples from :func:`gram_vectors` or any float sequences."""

    a1: tuple[float, ...]
    a2: tuple[float, ...]
    b1: tuple[float, ...]
    b2: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = {len(v) for v in self.vectors()}
        if len(lengths) != 1 or self.r < 1:
            raise ValueError(f"vectors must share one r-space, got {lengths}")
        for v in self.vectors():
            if abs(math.hypot(*v) - 1.0) > 1e-12:
                raise ValueError("Gram vectors must be unit length")

    @property
    def r(self) -> int:
        return len(self.a1)

    def vectors(self) -> tuple[tuple[float, ...], ...]:
        return (self.a1, self.a2, self.b1, self.b2)

    def correlation(self) -> Correlation:
        return Correlation(*(float(sum(x * y for x, y in zip(a, b)))
                             for a in (self.a1, self.a2)
                             for b in (self.b1, self.b2)))


def gram_vectors(comp: Completion,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> GramSystem:
    """Factor a PSD completion ``C`` into unit vectors ``(a1, a2, b1, b2)``.

    ``r`` steps of diagonal-pivoted Cholesky (the largest remaining
    diagonal entry first, the first on ties), ``r`` the numerical rank of
    :meth:`_Certificate.rank`, give rows ``F`` with ``F·Fᵀ ≈ C``, rescaled
    to exact unit length.  Raises :class:`NotPSD` unless
    :meth:`_Certificate.is_psd`, :class:`ConsistencyError` if ``F`` does
    not reproduce ``C`` to 1e-9.
    """
    if not comp.is_psd(tol):
        raise NotPSD(f"the completion is not PSD at eps_psd {tol.eps_psd:g}")
    matrix = comp.rows()
    a, live, columns = [list(row) for row in matrix], [0, 1, 2, 3], []
    for _ in range(comp.rank(tol)):
        p = max(live, key=lambda i: a[i][i])  # max keeps the first on ties
        live.remove(p)
        root = math.sqrt(a[p][p])
        column = [a[i][p] / root if i in live else 0.0 for i in range(4)]
        column[p] = root
        for i in live:
            for j in live:
                a[i][j] -= column[i] * column[j]
        columns.append(column)
    rows = []
    for row in zip(*columns):
        norm = math.hypot(*row)
        rows.append(tuple(x / norm for x in row))
    if not all(abs(sum(x * y for x, y in zip(ri, rj)) - m) <= 1e-9
               for ri, mrow in zip(rows, matrix) for rj, m in zip(rows, mrow)):
        raise ConsistencyError("Gram factorization residual exceeds 1e-9")
    return GramSystem(*rows)
