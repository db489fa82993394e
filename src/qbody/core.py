"""Foundational types and algebra for the two-setting correlation body.

Conventions used throughout the package:

* A correlation point is the 4-tuple ``c = (c11, c12, c21, c22)`` where the
  first index is Alice's measurement setting and the second is Bob's.  All
  matrix layouts index rows by Alice and columns by Bob in that order.
* ``N`` denotes the no-signalling cube ``[-1, 1]^4``, ``CL`` the classical
  cross polytope spanned by the eight even sign vertices of ``N``, and ``Q``
  the convex body of quantum-realizable correlations, ``CL ⊂ Q ⊂ N``.
* A functional ``f = (f11, f12, f21, f22)`` encodes the linear inequality
  ``f·c ≤ 1``; the polar body ``Q°`` collects all functionals valid on ``Q``.

Two quartic/sextic polynomials describe ``Q`` inside the cube:

    g(c) = 2 - (c11² + c12² + c21² + c22²) + 2·c11·c12·c21·c22
    h(c) = 4·(1-c11²)(1-c12²)(1-c21²)(1-c22²) - g(c)²
         = 4·(c11·c22 - c12·c21)(c11·c21 - c12·c22)(c11·c12 - c21·c22)
           - (c11+c12-c21-c22)(c11-c12+c21-c22)(c11-c12-c21+c22)(c11+c12+c21+c22)

``c ∈ Q`` iff ``c ∈ N`` and (``g(c) ≥ 0`` or ``h(c) ≥ 0``).  The degree-6
product form is better conditioned near the cube boundary and is the value
reported by :func:`primal_polys`; the squared form is kept as a consistency
assertion.

On the dual side the building blocks are

    k(f) = (f11·f22 - f12·f21)(f11·f12 - f21·f22)(f11·f21 - f12·f22)
    p(f) = f11·f12·f21·f22
    q(f) = product of the four even-signed sums of f  (= p(2Hf))

with the polar analogues ``h°(f) = h(2Hf)/256 = k(f) - p(f)`` and
``g°(f) = g(2Hf)/2 = 1 - 2·|f|² + q(f)``.

``H`` is the symmetric orthogonal involution (a scaled 4x4 Hadamard matrix,
the tensor square of the 2x2 one) realising self-duality: ``Q° = ½·H·Q``.
The common symmetry group of ``Q`` and ``CL`` consists of the 192 signed
permutation matrices with an even number of minus signs; they are kept as
one read-only ``(192, 4, 4)`` integer array so that group arithmetic is
exact.

Importing the package does not import numpy: every scalar quantity is
computed with Python floats, and numpy is imported inside the functions
that build or read arrays.  The symmetry group array is built on the first
:func:`symmetry_group` call; :func:`orbit` applies the group's signed
permutations to Python floats.

The frozen value types that every scalar call builds have a written
``__init__`` (``init=False``): :class:`Correlation`, :class:`Functional`,
:class:`PrimalPolys`, :class:`DualPolys`, ``MembershipVerdict``,
``Completion``, ``CompletionResult``, ``ExtremePoint``, ``AngleTuple``,
``CaseVerdict`` and ``QuantumModel``.  It stores the fields in
``__dict__``, not through ``object.__setattr__`` as the generated one
does, at a third of the cost; the rest of each dataclass is generated.

A :class:`Tolerance` (the CLI's ``--eps-*`` flags) holds the bands a user
tunes.  The bands below are fixed.  An *arithmetic* band bounds the
round-off of a computation, so an error analysis can prove or tighten
it; a *choice* decides what is accepted or reported, and moving it
changes answers.

    band                          value  kind        what it bounds
    core._REL_TOL                 1e-9   arithmetic  h forms; dual polys at 2Hf
    quantum_case criteria band    1e-9   arithmetic  three case criteria agree
    dual_member                   1e-8   arithmetic  support vs primal route
    duality._BALANCE_TOL          1e-10  arithmetic  rounding of p1 and p3
    phi_map, image in the cube    1e-9   arithmetic  dual image entries
    phi_map, branch closure       1e-8   arithmetic  arccos branch sum
    boundary._UNIQUE_WIDTH        1e-8   choice      width reported unique
    solve_completion, 1 - u²      1e-12  arithmetic  singular maximizer guard
    exposing_functional           1e-10  arithmetic  incidence f·c = 1
    gram_vectors                  1e-9   arithmetic  Gram factor residual
    quantum._PSI_NORM_TOL         1e-12  choice      model contract: |psi| = 1
    quantum._SYMMETRY_TOL         1e-12  choice      model contract: X = Xᵀ
    quantum._COMMUTATOR_TOL       1e-10  choice      model contract: [A, B] = 0
    quantum._SPECTRUM_TOL         1e-10  choice      model contract: |X| ≤ 1
    self-test basis cut           1e-10  arithmetic  rank of the cyclic basis
    measures._ANGLE_COLLAR        1e-2   choice      q4 samples off angle faces
    measures._FACET_COLLAR        1e-6   choice      q5 samples off Q3 and Q2
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Sequence

__all__ = [
    "QBodyError",
    "ConsistencyError",
    "InputOutsideCube",
    "AngleSumViolation",
    "NotExtreme",
    "DegenerateAngles",
    "AmbiguousClassification",
    "OutsideTetrahedron",
    "ZeroFunctional",
    "NotPSD",
    "InvalidModel",
    "DimensionTooLarge",
    "BadWeights",
    "InvalidSlice",
    "Correlation",
    "Functional",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "PrimalPolys",
    "DualPolys",
    "TransformDirection",
    "primal_polys",
    "dual_polys",
    "chsh_values",
    "dual_transform",
    "symmetry_group",
    "orbit",
]


# ---------------------------------------------------------------------------
# Exception hierarchy
# ---------------------------------------------------------------------------

class QBodyError(Exception):
    """Base class for all domain errors raised by this package."""


class ConsistencyError(QBodyError):
    """Two independent evaluation routes disagreed beyond tolerance.

    This signals a numerical breakdown (or a bug), not bad user input.
    """


class InputOutsideCube(QBodyError):
    """A coordinate exceeds the no-signalling cube beyond tolerance."""


class AngleSumViolation(QBodyError):
    """Angle tuple does not satisfy the sum-to-zero (mod 2π) constraint."""


class NotExtreme(QBodyError):
    """No angle representation exists; the point is not on an extreme stratum."""


class DegenerateAngles(QBodyError):
    """Angle tuple sits on the degenerate locus of the requested operation."""


class AmbiguousClassification(QBodyError):
    """The point is within tolerance of two strata with conflicting verdicts."""


class OutsideTetrahedron(QBodyError):
    """Angle tuple is outside the prototype parameter tetrahedron."""


class ZeroFunctional(QBodyError):
    """The zero functional has no case classification."""


class NotPSD(QBodyError):
    """A matrix required to be positive semidefinite is not."""


class InvalidModel(QBodyError):
    """A quantum model violates its defining hypotheses beyond tolerance."""


class DimensionTooLarge(QBodyError):
    """Vector system dimension exceeds what the construction supports."""


class BadWeights(QBodyError):
    """Mixture weights are not positive or do not sum to one."""


class InvalidSlice(QBodyError):
    """Slice specification is structurally invalid."""


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

def _check_finite(name: str, values: Iterable[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} entries must be finite, got {v!r}")


def _json_floats(value, n: int, what: str) -> tuple[float, ...]:
    """A decoded JSON array of ``n`` numbers as floats, or ``ValueError``:
    booleans and integers beyond the float range are refused, NaN passes."""
    if not isinstance(value, list) or len(value) != n or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            for x in value):
        raise ValueError(f"{what} must be a JSON array of {n} numbers")
    try:
        return tuple(map(float, value))
    except OverflowError:
        raise ValueError(f"{what} has an entry beyond the float range") \
            from None


class _Vector4:
    """Shared behaviour of the 4-coordinate value types below."""

    @classmethod
    def from_sequence(cls, seq: Sequence[float]):
        if len(seq) != 4:
            raise ValueError(f"expected 4 entries, got {len(seq)}")
        return cls(float(seq[0]), float(seq[1]), float(seq[2]), float(seq[3]))

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array(self.as_tuple(), dtype=float)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True, init=False)
class Correlation(_Vector4):
    """A candidate correlation point ``(c11, c12, c21, c22)``.

    Entries are expectation values of products of ±1 outcomes, so members of
    the cube have every entry in ``[-1, 1]``; arbitrary finite values are
    allowed here so that exterior points can be classified.
    """

    c11: float
    c12: float
    c21: float
    c22: float

    def __init__(self, c11: float, c12: float, c21: float, c22: float) -> None:
        if not (math.isfinite(c11) and math.isfinite(c12)
                and math.isfinite(c21) and math.isfinite(c22)):
            _check_finite(type(self).__name__, (c11, c12, c21, c22))
        d = self.__dict__
        d["c11"] = c11; d["c12"] = c12; d["c21"] = c21; d["c22"] = c22

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c11, self.c12, self.c21, self.c22)


@dataclass(frozen=True, init=False)
class Functional(_Vector4):
    """Coefficients of a linear correlation inequality ``f·c ≤ 1``."""

    f11: float
    f12: float
    f21: float
    f22: float

    def __init__(self, f11: float, f12: float, f21: float, f22: float) -> None:
        if not (math.isfinite(f11) and math.isfinite(f12)
                and math.isfinite(f21) and math.isfinite(f22)):
            _check_finite(type(self).__name__, (f11, f12, f21, f22))
        d = self.__dict__
        d["f11"] = f11; d["f12"] = f12; d["f21"] = f21; d["f22"] = f22

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f11, self.f12, self.f21, self.f22)

    def dot(self, c: "Correlation") -> float:
        return (self.f11 * c.c11 + self.f12 * c.c12
                + self.f21 * c.c21 + self.f22 * c.c22)


@dataclass(frozen=True)
class Tolerance:
    """Numeric tolerances shared by the geometric predicates.

    ``eps_boundary`` is the half-width of the boundary-ambiguity band in
    constraint-slack units, ``eps_angle`` the tolerance on angle identities,
    and ``eps_psd`` the relative eigenvalue threshold for semidefiniteness
    and numerical rank.
    """

    eps_boundary: float = 1e-9
    eps_angle: float = 1e-9
    eps_psd: float = 1e-10

    def __post_init__(self) -> None:
        if not (0 < self.eps_boundary < math.inf and 0 < self.eps_angle < math.inf
                and 0 < self.eps_psd < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.eps_psd > self.eps_boundary:
            raise ValueError("eps_psd must not exceed eps_boundary")


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True, init=False)
class PrimalPolys:
    """Values of the two defining polynomials at a correlation point."""

    g: float
    h: float

    def __init__(self, g: float, h: float) -> None:
        d = self.__dict__
        d["g"] = g; d["h"] = h


@dataclass(frozen=True, init=False)
class DualPolys:
    """Values of the dual-side polynomials at a functional."""

    k: float
    p: float
    q: float
    g_dual: float
    h_dual: float

    def __init__(self, k: float, p: float, q: float, g_dual: float,
                 h_dual: float) -> None:
        d = self.__dict__
        d["k"] = k; d["p"] = p; d["q"] = q
        d["g_dual"] = g_dual; d["h_dual"] = h_dual


class TransformDirection(enum.Enum):
    """Direction of the self-duality transform."""

    TO_DUAL = "to_dual"        # x -> ½·H·x
    FROM_DUAL = "from_dual"    # x -> 2·H·x


# ---------------------------------------------------------------------------
# Column kernels
# ---------------------------------------------------------------------------
#
# Every formula is written once, as a function of the four coordinates.
# The same code evaluates one point (Python floats) or a batch (numpy
# columns, ``*pts.T``).  Kernels use only ``+ - * |``, comparisons, the
# builtins ``abs`` and ``sum``, and ``minimum``, ``maximum``, ``sqrt``,
# ``arcsin`` and ``clip`` from a namespace argument ``xp``: ``numpy`` for
# arrays, :class:`_Floats` for floats, which returns the argument the
# builtin ``min`` or ``max`` would, without its argument parsing.
# Batch callers go through ``membership._by_blocks``, which evaluates a
# kernel a few thousand rows at a time: a kernel makes a few dozen
# temporaries, and on block-sized columns they stay in the core's cache.
# A kernel accumulates in place (``s = a * a; s += b * b``, one quantity
# per line) only into a temporary it created, never into an argument; on
# a float ``s += t`` is ``s = s + t``, so both paths round the same way.

class _Floats:
    """The five numpy functions the kernels use, over floats: ``minimum``,
    ``maximum`` and ``clip`` return the argument object that ``min(a, b)``,
    ``max(a, b)`` and ``min(hi, max(lo, v))`` return, NaN and ±0.0 too."""

    sqrt, arcsin = math.sqrt, math.asin
    minimum = staticmethod(lambda a, b: b if b < a else a)
    maximum = staticmethod(lambda a, b: b if b > a else a)

    @staticmethod
    def clip(v, lo, hi):
        v = v if v > lo else lo
        return v if v < hi else hi


def _g(c11, c12, c21, c22):
    g = c11 * c11; g += c12 * c12; g += c21 * c21; g += c22 * c22
    prod = 2.0 * c11; prod *= c12; prod *= c21; prod *= c22
    g = 2.0 - g; g += prod
    return g


def _h(c11, c12, c21, c22):
    """``h`` in the degree-6 product form."""
    sextic = c11 * c22; sextic -= c12 * c21
    factor = c11 * c21; factor -= c12 * c22; sextic *= factor
    factor = c11 * c12; factor -= c21 * c22; sextic *= factor
    sextic *= 4.0
    # the even CHSH sums c11 ± c12 ± c21 ± c22, sharing c11 ± c12
    plus, minus = c11 + c12, c11 - c12
    quartic = plus - c21; quartic -= c22
    factor = minus + c21; factor -= c22; quartic *= factor
    minus -= c21; minus += c22; quartic *= minus
    plus += c21; plus += c22; quartic *= plus
    sextic -= quartic
    return sextic


def _h_squared(c11: float, c12: float, c21: float, c22: float) -> float:
    g = _g(c11, c12, c21, c22)
    return 4.0 * ((1.0 - c11 * c11) * (1.0 - c12 * c12)
                  * (1.0 - c21 * c21) * (1.0 - c22 * c22)) - g * g


def _k(f11, f12, f21, f22):
    return ((f11 * f22 - f12 * f21)
            * (f11 * f12 - f21 * f22)
            * (f11 * f21 - f12 * f22))


def _q(f11, f12, f21, f22):
    return ((f11 + f12 + f21 + f22)
            * (f11 - f12 + f21 - f22)
            * (f11 + f12 - f21 - f22)
            * (f11 - f12 - f21 + f22))


def _h_polar(f11, f12, f21, f22):
    """``h°(f) = k(f) - p(f)``."""
    return _k(f11, f12, f21, f22) - f11 * f12 * f21 * f22


def _two_h(t0, t1, t2, t3):
    """``2H·t`` summed as ``(t0 ± t2) ± (t1 ± t3)``; ``½H·t`` is
    ``0.25·_two_h(*t)``."""
    s02, s13, d02, d13 = t0 + t2, t1 + t3, t0 - t2, t1 - t3
    return (s02 + s13, s02 - s13, d02 + d13, d02 - d13)


def _odd_sums(c11, c12, c21, c22):
    """``Σ s_ij·c_ij`` for the odd patterns 0001, 0010, 0100 and 0111, twice
    the CHSH halves; ``x ↦ fl(0.5·x)`` is monotone, so the halving may
    follow a maximum.  The other four odd patterns are the negations of
    these, in reverse order; negation is exact."""
    plus, minus = c11 + c12, c11 - c12
    s0001 = plus + c21; s0001 -= c22
    s0100 = minus + c21; s0100 += c22
    plus -= c21; plus += c22
    minus -= c21; minus -= c22
    return s0001, plus, s0100, minus


def _fold_sum(values):
    """``values`` added left to right from the integer 0: ``sum`` before
    Python 3.12, which compensates float round-off, on every version."""
    total = 0
    for v in values:
        total += v
    return total


_REL_TOL = 1e-9  # the bound of the polynomial cross-checks below


def _assert_close(a: float, b: float, rel: float, what: str) -> None:
    # NaN, and inf - inf, compare false with the bound, so are caught first
    if not (math.isfinite(a) and math.isfinite(b)) \
            or abs(a - b) > rel * _Floats.maximum(
                _Floats.maximum(1.0, abs(a)), abs(b)):
        raise ConsistencyError(f"{what}: {a!r} vs {b!r}")


def primal_polys(c: Correlation) -> PrimalPolys:
    """Evaluate ``g`` and ``h`` at ``c``.

    ``h`` is reported from the degree-6 product form; the squared form is
    evaluated as well and the two must agree within ``_REL_TOL`` relative
    to ``max(1, |h|)``, otherwise :class:`ConsistencyError` is raised, as it
    is first when ``g`` or ``h`` leaves the float range.
    """
    t = c.as_tuple()
    g = _g(*t)
    h = _h(*t)
    if not (math.isfinite(g) and math.isfinite(h)):
        raise ConsistencyError(
            f"g or h of {c!r} overflows the float range: g={g!r}, h={h!r}")
    h_alt = _h_squared(*t)
    _assert_close(h, h_alt, _REL_TOL, "two evaluation forms of h disagree")
    return PrimalPolys(g=g, h=h)


def dual_polys(f: Functional) -> DualPolys:
    """Evaluate the dual-side polynomials at ``f``.

    ``h_dual = k - p`` and ``g_dual = 1 - 2|f|² + q`` are cross-checked
    against the transform route, ``h(2Hf)/256`` and ``g(2Hf)/2``.
    """
    t = f.as_tuple()
    f11, f12, f21, f22 = t
    k = _k(*t)
    p = f11 * f12 * f21 * f22
    q = _q(*t)
    norm2 = f11 * f11 + f12 * f12 + f21 * f21 + f22 * f22
    h_dual = k - p
    g_dual = 1.0 - 2.0 * norm2 + q

    y = _two_h(*t)
    _assert_close(h_dual, _h(*y) / 256.0, _REL_TOL, "h_dual vs h(2Hf)/256")
    _assert_close(g_dual, _g(*y) / 2.0, _REL_TOL, "g_dual vs g(2Hf)/2")
    return DualPolys(k=k, p=p, q=q, g_dual=g_dual, h_dual=h_dual)


# ---------------------------------------------------------------------------
# CHSH combinations
# ---------------------------------------------------------------------------

def chsh_values(c: Correlation) -> tuple[float, ...]:
    """The eight combinations ``½·Σ s_ij·c_ij`` over odd sign patterns.

    Returned in the order of the patterns ``s11 s12 s21 s22`` (1 a minus
    sign) 0001, 0010, 0100 and 0111, then their negations 1000, 1011, 1101
    and 1110.  Classical points have every value ≤ 1; cube points violate
    at most one.
    """
    s = _odd_sums(*c.as_tuple())
    h0, h1, h2, h3 = 0.5 * s[0], 0.5 * s[1], 0.5 * s[2], 0.5 * s[3]
    return h0, h1, h2, h3, -h3, -h2, -h1, -h0


# ---------------------------------------------------------------------------
# Duality transform
# ---------------------------------------------------------------------------

def dual_transform(x: Sequence[float],
                   direction: TransformDirection) -> tuple[float, ...]:
    """Apply the self-duality reflection to a 4-vector.

    ``TO_DUAL`` maps ``x`` to ``½Hx`` (a point of ``Q`` to a functional in
    ``Q°``), ``FROM_DUAL`` maps to ``2Hx``; the two are mutually inverse
    because ``H`` is an involution.
    """
    v = tuple(float(t) for t in x)
    if len(v) != 4:
        raise ValueError("dual_transform expects a 4-vector")
    if direction is TransformDirection.TO_DUAL:
        return tuple(0.25 * t for t in _two_h(*v))
    if direction is TransformDirection.FROM_DUAL:
        return _two_h(*v)
    raise ValueError(  # pragma: no cover - enum is closed
        f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Symmetry group
# ---------------------------------------------------------------------------

# The group as ``(perm, signs)`` pairs with ``S[i, perm[i]] = signs[i]``:
# permutations outer, even sign tuples inner.
_GROUP = tuple(
    (perm, signs)
    for perm in permutations(range(4))
    for signs in product((1, -1), repeat=4)
    if signs[0] * signs[1] * signs[2] * signs[3] == 1
)


@functools.cache
def _build_group() -> np.ndarray:
    import numpy as np
    mats = np.zeros((192, 4, 4), dtype=np.int64)
    for k, (perm, signs) in enumerate(_GROUP):
        mats[k, range(4), perm] = signs
    mats.flags.writeable = False
    return mats


def symmetry_group() -> np.ndarray:
    """All 192 signed 4x4 permutation matrices with an even sign count.

    These are exactly the linear maps permuting the even vertices of the
    cube among themselves, hence the common symmetries of ``CL`` and ``Q``.
    The group is one read-only ``(192, 4, 4)`` int64 array, so products and
    inverses are exact; element ``k`` runs over permutations (outer) and
    even sign tuples (inner), with ``S[i, perm[i]] = sign[i]``.  It is
    built on the first call.
    """
    return _build_group()


def orbit(c: Correlation, tol: Tolerance = DEFAULT_TOLERANCE) -> list[Correlation]:
    """The set ``{S·c}`` over the symmetry group, deduplicated.

    Points closer than ``tol.eps_angle`` in max norm are identified.  The
    result is ordered lexicographically for reproducibility.  Images are
    built from the group's ``(perm, signs)`` pairs in Python floats, each
    coordinate as ``s·c[perm[i]] + 0.0``: exact, with every zero ``+0.0``.
    """
    v = c.as_tuple()
    images = sorted(tuple(s * v[j] + 0.0 for j, s in zip(perm, signs))
                    for perm, signs in _GROUP)
    # lexicographic order does not make near-duplicates adjacent, so each
    # kept image drops every later one within the tolerance; the first
    # coordinate is sorted, so the scan stops where it alone is that far
    eps = tol.eps_angle
    keep = [True] * len(images)
    for i, (a0, a1, a2, a3) in enumerate(images):
        if not keep[i]:
            continue
        for j in range(i + 1, len(images)):
            b0, b1, b2, b3 = images[j]
            if b0 - a0 >= eps:
                break
            if abs(b1 - a1) < eps and abs(b2 - a2) < eps \
                    and abs(b3 - a3) < eps:
                keep[j] = False
    return [Correlation(*img) for img, k in zip(images, keep) if k]
